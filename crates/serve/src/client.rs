//! A blocking client for the serve protocol.
//!
//! Used by the bench load generator, the CI smoke test and the
//! `query_server` example; kept deliberately synchronous (one in-flight
//! request per connection) because that is what the load generator wants to
//! model — per-request latency under N independent connections.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Errors surfaced by the client.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The server answered something the client cannot parse.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A parsed `QUERY` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryReply {
    /// Number of answer tuples.
    pub count: usize,
    /// Epoch of the snapshot the answers came from.
    pub epoch: u64,
    /// The plan kind the server executed (`rewrite`, `chase`, `hybrid`,
    /// `besteffort`).
    pub plan: String,
    /// The strategy that actually ran (`rewriting`, `materialization`,
    /// `combined`).
    pub strategy: String,
    /// True if the plan came from the cache.
    pub cache_hit: bool,
    /// True if the answers are exactly the certain answers.
    pub exact: bool,
    /// Server-side latency, microseconds.
    pub server_us: u64,
    /// The answer rows (constants as plain strings).
    pub rows: Vec<Vec<String>>,
}

/// A parsed `EXPLAIN` reply: the header fields plus the plan dump lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainReply {
    /// The header key-value fields (`key`, `plan`, `disjuncts`, `exact`,
    /// `cached`).
    pub fields: BTreeMap<String, String>,
    /// The `INFO` lines of the plan dump, in order.
    pub info: Vec<String>,
}

/// Bounded reconnect-and-retry for transient transport failures —
/// **off by default**; opt in with [`ServeClient::with_retry`].
///
/// When armed, a request that fails transiently (an I/O error, the server
/// closing the connection, or an `idle timeout` reap) is retried: the
/// client backs off exponentially with deterministic jitter, reconnects,
/// replays the connection's `TENANT USE` state, and resends the request.
/// Mutating requests (`INSERT`/`DELETE`) retried this way are
/// **at-least-once**: a commit that was applied but whose acknowledgement
/// was lost is applied again. Other server-reported `ERR` replies are
/// never retried.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retry attempts after the initial failure.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream (an LCG), so a test or a
    /// reproduced incident backs off identically run to run.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x0005_eed5_eed5_eed5,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (0-based): the exponential step,
    /// capped, then jittered into `[50%, 100%]` so a fleet of clients
    /// recovering from the same outage does not thunder back in lockstep.
    fn delay(&self, attempt: u32, state: &mut u64) -> Duration {
        let doubled = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let capped = doubled.min(self.max_delay);
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (*state >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(capped.as_secs_f64() * (0.5 + unit / 2.0))
    }
}

/// True for failures a reconnect can plausibly cure.
fn is_transient(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) => true,
        ClientError::Protocol(m) => m == "server closed the connection",
        ClientError::Server(m) => m == "idle timeout",
    }
}

/// A blocking connection to an `ontorew-serve` server.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: Option<std::net::SocketAddr>,
    retry: Option<RetryPolicy>,
    jitter_state: u64,
    tenant: Option<String>,
    /// Whether this connection sent `TRACE ON`: every subsequent kept-open
    /// `OK` response is followed by a trace dump block the client must
    /// drain to stay in sync.
    traced: bool,
}

impl ServeClient {
    /// Connect to `addr` (e.g. `127.0.0.1:7411`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Generous timeout so a wedged server fails the caller instead of
        // hanging it forever.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        let peer = stream.peer_addr().ok();
        Ok(ServeClient {
            reader: BufReader::new(stream),
            writer,
            peer,
            retry: None,
            jitter_state: 0,
            tenant: None,
            traced: false,
        })
    }

    /// Arm this client with a [`RetryPolicy`] (retries are off by default).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.jitter_state = policy.jitter_seed;
        self.retry = Some(policy);
        self
    }

    /// Re-establish the TCP connection and replay the `TENANT USE` state,
    /// so a retried request lands on the tenant the caller selected.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let peer = self.peer.ok_or_else(|| {
            ClientError::Protocol("cannot reconnect: peer address unknown".into())
        })?;
        let stream = TcpStream::connect(peer)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        if let Some(tenant) = self.tenant.clone() {
            self.tenant_use_once(&tenant)?;
        }
        // Re-arm tracing: the server's flag is per-connection. The fresh
        // connection is not yet traced, so neither replay reply carries a
        // trace block.
        if self.traced {
            self.trace_once(true)?;
        }
        Ok(())
    }

    /// Run `op`, retrying transient failures per the armed policy (none by
    /// default: the first error is final).
    fn retrying<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Ok(value) => {
                    // A traced connection gets a trace dump block after
                    // every kept-open OK response (never after ERR); drain
                    // it here so every verb stays framed correctly.
                    if self.traced {
                        self.drain_trace_block()?;
                    }
                    return Ok(value);
                }
                Err(e) => e,
            };
            let Some(policy) = self.retry else {
                return Err(err);
            };
            if attempt >= policy.max_retries || !is_transient(&err) {
                return Err(err);
            }
            std::thread::sleep(policy.delay(attempt, &mut self.jitter_state));
            attempt += 1;
            // Reconnect best-effort: if it fails transiently the next
            // attempt fails fast on the dead stream and consumes budget;
            // a hard failure (e.g. the selected tenant no longer exists)
            // surfaces instead of silently rerouting requests.
            if let Err(e) = self.reconnect() {
                if !is_transient(&e) {
                    return Err(e);
                }
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        writeln!(self.writer, "{line}")?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        Ok(line.trim_end().to_string())
    }

    fn expect_ok(&mut self, line: String) -> Result<String, ClientError> {
        if let Some(rest) = line.strip_prefix("OK ") {
            Ok(rest.to_string())
        } else if let Some(msg) = line.strip_prefix("ERR ") {
            Err(ClientError::Server(msg.to_string()))
        } else {
            Err(ClientError::Protocol(format!("unexpected reply: {line}")))
        }
    }

    /// `PING` → `PONG`.
    fn ping_once(&mut self) -> Result<(), ClientError> {
        self.send("PING")?;
        let reply = self.read_line()?;
        match self.expect_ok(reply)?.as_str() {
            "PONG" => Ok(()),
            other => Err(ClientError::Protocol(format!("expected PONG, got {other}"))),
        }
    }

    /// `PREPARE <query>` → (key, disjuncts, complete, cached).
    fn prepare_once(&mut self, query: &str) -> Result<BTreeMap<String, String>, ClientError> {
        self.send(&format!("PREPARE {query}"))?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("PREPARED ")
            .ok_or_else(|| ClientError::Protocol(format!("expected PREPARED, got {rest}")))?;
        Ok(parse_kv(rest))
    }

    /// `QUERY <query>` → answers plus response metadata.
    fn query_once(&mut self, query: &str) -> Result<QueryReply, ClientError> {
        self.send(&format!("QUERY {query}"))?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("ANSWERS ")
            .ok_or_else(|| ClientError::Protocol(format!("expected ANSWERS, got {rest}")))?;
        let kv = parse_kv(rest);
        let count: usize = field(&kv, "count")?;
        let mut rows = Vec::with_capacity(count);
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            match line.strip_prefix("ROW") {
                Some(cells) => rows.push(crate::proto::parse_row(cells)),
                None => {
                    return Err(ClientError::Protocol(format!(
                        "expected ROW or END, got {line}"
                    )))
                }
            }
        }
        if rows.len() != count {
            return Err(ClientError::Protocol(format!(
                "header said count={count} but {} rows arrived",
                rows.len()
            )));
        }
        Ok(QueryReply {
            count,
            epoch: field(&kv, "epoch")?,
            plan: kv.get("plan").cloned().unwrap_or_default(),
            strategy: kv.get("strategy").cloned().unwrap_or_default(),
            cache_hit: kv.get("cache").map(|v| v == "hit").unwrap_or(false),
            exact: kv.get("exact").map(|v| v == "true").unwrap_or(false),
            server_us: field(&kv, "us")?,
            rows,
        })
    }

    /// `EXPLAIN <query>` → the plan header plus the dump lines.
    fn explain_once(&mut self, query: &str) -> Result<ExplainReply, ClientError> {
        self.send(&format!("EXPLAIN {query}"))?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("PLAN ")
            .ok_or_else(|| ClientError::Protocol(format!("expected PLAN, got {rest}")))?;
        let fields = parse_kv(rest);
        let mut info = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            match line.strip_prefix("INFO ") {
                Some(text) => info.push(text.to_string()),
                None => {
                    return Err(ClientError::Protocol(format!(
                        "expected INFO or END, got {line}"
                    )))
                }
            }
        }
        Ok(ExplainReply { fields, info })
    }

    /// `TENANT CREATE <name> <program>` → the reported fields.
    fn tenant_create_once(
        &mut self,
        name: &str,
        program: &str,
    ) -> Result<BTreeMap<String, String>, ClientError> {
        self.send(&format!("TENANT CREATE {name} {program}"))?;
        self.tenant_reply()
    }

    /// `TENANT USE <name>`: route this connection's requests to a tenant.
    fn tenant_use_once(&mut self, name: &str) -> Result<BTreeMap<String, String>, ClientError> {
        self.send(&format!("TENANT USE {name}"))?;
        self.tenant_reply()
    }

    /// `TENANT DROP <name>`.
    fn tenant_drop_once(&mut self, name: &str) -> Result<BTreeMap<String, String>, ClientError> {
        self.send(&format!("TENANT DROP {name}"))?;
        self.tenant_reply()
    }

    /// `TENANT LIST` → (count, names).
    fn tenant_list_once(&mut self) -> Result<Vec<String>, ClientError> {
        self.send("TENANT LIST")?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("TENANTS ")
            .ok_or_else(|| ClientError::Protocol(format!("expected TENANTS, got {rest}")))?;
        let kv = parse_kv(rest);
        Ok(kv
            .get("names")
            .map(|names| names.split(',').map(str::to_string).collect())
            .unwrap_or_default())
    }

    fn tenant_reply(&mut self) -> Result<BTreeMap<String, String>, ClientError> {
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("TENANT ")
            .ok_or_else(|| ClientError::Protocol(format!("expected TENANT, got {rest}")))?;
        Ok(parse_kv(rest))
    }

    /// `INSERT <facts>` → (added, epoch).
    fn insert_once(&mut self, facts: &str) -> Result<(usize, u64), ClientError> {
        self.send(&format!("INSERT {facts}"))?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("INSERTED ")
            .ok_or_else(|| ClientError::Protocol(format!("expected INSERTED, got {rest}")))?;
        let kv = parse_kv(rest);
        Ok((field(&kv, "added")?, field(&kv, "epoch")?))
    }

    /// `DELETE <facts>` → (removed, epoch).
    fn delete_once(&mut self, facts: &str) -> Result<(usize, u64), ClientError> {
        self.send(&format!("DELETE {facts}"))?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("DELETED ")
            .ok_or_else(|| ClientError::Protocol(format!("expected DELETED, got {rest}")))?;
        let kv = parse_kv(rest);
        Ok((field(&kv, "removed")?, field(&kv, "epoch")?))
    }

    /// `WHY <fact>` → the explanation header plus its `INFO` lines
    /// (derivation steps when present, blocked candidates when absent).
    fn why_once(&mut self, fact: &str) -> Result<ExplainReply, ClientError> {
        self.send(&format!("WHY {fact}"))?;
        self.explanation_reply("WHY ")
    }

    /// `WHY NOT <fact>` → the explanation header plus its `INFO` lines.
    fn why_not_once(&mut self, fact: &str) -> Result<ExplainReply, ClientError> {
        self.send(&format!("WHY NOT {fact}"))?;
        self.explanation_reply("WHYNOT ")
    }

    fn explanation_reply(&mut self, header: &str) -> Result<ExplainReply, ClientError> {
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest.strip_prefix(header).ok_or_else(|| {
            ClientError::Protocol(format!("expected {}, got {rest}", header.trim()))
        })?;
        let fields = parse_kv(rest);
        let mut info = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            match line.strip_prefix("INFO ") {
                Some(text) => info.push(text.to_string()),
                None => {
                    return Err(ClientError::Protocol(format!(
                        "expected INFO or END, got {line}"
                    )))
                }
            }
        }
        Ok(ExplainReply { fields, info })
    }

    /// `STATS` → all reported fields as a string map. The header fields
    /// keep their plain names; each per-tenant `INFO` line is folded in
    /// under `tenant.<name>.<field>` keys.
    fn stats_once(&mut self) -> Result<BTreeMap<String, String>, ClientError> {
        self.send("STATS")?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("STATS ")
            .ok_or_else(|| ClientError::Protocol(format!("expected STATS, got {rest}")))?;
        let mut fields = parse_kv(rest);
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            let Some(text) = line.strip_prefix("INFO ") else {
                return Err(ClientError::Protocol(format!(
                    "expected INFO or END, got {line}"
                )));
            };
            let kv = parse_kv(text);
            if let Some(name) = kv.get("tenant").cloned() {
                for (k, v) in kv {
                    if k != "tenant" {
                        fields.insert(format!("tenant.{name}.{k}"), v);
                    }
                }
            }
        }
        Ok(fields)
    }

    /// `METRICS` → the Prometheus text exposition (without the wire
    /// framing).
    fn metrics_once(&mut self) -> Result<String, ClientError> {
        self.send("METRICS")?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        if !rest.starts_with("METRICS ") {
            return Err(ClientError::Protocol(format!(
                "expected METRICS, got {rest}"
            )));
        }
        let mut text = String::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            text.push_str(&line);
            text.push('\n');
        }
        Ok(text)
    }

    /// `TRACE ON|OFF` → the server-confirmed state.
    fn trace_once(&mut self, enabled: bool) -> Result<bool, ClientError> {
        self.send(if enabled { "TRACE ON" } else { "TRACE OFF" })?;
        let reply = self.read_line()?;
        let rest = self.expect_ok(reply)?;
        let rest = rest
            .strip_prefix("TRACE enabled=")
            .ok_or_else(|| ClientError::Protocol(format!("expected TRACE, got {rest}")))?;
        Ok(rest == "true")
    }

    /// Read one trace dump block (`TRACE id=...`, `INFO` lines, `END`).
    fn drain_trace_block(&mut self) -> Result<Vec<String>, ClientError> {
        let header = self.read_line()?;
        if !header.starts_with("TRACE id=") {
            return Err(ClientError::Protocol(format!(
                "expected a trace dump, got {header}"
            )));
        }
        let mut lines = vec![header];
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// `PING` → `PONG`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.retrying(|c| c.ping_once())
    }

    /// `PREPARE <query>` → (key, disjuncts, complete, cached).
    pub fn prepare(&mut self, query: &str) -> Result<BTreeMap<String, String>, ClientError> {
        self.retrying(|c| c.prepare_once(query))
    }

    /// `QUERY <query>` → answers plus response metadata.
    pub fn query(&mut self, query: &str) -> Result<QueryReply, ClientError> {
        self.retrying(|c| c.query_once(query))
    }

    /// `EXPLAIN <query>` → the plan header plus the dump lines.
    pub fn explain(&mut self, query: &str) -> Result<ExplainReply, ClientError> {
        self.retrying(|c| c.explain_once(query))
    }

    /// `TENANT CREATE <name> <program>` → the reported fields.
    pub fn tenant_create(
        &mut self,
        name: &str,
        program: &str,
    ) -> Result<BTreeMap<String, String>, ClientError> {
        self.retrying(|c| c.tenant_create_once(name, program))
    }

    /// `TENANT USE <name>`: route this connection's requests to a tenant.
    /// The selection is remembered and replayed after a retry reconnect.
    pub fn tenant_use(&mut self, name: &str) -> Result<BTreeMap<String, String>, ClientError> {
        let reply = self.retrying(|c| c.tenant_use_once(name))?;
        self.tenant = Some(name.to_string());
        Ok(reply)
    }

    /// `TENANT DROP <name>`.
    pub fn tenant_drop(&mut self, name: &str) -> Result<BTreeMap<String, String>, ClientError> {
        let reply = self.retrying(|c| c.tenant_drop_once(name))?;
        // Dropping the current tenant reroutes the connection to default
        // server-side; forget it so a reconnect does not replay a ghost.
        if self.tenant.as_deref() == Some(name) {
            self.tenant = None;
        }
        Ok(reply)
    }

    /// `TENANT LIST` → the tenant names.
    pub fn tenant_list(&mut self) -> Result<Vec<String>, ClientError> {
        self.retrying(|c| c.tenant_list_once())
    }

    /// `INSERT <facts>` → (added, epoch). With retries armed this is
    /// at-least-once: see [`RetryPolicy`].
    pub fn insert(&mut self, facts: &str) -> Result<(usize, u64), ClientError> {
        self.retrying(|c| c.insert_once(facts))
    }

    /// `DELETE <facts>` → (removed, epoch). With retries armed this is
    /// at-least-once: see [`RetryPolicy`].
    pub fn delete(&mut self, facts: &str) -> Result<(usize, u64), ClientError> {
        self.retrying(|c| c.delete_once(facts))
    }

    /// `WHY <fact>` → the explanation header plus its `INFO` lines
    /// (derivation steps when present, blocked candidates when absent).
    pub fn why(&mut self, fact: &str) -> Result<ExplainReply, ClientError> {
        self.retrying(|c| c.why_once(fact))
    }

    /// `WHY NOT <fact>` → the explanation header plus its `INFO` lines.
    pub fn why_not(&mut self, fact: &str) -> Result<ExplainReply, ClientError> {
        self.retrying(|c| c.why_not_once(fact))
    }

    /// `STATS` → all reported fields as a string map (per-tenant lines
    /// under `tenant.<name>.<field>` keys).
    pub fn stats(&mut self) -> Result<BTreeMap<String, String>, ClientError> {
        self.retrying(|c| c.stats_once())
    }

    /// `METRICS` → the server's Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.retrying(|c| c.metrics_once())
    }

    /// `TRACE ON|OFF`: toggle per-request trace dumps on this connection.
    /// While on, the client silently drains the dump that follows every
    /// `OK` response; use the raw protocol to inspect the dumps themselves.
    pub fn trace(&mut self, enabled: bool) -> Result<bool, ClientError> {
        // While still armed, the toggle's own OK reply carries one final
        // dump, which `retrying` drains before this returns.
        let confirmed = self.retrying(|c| c.trace_once(enabled))?;
        self.traced = confirmed;
        Ok(confirmed)
    }

    /// `QUIT`: close this connection politely.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.send("QUIT")?;
        let _ = self.read_line();
        Ok(())
    }

    /// `SHUTDOWN`: stop the whole server.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send("SHUTDOWN")?;
        let _ = self.read_line();
        Ok(())
    }
}

/// Parse `k1=v1 k2=v2 ...` into a map.
fn parse_kv(text: &str) -> BTreeMap<String, String> {
    text.split_whitespace()
        .filter_map(|pair| {
            pair.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn field<T: std::str::FromStr>(kv: &BTreeMap<String, String>, key: &str) -> Result<T, ClientError> {
    kv.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("missing or malformed field {key}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};
    use crate::service::{QueryService, ServiceConfig};
    use ontorew_model::parse_program;
    use ontorew_model::Instance;
    use std::sync::Arc;

    fn start() -> crate::server::ServerHandle {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let mut store = Instance::new();
        store.insert_fact("student", &["sara"]);
        let service = Arc::new(QueryService::new(program, store, ServiceConfig::default()));
        serve(service, ServerConfig::default()).unwrap()
    }

    #[test]
    fn full_client_session() {
        let handle = start();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        let prepared = client.prepare("q(X) :- person(X)").unwrap();
        assert_eq!(prepared.get("cached").map(String::as_str), Some("false"));
        assert!(prepared.get("key").is_some_and(|k| k.starts_with('p')));
        assert_eq!(prepared.get("plan").map(String::as_str), Some("hybrid"));

        let reply = client.query("q(X) :- person(X)").unwrap();
        assert_eq!(reply.count, 1);
        assert!(reply.cache_hit);
        assert!(reply.exact);
        assert_eq!(reply.plan, "hybrid");
        assert_eq!(reply.strategy, "rewriting");
        assert_eq!(reply.rows, vec![vec!["sara".to_string()]]);

        let explained = client.explain("q(X) :- person(X)").unwrap();
        assert_eq!(
            explained.fields.get("plan").map(String::as_str),
            Some("hybrid")
        );
        assert!(explained.info.iter().any(|l| l.starts_with("reason:")));

        let (added, epoch) = client.insert("student(zoe); student(ada)").unwrap();
        assert_eq!((added, epoch), (2, 1));
        let reply = client.query("q(X) :- person(X)").unwrap();
        assert_eq!((reply.count, reply.epoch), (3, 1));

        // Constants with whitespace survive the ROW codec end to end.
        client.insert("nickname(zoe, \"zoe the great\")").unwrap();
        let reply = client.query("q(N) :- nickname(zoe, N)").unwrap();
        assert_eq!(reply.rows, vec![vec!["zoe the great".to_string()]]);

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("inserts").map(String::as_str), Some("2"));

        // A malformed query surfaces as a server error, not a wedge.
        let err = client.query("garbage").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err}");
        // The connection is still usable afterwards.
        client.ping().unwrap();
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn client_drives_delete_and_why() {
        let handle = start();
        let mut client = ServeClient::connect(handle.addr()).unwrap();

        let why = client.why("person(sara)").unwrap();
        assert_eq!(why.fields.get("present").map(String::as_str), Some("true"));
        assert_eq!(why.fields.get("steps").map(String::as_str), Some("2"));
        assert!(
            why.info
                .iter()
                .any(|l| l.contains("student(sara) asserted")),
            "{:?}",
            why.info
        );

        let why_not = client.why_not("person(bob)").unwrap();
        assert_eq!(
            why_not.fields.get("present").map(String::as_str),
            Some("false")
        );
        assert!(
            why_not
                .info
                .iter()
                .any(|l| l.contains("missing=student(bob)")),
            "{:?}",
            why_not.info
        );

        let (removed, epoch) = client.delete("student(sara)").unwrap();
        assert_eq!((removed, epoch), (1, 1));
        assert_eq!(client.query("q(X) :- person(X)").unwrap().count, 0);

        let stats = client.stats().unwrap();
        assert_eq!(stats.get("deletes").map(String::as_str), Some("1"));
        assert_eq!(stats.get("whys").map(String::as_str), Some("2"));
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn retry_reconnects_after_an_idle_reap_and_replays_the_tenant() {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let service = Arc::new(QueryService::new(
            program,
            Instance::new(),
            ServiceConfig::default(),
        ));
        let handle = serve(
            service,
            ServerConfig {
                idle_timeout: Duration::from_millis(250),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = ServeClient::connect(handle.addr())
            .unwrap()
            .with_retry(RetryPolicy {
                base_delay: Duration::from_millis(1),
                ..RetryPolicy::default()
            });
        client
            .tenant_create("hr", "[R1] worksIn(X, D) -> employee(X).")
            .unwrap();
        client.tenant_use("hr").unwrap();
        client.insert("worksIn(ann, cs)").unwrap();
        // Go idle long enough to be reaped, then keep using the client: the
        // retry layer reconnects and lands back on the hr tenant.
        std::thread::sleep(Duration::from_millis(700));
        let reply = client.query("q(X) :- employee(X)").unwrap();
        assert_eq!(reply.rows, vec![vec!["ann".to_string()]]);
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn retries_are_off_by_default() {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let service = Arc::new(QueryService::new(
            program,
            Instance::new(),
            ServiceConfig::default(),
        ));
        let handle = serve(
            service,
            ServerConfig {
                idle_timeout: Duration::from_millis(250),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        std::thread::sleep(Duration::from_millis(700));
        let err = client.ping().unwrap_err();
        assert!(
            is_transient(&err),
            "reap surfaces as a transient error: {err}"
        );
        handle.shutdown();
    }

    #[test]
    fn retry_gives_up_after_the_budget() {
        let handle = start();
        let addr = handle.addr();
        let mut client = ServeClient::connect(addr).unwrap().with_retry(RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            ..RetryPolicy::default()
        });
        client.ping().unwrap();
        handle.shutdown();
        // The server is gone for good: a bounded number of attempts, then
        // the last transient error is returned.
        let err = client.ping().unwrap_err();
        assert!(is_transient(&err), "{err}");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        let mut a = policy.jitter_seed;
        let mut b = policy.jitter_seed;
        for attempt in 0..10 {
            let x = policy.delay(attempt, &mut a);
            let y = policy.delay(attempt, &mut b);
            assert_eq!(x, y, "same seed, same schedule");
            assert!(x <= policy.max_delay);
            let step = policy
                .base_delay
                .saturating_mul(1u32 << attempt.min(20))
                .min(policy.max_delay);
            assert!(x >= step / 2, "jitter stays within [50%, 100%] of the step");
        }
    }

    #[test]
    fn client_scrapes_metrics_and_toggles_tracing() {
        let handle = start();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        client.query("q(X) :- person(X)").unwrap();

        let text = client.metrics().unwrap();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(
            text.contains("request_seconds_count{") && text.contains("tenant=\"default\""),
            "{text}"
        );

        // With tracing on, every verb still round-trips cleanly (the
        // client drains the dump blocks), including STATS and METRICS.
        assert!(client.trace(true).unwrap());
        let reply = client.query("q(X) :- person(X)").unwrap();
        assert_eq!(reply.count, 1);
        let stats = client.stats().unwrap();
        assert!(stats.contains_key("uptime_s"), "{stats:?}");
        assert!(stats.contains_key("tenant.default.requests"), "{stats:?}");
        client.metrics().unwrap();
        // Errors carry no dump and don't desync the connection.
        let err = client.query("garbage").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err}");
        assert!(!client.trace(false).unwrap());
        client.ping().unwrap();
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn client_drives_the_tenant_verbs() {
        let handle = start();
        let mut client = ServeClient::connect(handle.addr()).unwrap();
        let created = client
            .tenant_create("hr", "[R1] worksIn(X, D) -> employee(X).")
            .unwrap();
        assert_eq!(created.get("name").map(String::as_str), Some("hr"));
        assert_eq!(client.tenant_list().unwrap(), vec!["default", "hr"]);

        client.tenant_use("hr").unwrap();
        client.insert("worksIn(ann, cs)").unwrap();
        let reply = client.query("q(X) :- employee(X)").unwrap();
        assert_eq!(reply.rows, vec![vec!["ann".to_string()]]);

        client.tenant_use("default").unwrap();
        assert_eq!(client.query("q(X) :- employee(X)").unwrap().count, 0);

        let dropped = client.tenant_drop("hr").unwrap();
        assert_eq!(dropped.get("tenants").map(String::as_str), Some("1"));
        let err = client.tenant_use("hr").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err}");
        client.quit().unwrap();
        handle.shutdown();
    }
}
