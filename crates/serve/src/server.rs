//! The TCP front-end: a thread-pool server speaking the [`crate::proto`]
//! protocol over newline-delimited text.
//!
//! The server owns nothing but plumbing — every request is answered by a
//! [`QueryService`] out of the shared [`TenantRegistry`], so all concurrency
//! guarantees (snapshot isolation, cache coherence) come from the service
//! layer, and the same behavior is observable in-process. One connection is
//! one unit of work: a worker thread reads request lines until the peer
//! disconnects, a `QUIT`, or server shutdown. Each connection carries one
//! piece of state — its *current tenant* (initially `default`), switched by
//! `TENANT USE`. Reads use a short poll timeout so idle connections notice
//! shutdown promptly without a dedicated reaper thread.

use crate::pool::ThreadPool;
use crate::proto::{parse_request, Request};
use crate::service::QueryService;
use crate::tenant::{TenantRegistry, DEFAULT_TENANT};
use ontorew_model::prelude::*;
use ontorew_telemetry::{
    global_registry, global_ring, install_collector, render_tree, span, take_collector, Series,
    Trace, TraceSink,
};
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of the TCP server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7411`; port 0 picks a free port
    /// (the bound address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads (= concurrently served connections).
    pub workers: usize,
    /// Reap a connection after this long without a complete request. A
    /// worker slot held by a dead or silent peer is a worker the pool can't
    /// give to live traffic, so idleness is bounded: the connection gets an
    /// `ERR idle timeout` line and is closed. Slow-trickled partial lines
    /// do not count as activity.
    pub idle_timeout: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight connections
    /// to finish before syncing tenant WALs and returning. Workers observe
    /// the shutdown flag between requests, so the wait normally ends well
    /// before the deadline.
    pub drain_timeout: Duration,
    /// Log any request slower than this to stderr, with its span breakdown
    /// (`--slow-query-ms`). `None` disables the slow-query log. When set,
    /// every request is traced (spans are collected even with `TRACE OFF`)
    /// so the log can explain *where* the time went.
    pub slow_query: Option<Duration>,
    /// Capacity of the process-global ring of recent traces
    /// (`--trace-ring`). Traces land in the ring whenever they are
    /// collected — by `TRACE ON` or by an armed slow-query log.
    pub trace_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            idle_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(5),
            slow_query: None,
            trace_ring: 64,
        }
    }
}

/// A handle to a running server: its bound address and shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    registry: Arc<TenantRegistry>,
    default_service: Arc<QueryService>,
    active: Arc<AtomicUsize>,
    drain_timeout: Duration,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The default tenant's service (the whole server, in single-tenant
    /// deployments).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.default_service
    }

    /// The tenant registry the server answers from.
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// True once shutdown has been requested (by [`ServerHandle::shutdown`]
    /// or a `SHUTDOWN` request on the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested, polling the flag.
    pub fn wait(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Request shutdown, drain in-flight connections (up to the configured
    /// drain deadline — workers notice the flag between requests, so the
    /// wait normally ends in one poll round), join the accept loop, then
    /// fsync every durable tenant's WAL so acknowledged commits are on disk
    /// before the process exits.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the flag even if idle.
        let _ = TcpStream::connect(self.addr);
        let deadline = std::time::Instant::now() + self.drain_timeout;
        while self.active.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Err(e) = self.registry.sync_all() {
            eprintln!("ontorew-serve: WAL sync on shutdown failed: {e}");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = self.registry.sync_all();
    }
}

/// Start a single-tenant server: `service` becomes the `default` tenant of
/// a fresh registry (additional tenants can still be created on the wire,
/// sharing `service`'s plan cache and inheriting its configuration).
/// Returns once the listener is bound.
pub fn serve(service: Arc<QueryService>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::new(TenantRegistry::around(service));
    serve_registry(registry, config)
}

/// Start serving every tenant of `registry` per `config`. Returns once the
/// listener is bound; the accept loop and workers run on background threads
/// until shutdown.
pub fn serve_registry(
    registry: Arc<TenantRegistry>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    global_ring().set_capacity(config.trace_ring);
    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let default_service = registry.default_tenant();
    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active);
        let registry = Arc::clone(&registry);
        let workers = config.workers;
        let idle_timeout = config.idle_timeout;
        let slow_query = config.slow_query;
        std::thread::Builder::new()
            .name("ontorew-accept".to_string())
            .spawn(move || {
                let pool = ThreadPool::new(workers, "ontorew-serve");
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let registry = Arc::clone(&registry);
                            let shutdown = Arc::clone(&shutdown);
                            let active = Arc::clone(&active);
                            pool.execute(move || {
                                let _guard = ActiveGuard::enter(active);
                                handle_connection(
                                    stream,
                                    registry,
                                    shutdown,
                                    idle_timeout,
                                    slow_query,
                                )
                            });
                        }
                        Err(_) => continue,
                    }
                }
                // `pool` drops here: queue closes, workers join.
            })?
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        registry,
        default_service,
        active,
        drain_timeout: config.drain_timeout,
    })
}

/// Counts a connection in `active` for its whole lifetime, panic-safe.
struct ActiveGuard(Arc<AtomicUsize>);

impl ActiveGuard {
    fn enter(counter: Arc<AtomicUsize>) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(counter)
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest accepted request line. Anything a legitimate client sends is
/// orders of magnitude smaller; without a cap, one peer streaming bytes
/// with no newline would grow the line buffer until the whole server OOMs.
/// (`TENANT CREATE` carries a whole ontology on one line, which fits
/// comfortably: the cap allows ~1000 rules of typical size.)
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Per-connection protocol state: the tenant requests are routed to, and
/// whether `TRACE ON` armed per-request trace dumps.
struct Connection {
    service: Arc<QueryService>,
    tenant: String,
    trace: bool,
}

/// Process-wide monotonically increasing request id, stamped on every
/// request for trace and slow-query correlation.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Most spans a single request's trace may hold. Far above any real
/// request (a chase round is one span); bounds memory against pathology.
const MAX_TRACE_SPANS: usize = 4096;

/// Serve one connection until EOF, `QUIT`, `SHUTDOWN`, idle timeout, or
/// server shutdown.
fn handle_connection(
    stream: TcpStream,
    registry: Arc<TenantRegistry>,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Duration,
    slow_query: Option<Duration>,
) {
    // A short read timeout lets idle connections poll the shutdown flag;
    // partially read lines stay buffered in `line` across poll rounds. The
    // write timeout bounds how long a worker can be wedged by a peer that
    // stops reading, which in turn bounds shutdown drain time.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    let mut connection = Connection {
        service: registry.default_tenant(),
        tenant: DEFAULT_TENANT.to_string(),
        trace: false,
    };
    // Requests are accumulated as bytes and decoded per complete line:
    // unlike `read_line`, `read_until` never drops already-consumed bytes
    // when a poll timeout lands mid-way through a multi-byte UTF-8
    // character, and invalid UTF-8 becomes an `ERR` reply instead of a
    // silently closed connection.
    let mut line: Vec<u8> = Vec::new();
    let mut last_request = std::time::Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // `take` bounds how much a single read_until call may append, so
        // not even a fast sender can blow past the cap inside one call.
        let mut limited = reader.take((MAX_REQUEST_LINE + 1) as u64);
        let result = limited.read_until(b'\n', &mut line);
        reader = limited.into_inner();
        if line.len() > MAX_REQUEST_LINE {
            let _ = writeln!(writer, "ERR request line exceeds {MAX_REQUEST_LINE} bytes");
            connection.service.record_error();
            return;
        }
        match result {
            Ok(0) => return, // EOF
            Ok(_) => {
                // (A final unterminated line is served as-is; the next read
                // reports EOF.)
                last_request = std::time::Instant::now();
                let request = match String::from_utf8(std::mem::take(&mut line)) {
                    Ok(request) => request,
                    Err(_) => {
                        connection.service.record_error();
                        if writeln!(writer, "ERR request is not valid UTF-8").is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let outcome = serve_request(
                    &request,
                    &registry,
                    &mut connection,
                    &shutdown,
                    &mut writer,
                    slow_query,
                );
                match outcome {
                    Ok(keep_open) if keep_open => continue,
                    _ => return,
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Poll round: re-check shutdown, keep any partial line. A
                // peer that trickles bytes without ever completing a request
                // is as idle as a silent one.
                if last_request.elapsed() >= idle_timeout {
                    let _ = writeln!(writer, "ERR idle timeout");
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Write the `INFO` lines of a `WHY` / `WHY NOT` reply: derivation steps
/// (target first) for a present fact, blocked candidates for an absent one.
fn write_explanation_info(
    writer: &mut TcpStream,
    explanation: &crate::service::FactExplanation,
) -> std::io::Result<()> {
    for step in &explanation.steps {
        match step.rule {
            None => {
                writeln!(
                    writer,
                    "INFO {} asserted",
                    crate::proto::format_fact(&step.fact)
                )?;
            }
            Some(rule) => {
                let premises: Vec<String> = step
                    .premises
                    .iter()
                    .map(crate::proto::format_fact)
                    .collect();
                writeln!(
                    writer,
                    "INFO {} derived rule={} from {}",
                    crate::proto::format_fact(&step.fact),
                    rule,
                    premises.join("; ")
                )?;
            }
        }
    }
    if let Some(why_not) = &explanation.absent {
        if why_not.candidates.is_empty() {
            writeln!(writer, "INFO no rule head can produce this predicate")?;
        }
        for candidate in &why_not.candidates {
            let body: Vec<String> = candidate
                .body
                .iter()
                .map(crate::proto::format_fact)
                .collect();
            let missing: Vec<String> = candidate
                .missing
                .iter()
                .map(crate::proto::format_fact)
                .collect();
            writeln!(
                writer,
                "INFO rule={} body={} missing={} invents={}",
                candidate.rule,
                body.join("; "),
                missing.join("; "),
                candidate.needs_invented_value
            )?;
        }
    }
    Ok(())
}

/// Write `STATS`'s per-tenant `INFO` lines: one per tenant of *this*
/// registry, rolled up from the global `request_seconds` histograms across
/// verbs. (The global registry outlives any one server — tests run several
/// in one process — so the wire registry decides which tenants to show.)
fn write_tenant_breakdown(
    writer: &mut TcpStream,
    registry: &TenantRegistry,
) -> std::io::Result<()> {
    let metrics = global_registry();
    for row in registry.list() {
        let rollup = ontorew_telemetry::Histogram::new();
        metrics.visit_family("request_seconds", |labels, series| {
            let matches = labels.iter().any(|(k, v)| k == "tenant" && *v == row.name);
            if matches {
                if let Series::Histogram(h) = series {
                    rollup.merge_from(h);
                }
            }
        });
        writeln!(
            writer,
            "INFO tenant={} requests={} p50_us={} p99_us={}",
            row.name,
            rollup.count(),
            rollup.quantile(0.50),
            rollup.quantile(0.99)
        )?;
    }
    Ok(())
}

/// Render one answer row for the wire.
fn encode_row(row: &[Term]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|t| match t {
            Term::Constant(c) => crate::proto::encode_cell(c.name()),
            other => crate::proto::encode_cell(&format!("{other}")),
        })
        .collect();
    cells.join(" ")
}

/// The canonical verb of a request line, for metric labels. Unknown verbs
/// collapse to `INVALID` so a misbehaving peer can't explode label
/// cardinality.
fn verb_label(request: &str) -> &'static str {
    let first = request.split_whitespace().next().unwrap_or("");
    crate::proto::VERBS
        .iter()
        .find(|v| v.eq_ignore_ascii_case(first))
        .copied()
        .unwrap_or("INVALID")
}

/// Serve one request line with telemetry around it: a request span (plus a
/// collector when this connection is tracing or the slow-query log is
/// armed), per-tenant × per-verb counters and latency histograms, the
/// `TRACE` dump block after traced `OK` responses, and the slow-query log.
fn serve_request(
    request: &str,
    registry: &TenantRegistry,
    connection: &mut Connection,
    shutdown: &AtomicBool,
    writer: &mut TcpStream,
    slow_query: Option<Duration>,
) -> std::io::Result<bool> {
    if request.trim().is_empty() {
        return Ok(true); // blank lines are keep-alive noise
    }
    // The tenant label is the tenant the request was *issued under*
    // (`TENANT USE` switches for subsequent requests, not its own).
    let tenant = connection.tenant.clone();
    let verb = verb_label(request);
    let trace_armed = connection.trace;
    let collect = trace_armed || slow_query.is_some();
    if collect {
        install_collector(MAX_TRACE_SPANS);
    }
    let request_id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    let started = std::time::Instant::now();
    let outcome = {
        let mut root = span("serve.request");
        root.attr("id", request_id);
        root.attr("verb", verb);
        root.attr("tenant", &tenant);
        respond(request, registry, connection, shutdown, writer)
    };
    let elapsed = started.elapsed();
    let elapsed_us = elapsed.as_micros() as u64;
    let metrics = global_registry();
    metrics
        .counter(
            "requests_total",
            "Requests served, by tenant and verb.",
            &[("tenant", &tenant), ("verb", verb)],
        )
        .inc();
    metrics
        .histogram_us(
            "request_seconds",
            "Request wall time by tenant and verb.",
            &[("tenant", &tenant), ("verb", verb)],
        )
        .observe(elapsed_us);
    if collect {
        // Always drain the collector — worker threads are reused, and a
        // leftover collector would leak spans into the next request.
        let (spans, _) = take_collector();
        let trace = Trace {
            request_id,
            tenant,
            verb: verb.to_string(),
            total_us: elapsed_us,
            spans,
        };
        if let Some(threshold) = slow_query {
            if elapsed >= threshold {
                log_slow_query(request, &trace);
            }
        }
        if trace_armed {
            if let Ok((keep_open, ok)) = outcome {
                // Only after a kept-open OK response: an ERR reply has no
                // trailing block (clients would desync), and after BYE the
                // peer has stopped reading.
                if keep_open && ok {
                    writeln!(
                        writer,
                        "TRACE id={request_id} spans={} us={elapsed_us}",
                        trace.spans.len()
                    )?;
                    for line in render_tree(&trace) {
                        writeln!(writer, "INFO {line}")?;
                    }
                    writeln!(writer, "END")?;
                }
            }
        }
        global_ring().accept(trace);
    }
    outcome.map(|(keep_open, _)| keep_open)
}

/// One structured stderr line per slow request: correlation id, tenant,
/// verb, wall time, the phase breakdown (direct children of the request
/// span), and a preview of the offending request line.
fn log_slow_query(request: &str, trace: &Trace) {
    let root = trace.spans.first().filter(|s| s.parent.is_none());
    let phases: Vec<String> = root
        .map(|root| {
            trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .map(|s| format!("{}:{}us", s.name, s.dur_us))
                .collect()
        })
        .unwrap_or_default();
    let preview: String = request.trim().chars().take(80).collect();
    eprintln!(
        "ontorew-serve: slow-query id={} tenant={} verb={} us={} phases={} request={:?}",
        trace.request_id,
        trace.tenant,
        trace.verb,
        trace.total_us,
        if phases.is_empty() {
            "-".to_string()
        } else {
            phases.join(",")
        },
        preview
    );
}

/// Handle one request line; returns `(keep_open, ok)` — `keep_open` is
/// false when the connection should close, `ok` is false when the reply
/// was an `ERR` line — or `Err` when the peer is gone.
fn respond(
    request: &str,
    registry: &TenantRegistry,
    connection: &mut Connection,
    shutdown: &AtomicBool,
    writer: &mut TcpStream,
) -> std::io::Result<(bool, bool)> {
    let mut ok = true;
    let service = Arc::clone(&connection.service);
    match parse_request(request) {
        Ok(Request::Prepare(query)) => {
            let prepared = service.prepare(&query);
            writeln!(
                writer,
                "OK PREPARED key={} plan={} disjuncts={} exact={} cached={}",
                prepared.key,
                prepared.plan_kind(),
                prepared.disjuncts(),
                prepared.is_exact_plan(),
                prepared.cache_hit
            )?;
        }
        Ok(Request::Explain(query)) => {
            let (prepared, dump) = service.explain(&query);
            writeln!(
                writer,
                "OK PLAN key={} plan={} disjuncts={} exact={} cached={}",
                prepared.key,
                prepared.plan_kind(),
                prepared.disjuncts(),
                prepared.is_exact_plan(),
                prepared.cache_hit
            )?;
            for info in dump.lines() {
                writeln!(writer, "INFO {info}")?;
            }
            writeln!(writer, "END")?;
        }
        Ok(Request::Query(query)) => match service.query(&query) {
            Ok(response) => {
                writeln!(
                    writer,
                    "OK ANSWERS count={} epoch={} plan={} strategy={} cache={} exact={} us={}",
                    response.answers.len(),
                    response.epoch,
                    response.plan,
                    response.provenance.strategy,
                    if response.cache_hit { "hit" } else { "miss" },
                    response.exact,
                    response.micros
                )?;
                for row in response.answers.iter() {
                    writeln!(writer, "ROW {}", encode_row(row))?;
                }
                writeln!(writer, "END")?;
            }
            Err(e) => {
                ok = false;
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::Insert(facts)) => match service.insert_facts(&facts) {
            Ok((epoch, added)) => {
                writeln!(writer, "OK INSERTED added={added} epoch={epoch}")?;
            }
            Err(e) => {
                ok = false;
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::Delete(facts)) => match service.delete_facts(&facts) {
            Ok((epoch, removed)) => {
                writeln!(writer, "OK DELETED removed={removed} epoch={epoch}")?;
            }
            Err(e) => {
                ok = false;
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::Why(fact)) => match service.explain_fact(&fact) {
            Ok(explanation) => {
                writeln!(
                    writer,
                    "OK WHY present={} steps={} epoch={} fact={}",
                    explanation.present,
                    explanation.steps.len(),
                    explanation.epoch,
                    crate::proto::format_fact(&fact)
                )?;
                write_explanation_info(writer, &explanation)?;
                writeln!(writer, "END")?;
            }
            Err(e) => {
                ok = false;
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::WhyNot(fact)) => match service.explain_fact(&fact) {
            Ok(explanation) => {
                let candidates = explanation
                    .absent
                    .as_ref()
                    .map_or(0, |why_not| why_not.candidates.len());
                writeln!(
                    writer,
                    "OK WHYNOT present={} candidates={} epoch={} fact={}",
                    explanation.present,
                    candidates,
                    explanation.epoch,
                    crate::proto::format_fact(&fact)
                )?;
                write_explanation_info(writer, &explanation)?;
                writeln!(writer, "END")?;
            }
            Err(e) => {
                ok = false;
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::TenantCreate { name, program }) => match registry.create(&name, program) {
            Ok(created) => {
                writeln!(
                    writer,
                    "OK TENANT name={} rules={} program={} tenants={}",
                    name,
                    created.program().len(),
                    created.program_fingerprint(),
                    registry.len()
                )?;
            }
            Err(e) => {
                ok = false;
                service.record_error();
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::TenantUse(name)) => match registry.get(&name) {
            Some(tenant) => {
                let snapshot = tenant.snapshot();
                connection.service = tenant;
                connection.tenant = name.clone();
                writeln!(
                    writer,
                    "OK TENANT name={} epoch={} facts={}",
                    name,
                    snapshot.epoch(),
                    snapshot.len()
                )?;
            }
            None => {
                ok = false;
                service.record_error();
                writeln!(writer, "ERR bad request: no tenant {name:?}")?;
            }
        },
        Ok(Request::TenantDrop(name)) => match registry.drop_tenant(&name) {
            Ok(()) => {
                // A connection sitting on the dropped tenant falls back to
                // the default tenant (its handle would otherwise answer
                // from a ghost store).
                if connection.tenant == name {
                    connection.service = registry.default_tenant();
                    connection.tenant = DEFAULT_TENANT.to_string();
                }
                writeln!(
                    writer,
                    "OK TENANT dropped={} tenants={}",
                    name,
                    registry.len()
                )?;
            }
            Err(e) => {
                ok = false;
                service.record_error();
                writeln!(writer, "ERR {e}")?;
            }
        },
        Ok(Request::TenantList) => {
            let rows = registry.list();
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            writeln!(
                writer,
                "OK TENANTS count={} names={}",
                rows.len(),
                names.join(",")
            )?;
        }
        Ok(Request::Stats) => {
            let stats = service.stats();
            writeln!(
                writer,
                "OK STATS queries={} prepares={} inserts={} deletes={} whys={} errors={} \
                 cache_hits={} cache_misses={} cache_entries={} hit_rate={:.4} epoch={} \
                 facts={} prov_nodes={} prov_edges={} prov_bytes={} p50_us={} p99_us={} \
                 uptime_s={} tenants={} wal_bytes={} segments_on_disk={} checkpoint_epoch={} \
                 recoveries={}",
                stats.queries,
                stats.prepares,
                stats.inserts,
                stats.deletes,
                stats.whys,
                stats.errors,
                stats.cache.hits,
                stats.cache.misses,
                stats.cache.entries,
                stats.cache.hit_rate(),
                stats.epoch,
                stats.facts,
                stats.provenance.nodes,
                stats.provenance.edges,
                stats.provenance.bytes,
                stats.latency.p50_us,
                stats.latency.p99_us,
                stats.uptime_s,
                registry.len(),
                stats.durability.wal_bytes,
                stats.durability.segments_on_disk,
                stats.durability.checkpoint_epoch,
                stats.durability.recoveries
            )?;
            write_tenant_breakdown(writer, registry)?;
            writeln!(writer, "END")?;
        }
        Ok(Request::Metrics) => {
            let text = global_registry().render_prometheus();
            let families = text.matches("# TYPE ").count();
            writeln!(writer, "OK METRICS families={families}")?;
            writer.write_all(text.as_bytes())?;
            writeln!(writer, "END")?;
        }
        Ok(Request::Trace(enabled)) => {
            connection.trace = enabled;
            writeln!(writer, "OK TRACE enabled={enabled}")?;
        }
        Ok(Request::Ping) => {
            writeln!(writer, "OK PONG")?;
        }
        Ok(Request::Quit) => {
            writeln!(writer, "OK BYE")?;
            return Ok((false, true));
        }
        Ok(Request::Shutdown) => {
            writeln!(writer, "OK BYE")?;
            shutdown.store(true, Ordering::SeqCst);
            return Ok((false, true));
        }
        Err(message) => {
            ok = false;
            service.record_error();
            writeln!(writer, "ERR {message}")?;
        }
    }
    Ok((true, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use ontorew_model::parse_program;
    use ontorew_model::Instance;
    use std::io::{BufRead, BufReader};

    fn start_test_server() -> ServerHandle {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let mut store = Instance::new();
        store.insert_fact("student", &["sara"]);
        let service = Arc::new(QueryService::new(program, store, ServiceConfig::default()));
        serve(
            service,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                ..Default::default()
            },
        )
        .expect("server binds")
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
        writeln!(stream, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// Read lines up to and including `END`.
    fn read_block(reader: &mut BufReader<TcpStream>) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let trimmed = line.trim().to_string();
            let done = trimmed == "END";
            lines.push(trimmed);
            if done {
                return lines;
            }
        }
    }

    #[test]
    fn serves_the_whole_protocol_over_tcp() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        assert_eq!(
            roundtrip(&mut stream, &mut reader, "PING").trim(),
            "OK PONG"
        );

        let prepared = roundtrip(&mut stream, &mut reader, "PREPARE q(X) :- person(X)");
        assert!(prepared.starts_with("OK PREPARED key=p"), "{prepared}");
        assert!(prepared.contains("plan=hybrid"), "{prepared}");
        assert!(prepared.contains("cached=false"), "{prepared}");

        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        assert!(
            header.contains("count=1") && header.contains("cache=hit"),
            "{header}"
        );
        assert!(
            header.contains("plan=hybrid") && header.contains("strategy=rewriting"),
            "{header}"
        );
        let mut row = String::new();
        reader.read_line(&mut row).unwrap();
        assert_eq!(row.trim(), "ROW sara");
        let mut end = String::new();
        reader.read_line(&mut end).unwrap();
        assert_eq!(end.trim(), "END");

        let inserted = roundtrip(&mut stream, &mut reader, "INSERT student(zoe)");
        assert!(
            inserted.contains("added=1") && inserted.contains("epoch=1"),
            "{inserted}"
        );

        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        assert!(
            header.contains("count=2") && header.contains("epoch=1"),
            "{header}"
        );
        for _ in 0..3 {
            let mut skip = String::new();
            reader.read_line(&mut skip).unwrap();
        }

        let err = roundtrip(&mut stream, &mut reader, "GARBAGE");
        assert!(err.starts_with("ERR "), "{err}");

        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(
            stats.contains("queries=2") && stats.contains("errors=1"),
            "{stats}"
        );
        assert!(
            stats.contains("uptime_s=") && stats.contains("tenants=1"),
            "{stats}"
        );
        // In-memory tenants report zeroed durability gauges.
        assert!(
            stats.contains("wal_bytes=0") && stats.contains("recoveries=0"),
            "{stats}"
        );
        // The header is followed by one INFO line per tenant, then END.
        let block = read_block(&mut reader);
        assert!(
            block
                .iter()
                .any(|l| l.starts_with("INFO tenant=default requests=")),
            "{block:?}"
        );
        assert_eq!(block.last().map(String::as_str), Some("END"));

        assert_eq!(roundtrip(&mut stream, &mut reader, "QUIT").trim(), "OK BYE");
        handle.shutdown();
    }

    #[test]
    fn delete_and_why_round_the_full_crud_loop_over_tcp() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        // WHY of a derived fact walks the derivation down to the assertion.
        let why = roundtrip(&mut stream, &mut reader, "WHY person(sara)");
        assert!(why.starts_with("OK WHY present=true steps=2"), "{why}");
        let block = read_block(&mut reader);
        assert!(
            block
                .iter()
                .any(|l| l.contains("person(sara) derived rule=0 from student(sara)")),
            "{block:?}"
        );
        assert!(
            block.iter().any(|l| l.contains("student(sara) asserted")),
            "{block:?}"
        );

        // WHY NOT of an absent fact reports the blocked candidate rule.
        let why_not = roundtrip(&mut stream, &mut reader, "WHY NOT person(bob)");
        assert!(
            why_not.starts_with("OK WHYNOT present=false candidates=1"),
            "{why_not}"
        );
        let block = read_block(&mut reader);
        assert!(
            block.iter().any(|l| l.contains("missing=student(bob)")),
            "{block:?}"
        );

        // DELETE retracts as one epoch; the derived fact disappears with it.
        let deleted = roundtrip(&mut stream, &mut reader, "DELETE student(sara)");
        assert_eq!(deleted.trim(), "OK DELETED removed=1 epoch=1", "{deleted}");
        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        assert!(
            header.contains("count=0") && header.contains("epoch=1"),
            "{header}"
        );
        read_block(&mut reader);
        let why_gone = roundtrip(&mut stream, &mut reader, "WHY person(sara)");
        assert!(
            why_gone.starts_with("OK WHY present=false steps=0"),
            "{why_gone}"
        );
        read_block(&mut reader);

        // Non-ground facts are rejected at the service layer.
        let bad = roundtrip(&mut stream, &mut reader, "DELETE student(X)");
        // (X parses as a constant on the wire — ground — so deleting it is a
        // no-op epoch, not an error.)
        assert!(bad.contains("removed=0"), "{bad}");

        let stats = roundtrip(&mut stream, &mut reader, "STATS");
        assert!(stats.contains("deletes=2"), "{stats}");
        assert!(stats.contains("whys=3"), "{stats}");
        assert!(stats.contains("prov_nodes="), "{stats}");
        read_block(&mut reader);
        handle.shutdown();
    }

    #[test]
    fn explain_dumps_the_plan_over_tcp() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let header = roundtrip(&mut stream, &mut reader, "EXPLAIN q(X) :- person(X)");
        assert!(header.starts_with("OK PLAN key=p"), "{header}");
        assert!(header.contains("plan=hybrid"), "{header}");
        let block = read_block(&mut reader);
        assert!(
            block.iter().any(|l| l.starts_with("INFO plan: hybrid")),
            "{block:?}"
        );
        assert!(
            block.iter().any(|l| l.starts_with("INFO reason:")),
            "{block:?}"
        );
        assert_eq!(block.last().map(String::as_str), Some("END"));
        // EXPLAIN warmed the cache: the same query is a PREPARE hit.
        let prepared = roundtrip(&mut stream, &mut reader, "PREPARE q(X) :- person(X)");
        assert!(prepared.contains("cached=true"), "{prepared}");
        handle.shutdown();
    }

    #[test]
    fn tenants_are_created_used_and_dropped_over_tcp() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        let created = roundtrip(
            &mut stream,
            &mut reader,
            "TENANT CREATE hr [R1] worksIn(X, D) -> employee(X).",
        );
        assert!(created.contains("name=hr"), "{created}");
        assert!(created.contains("rules=1"), "{created}");
        assert!(created.contains("tenants=2"), "{created}");

        // Switch to hr: empty store, its own ontology.
        let used = roundtrip(&mut stream, &mut reader, "TENANT USE hr");
        assert!(
            used.contains("name=hr") && used.contains("facts=0"),
            "{used}"
        );
        let inserted = roundtrip(&mut stream, &mut reader, "INSERT worksIn(ann, cs)");
        assert!(inserted.contains("added=1"), "{inserted}");
        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- employee(X)");
        assert!(header.contains("count=1"), "{header}");
        let block = read_block(&mut reader);
        assert!(block.contains(&"ROW ann".to_string()), "{block:?}");

        // The default tenant is untouched by hr's insert.
        let back = roundtrip(&mut stream, &mut reader, "TENANT USE default");
        assert!(back.contains("facts=1"), "{back}");
        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- employee(X)");
        assert!(header.contains("count=0"), "{header}");
        read_block(&mut reader);

        let listed = roundtrip(&mut stream, &mut reader, "TENANT LIST");
        assert!(
            listed.contains("count=2") && listed.contains("names=default,hr"),
            "{listed}"
        );

        let dropped = roundtrip(&mut stream, &mut reader, "TENANT DROP hr");
        assert!(
            dropped.contains("dropped=hr") && dropped.contains("tenants=1"),
            "{dropped}"
        );
        let gone = roundtrip(&mut stream, &mut reader, "TENANT USE hr");
        assert!(gone.starts_with("ERR "), "{gone}");
        let default_refused = roundtrip(&mut stream, &mut reader, "TENANT DROP default");
        assert!(default_refused.starts_with("ERR "), "{default_refused}");
        handle.shutdown();
    }

    #[test]
    fn dropping_the_current_tenant_falls_back_to_default() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        roundtrip(
            &mut stream,
            &mut reader,
            "TENANT CREATE temp [R1] a(X) -> b(X).",
        );
        roundtrip(&mut stream, &mut reader, "TENANT USE temp");
        let dropped = roundtrip(&mut stream, &mut reader, "TENANT DROP temp");
        assert!(dropped.starts_with("OK TENANT"), "{dropped}");
        // Back on default: sara is visible again.
        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        assert!(header.contains("count=1"), "{header}");
        read_block(&mut reader);
        handle.shutdown();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let handle = start_test_server();
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "SHUTDOWN").trim(),
            "OK BYE"
        );
        handle.wait();
        assert!(handle.is_shutting_down());
        handle.shutdown();
        // The listener is gone (or refuses) shortly after.
        std::thread::sleep(Duration::from_millis(50));
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                // Accepted by OS backlog at worst; the server won't answer.
                let _ = writeln!(s, "PING");
                let mut r = BufReader::new(s);
                let mut line = String::new();
                matches!(r.read_line(&mut line), Ok(0) | Err(_))
            })
            .unwrap_or(true);
        assert!(refused, "server still answering after shutdown");
    }

    #[test]
    fn oversized_request_lines_are_rejected_not_buffered() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Stream well past the cap without ever sending a newline.
        let chunk = vec![b'x'; 32 * 1024];
        for _ in 0..4 {
            if stream.write_all(&chunk).is_err() {
                break; // server already hung up
            }
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR request line exceeds"),
            "expected a line-cap rejection, got {reply:?}"
        );
        // The connection is closed afterwards.
        let mut end = String::new();
        assert!(matches!(reader.read_line(&mut end), Ok(0) | Err(_)));
        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let service = Arc::new(QueryService::new(
            program,
            Instance::new(),
            ServiceConfig::default(),
        ));
        let handle = serve(
            service,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                idle_timeout: Duration::from_millis(300),
                ..Default::default()
            },
        )
        .expect("server binds");
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // An active connection is served normally...
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "PING").trim(),
            "OK PONG"
        );
        // ...then goes silent and is reaped with an explanatory error.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "ERR idle timeout", "{line:?}");
        let mut end = String::new();
        assert!(matches!(reader.read_line(&mut end), Ok(0) | Err(_)));
        handle.shutdown();
    }

    #[test]
    fn shutdown_drains_with_no_active_connections_left() {
        let handle = start_test_server();
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "PING").trim(),
            "OK PONG"
        );
        handle.shutdown();
        // After shutdown returns, no connection is still being served.
        let mut line = String::new();
        assert!(matches!(reader.read_line(&mut line), Ok(0) | Err(_)));
    }

    #[test]
    fn metrics_exposition_has_no_duplicate_families_or_series() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Generate some traffic so the interesting families exist.
        roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        read_block(&mut reader);

        let header = roundtrip(&mut stream, &mut reader, "METRICS");
        assert!(header.starts_with("OK METRICS families="), "{header}");
        let block = read_block(&mut reader);
        assert_eq!(block.last().map(String::as_str), Some("END"));

        let mut families = std::collections::HashSet::new();
        let mut series = std::collections::HashSet::new();
        for line in &block {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap().to_string();
                assert!(families.insert(name.clone()), "duplicate # TYPE for {name}");
            } else if !line.starts_with('#') && *line != "END" && !line.is_empty() {
                // A series line is `name{labels} value`; the key is
                // everything before the value.
                let key = line.rsplit_once(' ').map(|(k, _)| k.to_string()).unwrap();
                assert!(series.insert(key.clone()), "duplicate series {key}");
            }
        }
        let stated: usize = header
            .trim()
            .rsplit_once('=')
            .and_then(|(_, n)| n.parse().ok())
            .unwrap();
        assert_eq!(stated, families.len(), "{header}");
        // The per-tenant per-verb request series is present...
        assert!(
            block.iter().any(|l| l.starts_with("requests_total{")
                && l.contains("tenant=\"default\"")
                && l.contains("verb=\"QUERY\"")),
            "no per-tenant QUERY series in {block:?}"
        );
        // ...as are the engine-layer families the smoke scrape relies on.
        for family in ["queries_total", "chase_rounds_total", "plan_plans_total"] {
            assert!(
                families.contains(family),
                "family {family} missing from {families:?}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn trace_toggle_dumps_span_trees_after_ok_responses() {
        let handle = start_test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        // TRACE ON itself gets no dump (it was not traced when issued).
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "TRACE ON").trim(),
            "OK TRACE enabled=true"
        );

        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        assert!(header.starts_with("OK ANSWERS"), "{header}");
        read_block(&mut reader); // rows + END
        let trace_header = {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        assert!(trace_header.starts_with("TRACE id="), "{trace_header}");
        assert!(trace_header.contains("spans="), "{trace_header}");
        let block = read_block(&mut reader);
        assert!(
            block
                .iter()
                .any(|l| l.contains("serve.request") && l.contains("verb=QUERY")),
            "{block:?}"
        );
        // Errors get no trailing dump — the client would desync.
        let err = roundtrip(&mut stream, &mut reader, "GARBAGE");
        assert!(err.starts_with("ERR "), "{err}");

        // TRACE OFF was issued while tracing was armed, so it is the last
        // request to carry a dump; afterwards responses are bare again.
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "TRACE OFF").trim(),
            "OK TRACE enabled=false"
        );
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("TRACE id="), "{line}");
        read_block(&mut reader);
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "PING").trim(),
            "OK PONG"
        );
        handle.shutdown();
    }

    #[test]
    fn slow_query_threshold_collects_traces_into_the_global_ring() {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let mut store = Instance::new();
        store.insert_fact("student", &["sara"]);
        let service = Arc::new(QueryService::new(program, store, ServiceConfig::default()));
        let handle = serve(
            service,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                // Zero threshold: every request is slow, so every request
                // is collected and logged.
                slow_query: Some(Duration::ZERO),
                ..Default::default()
            },
        )
        .expect("server binds");
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
        // No TRACE dump on the wire (the connection did not opt in)...
        assert!(header.starts_with("OK ANSWERS"), "{header}");
        read_block(&mut reader);
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "PING").trim(),
            "OK PONG"
        );
        // ...but the trace landed in the process-global ring.
        let ring = ontorew_telemetry::global_ring().snapshot();
        assert!(
            ring.iter()
                .any(|t| t.verb == "QUERY" && t.tenant == "default" && !t.spans.is_empty()),
            "no QUERY trace in the ring ({} traces)",
            ring.len()
        );
        handle.shutdown();
    }

    #[test]
    fn concurrent_connections_are_served() {
        let handle = start_test_server();
        let addr = handle.addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    for _ in 0..10 {
                        let header = roundtrip(&mut stream, &mut reader, "QUERY q(X) :- person(X)");
                        assert!(header.starts_with("OK ANSWERS"), "{header}");
                        let mut line = String::new();
                        while line.trim() != "END" {
                            line.clear();
                            reader.read_line(&mut line).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        handle.shutdown();
    }
}
