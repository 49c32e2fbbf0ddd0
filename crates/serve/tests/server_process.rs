//! The `ontorew-server` binary as a process: it announces its address on
//! stdout once ready, plans a selective query over the wire as goal-driven,
//! exits cleanly on `SHUTDOWN`, and after a SIGKILL a restart on the same
//! `--data-dir` recovers every acknowledged commit of every tenant.

use ontorew_serve::ServeClient;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `ontorew-server` and the address it announced.
struct Server {
    child: Child,
    addr: String,
    /// Held open so a late write to stdout cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start the server on an ephemeral port over an empty store and wait
    /// for its `listening on <addr>` line.
    fn start(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ontorew-server"))
            .args(["--addr", "127.0.0.1:0", "--students", "0", "--workers", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("readiness line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        Server {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.addr).expect("client connects")
    }

    /// Send `SHUTDOWN` and require the process to exit successfully.
    fn shutdown(mut self) {
        self.client().shutdown().expect("shutdown");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "server exited with {status}");
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("server still running 10 s after SHUTDOWN");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sum of the `METRICS` series named `series`, or of every series of the
/// family `series` when it carries no labels.
fn metric_total(text: &str, series: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .filter(|(name, _)| *name == series || name.split('{').next() == Some(series))
        .map(|(_, value)| value.parse::<f64>().unwrap_or(0.0))
        .sum()
}

#[test]
fn traced_server_plans_goal_driven_queries_and_exits_cleanly() {
    let server = Server::start(&["--slow-query-ms", "0", "--trace-ring", "32"]);
    let mut client = server.client();
    // Pure Datalog with a transitive closure: not FO-rewritable, so a
    // query with a bound student compiles to the magic-sets pipeline.
    client
        .tenant_create(
            "registrar",
            "[G1] enrolled(S, C) -> student(S). \
             [G2] enrolled(S, C) -> course(C). \
             [G3] prereq(C1, C2) -> requires(C1, C2). \
             [G4] requires(C1, C2), prereq(C2, C3) -> requires(C1, C3). \
             [G5] enrolled(S, C), requires(C, P) -> mustComplete(S, P).",
        )
        .unwrap();
    client.tenant_use("registrar").unwrap();
    let facts = "enrolled(s42, db300); prereq(db300, db200); prereq(db200, db100); \
                 enrolled(ada, db100)";
    assert_eq!(client.insert(facts).unwrap(), (4, 1));

    let selective = "q(P) :- mustComplete(\"s42\", P)";
    let explained = client.explain(selective).unwrap();
    let plan = explained.fields.get("plan").map(String::as_str);
    assert_eq!(plan, Some("goal_driven"), "{explained:?}");
    assert!(
        explained.info.iter().any(|line| line.contains("magic_")),
        "no adorned program in {explained:?}"
    );
    assert!(client.trace(true).unwrap());
    let reply = client.query(selective).unwrap();
    assert_eq!((reply.count, reply.exact), (2, true), "{reply:?}");
    // No bound argument: the broad query falls back to the full chase.
    let broad = client.explain("q(S) :- student(S)").unwrap();
    assert_eq!(broad.fields.get("plan").map(String::as_str), Some("chase"));

    // A fresh process: every series below moved during this exchange.
    let metrics = client.metrics().unwrap();
    for series in [
        r#"plan_plans_total{kind="goal_driven"}"#,
        r#"join_evaluations_total{strategy="backtracking"}"#,
        "queries_total",
        "request_seconds_count",
        "chase_rounds_total",
    ] {
        assert!(metric_total(&metrics, series) > 0.0, "{series}: {metrics}");
    }
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn sigkill_then_restart_recovers_every_acknowledged_commit() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ontorew-server-process-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = ["--data-dir", dir.to_str().unwrap(), "--fsync", "always"];
    let person = "q(X) :- person(X)";

    let server = Server::start(&durable);
    let mut client = server.client();
    for k in 0..12u64 {
        let student = format!("student(p{k})");
        assert_eq!(client.insert(&student).unwrap(), (1, k + 1));
    }
    assert_eq!(client.delete("student(p0)").unwrap(), (1, 13));
    client
        .tenant_create(
            "payroll",
            "[H1] worksIn(X, D) -> employee(X). [H2] employee(X) -> person(X).",
        )
        .unwrap();
    client.tenant_use("payroll").unwrap();
    for k in 0..5u64 {
        let worker = format!("worksIn(w{k}, ops)");
        assert_eq!(client.insert(&worker).unwrap(), (1, k + 1));
    }
    drop(client);
    // Dropping the server sends SIGKILL: no SHUTDOWN, no final fsync.
    drop(server);

    let server = Server::start(&durable);
    let mut client = server.client();
    assert_eq!(client.query(person).unwrap().count, 11);
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("epoch").map(String::as_str), Some("13"));
    assert_eq!(client.tenant_list().unwrap(), ["default", "payroll"]);
    client.tenant_use("payroll").unwrap();
    assert_eq!(client.query(person).unwrap().count, 5);
    // The recovered WAL takes the next epoch.
    assert_eq!(client.insert("worksIn(postcrash, ops)").unwrap(), (1, 6));
    assert_eq!(client.query(person).unwrap().count, 6);

    let metrics = client.metrics().unwrap();
    for family in [
        "recoveries_total",
        "wal_appends_total",
        "wal_fsync_seconds_count",
    ] {
        assert!(metric_total(&metrics, family) > 0.0, "{family}: {metrics}");
    }
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
