//! The measured run: an in-process server driven over loopback TCP by two
//! closed-loop client connections, every reply checked against its oracle.

use crate::stats::Answer;
use crate::sut;
use crate::workload::{
    answer_of, dataset, Dataset, Expect, Kind, Op, OpStream, Request, Spec, World, BROAD_STUDENTS,
    CLIENTS, DEFAULT_TENANT, SETUP_LIFECYCLE_OPS, TWIN_TENANT,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Recoveries timed after `registrar-crud-durable` (the median is reported).
pub const RECOVERIES: usize = 7;

/// The registry of one workload: in memory, or created in `dir` with
/// `--fsync always`; `registrar-goal-read` gets its twin tenant.
pub fn build_registry(
    spec: &Spec,
    data: &Dataset,
    dir: Option<&Path>,
) -> io::Result<Arc<sut::TenantRegistry>> {
    let store = sut::RelationalStore::from_instance(&data.abox);
    let config = sut::ServiceConfig::default();
    let registry = match dir {
        None => sut::TenantRegistry::new(data.program.clone(), store, config),
        Some(root) => sut::TenantRegistry::recover(
            data.program.clone(),
            store,
            config,
            sut::DurabilitySettings {
                root: root.to_path_buf(),
                fsync: sut::FsyncPolicy::Always,
            },
        )?,
    };
    if spec.kind == Kind::RegistrarGoalRead {
        let facts: Vec<sut::Atom> = data.abox.atoms().collect();
        registry
            .create(TWIN_TENANT, data.program.clone())
            .and_then(|twin| twin.insert_facts(&facts))
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(Arc::new(registry))
}

/// A running server with two workers, plus the compactor when durable.
pub struct Server {
    handle: sut::ServerHandle,
    compactor: Option<sut::Compactor>,
    pub registry: Arc<sut::TenantRegistry>,
}

impl Server {
    pub fn start(spec: &Spec, data: &Dataset, dir: Option<&Path>) -> io::Result<Server> {
        let registry = build_registry(spec, data, dir)?;
        let compactor = dir
            .map(|_| sut::Compactor::start(Arc::clone(&registry), sut::CompactorConfig::default()));
        let handle = sut::serve_registry(
            Arc::clone(&registry),
            sut::ServerConfig {
                workers: CLIENTS,
                ..sut::ServerConfig::default()
            },
        )?;
        Ok(Server {
            handle,
            compactor,
            registry,
        })
    }

    /// Stop the compactor (it finishes a checkpoint in flight) and return
    /// how many checkpoints it completed. The server keeps serving.
    fn stop_compactor(&mut self) -> u64 {
        self.compactor.take().map_or(0, |compactor| {
            let done = compactor
                .stats()
                .checkpoints
                .load(std::sync::atomic::Ordering::Relaxed);
            compactor.shutdown();
            done
        })
    }

    pub fn stop(mut self) {
        self.stop_compactor();
        self.handle.shutdown();
    }
}

/// One timed op of the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: u8,
    pub is_query: bool,
    /// A broad query that is the connection's first since its own commit.
    pub read_after_write: bool,
    /// A query the server answered with the goal-driven strategy.
    pub goal_driven: bool,
    /// Start of the op, nanoseconds into the window.
    pub at_ns: u64,
    pub dur_ns: u64,
}

#[derive(Default)]
struct ClientOutcome {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Bytes of fact text in acknowledged inserts of the window.
    user_bytes: u64,
    live: Vec<(usize, String)>,
    deleted: Vec<(usize, String)>,
}

/// What the client saw of one op, besides whether it was right.
#[derive(Clone, Copy, Default)]
struct Issued {
    /// Wall time of the op's own request (tenant switches excluded).
    dur: Duration,
    /// A query whose reply reports the goal-driven strategy.
    goal_driven: bool,
}

/// Issue `op` and check the reply. `Err` describes a failure: an error or
/// refusal from the server, or a reply the oracle disagrees with.
fn issue(conn: &mut sut::ServeClient, op: &Op, world: &World) -> (Issued, Result<(), String>) {
    let switch = |conn: &mut sut::ServeClient, tenant: &str| {
        conn.tenant_use(tenant)
            .map(drop)
            .map_err(|e| format!("TENANT USE {tenant}: {e}"))
    };
    let mut issued = Issued::default();
    if let Some(tenant) = op.tenant {
        if let Err(why) = switch(conn, tenant) {
            return (issued, Err(why));
        }
    }
    let begin = Instant::now();
    let mut result = request(conn, op, world, &mut issued.goal_driven);
    issued.dur = begin.elapsed();
    if op.tenant.is_some() {
        result = result.and(switch(conn, DEFAULT_TENANT));
    }
    (issued, result)
}

fn request(
    conn: &mut sut::ServeClient,
    op: &Op,
    world: &World,
    goal_driven: &mut bool,
) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    match &op.request {
        Request::Query(text) => {
            let reply = conn.query(text).map_err(|e| fail(text, &e))?;
            *goal_driven = reply.strategy == "goal-driven";
            if op.plan.is_some_and(|plan| reply.plan != plan) {
                return Err(format!("{text}: plan {} not {:?}", reply.plan, op.plan));
            }
            if op
                .strategy
                .is_some_and(|strategy| reply.strategy != strategy)
            {
                return Err(format!(
                    "{text}: strategy {} not {:?}",
                    reply.strategy, op.strategy
                ));
            }
            if let Expect::Answer(expected) = &op.expect {
                let got = Answer::of_rows(reply.rows.iter());
                if got != *expected || reply.count != expected.count {
                    return Err(format!(
                        "{text}: {} rows (hash {:x}), oracle {} (hash {:x})",
                        got.count, got.hash, expected.count, expected.hash
                    ));
                }
            }
            if !reply.exact {
                return Err(format!("{text}: answer not exact"));
            }
            Ok(())
        }
        Request::Insert(fact) | Request::Delete(fact) => {
            let (changed, _epoch) = match &op.request {
                Request::Insert(_) => conn.insert(fact),
                _ => conn.delete(fact),
            }
            .map_err(|e| fail(fact, &e))?;
            match changed {
                1 => Ok(()),
                n => Err(format!("{fact}: changed {n} facts, expected 1")),
            }
        }
        Request::Why(fact) => {
            let reply = conn.why(fact).map_err(|e| fail(fact, &e))?;
            let present = reply.fields.get("present").map(String::as_str) == Some("true");
            match &op.expect {
                Expect::Present(expected) if *expected != present => Err(format!(
                    "WHY {fact}: present={present}, model says {expected}"
                )),
                _ => Ok(()),
            }
        }
        Request::TenantCreate(name, program) => {
            let reply = conn
                .tenant_create(name, &world.onboard[*program].0)
                .map_err(|e| fail(name, &e))?;
            match &op.expect {
                Expect::Rules(n) if reply.get("rules") != Some(&n.to_string()) => Err(format!(
                    "TENANT CREATE {name}: rules {:?}, expected {n}",
                    reply.get("rules")
                )),
                _ => Ok(()),
            }
        }
        Request::TenantDrop(name) => conn.tenant_drop(name).map(drop).map_err(|e| fail(name, &e)),
    }
}

/// Where the clients and the main thread meet: at `ready` when set-up is
/// done, at `go` when the window opens at `origin`.
struct Gate {
    ready: Barrier,
    go: Barrier,
    origin: OnceLock<Instant>,
}

/// One client connection: prime, warm up, meet the main thread at `ready`,
/// then (in the measured round) run the stream until the window closes.
fn client(
    world: &World,
    seed: u64,
    index: usize,
    addr: std::net::SocketAddr,
    gate: &Gate,
    window: Option<Duration>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let note = |out: &mut ClientOutcome, result: Result<(), String>| {
        out.attempted += 1;
        if let Err(why) = result {
            out.failed += 1;
            if out.notes.len() < 5 {
                out.notes.push(why);
            }
        }
    };
    let mut stream = OpStream::new(world, seed, index);
    let mut conn = match sut::ServeClient::connect(addr) {
        Ok(conn) => Some(conn),
        Err(e) => {
            note(&mut out, Err(format!("connect: {e}")));
            None
        }
    };
    if let Some(conn) = conn.as_mut() {
        for op in world.priming() {
            note(&mut out, issue(conn, &op, world).1);
        }
        // Warm-up creates a fixed few tenants, see `SETUP_LIFECYCLE_OPS`.
        stream.lifecycle_left = SETUP_LIFECYCLE_OPS;
        for _ in 0..world.spec.warmup_ops {
            let op = stream.next_op();
            note(&mut out, issue(conn, &op, world).1);
        }
        stream.lifecycle_left = usize::MAX;
    }
    gate.ready.wait();
    let Some(window) = window else {
        return out;
    };
    // Even a client that failed to connect meets the main thread here.
    gate.go.wait();
    let Some(mut conn) = conn else {
        return out;
    };
    let origin = *gate
        .origin
        .get()
        .expect("the main thread sets the origin before go");
    let broad = world.spec.class_named("broad");
    let mut dirty = false;
    out.samples.reserve(1 << 16);
    loop {
        let started = origin.elapsed();
        if started >= window {
            break;
        }
        let op = stream.next_op();
        let (issued, result) = issue(&mut conn, &op, world);
        let read_after_write = dirty && Some(op.class) == broad;
        if read_after_write {
            dirty = false;
        }
        if result.is_ok() {
            if op.is_commit() {
                dirty = true;
            }
            if let Request::Insert(fact) = &op.request {
                out.user_bytes += fact.len() as u64;
            }
        }
        out.samples.push(Sample {
            class: op.class,
            is_query: op.is_query(),
            read_after_write,
            goal_driven: issued.goal_driven,
            at_ns: started.as_nanos() as u64,
            dur_ns: issued.dur.as_nanos() as u64,
        });
        note(&mut out, result);
    }
    out.live = stream.live_inserts().to_vec();
    out.deleted = std::mem::take(&mut stream.deleted);
    let _ = conn.quit();
    out
}

/// Recovery timings and the durability check of `registrar-crud-durable`.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    pub recovery_ms: Vec<f64>,
    pub first_query_ms: Vec<f64>,
    /// Acknowledged commits the recovered store disagrees with.
    pub missing: u64,
}

/// What one measured run produced.
#[derive(Default)]
pub struct WireRun {
    /// Set-up time of every round (the last round is the measured one).
    pub setup_s: Vec<f64>,
    /// Data generation share of the last round's set-up.
    pub abox_gen_s: f64,
    pub samples: Vec<Sample>,
    pub window_ns: u64,
    /// Window start to the last reply.
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub compactions: u64,
    pub wal_bytes_written: u64,
    pub segment_bytes_written: u64,
    pub user_bytes: u64,
    /// `VmHWM` of the process when the window closed, megabytes.
    pub peak_rss_mb: f64,
    pub recovery: Option<Recovery>,
    /// The durable tenant's data directory as the window left it, when the
    /// caller asked to keep it (the caller removes it).
    pub data_dir: Option<PathBuf>,
}

/// `VmHWM` of this process, megabytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A counter a layer publishes in the global registry. Only read after the
/// layer has registered it (durable runs, chases).
pub fn counter(name: &'static str) -> u64 {
    sut::global_registry().counter(name, "", &[]).get()
}

/// Ask the running server the broad registrar query once more and compare it
/// with `certain_answers` over the final base facts: the base data plus every
/// acknowledged insert that was not deleted again.
fn check_final_broad(
    world: &World,
    addr: std::net::SocketAddr,
    live: &[(usize, String)],
) -> Result<(), String> {
    let mut base = world.data.abox.clone();
    for (student, course) in live {
        base.insert(enrolled(*student, course));
    }
    let broad = sut::parse_query(BROAD_STUDENTS).expect("broad query parses");
    let certain = sut::certain_answers(
        &world.data.program,
        &base,
        &broad,
        &sut::ChaseConfig::default(),
    );
    let expected = answer_of(&certain.answers);
    let mut conn = sut::ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let reply = conn
        .query(BROAD_STUDENTS)
        .map_err(|e| format!("final broad: {e}"))?;
    let got = Answer::of_rows(reply.rows.iter());
    let _ = conn.quit();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "final broad answer: {} rows, certain_answers over the final base {}",
            got.count, expected.count
        ))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

pub fn enrolled(student: usize, course: &str) -> sut::Atom {
    sut::Atom::fact("enrolled", &[&format!("student{student}"), course])
}

/// Recover [`RECOVERIES`] fresh copies of `source`, timing recovery and the
/// first (broad, so fully re-materializing) query, and check the recovered
/// store against every acknowledged commit.
fn recover_copies(
    world: &World,
    source: &Path,
    scratch: &Path,
    live: &[(usize, String)],
    deleted: &[(usize, String)],
) -> io::Result<Recovery> {
    let mut recovery = Recovery::default();
    let broad = sut::parse_query(BROAD_STUDENTS).expect("broad query parses");
    let expected = world.registrar.as_ref().expect("registrar world").students;
    for round in 0..RECOVERIES {
        let copy = scratch.join(format!("recover-{round}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(source, &copy)?;
        let started = Instant::now();
        let registry = sut::TenantRegistry::recover(
            world.data.program.clone(),
            sut::RelationalStore::new(),
            sut::ServiceConfig::default(),
            sut::DurabilitySettings {
                root: copy.clone(),
                fsync: sut::FsyncPolicy::Always,
            },
        )?;
        recovery
            .recovery_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let tenant = registry.default_tenant();
        let started = Instant::now();
        let reply = tenant.query(&broad);
        recovery
            .first_query_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let answered = reply.map(|r| answer_of(&r.answers)).ok();
        if answered != Some(expected) {
            recovery.missing += 1;
        }
        let snapshot = tenant.snapshot();
        let store = snapshot.store();
        recovery.missing += live
            .iter()
            .filter(|(s, c)| !store.contains_atom(&enrolled(*s, c)))
            .count() as u64;
        recovery.missing += deleted
            .iter()
            .filter(|(s, c)| store.contains_atom(&enrolled(*s, c)))
            .count() as u64;
        drop(registry);
        std::fs::remove_dir_all(&copy)?;
    }
    Ok(recovery)
}

/// Set the workload up `setups` times (timing each), then measure the last
/// one for `window`. Data directories live under `scratch` and are removed,
/// except the measured one when `keep_data_dir` is set.
pub fn run(
    world: &World,
    seed: u64,
    window: Duration,
    setups: usize,
    scratch: &Path,
    keep_data_dir: bool,
) -> io::Result<WireRun> {
    let mut run = WireRun {
        window_ns: window.as_nanos() as u64,
        ..WireRun::default()
    };
    for round in 0..setups.max(1) {
        let measured = round + 1 == setups.max(1);
        let dir: Option<PathBuf> = world
            .spec
            .durable()
            .then(|| scratch.join(format!("data-{round}")));
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        let data = dataset(world.spec.kind);
        run.abox_gen_s = started.elapsed().as_secs_f64();
        let mut server = Server::start(world.spec, &data, dir.as_deref())?;
        let addr = server.handle.addr();
        let gate = Gate {
            ready: Barrier::new(CLIENTS + 1),
            go: Barrier::new(CLIENTS + 1),
            origin: OnceLock::new(),
        };
        let durable = dir.is_some();
        let durable_counters = || match durable {
            true => (
                counter("wal_append_bytes_total"),
                counter("checkpoints_total"),
            ),
            false => (0, 0),
        };
        let mut baseline = (server.registry.cache_stats(), (0, 0));
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|index| {
                    let gate = &gate;
                    let window = measured.then_some(window);
                    scope.spawn(move || client(world, seed, index, addr, gate, window))
                })
                .collect();
            gate.ready.wait();
            run.setup_s.push(started.elapsed().as_secs_f64());
            if measured {
                baseline = (server.registry.cache_stats(), durable_counters());
                gate.origin.set(Instant::now()).expect("origin is set once");
                gate.go.wait();
            }
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let mut live = Vec::new();
        let mut deleted = Vec::new();
        for outcome in outcomes {
            run.attempted += outcome.attempted;
            run.failed += outcome.failed;
            run.notes.extend(outcome.notes);
            run.user_bytes += outcome.user_bytes;
            run.samples.extend(outcome.samples);
            live.extend(outcome.live);
            deleted.extend(outcome.deleted);
        }
        if measured {
            // Before the harness's own final check and recoveries.
            run.peak_rss_mb = peak_rss_mb();
            let last_reply = run.samples.iter().map(|s| s.at_ns + s.dur_ns).max();
            run.elapsed_s = last_reply.unwrap_or(0).max(run.window_ns) as f64 / 1e9;
            let cache = server.registry.cache_stats();
            run.cache_hits = cache.hits - baseline.0.hits;
            run.cache_misses = cache.misses - baseline.0.misses;
            run.cache_evictions = cache.evictions - baseline.0.evictions;
            if world.registrar.is_some() {
                run.attempted += 1;
                if let Err(why) = check_final_broad(world, addr, &live) {
                    run.failed += 1;
                    run.notes.push(why);
                }
            }
            run.compactions = server.stop_compactor();
            let (wal_bytes, checkpoints) = durable_counters();
            run.wal_bytes_written = wal_bytes - (baseline.1).0;
            if let Some(dir) = &dir {
                // A checkpoint inside the window rewrote every segment.
                if checkpoints > (baseline.1).1 {
                    run.segment_bytes_written = dir_bytes(&dir.join("default").join("segments"));
                }
                // The copy is taken with the server still up, right after the
                // last acknowledgement: nothing is flushed on behalf of the
                // recovery.
                let recovery = recover_copies(world, dir, scratch, &live, &deleted)?;
                run.failed += recovery.missing;
                if recovery.missing > 0 {
                    run.notes.push(format!(
                        "{} acknowledged commits wrong after recovery",
                        recovery.missing
                    ));
                }
                run.recovery = Some(recovery);
            }
        }
        server.stop();
        match dir {
            Some(dir) if measured && keep_data_dir => run.data_dir = Some(dir),
            Some(dir) => std::fs::remove_dir_all(dir)?,
            None => {}
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec_named;

    fn scratch(name: &str) -> PathBuf {
        // Inside the package's ignored output directory, like the runs.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn a_corrupted_oracle_answer_is_counted_as_a_failure() {
        let spec = spec_named("registrar-goal-read").unwrap();
        let dir = scratch("oracle");
        let window = Duration::from_millis(300);

        let world = World::new(spec, 1);
        let clean = run(&world, 1, window, 1, &dir, false).unwrap();
        assert!(clean.attempted > 2 * spec.warmup_ops as u64);
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);
        assert_eq!(clean.setup_s.len(), 1);
        // Every selective reply of the read-only workload is goal-driven.
        let selective: Vec<_> = clean.samples.iter().filter(|s| s.class == 0).collect();
        assert!(!selective.is_empty() && selective.iter().all(|s| s.goal_driven));

        // The oracle's broad answer is now wrong, and every broad reply must
        // be counted against it.
        let mut world = World::new(spec, 1);
        world.registrar.as_mut().unwrap().students.hash ^= 1;
        let corrupted = run(&world, 1, window, 1, &dir, false).unwrap();
        assert!(corrupted.failed >= CLIENTS as u64, "{}", corrupted.failed);
        assert!(
            corrupted.notes.iter().any(|n| n.contains("oracle")),
            "{:?}",
            corrupted.notes
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn the_durable_workload_recovers_every_acknowledged_commit() {
        let spec = spec_named("registrar-crud-durable").unwrap();
        let dir = scratch("durable");
        let world = World::new(spec, 2);
        let outcome = run(&world, 2, Duration::from_millis(500), 1, &dir, true).unwrap();
        assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
        let recovery = outcome.recovery.expect("the durable workload recovers");
        assert_eq!(recovery.recovery_ms.len(), RECOVERIES);
        assert_eq!(recovery.missing, 0);
        assert!(outcome.wal_bytes_written > 0 && outcome.user_bytes > 0);

        // Losing the log loses acknowledged commits, and the check sees it.
        let kept = outcome.data_dir.expect("asked to keep the data directory");
        std::fs::write(kept.join("default").join("wal.log"), b"").unwrap();
        // What client 0 committed during warm-up is enough to notice.
        let mut stream = OpStream::new(&world, 2, 0);
        for _ in 0..spec.warmup_ops {
            stream.next_op();
        }
        let lost =
            recover_copies(&world, &kept, &dir, stream.live_inserts(), &stream.deleted).unwrap();
        assert!(lost.missing > 0);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
