//! Service-level crash-recovery tests: a durable [`TenantRegistry`] is
//! driven through random `INSERT`/`DELETE`/`QUERY` traffic, killed at every
//! commit-path crash point (including torn WAL writes), recovered, and
//! compared against an in-memory oracle that applied exactly the
//! acknowledged operations. The recovered service must answer queries
//! identically to the oracle — or to the oracle plus the single in-flight
//! operation when the crash hit after the WAL record was complete but
//! before the commit was acknowledged (the at-least-once window). It must
//! never answer from a half-applied epoch.
//!
//! A separate deterministic test pins the documented recovery semantics of
//! the planner layer: chase materializations are **not** persisted — after
//! a restart the first chase-backed query rebuilds them from scratch.

use ontorew_model::prelude::*;
use ontorew_plan::MaterializationMode;
use ontorew_serve::{DurabilitySettings, QueryService, ServiceConfig, TenantRegistry};
use ontorew_storage::persist::{failpoint, FailAction};
use ontorew_storage::FsyncPolicy;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ontorew-servecrash-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn settings(root: &Path) -> DurabilitySettings {
    DurabilitySettings {
        root: root.to_path_buf(),
        fsync: FsyncPolicy::Off,
    }
}

fn program() -> TgdProgram {
    parse_program("[R1] edge(X, Y) -> node(X). [R2] node(X) -> thing(X).").unwrap()
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<Atom>),
    Delete(Vec<Atom>),
    Query,
}

fn fact_strategy() -> impl Strategy<Value = Atom> {
    (
        prop::sample::select(vec!["edge", "node"]),
        prop::sample::select(vec!["a", "b", "c", "d"]),
        prop::sample::select(vec!["a", "b", "c", "d"]),
    )
        .prop_map(|(p, x, y)| {
            if p == "node" {
                Atom::fact(p, &[x])
            } else {
                Atom::fact(p, &[x, y])
            }
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(fact_strategy(), 1..5).prop_map(Op::Insert),
        prop::collection::vec(fact_strategy(), 1..3).prop_map(Op::Delete),
        prop::strategy::Just(Op::Query),
    ]
}

const COMMIT_POINTS: &[&str] = &["wal.append.before_write", "wal.append.before_sync"];

fn answers_of(service: &QueryService) -> Vec<Vec<Term>> {
    let q = parse_query("q(X) :- thing(X)").unwrap();
    let mut rows: Vec<Vec<Term>> = service.query(&q).unwrap().answers.iter().cloned().collect();
    rows.sort();
    rows
}

/// Drive `ops` against a durable default tenant, optionally crashing the
/// commit path at step `crash_at`, then recover the registry from disk and
/// compare against the in-memory oracle.
fn run_workload(tag: &str, ops: &[Op], crash_at: Option<usize>, point_idx: usize, torn: usize) {
    let _serialize = failpoint::test_guard();

    let root = temp_root(tag);
    let registry = TenantRegistry::recover(
        program(),
        Instance::new(),
        ServiceConfig::default(),
        settings(&root),
    )
    .unwrap();
    let service = registry.default_tenant();
    let oracle = QueryService::new(program(), Instance::new(), ServiceConfig::default());
    let mut in_flight: Option<Op> = None;

    for (i, op) in ops.iter().enumerate() {
        let armed = crash_at == Some(i);
        let mut broke = false;
        match op {
            Op::Insert(facts) | Op::Delete(facts) => {
                if armed {
                    let point = COMMIT_POINTS[point_idx % COMMIT_POINTS.len()];
                    let action = if torn > 0 && point == "wal.append.before_write" {
                        FailAction::Torn(torn)
                    } else {
                        FailAction::Crash
                    };
                    failpoint::arm(point, action);
                }
                let result = match op {
                    Op::Insert(_) => service.insert_facts(facts),
                    _ => service.delete_facts(facts),
                };
                match result {
                    Ok(_) => {
                        match op {
                            Op::Insert(_) => oracle.insert_facts(facts).unwrap(),
                            _ => oracle.delete_facts(facts).unwrap(),
                        };
                    }
                    Err(e) => {
                        assert!(armed, "only the armed step may fail, got: {e}");
                        in_flight = Some(op.clone());
                        broke = true;
                    }
                }
            }
            Op::Query => {
                assert_eq!(
                    answers_of(&service),
                    answers_of(&oracle),
                    "live service diverged from the oracle"
                );
            }
        }
        if armed {
            failpoint::clear_all();
        }
        if broke {
            break;
        }
    }
    failpoint::clear_all();
    drop(service);
    drop(registry);

    // "Restart the process": recover everything from the data directory.
    let recovered = TenantRegistry::recover(
        program(),
        Instance::new(),
        ServiceConfig::default(),
        settings(&root),
    )
    .unwrap();
    let service = recovered.default_tenant();
    let got = service.snapshot().store().clone();
    let acked = oracle.snapshot().store().clone();
    if got != acked {
        // The only legitimate divergence: the crash hit after the WAL
        // record was complete but before the acknowledgement, so recovery
        // replayed the in-flight operation. Advance the oracle by it and
        // the stores must agree.
        let op =
            in_flight.expect("recovered store differs from the oracle with no in-flight operation");
        match op {
            Op::Insert(facts) => oracle.insert_facts(&facts).unwrap(),
            Op::Delete(facts) => oracle.delete_facts(&facts).unwrap(),
            Op::Query => unreachable!("queries never crash the commit path"),
        };
        assert_eq!(
            got,
            oracle.snapshot().store().clone(),
            "recovered store is neither the acknowledged oracle nor oracle+in-flight"
        );
    }
    // The recovered service answers like the (now aligned) oracle.
    assert_eq!(answers_of(&service), answers_of(&oracle));
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    /// Without a crash, a restart round-trips the whole workload.
    #[test]
    fn restart_recovers_the_service_exactly(
        ops in prop::collection::vec(op_strategy(), 1..15),
    ) {
        run_workload("clean", &ops, None, 0, 0);
    }

    /// Killing the server at any commit-path crash point (including torn
    /// WAL tails of every length) never surfaces a half-applied epoch
    /// through the query API after recovery.
    #[test]
    fn commit_path_crashes_are_all_or_nothing_at_the_service_level(
        ops in prop::collection::vec(op_strategy(), 1..15),
        crash_at in 0usize..15,
        point in 0usize..2,
        torn in 0usize..40,
    ) {
        run_workload("crash", &ops, Some(crash_at % ops.len()), point, torn);
    }
}

/// A failed fsync on one commit — with the server *still running* — must
/// not poison later commits: the service aborts that epoch, the epoch
/// number is reused by the next successful commit, and recovery replays
/// every acknowledged epoch while the aborted batch leaves no trace.
#[test]
fn io_error_on_one_commit_keeps_later_acked_commits_recoverable() {
    let _serialize = failpoint::test_guard();
    let root = temp_root("io-transient");
    {
        let registry = TenantRegistry::recover(
            program(),
            Instance::new(),
            ServiceConfig::default(),
            settings(&root),
        )
        .unwrap();
        let service = registry.default_tenant();
        service
            .insert_facts(&[Atom::fact("edge", &["a", "b"])])
            .unwrap();
        failpoint::arm("wal.append.before_sync", FailAction::IoError);
        assert!(service
            .insert_facts(&[Atom::fact("edge", &["x", "y"])])
            .is_err());
        failpoint::clear_all();
        // The server keeps accepting commits after the transient failure.
        service
            .insert_facts(&[Atom::fact("edge", &["c", "d"])])
            .unwrap();
        service.insert_facts(&[Atom::fact("node", &["e"])]).unwrap();
    }

    let recovered = TenantRegistry::recover(
        program(),
        Instance::new(),
        ServiceConfig::default(),
        settings(&root),
    )
    .unwrap();
    let service = recovered.default_tenant();
    let store = service.snapshot().store().clone();
    for fact in [
        Atom::fact("edge", &["a", "b"]),
        Atom::fact("edge", &["c", "d"]),
        Atom::fact("node", &["e"]),
    ] {
        assert!(store.contains(&fact), "acknowledged fact {fact} lost");
    }
    assert!(
        !store.contains(&Atom::fact("edge", &["x", "y"])),
        "aborted batch resurfaced"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The durability telemetry moves with the service: committing against a
/// durable tenant advances the WAL append/fsync series, and a restart
/// advances the recovery counters — asserted as **deltas**, because the
/// registry is process-global and other tests in this binary feed the same
/// series.
#[test]
fn wal_and_recovery_counters_advance_across_a_restart() {
    let _serialize = failpoint::test_guard();
    let registry = ontorew_telemetry::global_registry();
    let appends = registry.counter("wal_appends_total", "", &[]);
    let bytes = registry.counter("wal_append_bytes_total", "", &[]);
    let fsyncs = registry.histogram_us("wal_fsync_seconds", "", &[]);
    let recoveries = registry.counter("recoveries_total", "", &[]);
    let replayed = registry.counter("recovery_replayed_records_total", "", &[]);
    let (appends0, bytes0, fsyncs0, recoveries0, replayed0) = (
        appends.get(),
        bytes.get(),
        fsyncs.count(),
        recoveries.get(),
        replayed.get(),
    );

    let root = temp_root("telemetry");
    // Fsync on every commit so the latency histogram must move too.
    let durable = DurabilitySettings {
        root: root.clone(),
        fsync: FsyncPolicy::Always,
    };
    {
        let tenants = TenantRegistry::recover(
            program(),
            Instance::new(),
            ServiceConfig::default(),
            durable.clone(),
        )
        .unwrap();
        let service = tenants.default_tenant();
        service
            .insert_facts(&[Atom::fact("edge", &["a", "b"])])
            .unwrap();
        service.insert_facts(&[Atom::fact("node", &["c"])]).unwrap();
    }
    assert!(appends.get() >= appends0 + 2, "appends did not advance");
    assert!(bytes.get() > bytes0, "append bytes did not advance");
    assert!(
        fsyncs.count() >= fsyncs0 + 2,
        "fsync latencies not recorded"
    );

    // "Restart": recovery replays both acknowledged records.
    let tenants = TenantRegistry::recover(
        program(),
        Instance::new(),
        ServiceConfig::default(),
        durable,
    )
    .unwrap();
    assert_eq!(tenants.default_tenant().snapshot().store().len(), 2);
    assert!(recoveries.get() > recoveries0, "no recovery counted");
    assert!(
        replayed.get() >= replayed0 + 2,
        "replayed records not counted"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Chase materializations are rebuilt from scratch after recovery — they
/// are never persisted, and the first chase-backed query of the recovered
/// process must not claim an incremental extension of a pre-crash version.
#[test]
fn materializations_are_rebuilt_from_scratch_after_recovery() {
    let _serialize = failpoint::test_guard();
    let root = temp_root("scratch");
    let program = ontorew_core::examples::example2();
    let query = ontorew_core::examples::example2_query();
    {
        let registry = TenantRegistry::recover(
            program.clone(),
            Instance::new(),
            ServiceConfig::default(),
            settings(&root),
        )
        .unwrap();
        let service = registry.default_tenant();
        service
            .insert_facts(&[
                Atom::fact("s", &["c", "c", "a"]),
                Atom::fact("t", &["d", "a"]),
            ])
            .unwrap();
        let cold = service.query(&query).unwrap();
        assert_eq!(
            cold.provenance.materialization,
            Some(MaterializationMode::Scratch)
        );
        // Advance an epoch and query again: the live process extends the
        // cached materialization incrementally.
        service
            .insert_facts(&[Atom::fact("t", &["d", "b"])])
            .unwrap();
        let warm = service.query(&query).unwrap();
        assert!(
            matches!(
                warm.provenance.materialization,
                Some(MaterializationMode::Incremental { .. })
            ),
            "{:?}",
            warm.provenance.materialization
        );
    }
    // Restart: same data, but the materialization cache starts empty, so
    // the first query chases from scratch (and still answers identically).
    let registry = TenantRegistry::recover(
        program,
        Instance::new(),
        ServiceConfig::default(),
        settings(&root),
    )
    .unwrap();
    let service = registry.default_tenant();
    let fresh = service.query(&query).unwrap();
    assert_eq!(
        fresh.provenance.materialization,
        Some(MaterializationMode::Scratch),
        "recovered process must rebuild, not extend a pre-crash version"
    );
    assert!(fresh.answers.as_boolean());
    let _ = std::fs::remove_dir_all(&root);
}
