//! Property-based crash-recovery tests for the persist layer.
//!
//! The contract under test is **all-or-nothing epochs**: after a simulated
//! crash at any persist I/O point — including torn writes that leave a
//! prefix of a record on disk — recovery reproduces either the store of an
//! oracle that applied exactly the acknowledged operations, or (when the
//! crash hit after the record was fully written but before the commit was
//! acknowledged) that oracle plus the one in-flight operation. It never
//! surfaces a half-applied epoch, and a failed checkpoint never loses an
//! acknowledged commit. These tests run in one process, so the page cache
//! stands in for the disk.

use ontorew_model::prelude::*;
use ontorew_storage::persist::{failpoint, FailAction, TenantStorage, WalOpKind, WalRecord};
use ontorew_storage::{FsyncPolicy, RelationalStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ontorew-proppersist-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One workload step: a batch commit or a checkpoint request.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<Atom>),
    Delete(Vec<Atom>),
    Checkpoint,
}

fn fact_strategy() -> impl Strategy<Value = Atom> {
    (
        prop::sample::select(vec!["edge", "node", "label"]),
        prop::sample::select(vec!["a", "b", "c", "d", "e"]),
        prop::sample::select(vec!["a", "b", "c", "d", "e"]),
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
        prop::collection::vec(fact_strategy(), 1..6).prop_map(Op::Insert),
        prop::collection::vec(fact_strategy(), 1..4).prop_map(Op::Delete),
        prop::strategy::Just(Op::Checkpoint),
    ]
}

/// The commit-path and checkpoint-path crash points a step can die at.
const COMMIT_POINTS: &[&str] = &["wal.append.before_write", "wal.append.before_sync"];
const CHECKPOINT_POINTS: &[&str] = &[
    "segment.write.before_write",
    "segment.write.before_sync",
    "manifest.write.before_rename",
    "wal.truncate.before_rewrite",
];

fn apply(store: &mut RelationalStore, kind: WalOpKind, facts: &[Atom]) {
    for fact in facts {
        match kind {
            WalOpKind::Insert => {
                store.insert_atom(fact);
            }
            WalOpKind::Delete => {
                store.remove_atom(fact);
            }
        }
    }
}

/// Drive `ops` against a durable tenant, optionally crashing at step
/// `crash_at` via the chosen failpoint, then recover and compare to the
/// oracle of acknowledged operations (or oracle + the in-flight op, the
/// at-least-once case).
fn run_workload(tag: &str, ops: &[Op], crash_at: Option<usize>, point_idx: usize, torn: usize) {
    let _serialize = failpoint::test_guard();

    let root = temp_root(tag);
    let storage = TenantStorage::create(&root, "prop", "prop program", FsyncPolicy::Off).unwrap();
    let mut oracle = RelationalStore::new();
    let mut live = RelationalStore::new();
    let mut epoch = 0u64;
    // Set when a commit-path crash leaves one op neither acknowledged nor
    // impossible: recovery may legitimately land on either side.
    let mut in_flight: Option<(WalOpKind, Vec<Atom>)> = None;

    for (i, op) in ops.iter().enumerate() {
        let armed = crash_at == Some(i);
        let mut broke = false;
        match op {
            Op::Insert(facts) | Op::Delete(facts) => {
                let kind = if matches!(op, Op::Insert(_)) {
                    WalOpKind::Insert
                } else {
                    WalOpKind::Delete
                };
                if armed {
                    let point = COMMIT_POINTS[point_idx % COMMIT_POINTS.len()];
                    let action = if torn > 0 && point == "wal.append.before_write" {
                        FailAction::Torn(torn)
                    } else {
                        FailAction::Crash
                    };
                    failpoint::arm(point, action);
                }
                let record = WalRecord {
                    epoch: epoch + 1,
                    kind,
                    facts: facts.clone(),
                };
                match storage.log_commit(&record) {
                    Ok(()) => {
                        epoch += 1;
                        apply(&mut oracle, kind, facts);
                        apply(&mut live, kind, facts);
                    }
                    Err(_) => {
                        assert!(armed, "only the armed step may fail");
                        in_flight = Some((kind, facts.clone()));
                        broke = true;
                    }
                }
            }
            Op::Checkpoint => {
                if armed {
                    let point = CHECKPOINT_POINTS[point_idx % CHECKPOINT_POINTS.len()];
                    failpoint::arm(point, FailAction::Crash);
                }
                live.freeze();
                match storage.checkpoint(&live, epoch) {
                    Ok(_) => {}
                    Err(_) => {
                        assert!(armed, "only the armed step may fail");
                        broke = true;
                    }
                }
            }
        }
        if armed {
            // An armed point the step never reached (e.g. a segment-write
            // point during an empty checkpoint) must not leak into later
            // steps.
            failpoint::clear_all();
        }
        if broke {
            break;
        }
    }
    failpoint::clear_all();
    drop(storage);

    let recovered = TenantStorage::open(&root, "prop", FsyncPolicy::default())
        .unwrap()
        .expect("tenant recoverable");
    let got = recovered.store.to_instance();
    let acked = oracle.to_instance();
    let matches_oracle = got == acked;
    let matches_in_flight = in_flight.is_some_and(|(kind, facts)| {
        apply(&mut oracle, kind, &facts);
        got == oracle.to_instance()
    });
    assert!(
        matches_oracle || matches_in_flight,
        "recovered store is neither the acknowledged oracle nor oracle+in-flight:\n\
         got {} atoms, oracle {} atoms",
        got.atoms().count(),
        acked.atoms().count(),
    );
    assert_eq!(recovered.program_text, "prop program");
    let _ = std::fs::remove_dir_all(&root);
}

/// Drive `ops` with a *transient* I/O failure (the process keeps running)
/// injected into the commit at step `fail_at`: the failed commit is rolled
/// back, the workload continues through the remaining steps, and recovery
/// must match the acknowledged oracle exactly — no in-flight allowance,
/// because a still-running process never acknowledged the failed batch.
fn run_workload_io_error(tag: &str, ops: &[Op], fail_at: usize, point_idx: usize) {
    let _serialize = failpoint::test_guard();

    let root = temp_root(tag);
    let storage = TenantStorage::create(&root, "prop", "prop program", FsyncPolicy::Off).unwrap();
    let mut oracle = RelationalStore::new();
    let mut live = RelationalStore::new();
    let mut epoch = 0u64;

    for (i, op) in ops.iter().enumerate() {
        let armed = fail_at == i;
        match op {
            Op::Insert(facts) | Op::Delete(facts) => {
                let kind = if matches!(op, Op::Insert(_)) {
                    WalOpKind::Insert
                } else {
                    WalOpKind::Delete
                };
                if armed {
                    let point = COMMIT_POINTS[point_idx % COMMIT_POINTS.len()];
                    failpoint::arm(point, FailAction::IoError);
                }
                let record = WalRecord {
                    epoch: epoch + 1,
                    kind,
                    facts: facts.clone(),
                };
                match storage.log_commit(&record) {
                    Ok(()) => {
                        epoch += 1;
                        apply(&mut oracle, kind, facts);
                        apply(&mut live, kind, facts);
                    }
                    Err(_) => {
                        assert!(armed, "only the armed step may fail");
                        // Aborted, not acknowledged: the workload goes on.
                    }
                }
            }
            Op::Checkpoint => {
                live.freeze();
                storage.checkpoint(&live, epoch).unwrap();
            }
        }
        if armed {
            failpoint::clear_all();
        }
    }
    failpoint::clear_all();
    drop(storage);

    let recovered = TenantStorage::open(&root, "prop", FsyncPolicy::default())
        .unwrap()
        .expect("tenant recoverable");
    assert_eq!(
        recovered.store.to_instance(),
        oracle.to_instance(),
        "a transient commit failure must be invisible after recovery"
    );
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    /// Without any crash, recovery is an exact round-trip of the workload.
    #[test]
    fn clean_restart_recovers_exactly(ops in prop::collection::vec(op_strategy(), 1..20)) {
        run_workload("clean", &ops, None, 0, 0);
    }

    /// Crashing at any step, at any commit-path crash point (including torn
    /// writes of every prefix length), recovery is all-or-nothing.
    #[test]
    fn crash_on_the_commit_path_is_all_or_nothing(
        ops in prop::collection::vec(op_strategy(), 1..20),
        crash_at in 0usize..20,
        point in 0usize..2,
        torn in 0usize..48,
    ) {
        run_workload("commit-crash", &ops, Some(crash_at % ops.len()), point, torn);
    }

    /// A transient I/O failure on the commit path (failed write or fsync
    /// with the process still running) aborts only that commit: later
    /// commits — including the retry that reuses the aborted epoch number —
    /// all survive recovery.
    #[test]
    fn io_error_on_the_commit_path_is_invisible_after_recovery(
        ops in prop::collection::vec(op_strategy(), 1..20),
        fail_at in 0usize..20,
        point in 0usize..2,
    ) {
        run_workload_io_error("io-error", &ops, fail_at % ops.len(), point);
    }

    /// Crashing inside a checkpoint never loses an acknowledged commit.
    #[test]
    fn crash_in_the_checkpoint_path_loses_nothing(
        ops in prop::collection::vec(op_strategy(), 1..20),
        crash_at in 0usize..20,
        point in 0usize..4,
    ) {
        // Splice a checkpoint in and crash exactly there.
        let mut ops = ops;
        let idx = crash_at % (ops.len() + 1);
        ops.insert(idx, Op::Checkpoint);
        run_workload("ckpt-crash", &ops, Some(idx), point, 0);
    }
}
