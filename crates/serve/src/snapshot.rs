//! Snapshot-isolated stores: immutable epochs, atomically swapped.
//!
//! A tenant's data is one [`Instance`] — the same value query evaluation
//! reads, the chase starts from (a restricted or full chase clones it in
//! O(#segments) and writes only its own tails) and a checkpoint spills.
//! Evaluation only needs shared access to it, but fact ingestion mutates it. Rather than a reader-writer lock over one
//! store — where every insert stalls all query traffic — the [`EpochStore`]
//! keeps the *published* store immutable behind an `Arc`: readers grab the
//! current [`Snapshot`] (an `Arc` clone, held for as long as they like) and
//! evaluate against it without any further synchronisation, while the writer
//! applies its batch to a private working copy and publishes the result as
//! the next epoch with a pointer swap.
//!
//! The guarantees, in transactional terms, are **snapshot isolation for
//! readers and serialized writers**: a reader sees exactly the facts of one
//! epoch — never a torn batch, never a moving store — and epochs are
//! totally ordered. Since PR 5 the store's relations are segmented and
//! copy-on-write, so a commit *freezes* the working store (publishing the
//! batch as `Arc`-shared segments) and the publish clone shares every
//! frozen segment by reference — commit cost scales with the batch (plus
//! the amortised size-tiered segment merges), not with the store.

use ontorew_model::prelude::*;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// An immutable, epoch-stamped view of the relational data. Cheap to clone
/// the `Arc` handle; the store inside never changes after publication.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    store: Instance,
}

impl Snapshot {
    /// The epoch number (0 for the initial load, +1 per committed batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The facts of this epoch.
    pub fn store(&self) -> &Instance {
        &self.store
    }

    /// Total facts in this epoch.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the epoch holds no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

/// The epoch-swapping store: one published immutable snapshot, one private
/// working copy for the (serialized) writers.
pub struct EpochStore {
    /// The published snapshot. The `RwLock` protects only the `Arc` swap —
    /// it is held for nanoseconds, never during evaluation or mutation.
    current: RwLock<Arc<Snapshot>>,
    /// The writers' working copy: the next epoch being built. It is kept
    /// frozen between commits, so the publish clone only shares `Arc`
    /// segments — commit cost is the batch mutation plus the freeze of that
    /// batch, never a copy of the whole store.
    writer: Mutex<Instance>,
}

impl EpochStore {
    /// Publish `initial` as epoch 0.
    pub fn new(initial: Instance) -> Self {
        EpochStore::with_epoch(initial, 0)
    }

    /// Publish `initial` at a given starting epoch — the recovery path,
    /// where the store reconstructed from checkpoint + WAL replay resumes
    /// at the epoch it had reached before the crash.
    pub fn with_epoch(mut initial: Instance, epoch: u64) -> Self {
        initial.freeze();
        EpochStore {
            current: RwLock::new(Arc::new(Snapshot {
                epoch,
                store: initial.clone(),
            })),
            writer: Mutex::new(initial),
        }
    }

    /// The current snapshot. The returned `Arc` stays valid (and immutable)
    /// for as long as the caller holds it, regardless of later commits.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read())
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Apply `mutate` to the working copy and publish the result as the next
    /// epoch. Returns the new epoch number. Writers are serialized by the
    /// working-copy lock; readers are never blocked (they keep using the
    /// previous snapshot until the swap, which is a pointer store).
    ///
    /// Everything `mutate` does becomes visible *atomically*: no reader can
    /// observe a prefix of the batch. The working store is frozen after the
    /// mutation, so the publish clone shares every segment by reference —
    /// O(batch), not O(store).
    pub fn commit<F>(&self, mutate: F) -> u64
    where
        F: FnOnce(&mut Instance),
    {
        self.commit_logged(|_| Ok(()), mutate)
            .expect("no-op logger cannot fail")
    }

    /// [`commit`](EpochStore::commit) with a write-ahead hook: `log` runs
    /// with the epoch about to be published, *before* the working copy is
    /// touched. If `log` fails the commit is aborted — nothing was mutated,
    /// nothing published, and the error is returned. This is the WAL
    /// discipline: a record reaches the log before its epoch can ever be
    /// observed, and an epoch that was never acknowledged leaves no trace
    /// in memory.
    pub fn commit_logged<L, F>(&self, log: L, mutate: F) -> std::io::Result<u64>
    where
        L: FnOnce(u64) -> std::io::Result<()>,
        F: FnOnce(&mut Instance),
    {
        let mut working = self.writer.lock();
        let epoch = self.current.read().epoch + 1;
        log(epoch)?;
        mutate(&mut working);
        working.freeze();
        let published = Arc::new(Snapshot {
            epoch,
            store: working.clone(),
        });
        *self.current.write() = published;
        Ok(epoch)
    }

    /// Convenience: commit a batch of ground facts as one epoch. Returns
    /// the [`CommitReceipt`] describing the published epoch.
    pub fn commit_facts(&self, facts: &[Atom]) -> CommitReceipt {
        let mut added = 0usize;
        let mut total = 0usize;
        let epoch = self.commit(|store| {
            for fact in facts {
                if store.insert(fact.clone()) {
                    added += 1;
                }
            }
            total = store.len();
        });
        CommitReceipt {
            epoch,
            added,
            facts: total,
        }
    }
}

/// What [`EpochStore::commit_facts`] published: the new epoch, how many of
/// the batch's facts were new, and the total facts of the published
/// snapshot. The fact total lets callers (the serving layer) hand the
/// planner a verifiable delta edge without re-reading the snapshot (which
/// could already belong to a later epoch).
#[derive(Clone, Copy, Debug)]
pub struct CommitReceipt {
    /// The newly published epoch.
    pub epoch: u64,
    /// Facts of the batch that were not already present.
    pub added: usize,
    /// Total facts in the published snapshot.
    pub facts: usize,
}

impl std::fmt::Debug for EpochStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        write!(
            f,
            "EpochStore(epoch={}, facts={})",
            snap.epoch(),
            snap.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_snapshot_is_epoch_zero() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a"]);
        let store = EpochStore::new(db);
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn commits_advance_the_epoch_atomically() {
        let store = EpochStore::new(Instance::new());
        let before = store.snapshot();
        let receipt = store.commit_facts(&[
            Atom::fact("pair", &["1", "a"]),
            Atom::fact("pair", &["1", "b"]),
        ]);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.added, 2);
        assert_eq!(receipt.facts, 2);
        // The old snapshot is untouched; the new one has the whole batch.
        assert!(before.is_empty());
        assert_eq!(store.snapshot().len(), 2);
        assert_eq!(store.epoch(), 1);
    }

    #[test]
    fn duplicate_facts_count_as_not_added_but_still_advance_the_epoch() {
        let store = EpochStore::new(Instance::new());
        store.commit_facts(&[Atom::fact("r", &["a"])]);
        let receipt = store.commit_facts(&[Atom::fact("r", &["a"])]);
        assert_eq!(receipt.epoch, 2);
        assert_eq!(receipt.added, 0);
        assert_eq!(receipt.facts, 1);
        assert_eq!(store.snapshot().len(), 1);
    }

    #[test]
    fn published_snapshots_share_segments_with_the_working_store() {
        let mut initial = Instance::new();
        for i in 0..100 {
            initial.insert_fact("base", &[&format!("b{i}")]);
        }
        let store = EpochStore::new(initial);
        let epoch0 = store.snapshot();
        store.commit_facts(&[Atom::fact("base", &["extra"])]);
        let epoch1 = store.snapshot();
        // The preloaded 100 facts were frozen at construction: both epochs
        // share that segment by reference, and the old snapshot still serves.
        let p = Predicate::new("base", 1);
        let before = epoch0.store().relation(p).unwrap();
        let after = epoch1.store().relation(p).unwrap();
        assert_eq!(before.len(), 100);
        assert_eq!(after.len(), 101);
        assert!(
            after.rows().take(100).eq(before.rows()),
            "shared prefix preserved in order"
        );
    }

    #[test]
    fn held_snapshots_survive_later_commits() {
        let store = EpochStore::new(Instance::new());
        store.commit_facts(&[Atom::fact("r", &["a"])]);
        let held = store.snapshot();
        for i in 0..10 {
            store.commit_facts(&[Atom::fact("r", &[format!("b{i}").as_str()])]);
        }
        assert_eq!(held.epoch(), 1);
        assert_eq!(held.len(), 1);
        assert_eq!(store.snapshot().len(), 11);
    }

    #[test]
    fn with_epoch_resumes_numbering_after_recovery() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a"]);
        let store = EpochStore::with_epoch(db, 41);
        assert_eq!(store.epoch(), 41);
        let receipt = store.commit_facts(&[Atom::fact("r", &["b"])]);
        assert_eq!(receipt.epoch, 42);
    }

    #[test]
    fn failed_log_hook_aborts_the_commit_without_a_trace() {
        let store = EpochStore::new(Instance::new());
        store.commit_facts(&[Atom::fact("r", &["a"])]);
        let err = store.commit_logged(
            |epoch| {
                assert_eq!(epoch, 2, "log sees the epoch about to publish");
                Err(std::io::Error::other("disk on fire"))
            },
            |db| {
                db.insert_fact("r", &["b"]);
            },
        );
        assert!(err.is_err());
        // Nothing mutated, nothing published: the next commit re-uses the
        // aborted epoch number.
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.snapshot().len(), 1);
        let receipt = store.commit_facts(&[Atom::fact("r", &["c"])]);
        assert_eq!(receipt.epoch, 2);
        assert_eq!(store.snapshot().len(), 2);
    }

    #[test]
    fn concurrent_readers_see_whole_epochs_only() {
        let store = Arc::new(EpochStore::new(Instance::new()));
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..200 {
                    let tag = format!("{i}");
                    store.commit_facts(&[
                        Atom::fact("marker", &[&tag, "a"]),
                        Atom::fact("marker", &[&tag, "b"]),
                    ]);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut last_epoch = 0u64;
                    for _ in 0..500 {
                        let snap = store.snapshot();
                        assert!(snap.epoch() >= last_epoch, "epochs are monotone");
                        last_epoch = snap.epoch();
                        // Batch atomicity: every marker k present with "a"
                        // must be present with "b" — a torn batch would
                        // break the pairing.
                        let rel = snap.store().relation(Predicate::new("marker", 2));
                        if let Some(rel) = rel {
                            assert_eq!(rel.len() % 2, 0, "torn batch observed");
                        }
                        assert_eq!(snap.len() as u64, snap.epoch() * 2);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.epoch(), 200);
    }
}
