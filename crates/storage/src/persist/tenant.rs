//! [`TenantStorage`]: the per-tenant composition of WAL, segments and
//! manifest.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/<tenant>/
//!   PROGRAM            # the tenant's TGD program, Display round-trip text
//!   MANIFEST           # checkpoint pointer (absent until first checkpoint)
//!   wal.log            # records for epochs past the checkpoint
//!   segments/          # write-once segment files named by the manifest
//!     seg-<epoch>-<i>.seg
//!   TOMBSTONE          # present only after TENANT DROP
//! ```
//!
//! ## Lifecycle
//!
//! * [`TenantStorage::create`] — set up the directory for a brand-new
//!   tenant (wiping a tombstoned or stale one) and persist its program.
//! * [`TenantStorage::open`] — recover: read PROGRAM, load the manifest's
//!   segments, replay the WAL suffix (dropping any torn tail), and hand
//!   back the reconstructed store.
//! * [`TenantStorage::log_commit`] — append one epoch record; called from
//!   the epoch store's commit path *before* the epoch is published.
//! * [`TenantStorage::checkpoint`] — spill the frozen store to fresh
//!   segments, publish the manifest, truncate the WAL through the
//!   checkpointed epoch, and retire old segment files. Segment writing
//!   happens off the WAL lock so commits keep flowing.
//! * [`TenantStorage::tombstone`] — mark the tenant dropped: recovery
//!   skips it, re-`create` wipes it.

use super::manifest::{Manifest, SegmentEntry};
use super::segment::{read_segment, write_segment};
use super::wal::{read_wal, Wal, WalOpKind, WalRecord, WalTail};
use super::{sync_parent_dir, FsyncPolicy};
use crate::database::RelationalStore;
use ontorew_telemetry::global_registry;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const PROGRAM_FILE: &str = "PROGRAM";
const MANIFEST_FILE: &str = "MANIFEST";
const WAL_FILE: &str = "wal.log";
const SEGMENTS_DIR: &str = "segments";
const TOMBSTONE_FILE: &str = "TOMBSTONE";

/// A stats snapshot of one tenant's durable state (the STATS gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStorageState {
    /// Current WAL size in bytes.
    pub wal_bytes: u64,
    /// Segment files referenced by the live manifest.
    pub segments_on_disk: u64,
    /// The epoch fully captured by those segments.
    pub checkpoint_epoch: u64,
    /// Times this tenant has been recovered from disk (persisted at each
    /// checkpoint, so a never-checkpointed tenant reports only the
    /// recoveries since its last wipe).
    pub recoveries: u64,
}

/// What [`TenantStorage::open`] reconstructed.
#[derive(Debug)]
pub struct RecoveredTenant {
    /// The durable handle, ready for new commits.
    pub storage: TenantStorage,
    /// The tenant's program, exactly as persisted (parse it back).
    pub program_text: String,
    /// The recovered store: checkpoint segments + replayed WAL suffix,
    /// frozen.
    pub store: RelationalStore,
    /// The highest recovered epoch (commits resume at `epoch + 1`).
    pub epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Of which retraction (delete) epochs.
    pub replayed_deletes: usize,
    /// What the WAL tail looked like (`Clean`, or how many torn bytes were
    /// discarded).
    pub tail: WalTail,
}

/// The durable handle for one tenant. Commit-path appends and compactor
/// checkpoints synchronize on the internal WAL lock; segment writing stays
/// outside it.
#[derive(Debug)]
pub struct TenantStorage {
    dir: PathBuf,
    wal: Mutex<Wal>,
    /// Serializes checkpoints (compactor vs. shutdown flush).
    checkpointing: Mutex<()>,
    wal_bytes: AtomicU64,
    segments_on_disk: AtomicU64,
    checkpoint_epoch: AtomicU64,
    recoveries: AtomicU64,
}

impl TenantStorage {
    /// Set up the directory for a brand-new tenant and persist its program
    /// text. An existing directory at this name — tombstoned or stale — is
    /// wiped: the registry is the authority on which names are live.
    pub fn create(
        root: &Path,
        name: &str,
        program_text: &str,
        policy: FsyncPolicy,
    ) -> io::Result<TenantStorage> {
        let dir = root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(dir.join(SEGMENTS_DIR))?;
        write_atomic(&dir.join(PROGRAM_FILE), program_text.as_bytes())?;
        sync_parent_dir(&dir)?;
        let wal = Wal::open(&dir.join(WAL_FILE), policy)?;
        Ok(TenantStorage {
            dir,
            wal_bytes: AtomicU64::new(wal.bytes()),
            wal: Mutex::new(wal),
            checkpointing: Mutex::new(()),
            segments_on_disk: AtomicU64::new(0),
            checkpoint_epoch: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        })
    }

    /// Recover the tenant at `<root>/<name>`. Returns `Ok(None)` for a
    /// directory that does not exist or carries a tombstone. Corrupt
    /// segments or manifest are hard errors; a torn WAL *tail* is not — it
    /// is discarded (and physically truncated so new appends land after
    /// the last intact record).
    pub fn open(
        root: &Path,
        name: &str,
        policy: FsyncPolicy,
    ) -> io::Result<Option<RecoveredTenant>> {
        let recovery_start = std::time::Instant::now();
        let dir = root.join(name);
        if !dir.is_dir() || dir.join(TOMBSTONE_FILE).exists() {
            return Ok(None);
        }
        let mut program_text = String::new();
        File::open(dir.join(PROGRAM_FILE))?.read_to_string(&mut program_text)?;

        let manifest = Manifest::read(&dir.join(MANIFEST_FILE))?.unwrap_or_default();
        let mut store = RelationalStore::new();
        for entry in &manifest.segments {
            let (predicate, rows) =
                read_segment(&dir.join(SEGMENTS_DIR).join(&entry.file), entry.crc)?;
            let relation = store.relation_mut(predicate);
            for row in rows {
                relation.insert(row);
            }
        }

        let wal_path = dir.join(WAL_FILE);
        let (records, tail) = read_wal(&wal_path)?;
        if tail != WalTail::Clean {
            // Chop the unusable tail off the file itself, otherwise the
            // next append would land after garbage and be dropped by the
            // following recovery.
            let len = std::fs::metadata(&wal_path)?.len();
            let file = OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(len - tail.dropped_bytes())?;
            file.sync_all()?;
        }
        let mut epoch = manifest.epoch;
        let mut replayed = 0usize;
        let mut replayed_deletes = 0usize;
        for record in &records {
            if record.epoch <= manifest.epoch {
                continue; // already captured by the checkpoint
            }
            match record.kind {
                WalOpKind::Insert => {
                    for fact in &record.facts {
                        store.insert_atom(fact);
                    }
                }
                WalOpKind::Delete => {
                    replayed_deletes += 1;
                    for fact in &record.facts {
                        store.remove_atom(fact);
                    }
                }
            }
            replayed += 1;
            epoch = record.epoch;
        }
        store.freeze();

        let storage = TenantStorage {
            wal_bytes: AtomicU64::new(0),
            wal: Mutex::new(Wal::open(&wal_path, policy)?),
            checkpointing: Mutex::new(()),
            segments_on_disk: AtomicU64::new(manifest.segments.len() as u64),
            checkpoint_epoch: AtomicU64::new(manifest.epoch),
            recoveries: AtomicU64::new(manifest.recoveries + 1),
            dir,
        };
        storage
            .wal_bytes
            .store(storage.wal.lock().bytes(), Ordering::Relaxed);
        storage.remove_unreferenced_segments(&manifest)?;
        let registry = global_registry();
        registry
            .counter("recoveries_total", "Tenant recoveries performed.", &[])
            .inc();
        registry
            .counter(
                "recovery_replayed_records_total",
                "WAL records replayed during recoveries.",
                &[],
            )
            .add(replayed as u64);
        registry
            .histogram_us(
                "recovery_seconds",
                "Tenant recovery (segment load + WAL replay) duration in seconds.",
                &[],
            )
            .observe(recovery_start.elapsed().as_micros() as u64);
        Ok(Some(RecoveredTenant {
            storage,
            program_text,
            store,
            epoch,
            replayed,
            replayed_deletes,
            tail,
        }))
    }

    /// List the recoverable tenant names under `root`: directories with a
    /// PROGRAM and no tombstone.
    pub fn list(root: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let dir = entry.path();
            if dir.is_dir() && dir.join(PROGRAM_FILE).exists() && !dir.join(TOMBSTONE_FILE).exists()
            {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// This tenant's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one epoch record to the WAL. Called before the epoch is
    /// published; an error here aborts the commit.
    pub fn log_commit(&self, record: &WalRecord) -> io::Result<()> {
        let bytes = self.wal.lock().append(record)?;
        self.wal_bytes.store(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Force the WAL to stable storage regardless of fsync policy
    /// (graceful shutdown).
    pub fn sync(&self) -> io::Result<()> {
        self.wal.lock().sync()
    }

    /// Spill `store` (the frozen contents as of `epoch`) to fresh segment
    /// files, publish the manifest, truncate the WAL through `epoch`, and
    /// retire the previous checkpoint's segments. Commits are only blocked
    /// for the manifest publish + WAL truncation, not the segment writes.
    pub fn checkpoint(
        &self,
        store: &RelationalStore,
        epoch: u64,
    ) -> io::Result<TenantStorageState> {
        let _only_one = self.checkpointing.lock();
        let checkpoint_start = std::time::Instant::now();
        let seg_dir = self.dir.join(SEGMENTS_DIR);
        let mut predicates: Vec<_> = store.predicates().collect();
        predicates.sort_by_key(|p| (p.name_str(), p.arity));
        let mut segments = Vec::with_capacity(predicates.len());
        for (i, predicate) in predicates.into_iter().enumerate() {
            let relation = store.relation(predicate).expect("predicates() is live");
            let file = format!("seg-{epoch}-{i}.seg");
            let (rows, bytes, crc) =
                write_segment(&seg_dir.join(&file), predicate, relation.scan())?;
            segments.push(SegmentEntry {
                file,
                rows,
                bytes,
                crc,
            });
        }
        let manifest = Manifest {
            epoch,
            recoveries: self.recoveries.load(Ordering::Relaxed),
            segments,
        };
        {
            let mut wal = self.wal.lock();
            manifest.write(&self.dir.join(MANIFEST_FILE))?;
            let bytes = wal.truncate_through(epoch)?;
            self.wal_bytes.store(bytes, Ordering::Relaxed);
        }
        self.checkpoint_epoch.store(epoch, Ordering::Relaxed);
        self.segments_on_disk
            .store(manifest.segments.len() as u64, Ordering::Relaxed);
        self.remove_unreferenced_segments(&manifest)?;
        let registry = global_registry();
        registry
            .counter("checkpoints_total", "Checkpoints published.", &[])
            .inc();
        registry
            .counter(
                "checkpoint_segments_spilled_total",
                "Segment files written by checkpoints.",
                &[],
            )
            .add(manifest.segments.len() as u64);
        registry
            .histogram_us(
                "checkpoint_seconds",
                "Checkpoint (segment spill + manifest publish + WAL truncate) duration in seconds.",
                &[],
            )
            .observe(checkpoint_start.elapsed().as_micros() as u64);
        Ok(self.state())
    }

    /// Mark the tenant dropped: recovery skips it, re-`create` wipes it.
    /// The data files are removed eagerly to reclaim space; the tombstone
    /// (and the program, for post-mortems) remain.
    pub fn tombstone(&self) -> io::Result<()> {
        let mut marker = File::create(self.dir.join(TOMBSTONE_FILE))?;
        marker.write_all(b"dropped\n")?;
        marker.sync_all()?;
        sync_parent_dir(&self.dir.join(TOMBSTONE_FILE))?;
        let _ = std::fs::remove_file(self.dir.join(WAL_FILE));
        let _ = std::fs::remove_file(self.dir.join(MANIFEST_FILE));
        let _ = std::fs::remove_dir_all(self.dir.join(SEGMENTS_DIR));
        Ok(())
    }

    /// Snapshot of the durable-state gauges.
    pub fn state(&self) -> TenantStorageState {
        TenantStorageState {
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            segments_on_disk: self.segments_on_disk.load(Ordering::Relaxed),
            checkpoint_epoch: self.checkpoint_epoch.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }

    /// Delete segment files (and stray temp files) not referenced by
    /// `manifest` — leftovers of a crash between segment spill and manifest
    /// publish, or of a superseded checkpoint.
    fn remove_unreferenced_segments(&self, manifest: &Manifest) -> io::Result<()> {
        let live: HashSet<&str> = manifest.segments.iter().map(|s| s.file.as_str()).collect();
        let seg_dir = self.dir.join(SEGMENTS_DIR);
        let entries = match std::fs::read_dir(&seg_dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let keep = name.to_str().is_some_and(|n| live.contains(n));
            if !keep {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

/// Write `data` to `path` atomically (temp + fsync + rename).
fn write_atomic(path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(data)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::failpoint;
    use super::super::FailAction;
    use super::*;
    use ontorew_model::prelude::*;

    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-tenant-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn insert(epoch: u64, names: &[&str]) -> WalRecord {
        WalRecord {
            epoch,
            kind: WalOpKind::Insert,
            facts: names.iter().map(|n| Atom::fact("node", &[n])).collect(),
        }
    }

    fn delete(epoch: u64, names: &[&str]) -> WalRecord {
        WalRecord {
            kind: WalOpKind::Delete,
            ..insert(epoch, names)
        }
    }

    #[test]
    fn create_log_recover_round_trip() {
        let _guard = failpoint::test_guard();
        let root = temp_root("roundtrip");
        let storage = TenantStorage::create(
            &root,
            "acme",
            "[R1] node(X) -> seen(X).\n",
            FsyncPolicy::default(),
        )
        .unwrap();
        storage.log_commit(&insert(1, &["a", "b"])).unwrap();
        storage.log_commit(&delete(2, &["a"])).unwrap();
        storage.log_commit(&insert(3, &["c"])).unwrap();
        drop(storage); // "crash": nothing checkpointed, WAL only

        let recovered = TenantStorage::open(&root, "acme", FsyncPolicy::default())
            .unwrap()
            .expect("tenant exists");
        assert_eq!(recovered.program_text, "[R1] node(X) -> seen(X).\n");
        assert_eq!(recovered.epoch, 3);
        assert_eq!(recovered.replayed, 3);
        assert_eq!(recovered.replayed_deletes, 1);
        assert_eq!(recovered.tail, WalTail::Clean);
        assert_eq!(recovered.store.len(), 2);
        assert!(recovered.store.contains_atom(&Atom::fact("node", &["b"])));
        assert!(recovered.store.contains_atom(&Atom::fact("node", &["c"])));
        assert!(!recovered.store.contains_atom(&Atom::fact("node", &["a"])));
        assert_eq!(recovered.storage.state().recoveries, 1);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_recovery() {
        let _guard = failpoint::test_guard();
        let root = temp_root("checkpoint");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::default()).unwrap();
        let mut store = RelationalStore::new();
        for (epoch, name) in [(1u64, "a"), (2, "b"), (3, "c")] {
            storage.log_commit(&insert(epoch, &[name])).unwrap();
            store.insert_fact("node", &[name]);
        }
        store.freeze();
        let state = storage.checkpoint(&store, 3).unwrap();
        assert_eq!(state.checkpoint_epoch, 3);
        assert_eq!(state.segments_on_disk, 1);
        assert_eq!(state.wal_bytes, 0, "WAL fully truncated at the checkpoint");

        // More commits after the checkpoint land in the fresh WAL.
        storage.log_commit(&insert(4, &["d"])).unwrap();
        drop(storage);

        let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(recovered.epoch, 4);
        assert_eq!(recovered.replayed, 1, "only the post-checkpoint suffix");
        assert_eq!(recovered.store.len(), 4);
        assert_eq!(recovered.storage.state().checkpoint_epoch, 3);
    }

    #[test]
    fn second_checkpoint_retires_old_segments() {
        let _guard = failpoint::test_guard();
        let root = temp_root("retire");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::default()).unwrap();
        let mut store = RelationalStore::new();
        store.insert_fact("node", &["a"]);
        store.freeze();
        storage.log_commit(&insert(1, &["a"])).unwrap();
        storage.checkpoint(&store, 1).unwrap();
        store.insert_fact("edge", &["a", "b"]);
        store.freeze();
        storage.log_commit(&insert(2, &["ignored"])).unwrap();
        storage.checkpoint(&store, 2).unwrap();
        let seg_dir = storage.dir().join("segments");
        let mut files: Vec<_> = std::fs::read_dir(&seg_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, vec!["seg-2-0.seg", "seg-2-1.seg"]);
    }

    #[test]
    fn tombstone_hides_the_tenant_and_recreate_wipes_it() {
        let _guard = failpoint::test_guard();
        let root = temp_root("tombstone");
        let storage =
            TenantStorage::create(&root, "t", "old program", FsyncPolicy::default()).unwrap();
        storage.log_commit(&insert(1, &["a"])).unwrap();
        storage.tombstone().unwrap();
        assert!(TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .is_none());
        assert!(TenantStorage::list(&root).unwrap().is_empty());

        // Re-creating the name starts from scratch.
        let storage =
            TenantStorage::create(&root, "t", "new program", FsyncPolicy::default()).unwrap();
        storage.log_commit(&insert(1, &["z"])).unwrap();
        drop(storage);
        let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(recovered.program_text, "new program");
        assert_eq!(recovered.store.len(), 1);
        assert_eq!(TenantStorage::list(&root).unwrap(), vec!["t".to_string()]);
    }

    #[test]
    fn torn_wal_tail_is_truncated_so_new_appends_survive() {
        let _guard = failpoint::test_guard();
        let root = temp_root("torn-tail");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::default()).unwrap();
        storage.log_commit(&insert(1, &["a"])).unwrap();
        failpoint::arm("wal.append.before_write", FailAction::Torn(7));
        assert!(storage.log_commit(&insert(2, &["b"])).is_err());
        failpoint::clear_all();
        drop(storage);

        // First recovery: the torn record is discarded and the file healed.
        let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(recovered.epoch, 1);
        assert!(recovered.tail.dropped_bytes() > 0);
        // New commits append after the healed tail...
        recovered.storage.log_commit(&insert(2, &["c"])).unwrap();
        drop(recovered);
        // ...and a second recovery sees them.
        let again = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(again.epoch, 2);
        assert_eq!(again.tail, WalTail::Clean);
        assert!(again.store.contains_atom(&Atom::fact("node", &["c"])));
        assert_eq!(again.storage.state().recoveries, 1, "not yet checkpointed");
    }

    #[test]
    fn io_error_on_log_commit_does_not_lose_later_acked_commits() {
        let _guard = failpoint::test_guard();
        // The failed-fsync repro: epoch 2's append fails after its frame
        // reached the file, the server keeps running, the retried commit
        // reuses epoch 2, and two more commits are acknowledged. Recovery
        // must replay every acknowledged epoch and none of the aborted one.
        let root = temp_root("io-error");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::Always).unwrap();
        storage.log_commit(&insert(1, &["acked1"])).unwrap();
        failpoint::arm("wal.append.before_sync", FailAction::IoError);
        assert!(storage.log_commit(&insert(2, &["aborted"])).is_err());
        failpoint::clear_all();
        storage.log_commit(&insert(2, &["acked2"])).unwrap();
        storage.log_commit(&insert(3, &["acked3"])).unwrap();
        drop(storage);

        let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(recovered.tail, WalTail::Clean);
        assert_eq!(recovered.epoch, 3);
        assert_eq!(recovered.replayed, 3);
        for name in ["acked1", "acked2", "acked3"] {
            assert!(
                recovered.store.contains_atom(&Atom::fact("node", &[name])),
                "acknowledged commit {name} lost"
            );
        }
        assert!(
            !recovered
                .store
                .contains_atom(&Atom::fact("node", &["aborted"])),
            "aborted batch resurfaced"
        );
    }

    #[test]
    fn crash_between_segments_and_manifest_keeps_the_old_checkpoint() {
        let _guard = failpoint::test_guard();
        let root = temp_root("crash-manifest");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::default()).unwrap();
        let mut store = RelationalStore::new();
        store.insert_fact("node", &["a"]);
        store.freeze();
        storage.log_commit(&insert(1, &["a"])).unwrap();
        storage.checkpoint(&store, 1).unwrap();

        store.insert_fact("node", &["b"]);
        store.freeze();
        storage.log_commit(&insert(2, &["b"])).unwrap();
        failpoint::arm("manifest.write.before_rename", FailAction::Crash);
        assert!(storage.checkpoint(&store, 2).is_err());
        failpoint::clear_all();
        drop(storage);

        // Recovery: old manifest + WAL replay reproduce the full store, and
        // the orphaned epoch-2 segments are swept.
        let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert_eq!(recovered.epoch, 2);
        assert_eq!(recovered.store.len(), 2);
        assert_eq!(recovered.storage.state().checkpoint_epoch, 1);
        let seg_dir = recovered.storage.dir().join("segments");
        let files: Vec<_> = std::fs::read_dir(&seg_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, vec!["seg-1-0.seg"]);
    }

    #[test]
    fn recoveries_counter_persists_across_checkpoints() {
        let _guard = failpoint::test_guard();
        let root = temp_root("recoveries");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::default()).unwrap();
        storage.log_commit(&insert(1, &["a"])).unwrap();
        drop(storage);
        for expected in 1..=3u64 {
            let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
                .unwrap()
                .unwrap();
            assert_eq!(recovered.storage.state().recoveries, expected);
            // Checkpoint persists the counter for the next round.
            recovered
                .storage
                .checkpoint(&recovered.store, recovered.epoch)
                .unwrap();
        }
    }

    #[test]
    fn nulls_survive_recovery_verbatim() {
        let _guard = failpoint::test_guard();
        let root = temp_root("nulls");
        let storage = TenantStorage::create(&root, "t", "", FsyncPolicy::default()).unwrap();
        let atom = Atom {
            predicate: Predicate::new("knows", 2),
            terms: vec![
                Term::constant("alice"),
                Term::Null(ontorew_model::term::Null(99)),
            ],
        };
        storage
            .log_commit(&WalRecord {
                epoch: 1,
                kind: WalOpKind::Insert,
                facts: vec![atom.clone()],
            })
            .unwrap();
        drop(storage);
        let recovered = TenantStorage::open(&root, "t", FsyncPolicy::default())
            .unwrap()
            .unwrap();
        assert!(recovered.store.contains_atom(&atom), "null id preserved");
    }
}
