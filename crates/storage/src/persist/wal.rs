//! The write-ahead log: checksummed, length-prefixed epoch records.
//!
//! One WAL file per tenant guards the mutable tail of the store. Every
//! committed epoch — an `INSERT` batch or a `DELETE` retraction — is
//! appended as one record *before* the epoch is published to readers, so a
//! crash after the append replays the batch on recovery and a crash before
//! it loses nothing that was ever acknowledged.
//!
//! ## Record frame
//!
//! ```text
//! [u32 payload-len][u32 crc32(payload)][payload]
//! payload = u64 epoch, u8 kind (0=insert, 1=delete), u32 count,
//!           count × atom (see persist::codec)
//! ```
//!
//! The checksum covers the whole batch, which is what makes replay
//! all-or-nothing: a record either applies completely or (when its frame is
//! torn, truncated or corrupted) is dropped **together with everything
//! after it** — a bad frame means the tail cannot be trusted, so recovery
//! stops there rather than resynchronize on garbage.

use super::codec::{self, Cursor};
use super::failpoint;
use super::{crc32, FsyncPolicy};
use ontorew_model::prelude::*;
use ontorew_telemetry::{global_registry, Counter, Histogram};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cached registry handles for the WAL hot path.
struct WalMetrics {
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    fsyncs: Arc<Histogram>,
    rollbacks: Arc<Counter>,
    poisoned: Arc<Counter>,
}

fn wal_metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global_registry();
        WalMetrics {
            appends: r.counter("wal_appends_total", "WAL records appended.", &[]),
            bytes: r.counter("wal_append_bytes_total", "Bytes appended to WALs.", &[]),
            fsyncs: r.histogram_us(
                "wal_fsync_seconds",
                "WAL fsync (sync_data) latency in seconds.",
                &[],
            ),
            rollbacks: r.counter(
                "wal_rollbacks_total",
                "Aborted appends rolled back by truncation.",
                &[],
            ),
            poisoned: r.counter(
                "wal_poisoned_total",
                "Times a WAL handle was poisoned (untrusted tail).",
                &[],
            ),
        }
    })
}

/// `sync_data` with its latency recorded into `wal_fsync_seconds`.
fn sync_data_timed(file: &File) -> io::Result<()> {
    let start = Instant::now();
    let result = file.sync_data();
    wal_metrics()
        .fsyncs
        .observe(start.elapsed().as_micros() as u64);
    result
}

/// What kind of mutation a WAL record carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOpKind {
    /// The batch was inserted as one epoch.
    Insert,
    /// The batch was retracted as one epoch.
    Delete,
}

/// One durable epoch: the batch that produced it, all-or-nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch this record published.
    pub epoch: u64,
    /// Insert or delete.
    pub kind: WalOpKind,
    /// The batch, verbatim.
    pub facts: Vec<Atom>,
}

impl WalRecord {
    /// Serialize the full frame (length prefix + checksum + payload).
    /// A batch whose payload would exceed `codec::MAX_LEN` (256 MiB) is rejected
    /// here — `read_wal` treats any frame past that bound as corrupt, so
    /// letting it reach the log would acknowledge a commit that recovery
    /// silently discards (together with the entire tail after it).
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        self.encode_capped(codec::MAX_LEN as usize)
    }

    /// [`encode`](WalRecord::encode) with an explicit payload cap (tests
    /// exercise the bound without building a 256 MiB batch).
    fn encode_capped(&self, max_payload: usize) -> io::Result<Vec<u8>> {
        let mut payload = Vec::with_capacity(64);
        codec::put_u64(&mut payload, self.epoch);
        payload.push(match self.kind {
            WalOpKind::Insert => 0,
            WalOpKind::Delete => 1,
        });
        codec::put_u32(&mut payload, self.facts.len() as u32);
        for fact in &self.facts {
            codec::put_atom(&mut payload, fact)?;
            if payload.len() > max_payload {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "WAL record payload exceeds the {max_payload}-byte cap; \
                         split the batch into smaller commits"
                    ),
                ));
            }
        }
        let mut frame = Vec::with_capacity(payload.len() + 8);
        codec::put_u32(&mut frame, payload.len() as u32);
        codec::put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        Ok(frame)
    }

    /// Decode one payload (after the frame passed its checksum).
    fn decode(payload: &[u8]) -> io::Result<WalRecord> {
        let mut cursor = Cursor::new(payload);
        let epoch = cursor.u64()?;
        let kind = match cursor.u8()? {
            0 => WalOpKind::Insert,
            1 => WalOpKind::Delete,
            _ => return Err(codec::corrupt("unknown WAL record kind")),
        };
        let count = cursor.u32()?;
        if count > codec::MAX_LEN {
            return Err(codec::corrupt("WAL batch size out of range"));
        }
        let mut facts = Vec::with_capacity(count as usize);
        for _ in 0..count {
            facts.push(cursor.atom()?);
        }
        if !cursor.is_done() {
            return Err(codec::corrupt("trailing bytes in WAL record"));
        }
        Ok(WalRecord { epoch, kind, facts })
    }
}

/// What `read_wal` found at the end of the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every frame decoded and checksummed cleanly.
    Clean,
    /// The last frame was cut short (crash mid-append): `dropped` bytes
    /// were discarded.
    Truncated {
        /// Bytes discarded from the tail.
        dropped: u64,
    },
    /// A frame failed its checksum or decoded to garbage: the frame and
    /// everything after it (`dropped` bytes) were discarded.
    Corrupt {
        /// Bytes discarded from the tail.
        dropped: u64,
    },
}

impl WalTail {
    /// Bytes of unusable tail that were discarded (0 when clean).
    pub fn dropped_bytes(&self) -> u64 {
        match self {
            WalTail::Clean => 0,
            WalTail::Truncated { dropped } | WalTail::Corrupt { dropped } => *dropped,
        }
    }
}

/// Read every intact record of the WAL at `path`, stopping (and reporting)
/// at the first torn, truncated or corrupt frame. Also enforces that record
/// epochs are strictly increasing — a decode that resynchronized onto
/// stale bytes would violate it.
pub fn read_wal(path: &Path) -> io::Result<(Vec<WalRecord>, WalTail)> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), WalTail::Clean));
        }
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut last_epoch = 0u64;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < 8 {
            return Ok((
                records,
                WalTail::Truncated {
                    dropped: remaining as u64,
                },
            ));
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let checksum = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > codec::MAX_LEN as usize {
            return Ok((
                records,
                WalTail::Corrupt {
                    dropped: remaining as u64,
                },
            ));
        }
        if remaining - 8 < len {
            return Ok((
                records,
                WalTail::Truncated {
                    dropped: remaining as u64,
                },
            ));
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != checksum {
            return Ok((
                records,
                WalTail::Corrupt {
                    dropped: remaining as u64,
                },
            ));
        }
        match WalRecord::decode(payload) {
            Ok(record) if record.epoch > last_epoch => {
                last_epoch = record.epoch;
                records.push(record);
                pos += 8 + len;
            }
            // A checksum-clean frame decoding to garbage (or a non-monotone
            // epoch) means we are not looking at a real record boundary.
            _ => {
                return Ok((
                    records,
                    WalTail::Corrupt {
                        dropped: remaining as u64,
                    },
                ));
            }
        }
    }
    Ok((records, WalTail::Clean))
}

/// The append handle: owns the open file and the fsync cadence. Appends are
/// serialized by the caller (the epoch store's writer lock); the handle
/// itself is `Send` so a background compactor can rewrite it.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    bytes: u64,
    appends_since_sync: u32,
    /// Set when the log's tail can no longer be trusted: a failed append
    /// left bytes on disk and the rollback that would have removed them
    /// also failed (or a simulated crash deliberately left them there).
    /// Every later append and sync refuses until the file is rewritten
    /// from its intact records ([`Wal::truncate_through`]) or reopened via
    /// recovery — committing on top of a broken tail would hand recovery a
    /// frame it must misclassify as corrupt, discarding acknowledged data.
    poisoned: Option<String>,
}

impl Wal {
    /// Open (or create) the WAL at `path` for appending.
    pub fn open(path: &Path, policy: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            policy,
            bytes,
            appends_since_sync: 0,
            poisoned: None,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current size of the log in bytes (the `wal_bytes` STATS gauge and
    /// the compactor's checkpoint trigger).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The fsync cadence this log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Append one record, then apply the fsync policy. Returns the new log
    /// size. On any error the record must be considered not durable (the
    /// caller aborts the commit) — and the log is guaranteed to hold **no
    /// trace of the aborted frame**: a failed write or fsync is rolled back
    /// by truncating the file to the pre-append offset, so the caller may
    /// retry (reusing the aborted epoch number) or keep committing later
    /// epochs. Without the rollback, recovery would replay the aborted
    /// batch and then misclassify the retried epoch's frame as corrupt,
    /// discarding every acknowledged commit after it. If the rollback
    /// itself fails the handle is poisoned: all further appends refuse
    /// until the tail is rewritten or the tenant is recovered.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        if let Some(reason) = &self.poisoned {
            return Err(io::Error::other(format!(
                "WAL is poisoned ({reason}); recover the tenant before committing"
            )));
        }
        let frame = record.encode()?;
        if let Some(torn) = failpoint::check("wal.append.before_write")? {
            // Simulate a torn write: a prefix of the frame reaches the
            // file, then the "process dies". A dead process cannot roll
            // back, so the torn bytes stay on disk for recovery to find —
            // and the handle is poisoned so a test that keeps driving it
            // cannot publish epochs on top of the broken tail.
            let n = torn.min(frame.len());
            let _ = self.file.write_all(&frame[..n]);
            let _ = self.file.sync_data();
            self.bytes += n as u64;
            self.poisoned = Some("simulated torn append".to_string());
            wal_metrics().poisoned.inc();
            return Err(failpoint::torn_error("wal.append.before_write"));
        }
        let start = self.bytes;
        match self.write_and_sync(&frame) {
            Ok(()) => {
                self.bytes += frame.len() as u64;
                let metrics = wal_metrics();
                metrics.appends.inc();
                metrics.bytes.add(frame.len() as u64);
                Ok(self.bytes)
            }
            Err(e) if failpoint::is_simulated_crash(&e) => {
                // Simulated kill -9 after the write: the complete frame
                // stays on disk (the at-least-once window crash tests
                // exercise), and the notionally-dead handle refuses
                // further work.
                self.poisoned = Some(format!("simulated crash: {e}"));
                wal_metrics().poisoned.inc();
                Err(e)
            }
            Err(e) => {
                // A real I/O failure (ENOSPC mid-write, failed fsync) with
                // the process still running: an unknown prefix of the
                // frame — possibly all of it — may be on disk. Truncate
                // back to the last acknowledged record so the aborted
                // epoch leaves no trace.
                match self.rollback_to(start) {
                    Ok(()) => wal_metrics().rollbacks.inc(),
                    Err(rollback) => {
                        self.poisoned = Some(format!(
                            "failed append could not be rolled back: {rollback}"
                        ));
                        wal_metrics().poisoned.inc();
                    }
                }
                Err(e)
            }
        }
    }

    /// Write one encoded frame and apply the fsync cadence. Does not touch
    /// `self.bytes`; the caller accounts for it on success.
    fn write_and_sync(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)?;
        failpoint::check("wal.append.before_sync")?;
        match self.policy {
            FsyncPolicy::Always => sync_data_timed(&self.file)?,
            FsyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n {
                    sync_data_timed(&self.file)?;
                    self.appends_since_sync = 0;
                }
            }
            FsyncPolicy::Off => {}
        }
        Ok(())
    }

    /// Restore the log to exactly `len` bytes after a failed append, and
    /// sync the truncation so the discarded suffix cannot resurface.
    fn rollback_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Force everything appended so far to stable storage (graceful
    /// shutdown and checkpoint use this regardless of policy).
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(reason) = &self.poisoned {
            return Err(io::Error::other(format!(
                "WAL is poisoned ({reason}); refusing to sync an untrusted tail"
            )));
        }
        sync_data_timed(&self.file)?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Drop every record with `epoch <= through_epoch` (they are covered by
    /// a checkpoint) by rewriting the retained suffix and atomically
    /// swapping it in. Called by the compactor after a successful manifest
    /// publish, off the commit path but under the same writer serialization.
    pub fn truncate_through(&mut self, through_epoch: u64) -> io::Result<u64> {
        failpoint::check("wal.truncate.before_rewrite")?;
        let (records, _tail) = read_wal(&self.path)?;
        let mut retained = Vec::new();
        for record in records.iter().filter(|r| r.epoch > through_epoch) {
            retained.extend_from_slice(&record.encode()?);
        }
        let tmp = self.path.with_extension("tmp");
        {
            let mut out = File::create(&tmp)?;
            out.write_all(&retained)?;
            out.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        super::sync_parent_dir(&self.path)?;
        // Reopen the handle onto the new file (the old descriptor points at
        // the unlinked inode).
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.bytes = retained.len() as u64;
        self.appends_since_sync = 0;
        // The rewrite kept only intact records, so a previously poisoned
        // tail (e.g. a rollback that failed) has been healed.
        self.poisoned = None;
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::failpoint::FailAction;
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-wal-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn record(epoch: u64, kind: WalOpKind, names: &[&str]) -> WalRecord {
        WalRecord {
            epoch,
            kind,
            facts: names.iter().map(|n| Atom::fact("r", &[n])).collect(),
        }
    }

    #[test]
    fn append_and_read_round_trip() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("roundtrip");
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        let r1 = record(1, WalOpKind::Insert, &["a", "b"]);
        let r2 = record(2, WalOpKind::Delete, &["a"]);
        let r3 = record(3, WalOpKind::Insert, &[]);
        wal.append(&r1).unwrap();
        wal.append(&r2).unwrap();
        let bytes = wal.append(&r3).unwrap();
        assert_eq!(bytes, wal.bytes());
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(records, vec![r1, r2, r3]);
        assert_eq!(tail, WalTail::Clean);
    }

    #[test]
    fn missing_wal_reads_as_empty() {
        let path = temp_wal("missing");
        let (records, tail) = read_wal(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(tail, WalTail::Clean);
    }

    #[test]
    fn truncated_tail_is_dropped_not_propagated() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("truncated");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(&record(1, WalOpKind::Insert, &["a"])).unwrap();
        wal.append(&record(2, WalOpKind::Insert, &["b"])).unwrap();
        drop(wal);
        // Cut the file mid-way through the second frame.
        let data = std::fs::read(&path).unwrap();
        for cut in [data.len() - 1, data.len() - 5, data.len() - 9] {
            std::fs::write(&path, &data[..cut]).unwrap();
            let (records, tail) = read_wal(&path).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(records[0].epoch, 1);
            assert!(
                matches!(tail, WalTail::Truncated { dropped } if dropped > 0)
                    || matches!(tail, WalTail::Corrupt { dropped } if dropped > 0),
                "cut at {cut}: {tail:?}"
            );
        }
    }

    #[test]
    fn corrupt_frame_is_detected_by_checksum() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("corrupt");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(&record(1, WalOpKind::Insert, &["a"])).unwrap();
        let second_start = wal.bytes() as usize;
        wal.append(&record(2, WalOpKind::Insert, &["b"])).unwrap();
        drop(wal);
        // Flip one payload byte of the second record.
        let mut data = std::fs::read(&path).unwrap();
        let idx = second_start + 12;
        data[idx] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(tail, WalTail::Corrupt { .. }), "{tail:?}");
    }

    #[test]
    fn bit_flips_anywhere_in_the_tail_never_surface_a_half_applied_epoch() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("fuzz");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        for epoch in 1..=5u64 {
            wal.append(&record(
                epoch,
                WalOpKind::Insert,
                &[format!("c{epoch}").as_str()],
            ))
            .unwrap();
        }
        drop(wal);
        let pristine = std::fs::read(&path).unwrap();
        let (clean, _) = read_wal(&path).unwrap();
        assert_eq!(clean.len(), 5);
        for idx in 0..pristine.len() {
            let mut data = pristine.clone();
            data[idx] ^= 0x5A;
            std::fs::write(&path, &data).unwrap();
            let (records, _tail) = read_wal(&path).unwrap();
            // Every surviving record must be byte-identical to a clean
            // prefix — a flipped byte can only shorten the replay, never
            // change or tear a batch.
            assert!(records.len() <= clean.len(), "flip at {idx}");
            assert_eq!(
                records.as_slice(),
                &clean[..records.len()],
                "flip at {idx} changed a record"
            );
        }
    }

    #[test]
    fn truncate_through_drops_checkpointed_records() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("truncate-through");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        for epoch in 1..=4u64 {
            wal.append(&record(epoch, WalOpKind::Insert, &["x"]))
                .unwrap();
        }
        let bytes = wal.truncate_through(2).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Appends continue on the rewritten file.
        wal.append(&record(5, WalOpKind::Delete, &["x"])).unwrap();
        let (records, _) = read_wal(&path).unwrap();
        assert_eq!(records.last().unwrap().epoch, 5);
    }

    #[test]
    fn failpoint_simulates_a_torn_append() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("failpoint");
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(&record(1, WalOpKind::Insert, &["a"])).unwrap();
        failpoint::arm("wal.append.before_write", FailAction::Torn(6));
        let err = wal
            .append(&record(2, WalOpKind::Insert, &["b"]))
            .unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
        failpoint::clear_all();
        // The "dead" handle refuses further appends — committing on top of
        // the torn tail would be lost by the next recovery.
        let err = wal
            .append(&record(3, WalOpKind::Insert, &["c"]))
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(wal.sync().is_err());
        // Recovery sees the intact first record and drops the torn tail.
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(tail.dropped_bytes() > 0, "{tail:?}");
    }

    #[test]
    fn io_error_during_append_rolls_back_so_retried_epochs_survive() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("io-error");
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(&record(1, WalOpKind::Insert, &["acked1"]))
            .unwrap();
        let before = wal.bytes();
        // The frame reaches the file in full, then the fsync fails — and
        // the process keeps running.
        failpoint::arm("wal.append.before_sync", FailAction::IoError);
        let err = wal
            .append(&record(2, WalOpKind::Insert, &["aborted"]))
            .unwrap_err();
        assert!(err.to_string().contains("injected io error"), "{err}");
        failpoint::clear_all();
        // The aborted frame was truncated away: the log is byte-identical
        // to before the failed append.
        assert_eq!(wal.bytes(), before);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        // The caller retries with the SAME epoch number, then keeps
        // committing — recovery must see every acknowledged record.
        wal.append(&record(2, WalOpKind::Insert, &["acked2"]))
            .unwrap();
        wal.append(&record(3, WalOpKind::Insert, &["acked3"]))
            .unwrap();
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(
            records[1].facts,
            vec![Atom::fact("r", &["acked2"])],
            "the aborted batch must not resurface"
        );
    }

    #[test]
    fn simulated_crash_after_the_write_keeps_the_frame_and_poisons_the_handle() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("crash-after-write");
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(&record(1, WalOpKind::Insert, &["a"])).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        failpoint::arm("wal.append.before_sync", FailAction::Crash);
        assert!(wal.append(&record(2, WalOpKind::Insert, &["b"])).is_err());
        failpoint::clear_all();
        // A kill -9 after write(2) leaves the complete frame on disk (the
        // at-least-once window): no rollback may hide it from recovery.
        assert!(std::fs::metadata(&path).unwrap().len() > before);
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 2);
        // And the notionally-dead handle refuses to keep committing.
        let err = wal
            .append(&record(3, WalOpKind::Insert, &["c"]))
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
    }

    #[test]
    fn truncate_through_heals_a_poisoned_wal() {
        let _guard = failpoint::test_guard();
        let path = temp_wal("heal");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(&record(1, WalOpKind::Insert, &["a"])).unwrap();
        wal.append(&record(2, WalOpKind::Insert, &["b"])).unwrap();
        failpoint::arm("wal.append.before_write", FailAction::Torn(5));
        assert!(wal.append(&record(3, WalOpKind::Insert, &["c"])).is_err());
        failpoint::clear_all();
        assert!(wal.append(&record(3, WalOpKind::Insert, &["c"])).is_err());
        // Rewriting the log from its intact records restores the invariant
        // (the torn suffix is dropped) and un-poisons the handle.
        wal.truncate_through(1).unwrap();
        wal.append(&record(3, WalOpKind::Insert, &["c"])).unwrap();
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn oversized_batches_are_rejected_at_encode_time() {
        let _guard = failpoint::test_guard();
        // A batch whose payload exceeds the cap fails with InvalidInput —
        // append() calls encode() first, so the commit aborts before a
        // single byte reaches the file. (The cap is exercised via
        // encode_capped; building a real 256 MiB batch would be all cost,
        // no extra coverage — the code path is identical.)
        let record = record(1, WalOpKind::Insert, &["aa", "bb"]);
        let err = record.encode_capped(16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("split the batch"), "{err}");
        // The real cap accepts ordinary batches, and what encode() accepts
        // read_wal always replays (the frame stays under its MAX_LEN
        // corruption bound).
        let frame = record.encode().unwrap();
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        assert!(len <= codec::MAX_LEN);
    }
}
