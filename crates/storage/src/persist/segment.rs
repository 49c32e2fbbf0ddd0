//! Write-once on-disk segment files.
//!
//! A checkpoint spills each relation of the frozen store into one segment
//! file. Segments are immutable once written — a later checkpoint writes
//! *new* files and retires the old ones via the manifest, mirroring how the
//! in-memory store shares frozen `Arc` segments instead of mutating them.
//!
//! ## File format
//!
//! ```text
//! [4-byte magic "OSG1"][u32 payload-len][u32 crc32(payload)][payload]
//! payload = str predicate-name, u32 arity, u32 row-count,
//!           row-count × (arity × term)   (see persist::codec)
//! ```
//!
//! A segment that fails its magic, length or checksum is a **hard recovery
//! error** — unlike a torn WAL tail (which is expected after a crash and
//! safely dropped), a manifest-referenced segment was fully durable before
//! the manifest named it, so corruption means real data loss that must be
//! surfaced, never papered over.

use super::codec::{self, Cursor};
use super::failpoint;
use super::{crc32, sync_parent_dir};
use ontorew_model::prelude::*;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// The 4-byte segment file magic (version 1).
pub const SEGMENT_MAGIC: &[u8; 4] = b"OSG1";

/// Serialize one relation into the write-once segment file at `path`.
/// Returns `(rows, bytes, crc)` for the manifest entry. The file is synced
/// before returning; the caller syncs the parent directory when it
/// publishes the manifest.
///
/// A relation whose payload would exceed `codec::MAX_LEN` (256 MiB) is rejected
/// *before* anything touches disk — `read_segment` refuses any file past
/// that bound, so writing it would publish a manifest (and truncate the
/// WAL) pointing at a checkpoint the next restart can never load. The
/// error aborts the checkpoint; the previous manifest and the WAL stay
/// authoritative and the data remains recoverable.
pub fn write_segment<'a>(
    path: &Path,
    predicate: Predicate,
    rows: impl Iterator<Item = &'a Vec<Term>>,
) -> io::Result<(u64, u64, u32)> {
    write_segment_capped(path, predicate, rows, codec::MAX_LEN as usize)
}

/// [`write_segment`] with an explicit payload cap (tests exercise the
/// bound without building a 256 MiB relation).
fn write_segment_capped<'a>(
    path: &Path,
    predicate: Predicate,
    rows: impl Iterator<Item = &'a Vec<Term>>,
    max_payload: usize,
) -> io::Result<(u64, u64, u32)> {
    let oversized = |count: u32| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "relation {} exceeds the {max_payload}-byte segment cap ({count} rows in); \
                 aborting the checkpoint",
                predicate.name_str()
            ),
        )
    };
    let mut payload = Vec::new();
    codec::put_str(&mut payload, predicate.name_str());
    codec::put_u32(&mut payload, predicate.arity as u32);
    let count_at = payload.len();
    codec::put_u32(&mut payload, 0);
    if payload.len() > max_payload {
        return Err(oversized(0));
    }
    let mut count = 0u32;
    for row in rows {
        for term in row {
            codec::put_term(&mut payload, term)?;
        }
        count += 1;
        // Checked per row so an oversized relation fails early instead of
        // first materializing multi-gigabyte payloads (past 4 GiB the u32
        // length prefix would silently wrap).
        if payload.len() > max_payload {
            return Err(oversized(count));
        }
    }
    payload[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());

    let checksum = crc32(&payload);
    let mut frame = Vec::with_capacity(payload.len() + 12);
    frame.extend_from_slice(SEGMENT_MAGIC);
    codec::put_u32(&mut frame, payload.len() as u32);
    codec::put_u32(&mut frame, checksum);
    frame.extend_from_slice(&payload);

    // Write to a temp file and rename into place: a checkpoint that reuses
    // a file name (same epoch, e.g. after a failed first attempt) must
    // never truncate a segment the live manifest still references.
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    if let Some(torn) = failpoint::check("segment.write.before_write")? {
        let n = torn.min(frame.len());
        file.write_all(&frame[..n])?;
        let _ = file.sync_all();
        return Err(failpoint::torn_error("segment.write.before_write"));
    }
    file.write_all(&frame)?;
    failpoint::check("segment.write.before_sync")?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok((count as u64, frame.len() as u64, checksum))
}

/// Read and verify the segment file at `path`. `expected_crc` comes from
/// the manifest entry that referenced this file; any mismatch — magic,
/// length, checksum, or decode — is `InvalidData`.
pub fn read_segment(path: &Path, expected_crc: u32) -> io::Result<(Predicate, Vec<Vec<Term>>)> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < 12 || &data[..4] != SEGMENT_MAGIC {
        return Err(codec::corrupt("segment file has bad magic"));
    }
    let len = u32::from_le_bytes(data[4..8].try_into().unwrap());
    let checksum = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if len > codec::MAX_LEN || data.len() - 12 != len as usize {
        return Err(codec::corrupt("segment file has bad length"));
    }
    let payload = &data[12..];
    if crc32(payload) != checksum || checksum != expected_crc {
        return Err(codec::corrupt("segment file failed its checksum"));
    }
    let mut cursor = Cursor::new(payload);
    let name = cursor.str()?.to_string();
    let arity = cursor.u32()?;
    let rows_len = cursor.u32()?;
    if arity > codec::MAX_LEN || rows_len > codec::MAX_LEN {
        return Err(codec::corrupt("segment header out of range"));
    }
    let predicate = Predicate::new(&name, arity as usize);
    let mut rows = Vec::with_capacity(rows_len as usize);
    for _ in 0..rows_len {
        let mut row = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            row.push(cursor.term()?);
        }
        rows.push(row);
    }
    if !cursor.is_done() {
        return Err(codec::corrupt("trailing bytes in segment file"));
    }
    Ok((predicate, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_seg(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-seg-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.seg")
    }

    fn rows() -> Vec<Vec<Term>> {
        vec![
            vec![Term::constant("alice"), Term::constant("db101")],
            vec![
                Term::constant("bob"),
                Term::Null(ontorew_model::term::Null(7)),
            ],
        ]
    }

    #[test]
    fn segment_round_trip() {
        let _guard = failpoint::test_guard();
        let path = temp_seg("roundtrip");
        let predicate = Predicate::new("teaches", 2);
        let data = rows();
        let (count, bytes, crc) = write_segment(&path, predicate, data.iter()).unwrap();
        assert_eq!(count, 2);
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let (p, read) = read_segment(&path, crc).unwrap();
        assert_eq!(p, predicate);
        assert_eq!(read, data);
    }

    #[test]
    fn empty_relation_round_trips() {
        let _guard = failpoint::test_guard();
        let path = temp_seg("empty");
        let predicate = Predicate::new("lonely", 3);
        let empty: Vec<Vec<Term>> = Vec::new();
        let (count, _, crc) = write_segment(&path, predicate, empty.iter()).unwrap();
        assert_eq!(count, 0);
        let (p, read) = read_segment(&path, crc).unwrap();
        assert_eq!(p, predicate);
        assert!(read.is_empty());
    }

    #[test]
    fn corruption_is_a_hard_error() {
        let _guard = failpoint::test_guard();
        let path = temp_seg("corrupt");
        let data = rows();
        let (_, _, crc) = write_segment(&path, Predicate::new("r", 2), data.iter()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Flip any byte: magic, header or payload — all must be rejected.
        for idx in [0usize, 5, 9, 14, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[idx] ^= 0x5A;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_segment(&path, crc).is_err(), "flip at {idx} accepted");
        }
        // Truncation too.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        assert!(read_segment(&path, crc).is_err());
        // And a manifest/file checksum disagreement.
        std::fs::write(&path, &pristine).unwrap();
        assert!(read_segment(&path, crc ^ 1).is_err());
    }

    #[test]
    fn oversized_relation_aborts_the_checkpoint_before_touching_disk() {
        let _guard = failpoint::test_guard();
        // (The cap is exercised via write_segment_capped; the public entry
        // point runs the identical path with codec::MAX_LEN.)
        let path = temp_seg("oversize");
        let data = rows();
        let err = write_segment_capped(&path, Predicate::new("r", 2), data.iter(), 16).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("segment cap"), "{err}");
        // Nothing was written: no segment, no leftover temp file — the old
        // manifest and the WAL remain the authority.
        assert!(!path.exists());
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn torn_segment_write_fails_cleanly() {
        let _guard = failpoint::test_guard();
        let path = temp_seg("torn");
        failpoint::arm(
            "segment.write.before_write",
            super::super::FailAction::Torn(9),
        );
        let data = rows();
        assert!(write_segment(&path, Predicate::new("r", 2), data.iter()).is_err());
        failpoint::clear_all();
        // The partial file is unreadable garbage, as recovery would find it.
        assert!(read_segment(&path, 0).is_err());
    }
}
