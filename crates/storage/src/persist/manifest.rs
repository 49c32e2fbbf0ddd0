//! The per-tenant manifest: the atomic pointer to a checkpoint.
//!
//! A manifest names the checkpoint epoch and the exact segment files that
//! reproduce the store at that epoch. Recovery loads the manifest, reads
//! the listed segments, then replays WAL records with a higher epoch.
//!
//! Updates are atomic: the new manifest is written to a temp file, synced,
//! then `rename(2)`d over the old one (and the directory synced) — a crash
//! leaves either the old checkpoint or the new one, never a mix. Because
//! the write is atomic, a manifest that fails to parse or checksum is a
//! **hard error**, not a recoverable tail.
//!
//! The format is line-oriented text (human-debuggable, like `ls` on the
//! data directory) with a trailing CRC line:
//!
//! ```text
//! ontorew-manifest v1
//! epoch 42
//! recoveries 3
//! segment seg-42-0.seg 20000 482113 9f1c2b3a
//! segment seg-42-1.seg 512 10240 00ff10ab
//! crc 5d41402a
//! ```

use super::failpoint;
use super::{crc32, sync_parent_dir};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// One segment file referenced by a manifest. The predicate it holds is
/// recorded inside the segment itself; the manifest keeps only what it
/// needs to locate and verify the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentEntry {
    /// File name relative to the tenant's `segments/` directory.
    pub file: String,
    /// Row count (a stats gauge; the segment header is authoritative).
    pub rows: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// The payload checksum the segment must match.
    pub crc: u32,
}

/// A tenant checkpoint: which epoch is fully captured on disk, and by
/// which segment files.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Every epoch `<= epoch` is captured by the segments; WAL records
    /// beyond it are replayed on recovery.
    pub epoch: u64,
    /// How many times this tenant has been recovered (survives restarts;
    /// the `recoveries` STATS gauge).
    pub recoveries: u64,
    /// The segment files, one per relation.
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    fn render(&self) -> String {
        let mut body = String::from("ontorew-manifest v1\n");
        body.push_str(&format!("epoch {}\n", self.epoch));
        body.push_str(&format!("recoveries {}\n", self.recoveries));
        for seg in &self.segments {
            body.push_str(&format!(
                "segment {} {} {} {:08x}\n",
                seg.file, seg.rows, seg.bytes, seg.crc
            ));
        }
        body
    }

    /// Atomically publish this manifest at `path` (write temp → fsync →
    /// rename → fsync dir).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let body = self.render();
        let text = format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
        let tmp = path.with_extension("tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        failpoint::check("manifest.write.before_rename")?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(())
    }

    /// Read the manifest at `path`. `Ok(None)` when the file does not exist
    /// (a tenant that has never checkpointed); a file that exists but fails
    /// to parse or checksum is a hard `InvalidData` error.
    pub fn read(path: &Path) -> io::Result<Option<Manifest>> {
        let mut text = String::new();
        match File::open(path) {
            Ok(mut file) => {
                file.read_to_string(&mut text)
                    .map_err(|_| bad("manifest is not valid UTF-8"))?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        let crc_line_start = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|i| i + 1)
            .ok_or_else(|| bad("manifest too short"))?;
        let (body, crc_line) = text.split_at(crc_line_start);
        let expected = crc_line
            .trim_end()
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("manifest missing crc line"))?;
        if crc32(body.as_bytes()) != expected {
            return Err(bad("manifest failed its checksum"));
        }

        let mut lines = body.lines();
        if lines.next() != Some("ontorew-manifest v1") {
            return Err(bad("manifest has unknown header"));
        }
        let mut manifest = Manifest::default();
        let mut saw_epoch = false;
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("epoch") => {
                    manifest.epoch = parse_u64(parts.next())?;
                    saw_epoch = true;
                }
                Some("recoveries") => manifest.recoveries = parse_u64(parts.next())?,
                Some("segment") => {
                    let file = parts.next().ok_or_else(|| bad("segment missing file"))?;
                    let rows = parse_u64(parts.next())?;
                    let bytes = parse_u64(parts.next())?;
                    let crc = parts
                        .next()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| bad("segment missing crc"))?;
                    manifest.segments.push(SegmentEntry {
                        file: file.to_string(),
                        rows,
                        bytes,
                        crc,
                    });
                }
                // Unknown keys are skipped so v1 readers tolerate additive
                // future fields; the crc already proved the bytes intact.
                Some(_) => {}
                None => {}
            }
        }
        if !saw_epoch {
            return Err(bad("manifest missing epoch"));
        }
        Ok(Some(manifest))
    }
}

fn parse_u64(field: Option<&str>) -> io::Result<u64> {
    field
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("manifest field is not a number"))
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_manifest(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-manifest-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("MANIFEST")
    }

    fn sample() -> Manifest {
        Manifest {
            epoch: 42,
            recoveries: 3,
            segments: vec![
                SegmentEntry {
                    file: "seg-42-0.seg".into(),
                    rows: 20_000,
                    bytes: 482_113,
                    crc: 0x9F1C_2B3A,
                },
                SegmentEntry {
                    file: "seg-42-1.seg".into(),
                    rows: 0,
                    bytes: 24,
                    crc: 0,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trip() {
        let _guard = failpoint::test_guard();
        let path = temp_manifest("roundtrip");
        let manifest = sample();
        manifest.write(&path).unwrap();
        assert_eq!(Manifest::read(&path).unwrap(), Some(manifest));
        // Overwrite is atomic and replaces cleanly.
        let newer = Manifest {
            epoch: 99,
            ..sample()
        };
        newer.write(&path).unwrap();
        assert_eq!(Manifest::read(&path).unwrap().unwrap().epoch, 99);
        // No stray temp file left behind.
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn absent_manifest_reads_as_none() {
        let path = temp_manifest("absent");
        assert_eq!(Manifest::read(&path).unwrap(), None);
    }

    #[test]
    fn corrupt_manifest_is_a_hard_error() {
        let _guard = failpoint::test_guard();
        let path = temp_manifest("corrupt");
        sample().write(&path).unwrap();
        let pristine = std::fs::read_to_string(&path).unwrap();
        // Flip a digit in the body: checksum catches it.
        let tampered = pristine.replacen("epoch 42", "epoch 43", 1);
        std::fs::write(&path, tampered).unwrap();
        assert!(Manifest::read(&path).is_err());
        // Strip the crc line entirely.
        let no_crc = pristine.lines().take(3).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, no_crc).unwrap();
        assert!(Manifest::read(&path).is_err());
        // Empty file.
        std::fs::write(&path, "").unwrap();
        assert!(Manifest::read(&path).is_err());
    }

    #[test]
    fn crash_before_rename_preserves_the_old_manifest() {
        let _guard = failpoint::test_guard();
        let path = temp_manifest("crash");
        let old = sample();
        old.write(&path).unwrap();
        failpoint::arm(
            "manifest.write.before_rename",
            super::super::FailAction::Crash,
        );
        let newer = Manifest {
            epoch: 100,
            ..sample()
        };
        assert!(newer.write(&path).is_err());
        failpoint::clear_all();
        assert_eq!(Manifest::read(&path).unwrap(), Some(old));
    }
}
