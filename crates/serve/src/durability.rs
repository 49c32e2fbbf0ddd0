//! The background compactor: checkpoints off the commit path.
//!
//! Commits only ever append to the tenant WAL — cheap and O(batch). Left
//! alone, the WAL grows without bound and recovery replay time grows with
//! it. The [`Compactor`] thread watches every durable tenant and, when a
//! tenant's WAL exceeds the configured threshold, checkpoints it: the
//! frozen store is spilled to fresh segment files (off the commit path —
//! commits keep flowing during the spill), the manifest is published, and
//! the WAL is truncated at the checkpoint. This also bounds the occasional
//! large in-memory LSM merge: the spill walks the already-frozen segments,
//! so the commit path never pays for it.
//!
//! The compactor is deliberately simple — one thread, polling — because
//! correctness never depends on it: a tenant that is never compacted just
//! has a longer WAL to replay. Every checkpoint failure is counted and
//! retried on the next sweep.

use crate::tenant::TenantRegistry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for the [`Compactor`].
#[derive(Clone, Copy, Debug)]
pub struct CompactorConfig {
    /// Checkpoint a tenant when its WAL exceeds this many bytes.
    pub wal_threshold_bytes: u64,
    /// How often to sweep the tenant list.
    pub interval: Duration,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        CompactorConfig {
            // 4 MiB of WAL ≈ tens of thousands of facts to replay: small
            // enough for sub-second recovery, large enough that steady
            // small-batch traffic is not checkpointing constantly.
            wal_threshold_bytes: 4 << 20,
            interval: Duration::from_millis(250),
        }
    }
}

/// Counters the compactor publishes (visible in server logs/tests).
#[derive(Debug, Default)]
pub struct CompactorStats {
    /// Checkpoints completed.
    pub checkpoints: AtomicU64,
    /// Checkpoint attempts that failed (retried on the next sweep).
    pub failures: AtomicU64,
}

/// Handle to the background compactor thread.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    stats: Arc<CompactorStats>,
    thread: Option<JoinHandle<()>>,
}

impl Compactor {
    /// Start a compactor sweeping `registry`'s durable tenants. If the
    /// registry is not durable the thread still runs, finds no WALs over
    /// threshold, and sleeps — harmless, but callers normally gate on
    /// [`TenantRegistry::durability`].
    pub fn start(registry: Arc<TenantRegistry>, config: CompactorConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(CompactorStats::default());
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("ontorew-compactor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        sweep(&registry, &config, &stats);
                        // Sleep in short slices so shutdown is prompt.
                        let mut remaining = config.interval;
                        while !stop.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                            let slice = remaining.min(Duration::from_millis(25));
                            std::thread::sleep(slice);
                            remaining = remaining.saturating_sub(slice);
                        }
                    }
                })
                .expect("spawn compactor thread")
        };
        Compactor {
            stop,
            stats,
            thread: Some(thread),
        }
    }

    /// The compactor's counters.
    pub fn stats(&self) -> &CompactorStats {
        &self.stats
    }

    /// Signal the thread to stop and join it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn sweep(registry: &TenantRegistry, config: &CompactorConfig, stats: &CompactorStats) {
    for service in registry.services() {
        let Some(storage) = service.durability() else {
            continue;
        };
        if storage.state().wal_bytes < config.wal_threshold_bytes {
            continue;
        }
        match service.checkpoint() {
            Ok(_) => {
                stats.checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                stats.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::tenant::DurabilitySettings;
    use ontorew_model::prelude::*;
    use ontorew_storage::FsyncPolicy;
    use std::path::PathBuf;

    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-compactor-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn compactor_checkpoints_when_the_wal_crosses_the_threshold() {
        let root = temp_root("threshold");
        let program = parse_program("[R1] node(X) -> seen(X).").unwrap();
        let registry = Arc::new(
            TenantRegistry::recover(
                program,
                Instance::new(),
                ServiceConfig::default(),
                DurabilitySettings {
                    root: root.clone(),
                    fsync: FsyncPolicy::Off,
                },
            )
            .unwrap(),
        );
        let service = registry.default_tenant();
        let compactor = Compactor::start(
            Arc::clone(&registry),
            CompactorConfig {
                wal_threshold_bytes: 256,
                interval: Duration::from_millis(10),
            },
        );
        // Push enough commits to cross 256 bytes of WAL.
        for i in 0..50 {
            service
                .insert_facts(&[Atom::fact("node", &[format!("n{i}").as_str()])])
                .unwrap();
        }
        // Wait for at least one checkpoint.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while compactor.stats().checkpoints.load(Ordering::Relaxed) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "compactor never checkpointed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        compactor.shutdown();
        let state = service.stats().durability;
        assert!(state.checkpoint_epoch > 0, "{state:?}");
        assert!(state.segments_on_disk > 0, "{state:?}");
        // Everything survives a recovery, including post-checkpoint commits.
        drop(registry);
        let program = parse_program("[R1] node(X) -> seen(X).").unwrap();
        let again = TenantRegistry::recover(
            program,
            Instance::new(),
            ServiceConfig::default(),
            DurabilitySettings {
                root,
                fsync: FsyncPolicy::Off,
            },
        )
        .unwrap();
        assert_eq!(again.default_tenant().snapshot().len(), 50);
        assert_eq!(again.default_tenant().snapshot().epoch(), 50);
    }
}
