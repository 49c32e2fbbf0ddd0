//! `ontorew-server`: stand-alone TCP query server.
//!
//! ```text
//! ontorew-server [--addr 127.0.0.1:7411] [--workers 8] [--students 1000]
//!                [--data-dir DIR] [--fsync always|every-N|off]
//!                [--slow-query-ms N] [--trace-ring N]
//! ```
//!
//! Serves the built-in university ontology (the E8/E12 workload) with a
//! synthetic ABox of `--students` students preloaded (0 for an empty store).
//! With `--data-dir`, tenants are durable: every commit is WAL-logged under
//! the directory before it is acknowledged, a background compactor
//! checkpoints tenants to on-disk segments, and a restart with the same
//! directory recovers every tenant (the persisted state then wins over the
//! `--students` seed). Prints `listening on <addr>` once ready — scripts
//! wait for that line — and runs until a client sends `SHUTDOWN`, at which
//! point in-flight connections are drained and all WALs are fsynced.

use ontorew_model::Instance;
use ontorew_serve::{
    serve, serve_registry, Compactor, CompactorConfig, DurabilitySettings, QueryService,
    ServerConfig, ServiceConfig, TenantRegistry,
};
use ontorew_storage::FsyncPolicy;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut workers = 8usize;
    let mut students = 1000usize;
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::default();
    let mut slow_query: Option<Duration> = None;
    let mut trace_ring = ServerConfig::default().trace_ring;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = take("--addr"),
            "--workers" => workers = take("--workers").parse().expect("--workers: not a number"),
            "--students" => {
                students = take("--students")
                    .parse()
                    .expect("--students: not a number")
            }
            "--data-dir" => data_dir = Some(PathBuf::from(take("--data-dir"))),
            "--slow-query-ms" => {
                let ms: u64 = take("--slow-query-ms")
                    .parse()
                    .expect("--slow-query-ms: not a number");
                slow_query = Some(Duration::from_millis(ms));
            }
            "--trace-ring" => {
                trace_ring = take("--trace-ring")
                    .parse()
                    .expect("--trace-ring: not a number")
            }
            "--fsync" => {
                fsync = take("--fsync")
                    .parse()
                    .expect("--fsync: want always, every-N, or off")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: ontorew-server [--addr HOST:PORT] [--workers N] [--students N] \
                     [--data-dir DIR] [--fsync always|every-N|off] [--slow-query-ms N] \
                     [--trace-ring N]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}; try --help");
                return ExitCode::FAILURE;
            }
        }
    }

    let program = ontorew_core::examples::university_ontology();
    let store = if students == 0 {
        Instance::new()
    } else {
        ontorew_workloads::university_abox(students, students / 10 + 1, students / 5 + 1, 17)
    };
    eprintln!(
        "university ontology: {} rules, {} seed facts",
        program.len(),
        store.len()
    );

    let config = ServerConfig {
        addr,
        workers,
        slow_query,
        trace_ring,
        ..Default::default()
    };
    let (handle, compactor) = match &data_dir {
        Some(root) => {
            let registry = match TenantRegistry::recover(
                program,
                store,
                ServiceConfig::default(),
                DurabilitySettings {
                    root: root.clone(),
                    fsync,
                },
            ) {
                Ok(registry) => Arc::new(registry),
                Err(e) => {
                    eprintln!("cannot recover data dir {}: {e}", root.display());
                    return ExitCode::FAILURE;
                }
            };
            for info in registry.list() {
                let tenant = registry.get(&info.name).expect("listed tenant exists");
                let snapshot = tenant.snapshot();
                let durability = tenant.stats().durability;
                eprintln!(
                    "tenant {}: epoch {}, {} facts, recovery #{} (fsync {})",
                    info.name,
                    snapshot.epoch(),
                    snapshot.len(),
                    durability.recoveries,
                    fsync
                );
            }
            let compactor = Compactor::start(Arc::clone(&registry), CompactorConfig::default());
            match serve_registry(registry, config) {
                Ok(handle) => (handle, Some(compactor)),
                Err(e) => {
                    eprintln!("cannot bind: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let service = Arc::new(QueryService::new(program, store, ServiceConfig::default()));
            match serve(service, config) {
                Ok(handle) => (handle, None),
                Err(e) => {
                    eprintln!("cannot bind: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    // Machine-readable readiness line (scripts/serve_smoke.sh waits for it);
    // flush explicitly because stdout is block-buffered under a pipe.
    println!("listening on {}", handle.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    handle.wait();
    let stats = handle.service().stats();
    eprintln!(
        "shutting down: {} queries, {} inserts, cache hit rate {:.1}%",
        stats.queries,
        stats.inserts,
        stats.cache.hit_rate() * 100.0
    );
    // Stop checkpointing first, then drain connections and fsync every WAL.
    if let Some(compactor) = compactor {
        compactor.shutdown();
    }
    handle.shutdown();
    ExitCode::SUCCESS
}
