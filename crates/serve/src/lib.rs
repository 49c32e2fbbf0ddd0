//! # ontorew-serve
//!
//! The serving layer: turns the rewriting-based query answering of the rest
//! of the workspace into a long-running, concurrent service.
//!
//! The paper's central point is that ontological query answering compiles
//! to cheap evaluation once the expensive per-query artifact — the plan,
//! with its UCQ rewriting or materialization strategy — has been built:
//! that compilation happens *once per query shape*, and everything after is
//! plain database work. This crate exploits exactly that split:
//!
//! * [`cache`] — a sharded LRU **prepared-plan cache** keyed by
//!   `(program fingerprint, query fingerprint)` (see
//!   [`ontorew_rewrite::fingerprint`]); α-renamed and atom-permuted variants
//!   of the same CQ hit the same entry, so repeat queries skip plan
//!   compilation entirely and go straight to execution — and because the
//!   program fingerprint is part of the key, one cache is shared across all
//!   tenants;
//! * [`snapshot`] — **snapshot-isolated stores**: readers evaluate against an
//!   immutable [`Snapshot`] behind an `Arc` while writers build the next
//!   epoch off to the side and publish it with an atomic pointer swap, so
//!   fact ingestion never blocks query traffic and no reader ever observes a
//!   half-applied batch;
//! * [`service`] — [`QueryService`], the embeddable engine combining the two
//!   (canonicalize → cache → execute the plan over a snapshot, with chase
//!   materializations cached per epoch by the `ontorew-plan` planner) with
//!   per-request latency and cache-hit [`metrics`];
//! * [`tenant`] — the **multi-tenant registry**: one server process hosts
//!   many ontologies (`TenantRegistry`), each tenant with its own planner
//!   and epoch store, all sharing the prepared-plan cache;
//! * [`server`] + [`proto`] — a thread-pool TCP server (no async runtime,
//!   plain `std` networking and threads) speaking a newline-delimited text
//!   protocol (`PREPARE`, `EXPLAIN`, `QUERY`, `INSERT`, `DELETE`, `WHY`,
//!   `WHY NOT`, `TENANT`, `STATS`, `METRICS`, `TRACE` — [`proto::VERBS`] is
//!   the canonical list, [`proto`] the reference), plus [`client`], the
//!   matching blocking client used by the bench load generator and the CI
//!   smoke test.
//!
//! ```
//! use ontorew_model::{parse_program, parse_query, Instance};
//! use ontorew_serve::{QueryService, ServiceConfig};
//!
//! let program = parse_program("[R1] student(X) -> person(X).").unwrap();
//! let mut store = Instance::new();
//! store.insert_fact("student", &["sara"]);
//! let service = QueryService::new(program, store, ServiceConfig::default());
//!
//! let q = parse_query("q(X) :- person(X)").unwrap();
//! let first = service.query(&q).unwrap();
//! assert_eq!(first.answers.len(), 1);
//! assert!(!first.cache_hit);
//! // An α-renamed variant of the same query is a cache hit.
//! let q2 = parse_query("q(Y) :- person(Y)").unwrap();
//! assert!(service.query(&q2).unwrap().cache_hit);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod durability;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod tenant;

pub use cache::{CacheConfig, CacheStats, ShardedCache, ShardedPlanCache, ShardedRewritingCache};
pub use client::{ClientError, ExplainReply, QueryReply, RetryPolicy, ServeClient};
pub use durability::{Compactor, CompactorConfig, CompactorStats};
pub use metrics::{LatencyStats, ServeMetrics};
pub use pool::ThreadPool;
pub use proto::{format_fact, parse_fact, parse_request, Request, VERBS};
pub use server::{serve, serve_registry, ServerConfig, ServerHandle};
pub use service::{
    FactExplanation, Prepared, ProvenanceStats, QueryResponse, QueryService, ServiceConfig,
    ServiceError, ServiceStats,
};
pub use snapshot::{CommitReceipt, EpochStore, Snapshot};
pub use tenant::{DurabilitySettings, TenantInfo, TenantRegistry, DEFAULT_TENANT};
