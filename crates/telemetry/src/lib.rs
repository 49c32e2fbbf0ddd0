//! Telemetry for the ontorew engine: a lock-light metrics registry
//! ([`metrics`]) and zero-cost-when-disabled span tracing ([`trace`]).
//!
//! Every engine layer (chase, rewrite, plan, storage, serve) records into
//! the process-global registry ([`metrics::global`]); the serve layer
//! exposes it on the wire as Prometheus text exposition (`METRICS` verb).
//! Request-scoped traces are collected per thread
//! ([`trace::install_collector`]) and land in a bounded ring
//! ([`trace::global_ring`]) for the `TRACE` toggle and the slow-query log.

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_bound, bucket_index, global as global_registry, Counter, Gauge, Histogram, LabelSet,
    MetricKind, Registry, Series, HISTOGRAM_BUCKETS,
};
pub use trace::{
    global_ring, install_collector, render_tree, span, take_collector, tracing_active,
    FinishedSpan, SpanGuard, Trace, TraceRing, TraceSink,
};
