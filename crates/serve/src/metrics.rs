//! Per-request service metrics: counters and latency percentiles.
//!
//! Latencies land in a lock-free log2 [`Histogram`] from `ontorew-telemetry`
//! — recording is one relaxed `fetch_add` per observation and `STATS` reads
//! a near-point snapshot without blocking writers. This replaces the old
//! sort-the-window ring, whose `latency_stats` cloned and sorted 16k
//! samples *under the recording mutex* on every `STATS` call. Percentiles
//! are now rounded up to a power of two (the histogram's bucket bounds);
//! `max` stays exact. Counters are plain relaxed atomics.

use ontorew_telemetry::Histogram;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Latency summary derived from the histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of recorded samples (all of them — no window).
    pub samples: usize,
    /// Median latency upper bound, microseconds (log2-bucket resolution).
    pub p50_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
    /// Maximum latency ever recorded, microseconds (exact).
    pub max_us: u64,
}

/// Counters and the latency histogram for one service instance.
pub struct ServeMetrics {
    /// `QUERY` requests served.
    pub queries: AtomicU64,
    /// `PREPARE` requests served.
    pub prepares: AtomicU64,
    /// `INSERT` requests served.
    pub inserts: AtomicU64,
    /// `DELETE` requests served (retraction epochs committed).
    pub deletes: AtomicU64,
    /// `WHY` / `WHY NOT` explanations served.
    pub whys: AtomicU64,
    /// Requests rejected with an error.
    pub errors: AtomicU64,
    latencies: Histogram,
    started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            queries: AtomicU64::new(0),
            prepares: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            whys: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latencies: Histogram::new(),
            started: Instant::now(),
        }
    }
}

impl ServeMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Record one request latency in microseconds. Lock-free.
    pub fn record_latency_us(&self, us: u64) {
        self.latencies.observe(us);
    }

    /// Percentile summary of everything recorded so far.
    pub fn latency_stats(&self) -> LatencyStats {
        let samples = self.latencies.count() as usize;
        if samples == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            samples,
            p50_us: self.latencies.quantile(0.50),
            p99_us: self.latencies.quantile(0.99),
            max_us: self.latencies.max(),
        }
    }

    /// Seconds since this service instance was created.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let m = ServeMetrics::new();
        assert_eq!(m.latency_stats(), LatencyStats::default());
    }

    #[test]
    fn percentiles_over_a_known_distribution() {
        let m = ServeMetrics::new();
        for us in 1..=100 {
            m.record_latency_us(us);
        }
        let stats = m.latency_stats();
        assert_eq!(stats.samples, 100);
        // Log2 buckets: the p50 rank lands in the (32, 64] bucket, so the
        // reported value is its upper bound; max stays exact and caps p99.
        assert_eq!(stats.p50_us, 64);
        assert_eq!(stats.p99_us, 100);
        assert_eq!(stats.max_us, 100);
    }

    #[test]
    fn histogram_never_forgets_the_max() {
        let m = ServeMetrics::new();
        for us in 0..20_000u64 {
            m.record_latency_us(us);
        }
        let stats = m.latency_stats();
        // No window: every sample is counted and the max is exact.
        assert_eq!(stats.samples, 20_000);
        assert_eq!(stats.max_us, 19_999);
    }

    #[test]
    fn counters_are_independent() {
        let m = ServeMetrics::new();
        m.queries.fetch_add(3, Ordering::Relaxed);
        m.errors.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.queries.load(Ordering::Relaxed), 3);
        assert_eq!(m.prepares.load(Ordering::Relaxed), 0);
        assert_eq!(m.errors.load(Ordering::Relaxed), 1);
    }
}
