//! The metrics registry: named counters, gauges, and log2 histograms with
//! label dimensions.
//!
//! Recording is lock-free once a series handle exists — every series is a
//! set of relaxed atomics behind an `Arc`, so hot paths cache the handle in
//! a `OnceLock` and never touch the registry again. Looking a series up
//! takes a read lock on the family map (shared, uncontended in steady
//! state); only the first observation of a new label set takes the write
//! lock.
//!
//! Histograms use fixed log2 buckets: bucket `i` counts observations with
//! value `<= 2^i` (`i = 0..=30`), and bucket 31 is the overflow (+Inf)
//! bucket. That makes recording one `fetch_add` with no tuning and no
//! sorting — replacing the sort-the-window latency ring the serve layer
//! used before — at the cost of quantiles rounded up to a power of two.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: 31 power-of-two bounds plus one +Inf bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (possibly negative) to the gauge.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Index of the log2 bucket that holds `v`: the smallest `i` with
/// `v <= 2^i`, capped at the overflow bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` (`u64::MAX` stands in for +Inf).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A fixed-bucket log2 histogram. All fields are relaxed atomics, so
/// concurrent writers never contend on a lock; readers see a near-point
/// snapshot (bucket counts and `sum` may be skewed by in-flight writes,
/// which is fine for monitoring).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation seen (exact, not bucket-rounded).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the bound of
    /// the first bucket whose cumulative count covers rank `ceil(q*count)`.
    /// Returns 0 when empty. The answer is rounded up to a power of two —
    /// the price of O(1) lock-free recording.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // Clamp the overflow bucket to the observed max so +Inf
                // never leaks into a report.
                return bucket_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Fold another histogram's contents into this one (used by readers
    /// that aggregate per-label series, e.g. a per-tenant rollup).
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..HISTOGRAM_BUCKETS {
            let c = other.buckets[i].load(Ordering::Relaxed);
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }
}

/// What a family measures — fixes the exposition syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (`_total` naming convention).
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log2 histogram (`_bucket`/`_sum`/`_count` exposition).
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One concrete series inside a family (one label combination).
#[derive(Clone, Debug)]
pub enum Series {
    /// A counter series.
    Counter(Arc<Counter>),
    /// A gauge series.
    Gauge(Arc<Gauge>),
    /// A histogram series.
    Histogram(Arc<Histogram>),
}

/// Sorted label set identifying a series within its family.
pub type LabelSet = Vec<(String, String)>;

struct Family {
    kind: MetricKind,
    help: &'static str,
    /// Divide raw integer values by this when rendering (1.0 = verbatim).
    /// Histograms recorded in microseconds use `1e6` so the exposition
    /// reads in seconds, per Prometheus convention.
    scale: f64,
    series: BTreeMap<LabelSet, Series>,
}

/// A named collection of metric families. One process-global instance
/// (`global()`) backs the engine; tests build private instances.
pub struct Registry {
    families: RwLock<BTreeMap<&'static str, Family>>,
    start: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

fn labels_key(labels: &[(&str, &str)]) -> LabelSet {
    let mut key: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry {
            families: RwLock::new(BTreeMap::new()),
            start: Instant::now(),
        }
    }

    /// Seconds since this registry was created (process uptime for the
    /// global registry).
    pub fn uptime_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    fn series(
        &self,
        name: &'static str,
        kind: MetricKind,
        help: &'static str,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> Series {
        let key = labels_key(labels);
        {
            let families = self.families.read();
            if let Some(family) = families.get(name) {
                assert_eq!(
                    family.kind, kind,
                    "metric family {name} registered twice with different kinds"
                );
                if let Some(series) = family.series.get(&key) {
                    return series.clone();
                }
            }
        }
        let mut families = self.families.write();
        let family = families.entry(name).or_insert_with(|| Family {
            kind,
            help,
            scale,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric family {name} registered twice with different kinds"
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Counter(Arc::new(Counter::default())),
                MetricKind::Gauge => Series::Gauge(Arc::new(Gauge::default())),
                MetricKind::Histogram => Series::Histogram(Arc::new(Histogram::new())),
            })
            .clone()
    }

    /// Get or create a counter series.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.series(name, MetricKind::Counter, help, 1.0, labels) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        match self.series(name, MetricKind::Gauge, help, 1.0, labels) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create a histogram series recording plain integer values
    /// (sizes, counts).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.series(name, MetricKind::Histogram, help, 1.0, labels) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Get or create a histogram series recording **microseconds**; the
    /// exposition divides by 1e6 so the family reads in seconds (name it
    /// `*_seconds`).
    pub fn histogram_us(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.series(name, MetricKind::Histogram, help, 1e6, labels) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Visit every series of the named family (used by `STATS` to build
    /// per-tenant rollups without parsing the exposition text).
    pub fn visit_family(&self, name: &str, mut f: impl FnMut(&LabelSet, &Series)) {
        let families = self.families.read();
        if let Some(family) = families.get(name) {
            for (labels, series) in &family.series {
                f(labels, series);
            }
        }
    }

    /// All distinct values of `label` across every series of the named
    /// family, in sorted order.
    pub fn label_values(&self, family: &str, label: &str) -> Vec<String> {
        let mut values = Vec::new();
        self.visit_family(family, |labels, _| {
            if let Some((_, v)) = labels.iter().find(|(k, _)| k == label) {
                if !values.contains(v) {
                    values.push(v.clone());
                }
            }
        });
        values.sort();
        values
    }

    /// Render the whole registry as Prometheus text exposition: one
    /// `# HELP` + `# TYPE` pair per family, then every series; histograms
    /// expand to cumulative `_bucket{le=...}` lines plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.families.read();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!(
                "# TYPE {name} {}\n",
                family.kind.exposition_name()
            ));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            c.get()
                        ));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(labels, None),
                            g.get()
                        ));
                    }
                    Series::Histogram(h) => {
                        render_histogram(&mut out, name, labels, h, family.scale);
                    }
                }
            }
        }
        out
    }
}

fn scale_value(v: u64, scale: f64) -> String {
    if scale == 1.0 {
        format!("{v}")
    } else {
        format!("{}", v as f64 / scale)
    }
}

fn render_labels(labels: &LabelSet, le: Option<String>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", prom_quote(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le={}", prom_quote(&le)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_quote(v: &str) -> String {
    format!(
        "\"{}\"",
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    )
}

fn render_histogram(out: &mut String, name: &str, labels: &LabelSet, h: &Histogram, scale: f64) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        // Skip interior empty buckets to keep the exposition small, but
        // always emit +Inf (required) and any bucket with mass below it.
        if cumulative == 0 && i < HISTOGRAM_BUCKETS - 1 {
            continue;
        }
        let le = if i >= HISTOGRAM_BUCKETS - 1 {
            "+Inf".to_string()
        } else if scale == 1.0 {
            format!("{}", bucket_bound(i))
        } else {
            format!("{}", bucket_bound(i) as f64 / scale)
        };
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            render_labels(labels, Some(le))
        ));
        if cumulative == h.count() && i < HISTOGRAM_BUCKETS - 1 {
            // All remaining buckets repeat the same cumulative value; jump
            // straight to +Inf.
            out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                render_labels(labels, Some("+Inf".to_string()))
            ));
            break;
        }
    }
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        render_labels(labels, None),
        scale_value(h.sum(), scale)
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        render_labels(labels, None),
        h.count()
    ));
}

/// The process-global registry every engine layer records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_index_matches_power_of_two_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value lands in the first bucket whose bound covers it.
        for v in [1u64, 2, 3, 7, 8, 9, 100, 1 << 20, (1 << 30) + 1] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "v={v} bound={}", bucket_bound(i));
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "v={v} not in earlier bucket");
            }
        }
    }

    #[test]
    fn histogram_quantiles_round_up_to_bucket_bounds() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // Rank 50 falls in the (32, 64] bucket; rank 99 in (64, 128], but
        // the overflow clamp keeps reports at the observed max ceiling.
        assert_eq!(h.quantile(0.50), 64);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), 100);
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(10);
        b.observe(1000);
        b.observe(2000);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 3010);
        assert_eq!(a.max(), 2000);
    }

    #[test]
    fn concurrent_writers_lose_no_observations() {
        let registry = Registry::new();
        let h = registry.histogram("t_hist", "test", &[]);
        let c = registry.counter("t_count", "test", &[]);
        thread::scope(|s| {
            for t in 0..8 {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                let registry = &registry;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(i % 100);
                        c.inc();
                        // Also exercise the lookup path concurrently.
                        registry
                            .counter("t_labeled", "test", &[("writer", &format!("w{t}"))])
                            .inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        assert_eq!(c.get(), 8000);
        let mut labeled_total = 0;
        registry.visit_family("t_labeled", |_, s| {
            if let Series::Counter(c) = s {
                labeled_total += c.get();
            }
        });
        assert_eq!(labeled_total, 8000);
        assert_eq!(registry.label_values("t_labeled", "writer").len(), 8);
    }

    #[test]
    fn same_labels_in_any_order_share_a_series() {
        let registry = Registry::new();
        let a = registry.counter("t_ab", "test", &[("a", "1"), ("b", "2")]);
        let b = registry.counter("t_ab", "test", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn prometheus_exposition_has_one_type_line_per_family() {
        let registry = Registry::new();
        registry
            .counter("req_total", "requests", &[("verb", "QUERY")])
            .add(3);
        registry
            .counter("req_total", "requests", &[("verb", "INSERT")])
            .add(1);
        registry.gauge("depth", "queue depth", &[]).set(-2);
        let h = registry.histogram_us("lat_seconds", "latency", &[]);
        h.observe(1_000_000);
        let text = registry.render_prometheus();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE depth gauge").count(), 1);
        assert_eq!(text.matches("# TYPE lat_seconds histogram").count(), 1);
        assert!(text.contains("req_total{verb=\"QUERY\"} 3"));
        assert!(text.contains("req_total{verb=\"INSERT\"} 1"));
        assert!(text.contains("depth -2"));
        // Micro-valued histogram renders in seconds.
        assert!(text.contains("lat_seconds_sum 1\n"), "{text}");
        assert!(text.contains("lat_seconds_count 1"));
        assert!(text.contains("le=\"+Inf\""));
    }
}
