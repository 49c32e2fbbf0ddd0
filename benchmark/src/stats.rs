//! Order statistics over latency samples, the segmented tail percentile the
//! benchmark reports as `query_p99_us`, and the answer hash the oracles use.

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 50.0)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// How many equal segments a measured window is cut into for the tail.
pub const SEGMENTS: usize = 10;
/// A p99 is only taken from a segment holding at least this many samples
/// (ten samples beyond the percentile).
pub const SEGMENT_MIN_SAMPLES: usize = 1000;

/// The tail latency of one window, with what it actually is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: u64,
    /// The percentile reported: 99 when every segment is full enough.
    pub percentile: f64,
    /// True when `value` is the median of the per-segment percentiles; false
    /// when it is one percentile of the whole window.
    pub segmented: bool,
    pub samples: usize,
}

/// The tail of `(offset into the window, latency)` samples over a window of
/// `window` time units.
///
/// When each of the ten equal segments has at least 1000 samples, the tail is
/// the median of the segments' p99s: one slow second cannot move it. Short of
/// that, it is the whole window's `fallback` percentile, stepped down (95,
/// 90, 75, 50) until ten samples lie beyond it. `fallback` is fixed per
/// workload rather than derived from the sample count, so that a count near a
/// threshold cannot flip the reported percentile between two runs.
pub fn tail(samples: &[(u64, u64)], window: u64, fallback: f64) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut segments: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    for &(at, latency) in samples {
        let index = (at as u128 * SEGMENTS as u128 / window.max(1) as u128) as usize;
        segments[index.min(SEGMENTS - 1)].push(latency);
    }
    if segments.iter().all(|s| s.len() >= SEGMENT_MIN_SAMPLES) {
        let mut per_segment: Vec<u64> = segments
            .iter_mut()
            .map(|s| {
                s.sort_unstable();
                percentile(s, 99.0)
            })
            .collect();
        return Tail {
            value: median_u64(&mut per_segment),
            percentile: 99.0,
            segmented: true,
            samples: samples.len(),
        };
    }
    let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
    all.sort_unstable();
    let chosen = [fallback, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|p| *p <= fallback)
        .find(|p| (all.len() as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Tail {
        value: percentile(&all, chosen),
        percentile: chosen,
        segmented: false,
        samples: all.len(),
    }
}

/// The spread the benchmark contract uses: inter-quartile distance as a share
/// of the median (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n >= 2, "spread needs two values");
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (quantile(3) - quantile(1)) / median_f64(&mut v)
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// What an oracle knows about a query's answer: how many rows, and a hash of
/// the row multiset. The hash adds up per-row hashes, so it does not depend
/// on row order and neither side has to sort.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Answer {
    pub count: usize,
    pub hash: u64,
}

impl Answer {
    pub fn of_rows<R, C>(rows: impl IntoIterator<Item = R>) -> Answer
    where
        R: IntoIterator<Item = C>,
        C: AsRef<str>,
    {
        let mut answer = Answer::default();
        for row in rows {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for cell in row {
                h = fnv1a(cell.as_ref().as_bytes(), h);
                h = fnv1a(&[0x1F], h);
            }
            answer.count += 1;
            answer.hash = answer.hash.wrapping_add(h);
        }
        answer
    }
}

/// FNV-1a of a text, for pinning generated op streams in tests.
#[cfg(test)]
pub fn hash_text(text: &str, seed: u64) -> u64 {
    fnv1a(text.as_bytes(), seed ^ 0xCBF2_9CE4_8422_2325)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn segmented_p99_is_the_median_of_segment_p99s() {
        // Ten segments of 1000 samples; segment k has latencies 1..=1000
        // scaled by (k + 1), so its p99 is 990 * (k + 1).
        let mut samples = Vec::new();
        for k in 0..10u64 {
            for i in 0..1000u64 {
                samples.push((k * 100 + i / 10, (i + 1) * (k + 1)));
            }
        }
        let t = tail(&samples, 1000, 95.0);
        assert!(t.segmented);
        assert_eq!(t.percentile, 99.0);
        // Median (nearest rank) of 990, 1980, ..., 9900 is the 5th: 4950.
        assert_eq!(t.value, 4950);
        assert_eq!(t.samples, 10_000);

        // One pathological segment does not move the median.
        for s in samples.iter_mut().filter(|s| s.0 >= 900) {
            s.1 *= 1000;
        }
        assert_eq!(tail(&samples, 1000, 95.0).value, 4950);
    }

    #[test]
    fn thin_windows_fall_back_to_a_whole_window_percentile() {
        let samples: Vec<(u64, u64)> = (0..400u64).map(|i| (i, i + 1)).collect();
        let t = tail(&samples, 400, 95.0);
        assert!(!t.segmented);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 380);
        // 60 samples leave only 3 beyond p95 and 6 beyond p90: step to p75.
        let few: Vec<(u64, u64)> = (0..60u64).map(|i| (i, i + 1)).collect();
        let t = tail(&few, 60, 95.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 45);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn answer_hash_ignores_row_order_but_not_content() {
        let a = Answer::of_rows([vec!["x", "y"], vec!["z", "w"]]);
        let b = Answer::of_rows([vec!["z", "w"], vec!["x", "y"]]);
        let c = Answer::of_rows([vec!["x", "y"], vec!["z", "v"]]);
        let d = Answer::of_rows([vec!["xy", ""], vec!["z", "w"]]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.count, 2);
    }
}
