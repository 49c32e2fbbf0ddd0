//! Seeded randomness for the op streams: a SplitMix64 generator and a Zipf
//! sampler. Both are the benchmark's own (not the repo's `rand` stand-in), so
//! a change to the system under test can never change the generated load.

/// SplitMix64: tiny, fast, and every seed gives a full-period stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The generator of one client's stream of one workload: the three inputs
    /// are mixed so neighbouring seeds give unrelated streams.
    pub fn for_stream(seed: u64, workload: u64, client: u64) -> Self {
        let mut mixer = Rng(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(workload + 1));
        let a = mixer.next_u64();
        let mut mixer = Rng(a ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(client + 1));
        Rng(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent 1.0: rank `r` has mass proportional
/// to `1 / (r + 1)`. Sampling is a binary search over the cumulative table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Probability mass of the ranks `0..k`.
    #[cfg(test)]
    pub fn mass_below(&self, k: usize) -> f64 {
        match k {
            0 => 0.0,
            k => self.cdf[k.min(self.cdf.len()) - 1],
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A fixed bijection of `0..n` that scatters ranks, so the hot keys of a Zipf
/// draw are not the low-numbered (and structurally similar) entities. It does
/// not depend on the seed: every seed draws from the same distribution.
pub fn scatter(rank: usize, n: usize) -> usize {
    // 7919 is prime and shares no factor with any `n` used here (checked by
    // the tests), which makes the map a bijection.
    (rank * 7919 + 13) % n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_differs_across_seeds() {
        let take = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let (a, b, c) = (take(7), take(7), take(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_mass_matches_the_harmonic_law() {
        let z = Zipf::new(16_384);
        // H(4096) / H(16384) with H(n) ~ ln n + 0.5772.
        let expect = (4096f64.ln() + 0.5772) / (16_384f64.ln() + 0.5772);
        assert!((z.mass_below(4096) - expect).abs() < 0.002);
        assert!((z.mass_below(16_384) - 1.0).abs() < 1e-12);

        // Empirical mass of the top rank and of the top 10% of ranks.
        let z = Zipf::new(1000);
        let mut rng = Rng::new(42);
        let (mut top, mut head) = (0usize, 0usize);
        let draws = 200_000;
        for _ in 0..draws {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            top += (r == 0) as usize;
            head += (r < 100) as usize;
        }
        let top_share = top as f64 / draws as f64;
        let head_share = head as f64 / draws as f64;
        assert!((top_share - z.mass_below(1)).abs() < 0.005, "{top_share}");
        assert!(
            (head_share - z.mass_below(100)).abs() < 0.01,
            "{head_share}"
        );
    }

    #[test]
    fn scatter_is_a_bijection_on_every_population_used() {
        for n in [1000usize, 2500, 5000, 16_384] {
            let mut seen = vec![false; n];
            for rank in 0..n {
                let item = scatter(rank, n);
                assert!(!seen[item], "collision in {n}");
                seen[item] = true;
            }
        }
    }
}
