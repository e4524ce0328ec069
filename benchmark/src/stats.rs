//! Order statistics, the input digest and the seeded generator.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples when the count is even).
/// Sorts `values` in place. `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Consecutive operations of one kind whose median is one *window*.
pub const WINDOW: usize = 3;

/// The lowest median of `WINDOW` consecutive samples (of all of them
/// when there are fewer): what an operation takes while the host leaves
/// the benchmark alone. A shared host only ever adds time, and adds it
/// in stretches of a second or more, so a run's median moves with the
/// share of the run its neighbours were busy and its quietest window
/// does not. For a rate, pass the times per operation and invert.
/// `NaN` when empty.
pub fn quietest_window(samples: &[f64]) -> f64 {
    if samples.len() <= WINDOW {
        return median(&mut samples.to_vec());
    }
    samples
        .windows(WINDOW)
        .map(|w| median(&mut w.to_vec()))
        .fold(f64::INFINITY, f64::min)
}

/// The value a run reports for a host-timed metric: the best of its
/// passes, each of which reports its quietest window. `NaN` when no pass
/// measured it.
pub fn best_of_passes(per_pass: &[f64], higher_is_better: bool) -> f64 {
    let measured = per_pass.iter().copied().filter(|v| v.is_finite());
    if higher_is_better {
        measured.fold(f64::NAN, f64::max)
    } else {
        measured.fold(f64::NAN, f64::min)
    }
}

/// The tail a sample count supports: the highest of p90 / p99 / p99.9
/// with at least ten samples beyond it, as `(label, value)`. `None` when
/// even p90 has fewer (under 100 samples).
pub fn supported_tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    // Per mille and in integers: `100.0 * (1.0 - 0.9)` is just under 10.
    const TAILS: [(&str, usize); 3] = [("p99.9", 999), ("p99", 990), ("p90", 900)];
    let n = sorted.len();
    TAILS.iter().find_map(|(label, per_mille)| {
        let rank = (n * per_mille).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (*label, sorted[rank - 1]))
    })
}

/// Distance between the first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` places them (the driver's
/// measure of spread). Zero for fewer than two values.
pub fn interquartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    quartile(3) - quartile(1)
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over the generated inputs, so two runs can prove they
/// measured the same thing.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// SplitMix64. The benchmark owns its generator so that its inputs do
/// not move when the product's vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
        assert_eq!(supported_tail(&n(99)), None);
        assert_eq!(supported_tail(&n(100)).unwrap().0, "p90");
        assert_eq!(supported_tail(&n(999)).unwrap().0, "p90");
        assert_eq!(supported_tail(&n(1_000)).unwrap().0, "p99");
        assert_eq!(supported_tail(&n(9_999)).unwrap().0, "p99");
        assert_eq!(supported_tail(&n(10_000)).unwrap().0, "p99.9");
        assert_eq!(supported_tail(&n(1_000)).unwrap().1, 989.0);
    }

    #[test]
    fn quietest_window_is_the_lowest_median_of_three_in_a_row() {
        // A slow stretch, one freak fast sample in it, then a quiet one.
        let v = [9.0, 9.1, 2.0, 9.2, 9.0, 5.1, 5.0, 5.2, 5.3];
        assert_eq!(quietest_window(&v), 5.1);
        assert_eq!(quietest_window(&[4.0, 2.0]), 3.0);
        assert_eq!(quietest_window(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quietest_window(&[]).is_nan());
    }

    #[test]
    fn best_of_passes_follows_the_direction_and_skips_unmeasured() {
        let passes = [3.02, 2.98, f64::NAN, 3.90];
        assert_eq!(best_of_passes(&passes, false), 2.98);
        assert_eq!(best_of_passes(&passes, true), 3.90);
        assert_eq!(best_of_passes(&[5.0], false), 5.0);
        assert!(best_of_passes(&[], false).is_nan());
        assert!(best_of_passes(&[f64::NAN], true).is_nan());
    }

    #[test]
    fn interquartile_matches_python_statistics_quantiles() {
        assert_eq!(interquartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0); // [1.5, 3.0, 4.5]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(interquartile(&ten), 5.5); // [2.75, 5.5, 8.25]
        assert_eq!(interquartile(&[2.9, 3.0, 3.9]), 1.0);
        assert_eq!(interquartile(&[7.0]), 0.0);
    }

    #[test]
    fn generator_and_digest_are_stable() {
        let mut a = SplitMix64::new(3845);
        let mut b = SplitMix64::new(3845);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs[0], SplitMix64::new(3846).next_u64());
        let x = a.range(200.0, 300.0);
        assert!((200.0..300.0).contains(&x));
        // The published FNV-1a test vector for "a".
        let mut h = Fnv1a::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
