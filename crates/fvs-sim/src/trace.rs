//! Trace recording: the time-series and residency data behind the
//! paper's Figures 5, 8, 9 and 10.

use fvs_model::FreqMhz;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One per-core trace record, emitted by the scheduling loop each
/// dispatch period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Simulation time (s).
    pub t_s: f64,
    /// Core index.
    pub core: usize,
    /// Frequency in effect.
    pub effective_mhz: u32,
    /// Frequency the scheduler most recently requested (post-budget).
    pub requested_mhz: u32,
    /// The ε-constrained "desired" frequency before the budget pass —
    /// Figure 9 plots desired vs. actual.
    pub desired_mhz: u32,
    /// IPC observed from the (noisy) counters over the last interval.
    pub observed_ipc: f64,
    /// Core power (W).
    pub power_w: f64,
    /// Current phase label.
    pub phase: String,
}

/// An append-only trace with query helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceRecorder {
    samples: Vec<TraceSample>,
}

impl TraceRecorder {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    pub fn push(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// All samples, in arrival order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Samples for one core.
    pub fn for_core(&self, core: usize) -> impl Iterator<Item = &TraceSample> {
        self.samples.iter().filter(move |s| s.core == core)
    }

    /// Samples within `[from_s, to_s)` — Figure 10 is a magnified time
    /// slice of Figure 9.
    pub fn window(&self, from_s: f64, to_s: f64) -> impl Iterator<Item = &TraceSample> {
        self.samples
            .iter()
            .filter(move |s| s.t_s >= from_s && s.t_s < to_s)
    }

    /// `(t, effective, desired)` series for a core — the Figure 9 data.
    pub fn frequency_series(&self, core: usize) -> Vec<(f64, u32, u32)> {
        self.for_core(core)
            .map(|s| (s.t_s, s.effective_mhz, s.desired_mhz))
            .collect()
    }

    /// Residency histogram of a core's *requested* frequencies weighted
    /// by sample spacing (assumes uniform sampling, which the scheduling
    /// loop guarantees).
    pub fn requested_residency(&self, core: usize) -> ResidencyHistogram {
        let mut h = ResidencyHistogram::new();
        for s in self.for_core(core) {
            h.add(FreqMhz(s.requested_mhz), 1.0);
        }
        h
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Time (or weight) spent at each frequency — the data behind Figure 8's
/// "percentage of time at each frequency" bars.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResidencyHistogram {
    weights: BTreeMap<u32, f64>,
    total: f64,
}

impl ResidencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `weight` (seconds, usually) at frequency `f`.
    pub fn add(&mut self, f: FreqMhz, weight: f64) {
        *self.weights.entry(f.0).or_insert(0.0) += weight;
        self.total += weight;
    }

    /// Fraction of total weight at exactly `f` (0.0 when empty).
    pub fn fraction_at(&self, f: FreqMhz) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.weights.get(&f.0).copied().unwrap_or(0.0) / self.total
    }

    /// Fraction of total weight at or above `f`.
    pub fn fraction_at_or_above(&self, f: FreqMhz) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.weights.range(f.0..).map(|(_, w)| *w).sum::<f64>() / self.total
    }

    /// The frequency with the greatest weight, if any.
    pub fn mode(&self) -> Option<FreqMhz> {
        self.weights
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(f, _)| FreqMhz(*f))
    }

    /// Weight-average frequency in MHz (0.0 when empty).
    pub fn mean_mhz(&self) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.weights
            .iter()
            .map(|(f, w)| f64::from(*f) * w)
            .sum::<f64>()
            / self.total
    }

    /// Iterate `(freq, fraction)` ascending by frequency.
    pub fn fractions(&self) -> impl Iterator<Item = (FreqMhz, f64)> + '_ {
        let total = self.total;
        self.weights
            .iter()
            .map(move |(f, w)| (FreqMhz(*f), if total > 0.0 { w / total } else { 0.0 }))
    }

    /// Total recorded weight.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ResidencyHistogram) {
        for (f, w) in &other.weights {
            *self.weights.entry(*f).or_insert(0.0) += w;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, core: usize, eff: u32, des: u32) -> TraceSample {
        TraceSample {
            t_s: t,
            core,
            effective_mhz: eff,
            requested_mhz: eff,
            desired_mhz: des,
            observed_ipc: 1.0,
            power_w: 100.0,
            phase: "p".to_string(),
        }
    }

    #[test]
    fn histogram_fractions() {
        let mut h = ResidencyHistogram::new();
        h.add(FreqMhz(1000), 3.0);
        h.add(FreqMhz(650), 1.0);
        assert!((h.fraction_at(FreqMhz(1000)) - 0.75).abs() < 1e-12);
        assert!((h.fraction_at(FreqMhz(650)) - 0.25).abs() < 1e-12);
        assert_eq!(h.fraction_at(FreqMhz(500)), 0.0);
        assert_eq!(h.mode(), Some(FreqMhz(1000)));
        assert!((h.mean_mhz() - 912.5).abs() < 1e-9);
        assert!((h.fraction_at_or_above(FreqMhz(700)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = ResidencyHistogram::new();
        assert_eq!(h.fraction_at(FreqMhz(1000)), 0.0);
        assert_eq!(h.mode(), None);
        assert_eq!(h.mean_mhz(), 0.0);
    }

    #[test]
    fn merge_sums_weights() {
        let mut a = ResidencyHistogram::new();
        a.add(FreqMhz(500), 1.0);
        let mut b = ResidencyHistogram::new();
        b.add(FreqMhz(500), 1.0);
        b.add(FreqMhz(1000), 2.0);
        a.merge(&b);
        assert!((a.fraction_at(FreqMhz(500)) - 0.5).abs() < 1e-12);
        assert_eq!(a.total(), 4.0);
    }

    #[test]
    fn trace_queries() {
        let mut t = TraceRecorder::new();
        for i in 0..10 {
            t.push(sample(i as f64 * 0.1, i % 2, 1000, 650));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.for_core(0).count(), 5);
        assert_eq!(t.window(0.2, 0.5).count(), 3);
        let series = t.frequency_series(1);
        assert_eq!(series.len(), 5);
        assert_eq!(series[0], (0.1, 1000, 650));
    }

    #[test]
    fn requested_residency_counts_samples() {
        let mut t = TraceRecorder::new();
        t.push(sample(0.0, 0, 1000, 1000));
        t.push(sample(0.1, 0, 650, 650));
        t.push(sample(0.2, 0, 650, 650));
        let h = t.requested_residency(0);
        assert!((h.fraction_at(FreqMhz(650)) - 2.0 / 3.0).abs() < 1e-12);
    }
}
