//! Per-core counter windows, model fitting, and prediction-error
//! tracking (the machinery behind the paper's Table 2).
//!
//! A sample is checked once on its way into a window: by
//! [`Predictor::push`] for callers that hand it raw counters, or by the
//! scheduler's `SampleValidator`, which checks that and more and then
//! uses the unchecked entry.

use fvs_model::{CounterDelta, CounterWindow, CpiModel, Estimator, FreqMhz, MemoryLatencies};
use serde::{Deserialize, Serialize};

/// The scheduler's view of one core's recent behaviour.
#[derive(Debug, Clone)]
pub struct Predictor {
    estimator: Estimator,
    windows: Vec<CounterWindow>,
    /// Last successfully fitted model per core.
    models: Vec<Option<CpiModel>>,
}

impl Predictor {
    /// Predictor for `n` cores with the platform's latency constants.
    pub fn new(n: usize, latencies: MemoryLatencies) -> Self {
        Predictor {
            estimator: Estimator::new(latencies),
            windows: vec![CounterWindow::new(); n],
            models: vec![None; n],
        }
    }

    /// Feed one dispatch-interval sample for core `i`. Corrupt samples
    /// (non-finite or negative counters — racy or wrapped reads on real
    /// hardware) are dropped rather than poisoning the window.
    pub fn push(&mut self, i: usize, delta: &CounterDelta) {
        if delta.is_sane() {
            self.push_sane(i, delta);
        }
    }

    /// [`Predictor::push`] for a sample the caller has already found
    /// [`CounterDelta::is_sane`] (the scheduler's validator checks that
    /// and more).
    #[inline]
    pub(crate) fn push_sane(&mut self, i: usize, delta: &CounterDelta) {
        self.windows[i].push(delta);
    }

    /// Close the scheduling window for core `i`: drain the accumulated
    /// counters, fit a model at the frequency the core ran (`freq`), and
    /// remember it. Returns the current best model (previous one if the
    /// new window was uninformative).
    pub fn refit(&mut self, i: usize, freq: FreqMhz) -> Option<CpiModel> {
        let total = self.windows[i].drain();
        if let Ok(m) = self.estimator.estimate(&total, freq) {
            self.models[i] = Some(m);
        }
        self.models[i]
    }

    /// The current model for core `i` without refitting.
    pub fn model(&self, i: usize) -> Option<CpiModel> {
        self.models[i]
    }

    /// Observed IPC over the *currently accumulating* window for core
    /// `i`, or `None` while the window is empty. Read this before
    /// [`Predictor::refit`] drains the window.
    pub fn window_ipc(&self, i: usize) -> Option<f64> {
        let total = self.windows[i].total();
        if total.cycles > 0.0 {
            Some(total.observed_ipc())
        } else {
            None
        }
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.models.len()
    }
}

/// Accumulates |predicted − observed| IPC deviations — Table 2's metric.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorStats {
    /// Number of (prediction, observation) pairs.
    pub count: u64,
    /// Sum of absolute deviations.
    pub sum_abs: f64,
    /// Sum of squared deviations.
    pub sum_sq: f64,
    /// Largest absolute deviation.
    pub max_abs: f64,
}

impl ErrorStats {
    /// Record one deviation.
    pub fn record(&mut self, deviation: f64) {
        let d = deviation.abs();
        self.count += 1;
        self.sum_abs += d;
        self.sum_sq += d * d;
        if d > self.max_abs {
            self.max_abs = d;
        }
    }

    /// Mean absolute deviation (0 when empty).
    pub fn mean_abs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    /// Root-mean-square deviation (0 when empty).
    pub fn rms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq / self.count as f64).sqrt()
        }
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.count += other.count;
        self.sum_abs += other.sum_abs;
        self.sum_sq += other.sum_sq;
        self.max_abs = self.max_abs.max(other.max_abs);
    }
}

/// Tracks, per core, the IPC the scheduler *predicted* for the frequency
/// it chose, and scores it against what the counters then *observed* —
/// with a parallel accumulator that excludes samples flagged as
/// init/termination phases (Table 2's `CPU3*` column).
#[derive(Debug, Clone)]
pub struct PredictionTracker {
    pending: Vec<Option<f64>>,
    all: Vec<ErrorStats>,
    steady: Vec<ErrorStats>,
}

impl PredictionTracker {
    /// Tracker for `n` cores.
    pub fn new(n: usize) -> Self {
        PredictionTracker {
            pending: vec![None; n],
            all: vec![ErrorStats::default(); n],
            steady: vec![ErrorStats::default(); n],
        }
    }

    /// Record that the scheduler predicted `ipc` for core `i`'s next
    /// window (None when it had no model).
    pub fn predict(&mut self, i: usize, ipc: Option<f64>) {
        self.pending[i] = ipc;
    }

    /// Score core `i`'s observed window IPC against the pending
    /// prediction. `transitional` marks windows that overlapped an
    /// init/exit phase (excluded from the steady-state accumulator).
    /// Non-finite observations (corrupt windows) consume the prediction
    /// without recording a deviation.
    pub fn observe(&mut self, i: usize, observed_ipc: f64, transitional: bool) {
        if let Some(predicted) = self.pending[i].take() {
            let dev = predicted - observed_ipc;
            if !dev.is_finite() {
                return;
            }
            self.all[i].record(dev);
            if !transitional {
                self.steady[i].record(dev);
            }
        }
    }

    /// All-samples deviation stats for core `i` (Table 2, CPU columns).
    pub fn stats(&self, i: usize) -> &ErrorStats {
        &self.all[i]
    }

    /// Steady-state-only stats (Table 2's starred column).
    pub fn steady_stats(&self, i: usize) -> &ErrorStats {
        &self.steady[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::counters::synthesize_delta;

    #[test]
    fn predictor_fits_after_informative_window() {
        let lat = MemoryLatencies::P630;
        let mut p = Predictor::new(2, lat);
        let truth = CpiModel::from_components(1.0, 4.0e-9);
        let delta = synthesize_delta(&truth, 0.0, 0.0, 4.0e-9 / 393.0e-9, 1.0e7, FreqMhz(1000));
        p.push(0, &delta);
        let m = p.refit(0, FreqMhz(1000)).unwrap();
        assert!((m.cpi0 - truth.cpi0).abs() < 1e-6);
        // Core 1 never fed: no model.
        assert!(p.refit(1, FreqMhz(1000)).is_none());
    }

    #[test]
    fn uninformative_window_keeps_previous_model() {
        let lat = MemoryLatencies::P630;
        let mut p = Predictor::new(1, lat);
        let truth = CpiModel::from_components(1.0, 0.0);
        let delta = synthesize_delta(&truth, 0.0, 0.0, 0.0, 1.0e7, FreqMhz(1000));
        p.push(0, &delta);
        let first = p.refit(0, FreqMhz(1000)).unwrap();
        // Empty window: refit returns the old model.
        let second = p.refit(0, FreqMhz(1000)).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn error_stats_accumulate() {
        let mut s = ErrorStats::default();
        s.record(0.01);
        s.record(-0.03);
        assert_eq!(s.count, 2);
        assert!((s.mean_abs() - 0.02).abs() < 1e-12);
        assert!((s.max_abs - 0.03).abs() < 1e-12);
        assert!(s.rms() > s.mean_abs() - 1e-12);
    }

    #[test]
    fn tracker_separates_steady_state() {
        let mut t = PredictionTracker::new(1);
        // Transitional window with a large error.
        t.predict(0, Some(1.0));
        t.observe(0, 0.5, true);
        // Steady window with a small error.
        t.predict(0, Some(1.0));
        t.observe(0, 0.99, false);
        assert_eq!(t.stats(0).count, 2);
        assert_eq!(t.steady_stats(0).count, 1);
        assert!(t.steady_stats(0).mean_abs() < 0.02);
        assert!(t.stats(0).mean_abs() > 0.2);
    }

    #[test]
    fn tracker_ignores_observation_without_prediction() {
        let mut t = PredictionTracker::new(1);
        t.observe(0, 1.0, false);
        assert_eq!(t.stats(0).count, 0);
        // And a prediction is consumed exactly once.
        t.predict(0, Some(1.0));
        t.observe(0, 1.0, false);
        t.observe(0, 1.0, false);
        assert_eq!(t.stats(0).count, 1);
    }
}
