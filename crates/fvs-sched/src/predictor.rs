//! Per-core counter windows, model fitting, and prediction-error
//! tracking (the machinery behind the paper's Table 2).
//!
//! A sample is checked once, on its way into a window, by one predicate
//! that [`Predictor::push`] (a core at a time) and
//! [`Predictor::push_all`] (a tick's buffer) share: one rule for an
//! SMP's scheduler and a cluster node alike, the first rung of the
//! degradation ladder (DESIGN.md §11).

use fvs_model::{CounterDelta, CounterWindow, CpiModel, Estimator, FreqMhz, MemoryLatencies};
use serde::{Deserialize, Serialize};

/// The scheduler's view of one core's recent behaviour.
#[derive(Debug, Clone)]
pub struct Predictor {
    estimator: Estimator,
    windows: Vec<CounterWindow>,
    /// Last successfully fitted model per core.
    models: Vec<Option<CpiModel>>,
    /// [`Predictor::push_all`]'s verdicts, reused across ticks.
    admitted: Vec<bool>,
}

impl Predictor {
    /// Predictor for `n` cores with the platform's latency constants.
    pub fn new(n: usize, latencies: MemoryLatencies) -> Self {
        Predictor {
            estimator: Estimator::new(latencies),
            windows: vec![CounterWindow::new(); n],
            models: vec![None; n],
            admitted: Vec::with_capacity(n),
        }
    }

    /// Largest IPC a sample may claim: twice what the P630's 4-issue
    /// core can sustain, so measurement noise never reaches it.
    pub const MAX_IPC: f64 = 8.0;

    /// The one sample rule of [`Predictor::push`] and
    /// [`Predictor::push_all`]. Every clause is evaluated, so a batch of
    /// verdicts is straight-line arithmetic.
    #[inline]
    fn plausible(d: &CounterDelta) -> bool {
        d.is_sane()
            & (d.observed_ipc() <= Self::MAX_IPC)
            & ((d.instructions == 0.0) | (d.cycles > 0.0))
    }

    /// Feed one dispatch-interval sample for core `i` if it can be real:
    /// [`CounterDelta::is_sane`] (racy or wrapped reads are not), IPC at
    /// most [`Predictor::MAX_IPC`], no instructions without cycles.
    /// Returns whether it entered the window; a refused (quarantined)
    /// sample leaves the window and the last fit as they were.
    #[inline]
    pub fn push(&mut self, i: usize, delta: &CounterDelta) -> bool {
        let plausible = Self::plausible(delta);
        if plausible {
            self.windows[i].push(delta);
        }
        plausible
    }

    /// [`Predictor::push`] every core's sample, `samples[i]` for core
    /// `i`: every verdict first, then the admitted samples into their
    /// windows, and `on_refused(i)` for each refused one in ascending
    /// order. The windows end as a loop of `push` leaves them.
    pub fn push_all(&mut self, samples: &[CounterDelta], mut on_refused: impl FnMut(usize)) {
        self.admitted.clear();
        self.admitted.extend(samples.iter().map(Self::plausible));
        for (i, (window, sample)) in self.windows.iter_mut().zip(samples).enumerate() {
            if self.admitted[i] {
                window.push(sample);
            } else {
                on_refused(i);
            }
        }
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

    /// The samples core `i` has accumulated since its last refit.
    pub fn window(&self, i: usize) -> &CounterWindow {
        &self.windows[i]
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

    /// A plausible sample, changed by `edit`.
    fn sane(edit: impl FnOnce(&mut CounterDelta)) -> CounterDelta {
        let mut d = CounterDelta {
            instructions: 1.0e6,
            cycles: 2.0e6,
            l2_accesses: 1.0e4,
            l3_accesses: 5.0e3,
            mem_accesses: 2.0e3,
        };
        edit(&mut d);
        d
    }

    #[test]
    fn plausible_samples_are_trusted() {
        let mut p = Predictor::new(2, MemoryLatencies::P630);
        assert!(p.push(0, &sane(|_| {})));
        // A zero delta (stuck counter / idle interval) is not evidence
        // of corruption — it is merely uninformative.
        assert!(p.push(1, &CounterDelta::default()));
    }

    #[test]
    fn nan_spike_and_negative_are_quarantined() {
        let mut p = Predictor::new(1, MemoryLatencies::P630);
        assert!(!p.push(0, &sane(|d| d.cycles = f64::NAN)));
        assert!(!p.push(0, &sane(|d| d.instructions *= 1.0e3)));
        assert!(!p.push(0, &sane(|d| d.mem_accesses = -1.0)));
        // Instructions without cycles is physically impossible.
        assert!(!p.push(0, &sane(|d| d.cycles = 0.0)));
        // The window holds the next good sample, and none of the four.
        assert!(p.push(0, &sane(|_| {})));
        assert_eq!(p.window_ipc(0), Some(0.5));
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
