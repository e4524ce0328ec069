//! First rung of the degradation ladder: refuse to schedule on garbage.
//!
//! The [`SampleValidator`] sits between the raw counter stream and the
//! predictor. Samples that cannot be real — non-finite counters,
//! negative counts, impossible IPC — are quarantined instead of entering
//! the model-fitting window. The validator only judges samples: while a
//! processor's counters misbehave, the scheduler keeps deciding from the
//! predictor's last fit, which only trusted samples ever fed.
//!
//! Validation is pure preallocated arithmetic: no allocation after
//! construction, and thresholds generous enough that legitimate noisy
//! samples (the ±1.5 % measurement noise of the simulator) are never
//! quarantined — so with no faults injected, behavior is bit-identical
//! to running without the validator.

use fvs_model::CounterDelta;

/// Verdict on one counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleVerdict {
    /// The sample is physically plausible; feed it to the predictor.
    Trusted,
    /// The sample cannot be real; drop it (the predictor keeps its
    /// last fit).
    Quarantined,
}

/// Quarantines impossible counter samples and counts them.
#[derive(Debug, Clone)]
pub struct SampleValidator {
    max_ipc: f64,
    /// Samples quarantined per processor.
    quarantined: Vec<u64>,
    total_quarantined: u64,
}

impl SampleValidator {
    /// Default upper bound on plausible IPC. The P630's 4-issue core
    /// cannot sustain IPC > 4; 8 leaves a 2× guard band so measurement
    /// noise can never trip it.
    pub const DEFAULT_MAX_IPC: f64 = 8.0;

    /// Validator for `n` processors with the default IPC bound.
    pub fn new(n: usize) -> Self {
        Self::with_max_ipc(n, Self::DEFAULT_MAX_IPC)
    }

    /// Validator with a custom IPC plausibility bound.
    pub fn with_max_ipc(n: usize, max_ipc: f64) -> Self {
        SampleValidator {
            max_ipc,
            quarantined: vec![0; n],
            total_quarantined: 0,
        }
    }

    /// Judge one sample for processor `proc`. Quarantined samples are
    /// counted; the caller must not push them into the predictor.
    #[inline]
    pub fn validate(&mut self, proc: usize, delta: &CounterDelta) -> SampleVerdict {
        let plausible = delta.is_sane()
            && delta.observed_ipc() <= self.max_ipc
            && (delta.instructions == 0.0 || delta.cycles > 0.0);
        if plausible {
            SampleVerdict::Trusted
        } else {
            self.quarantined[proc] += 1;
            self.total_quarantined += 1;
            SampleVerdict::Quarantined
        }
    }

    /// Samples quarantined for `proc` so far.
    pub fn quarantined(&self, proc: usize) -> u64 {
        self.quarantined[proc]
    }

    /// Samples quarantined across all processors.
    pub fn total_quarantined(&self) -> u64 {
        self.total_quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane() -> CounterDelta {
        CounterDelta {
            instructions: 1.0e6,
            cycles: 2.0e6,
            l2_accesses: 1.0e4,
            l3_accesses: 5.0e3,
            mem_accesses: 2.0e3,
        }
    }

    #[test]
    fn plausible_samples_are_trusted() {
        let mut v = SampleValidator::new(2);
        assert_eq!(v.validate(0, &sane()), SampleVerdict::Trusted);
        // A zero delta (stuck counter / idle interval) is not evidence
        // of corruption — it is merely uninformative.
        assert_eq!(
            v.validate(1, &CounterDelta::default()),
            SampleVerdict::Trusted
        );
        assert_eq!(v.total_quarantined(), 0);
    }

    #[test]
    fn nan_spike_and_negative_are_quarantined() {
        let mut v = SampleValidator::new(1);
        let mut nan = sane();
        nan.cycles = f64::NAN;
        assert_eq!(v.validate(0, &nan), SampleVerdict::Quarantined);

        let mut spike = sane();
        spike.instructions *= 1.0e3;
        assert_eq!(v.validate(0, &spike), SampleVerdict::Quarantined);

        let mut neg = sane();
        neg.mem_accesses = -1.0;
        assert_eq!(v.validate(0, &neg), SampleVerdict::Quarantined);

        // Instructions without cycles is physically impossible.
        let mut nocyc = sane();
        nocyc.cycles = 0.0;
        assert_eq!(v.validate(0, &nocyc), SampleVerdict::Quarantined);

        assert_eq!(v.quarantined(0), 4);
        assert_eq!(v.total_quarantined(), 4);
    }
}
