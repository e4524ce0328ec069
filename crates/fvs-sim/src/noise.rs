//! Counter sampling noise.
//!
//! Real performance counters are exact, but the *model* that maps counts
//! to timing is not: latencies vary with bank conflicts and queueing,
//! counter reads are not atomic across a 4-way SMP, and the sampling
//! daemon's own execution perturbs the measurement. The paper's Table 2
//! reports residual predictor error of 0.008–0.038 IPC even in steady
//! state. We model all of that as multiplicative noise applied when the
//! scheduler samples a counter delta — the ground truth inside the
//! simulator stays exact, so experiments can measure exactly how much
//! noise the scheduler was exposed to.

use fvs_model::CounterDelta;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Multiplicative uniform noise on sampled counter deltas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Relative amplitude: each sampled counter is scaled by a factor
    /// drawn uniformly from `[1 − amp, 1 + amp]`, independently per
    /// counter. `0.0` disables noise.
    pub relative_amplitude: f64,
}

impl NoiseModel {
    /// No noise: sampled deltas equal ground truth.
    pub const NONE: NoiseModel = NoiseModel {
        relative_amplitude: 0.0,
    };

    /// Calibrated default: ±1.5 % per counter, which reproduces the
    /// steady-state IPC deviations of the paper's Table 2 (≈ 0.01 IPC at
    /// IPC ≈ 1).
    pub const DEFAULT: NoiseModel = NoiseModel {
        relative_amplitude: 0.015,
    };

    /// Custom amplitude.
    pub fn uniform(relative_amplitude: f64) -> Self {
        NoiseModel { relative_amplitude }
    }

    /// Apply noise to a delta using `rng`: one draw per non-zero counter,
    /// in field order. A zero counter stays zero and draws nothing.
    #[inline]
    pub fn perturb<R: Rng + ?Sized>(&self, delta: &CounterDelta, rng: &mut R) -> CounterDelta {
        if self.relative_amplitude == 0.0 {
            return *delta;
        }
        let a = self.relative_amplitude;
        let mut jitter = |x: f64| {
            if x == 0.0 {
                0.0
            } else {
                x * rng.gen_range(1.0 - a..=1.0 + a)
            }
        };
        CounterDelta {
            instructions: jitter(delta.instructions),
            cycles: jitter(delta.cycles),
            l2_accesses: jitter(delta.l2_accesses),
            l3_accesses: jitter(delta.l3_accesses),
            mem_accesses: jitter(delta.mem_accesses),
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn delta() -> CounterDelta {
        CounterDelta {
            instructions: 1.0e6,
            cycles: 2.0e6,
            l2_accesses: 1.0e4,
            l3_accesses: 5.0e3,
            mem_accesses: 2.0e3,
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(NoiseModel::NONE.perturb(&delta(), &mut rng), delta());
    }

    #[test]
    fn noise_stays_within_amplitude() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = NoiseModel::uniform(0.02);
        for _ in 0..100 {
            let d = n.perturb(&delta(), &mut rng);
            assert!((d.instructions / 1.0e6 - 1.0).abs() <= 0.02 + 1e-12);
            assert!((d.cycles / 2.0e6 - 1.0).abs() <= 0.02 + 1e-12);
        }
    }

    #[test]
    fn zero_counters_stay_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = CounterDelta::default();
        let out = NoiseModel::DEFAULT.perturb(&d, &mut rng);
        assert_eq!(out, d);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let n = NoiseModel::DEFAULT;
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(n.perturb(&delta(), &mut a), n.perturb(&delta(), &mut b));
    }
}
