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
use rand::RngCore;
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

    /// Apply noise to every delta in `deltas`, in place: one draw from
    /// `rng` per non-zero counter, delta by delta, in field order, of the
    /// factor `rng.gen_range(1 − amp..=1 + amp)` would return, with the
    /// range constants computed once for the pass. A zero counter stays
    /// zero and draws nothing.
    #[inline]
    pub fn perturb<R: RngCore + Clone>(&self, deltas: &mut [CounterDelta], rng: &mut R) {
        if self.relative_amplitude == 0.0 {
            return;
        }
        let lo = 1.0 - self.relative_amplitude;
        let span = (1.0 + self.relative_amplitude) - lo;
        let mut draws = rng.clone();
        for d in deltas {
            for x in [
                &mut d.instructions,
                &mut d.cycles,
                &mut d.l2_accesses,
                &mut d.l3_accesses,
                &mut d.mem_accesses,
            ] {
                *x = if *x == 0.0 {
                    0.0
                } else {
                    *x * (lo + (draws.next_u64() >> 11) as f64 / UNIT_DIVISOR * span)
                };
            }
        }
        *rng = draws;
    }
}

/// `2⁵³ − 1`: the top 53 bits of a `next_u64` over it are a unit draw on
/// `[0, 1]`, the one `gen_range` scales an inclusive `f64` range by. For
/// `0 < m < 2⁵³`, `m / (2⁵³ − 1)` is exactly the next double above
/// `m · 2⁻⁵³`, so the division could be a multiplication and a step up;
/// it is not the cost. The xoshiro chain is: each draw waits on the last.
const UNIT_DIVISOR: f64 = ((1u64 << 53) - 1) as f64;

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

    fn perturbed(n: NoiseModel, d: CounterDelta, rng: &mut StdRng) -> CounterDelta {
        let mut out = [d];
        n.perturb(&mut out, rng);
        out[0]
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(perturbed(NoiseModel::NONE, delta(), &mut rng), delta());
    }

    #[test]
    fn noise_stays_within_amplitude() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = NoiseModel::uniform(0.02);
        for _ in 0..100 {
            let d = perturbed(n, delta(), &mut rng);
            assert!((d.instructions / 1.0e6 - 1.0).abs() <= 0.02 + 1e-12);
            assert!((d.cycles / 2.0e6 - 1.0).abs() <= 0.02 + 1e-12);
        }
    }

    #[test]
    fn zero_counters_stay_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = CounterDelta::default();
        assert_eq!(perturbed(NoiseModel::DEFAULT, d, &mut rng), d);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let n = NoiseModel::DEFAULT;
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(perturbed(n, delta(), &mut a), perturbed(n, delta(), &mut b));
    }

    /// `m / (2⁵³ − 1)` is the next double above `m · 2⁻⁵³` for every
    /// 53-bit `m > 0`: the edges, and a sweep across all 53 binades.
    #[test]
    fn the_unit_division_is_a_scaled_step_up() {
        let step_up = |m: u64| f64::from_bits((m as f64 * (-53f64).exp2()).to_bits() + 1);
        let check = |m: u64| {
            assert_eq!(
                (m as f64 / UNIT_DIVISOR).to_bits(),
                step_up(m).to_bits(),
                "m = {m}"
            );
        };
        for m in [1, (1 << 52) - 1, 1 << 52, (1 << 53) - 1] {
            check(m);
        }
        let mut rng = StdRng::seed_from_u64(53);
        for binade in 0..53 {
            for _ in 0..2_000 {
                let m = (1u64 << binade) | (rng.next_u64() & ((1u64 << binade) - 1));
                check(m);
            }
        }
    }
}
