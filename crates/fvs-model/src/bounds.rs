//! Best/worst-case latency bounds (footnote 1, second alternative).
//!
//! Constant latencies are a simplification: a real L3 or memory access
//! takes anywhere from the unloaded latency to a queue-lengthened worst
//! case. The paper's footnote cites an approach \[17\] that carries *both*
//! bounds through the prediction, yielding a performance **interval** at
//! each frequency instead of a point. A scheduler using intervals can be
//! deliberately conservative: only pick a lower frequency when even the
//! pessimistic prediction keeps the loss within ε.

use crate::counters::{CounterDelta, EstimateError};
use crate::cpi::CpiModel;
use crate::freq::{FreqMhz, FrequencySet};
use crate::latency::MemoryLatencies;
use serde::{Deserialize, Serialize};

/// A pair of latency tables bounding the platform's true behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyBounds {
    /// Unloaded (best-case) latencies.
    pub best: MemoryLatencies,
    /// Fully-queued (worst-case) latencies.
    pub worst: MemoryLatencies,
}

impl LatencyBounds {
    /// P630 bounds: the measured nominal latencies as best case and a
    /// 1.5× queueing factor on the off-core levels as worst case
    /// (representative of bank-conflict/queueing spread on Power4-class
    /// memory systems).
    pub fn p630() -> Self {
        let best = MemoryLatencies::P630;
        LatencyBounds {
            best,
            worst: MemoryLatencies {
                l1_cycles: best.l1_cycles,
                l2_s: best.l2_s * 1.5,
                l3_s: best.l3_s * 1.5,
                mem_s: best.mem_s * 1.5,
            },
        }
    }

    /// Custom bounds; `worst` must dominate `best` level-wise.
    pub fn new(best: MemoryLatencies, worst: MemoryLatencies) -> Self {
        debug_assert!(worst.l2_s >= best.l2_s);
        debug_assert!(worst.l3_s >= best.l3_s);
        debug_assert!(worst.mem_s >= best.mem_s);
        LatencyBounds { best, worst }
    }
}

/// A CPI model carrying optimistic and pessimistic variants.
///
/// The *optimistic* member assumes every counted access paid the
/// best-case latency: it attributes the largest possible share of the
/// observed cycles to the frequency-independent component, so it
/// predicts the **most** benefit from frequency (an upper performance
/// bound at high f, and the *least* saturation). The *pessimistic*
/// member is the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundedCpiModel {
    /// Model under best-case latencies (maximal `cpi0`, minimal `M`).
    pub optimistic: CpiModel,
    /// Model under worst-case latencies (minimal `cpi0`, maximal `M`).
    pub pessimistic: CpiModel,
}

impl BoundedCpiModel {
    /// Fit both variants from one counter window observed at `freq`.
    pub fn estimate(
        delta: &CounterDelta,
        freq: FreqMhz,
        bounds: &LatencyBounds,
        cpi0_floor: f64,
    ) -> Result<Self, EstimateError> {
        if delta.cycles <= 0.0 || freq.0 == 0 {
            return Err(EstimateError::NoCycles);
        }
        if delta.instructions <= 0.0 {
            return Err(EstimateError::TooFewInstructions);
        }
        let instr = delta.instructions;
        let observed_cpi = delta.cycles / instr;
        let fit = |lat: &MemoryLatencies| -> CpiModel {
            let mem_time = (delta.l2_accesses * lat.l2_s
                + delta.l3_accesses * lat.l3_s
                + delta.mem_accesses * lat.mem_s)
                / instr;
            // A latency assumption may attribute more stall time than the
            // observed cycles can contain (the worst-case table applied
            // to a workload that actually saw best-case latencies).
            // Clamp M so the model remains consistent with the
            // observation: CPI(f_measured) must equal the observed CPI.
            let max_mem_time = (observed_cpi - cpi0_floor).max(0.0) / freq.hz();
            let mem_time = mem_time.min(max_mem_time);
            let cpi0 = (observed_cpi - mem_time * freq.hz()).max(cpi0_floor);
            CpiModel::from_components(cpi0, mem_time)
        };
        Ok(BoundedCpiModel {
            optimistic: fit(&bounds.best),
            pessimistic: fit(&bounds.worst),
        })
    }

    /// Worst-case (largest) predicted loss vs `f_ref` at `f`: the value
    /// a conservative scheduler compares with ε.
    pub fn worst_case_loss(&self, f_ref: FreqMhz, f: FreqMhz) -> f64 {
        let loss_opt = crate::perfloss::perf_loss(&self.optimistic, f_ref, f);
        let loss_pes = crate::perfloss::perf_loss(&self.pessimistic, f_ref, f);
        loss_opt.max(loss_pes)
    }

    /// The conservative ε-constrained frequency: the lowest setting
    /// whose *worst-case* loss stays under ε. Never below the point
    /// model's pick built from the same counters with best-case
    /// latencies.
    pub fn conservative_epsilon_frequency(&self, set: &FrequencySet, epsilon: f64) -> FreqMhz {
        let f_ref = set.max();
        set.iter()
            .find(|f| self.worst_case_loss(f_ref, *f) < epsilon)
            .unwrap_or(f_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::synthesize_delta;
    use crate::perfloss::PerfLossTable;

    /// The performance interval `(min, max)` in instructions/s the two
    /// variants predict at `f`; which one is lower depends on `f`
    /// relative to the measurement point.
    fn perf_interval(b: &BoundedCpiModel, f: FreqMhz) -> (f64, f64) {
        let (x, y) = (b.optimistic.perf_at(f), b.pessimistic.perf_at(f));
        (x.min(y), x.max(y))
    }

    fn window(mem_rate: f64, f: FreqMhz) -> CounterDelta {
        let lat = MemoryLatencies::P630;
        let truth = CpiModel::from_components(1.0, mem_rate * lat.mem_s);
        synthesize_delta(&truth, 0.0, 0.0, mem_rate, 1.0e7, f)
    }

    #[test]
    fn interval_brackets_truth_when_latency_is_in_bounds() {
        let bounds = LatencyBounds::p630();
        // Ground truth uses 1.2× latencies — inside [1.0, 1.5]×.
        let true_lat = MemoryLatencies {
            l1_cycles: 4.5,
            l2_s: 15.0e-9 * 1.2,
            l3_s: 113.0e-9 * 1.2,
            mem_s: 393.0e-9 * 1.2,
        };
        let truth = CpiModel::from_components(1.0, 0.01 * true_lat.mem_s);
        let delta = synthesize_delta(&truth, 0.0, 0.0, 0.01, 1.0e7, FreqMhz(1000));
        let b = BoundedCpiModel::estimate(&delta, FreqMhz(1000), &bounds, 0.05).unwrap();
        for f in FrequencySet::p630().iter() {
            let (lo, hi) = perf_interval(&b, f);
            let p = truth.perf_at(f);
            assert!(
                lo <= p * 1.000001 && p <= hi * 1.000001,
                "{f}: {lo} ≤ {p} ≤ {hi}"
            );
        }
    }

    #[test]
    fn interval_collapses_at_measurement_frequency() {
        let bounds = LatencyBounds::p630();
        let delta = window(0.01, FreqMhz(800));
        let b = BoundedCpiModel::estimate(&delta, FreqMhz(800), &bounds, 0.05).unwrap();
        // Both variants reproduce the observed CPI at the measurement
        // frequency by construction.
        let (lo, hi) = perf_interval(&b, FreqMhz(800));
        assert!(
            (hi - lo) / hi < 1e-9,
            "interval should collapse: {lo}..{hi}"
        );
    }

    #[test]
    fn conservative_pick_is_at_least_the_point_pick() {
        let bounds = LatencyBounds::p630();
        let set = FrequencySet::p630();
        for mem_rate in [0.002, 0.01, 0.05, 0.12] {
            let delta = window(mem_rate, FreqMhz(1000));
            let b = BoundedCpiModel::estimate(&delta, FreqMhz(1000), &bounds, 0.05).unwrap();
            let conservative = b.conservative_epsilon_frequency(&set, 0.048);
            // Point model with best-case (nominal) latencies.
            let point = crate::counters::Estimator::new(bounds.best)
                .estimate(&delta, FreqMhz(1000))
                .unwrap();
            let point_pick = PerfLossTable::build(&point, &set).epsilon_constrained(0.048);
            assert!(
                conservative >= point_pick,
                "mem_rate {mem_rate}: conservative {conservative} < point {point_pick}"
            );
        }
    }

    #[test]
    fn cpu_bound_interval_is_degenerate() {
        let bounds = LatencyBounds::p630();
        let delta = window(0.0, FreqMhz(1000));
        let b = BoundedCpiModel::estimate(&delta, FreqMhz(1000), &bounds, 0.05).unwrap();
        for f in [FreqMhz(250), FreqMhz(650), FreqMhz(1000)] {
            let (lo, hi) = perf_interval(&b, f);
            assert!((hi - lo).abs() < 1e-6, "no memory → no uncertainty");
        }
    }

    #[test]
    fn estimate_guards_empty_input() {
        let bounds = LatencyBounds::p630();
        assert!(
            BoundedCpiModel::estimate(&CounterDelta::default(), FreqMhz(1000), &bounds, 0.05)
                .is_err()
        );
    }
}
