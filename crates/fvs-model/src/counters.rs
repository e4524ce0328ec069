//! Performance-counter samples and the estimator that fits a [`CpiModel`]
//! from them.
//!
//! The scheduler never sees ground-truth workload parameters. It sees what
//! the Power4+ counters expose: per-interval counts of retired
//! instructions, elapsed cycles, and accesses to each level of the memory
//! hierarchy. This module defines that data contract and the arithmetic
//! that inverts the CPI equation to recover `(cpi0, M)` from one interval
//! observed at a known frequency.

use crate::cpi::CpiModel;
use crate::freq::FreqMhz;
use crate::latency::MemoryLatencies;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Counter deltas accumulated over one sampling interval on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CounterDelta {
    /// Retired instructions.
    pub instructions: f64,
    /// Elapsed core cycles (at whatever frequency the core ran).
    pub cycles: f64,
    /// L2 accesses.
    pub l2_accesses: f64,
    /// L3 accesses.
    pub l3_accesses: f64,
    /// Main-memory accesses.
    pub mem_accesses: f64,
}

impl CounterDelta {
    /// Element-wise accumulation (for aggregating dispatch intervals `t`
    /// into a scheduling interval `T`).
    #[inline]
    pub fn accumulate(&mut self, other: &CounterDelta) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.l2_accesses += other.l2_accesses;
        self.l3_accesses += other.l3_accesses;
        self.mem_accesses += other.mem_accesses;
    }

    /// Observed instructions per cycle over the interval.
    #[inline]
    pub fn observed_ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions / self.cycles
        }
    }

    /// True when the interval retired enough work to estimate from.
    #[inline]
    pub fn is_informative(&self, min_instructions: f64) -> bool {
        self.instructions >= min_instructions && self.cycles > 0.0
    }

    /// True when every counter is finite and non-negative. Real counter
    /// reads can be corrupted (wraparound, racy multi-register reads);
    /// the estimator refuses such windows rather than scheduling on
    /// them. Every counter is tested (no early exit), so a verdict is
    /// straight-line code.
    #[inline]
    pub fn is_sane(&self) -> bool {
        [
            self.instructions,
            self.cycles,
            self.l2_accesses,
            self.l3_accesses,
            self.mem_accesses,
        ]
        .iter()
        .fold(true, |ok, x| ok & (*x >= 0.0) & (*x <= f64::MAX))
    }
}

/// A sliding accumulation window: collects `n` dispatch-interval deltas
/// (`t` in the paper) and exposes their sum as one scheduling observation
/// (`T = n·t`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CounterWindow {
    sum: CounterDelta,
    samples: u32,
}

impl CounterWindow {
    /// Empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one dispatch-interval delta.
    #[inline]
    pub fn push(&mut self, delta: &CounterDelta) {
        self.sum.accumulate(delta);
        self.samples += 1;
    }

    /// Number of accumulated samples.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// The aggregate delta so far.
    #[inline]
    pub fn total(&self) -> &CounterDelta {
        &self.sum
    }

    /// Take the aggregate and reset the window for the next period.
    #[inline]
    pub fn drain(&mut self) -> CounterDelta {
        let out = self.sum;
        *self = Self::default();
        out
    }
}

/// Why an estimate could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimateError {
    /// Too few instructions retired in the window to trust the counters.
    TooFewInstructions,
    /// The interval's frequency was zero or the cycle count was empty.
    NoCycles,
    /// A counter was non-finite or negative (corrupted read).
    CorruptCounters,
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::TooFewInstructions => {
                write!(f, "too few instructions in sampling window")
            }
            EstimateError::NoCycles => write!(f, "no cycles elapsed in sampling window"),
            EstimateError::CorruptCounters => {
                write!(f, "counter window contains non-finite or negative values")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// Fits a [`CpiModel`] from a counter delta observed at a known frequency.
///
/// Inversion of the CPI equation: with the platform latencies `T_i`
/// assumed constant (the paper's simplification),
///
/// ```text
/// M    = (N_l2·T_l2 + N_l3·T_l3 + N_mem·T_mem) / instructions
/// cpi0 = cycles/instructions − M · f
/// ```
///
/// `cpi0` is clamped to a small positive floor: measurement noise can push
/// the subtraction negative for extremely memory-bound intervals, and a
/// non-positive `cpi0` would predict super-linear speedup from frequency,
/// which the scheduler must never believe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimator {
    /// Platform latency constants used for the inversion.
    pub latencies: MemoryLatencies,
    /// Minimum instructions per window for an estimate to be attempted.
    pub min_instructions: f64,
    /// Floor applied to the frequency-independent CPI component.
    pub cpi0_floor: f64,
}

impl Estimator {
    /// Estimator with the paper's platform constants and pragmatic
    /// defaults: at least 10k instructions per window, `cpi0 ≥ 0.05`
    /// (an effective IPC ceiling of 20, far above any real core).
    pub fn new(latencies: MemoryLatencies) -> Self {
        Estimator {
            latencies,
            min_instructions: 1.0e4,
            cpi0_floor: 0.05,
        }
    }

    /// Fit a model from `delta` observed while the core ran at `freq`.
    #[inline]
    pub fn estimate(&self, delta: &CounterDelta, freq: FreqMhz) -> Result<CpiModel, EstimateError> {
        if !delta.is_sane() {
            return Err(EstimateError::CorruptCounters);
        }
        if delta.cycles <= 0.0 || freq.0 == 0 {
            return Err(EstimateError::NoCycles);
        }
        if !delta.is_informative(self.min_instructions) {
            return Err(EstimateError::TooFewInstructions);
        }
        let instr = delta.instructions;
        let mem_time = (delta.l2_accesses * self.latencies.l2_s
            + delta.l3_accesses * self.latencies.l3_s
            + delta.mem_accesses * self.latencies.mem_s)
            / instr;
        let observed_cpi = delta.cycles / instr;
        let cpi0 = (observed_cpi - mem_time * freq.hz()).max(self.cpi0_floor);
        Ok(CpiModel::from_components(cpi0, mem_time))
    }
}

/// Synthesize the counter delta a *noise-free* machine would report for a
/// workload described by `model` with the given per-instruction access
/// rates, running `instructions` at `freq`. Used by the simulator and by
/// round-trip tests of the estimator.
pub fn synthesize_delta(
    model: &CpiModel,
    rates_l2: f64,
    rates_l3: f64,
    rates_mem: f64,
    instructions: f64,
    freq: FreqMhz,
) -> CounterDelta {
    CounterDelta {
        instructions,
        cycles: model.cpi_at(freq) * instructions,
        l2_accesses: rates_l2 * instructions,
        l3_accesses: rates_l3 * instructions,
        mem_accesses: rates_mem * instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{AccessRates, ExecutionProfile};

    fn profile() -> ExecutionProfile {
        ExecutionProfile {
            alpha: 1.5,
            l1_stall_cycles_per_instr: 0.2,
            rates: AccessRates {
                l2_per_instr: 0.012,
                l3_per_instr: 0.003,
                mem_per_instr: 0.006,
            },
        }
    }

    #[test]
    fn estimator_roundtrips_noise_free_counters() {
        let lat = MemoryLatencies::P630;
        let p = profile();
        let truth = CpiModel::from_profile(&p, &lat);
        let est = Estimator::new(lat);
        for f in [FreqMhz(250), FreqMhz(650), FreqMhz(1000)] {
            let delta = synthesize_delta(
                &truth,
                p.rates.l2_per_instr,
                p.rates.l3_per_instr,
                p.rates.mem_per_instr,
                1.0e7,
                f,
            );
            let fitted = est.estimate(&delta, f).unwrap();
            assert!((fitted.cpi0 - truth.cpi0).abs() < 1e-9);
            assert!((fitted.mem_time_per_instr - truth.mem_time_per_instr).abs() < 1e-18);
        }
    }

    #[test]
    fn estimate_rejects_empty_windows() {
        let est = Estimator::new(MemoryLatencies::P630);
        let empty = CounterDelta::default();
        assert_eq!(
            est.estimate(&empty, FreqMhz(1000)),
            Err(EstimateError::NoCycles)
        );
        let tiny = CounterDelta {
            instructions: 10.0,
            cycles: 20.0,
            ..Default::default()
        };
        assert_eq!(
            est.estimate(&tiny, FreqMhz(1000)),
            Err(EstimateError::TooFewInstructions)
        );
        assert_eq!(
            est.estimate(&tiny, FreqMhz(0)),
            Err(EstimateError::NoCycles)
        );
    }

    #[test]
    fn corrupted_counters_rejected() {
        let est = Estimator::new(MemoryLatencies::P630);
        let mut d = CounterDelta {
            instructions: 1.0e6,
            cycles: 2.0e6,
            ..Default::default()
        };
        d.mem_accesses = f64::NAN;
        assert_eq!(
            est.estimate(&d, FreqMhz(1000)),
            Err(EstimateError::CorruptCounters)
        );
        d.mem_accesses = -5.0;
        assert_eq!(
            est.estimate(&d, FreqMhz(1000)),
            Err(EstimateError::CorruptCounters)
        );
        d.mem_accesses = f64::INFINITY;
        assert_eq!(
            est.estimate(&d, FreqMhz(1000)),
            Err(EstimateError::CorruptCounters)
        );
    }

    #[test]
    fn cpi0_floor_prevents_superlinear_models() {
        let lat = MemoryLatencies::P630;
        let est = Estimator::new(lat);
        // Corrupted counters: cycles far lower than the memory stalls imply.
        let delta = CounterDelta {
            instructions: 1.0e6,
            cycles: 1.0e6, // CPI 1.0
            l2_accesses: 0.0,
            l3_accesses: 0.0,
            mem_accesses: 1.0e5, // implies 39.3 cycles/instr of stalls at 1 GHz
        };
        let m = est.estimate(&delta, FreqMhz(1000)).unwrap();
        assert!(m.cpi0 >= est.cpi0_floor);
        assert!(m.is_valid());
    }

    #[test]
    fn window_accumulates_and_drains() {
        let mut w = CounterWindow::new();
        let d = CounterDelta {
            instructions: 100.0,
            cycles: 200.0,
            l2_accesses: 3.0,
            l3_accesses: 2.0,
            mem_accesses: 1.0,
        };
        for _ in 0..10 {
            w.push(&d);
        }
        assert_eq!(w.samples(), 10);
        let total = w.drain();
        assert_eq!(total.instructions, 1000.0);
        assert_eq!(total.mem_accesses, 10.0);
        assert_eq!(w.samples(), 0);
        assert_eq!(w.total().instructions, 0.0);
    }

    #[test]
    fn observed_ipc() {
        let d = CounterDelta {
            instructions: 300.0,
            cycles: 600.0,
            ..Default::default()
        };
        assert!((d.observed_ipc() - 0.5).abs() < 1e-12);
        assert_eq!(CounterDelta::default().observed_ipc(), 0.0);
    }
}
