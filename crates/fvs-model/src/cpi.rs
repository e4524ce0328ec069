//! The two-parameter CPI model at the heart of the predictor.

use crate::freq::FreqMhz;
use crate::latency::MemoryLatencies;
use crate::profile::ExecutionProfile;
use serde::{Deserialize, Serialize};

/// The fitted/derived timing model of a workload:
/// `CPI(f) = cpi0 + mem_time_per_instr · f` with `f` in Hz.
///
/// `cpi0` is the frequency-independent component (perfect-machine CPI plus
/// L1 stalls, in cycles per instruction); `mem_time_per_instr` is the
/// frequency-dependent coefficient `M` (off-core stall time per
/// instruction, in seconds). Both the ground-truth profiles the simulator
/// executes and the estimates the scheduler recovers from performance
/// counters are expressed as `CpiModel`s, so prediction error can be
/// measured in one place.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpiModel {
    /// Frequency-independent cycles per instruction.
    pub cpi0: f64,
    /// Off-core stall seconds per instruction (`M`).
    pub mem_time_per_instr: f64,
}

impl CpiModel {
    /// Build directly from the two components.
    pub fn from_components(cpi0: f64, mem_time_per_instr: f64) -> Self {
        CpiModel {
            cpi0,
            mem_time_per_instr,
        }
    }

    /// Derive the model from a ground-truth execution profile and the
    /// platform's memory latencies.
    pub fn from_profile(profile: &ExecutionProfile, lat: &MemoryLatencies) -> Self {
        CpiModel {
            cpi0: profile.cpi0(),
            mem_time_per_instr: profile.rates.stall_time_per_instr(lat),
        }
    }

    /// Cycles per instruction at frequency `f`.
    #[inline]
    pub fn cpi_at(&self, f: FreqMhz) -> f64 {
        self.cpi_at_hz(f.hz())
    }

    /// Cycles per instruction at a frequency given in Hz.
    #[inline]
    pub fn cpi_at_hz(&self, f_hz: f64) -> f64 {
        self.cpi0 + self.mem_time_per_instr * f_hz
    }

    /// Instructions per cycle at frequency `f` — the paper's `IPC(f)`.
    #[inline]
    pub fn ipc_at(&self, f: FreqMhz) -> f64 {
        1.0 / self.cpi_at(f)
    }

    /// Throughput in instructions per second — the paper's
    /// `Perf(f) = IPC(f) · f`.
    #[inline]
    pub fn perf_at(&self, f: FreqMhz) -> f64 {
        self.perf_at_hz(f.hz())
    }

    /// Throughput at a frequency given in Hz.
    #[inline]
    pub fn perf_at_hz(&self, f_hz: f64) -> f64 {
        f_hz / self.cpi_at_hz(f_hz)
    }

    /// The throughput asymptote `1/M` that memory-bound work approaches as
    /// `f → ∞`; `f64::INFINITY` for purely CPU-bound work.
    #[inline]
    pub fn perf_asymptote(&self) -> f64 {
        if self.mem_time_per_instr <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.mem_time_per_instr
        }
    }

    /// The lowest frequency (in Hz, continuous) at which the workload
    /// achieves `target_ips` instructions per second, or `None` if the
    /// target exceeds what any frequency can deliver (i.e. is at or above
    /// the saturation asymptote).
    ///
    /// Solves `f / (cpi0 + M·f) = target` for `f`.
    pub fn frequency_for_perf_hz(&self, target_ips: f64) -> Option<f64> {
        if target_ips <= 0.0 {
            return Some(0.0);
        }
        let denom = 1.0 - target_ips * self.mem_time_per_instr;
        if denom <= 0.0 {
            return None;
        }
        Some(target_ips * self.cpi0 / denom)
    }

    /// Model validity: both coefficients finite, `cpi0` strictly positive
    /// (no machine retires instructions in zero cycles), `M` non-negative.
    pub fn is_valid(&self) -> bool {
        self.cpi0.is_finite()
            && self.cpi0 > 0.0
            && self.mem_time_per_instr.is_finite()
            && self.mem_time_per_instr >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AccessRates;

    fn mem_bound() -> CpiModel {
        // 1 memory access per 100 instructions on the P630: M = 3.93 ns.
        let rates = AccessRates {
            l2_per_instr: 0.0,
            l3_per_instr: 0.0,
            mem_per_instr: 0.01,
        };
        CpiModel::from_components(1.0, rates.stall_time_per_instr(&MemoryLatencies::P630))
    }

    #[test]
    fn cpu_bound_perf_is_linear_in_frequency() {
        let m = CpiModel::from_components(0.5, 0.0);
        let p1 = m.perf_at(FreqMhz(500));
        let p2 = m.perf_at(FreqMhz(1000));
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
        assert_eq!(m.perf_asymptote(), f64::INFINITY);
    }

    #[test]
    fn memory_bound_perf_saturates() {
        let m = mem_bound();
        let p1 = m.perf_at(FreqMhz(500));
        let p2 = m.perf_at(FreqMhz(1000));
        // Doubling the clock must help, but strictly sub-linearly.
        assert!(p2 > p1);
        assert!(p2 / p1 < 2.0);
        assert!(p2 < m.perf_asymptote());
    }

    #[test]
    fn ipc_at_1ghz_matches_hand_calculation() {
        let m = mem_bound();
        // CPI(1 GHz) = 1.0 + 3.93e-9 * 1e9 = 4.93.
        assert!((m.cpi_at(FreqMhz(1000)) - 4.93).abs() < 1e-9);
        assert!((m.ipc_at(FreqMhz(1000)) - 1.0 / 4.93).abs() < 1e-12);
    }

    #[test]
    fn frequency_for_perf_inverts_perf() {
        let m = mem_bound();
        let f = FreqMhz(800);
        let target = m.perf_at(f);
        let f_solved = m.frequency_for_perf_hz(target).unwrap();
        assert!((f_solved - f.hz()).abs() / f.hz() < 1e-9);
    }

    #[test]
    fn frequency_for_unreachable_perf_is_none() {
        let m = mem_bound();
        assert!(m.frequency_for_perf_hz(m.perf_asymptote() * 1.01).is_none());
        assert!(m.frequency_for_perf_hz(m.perf_asymptote()).is_none());
    }

    #[test]
    fn validity() {
        assert!(mem_bound().is_valid());
        assert!(!CpiModel::from_components(0.0, 0.0).is_valid());
        assert!(!CpiModel::from_components(1.0, -1.0).is_valid());
        assert!(!CpiModel::from_components(f64::NAN, 0.0).is_valid());
    }
}
