//! Workload execution profiles: the ground-truth parameters a workload
//! exposes to the timing model.

use crate::latency::MemoryLatencies;
use serde::{Deserialize, Serialize};

/// Per-instruction access rates into the off-core memory hierarchy.
///
/// These correspond to the performance-counter quantities `N_i / Instr` of
/// the paper's IPC equation: how many L2, L3 and main-memory accesses the
/// workload performs per retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessRates {
    /// L2 accesses per instruction.
    pub l2_per_instr: f64,
    /// L3 accesses per instruction.
    pub l3_per_instr: f64,
    /// Main-memory accesses per instruction.
    pub mem_per_instr: f64,
}

impl AccessRates {
    /// A profile that never leaves the L1: the pure CPU-bound limit.
    pub const NONE: AccessRates = AccessRates {
        l2_per_instr: 0.0,
        l3_per_instr: 0.0,
        mem_per_instr: 0.0,
    };

    /// Total off-core stall time per instruction, `M = Σ N_i·T_i / Instr`
    /// in seconds — the frequency-dependent coefficient of the CPI
    /// equation.
    #[inline]
    pub fn stall_time_per_instr(&self, lat: &MemoryLatencies) -> f64 {
        self.l2_per_instr * lat.l2_s + self.l3_per_instr * lat.l3_s + self.mem_per_instr * lat.mem_s
    }

    /// Scale all rates by a constant factor.
    pub fn scaled(&self, k: f64) -> AccessRates {
        AccessRates {
            l2_per_instr: self.l2_per_instr * k,
            l3_per_instr: self.l3_per_instr * k,
            mem_per_instr: self.mem_per_instr * k,
        }
    }

    /// True when every rate is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        [self.l2_per_instr, self.l3_per_instr, self.mem_per_instr]
            .iter()
            .all(|r| r.is_finite() && *r >= 0.0)
    }
}

/// The complete ground-truth execution profile of a workload (or of one
/// phase of a workload).
///
/// `alpha` is the paper's `α`: the IPC of a perfect machine with infinite
/// L1 caches and no stalls — a property of both the workload's ILP and the
/// core's issue width. `l1_stall_cycles_per_instr` collects the
/// frequency-independent stall cycles (L1 hit latency exposed to the
/// pipeline); the paper folds this into the same frequency-independent
/// bucket as `1/α`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionProfile {
    /// Perfect-machine IPC (`α`).
    pub alpha: f64,
    /// Frequency-independent L1-related stall cycles per instruction.
    pub l1_stall_cycles_per_instr: f64,
    /// Off-core access rates.
    pub rates: AccessRates,
}

impl ExecutionProfile {
    /// A purely CPU-bound profile with the given perfect-machine IPC.
    pub fn cpu_bound(alpha: f64) -> Self {
        ExecutionProfile {
            alpha,
            l1_stall_cycles_per_instr: 0.0,
            rates: AccessRates::NONE,
        }
    }

    /// The frequency-independent CPI component:
    /// `cpi0 = 1/α + l1 stalls`.
    #[inline]
    pub fn cpi0(&self) -> f64 {
        1.0 / self.alpha + self.l1_stall_cycles_per_instr
    }

    /// Validity check used by the simulator when ingesting workloads.
    pub fn is_valid(&self) -> bool {
        self.alpha.is_finite()
            && self.alpha > 0.0
            && self.l1_stall_cycles_per_instr.is_finite()
            && self.l1_stall_cycles_per_instr >= 0.0
            && self.rates.is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_time_sums_levels() {
        let lat = MemoryLatencies::uniform(100.0e-9);
        let rates = AccessRates {
            l2_per_instr: 0.01,
            l3_per_instr: 0.02,
            mem_per_instr: 0.03,
        };
        let m = rates.stall_time_per_instr(&lat);
        assert!((m - 0.06 * 100.0e-9).abs() < 1e-18);
    }

    #[test]
    fn cpu_bound_profile_has_zero_stall_time() {
        let p = ExecutionProfile::cpu_bound(2.0);
        assert_eq!(p.rates.stall_time_per_instr(&MemoryLatencies::P630), 0.0);
        assert!((p.cpi0() - 0.5).abs() < 1e-12);
        assert!(p.is_valid());
    }

    #[test]
    fn invalid_profiles_detected() {
        let mut p = ExecutionProfile::cpu_bound(1.0);
        assert!(p.is_valid());
        p.alpha = 0.0;
        assert!(!p.is_valid());
        p.alpha = f64::NAN;
        assert!(!p.is_valid());
        let mut q = ExecutionProfile::cpu_bound(1.0);
        q.rates.mem_per_instr = -1.0;
        assert!(!q.is_valid());
    }
}
