//! The deterministic fault stream.
//!
//! A [`FaultInjector`] owns a [`FaultPlan`] and a seeded RNG; each call
//! site that *could* fail asks it whether a fault fires there. The
//! stream is a pure function of `(plan, seed, query sequence)`, so a
//! chaos run replays byte-for-byte from its seed. Built from a quiet
//! plan, every query is a single branch — the zero-cost-when-quiet
//! property the counting-allocator proofs lean on.

use crate::plan::FaultPlan;
use fvs_model::CounterDelta;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a counter sample is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterFaultKind {
    /// A racy multi-register read left a NaN in the delta.
    Nan,
    /// A wraparound-style spike: instructions multiplied absurdly.
    Spike,
    /// The counter stopped advancing: the delta reads all-zero.
    Stuck,
    /// The previous interval's delta is replayed verbatim.
    Stale,
}

/// How a frequency actuation misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationFaultKind {
    /// The command is silently lost.
    Drop,
    /// Only part of the transition happens (the PLL settles halfway).
    Partial,
    /// The command lands, but several ticks late.
    Delay,
}

/// Deterministic, seedable source of fault decisions for one run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    rng: StdRng,
    quiet: bool,
    injected: u64,
}

impl FaultInjector {
    /// Injector for `plan`, deterministic in `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let quiet = plan.is_quiet();
        FaultInjector {
            plan,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xFA01_75EED),
            quiet,
            injected: 0,
        }
    }

    /// The seed this injector was built with: where a run's other fault
    /// streams (one per simulated connection) derive theirs.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The quiet injector: never fires, one branch per query.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::none(), 0)
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when no query can ever fire.
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Faults fired so far (all classes).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    #[inline]
    fn fires(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if self.rng.gen::<f64>() >= rate {
            return false;
        }
        self.injected += 1;
        true
    }

    /// Should this counter sample be corrupted, and how?
    #[inline]
    pub fn counter_fault(&mut self) -> Option<CounterFaultKind> {
        if self.quiet || !self.fires(self.plan.counter_rate) {
            return None;
        }
        Some(match self.rng.gen_range(0u32..4) {
            0 => CounterFaultKind::Nan,
            1 => CounterFaultKind::Spike,
            2 => CounterFaultKind::Stuck,
            _ => CounterFaultKind::Stale,
        })
    }

    /// Should this frequency command misbehave, and how?
    #[inline]
    pub fn actuation_fault(&mut self) -> Option<ActuationFaultKind> {
        if self.quiet || !self.fires(self.plan.actuation_rate) {
            return None;
        }
        Some(match self.rng.gen_range(0u32..3) {
            0 => ActuationFaultKind::Drop,
            1 => ActuationFaultKind::Partial,
            _ => ActuationFaultKind::Delay,
        })
    }
}

/// Apply a counter fault to `delta` in place; `prev` is the previous
/// interval's (uncorrupted) delta, used by [`CounterFaultKind::Stale`].
pub fn apply_counter_fault(kind: CounterFaultKind, delta: &mut CounterDelta, prev: &CounterDelta) {
    match kind {
        CounterFaultKind::Nan => {
            delta.cycles = f64::NAN;
        }
        CounterFaultKind::Spike => {
            delta.instructions *= 1.0e3;
        }
        CounterFaultKind::Stuck => {
            *delta = CounterDelta::default();
        }
        CounterFaultKind::Stale => {
            *delta = *prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlan {
        FaultPlan {
            counter_rate: 0.5,
            actuation_rate: 0.5,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn quiet_injector_never_fires() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..1000 {
            assert_eq!(inj.counter_fault(), None);
            assert_eq!(inj.actuation_fault(), None);
        }
        assert_eq!(inj.injected(), 0);
        assert!(inj.is_quiet());
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let mut a = FaultInjector::new(noisy_plan(), 42);
        let mut b = FaultInjector::new(noisy_plan(), 42);
        for _ in 0..500 {
            assert_eq!(a.counter_fault(), b.counter_fault());
            assert_eq!(a.actuation_fault(), b.actuation_fault());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(noisy_plan(), 1);
        let mut b = FaultInjector::new(noisy_plan(), 2);
        let hits_a: Vec<_> = (0..200).map(|_| a.counter_fault()).collect();
        let hits_b: Vec<_> = (0..200).map(|_| b.counter_fault()).collect();
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn all_counter_fault_kinds_eventually_fire() {
        let mut inj = FaultInjector::new(noisy_plan(), 7);
        let mut seen = [false; 4];
        for _ in 0..2000 {
            if let Some(k) = inj.counter_fault() {
                seen[match k {
                    CounterFaultKind::Nan => 0,
                    CounterFaultKind::Spike => 1,
                    CounterFaultKind::Stuck => 2,
                    CounterFaultKind::Stale => 3,
                }] = true;
            }
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn counter_faults_corrupt_as_advertised() {
        let prev = CounterDelta {
            instructions: 1.0e6,
            cycles: 2.0e6,
            l2_accesses: 10.0,
            l3_accesses: 5.0,
            mem_accesses: 2.0,
        };
        let fresh = CounterDelta {
            instructions: 3.0e6,
            cycles: 4.0e6,
            ..prev
        };

        let mut d = fresh;
        apply_counter_fault(CounterFaultKind::Nan, &mut d, &prev);
        assert!(!d.is_sane());

        let mut d = fresh;
        apply_counter_fault(CounterFaultKind::Spike, &mut d, &prev);
        assert!(d.observed_ipc() > 100.0);

        let mut d = fresh;
        apply_counter_fault(CounterFaultKind::Stuck, &mut d, &prev);
        assert_eq!(d, CounterDelta::default());

        let mut d = fresh;
        apply_counter_fault(CounterFaultKind::Stale, &mut d, &prev);
        assert_eq!(d, prev);
    }
}
