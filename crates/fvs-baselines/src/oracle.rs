//! The ground-truth oracle: fvsst without prediction error.
//!
//! It rounds when the daemon does — it reads the daemon's
//! [`RoundClock`], built from the same [`SchedulerConfig`] — so the gap
//! between the two is not one of round phase.

use fvs_sched::{
    Decision, FvsstAlgorithm, Policy, ProcInput, RoundClock, ScheduleCache, SchedulerConfig,
    TickContext,
};

/// Runs the exact two-pass fvsst algorithm, but feeds it the *ground
/// truth* timing model of whatever each core is executing right now
/// (delivered by the harness via `TickContext::ground_truth`) instead of
/// counter-window estimates. The gap between `Oracle` and
/// [`fvs_sched::FvsstScheduler`] is therefore pure prediction/sampling
/// error — the quantity the paper's Table 2 bounds.
#[derive(Debug)]
pub struct Oracle {
    algorithm: FvsstAlgorithm,
    clock: RoundClock,
    cache: ScheduleCache,
    proc_buf: Vec<ProcInput>,
}

impl Oracle {
    /// The oracle of a daemon built from `config`: its algorithm, ε, idle
    /// detection and rounds. Panics on what [`fvs_sched::FvsstScheduler`]
    /// refuses of them: an `n` of 0 and an ε that is NaN, infinite or
    /// negative.
    pub fn new(config: &SchedulerConfig) -> Self {
        let clock = RoundClock::new(config);
        config.algorithm.assert_valid_epsilon();
        Oracle {
            algorithm: config.algorithm.clone(),
            clock,
            // EXACT tolerance: the cache is a pure memoisation layer, so
            // the oracle's decisions stay bit-identical to a fresh run.
            cache: ScheduleCache::new(),
            proc_buf: Vec::new(),
        }
    }
}

impl Policy for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        if self.clock.tick(ctx.budget_w, ctx.idle).round.is_none() {
            return false;
        }
        self.proc_buf.clear();
        for i in 0..ctx.samples.len() {
            self.proc_buf.push(ProcInput {
                model: Some(ctx.ground_truth[i]),
                idle: ctx.idle[i],
                current: ctx.current[i],
            });
        }
        let n = ctx.samples.len();
        let d = self
            .algorithm
            .schedule_cached(&mut self.cache, &self.proc_buf, ctx.budget_w);
        out.freqs.clone_from(&d.freqs);
        out.desired.clone_from(&d.desired);
        out.powered_on.clear();
        out.powered_on.resize(n, true);
        true
    }

    fn wants_ground_truth(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::FreqMhz;
    use fvs_power::BudgetSchedule;
    use fvs_sched::ScheduledSimulation;
    use fvs_sim::{MachineBuilder, NoiseModel};
    use fvs_workloads::WorkloadSpec;

    #[test]
    fn oracle_matches_fvsst_on_steady_noiseless_workloads() {
        let build = || {
            MachineBuilder::p630()
                .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12))
                .workload(1, WorkloadSpec::synthetic(10.0, 1.0e12))
                .noise(NoiseModel::NONE)
                .build()
        };
        let config = SchedulerConfig::p630();
        let mut oracle_sim = ScheduledSimulation::with_policy(
            build(),
            Oracle::new(&config),
            BudgetSchedule::constant(f64::INFINITY),
            0.01,
        );
        oracle_sim.run_for(1.0);
        let machine = build();
        let mut fvsst_sim = ScheduledSimulation::new(machine, config);
        fvsst_sim.run_for(1.0);
        for i in 0..4 {
            assert_eq!(
                oracle_sim.machine().effective_frequency(i),
                fvsst_sim.machine().effective_frequency(i),
                "core {i}"
            );
        }
    }

    #[test]
    fn oracle_meets_budget() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(1, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(2, WorkloadSpec::synthetic(50.0, 1.0e12))
            .workload(3, WorkloadSpec::synthetic(20.0, 1.0e12))
            .build();
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            Oracle::new(&SchedulerConfig::p630()),
            BudgetSchedule::constant(294.0),
            0.01,
        );
        let report = sim.run_for(1.0);
        assert!(report.final_power_w <= 294.0);
        // The memory-bound core absorbed the cut; the CPU-bound cores
        // kept more frequency than a uniform 700 MHz cap would give.
        let f_mem = sim.machine().effective_frequency(3);
        assert!(f_mem <= FreqMhz(700));
    }
}
