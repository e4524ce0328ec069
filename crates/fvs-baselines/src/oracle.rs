//! The ground-truth oracle: fvsst without prediction error.

use fvs_sched::{Decision, FvsstAlgorithm, Policy, ProcInput, ScheduleCache, TickContext};

/// Runs the exact two-pass fvsst algorithm, but feeds it the *ground
/// truth* timing model of whatever each core is executing right now
/// (delivered by the harness via `TickContext::ground_truth`) instead of
/// counter-window estimates. The gap between `Oracle` and
/// [`fvs_sched::FvsstScheduler`] is therefore pure prediction/sampling
/// error — the quantity the paper's Table 2 bounds.
#[derive(Debug)]
pub struct Oracle {
    algorithm: FvsstAlgorithm,
    period_ticks: u64,
    ticks: u64,
    last_budget: Option<f64>,
    cache: ScheduleCache,
    proc_buf: Vec<ProcInput>,
}

impl Oracle {
    /// Oracle with the same algorithm parameters and period as a given
    /// fvsst configuration.
    pub fn new(algorithm: FvsstAlgorithm, period_ticks: u64) -> Self {
        Oracle {
            algorithm,
            period_ticks: period_ticks.max(1),
            ticks: 0,
            last_budget: None,
            // EXACT tolerance: the cache is a pure memoisation layer, so
            // the oracle's decisions stay bit-identical to a fresh run.
            cache: ScheduleCache::new(),
            proc_buf: Vec::new(),
        }
    }

    /// The paper-default oracle ([`FvsstAlgorithm::p630`]: ε = 4.8 %,
    /// P630; every 10 ticks).
    pub fn p630() -> Self {
        Self::new(FvsstAlgorithm::p630(), 10)
    }
}

impl Policy for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        self.ticks += 1;
        let budget_changed = self
            .last_budget
            .map(|b| (b - ctx.budget_w).abs() > 1e-9)
            .unwrap_or(false);
        self.last_budget = Some(ctx.budget_w);
        // A round on the first tick, on every tick whose count is a
        // multiple of the period (ticks 1, 10, 20, … where the daemon
        // rounds at 1, 11, 21, …), and on a budget change, which does not
        // restart that count.
        if self.ticks > 1 && !budget_changed && !self.ticks.is_multiple_of(self.period_ticks) {
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
        let mut oracle_sim = ScheduledSimulation::with_policy(
            build(),
            Oracle::p630(),
            BudgetSchedule::constant(f64::INFINITY),
            0.01,
        );
        oracle_sim.run_for(1.0);
        let machine = build();
        let config = fvs_sched::SchedulerConfig::p630();
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
            Oracle::p630(),
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
