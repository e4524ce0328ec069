//! Uniform frequency scaling under a budget.

use fvs_model::{FreqMhz, FrequencySet};
use fvs_power::FreqPowerTable;
use fvs_sched::{Decision, Policy, TickContext};

/// The highest frequency `f` in `set` such that `n · P(f) ≤ budget_w`,
/// or `None` when even the minimum does not fit.
pub fn uniform_cap_frequency(
    set: &FrequencySet,
    table: &FreqPowerTable,
    n: usize,
    budget_w: f64,
) -> Option<FreqMhz> {
    let per_core = budget_w / n as f64;
    table.max_freq_under(per_core).and_then(|f| {
        // `max_freq_under` works on the table's own grid, which equals
        // the schedulable set on this platform, but snap defensively.
        set.highest_at_most(f)
    })
}

/// Slows *all* cores to one shared frequency that fits the budget — the
/// simple alternative the paper's introduction contrasts with
/// workload-aware non-uniform slowdown. Ignores memory behaviour
/// entirely, so CPU-bound and memory-bound cores pay the same clock cut.
#[derive(Debug, Default)]
pub struct UniformScaling {
    last_budget: Option<f64>,
}

impl UniformScaling {
    /// New uniform-scaling policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for UniformScaling {
    fn name(&self) -> &str {
        "uniform-scaling"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        // Recompute only when the budget changes (the assignment is
        // workload-independent).
        if self.last_budget == Some(ctx.budget_w) {
            return false;
        }
        self.last_budget = Some(ctx.budget_w);
        let n = ctx.samples.len();
        let set = &ctx.platform.freq_set;
        let f = uniform_cap_frequency(set, &ctx.platform.power_table, n, ctx.budget_w)
            .unwrap_or_else(|| set.min());
        out.set_uniform(n, f);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_power::BudgetSchedule;
    use fvs_sched::ScheduledSimulation;
    use fvs_sim::MachineBuilder;
    use fvs_workloads::WorkloadSpec;

    #[test]
    fn cap_frequency_math() {
        let table = FreqPowerTable::p630_table1();
        let set = table.frequency_set();
        // 294 W over 4 cores = 73.5 W/core → 700 MHz (66 W).
        assert_eq!(
            uniform_cap_frequency(&set, &table, 4, 294.0),
            Some(FreqMhz(700))
        );
        // 560 W: full speed.
        assert_eq!(
            uniform_cap_frequency(&set, &table, 4, 560.0),
            Some(FreqMhz(1000))
        );
        // 20 W over 4 cores: under the 9 W floor.
        assert_eq!(uniform_cap_frequency(&set, &table, 4, 20.0), None);
    }

    #[test]
    fn meets_budget_but_hurts_cpu_bound_work() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(1, WorkloadSpec::synthetic(0.0, 1.0e12))
            .workload(2, WorkloadSpec::synthetic(0.0, 1.0e12))
            .workload(3, WorkloadSpec::synthetic(0.0, 1.0e12))
            .build();
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            UniformScaling::new(),
            BudgetSchedule::constant(294.0),
            0.01,
        );
        let report = sim.run_for(0.5);
        assert!(report.final_power_w <= 294.0);
        // All four cores at the same 700 MHz — including the CPU-bound
        // one that fvsst would have kept fast.
        for i in 0..4 {
            assert_eq!(sim.machine().effective_frequency(i), FreqMhz(700));
        }
    }

    #[test]
    fn recomputes_on_budget_change_only() {
        let machine = MachineBuilder::p630().build();
        let budget = BudgetSchedule::with_events(
            560.0,
            vec![fvs_power::BudgetEvent {
                at_s: 0.25,
                budget_w: 140.0,
            }],
        );
        let mut sim =
            ScheduledSimulation::with_policy(machine, UniformScaling::new(), budget, 0.01);
        let report = sim.run_for(0.5);
        assert_eq!(report.decisions, 2, "initial + one budget change");
        // 140 W / 4 = 35 W per core → 500 MHz.
        assert_eq!(sim.machine().effective_frequency(0), FreqMhz(500));
    }
}
