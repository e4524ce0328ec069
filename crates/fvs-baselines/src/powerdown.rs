//! Node power-down under a budget.

use fvs_sched::{Decision, Policy, TickContext};

/// Switches whole cores off, highest index first, until the remaining
/// cores fit the budget at full speed — the "power down some nodes"
/// alternative of the paper's abstract. Work on a powered-down core
/// simply stops (migration is what clusters can't do, which is the
/// paper's premise).
#[derive(Debug, Default)]
pub struct NodePowerDown {
    last_budget: Option<f64>,
}

impl NodePowerDown {
    /// New power-down policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for NodePowerDown {
    fn name(&self) -> &str {
        "node-powerdown"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        if self.last_budget == Some(ctx.budget_w) {
            return false;
        }
        self.last_budget = Some(ctx.budget_w);
        let n = ctx.samples.len();
        let f_max = ctx.platform.freq_set.max();
        let p_max = ctx.platform.power_table.max_power();
        // How many cores fit at full speed?
        let fit = ((ctx.budget_w / p_max).floor() as usize).min(n);
        out.set_uniform(n, f_max);
        for i in fit..n {
            out.powered_on[i] = false;
        }
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
    fn powers_down_to_fit_budget() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(1, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(2, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(3, WorkloadSpec::synthetic(100.0, 1.0e12))
            .build();
        // 294 W fits two cores at 140 W, not three.
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            NodePowerDown::new(),
            BudgetSchedule::constant(294.0),
            0.01,
        );
        let report = sim.run_for(0.5);
        assert!(report.final_power_w <= 294.0);
        assert_eq!(report.final_power_w, 280.0, "two cores at 140 W");
        // Cores 2 and 3 stopped after the first dispatch tick (the
        // policy decides at the end of tick 0), so they retired at most
        // one tick's worth of work while core 0 ran the whole time.
        let one_tick_work = report.body_instructions[0] / 49.0;
        assert!(report.body_instructions[2] <= one_tick_work * 1.01);
        assert!(report.body_instructions[3] <= one_tick_work * 1.01);
        assert!(report.body_instructions[0] > 40.0 * report.body_instructions[2]);
    }

    #[test]
    fn full_budget_keeps_everything_on() {
        let machine = MachineBuilder::p630().build();
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            NodePowerDown::new(),
            BudgetSchedule::constant(560.0),
            0.01,
        );
        let report = sim.run_for(0.2);
        assert_eq!(report.final_power_w, 560.0);
    }
}
