//! The non-fvsst reference system.

use fvs_sched::{Decision, Policy, TickContext};

/// Pins every core at `f_max` forever — what a server without any power
/// management does. It never meets a reduced budget; experiments use it
/// as the performance/energy reference (Table 3 normalises against it)
/// and as the system that *cascades* in the supply-failure scenario.
#[derive(Debug, Default)]
pub struct NoDvfs {
    configured: bool,
}

impl NoDvfs {
    /// New reference policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for NoDvfs {
    fn name(&self) -> &str {
        "no-dvfs"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        if self.configured {
            return false;
        }
        self.configured = true;
        out.set_uniform(ctx.samples.len(), ctx.platform.freq_set.max());
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
    fn stays_at_fmax_and_violates_reduced_budget() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(20.0, 1.0e12))
            .build();
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            NoDvfs::new(),
            BudgetSchedule::constant(294.0),
            0.01,
        );
        let report = sim.run_for(0.5);
        assert_eq!(report.final_power_w, 560.0);
        assert!((report.violation_s - 0.5).abs() < 1e-9);
        assert_eq!(report.decisions, 1);
    }
}
