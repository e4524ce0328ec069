//! Utilization-driven DVFS (LongRun / Demand Based Switching stand-in).

use fvs_sched::{Decision, Policy, TickContext};

/// Frequency follows demand, one table step per period: busy cores step
/// up, idle cores step down. No memory-behaviour input whatsoever — the
/// paper's §3.1 point about LongRun/DBS is precisely that "neither one
/// makes any use of information about how efficiently the workload uses
/// the processor or about its memory behavior". A uniform budget cap is
/// applied on top so the comparison under power limits is fair.
#[derive(Debug, Default)]
pub struct UtilizationDriven {
    ticks: u64,
}

/// Dispatch ticks between adjustments (fvsst's default `n`).
const PERIOD_TICKS: u64 = 10;

impl Policy for UtilizationDriven {
    fn name(&self) -> &str {
        "utilization-dvfs"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(PERIOD_TICKS) {
            return false;
        }
        let set = &ctx.platform.freq_set;
        let table = &ctx.platform.power_table;
        let n = ctx.samples.len();
        // Budget → per-core uniform cap.
        let cap = crate::uniform::uniform_cap_frequency(set, table, n, ctx.budget_w)
            .unwrap_or_else(|| set.min());
        out.freqs.clear();
        for i in 0..n {
            let cur = ctx.current[i];
            let next = if ctx.idle[i] {
                set.step_down(cur).unwrap_or_else(|| set.min())
            } else {
                set.step_up(cur).unwrap_or_else(|| set.max())
            };
            out.freqs.push(next.min(cap));
        }
        out.desired.clone_from(&out.freqs);
        out.powered_on.clear();
        out.powered_on.resize(n, true);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::FreqMhz;
    use fvs_power::BudgetSchedule;
    use fvs_sched::ScheduledSimulation;
    use fvs_sim::MachineBuilder;
    use fvs_workloads::WorkloadSpec;

    #[test]
    fn busy_cores_ramp_up_idle_cores_ramp_down() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(0.0, 1.0e12)) // busy but memory-bound
            .initial_frequency(FreqMhz(600))
            .build();
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            UtilizationDriven::default(),
            BudgetSchedule::constant(f64::INFINITY),
            0.01,
        );
        sim.run_for(2.0);
        // The busy core climbed to f_max even though its work is
        // memory-bound — the strategy's blind spot.
        assert_eq!(sim.machine().effective_frequency(0), FreqMhz(1000));
        // The idle cores walked down to f_min.
        assert_eq!(sim.machine().effective_frequency(1), FreqMhz(250));
    }

    #[test]
    fn budget_cap_is_respected() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(1, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(2, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(3, WorkloadSpec::synthetic(100.0, 1.0e12))
            .build();
        let mut sim = ScheduledSimulation::with_policy(
            machine,
            UtilizationDriven::default(),
            BudgetSchedule::constant(294.0),
            0.01,
        );
        let report = sim.run_for(2.0);
        assert!(report.final_power_w <= 294.0);
        assert_eq!(sim.machine().effective_frequency(0), FreqMhz(700));
    }
}
