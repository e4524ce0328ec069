//! Closed-loop power enforcement: the measurement path of Figure 2.
//!
//! The two-pass algorithm enforces the budget against *table-predicted*
//! power. When the actuator's real consumption exceeds the table — the
//! honest fetch-throttling model is the canonical case, since throttling
//! cannot drop the voltage — open-loop scheduling settles above the
//! budget and stays there. The paper closes the loop: "The use of power
//! measurement to monitor the total power consumption ensures that the
//! system stays below the absolute limit. If necessary, the global limit
//! may contain a margin of safety that forces a downward adjustment of
//! frequency and voltage."
//!
//! [`FeedbackGuard`] implements that margin as an adaptive quantity
//! around any inner [`Policy`]: while measured power exceeds the budget
//! the margin grows by the overshoot (plus a step, quantised so the
//! inner scheduler isn't re-triggered by sub-watt dithering); when
//! measured power has been comfortably under budget for a hold-off
//! period the margin decays, recovering performance. The inner policy
//! simply sees a reduced budget — for [`crate::FvsstScheduler`] each
//! margin change lands as an ordinary budget-change trigger.

use crate::policy::{Decision, OverheadModel, Policy, TickContext};

/// Margin quantum (W): the margin moves in multiples of this, which also
/// acts as the re-trigger hysteresis.
const QUANTUM_W: f64 = 5.0;
/// Extra headroom added on top of the measured overshoot when growing the
/// margin (W).
const STEP_W: f64 = 5.0;
/// Consecutive over-budget ticks required before the margin grows. This
/// gives the inner scheduler its own reaction time (one or two dispatch
/// ticks) so transient overshoots — startup, a fresh budget drop — are
/// absorbed by ordinary scheduling rather than margin.
const GROW_HOLDOFF_TICKS: u32 = 3;
/// Consecutive compliant ticks (with at least `QUANTUM_W` of slack)
/// required before the margin decays one quantum.
const DECAY_HOLDOFF_TICKS: u32 = 50;
/// Upper bound on the margin (W).
const MAX_MARGIN_W: f64 = 500.0;

/// A policy wrapper enforcing the budget against *measured* power.
#[derive(Debug)]
pub struct FeedbackGuard<P: Policy> {
    inner: P,
    margin_w: f64,
    compliant_ticks: u32,
    overshoot_ticks: u32,
}

impl<P: Policy> FeedbackGuard<P> {
    /// Wrap `inner`.
    pub fn new(inner: P) -> Self {
        FeedbackGuard {
            inner,
            margin_w: 0.0,
            compliant_ticks: 0,
            overshoot_ticks: 0,
        }
    }

    /// The current safety margin (W).
    pub fn margin_w(&self) -> f64 {
        self.margin_w
    }
}

impl<P: Policy> Policy for FeedbackGuard<P> {
    fn name(&self) -> &str {
        // The guard is transparent in reports; the inner policy's name
        // with a marker would churn formats, so keep a stable label.
        "feedback-guard"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        if ctx.budget_w.is_finite() {
            let overshoot = ctx.measured_power_w - ctx.budget_w;
            if overshoot > 0.0 {
                self.compliant_ticks = 0;
                self.overshoot_ticks += 1;
                // Grow only once the inner scheduler has had its chance:
                // a persistent overshoot is model error, a transient one
                // is just scheduling latency.
                if self.overshoot_ticks >= GROW_HOLDOFF_TICKS {
                    let target = self.margin_w + overshoot + STEP_W;
                    let quantised = (target / QUANTUM_W).ceil() * QUANTUM_W;
                    self.margin_w = quantised.min(MAX_MARGIN_W);
                    self.overshoot_ticks = 0;
                }
            } else if -overshoot >= QUANTUM_W && self.margin_w > 0.0 {
                self.overshoot_ticks = 0;
                // Comfortably under: decay after the hold-off.
                self.compliant_ticks += 1;
                if self.compliant_ticks >= DECAY_HOLDOFF_TICKS {
                    self.margin_w = (self.margin_w - QUANTUM_W).max(0.0);
                    self.compliant_ticks = 0;
                }
            } else {
                self.compliant_ticks = 0;
                self.overshoot_ticks = 0;
            }
        }
        let adjusted = TickContext {
            now_s: ctx.now_s,
            tick: ctx.tick,
            budget_w: (ctx.budget_w - self.margin_w).max(0.0),
            measured_power_w: ctx.measured_power_w,
            samples: ctx.samples,
            idle: ctx.idle,
            transitional: ctx.transitional,
            current: ctx.current,
            ground_truth: ctx.ground_truth,
            platform: ctx.platform,
        };
        self.inner.decide(&adjusted, out)
    }

    fn wants_ground_truth(&self) -> bool {
        self.inner.wants_ground_truth()
    }

    fn overhead(&self) -> OverheadModel {
        self.inner.overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{FvsstScheduler, SchedulerConfig};
    use crate::sim_loop::ScheduledSimulation;
    use fvs_power::BudgetSchedule;
    use fvs_sim::{MachineBuilder, ThrottlePowerModel};
    use fvs_workloads::WorkloadSpec;

    fn honest_throttle_machine() -> fvs_sim::Machine {
        MachineBuilder::p630()
            .throttling(ThrottlePowerModel::DynamicOnly)
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(1, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(2, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(3, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .build()
    }

    #[test]
    fn open_loop_overshoots_on_honest_throttling() {
        // Fetch throttling cannot drop the voltage, so real power exceeds
        // the table and the open-loop scheduler settles over budget.
        let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
        let mut sim = ScheduledSimulation::new(honest_throttle_machine(), config).without_trace();
        let report = sim.run_for(3.0);
        assert!(
            report.final_power_w > 294.0,
            "expected overshoot, got {}",
            report.final_power_w
        );
    }

    #[test]
    fn feedback_guard_converges_to_compliance() {
        let config = SchedulerConfig::p630();
        let scheduler = FvsstScheduler::new(4, config);
        let guard = FeedbackGuard::new(scheduler);
        let mut sim = ScheduledSimulation::with_policy(
            honest_throttle_machine(),
            guard,
            BudgetSchedule::constant(294.0),
            0.01,
        )
        .without_trace();
        let report = sim.run_for(5.0);
        assert!(
            report.final_power_w <= 294.0,
            "final power {}",
            report.final_power_w
        );
        // The margin converged to something positive and the system
        // spent the tail of the run compliant.
        assert!(sim.policy().margin_w() > 0.0);
        assert!(
            report.violation_s < 1.0,
            "took too long to converge: {}s over budget",
            report.violation_s
        );
    }

    #[test]
    fn margin_decays_when_load_disappears() {
        let config = SchedulerConfig::p630();
        let guard = FeedbackGuard::new(FvsstScheduler::new(4, config));
        // Short workloads: cores go idle after ~0.3 s, power collapses,
        // and the margin should walk back down.
        let machine = MachineBuilder::p630()
            .throttling(ThrottlePowerModel::DynamicOnly)
            .workload(0, WorkloadSpec::synthetic(100.0, 3.0e8))
            .workload(1, WorkloadSpec::synthetic(100.0, 3.0e8))
            .workload(2, WorkloadSpec::synthetic(100.0, 3.0e8))
            .workload(3, WorkloadSpec::synthetic(100.0, 3.0e8))
            .build();
        let mut sim =
            ScheduledSimulation::with_policy(machine, guard, BudgetSchedule::constant(294.0), 0.01)
                .without_trace();
        sim.run_for(1.0);
        let mid_margin = sim.policy().margin_w();
        sim.run_for(8.0);
        let late_margin = sim.policy().margin_w();
        assert!(
            late_margin < mid_margin,
            "margin should decay: {mid_margin} → {late_margin}"
        );
    }

    #[test]
    fn guard_is_transparent_with_accurate_actuators() {
        // True DVFS: table power is exact, margin never grows.
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(50.0, 1.0e13).looping())
            .build();
        let guard = FeedbackGuard::new(FvsstScheduler::new(4, SchedulerConfig::p630()));
        let mut sim =
            ScheduledSimulation::with_policy(machine, guard, BudgetSchedule::constant(294.0), 0.01)
                .without_trace();
        let report = sim.run_for(2.0);
        assert_eq!(sim.policy().margin_w(), 0.0);
        assert!(report.final_power_w <= 294.0);
    }

    #[test]
    fn infinite_budget_disables_feedback() {
        let guard = FeedbackGuard::new(FvsstScheduler::new(4, SchedulerConfig::p630()));
        let mut sim = ScheduledSimulation::with_policy(
            honest_throttle_machine(),
            guard,
            BudgetSchedule::constant(f64::INFINITY),
            0.01,
        )
        .without_trace();
        sim.run_for(1.0);
        assert_eq!(sim.policy().margin_w(), 0.0);
    }
}
