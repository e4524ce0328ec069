//! End-to-end integration tests across the whole crate stack: machine
//! substrate + scheduler + power models together.

use fvsst::power::BudgetEvent;
use fvsst::prelude::*;

fn diverse_machine() -> Machine {
    MachineBuilder::p630()
        .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12).looping())
        .workload(1, WorkloadSpec::synthetic(75.0, 1.0e12).looping())
        .workload(2, WorkloadSpec::synthetic(40.0, 1.0e12).looping())
        .workload(3, WorkloadSpec::synthetic(10.0, 1.0e12).looping())
        .build()
}

#[test]
fn budget_is_enforced_end_to_end() {
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    let report = sim.run_for(2.0);
    assert!(report.final_power_w <= 294.0);
    // Only the bootstrap tick may be over budget.
    assert!(
        report.violation_s <= 0.02,
        "violated {}s",
        report.violation_s
    );
}

#[test]
fn diversity_is_exploited_not_flattened() {
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    sim.run_for(2.0);
    let f: Vec<u32> = (0..4)
        .map(|i| sim.machine().effective_frequency(i).0)
        .collect();
    // Strictly non-increasing with memory intensity, with a wide spread.
    assert!(f[0] >= f[1] && f[1] >= f[2] && f[2] >= f[3], "{f:?}");
    assert!(f[0] - f[3] >= 400, "spread too small: {f:?}");
}

#[test]
fn sudden_budget_drop_is_honored_within_two_ticks() {
    let budget = BudgetSchedule::with_events(
        560.0,
        vec![BudgetEvent {
            at_s: 1.0,
            budget_w: 200.0,
        }],
    );
    let config = SchedulerConfig::p630().with_budget(budget);
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    let report = sim.run_for(2.0);
    assert!(report.final_power_w <= 200.0);
    // The drop lands mid-run; the scheduler reacts on the next dispatch
    // tick (10 ms), so the violation window is at most ~2 ticks.
    assert!(
        report.violation_s <= 0.03,
        "violated {}s",
        report.violation_s
    );
}

#[test]
fn budget_restoration_ramps_frequencies_back_up() {
    // Power supply repaired: budget goes 200 W → 560 W at t = 1 s; the
    // CPU-bound core must climb back toward its ε-frequency.
    let budget = BudgetSchedule::with_events(
        200.0,
        vec![BudgetEvent {
            at_s: 1.0,
            budget_w: 560.0,
        }],
    );
    let config = SchedulerConfig::p630().with_budget(budget);
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    sim.run_for(0.9);
    let constrained = sim.machine().effective_frequency(0);
    sim.run_for(1.1);
    let restored = sim.machine().effective_frequency(0);
    assert!(
        restored > constrained,
        "core 0 should ramp back: {constrained} → {restored}"
    );
    assert!(restored >= FreqMhz(950));
}

#[test]
fn steady_workloads_cause_few_frequency_switches() {
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    let report = sim.run_for(3.0);
    // 300 ticks → 30 timer decisions × 4 cores = 120 potential
    // switches; a stable scheduler converges and mostly re-confirms.
    assert!(
        report.frequency_switches < 40,
        "too twitchy: {} switches",
        report.frequency_switches
    );
    assert!(report.frequency_switches >= 4, "it must have moved at all");
}

#[test]
fn energy_savings_materialize_without_a_budget() {
    // Unconstrained: fvsst still saves energy on memory-bound work.
    let config = SchedulerConfig::p630();
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    let report = sim.run_for(2.0);
    let flat_out = 560.0 * report.duration_s;
    assert!(
        report.energy_j < 0.70 * flat_out,
        "energy {} J vs flat-out {} J",
        report.energy_j,
        flat_out
    );
}

#[test]
fn infeasible_budget_floors_at_minimum_frequencies() {
    // 20 W across 4 cores is below the 36 W floor of Table 1.
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(20.0));
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    let report = sim.run_for(1.0);
    for i in 0..4 {
        assert_eq!(sim.machine().effective_frequency(i), FreqMhz(250));
    }
    assert!((report.final_power_w - 36.0).abs() < 1e-9);
}

#[test]
fn workload_completion_switches_core_to_minimum() {
    // One short workload, three idle cores; after completion all four
    // should sit at f_min thanks to idle detection.
    let machine = MachineBuilder::p630()
        .workload(0, WorkloadSpec::synthetic(100.0, 2.0e8))
        .build();
    let mut sim = ScheduledSimulation::new(machine, SchedulerConfig::p630());
    let report = sim.run_for(2.0);
    assert!(report.completed_at_s[0].is_some());
    for i in 0..4 {
        assert_eq!(sim.machine().effective_frequency(i), FreqMhz(250));
    }
}

#[test]
fn drifting_workloads_stay_tracked_and_compliant() {
    use fvsst::workloads::SyntheticConfig;
    // Every core's memory behaviour drifts ±40% across loop iterations;
    // the scheduler must keep re-fitting and keep the budget.
    let drifting = |intensity: f64| {
        SyntheticConfig::single(intensity, 5.0e7)
            .body_only()
            .looping()
            .build()
            .with_drift(0.4)
    };
    let machine = MachineBuilder::p630()
        .workload(0, drifting(90.0))
        .workload(1, drifting(60.0))
        .workload(2, drifting(35.0))
        .workload(3, drifting(10.0))
        .build();
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
    let mut sim = ScheduledSimulation::new(machine, config);
    let report = sim.run_for(3.0);
    assert!(report.final_power_w <= 294.0);
    assert!(
        report.violation_s <= 0.05,
        "violated {}s",
        report.violation_s
    );
    // Prediction error grows under drift but stays bounded (drift is
    // slow relative to T).
    for i in 0..4 {
        let err = sim.policy().error_stats(i).mean_abs();
        assert!(err < 0.15, "core {i}: mean |ΔIPC| {err}");
    }
}

#[test]
fn trace_supports_figure_queries() {
    let config = SchedulerConfig::p630();
    let mut sim = ScheduledSimulation::new(diverse_machine(), config);
    sim.run_for(1.0);
    let trace = sim.trace();
    assert_eq!(trace.len(), 400, "100 ticks x 4 cores");
    let series = trace.frequency_series(3);
    assert_eq!(series.len(), 100);
    let residency = trace.requested_residency(3);
    assert!(residency.total() > 0.0);
    // The memory-bound core's requested frequencies concentrate low.
    assert!(residency.mean_mhz() < 500.0);
}

/// The scheduler hosted by hand — no `ScheduledSimulation` — the way a
/// §6 daemon loop would: sample, `on_tick`, apply.
#[test]
fn scheduler_daemon_thread_integrates_with_machine() {
    use fvsst::sched::{PlatformView, Policy, TickContext};

    let mut machine = diverse_machine();
    let platform = PlatformView::p630();
    let mut scheduler = FvsstScheduler::new(4, SchedulerConfig::p630());
    let mut applied = 0;
    for tick in 0..50u64 {
        machine.step(0.01);
        let samples = machine.sample_all();
        let idle: Vec<bool> = (0..4).map(|i| machine.idle_signal(i)).collect();
        let current: Vec<_> = (0..4)
            .map(|i| machine.core(i).requested_frequency())
            .collect();
        let ctx = TickContext {
            now_s: machine.now_s(),
            tick,
            budget_w: 294.0,
            measured_power_w: machine.total_power_w(),
            samples: &samples,
            idle: &idle,
            transitional: &[false; 4],
            current: &current,
            ground_truth: &[],
            platform: &platform,
        };
        if let Some(decision) = scheduler.on_tick(&ctx) {
            for (i, f) in decision.freqs.iter().enumerate() {
                machine.set_frequency(i, *f);
            }
            applied += 1;
        }
    }
    assert!(applied >= 5);
    assert_eq!(scheduler.schedules_run(), applied);
    assert!(machine.total_power_w() <= 294.0);
}
