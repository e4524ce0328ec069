//! Chaos proptests: arbitrary injected fault mixes must never leak a
//! non-finite number into a `ScheduleDecision`, must keep a dropped
//! budget honored after ΔT, and must cost *nothing* when the plan is
//! quiet (bit-identical output to the fault-free pipeline).

use fvs_faults::{apply_counter_fault, FaultInjector, FaultPlan};
use fvs_model::counters::{synthesize_delta, CounterDelta};
use fvs_model::{CpiModel, FreqMhz};
use fvs_power::BudgetSchedule;
use fvs_sched::{
    FvsstScheduler, PlatformView, Policy, ScheduledSimulation, SchedulerConfig, TickContext,
};
use fvs_sim::{Machine, MachineBuilder};
use fvs_telemetry::Telemetry;
use fvs_workloads::WorkloadSpec;
use proptest::prelude::*;

fn machine_with(intensities: [f64; 4], seed: u64) -> Machine {
    let mut b = MachineBuilder::p630().seed(seed);
    for (i, c) in intensities.iter().enumerate() {
        b = b.workload(i, WorkloadSpec::synthetic(*c, 1.0e12));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ΔT compliance under corrupted counters + a scripted budget drop
    /// (actuation healthy): whatever garbage the counters feed the
    /// model fit, the run must end strictly compliant with the
    /// *dropped* budget well after ΔT, and every reported number must
    /// be a number.
    #[test]
    fn corrupted_counters_still_meet_the_dropped_budget(
        counters in 0.0f64..0.6,
        drop_factor in 0.3f64..1.0,
        drop_at in 0.2f64..1.0,
        seed in any::<u64>(),
        hot in 20.0f64..120.0,
    ) {
        let plan = FaultPlan::parse(&format!(
            "counters={counters:.4},drop={drop_factor:.4}@{drop_at:.4}"
        )).unwrap();
        let machine = machine_with([hot, 60.0, 30.0, 10.0], seed);
        let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(560.0));
        let mut sim = ScheduledSimulation::new(machine, config)
            .without_trace()
            .with_faults(FaultInjector::new(plan, seed), Telemetry::disabled());
        // ΔT for the scheduler is 1 s; end the run comfortably past
        // drop + ΔT so compliance is required, not merely hoped for.
        let report = sim.run_for(drop_at + 1.5);
        let dropped_w = 560.0 * drop_factor;
        prop_assert!(
            report.final_power_w <= dropped_w + 1e-9,
            "final {} over dropped budget {dropped_w}",
            report.final_power_w
        );
        prop_assert!(report.final_power_w.is_finite());
        prop_assert!(report.avg_power_w.is_finite());
        prop_assert!(report.energy_j.is_finite());
        prop_assert!(report.peak_power_w.is_finite());
    }

    /// The full mix, actuation faults included. Continuous actuation
    /// failure makes instantaneous compliance unattainable — a round's
    /// demotion dropped on the final tick leaves measured power over
    /// budget until the next tick holds the processor at f_min — so the
    /// guarantee is *bounded recovery*: cumulative violation time stays
    /// a small fraction of the run (a command that has not landed is
    /// held at f_min from the next tick and charged by the next round),
    /// and any terminal overshoot is a single frequency step, never a
    /// runaway. (These 256 cases peak at 0.07 s violation and 4.1 W
    /// terminal overshoot; the bounds below have >5x margin.)
    #[test]
    fn actuation_chaos_recovers_within_the_retry_ladder(
        counters in 0.0f64..0.5,
        actuation in 0.05f64..0.5,
        drop_factor in 0.3f64..1.0,
        drop_at in 0.2f64..1.0,
        seed in any::<u64>(),
        hot in 20.0f64..120.0,
    ) {
        let plan = FaultPlan::parse(&format!(
            "counters={counters:.4},actuation={actuation:.4},drop={drop_factor:.4}@{drop_at:.4}"
        )).unwrap();
        let machine = machine_with([hot, 60.0, 30.0, 10.0], seed);
        let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(560.0));
        let mut sim = ScheduledSimulation::new(machine, config)
            .without_trace()
            .with_faults(FaultInjector::new(plan, seed), Telemetry::disabled());
        let report = sim.run_for(drop_at + 1.5);
        let dropped_w = 560.0 * drop_factor;
        prop_assert!(
            report.violation_s <= 0.5,
            "over budget {} s of a {} s run",
            report.violation_s,
            report.duration_s
        );
        prop_assert!(
            report.final_power_w <= dropped_w + 25.0,
            "terminal overshoot {} exceeds a single-step transient",
            report.final_power_w - dropped_w
        );
        prop_assert!(report.final_power_w.is_finite());
        prop_assert!(report.avg_power_w.is_finite());
        prop_assert!(report.energy_j.is_finite());
    }

    /// Acceptance (3): an empty `FaultPlan` is bit-identical to the
    /// fault-free pipeline — same energy, same power, same decision
    /// count, same switches — whatever seed the injector holds.
    #[test]
    fn empty_plan_is_bit_identical_to_no_injector(
        seed in any::<u64>(),
        hot in 20.0f64..120.0,
        budget in 200.0f64..600.0,
    ) {
        let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(budget));
        let mut plain =
            ScheduledSimulation::new(machine_with([hot, 60.0, 30.0, 10.0], seed), config)
                .without_trace();
        let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(budget));
        let mut quiet =
            ScheduledSimulation::new(machine_with([hot, 60.0, 30.0, 10.0], seed), config)
                .without_trace()
                .with_faults(
                    FaultInjector::new(FaultPlan::none(), seed),
                    Telemetry::disabled(),
                );
        let a = plain.run_for(0.8);
        let b = quiet.run_for(0.8);
        prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        prop_assert_eq!(a.final_power_w.to_bits(), b.final_power_w.to_bits());
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert_eq!(a.frequency_switches, b.frequency_switches);
        prop_assert_eq!(quiet.faults_injected(), 0);
    }

    /// The batched SoA machine and the scalar reference stepper drive
    /// the full faulted pipeline to matching reports: corruption (NaN
    /// rows, spikes, stales — whatever the plan rolls) rides on the
    /// sample stream, and the two steppers produce that stream
    /// bit-identically (every-tick sampling keeps deferred windows at
    /// one tick), so every downstream decision, switch and violation
    /// second matches exactly. Only the energy integrals may differ by
    /// a few ulp: between actuations a core's power is constant, and
    /// the batched machine commits those multi-tick accrual windows in
    /// closed form (≤1e-12 relative, see DESIGN.md §13).
    #[test]
    fn batched_and_reference_agree_under_faults(
        counters in 0.1f64..0.6,
        drop_factor in 0.3f64..1.0,
        seed in any::<u64>(),
        hot in 20.0f64..120.0,
    ) {
        let run = |reference: bool| {
            let mut b = MachineBuilder::p630().seed(seed);
            for (i, c) in [hot, 60.0, 30.0, 10.0].iter().enumerate() {
                b = b.workload(i, WorkloadSpec::synthetic(*c, 1.0e12));
            }
            if reference {
                b = b.reference_stepping();
            }
            let plan = FaultPlan::parse(&format!(
                "counters={counters:.4},drop={drop_factor:.4}@0.4"
            ))
            .unwrap();
            let config =
                SchedulerConfig::p630().with_budget(BudgetSchedule::constant(560.0));
            let mut sim = ScheduledSimulation::new(b.build(), config)
                .without_trace()
                .with_faults(FaultInjector::new(plan, seed), Telemetry::disabled());
            sim.run_for(1.2)
        };
        let a = run(false);
        let b = run(true);
        let rel = |x: f64, y: f64| (x - y).abs() <= 1.0e-12 * x.abs().max(y.abs()).max(1.0);
        prop_assert!(rel(a.energy_j, b.energy_j), "{} vs {}", a.energy_j, b.energy_j);
        prop_assert!(rel(a.avg_power_w, b.avg_power_w));
        prop_assert_eq!(a.final_power_w.to_bits(), b.final_power_w.to_bits());
        prop_assert_eq!(a.peak_power_w.to_bits(), b.peak_power_w.to_bits());
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert_eq!(a.frequency_switches, b.frequency_switches);
        prop_assert_eq!(a.violation_s.to_bits(), b.violation_s.to_bits());
    }

    /// Acceptance (2), asserted at the decision boundary itself: drive
    /// the scheduler directly with corrupted counter deltas and inspect
    /// every `ScheduleDecision` field — frequencies stay in the
    /// schedulable set, predictions stay finite, NaN never crosses.
    #[test]
    fn corrupted_samples_never_reach_a_decision(
        rate in 0.1f64..1.0,
        seed in any::<u64>(),
        budget in 150.0f64..600.0,
    ) {
        let plan = FaultPlan::parse(&format!("counters={rate:.4}")).unwrap();
        let mut inj = FaultInjector::new(plan, seed);
        let platform = PlatformView::p630();
        let set = SchedulerConfig::p630().algorithm.freq_set.clone();
        let mut s = FvsstScheduler::new(2, SchedulerConfig::p630());
        let model = CpiModel::from_components(1.0, 4.0e-9);
        let mem_rate = 4.0e-9 / 393.0e-9;
        let mut current = [FreqMhz(1000); 2];
        let mut prev = [CounterDelta::default(); 2];
        let idle = [false, false];
        let not_transitional = [false, false];
        let truth = [model; 2];
        for tick in 0..60u64 {
            let mut samples = [
                {
                    let instr = model.perf_at(current[0]) * 0.01;
                    synthesize_delta(&model, 0.0, 0.0, mem_rate, instr, current[0])
                },
                {
                    let instr = model.perf_at(current[1]) * 0.01;
                    synthesize_delta(&model, 0.0, 0.0, mem_rate, instr, current[1])
                },
            ];
            for (i, sample) in samples.iter_mut().enumerate() {
                let raw = *sample;
                if let Some(kind) = inj.counter_fault() {
                    apply_counter_fault(kind, sample, &prev[i]);
                }
                prev[i] = raw;
            }
            let ctx = TickContext {
                now_s: (tick + 1) as f64 * 0.01,
                tick,
                budget_w: budget,
                measured_power_w: 0.0,
                samples: &samples,
                idle: &idle,
                transitional: &not_transitional,
                current: &current,
                ground_truth: &truth,
                platform: &platform,
            };
            if let Some(d) = s.on_tick(&ctx) {
                prop_assert!(
                    s.last_decision().expect("a round ran").feasible,
                    "single-machine budget is generous"
                );
                for (i, f) in d.freqs.iter().enumerate() {
                    prop_assert!(set.contains(*f), "freq {} not schedulable", f);
                    prop_assert!(d.desired[i].0 > 0);
                    prop_assert!(
                        s.last_decision().expect("a round ran").predicted_ipc[i]
                            .is_none_or(f64::is_finite),
                        "NaN predicted_ipc at tick {tick}"
                    );
                    current[i] = *f;
                }
            }
        }
    }
}
