//! The paper's headline claims, each as one integration test.

use fvsst::baselines::{NoDvfs, UniformScaling};
use fvsst::power::SupplyBank;
use fvsst::prelude::*;
use fvsst::sched::ScheduledSimulation as Sim;

/// §1/abstract: non-uniform slowdown loses less performance than uniform
/// slowdown at the same budget.
#[test]
fn non_uniform_beats_uniform_at_equal_budget() {
    let build = || {
        MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12).looping())
            .workload(1, WorkloadSpec::synthetic(15.0, 1.0e12).looping())
            .workload(2, WorkloadSpec::synthetic(15.0, 1.0e12).looping())
            .workload(3, WorkloadSpec::synthetic(15.0, 1.0e12).looping())
            .build()
    };
    let budget = 250.0;
    // Reference: unconstrained per-core progress.
    let mut reference = build();
    reference.run_for(3.0, 0.01);
    let full: Vec<f64> = (0..4)
        .map(|i| reference.core(i).stats().body_instructions)
        .collect();

    let progress = |report: &fvsst::sched::RunReport| -> f64 {
        report
            .body_instructions
            .iter()
            .zip(&full)
            .map(|(d, f)| (d / f).min(1.0))
            .sum::<f64>()
            / 4.0
    };

    let mut fvsst_sim = Sim::new(
        build(),
        SchedulerConfig::p630().with_budget(BudgetSchedule::constant(budget)),
    );
    let fvsst_report = fvsst_sim.run_for(3.0);

    let mut uniform_sim = Sim::with_policy(
        build(),
        UniformScaling::new(),
        BudgetSchedule::constant(budget),
        0.01,
    );
    let uniform_report = uniform_sim.run_for(3.0);

    assert!(fvsst_report.final_power_w <= budget);
    assert!(uniform_report.final_power_w <= budget);
    let p_fvsst = progress(&fvsst_report);
    let p_uniform = progress(&uniform_report);
    assert!(
        p_fvsst > p_uniform + 0.03,
        "fvsst {p_fvsst:.3} vs uniform {p_uniform:.3}"
    );
}

/// §2: the supply-failure deadline is met with fvsst and missed without.
#[test]
fn cascade_scenario_resolves_as_the_paper_describes() {
    let build = || {
        MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(80.0, 1.0e12).looping())
            .workload(1, WorkloadSpec::synthetic(50.0, 1.0e12).looping())
            .workload(2, WorkloadSpec::synthetic(20.0, 1.0e12).looping())
            .workload(3, WorkloadSpec::synthetic(5.0, 1.0e12).looping())
            .build()
    };
    let mut managed = Sim::new(build(), SchedulerConfig::p630())
        .with_supply_bank(SupplyBank::p630_scenario(1.0), 186.0);
    assert_eq!(managed.run_for(4.0).cascaded_at_s, None);

    let mut unmanaged = Sim::with_policy(
        build(),
        NoDvfs::new(),
        BudgetSchedule::constant(f64::INFINITY),
        0.01,
    )
    .with_supply_bank(SupplyBank::p630_scenario(1.0), 186.0);
    let when = unmanaged.run_for(4.0).cascaded_at_s.expect("must cascade");
    // Failure at 1.0 s + ΔT = 1.0 s tolerance → cascade at ≈ 2.0 s.
    assert!((when - 2.0).abs() < 0.05, "cascaded at {when}");
}

/// §4.1/Figure 1: performance saturation means a memory-bound workload
/// completes almost as fast at 650 MHz as at 1 GHz.
#[test]
fn performance_saturation_is_real_in_the_substrate() {
    let run_at = |mhz: u32| -> f64 {
        let mut m = MachineBuilder::p630()
            .cores(1)
            .workload(0, WorkloadSpec::synthetic(5.0, 2.0e8))
            .initial_frequency(FreqMhz(mhz))
            .build();
        while !m.core(0).is_finished() {
            m.step(0.001);
        }
        m.core(0).stats().completed_at_s.unwrap()
    };
    let slowdown = run_at(650) / run_at(1000);
    assert!(slowdown < 1.06, "650 MHz slowdown {slowdown}");
}

/// §5 worked example: the scheduler reproduces the published vectors.
#[test]
fn section5_worked_example_reproduces() {
    let r = fvsst::harness::experiments::example5::run();
    assert_eq!(
        r.at_t0.desired,
        vec![FreqMhz(1000), FreqMhz(700), FreqMhz(800), FreqMhz(800)]
    );
    assert_eq!(
        r.at_t0.freqs,
        vec![FreqMhz(900), FreqMhz(600), FreqMhz(700), FreqMhz(700)]
    );
    assert!((r.at_t0.predicted_power_w - 289.0).abs() < 1e-9);
    assert_eq!(r.at_t1.freqs, r.at_t1.desired);
    assert!((r.at_t1.predicted_power_w - 282.0).abs() < 1e-9);
}

/// §5: the idle pathology — without idle detection the Power4+ hot-idle
/// loop is scheduled at full speed; with it, at minimum.
#[test]
fn hot_idle_pathology_and_cure() {
    let run = |detect: bool| -> f64 {
        let machine = MachineBuilder::p630().build(); // all idle
        let config = SchedulerConfig::p630().with_idle_detection(detect);
        let mut sim = Sim::new(machine, config);
        sim.run_for(1.0).final_power_w
    };
    let cured = run(true);
    let sick = run(false);
    assert!(
        (cured - 36.0).abs() < 1e-6,
        "4 × 9 W at 250 MHz, got {cured}"
    );
    assert!(sick > 500.0, "hot idle at f_max, got {sick}");
}

/// §4.2: cluster tiers yield stable cross-node frequency diversity.
#[test]
fn cluster_tiers_develop_stable_diversity() {
    use fvsst::net::{ClusterConfig, ClusterSim};
    let mut sim = ClusterSim::three_tier(9, 11, ClusterConfig::rack());
    sim.run_for(3.0);
    let mhz_of = |i: usize| sim.node(i).machine().effective_frequency(0).0;
    // Nodes 0-2 web, 3-5 app, 6-8 db.
    let app_min = (3..6).map(mhz_of).min().unwrap();
    let db_max = (6..9).map(mhz_of).max().unwrap();
    assert!(
        app_min > db_max,
        "every app node ({app_min}+) should outclock every db node (≤{db_max})"
    );
}

/// Table 3 headline: at 35 W the memory-intensive applications keep far
/// more of their performance than the CPU-intensive ones.
#[test]
fn memory_apps_survive_tight_budgets_better() {
    use fvsst::harness::runs::{run_capped_app, RunSettings};
    use fvsst::workloads::AppBenchmark;
    let s = RunSettings::fast();
    let ratio = |app: AppBenchmark| -> f64 {
        let full = run_capped_app(app.workload(4.0e8), 140.0, &s, 600.0);
        let capped = run_capped_app(app.workload(4.0e8), 35.0, &s, 600.0);
        full.completion_s / capped.completion_s
    };
    let gzip = ratio(AppBenchmark::Gzip);
    let mcf = ratio(AppBenchmark::Mcf);
    assert!(mcf > gzip + 0.2, "mcf {mcf:.2} vs gzip {gzip:.2}");
}
