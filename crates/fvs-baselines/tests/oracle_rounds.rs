//! The oracle rounds when the daemon does. Fed the same dispatch ticks —
//! the bootstrap, the timer, a budget change in mid-period and an idle
//! edge — `Oracle` and `FvsstScheduler`, built from one configuration,
//! decide on the same ticks, so the gap between them (Figure 4) is not
//! one of round phase.

use fvs_baselines::Oracle;
use fvs_model::counters::synthesize_delta;
use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{FvsstScheduler, PlatformView, Policy, SchedulerConfig, TickContext};

const CORES: usize = 2;
const TICK_S: f64 = 0.01;

/// The ticks (counted from 1) on which `policy` decided, over 40 ticks: a
/// budget of 200 W from tick 15, core 1 idle from tick 28. Each policy's
/// host applies what it commands.
fn decision_ticks(mut policy: impl Policy) -> Vec<u64> {
    let platform = PlatformView::p630();
    let model = CpiModel::from_components(1.0, 4.0e-9);
    let ground_truth = [model; CORES];
    let transitional = [false; CORES];
    let mut current = [FreqMhz(1000); CORES];
    let mut ticks = Vec::new();
    for tick in 1..=40u64 {
        let budget_w = if tick < 15 { f64::INFINITY } else { 200.0 };
        let idle = [false, tick >= 28];
        let samples = current.map(|f| {
            let instr = model.perf_at(f) * TICK_S;
            synthesize_delta(&model, 0.0, 0.0, 4.0e-9 / 393.0e-9, instr, f)
        });
        let ctx = TickContext {
            now_s: tick as f64 * TICK_S,
            tick,
            budget_w,
            measured_power_w: 0.0,
            samples: &samples,
            idle: &idle,
            transitional: &transitional,
            current: &current,
            ground_truth: &ground_truth,
            platform: &platform,
        };
        if let Some(d) = policy.on_tick(&ctx) {
            current.copy_from_slice(&d.freqs);
            ticks.push(tick);
        }
    }
    ticks
}

#[test]
fn the_oracle_decides_on_the_daemons_ticks() {
    let config = SchedulerConfig::p630();
    let oracle = decision_ticks(Oracle::new(&config));
    let daemon = decision_ticks(FvsstScheduler::new(CORES, config));
    // Bootstrap, timer, budget change, timer, idle edge, timer.
    assert_eq!(daemon, [1, 11, 15, 25, 28, 38]);
    assert_eq!(oracle, daemon);
}
