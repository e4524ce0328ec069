//! A scheduled tick must cost the same in the last hour of a run as in
//! the first: nothing on the per-tick path may scan what the run has
//! accumulated. The budget schedule is the obvious place to get that
//! wrong — `budget_at` is asked every tick, and a run's budget changes
//! number in the thousands — so the run here changes budget every 2.5 s.
//!
//! Timing, so `#[ignore]`d: CI's Sim-smoke runs it in release,
//! `cargo test --release -p fvs-sched --test tick_cost_flat -- --ignored`.

use fvs_power::{BudgetEvent, BudgetSchedule};
use fvs_sched::{ScheduledSimulation, SchedulerConfig};
use fvs_sim::MachineBuilder;
use fvs_workloads::SyntheticConfig;
use std::time::Instant;

const CORES: usize = 8;
const SIM_S: f64 = 3_000.0;
const BUDGET_GAP_S: f64 = 2.5;
const BATCH: usize = 1_000;

/// The managed machine at t = 0.
fn scheduled_run() -> ScheduledSimulation {
    let mut b = MachineBuilder::p630().cores(CORES);
    for i in 0..CORES {
        let spec = SyntheticConfig::single(10.0 + 12.0 * i as f64, 3.0e9)
            .body_only()
            .looping()
            .build();
        b = b.workload(i, spec);
    }
    let full_w = CORES as f64 * 140.0;
    let events = (1..)
        .map(|k| BudgetEvent {
            at_s: k as f64 * BUDGET_GAP_S,
            budget_w: full_w * [0.25, 0.35, 1.0][(k - 1) % 3],
        })
        .take_while(|e| e.at_s < SIM_S)
        .collect();
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::with_events(full_w, events));
    ScheduledSimulation::new(b.build(), config).without_trace()
}

/// Wall nanoseconds per tick over the next `BATCH` ticks.
fn batch_ns_per_tick(sim: &mut ScheduledSimulation) -> f64 {
    let t = Instant::now();
    for _ in 0..BATCH {
        sim.step_tick();
    }
    t.elapsed().as_nanos() as f64 / BATCH as f64
}

#[test]
#[ignore = "compares wall times; run in release"]
fn tick_cost_is_flat_in_run_length() {
    // Two copies of one run: `early` in its first quarter, `late` moved
    // up to its last. Their batches alternate, so a host that slows down
    // for a while slows both, and the best batch of each is what the
    // tick costs there when the host leaves it alone.
    let quarter = (SIM_S / 0.010).round() as usize / BATCH / 4;
    let (mut early, mut late) = (scheduled_run(), scheduled_run());
    for _ in 0..3 * quarter * BATCH {
        late.step_tick();
    }
    let (mut first, mut last) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..quarter {
        first = first.min(batch_ns_per_tick(&mut early));
        last = last.min(batch_ns_per_tick(&mut late));
    }
    println!("ns per tick: first quarter {first:.0}, last quarter {last:.0}");
    assert!(
        last <= 1.25 * first,
        "a tick costs {last:.0} ns in the last quarter of {SIM_S} simulated s, {first:.0} ns in the first"
    );
    assert!(late.report().decisions as f64 > SIM_S / BUDGET_GAP_S);
}
