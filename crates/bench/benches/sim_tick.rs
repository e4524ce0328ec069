//! Core-tick throughput of the simulator substrate: the batched SoA
//! pass (`Machine::step`) against the scalar per-core reference stepper
//! (`MachineBuilder::reference_stepping`), at machine sizes from one
//! p630 to a 1024-core rack aggregate.
//!
//! Read `sim_tick_batched/<cores>` against `sim_tick_scalar/<cores>`
//! in criterion's output: the batched pass should clear 10x the
//! scalar stepper's core-ticks per second at 1024 cores.
//!
//! Both sides run the identical workload mix (looping synthetic bodies
//! across five intensities, huge budgets so nothing finishes) and the
//! identical semantics — `tests/batch_parity.rs` proves the two paths
//! agree (bit-identical under every-tick sampling, <=1e-12 relative for
//! deferred multi-tick windows), so this is a pure cost comparison.
//!
//! Three batched flavours are reported: the bare tick (uniform blocks
//! advance by a counter bump and commit their windows in closed form),
//! the every-tick-sampled loop (`step` + `sample_all_into`, which forces
//! k = 1 windows and a full materialisation pass per tick), and the
//! scheduled tick (`ScheduledSimulation::step_tick` under the paper's
//! configuration, sampling noise on, the budget cycling every 2.5
//! simulated seconds) — the whole of what a scheduled experiment, and
//! the repo benchmark's `sim_core_ticks_per_s`, pays per tick.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fvs_power::{BudgetEvent, BudgetSchedule};
use fvs_sched::{ScheduledSimulation, SchedulerConfig};
use fvs_sim::{Machine, MachineBuilder, NoiseModel};
use fvs_workloads::WorkloadSpec;

const CORE_COUNTS: [usize; 4] = [4, 64, 256, 1024];

fn builder(cores: usize) -> MachineBuilder {
    let mut b = MachineBuilder::p630().cores(cores);
    for i in 0..cores {
        b = b.workload(
            i,
            WorkloadSpec::synthetic((i % 5) as f64 * 25.0, 1.0e15).looping(),
        );
    }
    b
}

fn build_machine(cores: usize, reference: bool) -> Machine {
    let b = builder(cores).noise(NoiseModel::NONE);
    if reference {
        b.reference_stepping().build()
    } else {
        b.build()
    }
}

fn bench_sim_tick_batched(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_tick_batched");
    for cores in CORE_COUNTS {
        let mut machine = build_machine(cores, false);
        g.bench_with_input(BenchmarkId::from_parameter(cores), &(), |b, _| {
            b.iter(|| machine.step(0.01))
        });
    }
    g.finish();
}

fn bench_sim_tick_batched_sampled(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_tick_batched_sampled");
    for cores in CORE_COUNTS {
        let mut machine = build_machine(cores, false);
        let mut out = Vec::with_capacity(cores);
        g.bench_with_input(BenchmarkId::from_parameter(cores), &(), |b, _| {
            b.iter(|| {
                machine.step(0.01);
                machine.sample_all_into(&mut out);
            })
        });
    }
    g.finish();
}

fn bench_sim_tick_scheduled(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_tick_scheduled");
    for cores in CORE_COUNTS {
        // 100 % -> 25 % -> 35 % of full power, for longer than the
        // bench runs at any size.
        let full_w = cores as f64 * 140.0;
        let events = (1..=20_000)
            .map(|k| BudgetEvent {
                at_s: 2.5 * k as f64,
                budget_w: full_w * [0.25, 0.35, 1.0][(k - 1) % 3],
            })
            .collect();
        let config =
            SchedulerConfig::p630().with_budget(BudgetSchedule::with_events(full_w, events));
        let mut sim = ScheduledSimulation::new(builder(cores).build(), config).without_trace();
        g.bench_with_input(BenchmarkId::from_parameter(cores), &(), |b, _| {
            b.iter(|| sim.step_tick())
        });
    }
    g.finish();
}

fn bench_sim_tick_scalar(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_tick_scalar");
    // The reference stepper at 1024 cores is the slow side by design;
    // keep the sample count modest so the run stays short.
    g.sample_size(20);
    for cores in CORE_COUNTS {
        let mut machine = build_machine(cores, true);
        g.bench_with_input(BenchmarkId::from_parameter(cores), &(), |b, _| {
            b.iter(|| machine.step(0.01))
        });
    }
    g.finish();
}

criterion_group!(
    sim_tick,
    bench_sim_tick_batched,
    bench_sim_tick_batched_sampled,
    bench_sim_tick_scheduled,
    bench_sim_tick_scalar
);
criterion_main!(sim_tick);
