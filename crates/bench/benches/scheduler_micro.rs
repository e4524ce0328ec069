//! Micro-benchmarks of the scheduler hot path: the costs a production
//! deployment pays every dispatch tick and every scheduling period.
//!
//! `schedule_two_pass` vs `schedule_reference` measures the production
//! pass 2 (flat loss rows, bucketed demotion queue, `O(n + d)` plus the
//! in-bucket sorts) against the naive full-rescan loop (`O(d·n)`),
//! under a demotion-heavy
//! budget drop where pass 2 dominates: read the two groups' medians at
//! the same size side by side in criterion's output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fvs_model::{
    counters::synthesize_delta, CpiModel, Estimator, FreqMhz, FrequencySet, MemoryLatencies,
    PerfLossTable,
};
use fvs_net::{ClusterConfig, ClusterSim};
use fvs_power::BudgetSchedule;
use fvs_sched::{FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache, ScheduleScratch};
use fvs_sim::MachineBuilder;
use fvs_workloads::WorkloadSpec;
use std::hint::black_box;

fn bench_estimator(c: &mut Criterion) {
    let est = Estimator::new(MemoryLatencies::P630);
    let model = CpiModel::from_components(1.2, 5.0e-9);
    let delta = synthesize_delta(&model, 0.01, 0.004, 0.012, 1.0e7, FreqMhz(1000));
    c.bench_function("estimator_fit", |b| {
        b.iter(|| est.estimate(black_box(&delta), FreqMhz(1000)).unwrap())
    });
}

fn bench_perf_loss_table(c: &mut Criterion) {
    let set = FrequencySet::p630();
    let model = CpiModel::from_components(1.2, 5.0e-9);
    c.bench_function("perf_loss_table_build", |b| {
        b.iter(|| PerfLossTable::build(black_box(&model), &set))
    });
}

/// The workload mix used by the scheduling-scale benchmarks: varied
/// models, a sprinkle of idle and unmodelled processors.
fn proc_mix(n_procs: usize) -> Vec<ProcInput> {
    (0..n_procs)
        .map(|i| ProcInput {
            model: (i % 17 != 0).then(|| {
                CpiModel::from_components(1.0 + (i % 7) as f64 * 0.1, (i % 11) as f64 * 1.0e-9)
            }),
            idle: i % 13 == 0,
            current: FreqMhz(1000),
        })
        .collect()
}

/// A budget-drop scenario where pass 2 dominates: just above the
/// 9 W/processor floor, so nearly every processor walks most of the way
/// down the frequency table (~14 demotion steps each).
fn demotion_heavy_budget(n_procs: usize) -> f64 {
    n_procs as f64 * 10.0
}

fn bench_schedule_scaling(c: &mut Criterion) {
    let alg = FvsstAlgorithm::p630();
    let mut g = c.benchmark_group("schedule_two_pass");
    for n_procs in [4usize, 16, 64, 256, 1024] {
        let procs = proc_mix(n_procs);
        let budget = demotion_heavy_budget(n_procs);
        let mut scratch = ScheduleScratch::new();
        g.bench_with_input(BenchmarkId::from_parameter(n_procs), &procs, |b, procs| {
            b.iter(|| {
                let d = alg.schedule_with_scratch(&mut scratch, black_box(procs), budget);
                black_box(d.demotions)
            })
        });
    }
    g.finish();
}

fn bench_schedule_cached(c: &mut Criterion) {
    // Steady state of the fingerprint cache: the same processor set and
    // budget every round, so after warm-up each call is a full hit that
    // returns the previous decision without rebuilding anything. Uses
    // the same mix and budget as `schedule_two_pass`, so the ratio of
    // the two medians at one size is the cache-hit speedup.
    let alg = FvsstAlgorithm::p630();
    let mut g = c.benchmark_group("schedule_cached_steady");
    for n_procs in [4usize, 16, 64, 256, 1024] {
        let procs = proc_mix(n_procs);
        let budget = demotion_heavy_budget(n_procs);
        let mut cache = ScheduleCache::new();
        for _ in 0..3 {
            alg.schedule_cached(&mut cache, &procs, budget);
        }
        g.bench_with_input(BenchmarkId::from_parameter(n_procs), &procs, |b, procs| {
            b.iter(|| {
                let d = alg.schedule_cached(&mut cache, black_box(procs), budget);
                black_box(d.demotions)
            })
        });
    }
    g.finish();
}

/// The other state of the cache, and the one the repo's own nodes put a
/// coordinator in (`fvs-net`'s
/// `simulated_nodes_move_every_model_every_round`): every processor's
/// model changes class on every call — rounds 0 and 1 of the repo
/// benchmark's `coord_churn` generator, alternating — so pass 1 rebuilds
/// every row and no call is a hit of any kind. `loose` (110 W/processor)
/// leaves pass 2 nothing to demote; `binding` (60) is demotion-heavy.
fn bench_schedule_cached_moved(c: &mut Criterion) {
    let alg = FvsstAlgorithm::p630();
    let mut g = c.benchmark_group("schedule_cached_moved");
    for n_procs in [256usize, 1024, 20_000] {
        let rounds = [0, 1].map(|round| -> Vec<ProcInput> {
            (0..n_procs)
                .map(|i| {
                    let class = (i / 4 * 7 + i % 4 * 3 + round * 11) % 9;
                    ProcInput {
                        model: Some(CpiModel::from_components(1.0, class as f64 * 2.5e-9)),
                        idle: false,
                        current: FreqMhz(1000),
                    }
                })
                .collect()
        });
        for (name, watts) in [("loose", 110.0), ("binding", 60.0)] {
            let budget = n_procs as f64 * watts;
            let mut cache = ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT);
            let mut round = 0;
            g.bench_with_input(BenchmarkId::new(name, n_procs), &rounds, |b, rounds| {
                b.iter(|| {
                    round ^= 1;
                    let d = alg.schedule_cached(&mut cache, black_box(&rounds[round]), budget);
                    black_box(d.demotions)
                })
            });
        }
    }
    g.finish();
}

fn bench_schedule_reference(c: &mut Criterion) {
    let alg = FvsstAlgorithm::p630();
    let mut g = c.benchmark_group("schedule_reference");
    for n_procs in [4usize, 16, 64, 256, 1024] {
        let procs = proc_mix(n_procs);
        let budget = demotion_heavy_budget(n_procs);
        g.bench_with_input(BenchmarkId::from_parameter(n_procs), &procs, |b, procs| {
            b.iter(|| alg.schedule_reference(black_box(procs), budget))
        });
    }
    g.finish();
}

fn bench_machine_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_step_10ms");
    for cores in [1usize, 4, 16] {
        let mut b = MachineBuilder::p630().cores(cores);
        for i in 0..cores {
            b = b.workload(
                i,
                WorkloadSpec::synthetic((i % 5) as f64 * 25.0, 1.0e15).looping(),
            );
        }
        let mut machine = b.build();
        g.bench_with_input(BenchmarkId::from_parameter(cores), &(), |bch, _| {
            bch.iter(|| machine.step(0.01))
        });
    }
    g.finish();
}

fn bench_cluster_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_tick");
    g.sample_size(10);
    for nodes in [8usize, 32, 128, 512, 1024] {
        // Budget forces real scheduling work every round (~70 W/core of
        // a 140 W/core unconstrained draw).
        let config =
            ClusterConfig::rack().with_budget(BudgetSchedule::constant(nodes as f64 * 4.0 * 70.0));
        let mut sim = ClusterSim::three_tier(nodes, 42, config);
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &(), |b, _| {
            b.iter(|| sim.step_tick())
        });
    }
    g.finish();
}

criterion_group!(
    micro,
    bench_estimator,
    bench_perf_loss_table,
    bench_schedule_scaling,
    bench_schedule_cached,
    bench_schedule_cached_moved,
    bench_schedule_reference,
    bench_machine_tick,
    bench_cluster_tick
);
criterion_main!(micro);
