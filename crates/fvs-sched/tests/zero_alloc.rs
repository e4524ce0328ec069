//! Counting-allocator proof of the scheduling paths' steady-state claim:
//! after warm-up, `schedule_with_scratch` and `schedule_cached` perform
//! zero heap allocations per call — and the traced variant adds nothing,
//! whether the tracer is disabled (one branch) or an enabled ring
//! (span records written in place into preallocated slots).
//!
//! Runs as a `harness = false` binary: libtest's runner waits on a
//! channel from the main thread while the test thread measures, and the
//! channel's lazy thread-local setup allocates at a timing-dependent
//! moment inside the measured window. A plain `main` keeps the whole
//! process single-threaded, so the allocation counters are exact.

use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{FvsstAlgorithm, ProcInput, ScheduleCache, ScheduleScratch};
use fvs_sim::MachineBuilder;
use fvs_telemetry::{SchedEvent, Telemetry, Tracer};
use fvs_workloads::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn mixed_procs(n: usize) -> Vec<ProcInput> {
    (0..n)
        .map(|i| ProcInput {
            model: (i % 17 != 0).then(|| {
                CpiModel::from_components(1.0 + (i % 7) as f64 * 0.1, (i % 11) as f64 * 1.0e-9)
            }),
            idle: i % 13 == 0,
            current: FreqMhz(1000),
        })
        .collect()
}

fn main() {
    let alg = FvsstAlgorithm::p630();
    let procs = mixed_procs(64);
    // Demotion-heavy: just above the 9 W/processor floor, so pass 2
    // walks nearly every processor down the whole table — the
    // demotion queue sees its maximum churn.
    let budget = 64.0 * 10.0;
    // A loose round sizes everything a binding round at the same `n`
    // uses: pass 2's queue is sized on every round, not on the first
    // one that demotes.
    let mut cache = ScheduleCache::new();
    alg.schedule_cached(&mut cache, &procs, f64::INFINITY);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let d = alg.schedule_cached(&mut cache, &procs, budget);
    assert!(d.demotions > 0, "budget must actually force demotions");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "a binding round after a loose warm-up allocated"
    );

    let mut scratch = ScheduleScratch::new();

    // Warm-up sizes every buffer (loss columns, queue, output vectors).
    for _ in 0..3 {
        alg.schedule_with_scratch(&mut scratch, &procs, budget);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..50 {
        let d = alg.schedule_with_scratch(&mut scratch, &procs, budget);
        assert!(d.feasible);
        assert!(d.demotions > 0, "budget must actually force demotions");
    }
    // Also vary the budget (different demotion counts, same shapes).
    for step in 0..50 {
        let d = alg.schedule_with_scratch(&mut scratch, &procs, budget + step as f64 * 40.0);
        std::hint::black_box(d.predicted_power_w);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state schedule_with_scratch allocated"
    );

    // A change of `n` costs one warm-up round and no more: the cache
    // behind the scratch re-sizes its columns once, and is then
    // allocation-free at the new count and back at the old one.
    let grown = mixed_procs(96);
    alg.schedule_with_scratch(&mut scratch, &grown, 96.0 * 10.0);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..20 {
        let d = alg.schedule_with_scratch(&mut scratch, &grown, 96.0 * 10.0);
        assert!(d.demotions > 0);
        let d = alg.schedule_with_scratch(&mut scratch, &procs, budget);
        assert!(d.demotions > 0);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "schedule_with_scratch allocated after a change of n"
    );

    // The cached path must also be allocation-free once warm — on
    // full hits (nothing at all runs), on budget changes (pass 2/3
    // rerun on the cached slots and loss columns), and on model
    // changes (per-processor rebuilds).
    let mut cache = ScheduleCache::new();
    let mut wobbled = procs.clone();
    for _ in 0..3 {
        alg.schedule_cached(&mut cache, &procs, budget);
        alg.schedule_cached(&mut cache, &wobbled, budget);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..50 {
        let d = alg.schedule_cached(&mut cache, &procs, budget);
        assert!(d.feasible);
    }
    for step in 0..50 {
        let d = alg.schedule_cached(&mut cache, &procs, budget + step as f64 * 40.0);
        std::hint::black_box(d.predicted_power_w);
    }
    for step in 0..50 {
        // Move every model far past any tolerance: full per-processor
        // rebuild, still allocation-free.
        for (i, p) in wobbled.iter_mut().enumerate() {
            p.model = procs[i].model.map(|m| {
                CpiModel::from_components(m.cpi0 + step as f64 * 0.5, m.mem_time_per_instr)
            });
        }
        let d = alg.schedule_cached(&mut cache, &wobbled, budget);
        std::hint::black_box(d.predicted_power_w);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "steady-state schedule_cached allocated");
    let stats = cache.stats();
    assert!(stats.full_hits >= 49, "expected full hits, got {stats:?}");

    // Telemetry enabled: journalling every demotion into a
    // preallocated memory ring and updating live instruments must
    // not allocate either — the emit path is lock-light atomics
    // plus in-place ring writes.
    let telemetry = Telemetry::memory(4096);
    let registry = telemetry.registry().expect("enabled");
    let scope = registry.scoped("sched");
    let rounds = scope.counter("rounds");
    let headroom = scope.gauge("budget_headroom_watts");
    let wall = scope.histogram("round_wall_s", &[1e-6, 1e-5, 1e-4, 1e-3]);
    // Warm: the ring is preallocated at construction, but let the
    // first emits touch every instrument once.
    for _ in 0..3 {
        let d = alg.schedule_cached(&mut cache, &procs, budget);
        std::hint::black_box(d.predicted_power_w);
        for rec in cache.demotion_log() {
            telemetry.emit(SchedEvent::Demotion {
                round: 0,
                proc: rec.proc as u32,
                from_mhz: rec.from.0,
                to_mhz: rec.to.0,
                predicted_loss: rec.predicted_loss,
                power_delta_w: rec.power_delta_w,
            });
        }
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for step in 0..50 {
        let budget_w = budget + (step % 7) as f64 * 40.0;
        let d = alg.schedule_cached(&mut cache, &procs, budget_w);
        let (feasible, power) = (d.feasible, d.predicted_power_w);
        rounds.inc();
        headroom.set(budget_w - power);
        wall.observe(1.0e-5);
        for rec in cache.demotion_log() {
            telemetry.emit(SchedEvent::Demotion {
                round: step,
                proc: rec.proc as u32,
                from_mhz: rec.from.0,
                to_mhz: rec.to.0,
                predicted_loss: rec.predicted_loss,
                power_delta_w: rec.power_delta_w,
            });
        }
        telemetry.emit(SchedEvent::RoundEnd {
            round: step,
            feasible,
            demotions: cache.demotion_log().len() as u32,
            predicted_power_w: power,
            budget_w,
            headroom_w: budget_w - power,
            wall_ns: 10_000,
        });
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "steady-state emit path allocated");
    assert!(
        telemetry.events_emitted() > 50,
        "events: {}",
        telemetry.events_emitted()
    );
    assert!(rounds.get() >= 50);

    // The causal-span path. Disabled: `span()` is a branch on a
    // `None` and nothing else. Enabled: opening a span bumps an Arc
    // refcount and closing writes a fixed-size record into a
    // preallocated ring slot — neither touches the allocator. The
    // ring wraps within the window (3 spans/round × 100 rounds into
    // 64 slots), so overwrite steady state is what's measured.
    let disabled = Tracer::disabled();
    let ring = Tracer::ring(64);
    for _ in 0..3 {
        alg.schedule_cached_traced(&mut cache, &procs, budget, &disabled);
        alg.schedule_cached_traced(&mut cache, &procs, budget, &ring);
    }
    let spans_before = ring.spans_recorded();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for step in 0..50 {
        let budget_w = budget + (step % 7) as f64 * 40.0;
        let d = alg.schedule_cached_traced(&mut cache, &procs, budget_w, &disabled);
        std::hint::black_box(d.predicted_power_w);
        let d = alg.schedule_cached_traced(&mut cache, &procs, budget_w, &ring);
        std::hint::black_box(d.predicted_power_w);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "steady-state traced schedule allocated");
    assert!(
        ring.spans_recorded() > spans_before + 50,
        "ring tracer must actually have recorded spans"
    );
    // Cluster scale, with the demotion queue's bucket occupancy moving
    // under it: every round every processor takes another of nine model
    // classes and the budget alternates between demotion-heavy and
    // loose, so no two rounds fill the same buckets or the same side
    // heap. One warm-up round at this processor count — on yet another
    // mix — must have sized everything.
    let alg = FvsstAlgorithm::p630();
    let n = 4096;
    let churned = |round: usize| -> Vec<ProcInput> {
        (0..n)
            .map(|i| ProcInput {
                model: (i % 29 != 0).then(|| {
                    let class = (i * 7 + round * 11) % 9;
                    CpiModel::from_components(1.0, class as f64 * 2.5e-9)
                }),
                idle: false,
                current: FreqMhz(1000),
            })
            .collect()
    };
    let rounds: Vec<Vec<ProcInput>> = (0..13).map(churned).collect();
    let budget = |round: usize| n as f64 * [30.0, 110.0][round % 2];
    let mut scratch = ScheduleScratch::new();
    let mut cache = ScheduleCache::new();
    alg.schedule_with_scratch(&mut scratch, &rounds[0], budget(1));
    alg.schedule_cached(&mut cache, &rounds[0], budget(1));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut demotions = 0;
    for (round, procs) in rounds.iter().enumerate().skip(1) {
        demotions += alg
            .schedule_with_scratch(&mut scratch, procs, budget(round))
            .demotions;
        demotions += alg
            .schedule_cached(&mut cache, procs, budget(round))
            .demotions;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "churning 4 096-processor rounds allocated"
    );
    assert!(
        demotions > 12 * n,
        "the tight rounds must demote: {demotions}"
    );

    // The substrate half of the daemon's hot loop: the batched SoA
    // machine tick plus the reused-buffer sample sweep the scheduler
    // consumes each round must be allocation-free once warm, with
    // frequency changes landing between measured ticks (the actuator
    // settle list and power cache update in place).
    let mut machine = MachineBuilder::p630()
        .workload(0, WorkloadSpec::synthetic(100.0, 1.0e15))
        .workload(1, WorkloadSpec::synthetic(20.0, 1.0e15))
        .workload(2, WorkloadSpec::synthetic(5.0, 1.0e15))
        .workload(3, WorkloadSpec::synthetic(0.5, 1.0e15))
        .build();
    let mut samples = Vec::with_capacity(machine.num_cores());
    let ladder = [1000u32, 850, 650, 450, 250];
    for k in 0..200 {
        machine.set_frequency(k % 4, FreqMhz(ladder[k % ladder.len()]));
        machine.step(0.01);
        machine.sample_all_into(&mut samples);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for k in 0..300 {
        machine.set_frequency(k % 4, FreqMhz(ladder[k % ladder.len()]));
        machine.step(0.01);
        machine.sample_all_into(&mut samples);
        std::hint::black_box(machine.total_power_w());
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "steady-state machine tick allocated");
    assert!(machine.total_energy_j() > 0.0);

    println!("zero_alloc: ok");
}
