//! Counting-allocator proof for the *whole* dispatch tick: once warm,
//! [`fvs_sched::ScheduledSimulation::step_tick`] under the (non-oracle)
//! fvsst scheduler performs zero heap allocations — sampling, trigger
//! handling, the cached scheduling computation, and decision application
//! all run out of reused buffers.
//!
//! The proof runs three ways: with telemetry disabled (the zero-cost
//! branch), with a preallocated in-memory ring sink plus live metrics —
//! the journal and the instruments must ride the hot path without
//! touching the allocator either — and with causal span tracing into a
//! preallocated ring, whose per-round `sched.round` / pass spans must
//! likewise stay off the allocator.
//!
//! Runs as a `harness = false` binary: libtest's runner waits on a
//! channel from the main thread while the test thread measures, and the
//! channel's lazy thread-local setup allocates at a timing-dependent
//! moment inside the measured window. A plain `main` keeps the whole
//! process single-threaded, so the allocation counters are exact.

use fvs_power::BudgetSchedule;
use fvs_sched::{ScheduledSimulation, SchedulerConfig};
use fvs_sim::{Machine, MachineBuilder, NoiseModel};
use fvs_telemetry::{Telemetry, Tracer};
use fvs_workloads::{SyntheticConfig, WorkloadSpec};
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

fn prove(label: &str, telemetry: Telemetry, tracer: Tracer) {
    // A mixed steady load: CPU-bound, memory-bound, and in-between, with
    // instruction budgets far beyond the run length so no workload
    // completes (completion edges are transitions, not steady state).
    let machine = MachineBuilder::p630()
        .workload(0, WorkloadSpec::synthetic(100.0, 1.0e15))
        .workload(1, WorkloadSpec::synthetic(20.0, 1.0e15))
        .workload(2, WorkloadSpec::synthetic(5.0, 1.0e15))
        .workload(3, WorkloadSpec::synthetic(0.5, 1.0e15))
        .build();
    // A finite budget keeps pass 2 demoting; the daemon is otherwise
    // configured as shipped.
    let config = SchedulerConfig::p630()
        .with_budget(BudgetSchedule::constant(294.0))
        .with_telemetry(telemetry.clone())
        .with_tracer(tracer.clone());
    let mut sim = ScheduledSimulation::new(machine, config).without_trace();

    // Warm-up: buffers size themselves, the residency histogram visits
    // every frequency the converged schedule touches, and the model
    // fingerprints settle inside the tolerance.
    for _ in 0..500 {
        sim.step_tick();
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..300 {
        sim.step_tick();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state step_tick allocated ({label})"
    );

    // The run must actually have been scheduling (not inert): decisions
    // kept firing and the cache saw the rounds.
    let report = sim.report();
    assert!(report.decisions >= 70, "decisions: {}", report.decisions);
    let stats = sim.policy().cache_stats();
    assert!(stats.rounds >= 70, "cache rounds: {:?}", stats);
    assert!(
        report.final_power_w <= 294.0,
        "budget held: {}",
        report.final_power_w
    );
    if telemetry.enabled() {
        // The journal must have been live during the measured window,
        // not silently dropped.
        assert!(
            telemetry.events_emitted() > 300,
            "telemetry recorded: {}",
            telemetry.events_emitted()
        );
    }
    if tracer.enabled() {
        // Same for the span ring: the measured rounds really traced.
        assert!(
            tracer.spans_recorded() >= 70,
            "spans recorded: {}",
            tracer.spans_recorded()
        );
    }
}

/// The batched SoA tick itself at cluster scale: a 256-core machine of
/// looping workloads (every loop wrap goes through the compacted
/// boundary-crosser list, so the slow path is continuously exercised)
/// must tick and sample without touching the allocator once warm, with
/// the sampling noise pass off and on.
fn prove_batched(noise: NoiseModel) {
    let mut b = MachineBuilder::p630().cores(256).noise(noise);
    for i in 0..256 {
        b = b.workload(
            i,
            SyntheticConfig::single((i % 5) as f64 * 25.0, 2.0e6)
                .body_only()
                .looping()
                .build(),
        );
    }
    let mut machine: Machine = b.build();
    let mut samples = Vec::with_capacity(machine.num_cores());

    for _ in 0..500 {
        machine.step(0.01);
        machine.sample_all_into(&mut samples);
    }
    let instr_before = machine.core(0).stats().total_instructions;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..300 {
        machine.step(0.01);
        machine.sample_all_into(&mut samples);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "batched tick allocated ({noise:?})");

    // The run was genuinely crossing phase boundaries, not idling on
    // the fast path the whole time: the measured window retired more
    // than a full 2e6-instruction loop body, i.e. at least one wrap.
    let retired = machine.core(0).stats().total_instructions - instr_before;
    assert!(
        retired > 2.0e6,
        "no boundary crossings in the measured window (retired {retired})"
    );
    assert!(machine.total_power_w() > 0.0);
}

fn main() {
    prove(
        "telemetry disabled",
        Telemetry::disabled(),
        Tracer::disabled(),
    );
    // The ring wraps in place once full, so a modest capacity still
    // exercises steady-state overwrites within the measured window.
    prove(
        "memory-ring telemetry",
        Telemetry::memory(4096),
        Tracer::disabled(),
    );
    // Both rings live: every round journals events *and* writes its
    // sched.round / pass spans, still without touching the allocator.
    prove(
        "span-ring tracing",
        Telemetry::memory(4096),
        Tracer::ring(256),
    );
    prove_batched(NoiseModel::NONE);
    prove_batched(NoiseModel::DEFAULT);
    println!("zero_alloc_tick: ok");
}
