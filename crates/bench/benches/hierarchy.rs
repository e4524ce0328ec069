//! Hierarchy benchmarks: the steady-state incremental win of
//! per-subtree fingerprint skipping over the flat coordinator, at 10k
//! and 100k nodes.
//!
//! `hier_steady_state/{flat,hier}/{10000,100000}` is coordinator-only,
//! on synthetic input: pre-built summaries, warm caches, and four nodes
//! whose raw counters jitter every round without changing any decision
//! (the repo's own simulated nodes move every model every round —
//! `fvs-net` test `simulated_nodes_move_every_model_every_round`).
//! The flat coordinator pays its O(all processors) fingerprint sweep
//! every round; the tree re-runs only the drifters' racks and skips
//! every clean subtree. Read the `flat/<nodes>` median against
//! `hier/<nodes>` in criterion's output: their ratio is what the skip
//! buys when almost nothing re-reports.
//!
//! `hier_steady_state/{flat,hier}_reingest/...` is the other steady
//! state: the same drifters, but *every* node re-reports each round, as
//! a wire server sees it. Both coordinators then pay per summary, and
//! the tree earns its keep only if its comparison at ingest plus a
//! skip-only round costs no more than flat's ingest plus its sweep:
//! `hier_reingest/<nodes>` should read at or under
//! `flat_reingest/<nodes>`. The repo benchmark's `coord_steady`
//! workload times the same regime as `tree_round_p50_ms` against
//! `flat_round_p50_ms`, and the pipeline gates both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fvs_cluster::{DelegationTree, GlobalCoordinator, HierTopology, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::FvsstAlgorithm;
use std::hint::black_box;

const PROCS_PER_NODE: usize = 4;
/// Nodes whose raw counters jitter each round, spread one per rack.
const DRIFTERS: usize = 4;

/// A node summary drawn from five model classes (0–20 ns of memory time
/// per instruction) so demotion ladders coalesce the way a real mix
/// does. `jitter` perturbs one processor's memory time by 1 ps — far
/// past the model-tolerance quantum, so the per-processor cache must
/// refit it, but four orders of magnitude below anything that moves a
/// frequency decision.
fn summary(node: usize, at: f64, jitter: bool) -> NodeSummary {
    let mems: Vec<f64> = (0..PROCS_PER_NODE)
        .map(|p| {
            let base = ((node * 7 + p * 3) % 5) as f64 * 5.0e-9;
            if jitter && p == 0 {
                base + 1.0e-12
            } else {
                base
            }
        })
        .collect();
    NodeSummary {
        node,
        sent_at_s: at,
        models: mems
            .iter()
            .map(|m| Some(CpiModel::from_components(1.0, *m)))
            .collect(),
        idle: vec![false; PROCS_PER_NODE],
        current: vec![FreqMhz(1000); PROCS_PER_NODE],
        power_w: 140.0 * PROCS_PER_NODE as f64,
    }
}

/// What the steady-state rounds need of either coordinator.
trait Coordinator {
    fn ingest(&mut self, summary: NodeSummary);
    /// One scheduling round; the number of commands it emitted.
    fn round(&mut self, budget_w: f64) -> usize;
}

impl Coordinator for GlobalCoordinator {
    fn ingest(&mut self, summary: NodeSummary) {
        GlobalCoordinator::ingest(self, summary);
    }
    fn round(&mut self, budget_w: f64) -> usize {
        self.schedule(budget_w, 1.0).len()
    }
}

impl Coordinator for DelegationTree {
    fn ingest(&mut self, summary: NodeSummary) {
        DelegationTree::ingest(self, summary);
    }
    fn round(&mut self, budget_w: f64) -> usize {
        self.schedule(budget_w, 1.0).len()
    }
}

/// Warm `coord` on the quiet cluster, then time its steady rounds twice:
/// `<name>/<nodes>` re-ingests only the drifters, `<name>_reingest/<nodes>`
/// every node (summary construction included, the same on both sides).
fn bench_steady_rounds(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    nodes: usize,
    coord: &mut impl Coordinator,
) {
    let budget = nodes as f64 * PROCS_PER_NODE as f64 * 70.0;
    let stride = nodes / DRIFTERS;
    for n in 0..nodes {
        coord.ingest(summary(n, 1.0, false));
    }
    coord.round(budget);
    coord.round(budget);
    let mut i = 0u64;
    g.bench_with_input(BenchmarkId::new(name, nodes), &(), |b, _| {
        b.iter(|| {
            i += 1;
            for d in 0..DRIFTERS {
                coord.ingest(summary(d * stride, 1.0, i.is_multiple_of(2)));
            }
            black_box(coord.round(budget))
        })
    });
    let id = BenchmarkId::new(format!("{name}_reingest"), nodes);
    g.bench_with_input(id, &(), |b, _| {
        b.iter(|| {
            i += 1;
            for n in 0..nodes {
                let drifts = n % stride == 0 && n / stride < DRIFTERS;
                coord.ingest(summary(n, 1.0, drifts && i.is_multiple_of(2)));
            }
            black_box(coord.round(budget))
        })
    });
}

fn bench_hier_steady_state(c: &mut Criterion) {
    let alg = FvsstAlgorithm::p630();
    let mut g = c.benchmark_group("hier_steady_state");
    g.sample_size(10);
    for &nodes in &[10_000usize, 100_000] {
        // Flat baseline: every round sweeps all processors.
        let mut flat =
            GlobalCoordinator::new(alg.clone(), nodes).with_heartbeat_timeout(f64::INFINITY);
        bench_steady_rounds(&mut g, "flat", nodes, &mut flat);
        drop(flat);
        // Delegation tree: only the drifters' racks re-run.
        let mut tree = DelegationTree::new(alg.clone(), nodes, HierTopology::default())
            .with_heartbeat_timeout(f64::INFINITY);
        bench_steady_rounds(&mut g, "hier", nodes, &mut tree);
    }
    g.finish();
}

criterion_group!(hier, bench_hier_steady_state);
criterion_main!(hier);
