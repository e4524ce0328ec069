//! The delegation tree from its public surface: the rack's change
//! detector against the flat schedule cache, and which rack phases
//! leave the calling thread. The tree's decisions against the flat
//! coordinator's, budget drops and dead racks included, are
//! `hierarchy_differential`'s.

use fvs_cluster::hierarchy::RackCoordinator;
use fvs_cluster::{DelegationTree, GlobalCoordinator, HierTopology, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{FvsstAlgorithm, ModelTolerance};
use fvs_telemetry::{SpanRecord, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// True `percent` times in a hundred.
fn chance(rng: &mut StdRng, percent: u32) -> bool {
    rng.gen_range(0..100u32) < percent
}

/// What one simulated node would put in its next summary.
#[derive(Clone)]
struct NodeState {
    /// Memory time per instruction, in tolerance buckets, per processor.
    bucket: Vec<u64>,
    idle: Vec<bool>,
    current: Vec<FreqMhz>,
    /// Rounds of silence left (long ones outlive the heartbeat timeout).
    silent: usize,
}

impl NodeState {
    fn new(procs: usize) -> Self {
        NodeState {
            bucket: vec![50_000; procs],
            idle: vec![false; procs],
            current: vec![FreqMhz(1000); procs],
            silent: 0,
        }
    }

    /// Move the node on by one report. Returns whether `current` moved.
    fn mutate(&mut self, rng: &mut StdRng) -> bool {
        let current_before = self.current.clone();
        if chance(rng, 4) {
            *self = NodeState::new(3 - self.bucket.len()); // 1 ↔ 2 processors
        }
        for p in 0..self.bucket.len() {
            if chance(rng, 15) {
                self.bucket[p] = 20_000 * rng.gen_range(1..=5u64); // across buckets
            }
            if chance(rng, 10) {
                self.idle[p] = !self.idle[p];
            }
            if chance(rng, 10) {
                self.current[p] = FreqMhz(500 + 250 * rng.gen_range(0..3u32));
            }
        }
        self.current != current_before
    }

    fn summary(&self, node: usize, at: f64, rng: &mut StdRng) -> NodeSummary {
        let step = ModelTolerance::PHASE_DEFAULT.mem_step_s;
        let models = self
            .bucket
            .iter()
            .map(|b| match rng.gen_range(0..20u32) {
                0 => None,
                1 => Some(CpiModel::from_components(f64::NAN, 0.0)),
                // Wobble inside the bucket: ±0.3 of a step around its centre.
                k => Some(CpiModel::from_components(
                    1.0,
                    (*b as f64 + (k % 7) as f64 * 0.1 - 0.3) * step,
                )),
            })
            .collect();
        NodeSummary {
            node,
            sent_at_s: at,
            models,
            idle: self.idle.clone(),
            current: self.current.clone(),
            power_w: rng.gen_range(100.0..150.0), // never looked at
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The rack's detector (compare each summary with the one held) and
    /// the schedule cache's (compare each processor's key) must agree.
    /// A rack and a flat coordinator over the same four nodes are fed
    /// one random sequence — wobble inside a bucket, drift across
    /// buckets, idle flips, `current` changes, missing and invalid
    /// models, processor-count changes, stale and duplicate reports,
    /// silences short and long enough to die and recover — and the flat
    /// one computes every round, so its cache says what a computation
    /// would have found. Safety, for any sequence: whenever it rebuilt a
    /// processor or a node's liveness flipped, the rack ran. Exactness,
    /// when every node has at most one report accepted per round: the
    /// rack ran *only* then — or when a `current` frequency moved, which
    /// the rack counts for every processor and the cache only for
    /// unmodelled ones.
    #[test]
    fn rack_is_dirty_exactly_when_its_cache_would_rebuild(
        seed in any::<u64>(),
        one_report_per_round in any::<bool>(),
    ) {
        const NODES: usize = 4;
        const BASE: usize = 8;
        // Rounds every 0.1 s from t = 1: a deadline (last report + 0.35,
        // or + 0.12 after a stale first report) never lands on a round.
        const TIMEOUT_S: f64 = 0.35;
        let alg = FvsstAlgorithm::p630();
        let mut rack =
            RackCoordinator::new(alg.clone(), BASE, NODES).with_heartbeat_timeout(TIMEOUT_S);
        let mut flat = GlobalCoordinator::new(alg, NODES).with_heartbeat_timeout(TIMEOUT_S);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<NodeState> = (0..NODES).map(|n| NodeState::new(1 + n % 2)).collect();
        let dead = |c: &GlobalCoordinator| (0..NODES).map(|n| c.is_dead(n)).collect::<Vec<_>>();

        for round in 0..32 {
            let now = 1.0 + round as f64 * 0.1;
            let mut current_moved = false;
            for (n, node) in nodes.iter_mut().enumerate() {
                if node.silent > 0 {
                    node.silent -= 1;
                    continue;
                }
                if chance(&mut rng, 8) {
                    node.silent = rng.gen_range(1..=6);
                    continue;
                }
                let mut send = |state: &NodeState, at: f64, rng: &mut StdRng| {
                    let s = state.summary(n, at, rng);
                    let accepted = flat.ingest(s.clone());
                    let mut s = s;
                    s.node += BASE;
                    assert_eq!(rack.ingest(s), accepted);
                };
                if !one_report_per_round && chance(&mut rng, 20) {
                    // An extra report this round; the next may undo it.
                    let mut passing = node.clone();
                    passing.mutate(&mut rng);
                    let at = if chance(&mut rng, 50) { now } else { now - 0.23 };
                    send(&passing, at, &mut rng);
                }
                current_moved |= node.mutate(&mut rng);
                send(node, now, &mut rng);
                if chance(&mut rng, 10) {
                    // Older than the report just accepted: refused.
                    let mut late = node.clone();
                    late.mutate(&mut rng);
                    send(&late, now - 0.23, &mut rng);
                }
            }

            let (stats_before, dead_before) = (flat.cache_stats(), dead(&flat));
            flat.schedule(300.0, now);
            let would_change = flat.cache_stats().proc_rebuilds > stats_before.proc_rebuilds
                || dead(&flat) != dead_before;
            rack.refresh(now);
            rack.finalize(300.0);
            if would_change {
                prop_assert!(rack.ran(), "round {round}: the cache rebuilt, the rack skipped");
            } else if one_report_per_round && !current_moved {
                prop_assert!(!rack.ran(), "round {round}: nothing to rebuild, the rack ran");
            }
            prop_assert_eq!(rack.dead_nodes(), flat.dead_nodes(), "round {}", round);
        }
    }
}

/// Rack-phase spans of each round of `records`, oldest round first:
/// `(the round's own span, its hier.rack_refresh / hier.rack_finalize children)`.
fn rack_spans_by_round(records: &[SpanRecord]) -> Vec<(&SpanRecord, Vec<&SpanRecord>)> {
    let mut rounds: Vec<&SpanRecord> = records.iter().filter(|r| r.name == "hier.round").collect();
    rounds.sort_by_key(|r| r.start_ns);
    rounds
        .into_iter()
        .map(|round| {
            let racks = records
                .iter()
                .filter(|r| {
                    r.parent == round.id
                        && matches!(r.name, "hier.rack_refresh" | "hier.rack_finalize")
                })
                .collect();
            (round, racks)
        })
        .collect()
}

/// "No spawn without work", read off the product's own spans: a rack
/// phase leaves the calling thread only when at least
/// `parallel_threshold` (default 8) racks have work in it.
#[test]
fn rack_phases_fan_out_only_over_racks_with_work() {
    let nodes = 64; // 16 racks of 4: twice the default threshold
    let tracer = Tracer::ring(1 << 12);
    let mut tree = DelegationTree::new(
        FvsstAlgorithm::p630(),
        nodes,
        HierTopology::default().with_nodes_per_rack(4),
    )
    .with_heartbeat_timeout(f64::INFINITY)
    .with_tracer(tracer.clone());
    assert_eq!(tree.num_racks(), 16);
    let summary = |node: usize, mem: f64| NodeSummary {
        node,
        sent_at_s: 1.0,
        models: vec![Some(CpiModel::from_components(1.0, mem))],
        idle: vec![false],
        current: vec![FreqMhz(1000)],
        power_w: 140.0,
    };
    // Round 0: every rack cold. Round 1: everyone re-reports, nothing
    // moved. Round 2: one drifter. Round 3: every rack drifts.
    for (round, drifters) in [nodes, 0, 1, nodes].into_iter().enumerate() {
        for node in 0..nodes {
            let mem = if node < drifters {
                round as f64 * 5.0e-9
            } else {
                0.0
            };
            assert!(tree.ingest(summary(node, mem)));
        }
        // Unconstrained, so that a drifter moves no sub-budget but its
        // own rack's.
        tree.schedule(f64::INFINITY, 1.0);
    }
    assert_eq!(tracer.spans_dropped(), 0);
    let records = tracer.records();
    let rounds = rack_spans_by_round(&records);
    assert_eq!(rounds.len(), 4);
    let off_thread = |(round, racks): &(&SpanRecord, Vec<&SpanRecord>)| {
        racks.iter().filter(|r| r.tid != round.tid).count()
    };
    assert_eq!(rounds[1].1.len(), 0, "a skip-only round visits no rack");
    assert_eq!(
        rounds[2].1.len(),
        2,
        "one refresh and one finalize for the drifter's rack"
    );
    assert_eq!(
        off_thread(&rounds[2]),
        0,
        "one rack of work stays on the caller"
    );
    for all_dirty in [&rounds[0], &rounds[3]] {
        assert_eq!(all_dirty.1.len(), 32, "16 refreshes and 16 finalizes");
        if rayon::current_num_threads() > 1 {
            assert!(off_thread(all_dirty) > 0, "16 racks of work must fan out");
        }
    }
}
