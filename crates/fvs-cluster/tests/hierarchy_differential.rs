//! Differential property test: the budget-delegation tree must make the
//! same global decision as the flat coordinator it decomposes.
//!
//! Every case builds BOTH coordinators over the same rack-shaped
//! topology, feeds them identical summary streams — model drift, a root
//! budget drop, a node outage, and (in some cases) a dead rack
//! coordinator — and checks after every round that
//!
//! - both stay feasible and budget-compliant, and
//! - their conservative predicted totals agree within the loss the
//!   decomposition is allowed: one demotion step of rack-local
//!   undershoot plus one sub-budget grid quantum per rack.
//!
//! Once a rack coordinator dies the flat comparison stops being
//! meaningful (flat has no analogue of a blind rack), so the test
//! degrades to compliance-only: the tree must charge the dead rack
//! conservatively and keep the remainder under budget without stalling.

use fvs_cluster::hierarchy::SUBBUDGET_GRID_W;
use fvs_cluster::{DelegationTree, GlobalCoordinator, HierTopology, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::FvsstAlgorithm;
use proptest::prelude::*;

/// Memory-time-per-instruction palette the generated models draw from
/// (0 = CPU-bound, 20 ns = deeply memory-bound).
const MEMS: [f64; 5] = [0.0, 2.0e-9, 5.0e-9, 10.0e-9, 20.0e-9];
const ROUNDS: usize = 8;
const DT_S: f64 = 0.2;
const T0_S: f64 = 1.0;
/// The outaged node (when one is drawn) goes silent from this round on;
/// with the default 0.5 s heartbeat it is declared dead two rounds
/// later — by both coordinators in the same round.
const OUTAGE_ROUND: usize = 3;
/// The dead rack coordinator (when one is drawn) dies at this round.
const DEAD_RACK_ROUND: usize = 4;

fn summary(node: usize, at: f64, mems: &[f64]) -> NodeSummary {
    NodeSummary {
        node,
        sent_at_s: at,
        models: mems
            .iter()
            .map(|m| Some(CpiModel::from_components(1.0, *m)))
            .collect(),
        idle: vec![false; mems.len()],
        current: vec![FreqMhz(1000); mems.len()],
        power_w: 140.0 * mems.len() as f64,
    }
}

/// 1 or 2 processors per node, picked by a seed bit so the mix varies
/// across cases but stays fixed within one.
fn procs_of(node: usize, seed: u64) -> usize {
    1 + ((seed >> (node % 32)) & 1) as usize
}

/// Deterministic per-proc memory-boundedness; drifter nodes toggle
/// between two palette entries on odd rounds so their quantized model
/// fingerprints genuinely move.
fn mem_of(node: usize, proc_idx: usize, round: usize, seed: u64, drifters: usize) -> f64 {
    let base = ((node as u64)
        .wrapping_mul(7)
        .wrapping_add((proc_idx as u64).wrapping_mul(3))
        .wrapping_add(seed)
        % 5) as usize;
    if node < drifters && round % 2 == 1 {
        MEMS[(base + 2) % 5]
    } else {
        MEMS[base]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn tree_matches_flat_coordinator(
        nodes in 6usize..=20,
        nodes_per_rack in 2usize..=4,
        racks_per_row in 2usize..=3,
        budget_frac in 0.75f64..0.95,
        drop_factor in 0.7f64..0.95,
        drop_round in 2usize..5,
        drifters in 0usize..4,
        // The vendored proptest has no Option strategy: values in the
        // top half of the range mean "no outage" / "no dead rack".
        outage_raw in 0usize..64,
        dead_rack_raw in 0usize..64,
        seed in any::<u64>(),
    ) {
        let alg = FvsstAlgorithm::p630();
        let topology = HierTopology::default()
            .with_nodes_per_rack(nodes_per_rack)
            .with_racks_per_row(racks_per_row);
        let mut tree = DelegationTree::new(alg.clone(), nodes, topology);
        let mut flat = GlobalCoordinator::new(alg.clone(), nodes);
        let outage = (outage_raw < 32).then(|| outage_raw % nodes);
        let dead_rack = (dead_rack_raw < 32).then(|| dead_rack_raw % tree.num_racks());

        // Budget fractions are drawn high enough that the drill stays
        // feasible even with one charged node outage, so feasibility is
        // asserted (not assumed) below.
        let total_procs: usize = (0..nodes).map(|n| procs_of(n, seed)).sum();
        let base_budget_w = budget_frac * 140.0 * total_procs as f64;

        // The decomposition's permitted loss per rack: rack-local greedy
        // demotion can undershoot its sub-budget by up to one table step
        // (and loss-bucket ties can swap which step), plus the grid
        // quantum the sub-budget itself was floored to.
        let entries: Vec<(FreqMhz, f64)> = alg.power_table.iter().collect();
        let max_step_w = entries
            .windows(2)
            .map(|w| w[1].1 - w[0].1)
            .fold(0.0_f64, f64::max);
        let tol_w = tree.num_racks() as f64 * (2.0 * max_step_w + SUBBUDGET_GRID_W) + 1.0;

        let mut rack_dead = false;
        for round in 0..ROUNDS {
            let now = T0_S + round as f64 * DT_S;
            if let (Some(r), DEAD_RACK_ROUND) = (dead_rack, round) {
                tree.set_rack_online(r, false);
                rack_dead = true;
            }
            for node in 0..nodes {
                if outage == Some(node) && round >= OUTAGE_ROUND {
                    continue;
                }
                let mems: Vec<f64> = (0..procs_of(node, seed))
                    .map(|p| mem_of(node, p, round, seed, drifters))
                    .collect();
                let s = summary(node, now, &mems);
                flat.ingest(s.clone());
                tree.ingest(s);
            }
            let budget_w = if round >= drop_round {
                base_budget_w * drop_factor
            } else {
                base_budget_w
            };
            flat.schedule(budget_w, now);
            tree.schedule(budget_w, now);
            let flat_total = flat.schedule_cache().decision().predicted_power_w + flat.reserved_w();
            let tree_total = tree.predicted_power_w();

            if !rack_dead {
                prop_assert!(
                    flat.schedule_cache().decision().feasible,
                    "round {round}: flat infeasible (budget {budget_w})"
                );
                prop_assert!(tree.feasible(), "round {round}: tree infeasible (budget {budget_w})");
                prop_assert!(
                    flat_total <= budget_w + 1e-6,
                    "round {round}: flat over budget ({flat_total} > {budget_w})"
                );
                prop_assert!(
                    tree_total <= budget_w + 1e-6,
                    "round {round}: tree over budget ({tree_total} > {budget_w})"
                );
                prop_assert!(
                    (flat_total - tree_total).abs() <= tol_w,
                    "round {round}: flat {flat_total} vs tree {tree_total} exceeds tol {tol_w}"
                );
            } else {
                // Flat has no notion of a dead rack coordinator; the
                // tree must stay conservative on its own whenever the
                // charge still fits.
                if tree.feasible() {
                    prop_assert!(
                        tree_total <= budget_w + 1e-6,
                        "round {round}: dead-rack tree over budget ({tree_total} > {budget_w})"
                    );
                }
            }
        }
        // The tree never stalled: it delegated every round.
        prop_assert_eq!(tree.rounds(), ROUNDS as u64);
    }
}

/// The rack phases' parallel branch, which the cases above reach only
/// when a draw has eight racks or more: ten racks, every one dirty every
/// round and the default `parallel_threshold`, against the same tree
/// held to the calling thread and against the flat coordinator.
#[test]
fn parallel_rack_phases_match_sequential_ones_and_flat() {
    let alg = FvsstAlgorithm::p630();
    let (nodes, seed) = (40, 0x5eed);
    let topology = HierTopology::default()
        .with_nodes_per_rack(4)
        .with_racks_per_row(4);
    let mut parallel = DelegationTree::new(alg.clone(), nodes, topology);
    let mut sequential =
        DelegationTree::new(alg.clone(), nodes, topology).with_parallel_threshold(usize::MAX);
    let mut flat = GlobalCoordinator::new(alg, nodes);
    assert_eq!(parallel.num_racks(), 10);
    let total_procs: usize = (0..nodes).map(|n| procs_of(n, seed)).sum();
    for round in 0..ROUNDS {
        let now = T0_S + round as f64 * DT_S;
        for node in 0..nodes {
            // Every node a drifter: all ten racks recompute each round.
            let mems: Vec<f64> = (0..procs_of(node, seed))
                .map(|p| mem_of(node, p, round, seed, nodes))
                .collect();
            let s = summary(node, now, &mems);
            flat.ingest(s.clone());
            sequential.ingest(s.clone());
            parallel.ingest(s);
        }
        // A drop halfway, so the finalize phase has ten racks of work too.
        let budget_w = if round < 4 { 0.9 } else { 0.7 } * 140.0 * total_procs as f64;
        flat.schedule(budget_w, now);
        assert_eq!(
            parallel.schedule(budget_w, now),
            sequential.schedule(budget_w, now),
            "round {round}"
        );
        assert_eq!(parallel.stats(), sequential.stats(), "round {round}");
        assert_eq!(parallel.stats().rack_runs, 10 * (round as u64 + 1));
        assert!(parallel.feasible());
        let flat_total = flat.schedule_cache().decision().predicted_power_w + flat.reserved_w();
        assert!(flat_total <= budget_w + 1e-6);
        assert!(parallel.predicted_power_w() <= budget_w + 1e-6);
    }
}
