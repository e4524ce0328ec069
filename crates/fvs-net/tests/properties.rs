//! Property-based tests of the simulated cluster: random clusters
//! comply, and what its nodes report moves every model every round.

use fvs_net::{ClusterConfig, ClusterSim};
use fvs_power::BudgetSchedule;
use proptest::prelude::*;

// End-to-end cluster property: random three-tier clusters under random
// feasible budgets end up compliant.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_clusters_comply(
        nodes in 2usize..8,
        budget_frac in 0.2f64..0.9,
        seed in any::<u64>(),
    ) {
        let budget = nodes as f64 * 4.0 * 140.0 * budget_frac;
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(budget));
        let mut sim = ClusterSim::three_tier(nodes, seed, config);
        let report = sim.run_for(2.0);
        prop_assert!(
            report.final_power_w <= budget + 1e-9,
            "{} nodes at frac {budget_frac}: {} > {budget}",
            nodes,
            report.final_power_w
        );
    }
}

/// Which round is the ordinary one, measured on the repo's own nodes:
/// under default sampling noise a refitted model leaves its
/// `PHASE_DEFAULT` bucket almost every period, so the coordinator
/// rebuilds nearly every processor every round and never takes a full
/// hit (25 599 rebuilds of 25 600 chances and 0 full hits over 20 s of
/// this cluster; DESIGN §8). The flat round is tuned for that; a
/// change to the predictor, the noise model or the tolerance that makes
/// steady state the common case should fail here, by name, and re-open
/// that choice.
#[test]
fn simulated_nodes_move_every_model_every_round() {
    let mut sim = ClusterSim::three_tier(32, 3845, ClusterConfig::rack());
    sim.run_for(2.0);
    let warm = sim.coordinator().cache_stats();
    sim.run_for(5.0);
    let s = sim.coordinator().cache_stats();
    let rebuilds = s.proc_rebuilds - warm.proc_rebuilds;
    let hits = s.proc_hits - warm.proc_hits;
    assert!(s.rounds - warm.rounds >= 40, "{s:?}");
    assert!(
        rebuilds as f64 >= 0.9 * (hits + rebuilds) as f64,
        "{rebuilds} rebuilds against {hits} hits"
    );
    assert_eq!(s.full_hits, warm.full_hits);
}
