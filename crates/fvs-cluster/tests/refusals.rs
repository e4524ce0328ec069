//! Settings a coordinator cannot charge with are refused when it is
//! built, as `CoordinatorConfig::validate` refuses them on the wire: a
//! heartbeat timeout that is NaN or not positive, and a worst-case node
//! charge that is not a finite, non-negative power. A timeout of `+∞`
//! (every node that has reported stays live) is legal. An ε the SMP
//! daemon refuses is refused by the coordinator too, by the same check.

use fvs_cluster::{GlobalCoordinator, NodeSummary, RackCoordinator};
use fvs_sched::FvsstAlgorithm;

fn coordinator() -> GlobalCoordinator {
    GlobalCoordinator::new(FvsstAlgorithm::p630(), 1)
}

#[test]
#[should_panic(expected = "heartbeat timeout must be positive")]
fn a_nan_heartbeat_timeout_is_refused() {
    let _ = coordinator().with_heartbeat_timeout(f64::NAN);
}

#[test]
#[should_panic(expected = "heartbeat timeout must be positive")]
fn a_zero_heartbeat_timeout_is_refused() {
    let _ = coordinator().with_heartbeat_timeout(0.0);
}

#[test]
#[should_panic(expected = "heartbeat timeout must be positive")]
fn a_rack_passes_its_heartbeat_timeout_to_the_same_check() {
    let _ = RackCoordinator::new(FvsstAlgorithm::p630(), 0, 1).with_heartbeat_timeout(-1.0);
}

#[test]
#[should_panic(expected = "worst-case node charge must be finite and non-negative")]
fn a_nan_worst_case_charge_is_refused() {
    let _ = coordinator().with_worst_case_node_w(f64::NAN);
}

#[test]
#[should_panic(expected = "worst-case node charge must be finite and non-negative")]
fn an_infinite_worst_case_charge_is_refused() {
    let _ = coordinator().with_worst_case_node_w(f64::INFINITY);
}

#[test]
#[should_panic(expected = "worst-case node charge must be finite and non-negative")]
fn a_negative_worst_case_charge_is_refused() {
    let _ = coordinator().with_worst_case_node_w(-1.0);
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn a_nan_epsilon_is_refused() {
    let mut algorithm = FvsstAlgorithm::p630();
    algorithm.epsilon = f64::NAN;
    let _ = GlobalCoordinator::new(algorithm, 1);
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn a_rack_passes_its_epsilon_to_the_same_check() {
    let mut algorithm = FvsstAlgorithm::p630();
    algorithm.epsilon = -0.01;
    let _ = RackCoordinator::new(algorithm, 0, 1);
}

/// An infinite timeout keeps a node that reported once live, and a zero
/// worst case charges a node never heard from nothing.
#[test]
fn an_infinite_timeout_and_a_zero_worst_case_are_legal() {
    let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2)
        .with_heartbeat_timeout(f64::INFINITY)
        .with_worst_case_node_w(0.0);
    c.ingest(NodeSummary {
        node: 0,
        sent_at_s: 0.0,
        power_w: 140.0,
        ..NodeSummary::default()
    });
    c.schedule(100.0, 1.0e9);
    assert_eq!(
        (c.live_nodes(), c.dead_nodes(), c.reserved_w()),
        (1, 0, 0.0)
    );
}
