//! A run length that is no length of time is refused by
//! `ClusterSim::run_for`, as by `ScheduledSimulation::run_for` and
//! `Machine::run_for`: a NaN or negative duration ran one tick without a
//! word, and `+∞` asked for `u64::MAX` ticks and never returned.

use fvs_net::{ClusterConfig, ClusterSim};

#[test]
#[should_panic(expected = "run_for duration must be finite and non-negative")]
fn a_nan_duration_is_refused() {
    ClusterSim::three_tier(2, 1, ClusterConfig::rack()).run_for(f64::NAN);
}

#[test]
#[should_panic(expected = "run_for duration must be finite and non-negative")]
fn a_negative_duration_is_refused() {
    ClusterSim::three_tier(2, 1, ClusterConfig::rack()).run_for(-5.0);
}

#[test]
#[should_panic(expected = "run_for duration must be finite and non-negative")]
fn an_infinite_duration_is_refused() {
    ClusterSim::three_tier(2, 1, ClusterConfig::rack()).run_for(f64::INFINITY);
}
