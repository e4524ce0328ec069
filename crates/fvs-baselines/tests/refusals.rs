//! The oracle and the ablation comparators refuse what the daemon they
//! are compared with refuses: a scheduling period of zero dispatch ticks
//! and an ε that is NaN, infinite or negative.

use fvs_baselines::{ContinuousIdeal, Oracle, RoundRobinDemotion};
use fvs_sched::SchedulerConfig;

#[test]
#[should_panic(expected = "n must be at least 1")]
fn an_oracle_of_zero_ticks_is_refused() {
    Oracle::new(&SchedulerConfig::p630().with_n(0));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn an_oracle_with_a_nan_epsilon_is_refused() {
    Oracle::new(&SchedulerConfig::p630().with_epsilon(f64::NAN));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn an_oracle_with_an_infinite_epsilon_is_refused() {
    Oracle::new(&SchedulerConfig::p630().with_epsilon(f64::INFINITY));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn an_oracle_with_a_negative_epsilon_is_refused() {
    Oracle::new(&SchedulerConfig::p630().with_epsilon(-0.01));
}

#[test]
#[should_panic(expected = "n must be at least 1")]
fn a_round_robin_comparator_of_zero_ticks_is_refused() {
    RoundRobinDemotion::new(4, &SchedulerConfig::p630().with_n(0));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn a_continuous_comparator_with_a_nan_epsilon_is_refused() {
    ContinuousIdeal::new(4, &SchedulerConfig::p630().with_epsilon(f64::NAN));
}

#[test]
fn a_zero_epsilon_is_legal() {
    let config = SchedulerConfig::p630().with_epsilon(0.0);
    Oracle::new(&config);
    RoundRobinDemotion::new(4, &config);
    ContinuousIdeal::new(4, &config);
}
