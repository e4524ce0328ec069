//! Settings the daemon and its simulation cannot run with are refused up
//! front: a scheduling period of zero dispatch ticks, an ε that is no
//! tolerance, a compliance deadline that is NaN or negative, and a run
//! length or a completion limit that is no number of ticks (NaN,
//! negative, or an infinite limit that a looping workload never
//! reaches), and a supply bank attached after the faults, whose schedule
//! would discard the plan's drops. A deadline of `+∞` and an ε of 0 are
//! legal.

use fvs_faults::{FaultInjector, FaultPlan};
use fvs_power::SupplyBank;
use fvs_sched::{FvsstScheduler, ScheduledSimulation, SchedulerConfig};
use fvs_sim::MachineBuilder;
use fvs_telemetry::Telemetry;

fn daemon(config: SchedulerConfig) -> FvsstScheduler {
    FvsstScheduler::new(4, config)
}

#[test]
#[should_panic(expected = "n must be at least 1")]
fn a_scheduling_period_of_zero_ticks_is_refused() {
    daemon(SchedulerConfig::p630().with_n(0));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn a_nan_epsilon_is_refused() {
    daemon(SchedulerConfig::p630().with_epsilon(f64::NAN));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn an_infinite_epsilon_is_refused() {
    daemon(SchedulerConfig::p630().with_epsilon(f64::INFINITY));
}

#[test]
#[should_panic(expected = "epsilon must be finite and non-negative")]
fn a_negative_epsilon_is_refused() {
    daemon(SchedulerConfig::p630().with_epsilon(-0.01));
}

#[test]
#[should_panic(expected = "deadline_s must be non-negative")]
fn a_nan_deadline_is_refused() {
    daemon(SchedulerConfig::p630().with_deadline_s(f64::NAN));
}

#[test]
#[should_panic(expected = "deadline_s must be non-negative")]
fn a_negative_deadline_is_refused() {
    daemon(SchedulerConfig::p630().with_deadline_s(-1.0));
}

#[test]
fn an_infinite_deadline_and_a_zero_epsilon_are_legal() {
    let config = SchedulerConfig::p630()
        .with_epsilon(0.0)
        .with_deadline_s(f64::INFINITY);
    assert_eq!(daemon(config).schedules_run(), 0);
}

fn simulation() -> ScheduledSimulation<FvsstScheduler> {
    ScheduledSimulation::new(MachineBuilder::p630().build(), SchedulerConfig::p630())
}

#[test]
#[should_panic(expected = "run_for duration must be finite and non-negative")]
fn a_nan_run_length_is_refused() {
    simulation().run_for(f64::NAN);
}

#[test]
#[should_panic(expected = "run_for duration must be finite and non-negative")]
fn a_negative_run_length_is_refused() {
    simulation().run_for(-1.0);
}

#[test]
#[should_panic(expected = "run_to_completion max_s must be finite and non-negative")]
fn a_nan_completion_limit_is_refused() {
    simulation().run_to_completion(f64::NAN);
}

#[test]
#[should_panic(expected = "run_to_completion max_s must be finite and non-negative")]
fn a_negative_completion_limit_is_refused() {
    simulation().run_to_completion(-5.0);
}

#[test]
#[should_panic(expected = "run_to_completion max_s must be finite and non-negative")]
fn an_infinite_completion_limit_is_refused() {
    simulation().run_to_completion(f64::INFINITY);
}

#[test]
#[should_panic(expected = "attach the supply bank before the faults")]
fn a_supply_bank_attached_after_the_faults_is_refused() {
    let plan = FaultPlan::parse("drop=0.5@2.0").unwrap();
    simulation()
        .with_faults(FaultInjector::new(plan, 1), Telemetry::disabled())
        .with_supply_bank(SupplyBank::p630_scenario(1.0), 186.0);
}
