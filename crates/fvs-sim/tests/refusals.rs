//! Inputs that would leave a machine standing still are refused up
//! front: a tick that never adds up to a run, and a settling time after
//! which a request never takes effect.

use fvs_sim::MachineBuilder;

#[test]
#[should_panic(expected = "tick must be finite and positive")]
fn a_zero_tick_is_refused() {
    MachineBuilder::p630().build().run_for(1.0, 0.0);
}

#[test]
#[should_panic(expected = "settle_s must be finite and non-negative")]
fn a_settling_time_that_never_ends_is_refused() {
    let _ = MachineBuilder::p630().dvfs_settling(f64::NAN);
}
