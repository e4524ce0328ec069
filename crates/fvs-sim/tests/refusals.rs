//! Inputs a machine cannot run with are refused up front, in every build
//! profile: a tick that never adds up to a run, a duration that is no
//! length of time, a settling time after which a request never takes
//! effect, a noise amplitude that is no scale factor, and a workload with
//! no phase to run.

use fvs_sim::{MachineBuilder, MachineConfig, NoiseModel};
use fvs_workloads::WorkloadSpec;

#[test]
#[should_panic(expected = "tick must be finite and positive")]
fn a_zero_tick_is_refused() {
    MachineBuilder::p630().build().run_for(1.0, 0.0);
}

/// A NaN or negative duration stepped zero times without a word; `+∞`
/// asked for `u64::MAX` steps.
#[test]
#[should_panic(expected = "duration must be finite and non-negative")]
fn a_nan_duration_is_refused() {
    MachineBuilder::p630().build().run_for(f64::NAN, 0.01);
}

#[test]
#[should_panic(expected = "duration must be finite and non-negative")]
fn a_negative_duration_is_refused() {
    MachineBuilder::p630().build().run_for(-5.0, 0.01);
}

#[test]
#[should_panic(expected = "duration must be finite and non-negative")]
fn an_infinite_duration_is_refused() {
    MachineBuilder::p630().build().run_for(f64::INFINITY, 0.01);
}

#[test]
#[should_panic(expected = "settle_s must be finite and non-negative")]
fn a_settling_time_that_never_ends_is_refused() {
    let _ = MachineBuilder::p630().dvfs_settling(f64::NAN);
}

/// A noise factor is drawn from `[1 − amp, 1 + amp]`; an amplitude that
/// is not a finite value in `[0, 1)` is no scale factor, and is refused
/// when the machine is built, not at its first sample.
#[test]
#[should_panic(expected = "noise amplitude must be finite and in [0, 1)")]
fn a_negative_noise_amplitude_is_refused() {
    let _ = MachineBuilder::p630()
        .noise(NoiseModel::uniform(-0.1))
        .build();
}

#[test]
#[should_panic(expected = "noise amplitude must be finite and in [0, 1)")]
fn a_nan_noise_amplitude_is_refused() {
    let _ = MachineBuilder::p630()
        .noise(NoiseModel::uniform(f64::NAN))
        .build();
}

#[test]
#[should_panic(expected = "noise amplitude must be finite and in [0, 1)")]
fn a_noise_amplitude_of_one_is_refused_through_the_config() {
    let mut config = MachineConfig::p630();
    config.noise = NoiseModel::uniform(1.0);
    let _ = MachineBuilder::p630().config(config).build();
}

/// An empty workload has no phase for the first step to index; a
/// workload the machine cannot run is refused when it is built, not by an
/// out-of-bounds panic (or, for phases retiring nothing, a step that
/// never returns) once it runs.
#[test]
#[should_panic(expected = "invalid workload for core 1")]
fn an_empty_workload_is_refused() {
    let _ = MachineBuilder::p630()
        .workload(1, WorkloadSpec::new("empty", Vec::new()))
        .build();
}

#[test]
#[should_panic(expected = "invalid workload for core 0")]
fn an_empty_workload_is_refused_on_assign() {
    let mut machine = MachineBuilder::p630().build();
    machine
        .core_mut(0)
        .assign(WorkloadSpec::new("empty", Vec::new()));
}
