//! Discrete-time machine simulator: the experimental substrate.
//!
//! The paper's prototype ran on a 4-way Power4+ pSeries P630 with a
//! kernel patch for counter access and fetch throttling. This crate is
//! the synthetic equivalent: a machine whose cores execute
//! [`fvs_workloads::WorkloadSpec`]s under the analytic timing model of
//! [`fvs_model`], expose Power4+-style performance counters (with
//! configurable sampling noise), and accept frequency commands through
//! either a true-DVFS actuator with an optional settling time or a
//! duty-cycle fetch-throttle actuator.
//!
//! Everything the scheduler can *observe* or *actuate* on the real
//! machine has one narrow interface here, so the scheduling code in
//! `fvs-sched` is written exactly as the paper's daemon was: read counter
//! deltas each dispatch period `t`, run the algorithm every scheduling
//! period `T`, write frequency/voltage settings back.
//!
//! The simulator advances in fixed ticks ([`Machine::step`]). During a
//! tick each core's frequency is constant, so instruction counts, stall
//! counts and energy are exact integrals — no numerical drift to manage.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actuator;
mod bank;
pub mod core;
pub mod machine;
pub mod noise;
pub mod trace;

pub use crate::core::{CoreStats, PhaseCursor};
pub use actuator::ThrottlePowerModel;
pub use machine::{CoreView, CoreViewMut, Machine, MachineBuilder, MachineConfig};
pub use noise::NoiseModel;
pub use trace::{ResidencyHistogram, TraceRecorder, TraceSample};
