//! Analytic performance model for frequency/voltage scheduling.
//!
//! This crate implements the prediction machinery of Kotla et al.,
//! *Scheduling Processor Voltage and Frequency in Server and Cluster
//! Systems* (2005), section 4: the decomposition of cycles-per-instruction
//! into a frequency-independent component and a frequency-dependent
//! memory-stall component, the `PerfLoss` metric that compares workload
//! performance across frequency settings, the continuous `f_ideal`
//! closed form of section 5, and the estimator that recovers model
//! parameters from hardware performance-counter deltas.
//!
//! The model is deliberately simple — it is the one the paper's `fvsst`
//! prototype ships. For a workload executing on a core at frequency `f`
//! (in Hz):
//!
//! ```text
//! CPI(f) = cpi0 + M · f
//! ```
//!
//! where `cpi0` (cycles/instruction) collects the perfect-machine term
//! `1/α` plus L1-cache stalls — everything that scales with the clock —
//! and `M` (seconds/instruction) is the total *time* per instruction spent
//! waiting on the L2, L3 and memory, which does **not** scale with the
//! clock. From `CPI(f)` follow `IPC(f) = 1/CPI(f)`, the throughput
//! `Perf(f) = IPC(f) · f` in instructions per second, and the saturation
//! behaviour that the whole scheduling approach exploits: as `f → ∞`,
//! `Perf(f) → 1/M`, so memory-bound work stops benefiting from frequency.
//!
//! # Quick example
//!
//! ```
//! use fvs_model::{CpiModel, FreqMhz, MemoryLatencies, AccessRates};
//!
//! let lat = MemoryLatencies::P630;
//! // A memory-hungry profile: 1 memory access per 100 instructions.
//! let rates = AccessRates { l2_per_instr: 0.01, l3_per_instr: 0.004, mem_per_instr: 0.01 };
//! let model = CpiModel::from_components(0.9, rates.stall_time_per_instr(&lat));
//!
//! let fast = model.perf_at(FreqMhz(1000));
//! let slow = model.perf_at(FreqMhz(650));
//! // Memory-bound work saturates: 65% of the clock keeps >85% of the speed.
//! assert!(slow / fast > 0.85);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod counters;
pub mod cpi;
pub mod freq;
pub mod ideal;
pub mod latency;
pub mod perfloss;
pub mod profile;
pub mod two_point;

pub use bounds::{BoundedCpiModel, LatencyBounds};
pub use counters::{CounterDelta, CounterWindow, EstimateError, Estimator};
pub use cpi::CpiModel;
pub use freq::{FreqMhz, FrequencySet, FrequencySetError};
pub use ideal::{ideal_frequency, ideal_frequency_hz};
pub use latency::MemoryLatencies;
pub use perfloss::{perf_loss, perf_loss_between, perf_loss_from, PerfLossTable};
pub use profile::{AccessRates, ExecutionProfile};
pub use two_point::{calibrate_two_point, Observation, TwoPointError};

/// Convenience alias: instructions per second.
pub type Ips = f64;
