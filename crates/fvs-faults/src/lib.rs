//! Fault injection for the fvsst stack.
//!
//! The paper's hard requirement is that `Σ P(f_p) ≤ P_max` within `ΔT`
//! of any budget drop — *including* drops caused by a failed supply, and
//! *despite* the noisy counters and flaky actuation real DVFS stacks
//! face. This crate is the injecting side of that bargain: a declarative
//! [`FaultPlan`] (rates + scripted events) driven by a deterministic,
//! seedable [`FaultInjector`]. Counter corruption ([`CounterFaultKind`]:
//! NaN / spike / stuck / stale), actuation faults
//! ([`ActuationFaultKind`]: dropped / partial / delayed commands),
//! scripted node outages and supply faults (scripted budget drops), and
//! message faults: one model, [`WireFaultPlan::frame_fault`], for every
//! frame between a node and its coordinator, on a socket or on a
//! simulated wire. Same plan + same seed → byte-identical fault stream.
//!
//! The degradation ladder that answers it lives where each rung acts
//! (DESIGN.md §11): sample quarantine in `fvs_sched::Predictor::push`,
//! actuation retry and the fail-safe pin in `FvsstScheduler`,
//! conservative charging in `fvs_cluster::GlobalCoordinator`.
//!
//! A quiet injector answers every query with a single branch, so the
//! counting-allocator proofs in fvs-sched hold with the fault machinery
//! compiled in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod injector;
mod plan;
mod wire_plan;

pub use injector::{apply_counter_fault, ActuationFaultKind, CounterFaultKind, FaultInjector};
pub use plan::{BudgetDropSpec, FaultPlan, NodeOutageSpec, PlanParseError};
pub use wire_plan::{PartitionDirection, PartitionSpec, WireFaultPlan, WriteFault};
