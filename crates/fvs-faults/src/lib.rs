//! Fault injection and graceful degradation for the fvsst stack.
//!
//! The paper's hard requirement is that `Σ P(f_p) ≤ P_max` within `ΔT`
//! of any budget drop — *including* drops caused by a failed supply, and
//! *despite* the noisy counters and flaky actuation real DVFS stacks
//! face. This crate provides both sides of that bargain:
//!
//! - **Injection**: a declarative [`FaultPlan`] (rates + scripted
//!   events) driven by a deterministic, seedable [`FaultInjector`].
//!   Counter corruption ([`CounterFaultKind`]: NaN / spike / stuck /
//!   stale), actuation faults ([`ActuationFaultKind`]: dropped /
//!   partial / delayed commands), scripted node outages and supply
//!   faults (scripted budget drops), and message faults: one model,
//!   [`WireFaultPlan::frame_fault`], for every frame between a node and
//!   its coordinator, on a socket or on a simulated wire. Same plan +
//!   same seed → byte-identical fault stream.
//! - **Degradation**: the [`SampleValidator`], first rung of the
//!   degradation ladder (quarantine → retry → fail-safe pin →
//!   conservative charging; see DESIGN.md §11), which refuses
//!   impossible counter samples; the predictor's last fit, fed only by
//!   the samples it let through, carries a processor through quarantine.
//!
//! Everything is zero-cost when quiet: a quiet injector answers every
//! query with a single branch, and the validator is branch-and-compare
//! arithmetic on preallocated state — the counting-allocator proofs in
//! fvs-sched continue to hold with the fault machinery compiled in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod injector;
mod plan;
mod validator;
mod wire_plan;

pub use injector::{apply_counter_fault, ActuationFaultKind, CounterFaultKind, FaultInjector};
pub use plan::{BudgetDropSpec, FaultPlan, NodeOutageSpec, PlanParseError};
pub use validator::{SampleValidator, SampleVerdict};
pub use wire_plan::{PartitionDirection, PartitionSpec, WireFaultPlan, WriteFault};
