//! The `fvsst` frequency/voltage scheduler — the paper's contribution.
//!
//! Given per-processor performance-counter observations, a discrete
//! frequency set, a frequency→power table and a global power budget, the
//! scheduler assigns each processor the lowest frequency (and matching
//! minimum voltage) that
//!
//! 1. keeps that processor's predicted performance loss under `ε`
//!    whenever the budget allows (**pass 1**, the ε pass), and
//! 2. keeps *aggregate* power under the budget, shedding frequency where
//!    it predictably hurts least when it does not (**pass 2**, the budget
//!    pass), then
//! 3. looks up the minimum voltage for each chosen frequency
//!    (**pass 3**).
//!
//! The crate is layered exactly like the paper's prototype:
//!
//! - [`algorithm`] — the pure two-pass algorithm of Figure 3,
//!   independent of any simulator: feed it models, get a
//!   [`algorithm::ScheduleDecision`].
//! - [`predictor`] — per-core counter windows, model estimation, and the
//!   prediction-error tracking behind Table 2.
//! - [`policy`] — the [`policy::Policy`] trait every power-management
//!   policy (fvsst itself, and the baselines crate) implements, plus the
//!   dispatch-tick context.
//! - [`round_clock`] — [`RoundClock`]: when the daemon rounds. Timer
//!   trigger every `T = n·t`, immediate trigger on budget change, idle
//!   edges; the baselines' comparators and oracle read it too.
//! - [`scheduler`] — [`FvsstScheduler`]: the stateful daemon. Optional
//!   idle detection, actuation verification, daemon overhead accounting,
//!   and [`unlanded_charge_w`], what an unlanded command costs in the
//!   daemon and the cluster coordinator alike.
//! - [`sim_loop`] — [`ScheduledSimulation`]: drives a
//!   [`fvs_sim::Machine`] under any policy and produces a [`RunReport`]
//!   (energy, budget compliance, completion times, full trace).
//!
//! The crate spawns no thread: a host that wants the scheduler behind a
//! channel wraps [`FvsstScheduler`] itself, as
//! `examples/multithreaded_daemon.rs` does.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod feedback;
pub mod policy;
pub mod predictor;
pub mod round_clock;
pub mod scheduler;
pub mod sim_loop;

pub use algorithm::{
    CacheStats, DemotionRecord, FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache,
    ScheduleDecision, ScheduleScratch,
};
pub use feedback::FeedbackGuard;
pub use policy::{Decision, OverheadModel, PlatformView, Policy, TickContext};
pub use predictor::{ErrorStats, PredictionTracker, Predictor};
pub use round_clock::{RoundClock, Tick};
pub use scheduler::{unlanded_charge_w, FvsstScheduler, SchedulerConfig};
pub use sim_loop::{dispatch_ticks, RunReport, ScheduledSimulation};
