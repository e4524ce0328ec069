//! Baseline power-management policies the paper compares against (or
//! mentions as the state of the art in its introduction and related
//! work):
//!
//! - [`NoDvfs`] — the non-fvsst reference system: every core pinned at
//!   `f_max` regardless of budget. Table 3's energy numbers are
//!   normalised against this.
//! - [`UniformScaling`] — "slowing all nodes in a system uniformly": the
//!   highest single frequency whose aggregate power fits the budget,
//!   applied to every core. The introduction's strawman.
//! - [`NodePowerDown`] — "powering down some nodes": cores are switched
//!   off (drawing nothing, computing nothing) until the remainder fit
//!   the budget at full speed.
//! - [`UtilizationDriven`] — a LongRun / Demand-Based-Switching stand-in
//!   (related work §3.1): frequency follows *utilization* (the idle
//!   signal), one step at a time, with no knowledge of memory behaviour;
//!   budget enforced by a uniform cap.
//! - [`Oracle`] — fvsst's pass structure fed with ground-truth models
//!   instead of counter estimates: the upper bound that isolates
//!   prediction error from algorithmic behaviour.
//! - [`RoundRobinDemotion`] and [`ContinuousIdeal`] — fvsst with its
//!   pass-2 order or its pass-1 rule swapped for the alternative the
//!   ablation experiment weighs it against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod no_dvfs;
pub mod oracle;
pub mod powerdown;
pub mod uniform;
pub mod utilization;

pub use ablation::{ContinuousIdeal, RoundRobinDemotion};
pub use no_dvfs::NoDvfs;
pub use oracle::Oracle;
pub use powerdown::NodePowerDown;
pub use uniform::{uniform_cap_frequency, UniformScaling};
pub use utilization::UtilizationDriven;
