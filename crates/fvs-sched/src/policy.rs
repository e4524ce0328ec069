//! The policy interface every power-management strategy implements.
//!
//! [`crate::sim_loop::ScheduledSimulation`] drives a machine tick by tick
//! and consults a [`Policy`] each dispatch period. The fvsst scheduler
//! and every baseline in `fvs-baselines` are `Policy` implementations,
//! so experiments can swap strategies without touching the harness.

use fvs_model::{CounterDelta, CpiModel, FreqMhz, FrequencySet, MemoryLatencies};
use fvs_power::{FreqPowerTable, VoltageTable};
use serde::{Deserialize, Serialize};

/// Immutable platform facts a policy may consult.
#[derive(Debug, Clone)]
pub struct PlatformView {
    /// Schedulable frequencies.
    pub freq_set: FrequencySet,
    /// Frequency→power table.
    pub power_table: FreqPowerTable,
    /// Voltage table.
    pub voltage_table: VoltageTable,
    /// Memory latencies (for estimation).
    pub latencies: MemoryLatencies,
}

impl PlatformView {
    /// The P630 platform.
    pub fn p630() -> Self {
        let power_table = FreqPowerTable::p630_table1();
        PlatformView {
            freq_set: power_table.frequency_set(),
            power_table,
            voltage_table: VoltageTable::p630(),
            latencies: MemoryLatencies::P630,
        }
    }
}

/// Everything a policy sees on one dispatch tick.
#[derive(Debug)]
pub struct TickContext<'a> {
    /// Simulation time at the *end* of the tick (s).
    pub now_s: f64,
    /// Dispatch tick index (0-based).
    pub tick: u64,
    /// The global power budget currently in force (W).
    pub budget_w: f64,
    /// Measured aggregate processor power over the tick (W) — the
    /// "power measurement" input of the paper's Figure 2. Policies that
    /// close the loop (e.g. [`crate::feedback::FeedbackGuard`]) compare
    /// it against `budget_w`; the open-loop scheduler ignores it.
    pub measured_power_w: f64,
    /// Per-core counter deltas over the tick (noise applied).
    pub samples: &'a [CounterDelta],
    /// Per-core idle signals.
    pub idle: &'a [bool],
    /// Per-core ground-truth "this window overlapped an init/exit phase"
    /// flags. Provided by the harness purely for prediction-error
    /// bookkeeping (the paper's Table 2 separates these); policies MUST
    /// NOT use it for decisions — real hardware has no such signal.
    pub transitional: &'a [bool],
    /// Per-core currently-requested frequencies.
    pub current: &'a [FreqMhz],
    /// Per-core ground-truth timing models of the phase currently
    /// executing. Harness-provided for *oracle baselines only* — the
    /// fvsst scheduler and every realistic policy must ignore it, since
    /// no hardware exposes it. Computing these models costs real work,
    /// so the harness only fills the slice for policies that declare
    /// [`Policy::wants_ground_truth`]; everyone else sees it empty.
    pub ground_truth: &'a [CpiModel],
    /// Platform facts.
    pub platform: &'a PlatformView,
}

/// A frequency assignment produced by a policy: what the host applies
/// (`freqs`, `powered_on`) and records (`desired`), and nothing else.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Final frequency per core.
    pub freqs: Vec<FreqMhz>,
    /// Pre-budget "desired" frequency per core (= `freqs` for policies
    /// without the concept).
    pub desired: Vec<FreqMhz>,
    /// Per-core power state (`false` = powered down; the node power-down
    /// baseline uses this — fvsst never does).
    pub powered_on: Vec<bool>,
}

impl Decision {
    /// A decision that simply sets every core to `f`.
    pub fn uniform(n: usize, f: FreqMhz) -> Self {
        let mut d = Decision::default();
        d.set_uniform(n, f);
        d
    }

    /// Overwrite this decision with "every core at `f`", reusing the
    /// existing buffers (allocation-free once they have capacity `n`).
    pub fn set_uniform(&mut self, n: usize, f: FreqMhz) {
        self.freqs.clear();
        self.freqs.resize(n, f);
        self.desired.clear();
        self.desired.resize(n, f);
        self.powered_on.clear();
        self.powered_on.resize(n, true);
    }
}

/// CPU-time cost of running the management software itself, charged to
/// the core hosting the daemon (paper Figure 4 measures this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Core the single-threaded daemon runs on.
    pub host_core: usize,
    /// Seconds charged per dispatch tick per sampled core (counter read
    /// syscalls).
    pub per_sample_s: f64,
    /// Seconds charged per scheduling computation (the two-pass
    /// algorithm plus actuation syscalls).
    pub per_schedule_s: f64,
}

impl OverheadModel {
    /// No overhead (idealised policies, oracle baselines).
    pub const FREE: OverheadModel = OverheadModel {
        host_core: 0,
        per_sample_s: 0.0,
        per_schedule_s: 0.0,
    };

    /// Calibrated to the paper's unoptimised prototype: ≲3 % throughput
    /// impact at t = 10 ms, T = 100 ms on 4 cores.
    pub const PROTOTYPE: OverheadModel = OverheadModel {
        host_core: 0,
        per_sample_s: 25.0e-6,
        per_schedule_s: 1.2e-3,
    };
}

/// A power-management policy.
pub trait Policy: Send {
    /// Short display name for reports.
    fn name(&self) -> &str;

    /// Consulted once per dispatch tick. To (re)assign frequencies,
    /// write the assignment into `out` and return `true`; otherwise
    /// return `false` (the contents of `out` are then ignored). The host
    /// applies `freqs` and `powered_on` and records `desired`; whatever
    /// else a policy computes (predictions, feasibility) it exposes on
    /// its own type, as [`crate::FvsstScheduler::last_decision`] does.
    ///
    /// `out` is a buffer the harness reuses across ticks — implementors
    /// should overwrite it with `clear` + `extend`/`resize` (or
    /// [`Decision::set_uniform`]) rather than allocate fresh vectors, so
    /// the steady-state dispatch tick stays allocation-free.
    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool;

    /// Allocating convenience wrapper around [`decide`](Self::decide).
    fn on_tick(&mut self, ctx: &TickContext<'_>) -> Option<Decision> {
        let mut out = Decision::default();
        self.decide(ctx, &mut out).then_some(out)
    }

    /// Whether this policy reads [`TickContext::ground_truth`]. The
    /// harness computes the ground-truth models (a real per-tick cost)
    /// only when this returns `true`; oracle baselines opt in, everyone
    /// else keeps the default `false` and sees an empty slice.
    fn wants_ground_truth(&self) -> bool {
        false
    }

    /// The daemon-overhead model the harness should charge. Defaults to
    /// free.
    fn overhead(&self) -> OverheadModel {
        OverheadModel::FREE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_decision() {
        let d = Decision::uniform(3, FreqMhz(500));
        assert_eq!(d.freqs, vec![FreqMhz(500); 3]);
        assert_eq!(d.desired, d.freqs);
    }

    #[test]
    fn overhead_presets() {
        assert_eq!(OverheadModel::FREE.per_schedule_s, 0.0);
        let proto = OverheadModel::PROTOTYPE;
        assert!(proto.per_schedule_s > 0.0);
    }

    #[test]
    fn platform_view_p630() {
        let p = PlatformView::p630();
        assert_eq!(p.freq_set.len(), 16);
        assert_eq!(p.power_table.max_power(), 140.0);
    }
}
