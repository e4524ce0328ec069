//! When the daemon rounds: the paper's three triggers (§5–6), written
//! once for the daemon and every policy compared with it.

use crate::scheduler::SchedulerConfig;
use fvs_telemetry::TriggerKind;

/// Minimum dispatch ticks between a round and an idle-edge round. A core
/// whose work arrives in sub-tick bursts flaps its idle signal; without
/// a floor, every flap would pay the full scheduling overhead.
const IDLE_EDGE_MIN_SPACING: u32 = 2;

/// The daemon's round rule and its state. A round runs on the first tick
/// (the bootstrap: enforce the budget as soon as the first window has
/// data); at once on a budget change ([`fvs_power::replaced_budget`]; never
/// rate-limited: ΔT is a hard deadline); with idle detection on, on an
/// idle edge, which waits until `IDLE_EDGE_MIN_SPACING` ticks after the
/// last round and is never dropped; and `n` ticks after the last round.
/// Any round serves a pending idle edge and restarts the count.
#[derive(Debug)]
pub struct RoundClock {
    n: u32,
    idle_detection: bool,
    since_round: u32,
    /// `None` until the first tick.
    budget_w: Option<f64>,
    idle: Vec<bool>,
    pending_idle_edge: bool,
}

/// What one tick of a [`RoundClock`] says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// The round this tick runs, by what fired it (the bootstrap is a
    /// [`TriggerKind::Timer`]); `None`: no round.
    pub round: Option<TriggerKind>,
    /// The budget (W) a change on this tick replaced.
    pub replaced_budget_w: Option<f64>,
}

impl RoundClock {
    /// The clock of a daemon built from `config`: its `n` and its idle
    /// detection. Panics on an `n` of 0.
    pub fn new(config: &SchedulerConfig) -> Self {
        assert!(config.n >= 1, "n must be at least 1");
        RoundClock {
            n: config.n,
            idle_detection: config.algorithm.idle_detection,
            since_round: 0,
            budget_w: None,
            idle: Vec::new(),
            pending_idle_edge: false,
        }
    }

    /// Take one dispatch tick's budget and idle signals.
    pub fn tick(&mut self, budget_w: f64, idle: &[bool]) -> Tick {
        self.since_round += 1;
        let previous = self.budget_w.replace(budget_w);
        let replaced_budget_w = previous.and_then(|b| fvs_power::replaced_budget(b, budget_w));
        if self.idle_detection && self.idle[..] != *idle {
            self.pending_idle_edge = true;
            self.idle.clear();
            self.idle.extend_from_slice(idle);
        }
        let round = if replaced_budget_w.is_some() {
            Some(TriggerKind::BudgetChange)
        } else if self.pending_idle_edge && self.since_round >= IDLE_EDGE_MIN_SPACING {
            Some(TriggerKind::IdleEdge)
        } else if previous.is_none() || self.since_round >= self.n {
            Some(TriggerKind::Timer)
        } else {
            None
        };
        if round.is_some() {
            self.since_round = 0;
            self.pending_idle_edge = false;
        }
        Tick {
            round,
            replaced_budget_w,
        }
    }
}
