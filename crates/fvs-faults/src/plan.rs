//! Declarative fault plans.
//!
//! A [`FaultPlan`] describes *what* can go wrong and how often; the
//! [`FaultInjector`](crate::FaultInjector) turns it into a deterministic
//! stream of fault decisions from a seed. Plans are context-free: rates
//! are per-opportunity probabilities, budget drops are *fractions* of
//! whatever budget the run started with, so the same plan works on a
//! 4-core machine and a 64-node rack.

use std::error::Error;
use std::fmt;

use crate::wire_plan::WireFaultPlan;

/// A scripted supply fault: from `at_s` the budget is `factor` × the
/// initial one, a supply bank's too (`BudgetSchedule::push_drop`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetDropSpec {
    /// When the supply fails (s).
    pub at_s: f64,
    /// Fraction of the initial budget that survives (0, 1].
    pub factor: f64,
}

/// A scripted node outage: `node` goes dark at `down_s` and (optionally)
/// returns at `up_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutageSpec {
    /// Which node dies.
    pub node: usize,
    /// When it stops responding (s).
    pub down_s: f64,
    /// When it comes back (s); `f64::INFINITY` means never.
    pub up_s: f64,
}

/// What can go wrong, and how often.
///
/// The default plan is empty: every rate zero, no scripted events —
/// [`is_quiet`](FaultPlan::is_quiet) returns `true` and an injector
/// built from it never fires.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-sample probability a counter delta is corrupted
    /// (NaN / spike / stuck / stale, chosen uniformly).
    pub counter_rate: f64,
    /// Per-command probability a frequency actuation misbehaves
    /// (dropped / partially applied / delayed, chosen uniformly).
    pub actuation_rate: f64,
    /// Scripted supply faults (budget drops), as fractions of the
    /// initial budget.
    pub budget_drops: Vec<BudgetDropSpec>,
    /// Scripted node outages.
    pub node_outages: Vec<NodeOutageSpec>,
    /// Message faults ([`WireFaultPlan::frame_fault`]) on the frames
    /// between nodes and their coordinator, on a socket or simulated.
    pub wire: WireFaultPlan,
}

impl FaultPlan {
    /// The empty plan: nothing ever goes wrong.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan can never produce a fault — injectors built
    /// from a quiet plan are a single branch per query.
    pub fn is_quiet(&self) -> bool {
        self.counter_rate <= 0.0
            && self.actuation_rate <= 0.0
            && self.budget_drops.is_empty()
            && self.node_outages.is_empty()
            && self.wire.is_quiet()
    }

    /// The default chaos mix used by the `chaos` experiment: moderate
    /// rates in every fault class, a supply failure at t = 1 s cutting
    /// the budget roughly in half, one node outage with recovery, and
    /// the [`WireFaultPlan::chaos`] message faults.
    pub fn chaos() -> Self {
        FaultPlan {
            counter_rate: 0.05,
            actuation_rate: 0.20,
            budget_drops: vec![BudgetDropSpec {
                at_s: 1.0,
                factor: 0.55,
            }],
            node_outages: vec![NodeOutageSpec {
                node: 0,
                down_s: 1.2,
                up_s: 2.4,
            }],
            wire: WireFaultPlan::chaos(),
        }
    }

    /// Parse a plan from its compact command-line spec.
    ///
    /// Grammar (comma-separated `key=value` clauses, order free):
    ///
    /// - `none` / empty string — the quiet plan
    /// - `chaos` — the [`chaos`](FaultPlan::chaos) preset
    /// - `counters=R` — counter-corruption rate (0–1)
    /// - `actuation=R` — actuation-fault rate (0–1)
    /// - `drop=F@T` — budget drops to fraction `F` at `T` s (repeatable)
    /// - `node=I@DOWN:UP` — node `I` offline during `[DOWN, UP)` s; omit
    ///   `:UP` for a permanent outage (repeatable)
    ///
    /// Message clauses, one model for every frame in flight (see
    /// [`WireFaultPlan`]):
    ///
    /// - `wire=R` — per-frame drop rate (0–1)
    /// - `delay=R[:HOLD_S]` — per-frame delay rate and hold time (s,
    ///   default 0.05)
    /// - `wdup=R` — per-frame duplication rate
    /// - `corrupt=R` — per-frame truncation/bit-flip rate
    /// - `reset=R` — per-frame connection-reset rate
    /// - `partition=I@T[:T2]` — node `I`'s connection blackholed both
    ///   ways during `[T, T2)` s; omit `:T2` for forever (repeatable)
    /// - `partition_up=I@T[:T2]` / `partition_down=I@T[:T2]` — one-way
    ///   variants (uplink = toward the coordinator)
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanParseError> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(FaultPlan::none());
        }
        if spec == "chaos" {
            return Ok(FaultPlan::chaos());
        }
        let mut plan = FaultPlan::none();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| PlanParseError::bad(clause, "expected key=value"))?;
            match key {
                "counters" => plan.counter_rate = parse_rate(clause, value)?,
                "actuation" => plan.actuation_rate = parse_rate(clause, value)?,
                "drop" => {
                    let (factor, at) = value
                        .split_once('@')
                        .ok_or_else(|| PlanParseError::bad(clause, "expected drop=F@T"))?;
                    let factor = parse_rate(clause, factor)?;
                    if factor <= 0.0 {
                        return Err(PlanParseError::bad(clause, "drop fraction must be > 0"));
                    }
                    plan.budget_drops.push(BudgetDropSpec {
                        at_s: parse_nonneg(clause, at)?,
                        factor,
                    });
                }
                "node" => {
                    let (node, window) = value
                        .split_once('@')
                        .ok_or_else(|| PlanParseError::bad(clause, "expected node=I@DOWN[:UP]"))?;
                    let node: usize = node
                        .parse()
                        .map_err(|_| PlanParseError::bad(clause, "bad node index"))?;
                    let (down, up) = match window.split_once(':') {
                        Some((d, u)) => (parse_nonneg(clause, d)?, parse_nonneg(clause, u)?),
                        None => (parse_nonneg(clause, window)?, f64::INFINITY),
                    };
                    if up <= down {
                        return Err(PlanParseError::bad(
                            clause,
                            "outage must end after it starts",
                        ));
                    }
                    plan.node_outages.push(NodeOutageSpec {
                        node,
                        down_s: down,
                        up_s: up,
                    });
                }
                other => {
                    if !plan.wire.parse_clause(other, clause, value)? {
                        return Err(PlanParseError::bad(
                            clause,
                            match other {
                                "" => "empty key",
                                _ => "unknown key",
                            },
                        ));
                    }
                }
            }
        }
        Ok(plan)
    }
}

fn parse_f64(clause: &str, s: &str) -> Result<f64, PlanParseError> {
    let x: f64 = s
        .trim()
        .parse()
        .map_err(|_| PlanParseError::bad(clause, "not a number"))?;
    if !x.is_finite() {
        return Err(PlanParseError::bad(clause, "must be finite"));
    }
    Ok(x)
}

pub(crate) fn parse_rate(clause: &str, s: &str) -> Result<f64, PlanParseError> {
    let x = parse_f64(clause, s)?;
    if !(0.0..=1.0).contains(&x) {
        return Err(PlanParseError::bad(clause, "rate must be in [0, 1]"));
    }
    Ok(x)
}

pub(crate) fn parse_nonneg(clause: &str, s: &str) -> Result<f64, PlanParseError> {
    let x = parse_f64(clause, s)?;
    if x < 0.0 {
        return Err(PlanParseError::bad(clause, "must be >= 0"));
    }
    Ok(x)
}

/// A fault-plan spec that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    clause: String,
    reason: &'static str,
}

impl PlanParseError {
    pub(crate) fn bad(clause: &str, reason: &'static str) -> Self {
        PlanParseError {
            clause: clause.to_string(),
            reason,
        }
    }
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault-plan clause `{}`: {}",
            self.clause, self.reason
        )
    }
}

impl Error for PlanParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_none_parse_to_the_quiet_plan() {
        assert!(FaultPlan::parse("").unwrap().is_quiet());
        assert!(FaultPlan::parse("none").unwrap().is_quiet());
        assert!(FaultPlan::none().is_quiet());
    }

    #[test]
    fn chaos_preset_is_not_quiet() {
        let p = FaultPlan::parse("chaos").unwrap();
        assert_eq!(p, FaultPlan::chaos());
        assert!(!p.is_quiet());
    }

    #[test]
    fn full_grammar_round_trips() {
        let p = FaultPlan::parse(
            "counters=0.1, actuation=0.25, \
             drop=0.5@1.0, drop=0.35@2.5, node=1@0.8:1.6, node=2@3.0",
        )
        .unwrap();
        assert_eq!(p.counter_rate, 0.1);
        assert_eq!(p.actuation_rate, 0.25);
        assert_eq!(p.budget_drops.len(), 2);
        assert_eq!(p.budget_drops[1].factor, 0.35);
        assert_eq!(p.node_outages.len(), 2);
        assert_eq!(p.node_outages[0].up_s, 1.6);
        assert!(p.node_outages[1].up_s.is_infinite());
    }

    #[test]
    fn wire_clauses_ride_along_with_host_clauses() {
        let p = FaultPlan::parse("counters=0.1, wire=0.05, partition=2@5:9, reset=0.01").unwrap();
        assert_eq!(p.counter_rate, 0.1);
        assert_eq!(p.wire.drop_rate, 0.05);
        assert_eq!(p.wire.reset_rate, 0.01);
        assert_eq!(p.wire.partitions.len(), 1);
        assert!(!p.is_quiet());
        // A wire-only plan is not quiet either.
        assert!(!FaultPlan::parse("wire=0.05").unwrap().is_quiet());
        // Messages have one fault grammar: the summary-only clauses are
        // gone, and `wdup=` is how a frame arrives twice.
        for spec in ["loss=0.1", "dup=0.2", "late=0.1:0.3"] {
            assert!(FaultPlan::parse(spec).is_err(), "{spec}");
        }
        assert_eq!(
            FaultPlan::parse("wdup=0.3").unwrap().wire.duplicate_rate,
            0.3
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_the_offending_clause() {
        for spec in [
            "counters=2.0",
            "counters=nan",
            "actuation",
            "drop=0.5",
            "drop=0@1.0",
            "node=x@1.0",
            "node=1@2.0:1.0",
            "late=0.1",
            "frobnicate=1",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(!err.to_string().is_empty(), "{spec}");
        }
    }
}
