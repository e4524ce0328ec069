//! Power supplies, supply failure, and the cascade deadline of section 2.
//!
//! The paper's motivating scenario: a system with redundant supplies loses
//! one at time `T0`. The survivors can tolerate the overload only for
//! `ΔT` seconds (a characteristic of the supply); if the system is not
//! back under the surviving capacity by `T0 + ΔT`, the next supply fails
//! too — a cascade. The scheduler must therefore bring aggregate power
//! under the new limit within `ΔT`.
//!
//! A [`SupplyBank`] describes the scenario and nothing more: its failures
//! and restorations are drops and rises of the processor budget
//! ([`SupplyBank::budget`]), and it names `ΔT`
//! ([`SupplyBank::cascade_deadline_s`]). The simulation that runs under
//! the budget times the overload and records the cascade.

use crate::budget::{BudgetEvent, BudgetSchedule};
use serde::{Deserialize, Serialize};

/// One power supply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSupply {
    /// Rated capacity in watts (the paper's example: 480 W each).
    pub capacity_w: f64,
    /// Seconds of overload the supply survives before failing.
    pub overload_tolerance_s: f64,
}

impl PowerSupply {
    /// A supply with the paper's example rating.
    pub fn p630_example() -> Self {
        PowerSupply::new(480.0, 1.0)
    }

    /// A supply with a given rating and tolerance.
    pub fn new(capacity_w: f64, overload_tolerance_s: f64) -> Self {
        PowerSupply {
            capacity_w,
            overload_tolerance_s,
        }
    }
}

/// Timeline events the bank can experience.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SupplyEvent {
    /// Supply `index` fails at `at_s` seconds.
    Fail {
        /// Index of the failing supply.
        index: usize,
        /// Simulation time of the failure in seconds.
        at_s: f64,
    },
    /// Supply `index` is restored at `at_s` seconds.
    Restore {
        /// Index of the restored supply.
        index: usize,
        /// Simulation time of the restoration in seconds.
        at_s: f64,
    },
}

impl SupplyEvent {
    /// When the event fires.
    pub fn at(&self) -> f64 {
        match self {
            SupplyEvent::Fail { at_s, .. } | SupplyEvent::Restore { at_s, .. } => *at_s,
        }
    }
}

/// A bank of supplies feeding the system, with a scripted timeline of
/// failures and restorations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupplyBank {
    supplies: Vec<PowerSupply>,
    events: Vec<SupplyEvent>,
}

impl SupplyBank {
    /// Bank from supplies and a timeline (events are sorted by time; an
    /// event naming a supply the bank does not have changes nothing).
    pub fn new(supplies: Vec<PowerSupply>, mut events: Vec<SupplyEvent>) -> Self {
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        SupplyBank { supplies, events }
    }

    /// The paper's section-2 system: two 480 W supplies, one failing at
    /// `t0_s`.
    pub fn p630_scenario(t0_s: f64) -> Self {
        SupplyBank::new(
            vec![PowerSupply::p630_example(), PowerSupply::p630_example()],
            vec![SupplyEvent::Fail {
                index: 0,
                at_s: t0_s,
            }],
        )
    }

    /// The processor budget the bank leaves when the rest of the system
    /// draws `non_cpu_w`: the capacity of every supply minus `non_cpu_w`
    /// at first, then one step per timeline event to the survivors'
    /// capacity minus `non_cpu_w` (floored at zero by
    /// [`BudgetSchedule::budget_at`]).
    pub fn budget(&self, non_cpu_w: f64) -> BudgetSchedule {
        let mut up = vec![true; self.supplies.len()];
        let surviving_w = |up: &[bool]| -> f64 {
            self.supplies
                .iter()
                .zip(up)
                .filter(|(_, up)| **up)
                .map(|(s, _)| s.capacity_w)
                .sum()
        };
        let initial_w = surviving_w(&up) - non_cpu_w;
        let events = self
            .events
            .iter()
            .map(|e| {
                let (index, to) = match *e {
                    SupplyEvent::Fail { index, .. } => (index, false),
                    SupplyEvent::Restore { index, .. } => (index, true),
                };
                if let Some(u) = up.get_mut(index) {
                    *u = to;
                }
                BudgetEvent {
                    at_s: e.at(),
                    budget_w: surviving_w(&up) - non_cpu_w,
                }
            })
            .collect();
        BudgetSchedule::with_events(initial_w, events)
    }

    /// The `ΔT` deadline the scheduler must beat: the shortest overload
    /// tolerance in the bank. Infinite for a bank of no supplies.
    pub fn cascade_deadline_s(&self) -> f64 {
        self.supplies
            .iter()
            .map(|s| s.overload_tolerance_s)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_drops_on_failure() {
        let budget = SupplyBank::p630_scenario(1.0).budget(186.0);
        assert_eq!(budget.initial_w(), 774.0);
        assert_eq!(budget.budget_at(0.5), 774.0);
        assert_eq!(budget.budget_at(1.0), 294.0);
        assert_eq!(budget.budget_at(1.1), 294.0);
    }

    #[test]
    fn a_budget_below_zero_is_floored() {
        // The rest of the system outdraws the surviving supply.
        let budget = SupplyBank::p630_scenario(0.0).budget(600.0);
        assert_eq!(budget.budget_at(0.0), 0.0);
    }

    #[test]
    fn restore_event_recovers_capacity() {
        let bank = SupplyBank::new(
            vec![PowerSupply::new(480.0, 1.0), PowerSupply::new(480.0, 1.0)],
            vec![
                SupplyEvent::Restore {
                    index: 0,
                    at_s: 5.0,
                },
                SupplyEvent::Fail {
                    index: 0,
                    at_s: 1.0,
                },
                // A supply the bank does not have changes nothing.
                SupplyEvent::Fail {
                    index: 7,
                    at_s: 2.0,
                },
            ],
        );
        let budget = bank.budget(0.0);
        assert_eq!(budget.budget_at(2.0), 480.0);
        assert_eq!(budget.budget_at(6.0), 960.0);
    }

    #[test]
    fn deadline_is_min_tolerance_of_survivors() {
        let bank = SupplyBank::new(
            vec![PowerSupply::new(480.0, 1.0), PowerSupply::new(480.0, 0.25)],
            vec![],
        );
        assert_eq!(bank.cascade_deadline_s(), 0.25);
    }
}
