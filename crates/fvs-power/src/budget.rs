//! Time-varying global power budgets.
//!
//! The scheduler's budget `P_max` is not a constant: it changes when a
//! supply fails or is restored, or when the site operator requests a cap.
//! A [`BudgetSchedule`] scripts those changes for an experiment; the
//! scheduler queries the budget in force at each scheduling instant. The
//! paper's margin of safety is not part of the schedule: the scheduler's
//! feedback guard subtracts it from what the schedule says.

use serde::{Deserialize, Serialize};

/// The one budget-change rule: `budget_w` replaces `previous_w` when the
/// two differ by more than 1e-9 W, and the budget replaced is returned.
/// The daemon's round clock and the cluster coordinator both read it, so
/// what one of them takes for a budget change the other does too.
pub fn replaced_budget(previous_w: f64, budget_w: f64) -> Option<f64> {
    ((budget_w - previous_w).abs() > 1e-9).then_some(previous_w)
}

/// One scheduled budget change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetEvent {
    /// Time the new budget takes effect, seconds.
    pub at_s: f64,
    /// The new aggregate processor power budget, watts.
    pub budget_w: f64,
}

/// A piecewise-constant budget over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSchedule {
    initial_w: f64,
    events: Vec<BudgetEvent>,
}

impl BudgetSchedule {
    /// A constant budget.
    pub fn constant(budget_w: f64) -> Self {
        BudgetSchedule {
            initial_w: budget_w,
            events: Vec::new(),
        }
    }

    /// A budget with scripted step changes (events are sorted by time;
    /// one whose time is NaN can never come into force and is dropped).
    pub fn with_events(initial_w: f64, events: Vec<BudgetEvent>) -> Self {
        let mut schedule = BudgetSchedule { initial_w, events };
        schedule.sort_events();
        schedule
    }

    /// Restore the order the queries search: by time, equal times in the
    /// order they were given, no NaN (a negative one would sort first
    /// and hide every later event).
    fn sort_events(&mut self) {
        self.events.retain(|e| !e.at_s.is_nan());
        self.events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    }

    /// The budget before any event applies — the reference
    /// point for fault plans that drop to a *fraction* of it.
    pub fn initial_w(&self) -> f64 {
        self.initial_w
    }

    /// Merge a fault plan's drop into the scenario: from `at_s` the
    /// budget is `factor` × the initial budget. The one place a drop
    /// becomes a budget, for every driver that runs a plan.
    pub fn push_drop(&mut self, at_s: f64, factor: f64) {
        self.push_event(BudgetEvent {
            at_s,
            budget_w: self.initial_w * factor,
        });
    }

    /// Add a scripted change after construction, keeping events sorted
    /// by time (equal times in the order they were added).
    fn push_event(&mut self, event: BudgetEvent) {
        self.events.push(event);
        self.sort_events();
    }

    /// How many events have taken effect by `t_s`. A binary search: a
    /// scheduled run asks every tick, and a long one holds thousands.
    fn events_through(&self, t_s: f64) -> usize {
        self.events.partition_point(|e| e.at_s <= t_s)
    }

    /// The budget in force at time `t_s`, floored at zero.
    pub fn budget_at(&self, t_s: f64) -> f64 {
        let raw = match self.events_through(t_s) {
            0 => self.initial_w,
            n => self.events[n - 1].budget_w,
        };
        raw.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_budget() {
        let b = BudgetSchedule::constant(294.0);
        assert_eq!(b.budget_at(0.0), 294.0);
        assert_eq!(b.budget_at(1.0e6), 294.0);
    }

    #[test]
    fn step_changes_apply_in_order() {
        let b = BudgetSchedule::with_events(
            560.0,
            vec![
                BudgetEvent {
                    at_s: 10.0,
                    budget_w: 294.0,
                },
                BudgetEvent {
                    at_s: 5.0,
                    budget_w: 400.0,
                },
            ],
        );
        assert_eq!(b.budget_at(0.0), 560.0);
        assert_eq!(b.budget_at(5.0), 400.0);
        assert_eq!(b.budget_at(9.99), 400.0);
        assert_eq!(b.budget_at(10.0), 294.0);
    }

    #[test]
    fn pushed_events_land_in_time_order() {
        let mut b = BudgetSchedule::constant(560.0);
        assert_eq!(b.initial_w(), 560.0);
        b.push_event(BudgetEvent {
            at_s: 10.0,
            budget_w: 294.0,
        });
        b.push_event(BudgetEvent {
            at_s: 5.0,
            budget_w: 400.0,
        });
        assert_eq!(b.budget_at(7.0), 400.0);
        assert_eq!(b.budget_at(10.0), 294.0);
        // A drop is a fraction of the initial budget, not of the one in
        // force, and a later event at its time wins over the earlier.
        b.push_drop(10.0, 0.5);
        assert_eq!(b.budget_at(10.0), 280.0);
    }

    /// `budget_at` as it was before the binary search: a scan from the
    /// first event.
    fn scan(initial_w: f64, events: &[BudgetEvent], t_s: f64) -> f64 {
        let raw = events
            .iter()
            .take_while(|e| e.at_s <= t_s)
            .last()
            .map_or(initial_w, |e| e.budget_w);
        raw.max(0.0)
    }

    #[test]
    fn search_equals_the_scan_it_replaced() {
        let ev = |at_s, budget_w| BudgetEvent { at_s, budget_w };
        // In time order; two events at t = 4 (the later one wins), and a
        // negative level, which is the floor at zero.
        let events = [
            ev(1.0, 400.0),
            ev(4.0, 300.0),
            ev(4.0, 30.0),
            ev(6.0, -20.0),
            ev(7.5, 500.0),
        ];
        let mut shuffled = vec![events[4], events[1], events[3], events[0], events[2]];
        // A NaN time, of either sign, never comes into force.
        shuffled.push(ev(f64::NAN, 1.0));
        shuffled.insert(0, ev(-f64::NAN, 2.0));
        let table = [
            // (query, budget): before the first event, exactly on one,
            // between, on the pair, on the negative level, after the last.
            (0.0, 560.0),
            (1.0, 400.0),
            (3.999, 400.0),
            (4.0, 30.0),
            (6.0, 0.0),
            (7.5, 500.0),
            (1.0e9, 500.0),
            (f64::NEG_INFINITY, 560.0),
            (f64::NAN, 560.0),
        ];
        let b = BudgetSchedule::with_events(560.0, shuffled.clone());
        for (t_s, budget_w) in table {
            assert_eq!(b.budget_at(t_s), budget_w, "t = {t_s}");
            assert_eq!(scan(560.0, &events, t_s), budget_w, "t = {t_s}");
        }
        // `push_event` drops a NaN time too, and keeps the order.
        let mut pushed = BudgetSchedule::constant(560.0);
        for e in shuffled {
            pushed.push_event(e);
        }
        assert_eq!(pushed, BudgetSchedule::with_events(560.0, events.to_vec()));
    }
}
