//! Time-varying global power budgets.
//!
//! The scheduler's budget `P_max` is not a constant: it changes when a
//! supply fails or is restored, when the site operator requests a cap, or
//! when a margin of safety is applied. A [`BudgetSchedule`] scripts those
//! changes for an experiment; the scheduler queries the budget in force at
//! each scheduling instant.

use serde::{Deserialize, Serialize};

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
    /// Safety margin subtracted from every queried budget (the paper:
    /// "the global limit may contain a margin of safety").
    margin_w: f64,
}

impl BudgetSchedule {
    /// A constant budget.
    pub fn constant(budget_w: f64) -> Self {
        BudgetSchedule {
            initial_w: budget_w,
            events: Vec::new(),
            margin_w: 0.0,
        }
    }

    /// A budget with scripted step changes (events are sorted by time;
    /// one whose time is NaN can never come into force and is dropped).
    pub fn with_events(initial_w: f64, events: Vec<BudgetEvent>) -> Self {
        let mut schedule = BudgetSchedule {
            initial_w,
            events,
            margin_w: 0.0,
        };
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

    /// Apply a safety margin subtracted from every queried value.
    pub fn with_margin(mut self, margin_w: f64) -> Self {
        self.margin_w = margin_w;
        self
    }

    /// The budget before any event or margin applies — the reference
    /// point for fault plans that drop to a *fraction* of it.
    pub fn initial_w(&self) -> f64 {
        self.initial_w
    }

    /// Add a scripted change after construction, keeping events sorted
    /// by time (a fault plan merging its supply drops into a scenario).
    pub fn push_event(&mut self, event: BudgetEvent) {
        self.events.push(event);
        self.sort_events();
    }

    /// How many events have taken effect by `t_s`. A binary search: a
    /// scheduled run asks every tick, and a long one holds thousands.
    fn events_through(&self, t_s: f64) -> usize {
        self.events.partition_point(|e| e.at_s <= t_s)
    }

    /// The budget in force at time `t_s`, margin applied, floored at zero.
    pub fn budget_at(&self, t_s: f64) -> f64 {
        let raw = match self.events_through(t_s) {
            0 => self.initial_w,
            n => self.events[n - 1].budget_w,
        };
        (raw - self.margin_w).max(0.0)
    }

    /// Next change strictly after `t_s`, if any.
    pub fn next_change_after(&self, t_s: f64) -> Option<f64> {
        let at = self.events.get(self.events_through(t_s))?.at_s;
        // Only a NaN `t_s` fails this: nothing comes after it.
        (at > t_s).then_some(at)
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
        assert_eq!(b.next_change_after(0.0), None);
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
        assert_eq!(b.next_change_after(5.0), Some(10.0));
        assert_eq!(b.next_change_after(10.0), None);
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
        assert_eq!(b.next_change_after(0.0), Some(5.0));
    }

    /// `budget_at` / `next_change_after` as they were before the binary
    /// search: a scan from the first event.
    fn scan(initial_w: f64, margin_w: f64, events: &[BudgetEvent], t_s: f64) -> (f64, Option<f64>) {
        let raw = events
            .iter()
            .take_while(|e| e.at_s <= t_s)
            .last()
            .map_or(initial_w, |e| e.budget_w);
        let next = events.iter().map(|e| e.at_s).find(|at| *at > t_s);
        ((raw - margin_w).max(0.0), next)
    }

    #[test]
    fn search_equals_the_scan_it_replaced() {
        let ev = |at_s, budget_w| BudgetEvent { at_s, budget_w };
        // In time order; two events at t = 4 (the later one wins).
        let events = [
            ev(1.0, 400.0),
            ev(4.0, 300.0),
            ev(4.0, 30.0),
            ev(7.5, 500.0),
        ];
        let mut shuffled = vec![events[3], events[1], events[0], events[2]];
        // A NaN time, of either sign, never comes into force.
        shuffled.push(ev(f64::NAN, 1.0));
        shuffled.insert(0, ev(-f64::NAN, 2.0));
        let table = [
            // (query, budget, next change): before the first event,
            // exactly on one, between, on the pair, after the last.
            (0.0, 560.0, Some(1.0)),
            (1.0, 400.0, Some(4.0)),
            (3.999, 400.0, Some(4.0)),
            (4.0, 30.0, Some(7.5)),
            (7.5, 500.0, None),
            (1.0e9, 500.0, None),
            (f64::NEG_INFINITY, 560.0, Some(1.0)),
            (f64::NAN, 560.0, None),
        ];
        for margin_w in [0.0, 50.0] {
            let b = BudgetSchedule::with_events(560.0, shuffled.clone()).with_margin(margin_w);
            for (t_s, budget_w, next) in table {
                let expected = ((budget_w - margin_w).max(0.0), next);
                assert_eq!((b.budget_at(t_s), b.next_change_after(t_s)), expected);
                assert_eq!(scan(560.0, margin_w, &events, t_s), expected, "t = {t_s}");
            }
        }
        // The 30 W level under a 50 W margin is the floor at zero.
        assert_eq!(
            BudgetSchedule::with_events(560.0, events.to_vec())
                .with_margin(50.0)
                .budget_at(5.0),
            0.0
        );
        // `push_event` drops a NaN time too, and keeps the order.
        let mut pushed = BudgetSchedule::constant(560.0);
        for e in shuffled {
            pushed.push_event(e);
        }
        assert_eq!(pushed, BudgetSchedule::with_events(560.0, events.to_vec()));
    }

    #[test]
    fn margin_subtracts_and_floors() {
        let b = BudgetSchedule::constant(100.0).with_margin(20.0);
        assert_eq!(b.budget_at(0.0), 80.0);
        let tight = BudgetSchedule::constant(10.0).with_margin(20.0);
        assert_eq!(tight.budget_at(0.0), 0.0);
    }
}
