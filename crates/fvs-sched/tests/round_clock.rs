//! The daemon's round rule, tick by tick: the bootstrap round, the timer
//! `n` ticks after the last round, a budget change that fires at once and
//! restarts the count, a change of at most 1e-9 W that is no change, and
//! an idle edge that waits out the rate limit and is then served — or is
//! ignored when idle detection is off.

use fvs_sched::{RoundClock, SchedulerConfig, Tick};
use fvs_telemetry::TriggerKind::{self, BudgetChange, IdleEdge, Timer};

const BUSY: &[bool] = &[false, false];
const ONE_IDLE: &[bool] = &[false, true];

/// One tick: the budget and idle signals fed, the round expected and the
/// budget a change is expected to have replaced.
type Row = (f64, &'static [bool], Option<TriggerKind>, Option<f64>);

fn assert_table(config: SchedulerConfig, rows: &[Row]) {
    let mut clock = RoundClock::new(&config);
    for (i, &(budget_w, idle, round, replaced_budget_w)) in rows.iter().enumerate() {
        let expected = Tick {
            round,
            replaced_budget_w,
        };
        assert_eq!(clock.tick(budget_w, idle), expected, "tick {}", i + 1);
    }
}

/// `count` quiet ticks at `budget_w`.
fn quiet(budget_w: f64, idle: &'static [bool], count: usize) -> Vec<Row> {
    vec![(budget_w, idle, None, None); count]
}

fn table(parts: &[Vec<Row>]) -> Vec<Row> {
    parts.concat()
}

#[test]
fn the_bootstrap_and_then_every_n_ticks() {
    let rows = table(&[
        vec![(294.0, BUSY, Some(Timer), None)],
        quiet(294.0, BUSY, 9),
        vec![(294.0, BUSY, Some(Timer), None)],
        quiet(294.0, BUSY, 9),
        vec![(294.0, BUSY, Some(Timer), None)],
    ]);
    assert_table(SchedulerConfig::p630(), &rows);
    // n = 1: every tick rounds.
    let every = vec![(294.0, BUSY, Some(Timer), None); 4];
    assert_table(SchedulerConfig::p630().with_n(1), &every);
}

#[test]
fn a_budget_change_rounds_at_once_and_restarts_the_count() {
    let rows = table(&[
        vec![(560.0, BUSY, Some(Timer), None)],
        // One tick after the last round: never deferred.
        vec![(294.0, BUSY, Some(BudgetChange), Some(560.0))],
        quiet(294.0, BUSY, 4),
        // Mid-period, from a finite budget to none.
        vec![(f64::INFINITY, BUSY, Some(BudgetChange), Some(294.0))],
        // The timer counts from the change, not from the bootstrap.
        quiet(f64::INFINITY, BUSY, 9),
        vec![(f64::INFINITY, BUSY, Some(Timer), None)],
    ]);
    assert_table(SchedulerConfig::p630(), &rows);
}

#[test]
fn a_change_of_at_most_1e_9_w_is_no_change() {
    let rows = table(&[
        vec![(0.0, BUSY, Some(Timer), None)],
        quiet(1e-9, BUSY, 1),
        quiet(0.0, BUSY, 1),
        vec![(2e-9, BUSY, Some(BudgetChange), Some(0.0))],
    ]);
    assert_table(SchedulerConfig::p630(), &rows);
}

#[test]
fn an_idle_edge_inside_the_spacing_waits_and_is_then_served() {
    let rows = table(&[
        vec![(294.0, BUSY, Some(Timer), None)],
        // One tick after a round: deferred, not dropped.
        quiet(294.0, ONE_IDLE, 1),
        vec![(294.0, ONE_IDLE, Some(IdleEdge), None)],
        quiet(294.0, ONE_IDLE, 2),
        // Two ticks after a round: served at once.
        vec![(294.0, BUSY, Some(IdleEdge), None)],
        // A deferred edge that a budget change serves is not served again.
        quiet(294.0, ONE_IDLE, 1),
        vec![(250.0, ONE_IDLE, Some(BudgetChange), Some(294.0))],
        quiet(250.0, ONE_IDLE, 9),
        vec![(250.0, ONE_IDLE, Some(Timer), None)],
        // An edge on the timer's tick is served as the edge.
        quiet(250.0, ONE_IDLE, 9),
        vec![(250.0, BUSY, Some(IdleEdge), None)],
    ]);
    assert_table(SchedulerConfig::p630(), &rows);
}

#[test]
fn idle_edges_are_ignored_with_idle_detection_off() {
    let rows = table(&[
        vec![(294.0, BUSY, Some(Timer), None)],
        quiet(294.0, ONE_IDLE, 2),
        quiet(294.0, BUSY, 3),
        quiet(294.0, ONE_IDLE, 4),
        vec![(294.0, BUSY, Some(Timer), None)],
    ]);
    assert_table(SchedulerConfig::p630().with_idle_detection(false), &rows);
}

#[test]
#[should_panic(expected = "n must be at least 1")]
fn a_clock_of_zero_ticks_is_refused() {
    RoundClock::new(&SchedulerConfig::p630().with_n(0));
}
