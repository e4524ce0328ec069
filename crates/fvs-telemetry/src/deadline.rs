//! Budget-deadline accounting: the paper's `ΔT` made measurable.
//!
//! When the global budget *drops* (a supply failed, an operator cut the
//! cap), the system has `ΔT` seconds to bring measured power under the
//! new budget before the survivors' overload tolerance expires. The
//! [`BudgetDeadlineTracker`] stamps each drop, counts scheduling rounds
//! and elapsed time until measured power first complies, and flags the
//! episodes that missed the deadline.
//!
//! The tracker is pure bookkeeping — a handful of scalar fields, no
//! allocation — and returns the [`SchedEvent`]s to publish, so the
//! caller decides where (if anywhere) they go.

use crate::event::SchedEvent;

/// Summary of the most recently closed compliance episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplianceRecord {
    /// Scheduling rounds between the drop and first compliance.
    pub rounds: u32,
    /// Elapsed time between the drop and first compliance (s).
    pub wall_s: f64,
    /// Whether compliance arrived within the deadline.
    pub within_deadline: bool,
}

/// An open compliance episode: a drop awaiting compliance. It is what
/// the tracker holds and what a crash-recovery snapshot keeps. The
/// caller owns the clock: it exports `dropped_at_s` on one timeline and
/// restores it rebased onto another (a resumed coordinator restores
/// `now − age` so the `ΔT` clock keeps running across the restart
/// instead of resetting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenEpisode {
    /// When the budget dropped (s, exporter's clock).
    pub dropped_at_s: f64,
    /// The dropped budget awaiting compliance (W).
    pub budget_w: f64,
    /// Scheduling rounds counted so far.
    pub rounds: u32,
    /// Whether the one-per-episode violation event already fired.
    pub violation_emitted: bool,
}

/// Tracks rounds-to-compliance and wall-time-to-compliance for budget
/// drops against a configurable deadline `ΔT`.
#[derive(Debug, Clone)]
pub struct BudgetDeadlineTracker {
    deadline_s: f64,
    episode: Option<OpenEpisode>,
    compliances: u64,
    violations: u64,
    last: Option<ComplianceRecord>,
}

impl BudgetDeadlineTracker {
    /// Tracker with deadline `ΔT = deadline_s`.
    pub fn new(deadline_s: f64) -> Self {
        BudgetDeadlineTracker {
            deadline_s,
            episode: None,
            compliances: 0,
            violations: 0,
            last: None,
        }
    }

    /// The deadline in force (s).
    pub fn deadline_s(&self) -> f64 {
        self.deadline_s
    }

    /// Compliance episodes closed so far.
    pub fn compliances(&self) -> u64 {
        self.compliances
    }

    /// Deadline violations so far (episodes whose `ΔT` expired before
    /// measured power complied).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The most recently closed episode.
    pub fn last_compliance(&self) -> Option<ComplianceRecord> {
        self.last
    }

    /// The open episode as a portable image (crash-recovery snapshots),
    /// or `None` when no drop is awaiting compliance.
    pub fn export_episode(&self) -> Option<OpenEpisode> {
        self.episode
    }

    /// Reopen an episode exported by [`Self::export_episode`], replacing
    /// any open one. The caller must have rebased `dropped_at_s` onto
    /// its current clock — a resumed coordinator passes `now − age` so
    /// the time already burned before the crash still counts against
    /// `ΔT`.
    pub fn restore_episode(&mut self, ep: OpenEpisode) {
        self.episode = Some(ep);
    }

    /// Inform the tracker of a budget change at `now_s`. A *drop* opens
    /// a compliance episode (replacing any open one — the new, tighter
    /// deadline is what matters) and returns a [`SchedEvent::BudgetDrop`]
    /// to publish; a raise closes any open episode silently (the old
    /// target is moot).
    pub fn on_budget_change(&mut self, now_s: f64, from_w: f64, to_w: f64) -> Option<SchedEvent> {
        if to_w < from_w {
            self.episode = Some(OpenEpisode {
                dropped_at_s: now_s,
                budget_w: to_w,
                rounds: 0,
                violation_emitted: false,
            });
            Some(SchedEvent::BudgetDrop {
                t_s: now_s,
                from_w,
                to_w,
                deadline_s: self.deadline_s,
            })
        } else {
            self.episode = None;
            None
        }
    }

    /// Count one scheduling round toward the open episode (no-op
    /// otherwise).
    pub fn on_round(&mut self) {
        if let Some(ep) = &mut self.episode {
            ep.rounds += 1;
        }
    }

    /// Feed one measured-power sample. Returns at most one event:
    /// [`SchedEvent::BudgetViolation`] the first time the deadline
    /// expires with power still over the dropped budget, or
    /// [`SchedEvent::BudgetCompliance`] when measured power first comes
    /// under it (closing the episode).
    pub fn on_power_sample(&mut self, now_s: f64, measured_w: f64) -> Option<SchedEvent> {
        let ep = self.episode.as_mut()?;
        let wall_s = now_s - ep.dropped_at_s;
        if measured_w <= ep.budget_w {
            let within_deadline = wall_s <= self.deadline_s;
            let record = ComplianceRecord {
                rounds: ep.rounds,
                wall_s,
                within_deadline,
            };
            self.compliances += 1;
            if !within_deadline && !ep.violation_emitted {
                // The deadline was missed and no violation fired yet
                // (compliance and expiry landed on the same sample).
                self.violations += 1;
            }
            self.last = Some(record);
            let rounds = ep.rounds;
            self.episode = None;
            return Some(SchedEvent::BudgetCompliance {
                t_s: now_s,
                rounds,
                wall_s,
                within_deadline,
            });
        }
        if wall_s > self.deadline_s && !ep.violation_emitted {
            ep.violation_emitted = true;
            self.violations += 1;
            return Some(SchedEvent::BudgetViolation {
                t_s: now_s,
                deadline_s: self.deadline_s,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_then_prompt_compliance_is_within_deadline() {
        let mut t = BudgetDeadlineTracker::new(1.0);
        let ev = t.on_budget_change(0.5, 560.0, 294.0);
        assert!(matches!(ev, Some(SchedEvent::BudgetDrop { .. })));
        assert!(t.export_episode().is_some());
        t.on_round();
        // Still over at the next sample…
        assert_eq!(t.on_power_sample(0.51, 400.0), None);
        t.on_round();
        // …compliant one tick later.
        let ev = t.on_power_sample(0.52, 290.0).unwrap();
        match ev {
            SchedEvent::BudgetCompliance {
                rounds,
                wall_s,
                within_deadline,
                ..
            } => {
                assert_eq!(rounds, 2);
                assert!((wall_s - 0.02).abs() < 1e-12);
                assert!(within_deadline);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.compliances(), 1);
        assert_eq!(t.violations(), 0);
        assert!(t.export_episode().is_none());
    }

    #[test]
    fn impossibly_small_deadline_counts_a_violation() {
        let mut t = BudgetDeadlineTracker::new(1e-6);
        t.on_budget_change(0.5, 560.0, 294.0);
        let ev = t.on_power_sample(0.51, 400.0).unwrap();
        assert!(matches!(ev, SchedEvent::BudgetViolation { .. }));
        assert_eq!(t.violations(), 1);
        // Only one violation per episode.
        assert_eq!(t.on_power_sample(0.52, 400.0), None);
        assert_eq!(t.violations(), 1);
        // Late compliance closes the episode as not-within-deadline.
        let ev = t.on_power_sample(0.53, 290.0).unwrap();
        assert!(matches!(
            ev,
            SchedEvent::BudgetCompliance {
                within_deadline: false,
                ..
            }
        ));
        assert_eq!(t.violations(), 1, "violation already counted");
        assert!(!t.last_compliance().unwrap().within_deadline);
    }

    /// A node dropping out mid-episode makes its *reading* vanish, not
    /// its power. The caller must feed the tracker the conservative
    /// estimate (live readings + the dead node's charge) — this pins the
    /// resulting semantics: the lost reading neither fakes compliance
    /// nor resets the episode clock, and compliance is judged against
    /// the conservative sum.
    #[test]
    fn mid_episode_node_dropout_does_not_fake_compliance() {
        let mut t = BudgetDeadlineTracker::new(1.0);
        // Rack budget 1120 W → 560 W; two 280 W-capable nodes drawing
        // 450 W each at the drop.
        t.on_budget_change(1.0, 1120.0, 560.0);
        t.on_round();
        assert_eq!(t.on_power_sample(1.01, 900.0), None);
        // Node 1 goes silent at t=1.2. Its raw reading is gone — naive
        // accounting would see only the survivor's 450 W and close the
        // episode under the 560 W budget. The coordinator charges the
        // dead node its last-known 450 W instead, so the conservative
        // sum stays at 900 W and the episode stays open.
        t.on_round();
        assert_eq!(t.on_power_sample(1.21, 450.0 + 450.0), None);
        assert!(t.export_episode().is_some(), "a lost reading closed it");
        // The survivor is rescheduled down to 100 W; conservative sum
        // 550 W complies, still inside ΔT — and the episode clock ran
        // from the drop, not from the dropout.
        t.on_round();
        let ev = t.on_power_sample(1.5, 100.0 + 450.0).unwrap();
        match ev {
            SchedEvent::BudgetCompliance {
                rounds,
                wall_s,
                within_deadline,
                ..
            } => {
                assert_eq!(rounds, 3);
                assert!((wall_s - 0.5).abs() < 1e-12, "clock runs from the drop");
                assert!(within_deadline);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.violations(), 0);
    }

    #[test]
    fn budget_raise_cancels_the_episode() {
        let mut t = BudgetDeadlineTracker::new(1.0);
        t.on_budget_change(0.5, 560.0, 294.0);
        assert!(t.export_episode().is_some());
        assert_eq!(t.on_budget_change(0.6, 294.0, 560.0), None);
        assert!(t.export_episode().is_none());
        assert_eq!(t.on_power_sample(0.7, 400.0), None);
    }

    /// A coordinator crash mid-episode must not reset the `ΔT` clock:
    /// the restored episode carries the age already burned, so a
    /// post-restart compliance is judged against the *original* drop.
    #[test]
    fn exported_episode_survives_a_clock_rebase() {
        let mut t = BudgetDeadlineTracker::new(1.0);
        t.on_budget_change(5.0, 560.0, 294.0);
        t.on_round();
        assert_eq!(t.on_power_sample(5.3, 400.0), None);
        let ep = t.export_episode().expect("open episode");
        assert_eq!(ep.budget_w, 294.0);
        assert_eq!(ep.rounds, 1);
        assert!(!ep.violation_emitted);
        // "Crash": a fresh tracker whose clock restarts at zero. The
        // episode was 0.3 s old at the crash; restore it as now − age.
        let mut resumed = BudgetDeadlineTracker::new(1.0);
        assert_eq!(resumed.export_episode(), None);
        let age_s = 5.3 - ep.dropped_at_s;
        resumed.restore_episode(OpenEpisode {
            dropped_at_s: 0.0 - age_s,
            ..ep
        });
        assert!(resumed.export_episode().is_some());
        resumed.on_round();
        let ev = resumed.on_power_sample(0.2, 290.0).unwrap();
        match ev {
            SchedEvent::BudgetCompliance {
                rounds,
                wall_s,
                within_deadline,
                ..
            } => {
                assert_eq!(rounds, 2, "pre-crash rounds still count");
                assert!((wall_s - 0.5).abs() < 1e-12, "clock runs from the drop");
                assert!(within_deadline);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simultaneous_expiry_and_compliance_counts_both() {
        let mut t = BudgetDeadlineTracker::new(0.005);
        t.on_budget_change(0.5, 560.0, 294.0);
        // First sample after the drop is already compliant but late.
        let ev = t.on_power_sample(0.51, 290.0).unwrap();
        assert!(matches!(
            ev,
            SchedEvent::BudgetCompliance {
                within_deadline: false,
                ..
            }
        ));
        assert_eq!(t.compliances(), 1);
        assert_eq!(t.violations(), 1);
    }
}
