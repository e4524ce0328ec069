//! Per-subtree aggregates: what one tier ships to its parent.
//!
//! A subtree compresses its scheduling state into three powers and a
//! *demotion ladder* — the quantized menu of "pay this much predicted
//! loss, shed this much power" options pass 2 could take below the
//! subtree's desired operating point. A parent tier allocates a budget
//! across children by consuming the globally cheapest rungs first,
//! which is exactly the flat algorithm's least-predicted-loss greedy
//! restated over aggregates: within one loss quantum the two orderings
//! are interchangeable, so the hierarchical assignment matches the flat
//! schedule up to one demotion step per child plus the sub-budget grid.
//!
//! The aggregate also carries a *fingerprint* — the `ScheduleCache`
//! `ProcKey` idea lifted from per-processor to per-child: a parent
//! re-merges only when a child's fingerprint moved, making the
//! steady-state cost of a tier O(changed children).

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};

/// Predicted-loss quantum for ladder rungs. Losses are fractions in
/// `[0, 1]`; 10⁻⁴ resolution sits far below the ε = 4.8 % decision
/// granularity, so rungs the flat pass 2 would tie-break arbitrarily
/// land in the same bucket here too.
pub const LOSS_QUANTUM: f64 = 1.0e-4;

/// Sub-budgets handed down the tree are rounded *down* to this grid so
/// float jitter in parent arithmetic cannot flap a child's budget bits
/// (and thereby its cached schedule) between rounds.
pub const SUBBUDGET_GRID_W: f64 = 0.25;

/// Additive guard on a no-pressure sub-budget assignment (the child is
/// handed exactly its desired power): one part in 10⁹ of a watt keeps
/// float re-association in `budget − reserved` arithmetic from
/// manufacturing a spurious one-step demotion. The child's actual draw
/// is bounded by its desired power, so the guard never costs
/// compliance beyond ~1 nW per child.
pub const ULP_GUARD_W: f64 = 1.0e-9;

/// Quantize a predicted loss to its ladder bucket. Non-finite losses
/// (an unmodelled corner the flat heap demotes last) map to the top
/// bucket so both schedulers defer them identically.
pub fn quantize_loss(loss: f64) -> u32 {
    if !loss.is_finite() || loss >= (u32::MAX as f64 - 1.0) * LOSS_QUANTUM {
        return u32::MAX;
    }
    (loss.max(0.0) / LOSS_QUANTUM).round() as u32
}

/// One coalesced step of a subtree's demotion ladder: `shed_w` watts of
/// releasable power, every constituent single-step demotion costing the
/// same quantized predicted loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LadderRung {
    /// Quantized absolute predicted loss after taking a step at this
    /// level ([`quantize_loss`]).
    pub loss_q: u32,
    /// Total power shed by the coalesced steps (W).
    pub shed_w: f64,
}

/// The scheduling state one subtree exports to its parent tier.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubtreeAggregate {
    /// Σ power at the ε-desired operating point, *plus* conservative
    /// charges for silent/never-reported nodes inside the subtree (W).
    pub desired_w: f64,
    /// Σ power with every demotable processor at `f_min`, plus the same
    /// charges — the subtree cannot be pushed below this (W).
    pub floor_w: f64,
    /// Last reported measured power (telemetry; excluded from the
    /// fingerprint because it does not shape the schedule).
    pub power_w: f64,
    /// Conservative ceiling on the subtree's draw if its coordinator
    /// dies and can issue no further commands (W). Excluded from the
    /// fingerprint — it matters only at a death transition, which
    /// forces a re-merge anyway.
    pub ceiling_w: f64,
    /// Demotion rungs in ascending `loss_q`, coalesced per bucket.
    pub ladder: Vec<LadderRung>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a stream of `u64` words — the fingerprint primitive for
/// both summary contents (rack dirty tracking) and aggregates.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Absorb one word.
    pub fn push(&mut self, word: u64) {
        self.0 = fnv1a(self.0, word);
    }

    /// Absorb an `f64` by bit pattern.
    pub fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl SubtreeAggregate {
    /// Reset to an empty aggregate (keeps the ladder's capacity).
    pub fn clear(&mut self) {
        self.desired_w = 0.0;
        self.floor_w = 0.0;
        self.power_w = 0.0;
        self.ceiling_w = 0.0;
        self.ladder.clear();
    }

    /// Digest of everything that shapes the parent's schedule: desired
    /// and floor powers and the full ladder. `power_w` and `ceiling_w`
    /// are deliberately excluded (see their field docs).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.push_f64(self.desired_w);
        fp.push_f64(self.floor_w);
        for rung in &self.ladder {
            fp.push(u64::from(rung.loss_q));
            fp.push_f64(rung.shed_w);
        }
        fp.finish()
    }

    /// Total power the ladder can shed (desired → floor span).
    pub fn sheddable_w(&self) -> f64 {
        self.ladder.iter().map(|r| r.shed_w).sum()
    }
}

/// Sort `(loss_q, shed_w)` pairs ascending and coalesce equal buckets
/// into `out` (cleared first).
pub fn coalesce_rungs(rungs: &mut [(u32, f64)], out: &mut Vec<LadderRung>) {
    out.clear();
    rungs.sort_unstable_by_key(|&(q, _)| q);
    for &(loss_q, shed_w) in rungs.iter() {
        match out.last_mut() {
            Some(last) if last.loss_q == loss_q => last.shed_w += shed_w,
            _ => out.push(LadderRung { loss_q, shed_w }),
        }
    }
}

/// One child as seen by a parent tier's allocator.
#[derive(Debug, Clone, Copy)]
pub struct ChildInput<'a> {
    /// The child's exported aggregate (last known when offline).
    pub agg: &'a SubtreeAggregate,
    /// `Some(charge)` when the child's coordinator is unreachable: the
    /// charge is held against the budget and the child receives no
    /// sub-budget this round.
    pub offline_charge_w: Option<f64>,
}

/// Allocate `budget_w` across `children`, writing one sub-budget per
/// child into `out` (`NaN` for offline children, which are charged
/// instead). Returns `false` when the budget cannot be met even with
/// every rung consumed — children are then assigned their floors, the
/// aggregate analogue of the flat algorithm pinning everything at
/// `f_min` on an infeasible round.
///
/// The allocation consumes rungs in ascending quantized-loss order
/// (ties broken by child index, deterministically), permits partial
/// consumption of a coalesced rung, and rounds pressured assignments
/// down to [`SUBBUDGET_GRID_W`]; Σ assigned never exceeds
/// `budget_w − Σ charges` beyond [`ULP_GUARD_W`] per child.
///
/// `children` is walked several times, hence `Clone`: a slice of
/// [`ChildInput`]s, or an iterator building them on the fly so that a
/// tier need not collect its children into a vector every round.
pub fn assign_subbudgets<'a, I>(children: I, budget_w: f64, out: &mut Vec<f64>) -> bool
where
    I: IntoIterator,
    I::Item: Borrow<ChildInput<'a>>,
    I::IntoIter: Clone,
{
    let children = children.into_iter();
    out.clear();
    let mut charges = 0.0;
    let mut desired = 0.0;
    for child in children.clone() {
        let child = child.borrow();
        out.push(f64::NAN);
        match child.offline_charge_w {
            Some(w) => charges += w,
            None => desired += child.agg.desired_w,
        }
    }
    let avail = budget_w - charges;
    if desired <= avail {
        for (i, child) in children.enumerate() {
            let child = child.borrow();
            if child.offline_charge_w.is_none() {
                out[i] = child.agg.desired_w + ULP_GUARD_W;
            }
        }
        return true;
    }

    // Budget pressure: consume the globally cheapest rungs first.
    let mut rungs: Vec<(u32, usize, f64)> = Vec::new();
    for (i, child) in children.clone().enumerate() {
        let child = child.borrow();
        if child.offline_charge_w.is_some() {
            continue;
        }
        for rung in &child.agg.ladder {
            rungs.push((rung.loss_q, i, rung.shed_w));
        }
    }
    rungs.sort_unstable_by_key(|&(q, i, _)| (q, i));
    let mut shed = vec![0.0; out.len()];
    let mut need = desired - avail;
    for &(_, i, shed_w) in &rungs {
        if need <= 0.0 {
            break;
        }
        let take = shed_w.min(need);
        shed[i] += take;
        need -= take;
    }
    if need > 0.0 {
        // Infeasible: every live child to its floor.
        for (i, child) in children.enumerate() {
            let child = child.borrow();
            if child.offline_charge_w.is_none() {
                out[i] = child.agg.floor_w;
            }
        }
        return false;
    }
    for (i, child) in children.enumerate() {
        let child = child.borrow();
        if child.offline_charge_w.is_some() {
            continue;
        }
        out[i] = if shed[i] > 0.0 {
            let target = child.agg.desired_w - shed[i];
            let gridded = (target / SUBBUDGET_GRID_W).floor() * SUBBUDGET_GRID_W;
            gridded.max(child.agg.floor_w)
        } else {
            child.agg.desired_w + ULP_GUARD_W
        };
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(desired: f64, floor: f64, rungs: &[(u32, f64)]) -> SubtreeAggregate {
        SubtreeAggregate {
            desired_w: desired,
            floor_w: floor,
            power_w: desired,
            ceiling_w: desired,
            ladder: rungs
                .iter()
                .map(|&(loss_q, shed_w)| LadderRung { loss_q, shed_w })
                .collect(),
        }
    }

    #[test]
    fn unconstrained_assignment_hands_each_child_its_desire() {
        let a = agg(100.0, 40.0, &[(1, 60.0)]);
        let b = agg(50.0, 20.0, &[(2, 30.0)]);
        let children = [
            ChildInput {
                agg: &a,
                offline_charge_w: None,
            },
            ChildInput {
                agg: &b,
                offline_charge_w: None,
            },
        ];
        let mut out = Vec::new();
        assert!(assign_subbudgets(&children, f64::INFINITY, &mut out));
        assert!(out[0] >= 100.0 && out[0] < 100.001);
        assert!(out[1] >= 50.0 && out[1] < 50.001);
    }

    #[test]
    fn pressure_consumes_cheapest_rungs_first() {
        // Child 0's rungs cost loss 5; child 1's cost loss 1 — the cut
        // should land on child 1 first.
        let a = agg(100.0, 40.0, &[(5, 60.0)]);
        let b = agg(100.0, 40.0, &[(1, 60.0)]);
        let children = [
            ChildInput {
                agg: &a,
                offline_charge_w: None,
            },
            ChildInput {
                agg: &b,
                offline_charge_w: None,
            },
        ];
        let mut out = Vec::new();
        assert!(assign_subbudgets(&children, 160.0, &mut out));
        // 40 W shed, all from child 1.
        assert!(out[0] >= 100.0, "{out:?}");
        assert!(out[1] <= 60.0 + 1e-9 && out[1] >= 40.0, "{out:?}");
        assert!(out[0] + out[1] <= 160.0 + 2.0 * ULP_GUARD_W, "{out:?}");
    }

    #[test]
    fn infeasible_budget_floors_everyone() {
        let a = agg(100.0, 40.0, &[(1, 60.0)]);
        let b = agg(100.0, 40.0, &[(1, 60.0)]);
        let children = [
            ChildInput {
                agg: &a,
                offline_charge_w: None,
            },
            ChildInput {
                agg: &b,
                offline_charge_w: None,
            },
        ];
        let mut out = Vec::new();
        assert!(!assign_subbudgets(&children, 50.0, &mut out));
        assert_eq!(out, vec![40.0, 40.0]);
    }

    #[test]
    fn offline_children_are_charged_not_scheduled() {
        let a = agg(100.0, 40.0, &[(1, 60.0)]);
        let b = agg(100.0, 40.0, &[(1, 60.0)]);
        let children = [
            ChildInput {
                agg: &a,
                offline_charge_w: Some(120.0),
            },
            ChildInput {
                agg: &b,
                offline_charge_w: None,
            },
        ];
        let mut out = Vec::new();
        // 200 W total: 120 W charged to the dark child leaves 80 W, so
        // the live child sheds 20 W.
        assert!(assign_subbudgets(&children, 200.0, &mut out));
        assert!(out[0].is_nan());
        assert!(out[1] <= 80.0 + ULP_GUARD_W, "{out:?}");
        assert!(out[1] >= 40.0, "{out:?}");
    }

    #[test]
    fn gridded_assignments_round_down_never_up() {
        let a = agg(100.0, 10.0, &[(1, 90.0)]);
        let children = [ChildInput {
            agg: &a,
            offline_charge_w: None,
        }];
        let mut out = Vec::new();
        assert!(assign_subbudgets(&children, 77.13, &mut out));
        assert!(out[0] <= 77.13, "{out:?}");
        assert!((out[0] / SUBBUDGET_GRID_W).fract().abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn fingerprint_ignores_power_and_ceiling_but_sees_the_ladder() {
        let base = agg(100.0, 40.0, &[(1, 60.0)]);
        let mut same = base.clone();
        same.power_w = 1.0;
        same.ceiling_w = 9999.0;
        assert_eq!(base.fingerprint(), same.fingerprint());
        let mut drifted = base.clone();
        drifted.ladder[0].loss_q = 2;
        assert_ne!(base.fingerprint(), drifted.fingerprint());
        let mut heavier = base.clone();
        heavier.desired_w = 101.0;
        assert_ne!(base.fingerprint(), heavier.fingerprint());
    }

    #[test]
    fn loss_quantization_buckets_ties_and_contains_nan() {
        assert_eq!(quantize_loss(0.0), 0);
        assert_eq!(quantize_loss(1.0e-5), quantize_loss(3.0e-5));
        assert_ne!(quantize_loss(0.05), quantize_loss(0.10));
        assert_eq!(quantize_loss(f64::NAN), u32::MAX);
        assert_eq!(quantize_loss(f64::INFINITY), u32::MAX);
    }

    #[test]
    fn coalesce_merges_equal_buckets_in_order() {
        let mut rungs = vec![(3, 1.0), (1, 2.0), (3, 4.0), (1, 0.5)];
        let mut out = Vec::new();
        coalesce_rungs(&mut rungs, &mut out);
        assert_eq!(
            out,
            vec![
                LadderRung {
                    loss_q: 1,
                    shed_w: 2.5
                },
                LadderRung {
                    loss_q: 3,
                    shed_w: 5.0
                },
            ]
        );
    }
}
