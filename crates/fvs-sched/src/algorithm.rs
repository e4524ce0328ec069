//! The pure two-pass scheduling algorithm of the paper's Figure 3.
//!
//! Two implementations of the budget pass are provided:
//!
//! - [`FvsstAlgorithm::schedule_cached`] — the production path, over a
//!   [`ScheduleCache`] of `O(n)` state. Pass 1 fills one reused `|F|` row
//!   per rebuilt processor and keeps the two entries every round reads in
//!   dense columns (`slot_losses`): pass 2's first candidates, and pass
//!   3's loss of every processor pass 2 left alone. Any other loss is
//!   evaluated where a round reads it (`loss_at`), one per demotion.
//!   Pass 2 keeps the running total power updated by per-step deltas from
//!   a per-index power table and, only when the desired power exceeds the
//!   budget, draws each victim from a `DemotionQueue`: candidates
//!   bucketed by a monotone function of their next-step predicted loss,
//!   each bucket sorted only when the cursor reaches it; `O(n + d)` plus
//!   the in-bucket sorts for `d` demotions, against the naive `O(d·n)`.
//! - [`FvsstAlgorithm::schedule_reference`] — the naive loop, kept as the
//!   executable specification. Both implementations share the exact same
//!   power accounting (initial sum in processor order plus per-step
//!   deltas) and the same victim tie-break (smallest loss by
//!   `f64::total_cmp`, then lowest processor index), so their decisions
//!   are bit-identical; `tests/scheduler_properties.rs` asserts this
//!   differentially.
//!
//! Pass 1 is *incremental*: the cache keeps, per processor, the model
//! its slot was computed from. A processor's loss columns and
//! desired slot are recomputed only when its fitted model moves beyond
//! the cache's [`ModelTolerance`], and when no processor, nor the budget,
//! changed at all — and the previous decision was feasible — the cached
//! decision is returned without re-running any pass.
//! [`FvsstAlgorithm::schedule`] and
//! [`FvsstAlgorithm::schedule_with_scratch`] are the same path over a
//! cache that forgets before every round ([`ScheduleScratch`]).
//!
//! Pass 1 has one rule and pass 2 one order, the paper's. The ablation
//! comparators (round-robin demotion, the continuous `f_ideal` of §5)
//! are policies of their own in `fvs-baselines`, over pass 1's output.

use fvs_model::{perf_loss_from, CpiModel, FreqMhz, FrequencySet, PerfLossTable};
use fvs_power::{FreqPowerTable, PowerVoltageIndex, VoltageTable};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Per-processor input to one scheduling computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcInput {
    /// Fitted workload model from the last window, or `None` when the
    /// window was uninformative (the processor keeps its previous
    /// frequency through pass 1 but still participates in pass 2).
    pub model: Option<CpiModel>,
    /// The idle signal: when set (and idle handling is enabled), the
    /// predictor is bypassed and the processor is pinned to `f_min`.
    pub idle: bool,
    /// The frequency currently in force (fallback when `model` is
    /// `None`).
    pub current: FreqMhz,
}

/// The outcome of one scheduling computation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDecision {
    /// Final frequency per processor (after the budget pass).
    pub freqs: Vec<FreqMhz>,
    /// The ε-constrained "desired" frequency per processor (before the
    /// budget pass) — what each processor *wants* (Figure 9's "desired").
    pub desired: Vec<FreqMhz>,
    /// Minimum voltage per processor for the final frequency.
    pub voltages: Vec<f64>,
    /// Predicted IPC at the final frequency (None for idle/unmodelled).
    pub predicted_ipc: Vec<Option<f64>>,
    /// Predicted per-processor loss vs `f_max` at the final frequency.
    pub predicted_loss: Vec<f64>,
    /// Σ table power of the final assignment (W).
    pub predicted_power_w: f64,
    /// Whether the budget could be met. `false` means every processor is
    /// already at `f_min` and the floor still exceeds the budget — the
    /// system must escalate (e.g. power nodes off). An empty processor
    /// list is feasible by definition (nothing draws power).
    pub feasible: bool,
    /// Number of single-step demotions pass 2 performed.
    pub demotions: usize,
}

/// One pass-2 single-step demotion, as recorded by the budget pass.
///
/// The sequence of records for a round is a faithful trace: applying
/// the steps, in order, to the pass-1 desired frequencies reproduces the
/// final [`ScheduleDecision::freqs`] exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemotionRecord {
    /// The demoted processor.
    pub proc: usize,
    /// Frequency before the step.
    pub from: FreqMhz,
    /// Frequency after the step.
    pub to: FreqMhz,
    /// Predicted loss vs `f_max` *after* the step (0 for unmodelled
    /// processors).
    pub predicted_loss: f64,
    /// Power change of the step (W; negative — demotions shed power).
    pub power_delta_w: f64,
}

/// Sentinel index for a processor whose current frequency is not a member
/// of the schedulable set (possible only for unmodelled, non-idle
/// processors). Such a processor keeps its frequency: it cannot be
/// demoted, and its power contribution is interpolated once.
const OFFGRID: usize = usize::MAX;

/// End-of-list marker of the [`DemotionQueue`] bucket lists.
const NIL: u32 = u32::MAX;

/// Pass 2's victim queue: the one live candidate per processor, popped
/// in ascending `(loss by f64::total_cmp, proc)` order. The loss is the
/// absolute predicted loss `proc` would have after one more step down, so
/// the front is exactly the winner of the reference implementation's
/// first-minimum scan.
///
/// Candidates sit in intrusive per-bucket lists (`head[bucket]` →
/// `links[proc].1` → …), so storage is `O(n + buckets)` and never grows
/// with the key distribution. The bucket index is a monotone function of
/// the loss, so every candidate of a later bucket orders strictly after
/// every candidate of an earlier one; a bucket is gathered into `run`
/// and sorted only when the cursor reaches it. A demoted processor's
/// next candidate normally lands in a later bucket; one that lands in an
/// already gathered bucket goes to the `side` min-heap instead, and
/// `pop` takes the smaller of the two fronts. Order is therefore exact
/// for any keys, NaN and ±∞ included.
#[derive(Debug, Clone, Default)]
struct DemotionQueue {
    /// First processor of each bucket's list, or [`NIL`].
    head: Vec<u32>,
    /// Per processor: its candidate's sort key (the loss, as
    /// [`push`](Self::push) maps it) and the next processor in the same
    /// bucket.
    links: Vec<(u64, u32)>,
    /// Buckets below `cursor` have been gathered.
    cursor: usize,
    /// The gathered bucket, sorted descending so the front pops off the end.
    run: Vec<(u64, u32)>,
    /// Binary min-heap of candidates re-inserted behind the cursor.
    side: Vec<(u64, u32)>,
}

impl DemotionQueue {
    /// Empty the queue for a round over `n` processors. The bucket count
    /// follows `n`: a 16-processor machine scheduled every few ticks must
    /// not pay for resetting and scanning a cluster-sized bucket array.
    fn reset(&mut self, n: usize) {
        assert!(n < NIL as usize, "processor index must fit the queue's u32");
        self.head.clear();
        self.head.resize((n / 8).next_power_of_two().min(2048), NIL);
        self.links.resize(n, (0, NIL));
        self.cursor = 0;
        self.run.clear();
        self.run.reserve(n);
        self.side.clear();
        self.side.reserve(n);
    }

    /// Insert (or replace) `proc`'s candidate.
    fn push(&mut self, proc: usize, loss: f64) {
        // `total_cmp` order as an unsigned integer: flip negative values
        // entirely, set the sign bit of the others. `pop` undoes it.
        let bits = loss.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        // Monotone under the same order: −NaN, −∞ and negatives clamp to
        // the first bucket (the cast saturates), +∞ and +NaN to the last.
        let last = self.head.len() - 1;
        let bucket = if loss.is_nan() && loss.is_sign_positive() {
            last
        } else {
            ((loss * self.head.len() as f64) as usize).min(last)
        };
        if bucket >= self.cursor {
            self.links[proc] = (key, self.head[bucket]);
            self.head[bucket] = proc as u32;
            return;
        }
        let entry = (key, proc as u32);
        let mut at = self.side.len();
        self.side.push(entry);
        while at > 0 && entry < self.side[(at - 1) / 2] {
            self.side[at] = self.side[(at - 1) / 2];
            at = (at - 1) / 2;
        }
        self.side[at] = entry;
    }

    /// Remove and return the processor with the smallest `(loss, proc)`,
    /// and its loss: [`push`](Self::push)'s key mapped back, every bit of
    /// it (a NaN's sign and payload included).
    fn pop(&mut self) -> Option<(usize, f64)> {
        if self.run.is_empty() && self.side.is_empty() {
            while *self.head.get(self.cursor)? == NIL {
                self.cursor += 1;
            }
            let mut proc = self.head[self.cursor];
            self.cursor += 1;
            while proc != NIL {
                let (key, next) = self.links[proc as usize];
                self.run.push((key, proc));
                proc = next;
            }
            self.run.sort_unstable_by(|a, b| b.cmp(a));
        }
        let from_run = match (self.run.last(), self.side.first()) {
            (Some(r), Some(s)) => r < s,
            (r, _) => r.is_some(),
        };
        let (key, proc) = if from_run {
            self.run.pop()?
        } else {
            self.pop_side()
        };
        let bits = if key >> 63 == 1 { key ^ 1 << 63 } else { !key };
        Some((proc as usize, f64::from_bits(bits)))
    }

    fn pop_side(&mut self) -> (u64, u32) {
        let front = self.side.swap_remove(0);
        let (mut at, len) = (0, self.side.len());
        loop {
            let mut child = 2 * at + 1;
            if child + 1 < len && self.side[child + 1] < self.side[child] {
                child += 1;
            }
            if child >= len || self.side[at] <= self.side[child] {
                return front;
            }
            self.side.swap(at, child);
            at = child;
        }
    }
}

/// Reusable storage for [`FvsstAlgorithm::schedule_with_scratch`]: a
/// [`ScheduleCache`] that is invalidated before every round, so each
/// round recomputes every processor and depends on nothing but its own
/// inputs.
///
/// After a warm-up call at a given processor count, subsequent calls
/// perform **zero** heap allocations (asserted by `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct ScheduleScratch(ScheduleCache);

impl ScheduleScratch {
    /// Empty scratch; storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision computed by the most recent
    /// [`FvsstAlgorithm::schedule_with_scratch`] call.
    pub fn decision(&self) -> &ScheduleDecision {
        self.0.decision()
    }

    /// Consume the scratch, keeping only the last decision.
    pub fn into_decision(self) -> ScheduleDecision {
        self.0.decision
    }

    /// The pass-2 demotion steps of the most recent call, in the order
    /// they were taken.
    pub fn demotion_log(&self) -> &[DemotionRecord] {
        self.0.demotion_log()
    }
}

/// Quantization steps for the model fingerprint of [`ScheduleCache`].
///
/// A processor's cached loss columns and desired slot are reused as
/// long as both fitted coefficients stay inside their quantization
/// bucket; a move beyond half a step across a bucket boundary triggers a
/// rebuild. Steps of `0.0` mean bit-exact comparison (every coefficient
/// change invalidates). Non-finite coefficients compare by bit pattern
/// ([`same_bucket`](Self::same_bucket)), so a model degenerating to
/// NaN/∞ is never confused with a finite one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelTolerance {
    /// Bucket width for the base CPI coefficient (cycles/instruction).
    pub cpi0_step: f64,
    /// Bucket width for the memory-time coefficient (seconds/instruction).
    /// `mem_time_per_instr · f` is in cycles, so a step of `1e-13`
    /// contributes the same CPI resolution at 1 GHz as `cpi0_step = 1e-4`.
    pub mem_step_s: f64,
}

impl ModelTolerance {
    /// Bit-exact fingerprints: any coefficient change invalidates. With
    /// this tolerance the cached path is *exactly* equivalent to
    /// rebuilding every round.
    pub const EXACT: ModelTolerance = ModelTolerance {
        cpi0_step: 0.0,
        mem_step_s: 0.0,
    };

    /// The default phase-stability tolerance: ≈ 10⁻⁴ CPI of resolution at
    /// 1 GHz — far below the ε = 4.8 % decision granularity, and also far
    /// below the ±1.5 % sampling noise of the simulated counters, so it
    /// absorbs bit-level refit jitter only. On the repo's own nodes a
    /// refitted model leaves its bucket almost every period (DESIGN §8
    /// has the counts of
    /// `fvs-net/tests/properties.rs::simulated_nodes_move_every_model_every_round`).
    pub const PHASE_DEFAULT: ModelTolerance = ModelTolerance {
        cpi0_step: 1.0e-4,
        mem_step_s: 1.0e-13,
    };

    /// Quantize one coefficient to its bucket index. A finite `x` less
    /// than 9·10¹⁵ steps from zero maps to `round(x / step)` as an
    /// integer, anything else to its bit pattern — and the two ranges
    /// overlap: `q = −2⁵²` is the pattern of −∞, every negative NaN is
    /// some negative `q`, and so is every finite `x ≤ −2¹⁰²³`. Compare
    /// coefficients with [`same_bucket`](Self::same_bucket), which
    /// keeps non-finite values apart, not by equal indices.
    pub fn quantize(x: f64, step: f64) -> u64 {
        if step > 0.0 && x.is_finite() {
            let q = (x / step).round();
            // Stay within the exactly-representable integer range; an
            // absurdly large coefficient falls back to bit identity.
            if q.abs() < 9.0e15 {
                return (q as i64) as u64;
            }
        }
        x.to_bits()
    }

    /// Whether `a` and `b` share a bucket of width `step`: equal bits do,
    /// a non-finite value shares one only with its own bits, and two
    /// finite values do when their [`quantize`](Self::quantize) indices
    /// agree.
    ///
    /// The common miss is decided without dividing. When `step > 0`,
    /// `|a|, |b| < 2⁵⁰·step` and `|a − b| > 1.5·step`, the answer is
    /// `false`: below 2⁵⁰ each computed quotient `x / step` is within
    /// 2⁵⁰·2⁻⁵³ = ⅛ of the real one, so the two quotients lie more than
    /// 1.5 − ¼ > 1 apart (the rounding of `1.5·step` and of `a − b`
    /// costs a relative 2⁻⁵² at most), and two reals ≥ 1 apart never
    /// round to one integer. `2⁵⁰·step` is exact, and the quotients stay
    /// far inside `quantize`'s integer range.
    pub fn same_bucket(a: f64, b: f64, step: f64) -> bool {
        if a.to_bits() == b.to_bits() {
            return true;
        }
        if !a.is_finite() || !b.is_finite() {
            return false;
        }
        let within = step * (1u64 << 50) as f64;
        if a.abs() < within && b.abs() < within && (a - b).abs() > 1.5 * step {
            return false;
        }
        Self::quantize(a, step) == Self::quantize(b, step)
    }
}

impl Default for ModelTolerance {
    fn default() -> Self {
        ModelTolerance::EXACT
    }
}

/// One processor's cache fingerprint: everything pass 1 depends on but
/// the model, whose bucket is the model the slot was computed from
/// (`ScheduleCache::models`).
///
/// `current` participates only for non-idle unmodelled processors — the
/// only case where the current frequency influences the decision (it is
/// kept, and an off-grid value fixes the power contribution).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ProcKey {
    /// Never computed / explicitly invalidated; matches nothing.
    Stale,
    /// Idle-pinned (idle signal set and idle detection on), no model.
    IdleUnmodelled,
    /// Idle-pinned with a model (its loss at `f_min` still feeds pass 3).
    IdleModel,
    /// No model: the processor keeps `current` through pass 1.
    Unmodelled(FreqMhz),
    /// Fitted model.
    Model,
}

impl ProcKey {
    /// `None` while `p` still falls under this key — `from` being the
    /// model the key was computed from, each coefficient in its
    /// [`ModelTolerance::same_bucket`] — else the key `p` has now.
    fn moved(
        self,
        p: &ProcInput,
        from: &Option<CpiModel>,
        idle_detection: bool,
        tol: &ModelTolerance,
    ) -> Option<ProcKey> {
        let pinned = p.idle && idle_detection;
        let key = match (&p.model, pinned) {
            (Some(_), true) => ProcKey::IdleModel,
            (Some(_), false) => ProcKey::Model,
            (None, true) => ProcKey::IdleUnmodelled,
            (None, false) => ProcKey::Unmodelled(p.current),
        };
        let same = ModelTolerance::same_bucket;
        let kept = key == self
            && match (&p.model, from) {
                (Some(m), Some(b)) => {
                    same(m.cpi0, b.cpi0, tol.cpi0_step)
                        && same(m.mem_time_per_instr, b.mem_time_per_instr, tol.mem_step_s)
                }
                _ => true,
            };
        (!kept).then_some(key)
    }
}

/// Cache effectiveness counters (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// `schedule_cached` invocations.
    pub rounds: u64,
    /// Rounds answered entirely from the cached decision (no pass ran).
    pub full_hits: u64,
    /// Per-processor pass-1 evaluations skipped (fingerprint unchanged).
    pub proc_hits: u64,
    /// Per-processor pass-1 evaluations performed (fingerprint changed).
    pub proc_rebuilds: u64,
}

/// Incremental-scheduling state for [`FvsstAlgorithm::schedule_cached`].
///
/// Persists per-processor fingerprints, effective models, desired slots
/// and two loss columns across rounds so pass 1 runs only for processors
/// whose fitted model moved beyond the [`ModelTolerance`], and keeps the
/// last decision so a fully-unchanged round is answered without running
/// any pass. Every buffer is sized `n`, `|F|` or the demotion log's; none
/// is `n × |F|`. The steady state allocates nothing.
///
/// The cache watches its inputs: a different processor count, a mutated
/// algorithm configuration (frequency set, tables, ε, idle detection),
/// or [`ScheduleCache::invalidate`] flush it wholesale.
#[derive(Debug, Clone, Default)]
pub struct ScheduleCache {
    tolerance: ModelTolerance,
    /// The algorithm configuration the cached state was computed under.
    alg: Option<FvsstAlgorithm>,
    index: PowerVoltageIndex,
    keys: Vec<ProcKey>,
    /// The *effective* model per processor: the one its slot and columns
    /// were last computed from.
    models: Vec<Option<CpiModel>>,
    /// Each effective model's `Perf(f_max)`, the divisor of its every
    /// loss (unread without a model).
    perf_max: Vec<f64>,
    /// Pass 1's slot per processor; its frequency is `decision.desired`.
    desired_idx: Vec<usize>,
    /// The two [`slot_losses`] columns, rewritten with the slot.
    step_loss: Vec<f64>,
    desired_loss: Vec<f64>,
    /// Pass 1's one loss row, `|F|` long, refilled per rebuilt processor.
    row: Vec<f64>,
    /// The slots pass 2 left: the current decision in index space.
    work_idx: Vec<usize>,
    queue: DemotionQueue,
    decision: ScheduleDecision,
    demotion_log: Vec<DemotionRecord>,
    last_budget_bits: u64,
    valid: bool,
    stats: CacheStats,
}

impl ScheduleCache {
    /// Cache with bit-exact fingerprints ([`ModelTolerance::EXACT`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache with an explicit tolerance.
    pub fn with_tolerance(tolerance: ModelTolerance) -> Self {
        ScheduleCache {
            tolerance,
            ..Self::default()
        }
    }

    /// The fingerprint tolerance in force.
    pub fn tolerance(&self) -> ModelTolerance {
        self.tolerance
    }

    /// Cumulative hit/rebuild counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The decision computed (or reused) by the most recent
    /// [`FvsstAlgorithm::schedule_cached`] call.
    pub fn decision(&self) -> &ScheduleDecision {
        &self.decision
    }

    /// The pass-2 demotion steps behind the current decision, in the
    /// order they were taken. On a full-hit round the cached decision —
    /// and therefore this log — is carried forward unchanged, so the log
    /// always describes [`ScheduleCache::decision`].
    pub fn demotion_log(&self) -> &[DemotionRecord] {
        &self.demotion_log
    }

    /// Σ table power (W) of processors `span` under [`decision`](Self::decision):
    /// each `power_interpolated(decision().freqs[i])` to the bit, read by slot.
    pub fn decided_power_w(&self, span: std::ops::Range<usize>) -> f64 {
        let alg = self.alg.as_ref().expect("a decision has an algorithm");
        span.map(|i| alg.slot_power(&self.index, self.work_idx[i], self.decision.freqs[i]))
            .sum()
    }

    /// Drop all cached state; the next round recomputes everything.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Whether the cache holds a valid pass-1 state (at least one
    /// [`FvsstAlgorithm::schedule_cached`] round has run since the last
    /// invalidation). The aggregate exports below are meaningful only
    /// when this is `true`.
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Σ table power with every processor at its *desired* (pass-1)
    /// slot — the subtree's power demand before any budget pressure.
    /// Off-grid processors are fixed loads at their current frequency.
    /// Returns `0.0` on a cold cache.
    pub fn desired_power_w(&self) -> f64 {
        self.power_at_slots(|k| k)
    }

    /// Σ table power with every demotable processor at `f_min` — the
    /// floor below which no amount of budget pressure can push this
    /// processor set. Off-grid processors cannot be demoted and keep
    /// their current power. Returns `0.0` on a cold cache.
    pub fn floor_power_w(&self) -> f64 {
        self.power_at_slots(|_| 0)
    }

    /// Σ table power with each on-grid processor at `slot(desired index)`.
    fn power_at_slots(&self, slot: impl Fn(usize) -> usize) -> f64 {
        let Some(alg) = self.alg.as_ref().filter(|_| self.valid) else {
            return 0.0;
        };
        let mut total = 0.0;
        for (&k, &f) in self.desired_idx.iter().zip(&self.decision.desired) {
            let k = if k == OFFGRID { k } else { slot(k) };
            total += alg.slot_power(&self.index, k, f);
        }
        total
    }

    /// Visit every single-step demotion available below the desired
    /// slots, exactly the candidate set pass 2 would draw from:
    /// `f(loss_after_step, shed_w)` where `loss_after_step` is the
    /// absolute predicted loss vs `f_max` after taking the step (the
    /// paper's pass-2 key; `0.0` for unmodelled processors) and
    /// `shed_w` the power the step releases. Rungs of one processor are
    /// emitted in ascending-loss order (stepping down from the desired
    /// slot); no-op on a cold cache.
    pub fn for_each_demotion(&self, mut f: impl FnMut(f64, f64)) {
        let Some(alg) = self.alg.as_ref().filter(|_| self.valid) else {
            return;
        };
        for i in 0..self.keys.len() {
            let k = self.desired_idx[i];
            if k == OFFGRID {
                continue;
            }
            for at in (1..=k).rev() {
                let loss = loss_at(&self.models[i], self.perf_max[i], alg.freq_set.at(at - 1));
                let shed = self.index.power_w(at) - self.index.power_w(at - 1);
                f(loss, shed);
            }
        }
    }
}

/// Pass 1's loss row for one processor: the predicted loss vs `f_max` at
/// every set frequency, ascending, by [`perf_loss_from`] as
/// [`PerfLossTable::rebuild`] evaluates it, so rows and tables agree bit
/// for bit. Returns the `Perf(f_max)` it divided by. A processor without
/// a model gets zeros: free to demote.
fn fill_loss_row(row: &mut [f64], model: Option<&CpiModel>, set: &FrequencySet) -> f64 {
    let Some(model) = model else {
        row.fill(0.0);
        return 0.0;
    };
    let p_ref = model.perf_at(set.max());
    for (loss, f) in row.iter_mut().zip(set.iter()) {
        *loss = perf_loss_from(p_ref, model, f);
    }
    p_ref
}

/// The two entries of a processor's `row` every round reads, which pass
/// 1 keeps in dense columns: the loss one step below the desired slot
/// `k` — pass 2's first candidate, 0 where there is no step down — and
/// the loss at `k`, which pass 3 reports unless pass 2 moved the
/// processor (0 off the grid).
fn slot_losses(row: &[f64], k: usize) -> (f64, f64) {
    match k {
        OFFGRID => (0.0, 0.0),
        0 => (0.0, row[0]),
        _ => (row[k - 1], row[k]),
    }
}

/// A loss a round reads past pass 1, evaluated where it is read: the
/// loss at `f` under a processor's effective `model` (0 without one),
/// against the `Perf(f_max)` pass 1 kept — the bits [`fill_loss_row`]
/// wrote for the same slot.
#[inline]
fn loss_at(model: &Option<CpiModel>, perf_max: f64, f: FreqMhz) -> f64 {
    model
        .as_ref()
        .map_or(0.0, |m| perf_loss_from(perf_max, m, f))
}

/// The algorithm object: platform tables + parameters.
///
/// Stateless across invocations (the daemon in [`crate::scheduler`] owns
/// the state); one instance can be shared by any number of machines with
/// identical platforms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FvsstAlgorithm {
    /// The schedulable frequency set `F`.
    pub freq_set: FrequencySet,
    /// Frequency→power table used for the budget pass.
    pub power_table: FreqPowerTable,
    /// Voltage table for pass 3.
    pub voltage_table: VoltageTable,
    /// Tolerated predicted performance loss `ε`.
    pub epsilon: f64,
    /// When enabled, idle processors are pinned to `f_min` (the paper's
    /// idle-detection signal). When disabled, the hot-idle loop is fed to
    /// the predictor like any workload — the pathology of section 5.
    pub idle_detection: bool,
}

impl FvsstAlgorithm {
    /// The paper's configuration on the P630 platform: Table 1
    /// frequencies and powers, idle detection on.
    ///
    /// ε is 4.8 %, deliberately just *below* the 5 % performance step a
    /// CPU-bound workload takes from 1000→950 MHz. The paper notes ε
    /// "must be greater than the minimum performance step caused by a
    /// change in frequency and voltage" for the step to ever be taken;
    /// symmetrically, a workload with *zero* frequency-dependent stalls
    /// sits exactly on the 5 % boundary, and ε = 5 % would decide it by
    /// floating-point rounding. 4.8 % keeps fully CPU-bound work at
    /// `f_max` and admits 950 MHz from ≈ β = 0.3 upward — reproducing
    /// Figure 8's gzip split between 1000 and 950 MHz.
    pub fn p630() -> Self {
        let power_table = FreqPowerTable::p630_table1();
        FvsstAlgorithm {
            freq_set: power_table.frequency_set(),
            power_table,
            voltage_table: VoltageTable::p630(),
            epsilon: 0.048,
            idle_detection: true,
        }
    }

    /// Panics unless ε is finite and non-negative. A NaN ε admits no
    /// setting, so every modelled processor would stay at `f_max`; an
    /// infinite or negative one is no tolerance. Checked where a daemon
    /// or a cluster coordinator takes its algorithm.
    pub fn assert_valid_epsilon(&self) {
        assert!(
            self.epsilon.is_finite() && self.epsilon >= 0.0,
            "epsilon must be finite and non-negative"
        );
    }

    /// Pass 1 in index space: the desired set index (or [`OFFGRID`]) and
    /// frequency for one processor, over any source of its
    /// ascending-frequency losses (pass 1's loss row or a table's entries),
    /// asked for only when a modelled processor is scanned.
    fn desired_slot<L: Iterator<Item = f64>>(
        &self,
        input: &ProcInput,
        losses: impl FnOnce() -> L,
    ) -> (usize, FreqMhz) {
        let set = &self.freq_set;
        if input.idle && self.idle_detection {
            return (0, set.min());
        }
        if input.model.is_some() {
            // Lowest setting with loss < ε; loss is monotone non-increasing
            // in frequency, so the first admissible ascending entry is the
            // answer. Falls back to f_max (loss 0 by construction).
            let k = losses()
                .position(|loss| loss < self.epsilon)
                .unwrap_or(set.len() - 1);
            (k, set.at(k))
        } else {
            match set.index_of(input.current) {
                Some(k) => (k, input.current),
                None => (OFFGRID, input.current),
            }
        }
    }

    /// One processor's contribution to total power at its current slot.
    #[inline]
    fn slot_power(&self, index: &PowerVoltageIndex, idx: usize, current: FreqMhz) -> f64 {
        if idx == OFFGRID {
            self.power_table.power_interpolated(current)
        } else {
            index.power_w(idx)
        }
    }

    /// Run the full computation for `procs` under `budget_w`.
    ///
    /// One-shot convenience over [`schedule_with_scratch`]; allocates a
    /// fresh [`ScheduleScratch`] per call. Steady-state callers should
    /// hold a [`ScheduleCache`] and call [`schedule_cached`](Self::schedule_cached).
    ///
    /// [`schedule_with_scratch`]: FvsstAlgorithm::schedule_with_scratch
    pub fn schedule(&self, procs: &[ProcInput], budget_w: f64) -> ScheduleDecision {
        let mut scratch = ScheduleScratch::new();
        self.schedule_with_scratch(&mut scratch, procs, budget_w);
        scratch.into_decision()
    }

    /// Run the full computation for `procs` under `budget_w`, reusing
    /// `scratch` for every intermediate and the output. Returns a
    /// reference to the decision stored in the scratch.
    ///
    /// After one warm-up call at a given processor count, this performs
    /// no heap allocation at all.
    pub fn schedule_with_scratch<'a>(
        &self,
        scratch: &'a mut ScheduleScratch,
        procs: &[ProcInput],
        budget_w: f64,
    ) -> &'a ScheduleDecision {
        scratch.0.invalidate();
        self.schedule_cached(&mut scratch.0, procs, budget_w)
    }

    /// Run the full computation for `procs` under `budget_w` through the
    /// incremental cache.
    ///
    /// Pass 1 is evaluated only for processors whose fingerprint (model
    /// bucket under the cache's [`ModelTolerance`], idle pinning, and —
    /// for unmodelled processors — the current frequency) changed since
    /// the previous round; unchanged processors keep their cached
    /// effective model, desired slot and loss columns, so a
    /// within-tolerance model wobble schedules against the previously
    /// fitted coefficients (the *effective* model). When no fingerprint
    /// changed, the budget is bit-identical, and the previous decision was
    /// feasible, the cached decision is returned without running any pass.
    ///
    /// With [`ModelTolerance::EXACT`] the result is always bit-identical
    /// to [`schedule_reference`] on the same inputs; with a wider
    /// tolerance it is bit-identical to `schedule_reference` over the
    /// effective models. Steady-state calls perform no heap allocation.
    ///
    /// [`schedule_reference`]: Self::schedule_reference
    pub fn schedule_cached<'a>(
        &self,
        cache: &'a mut ScheduleCache,
        procs: &[ProcInput],
        budget_w: f64,
    ) -> &'a ScheduleDecision {
        self.schedule_cached_traced(cache, procs, budget_w, &fvs_telemetry::Tracer::disabled())
    }

    /// [`schedule_cached`](Self::schedule_cached) with causal span
    /// tracing: records `sched.pass1` (incremental fingerprint sweep),
    /// `sched.cache_probe` (full-hit check) and `sched.pass2` (budget
    /// demotions + finish) under the caller's current span. A disabled
    /// tracer costs one branch per span site and allocates nothing.
    pub fn schedule_cached_traced<'a>(
        &self,
        cache: &'a mut ScheduleCache,
        procs: &[ProcInput],
        budget_w: f64,
        tracer: &fvs_telemetry::Tracer,
    ) -> &'a ScheduleDecision {
        let n = procs.len();
        let set = &self.freq_set;
        cache.stats.rounds += 1;

        // Configuration watch: any change to the platform tables or the
        // algorithm parameters flushes the whole cache (the comparison is
        // O(|F|) and allocation-free; the clone only happens on change).
        if cache.alg.as_ref() != Some(self) {
            cache.alg = Some(self.clone());
            cache
                .index
                .rebuild(&self.power_table, &self.voltage_table, set);
            cache.valid = false;
        }
        if cache.keys.len() != n {
            cache.keys.clear();
            cache.keys.resize(n, ProcKey::Stale);
            cache.models.resize(n, None);
            cache.perf_max.resize(n, 0.0);
            cache.desired_idx.resize(n, 0);
            cache.decision.desired.resize(n, FreqMhz(0));
            cache.step_loss.resize(n, 0.0);
            cache.desired_loss.resize(n, 0.0);
            cache.valid = false;
        } else if !cache.valid {
            for k in &mut cache.keys {
                *k = ProcKey::Stale;
            }
        }
        // After the configuration watch: a flushed cache may have a new |F|.
        cache.row.resize(set.len(), 0.0);

        // ---- Incremental pass 1: rebuild only what moved. ----
        let mut changed = false;
        {
            let _pass1 = tracer.span("sched.pass1");
            for (i, p) in procs.iter().enumerate() {
                let moved =
                    cache.keys[i].moved(p, &cache.models[i], self.idle_detection, &cache.tolerance);
                let Some(key) = moved else {
                    cache.stats.proc_hits += 1;
                    continue;
                };
                changed = true;
                cache.stats.proc_rebuilds += 1;
                cache.keys[i] = key;
                let row = &mut cache.row;
                cache.perf_max[i] = fill_loss_row(row, p.model.as_ref(), set);
                let (k, f) = self.desired_slot(p, || row.iter().copied());
                (cache.step_loss[i], cache.desired_loss[i]) = slot_losses(row, k);
                cache.models[i] = p.model;
                cache.desired_idx[i] = k;
                cache.decision.desired[i] = f;
            }
        }

        let budget_bits = budget_w.to_bits();
        // An infeasible round is recomputed even when nothing changed:
        // the caller is expected to escalate, and the cheap re-run keeps
        // the "return cached only when feasible" contract simple.
        let full_hit = {
            let _probe = tracer.span("sched.cache_probe");
            cache.valid
                && !changed
                && budget_bits == cache.last_budget_bits
                && cache.decision.feasible
        };
        if full_hit {
            cache.stats.full_hits += 1;
            return &cache.decision;
        }
        cache.last_budget_bits = budget_bits;
        let _pass2 = tracer.span("sched.pass2");

        // ---- Passes 2 + 3 from the cached desired state. ----
        // Pass 2 demotes in place, so it works on a copy of the slots.
        cache.work_idx.clone_from(&cache.desired_idx);
        let (demotions, feasible) = self.budget_pass(
            &cache.index,
            &cache.models,
            &cache.perf_max,
            &cache.step_loss,
            &mut cache.work_idx,
            &mut cache.queue,
            &mut cache.demotion_log,
            procs,
            budget_w,
        );
        self.finish_pass(
            &cache.index,
            &cache.models,
            &cache.perf_max,
            &cache.desired_loss,
            &cache.desired_idx,
            &cache.work_idx,
            procs,
            &mut cache.decision,
            demotions,
            feasible,
        );
        cache.valid = true;
        &cache.decision
    }

    /// Pass 2: demote until under budget, one step at a time, each victim
    /// popped from the [`DemotionQueue`] with the loss it was queued under
    /// (from `step_loss` at the fill). `idx` starts as a copy of the
    /// desired slots and is mutated in place; the running power total is
    /// updated by per-step deltas. A step logs the popped loss and queues
    /// the processor under the one loss below. Every step taken is
    /// appended to `log` (cleared first; capacity is reserved for the
    /// worst case so steady-state calls never grow it). Returns
    /// `(demotions, feasible)`.
    ///
    /// Out of line, like [`finish_pass`](Self::finish_pass): folded into
    /// their one caller they slow its pass-1 and full-hit loops (the repo
    /// benchmark's flat, raise and drop rounds read 5 % longer).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn budget_pass(
        &self,
        index: &PowerVoltageIndex,
        models: &[Option<CpiModel>],
        perf_max: &[f64],
        step_loss: &[f64],
        idx: &mut [usize],
        queue: &mut DemotionQueue,
        log: &mut Vec<DemotionRecord>,
        procs: &[ProcInput],
        budget_w: f64,
    ) -> (usize, bool) {
        let n = procs.len();
        let set = &self.freq_set;
        log.clear();
        // Worst case: every processor walks from f_max to f_min.
        log.reserve(n * set.len().saturating_sub(1));
        let mut power = 0.0;
        for (&k, p) in idx.iter().zip(procs) {
            power += self.slot_power(index, k, p.current);
        }
        let mut demotions = 0usize;
        let mut feasible = true;
        // Sized on every round (a loose warm-up must leave a binding round
        // allocation-free), filled only to pop.
        queue.reset(n);
        if power > budget_w {
            for (i, (&k, &loss)) in idx.iter().zip(step_loss).enumerate() {
                if k != OFFGRID && k > 0 {
                    queue.push(i, loss);
                }
            }
        }
        // An empty machine draws nothing: feasible under any budget.
        while n > 0 && power > budget_w {
            let Some((i, loss)) = queue.pop() else {
                // Everything at f_min and still over budget.
                feasible = false;
                break;
            };
            let k = idx[i];
            let delta = index.power_w(k - 1) - index.power_w(k);
            power += delta;
            idx[i] = k - 1;
            demotions += 1;
            log.push(DemotionRecord {
                proc: i,
                from: set.at(k),
                to: set.at(k - 1),
                predicted_loss: loss,
                power_delta_w: delta,
            });
            if k - 1 > 0 {
                queue.push(i, loss_at(&models[i], perf_max[i], set.at(k - 2)));
            }
        }
        (demotions, feasible)
    }

    /// Pass 3: minimum voltages + predictions, written into `decision`
    /// (which must already carry the desired frequencies; every other
    /// field is overwritten) one column at a time. The loss of a
    /// processor pass 2 left alone is its `desired_loss`; one it moved
    /// is evaluated at its final slot (never one off the grid, which
    /// cannot move).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn finish_pass(
        &self,
        index: &PowerVoltageIndex,
        models: &[Option<CpiModel>],
        perf_max: &[f64],
        desired_loss: &[f64],
        desired: &[usize],
        idx: &[usize],
        procs: &[ProcInput],
        decision: &mut ScheduleDecision,
        demotions: usize,
        feasible: bool,
    ) {
        let set = &self.freq_set;
        let slots = || idx.iter().zip(procs);
        decision.freqs.clear();
        decision.freqs.extend(slots().map(|(&k, p)| match k {
            OFFGRID => p.current,
            _ => set.at(k),
        }));
        decision.voltages.clear();
        decision.voltages.extend(slots().map(|(&k, p)| match k {
            OFFGRID => self.voltage_table.min_voltage(p.current),
            _ => index.voltage_v(k),
        }));
        let fitted = models.iter().zip(&decision.freqs);
        let ipc = &mut decision.predicted_ipc;
        ipc.clear();
        ipc.extend(fitted.map(|(m, &f)| m.map(|m| m.ipc_at(f))));
        let loss = &mut decision.predicted_loss;
        loss.clear();
        loss.extend((0..idx.len()).map(|i| match idx[i] {
            k if k == desired[i] => desired_loss[i],
            k => loss_at(&models[i], perf_max[i], set.at(k)),
        }));
        let mut predicted_power_w = 0.0;
        for (&k, p) in slots() {
            predicted_power_w += self.slot_power(index, k, p.current);
        }
        decision.predicted_power_w = predicted_power_w;
        decision.feasible = feasible;
        decision.demotions = demotions;
    }

    /// The naive `O(d·n)` implementation: a full linear scan over all
    /// processors for every single demotion step. Kept as the executable
    /// specification of pass 2 — the differential property tests assert
    /// the queue-based [`schedule`](FvsstAlgorithm::schedule) produces
    /// bit-identical decisions, and the repo benchmark uses it as the
    /// baseline.
    pub fn schedule_reference(&self, procs: &[ProcInput], budget_w: f64) -> ScheduleDecision {
        let n = procs.len();
        let set = &self.freq_set;
        let index = PowerVoltageIndex::build(&self.power_table, &self.voltage_table, set);

        // ---- Pass 1 ----
        let tables: Vec<Option<PerfLossTable>> = procs
            .iter()
            .map(|p| p.model.map(|m| PerfLossTable::build(&m, set)))
            .collect();
        let mut idx = Vec::with_capacity(n);
        let mut desired = Vec::with_capacity(n);
        for (p, t) in procs.iter().zip(&tables) {
            let (k, f) = self.desired_slot(p, || {
                let t = t.as_ref().expect("a modelled processor always has a table");
                t.entries.iter().map(|e| e.loss_vs_ref)
            });
            idx.push(k);
            desired.push(f);
        }

        // ---- Pass 2 (naive: rescan every processor per demotion) ----
        let mut power = 0.0;
        for i in 0..n {
            power += self.slot_power(&index, idx[i], procs[i].current);
        }
        let mut demotions = 0usize;
        let mut feasible = true;
        while n > 0 && power > budget_w {
            // Figure 3 step 2: "select n, p with smallest PerfLoss(f_max,
            // f_less)" — the *absolute* predicted loss the processor would
            // have after one step down. (Not the incremental cost: the
            // absolute key is what makes the paper's section-5 example
            // demote the CPU-bound processor from 1.0 to 0.9 GHz last.) A
            // processor without a model is free to demote; the queue
            // evaluates the same key from the same model.
            let mut victim: Option<(usize, f64)> = None;
            for i in 0..n {
                if idx[i] == OFFGRID || idx[i] == 0 {
                    continue;
                }
                let loss = tables[i]
                    .as_ref()
                    .map_or(0.0, |t| t.entries[idx[i] - 1].loss_vs_ref);
                if victim.is_none_or(|(_, best)| loss.total_cmp(&best) == Ordering::Less) {
                    victim = Some((i, loss));
                }
            }
            let Some((i, _)) = victim else {
                feasible = false;
                break;
            };
            let k = idx[i];
            power += index.power_w(k - 1) - index.power_w(k);
            idx[i] = k - 1;
            demotions += 1;
        }

        // ---- Pass 3 ----
        let mut decision = ScheduleDecision {
            desired,
            feasible,
            demotions,
            ..ScheduleDecision::default()
        };
        for (i, p) in procs.iter().enumerate() {
            let k = idx[i];
            let (f, v) = match k {
                OFFGRID => (p.current, self.voltage_table.min_voltage(p.current)),
                _ => (set.at(k), index.voltage_v(k)),
            };
            let entry = tables[i].as_ref().map(|t| &t.entries[k]);
            decision.freqs.push(f);
            decision.voltages.push(v);
            decision.predicted_ipc.push(entry.map(|e| e.ipc));
            decision
                .predicted_loss
                .push(entry.map_or(0.0, |e| e.loss_vs_ref));
            decision.predicted_power_w += self.slot_power(&index, k, p.current);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::MemoryLatencies;
    use fvs_workloads::intensity_profile;

    fn model_for_intensity(c: f64) -> CpiModel {
        CpiModel::from_profile(&intensity_profile(c), &MemoryLatencies::P630)
    }

    /// A processor at `mhz`, busy under `model` or unmodelled.
    fn proc_at(mhz: u32, model: Option<CpiModel>) -> ProcInput {
        ProcInput {
            model,
            idle: false,
            current: FreqMhz(mhz),
        }
    }

    fn busy(c: f64) -> ProcInput {
        proc_at(1000, Some(model_for_intensity(c)))
    }

    /// The hot idle loop: idle, yet it *looks* CPU-bound to the predictor.
    fn hot_idle() -> ProcInput {
        let model = CpiModel::from_components(1.0 / 1.3, 0.0);
        ProcInput {
            idle: true,
            ..proc_at(1000, Some(model))
        }
    }

    #[test]
    fn unconstrained_cpu_bound_stays_fast() {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&[busy(100.0)], f64::INFINITY);
        assert!(d.freqs[0] >= FreqMhz(950), "got {}", d.freqs[0]);
        assert!(d.feasible);
        assert_eq!(d.demotions, 0);
    }

    #[test]
    fn unconstrained_memory_bound_slows_for_free() {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&[busy(10.0)], f64::INFINITY);
        assert!(d.freqs[0] <= FreqMhz(650), "got {}", d.freqs[0]);
        assert!(d.predicted_loss[0] < alg.epsilon);
    }

    /// Recognising last round's raw input is a shortcut to the same
    /// key, never a second opinion: it must not survive a flush, and it
    /// must tell apart the inputs whose keys differ only in their bits.
    #[test]
    fn raw_input_memo_counts_what_the_keys_would() {
        let alg = FvsstAlgorithm::p630();
        let mut procs = vec![busy(40.0), busy(100.0)];
        procs[1].model = Some(CpiModel::from_components(1.0, 0.0));
        let mut cache = ScheduleCache::new(); // EXACT: keys are bit patterns
        alg.schedule_cached(&mut cache, &procs, f64::INFINITY);
        alg.schedule_cached(&mut cache, &procs, f64::INFINITY);
        let warm = cache.stats();
        assert_eq!((warm.proc_hits, warm.proc_rebuilds), (2, 2));

        // `0.0 == -0.0`, but under EXACT their keys differ.
        procs[1].model = Some(CpiModel::from_components(1.0, -0.0));
        alg.schedule_cached(&mut cache, &procs, f64::INFINITY);
        let s = cache.stats();
        assert_eq!((s.proc_hits, s.proc_rebuilds), (3, 3));

        // After a flush the stale keys recognise nothing.
        cache.invalidate();
        alg.schedule_cached(&mut cache, &procs, f64::INFINITY);
        let s = cache.stats();
        assert_eq!((s.proc_hits, s.proc_rebuilds), (3, 5));
    }

    /// The columns hold the table's losses at the slot, and `perf_max` the
    /// table's `Perf(f_max)`, however a processor came to be rebuilt; a
    /// loose round queues nothing, the next is the reference's.
    #[test]
    fn slot_columns_match_the_table_and_loose_rounds_queue_nothing() {
        type Action = fn(&mut Vec<ProcInput>, &mut FvsstAlgorithm, &mut ScheduleCache);
        let actions: [Action; 8] = [
            |_, _, _| {},
            |p, _, _| p[3].model = Some(model_for_intensity(61.0)), // drift
            |p, _, _| p[4].idle = true,
            |p, _, _| p[5].model = None,
            |p, _, _| p[5].current = FreqMhz(675), // off the grid
            |_, _, c| c.invalidate(),
            |p, _, _| p.truncate(9),
            |_, a, _| a.epsilon = 0.2,
        ];
        let mut alg = FvsstAlgorithm::p630();
        let mut procs: Vec<ProcInput> = (0..12).map(|i| busy(8.0 * i as f64)).collect();
        let mut cache = ScheduleCache::new(); // EXACT: every round is the reference's
        for act in actions {
            act(&mut procs, &mut alg, &mut cache);
            let top = alg.schedule(&procs, f64::INFINITY).predicted_power_w;
            // Exactly the desired power is still loose: `>` and not `>=`.
            for budget in [top, 0.7 * top, f64::NAN, 0.4 * top] {
                let d = format!("{:?}", alg.schedule_cached(&mut cache, &procs, budget));
                let binding = budget < top;
                assert_eq!(cache.demotion_log().is_empty(), !binding);
                assert_eq!(cache.queue.head.iter().all(|&h| h == NIL), !binding);
                assert_eq!(d, format!("{:?}", alg.schedule_reference(&procs, budget)));
                for (i, p) in procs.iter().enumerate() {
                    let table = p.model.map(|m| PerfLossTable::build(&m, &alg.freq_set));
                    let loss = |k: usize| table.as_ref().map_or(0.0, |t| t.entries[k].loss_vs_ref);
                    let want = match cache.desired_idx[i] {
                        OFFGRID => (0.0, 0.0),
                        k => (if k > 0 { loss(k - 1) } else { 0.0 }, loss(k)),
                    };
                    let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
                    let got = (cache.step_loss[i], cache.desired_loss[i]);
                    assert_eq!(bits(got), bits(want), "at {i}");
                    if let Some(t) = &table {
                        let p_max = t.entries.last().unwrap().perf;
                        assert_eq!(cache.perf_max[i].to_bits(), p_max.to_bits(), "at {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn cache_aggregate_exports_are_consistent() {
        let alg = FvsstAlgorithm::p630();
        // A mix of CPU-bound, memory-bound and unmodelled processors.
        let mut procs: Vec<ProcInput> = (0..6).map(|i| busy(10.0 + 18.0 * i as f64)).collect();
        procs.push(proc_at(800, None));
        let mut cache = ScheduleCache::new();
        // Cold cache exports nothing.
        assert!(!cache.is_warm());
        assert_eq!(cache.desired_power_w(), 0.0);
        assert_eq!(cache.floor_power_w(), 0.0);
        let mut rungs = 0;
        cache.for_each_demotion(|_, _| rungs += 1);
        assert_eq!(rungs, 0);

        let d = alg
            .schedule_cached(&mut cache, &procs, f64::INFINITY)
            .clone();
        assert!(cache.is_warm());
        // Unconstrained, the decision sits exactly at the desired power.
        assert!((cache.desired_power_w() - d.predicted_power_w).abs() < 1e-9);
        // The ladder's total shed spans desired → floor exactly, and
        // per-processor rungs arrive with non-negative loss and shed.
        let mut total_shed = 0.0;
        cache.for_each_demotion(|loss, shed| {
            assert!(loss >= 0.0);
            assert!(shed >= 0.0);
            total_shed += shed;
        });
        let span = cache.desired_power_w() - cache.floor_power_w();
        assert!(
            (total_shed - span).abs() < 1e-9,
            "ladder {total_shed} vs span {span}"
        );
        // Floor equals the infeasibly-constrained decision's power.
        let floor = alg.schedule(&procs, 0.0);
        assert!(!floor.feasible);
        assert!((cache.floor_power_w() - floor.predicted_power_w).abs() < 1e-9);
    }

    #[test]
    fn budget_pass_meets_budget() {
        let alg = FvsstAlgorithm::p630();
        let procs = vec![busy(100.0), busy(100.0), busy(100.0), busy(100.0)];
        let d = alg.schedule(&procs, 294.0);
        assert!(d.predicted_power_w <= 294.0);
        assert!(d.feasible);
        assert!(d.demotions > 0);
    }

    #[test]
    fn budget_pass_demotes_memory_bound_first() {
        let alg = FvsstAlgorithm::p630();
        // One CPU-bound, one moderately memory-bound processor; a budget
        // that forces some demotion below desired.
        let procs = vec![busy(100.0), busy(60.0)];
        let unconstrained = alg.schedule(&procs, f64::INFINITY);
        let constrained = alg.schedule(&procs, unconstrained.predicted_power_w - 20.0);
        // The CPU-bound processor's drop (relative to its desire) must
        // not exceed the memory-bound one's.
        let drop0 = unconstrained.freqs[0].0 - constrained.freqs[0].0;
        let drop1 = unconstrained.freqs[1].0 - constrained.freqs[1].0;
        assert!(
            drop1 >= drop0,
            "memory-bound should absorb the cut: {drop0} vs {drop1}"
        );
        assert!(constrained.predicted_power_w <= unconstrained.predicted_power_w - 20.0);
    }

    #[test]
    fn infeasible_budget_reports_floor() {
        let alg = FvsstAlgorithm::p630();
        let procs = vec![busy(100.0); 4];
        // 4 × 9 W floor = 36 W; ask for 20 W.
        let d = alg.schedule(&procs, 20.0);
        assert!(!d.feasible);
        assert!(d.freqs.iter().all(|f| *f == FreqMhz(250)));
        assert_eq!(d.predicted_power_w, 36.0);
    }

    #[test]
    fn empty_proc_list_is_feasible() {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&[], 50.0);
        assert!(d.feasible, "an empty system meets any budget");
        assert!(d.freqs.is_empty());
        assert_eq!(d.predicted_power_w, 0.0);
        assert_eq!(d.demotions, 0);
        assert_eq!(d, alg.schedule_reference(&[], 50.0));
    }

    #[test]
    fn nan_loss_is_demoted_last() {
        let alg = FvsstAlgorithm::p630();
        // A degenerate model (NaN stall component) predicts NaN loss;
        // under total_cmp ordering it must yield the victim slot to any
        // processor with a finite predicted loss.
        let procs = vec![
            proc_at(1000, Some(CpiModel::from_components(1.0, f64::NAN))),
            busy(60.0),
        ];
        let unconstrained = alg.schedule(&procs, f64::INFINITY);
        assert!(
            unconstrained.freqs[1] > FreqMhz(250),
            "finite-loss processor must be demotable for this test"
        );
        let d = alg.schedule(&procs, unconstrained.predicted_power_w - 1.0);
        assert_eq!(
            d.freqs[0], unconstrained.freqs[0],
            "NaN-loss processor must not be the first victim"
        );
        assert!(d.freqs[1] < unconstrained.freqs[1]);
        // NaN != NaN under PartialEq, so bit-compare the float fields.
        let r = alg.schedule_reference(&procs, unconstrained.predicted_power_w - 1.0);
        assert_eq!(d.freqs, r.freqs);
        assert_eq!(d.desired, r.desired);
        assert_eq!(d.demotions, r.demotions);
        assert_eq!(d.feasible, r.feasible);
        assert_eq!(d.predicted_power_w.to_bits(), r.predicted_power_w.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d.predicted_loss), bits(&r.predicted_loss));
        assert_eq!(bits(&d.voltages), bits(&r.voltages));
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let alg = FvsstAlgorithm::p630();
        let mut scratch = ScheduleScratch::new();
        let procs = vec![busy(100.0), busy(40.0), busy(10.0)];
        let first = alg
            .schedule_with_scratch(&mut scratch, &procs, 200.0)
            .clone();
        // Different shape in between must not perturb later results.
        alg.schedule_with_scratch(&mut scratch, &[busy(5.0)], f64::INFINITY);
        let second = alg
            .schedule_with_scratch(&mut scratch, &procs, 200.0)
            .clone();
        assert_eq!(first, second);
        assert_eq!(first, alg.schedule(&procs, 200.0));
    }

    #[test]
    fn queue_matches_reference_across_budget_sweep() {
        let alg = FvsstAlgorithm::p630();
        let procs = vec![busy(100.0), busy(75.0), busy(50.0), busy(25.0), busy(0.0)];
        let top = alg.schedule(&procs, f64::INFINITY).predicted_power_w;
        let mut budget = top + 10.0;
        while budget > 0.0 {
            let fast = alg.schedule(&procs, budget);
            let naive = alg.schedule_reference(&procs, budget);
            assert_eq!(fast, naive, "diverged at budget {budget}");
            budget -= 7.0;
        }
    }

    #[test]
    fn idle_detection_pins_idle_to_min() {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&[hot_idle()], f64::INFINITY);
        assert_eq!(d.freqs[0], FreqMhz(250));
    }

    #[test]
    fn without_idle_detection_hot_idle_burns_full_speed() {
        let mut alg = FvsstAlgorithm::p630();
        alg.idle_detection = false;
        let d = alg.schedule(&[hot_idle()], f64::INFINITY);
        assert_eq!(
            d.freqs[0],
            FreqMhz(1000),
            "the section-5 pathology: idle loop scheduled at f_max"
        );
    }

    #[test]
    fn unmodelled_processor_keeps_current_frequency() {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&[proc_at(700, None)], f64::INFINITY);
        assert_eq!(d.freqs[0], FreqMhz(700));
        assert_eq!(d.predicted_ipc[0], None);
    }

    #[test]
    fn off_grid_processor_is_fixed_load() {
        let alg = FvsstAlgorithm::p630();
        // 675 MHz is not a P630 setting: the processor keeps it and is
        // never demoted, even under an infeasible budget.
        let p = proc_at(675, None);
        let d = alg.schedule(&[p, busy(100.0)], 30.0);
        assert_eq!(d.freqs[0], FreqMhz(675));
        assert_eq!(d.freqs[1], FreqMhz(250));
        assert!(!d.feasible);
        assert_eq!(d, alg.schedule_reference(&[p, busy(100.0)], 30.0));
    }

    #[test]
    fn voltages_match_table() {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&[busy(100.0), busy(0.0)], f64::INFINITY);
        for (i, f) in d.freqs.iter().enumerate() {
            assert_eq!(d.voltages[i], alg.voltage_table.min_voltage(*f));
        }
    }

    #[test]
    fn epsilon_widening_admits_lower_frequencies() {
        let mut alg = FvsstAlgorithm::p630();
        let tight = alg.schedule(&[busy(40.0)], f64::INFINITY).freqs[0];
        alg.epsilon = 0.20;
        let loose = alg.schedule(&[busy(40.0)], f64::INFINITY).freqs[0];
        assert!(loose <= tight);
    }

    #[test]
    fn section5_worked_example_step2_power() {
        // Reproduce the paper's section-5 example arithmetic. Frequencies
        // are the 5-setting 0.6–1.0 GHz table; the ε-constrained vector
        // is [1.0, 0.7, 0.8, 0.8] GHz (power 140+66+84+84 = 374 W) and
        // the budget is 294 W. Note: the paper prints the post-budget
        // vector as [0.6, 0.6, 0.7, 0.7] GHz but its own power vector
        // [109, 48, 66, 66] W corresponds to [0.9, 0.6, 0.7, 0.7] GHz
        // (109 W *is* 900 MHz in Table 1) — we reproduce the consistent
        // reading: total 289 W ≤ 294 W.
        let table = FreqPowerTable::section5_example();
        let alg = FvsstAlgorithm {
            freq_set: table.frequency_set(),
            power_table: table,
            voltage_table: VoltageTable::p630(),
            epsilon: 0.05,
            idle_detection: true,
        };
        // Craft models whose ε-frequencies are exactly the example's.
        // desired = lowest f with loss < 5%; use β from the saturation
        // relation f̂ > 0.95/(1+0.05β)  →  β = (0.95/f̂ − 1)/0.05 at the
        // desired step, nudged to sit between steps.
        let beta_for = |f_hat: f64| (0.95 / (f_hat - 0.02) - 1.0) / 0.05;
        let model_beta = |beta: f64| CpiModel::from_components(1.0, beta * 1.0e-9);
        // The first is CPU-bound → 1.0 GHz.
        let betas = [0.0, beta_for(0.7), beta_for(0.8), beta_for(0.8)];
        let procs = betas.map(|b| proc_at(1000, Some(model_beta(b))));
        let d = alg.schedule(&procs, 294.0);
        assert_eq!(
            d.desired,
            vec![FreqMhz(1000), FreqMhz(700), FreqMhz(800), FreqMhz(800)],
            "ε-constrained vector"
        );
        assert!(
            d.predicted_power_w <= 294.0,
            "power {}",
            d.predicted_power_w
        );
        assert!(d.feasible);
        // The demoted total should land at the example's 289 W
        // (maximality: adding one step back anywhere would exceed 294 W
        // only if pass 2 demoted minimally — check we're within one step).
        assert!(
            d.predicted_power_w >= 240.0,
            "should not over-demote: {}",
            d.predicted_power_w
        );
        assert_eq!(d, alg.schedule_reference(&procs, 294.0));
    }
}
