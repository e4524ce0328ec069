//! The rack tier: a [`GlobalCoordinator`] over one rack's nodes, made
//! incremental and aggregatable.
//!
//! A rack coordinator is the *leaf interior tier*: it owns the real
//! per-processor two-pass computation for its nodes and exports a
//! [`SubtreeAggregate`] upward. Two mechanisms keep its steady-state
//! cost near zero:
//!
//! - **Content dirty-tracking.** Every ingested summary is compared
//!   with the one the inner coordinator already holds for that node,
//!   under the [`ModelTolerance::same_bucket`] rule the `ScheduleCache`
//!   keys on (timestamp and telemetry power excluded); the rack
//!   only recomputes when a summary moved, a dead node recovered, or a
//!   liveness deadline passed. A heartbeat alone never forces a round.
//! - **Budget split.** [`refresh`](RackCoordinator::refresh) runs the
//!   expensive sweep + pass 1 under the *last* sub-budget so the
//!   aggregate is fresh for the parent;
//!   [`finalize`](RackCoordinator::finalize) then re-runs only the
//!   cheap budget passes if the parent handed down a different
//!   sub-budget, and emits commands only when something actually
//!   changed.

use fvs_model::CpiModel;
use fvs_sched::{CacheStats, FvsstAlgorithm, ModelTolerance};
use fvs_telemetry::{Telemetry, Tracer};

use super::aggregate::{coalesce_rungs, quantize_loss, SubtreeAggregate};
use crate::coordinator::{FrequencyCommand, GlobalCoordinator, NodeSummary};

/// One rack: `len` globally-numbered nodes `[base, base + len)` under a
/// private [`GlobalCoordinator`].
#[derive(Debug)]
pub struct RackCoordinator {
    inner: GlobalCoordinator,
    /// First global node index owned by this rack.
    base: usize,
    len: usize,
    /// Something schedule-shaping changed since the last run.
    dirty: bool,
    /// The last `refresh` actually recomputed (vs skipped).
    ran: bool,
    /// The last `refresh` changed the exported fingerprint. Kept as a
    /// field (in addition to the return value) so the tree can read it
    /// back after a rayon `for_each`, which cannot collect returns.
    fp_changed: bool,
    /// Cached earliest liveness transition; recomputed lazily.
    next_deadline_s: f64,
    /// Sub-budget the last computation ran under (W).
    subbudget_w: f64,
    agg: SubtreeAggregate,
    agg_fp: u64,
    online: bool,
    runs: u64,
    skips: u64,
    // Scratch for ladder construction, reused across rounds.
    rung_scratch: Vec<(u32, f64)>,
}

/// Whether two (already validity-filtered) models land in the same
/// [`ModelTolerance`] buckets, by the predicate the `ScheduleCache` keys
/// on: an unchanged refit answers on its bits, and a coefficient that
/// moved more than 1.5 steps answers without dividing.
fn same_model(new: Option<CpiModel>, held: Option<CpiModel>, tol: &ModelTolerance) -> bool {
    let same_bucket = ModelTolerance::same_bucket;
    match (new, held) {
        (Some(a), Some(b)) => {
            same_bucket(a.cpi0, b.cpi0, tol.cpi0_step)
                && same_bucket(a.mem_time_per_instr, b.mem_time_per_instr, tol.mem_step_s)
        }
        (None, None) => true,
        _ => false,
    }
}

impl RackCoordinator {
    /// Rack over global nodes `[base, base + len)`.
    pub fn new(algorithm: FvsstAlgorithm, base: usize, len: usize) -> Self {
        Self::with_telemetry(algorithm, base, len, Telemetry::disabled())
    }

    /// Rack whose inner coordinator journals to `telemetry`.
    pub fn with_telemetry(
        algorithm: FvsstAlgorithm,
        base: usize,
        len: usize,
        telemetry: Telemetry,
    ) -> Self {
        RackCoordinator {
            inner: GlobalCoordinator::with_telemetry(algorithm, len, telemetry),
            base,
            len,
            dirty: true,
            ran: false,
            fp_changed: false,
            next_deadline_s: f64::NEG_INFINITY,
            subbudget_w: f64::INFINITY,
            agg: SubtreeAggregate::default(),
            agg_fp: 0,
            online: true,
            runs: 0,
            skips: 0,
            rung_scratch: Vec::new(),
        }
    }

    /// Forwarded to the inner coordinator.
    pub fn with_heartbeat_timeout(mut self, timeout_s: f64) -> Self {
        self.set_heartbeat_timeout(timeout_s);
        self
    }

    pub(crate) fn set_heartbeat_timeout(&mut self, timeout_s: f64) {
        self.inner.set_heartbeat_timeout(timeout_s);
    }

    /// Forwarded to the inner coordinator.
    pub fn with_worst_case_node_w(mut self, watts: f64) -> Self {
        self.set_worst_case_node_w(watts);
        self
    }

    pub(crate) fn set_worst_case_node_w(&mut self, watts: f64) {
        self.inner.set_worst_case_node_w(watts);
    }

    /// Forwarded to the inner coordinator: the rack's per-round spans
    /// nest under whatever `hier.*` span is open on the calling thread.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    /// First global node index owned by this rack.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Nodes in this rack.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the rack owns no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether this rack's coordinator is reachable. An offline rack
    /// ingests nothing and emits nothing; the parent charges
    /// [`charge_if_dead_w`](Self::charge_if_dead_w) instead.
    pub fn online(&self) -> bool {
        self.online
    }

    /// Take the rack coordinator down or bring it back. A recovery
    /// marks the rack dirty: its view of the world is stale and must be
    /// recomputed before its aggregate is trusted again.
    pub fn set_online(&mut self, online: bool) {
        if online && !self.online {
            self.dirty = true;
        }
        self.online = online;
    }

    /// Whether `summary` differs from `held` — the summary the inner
    /// coordinator holds for that node — in anything that can change
    /// the schedule: idle flags, current frequencies (and with either,
    /// the processor count), or a model leaving its bucket under the
    /// inner cache's own tolerance, with the invalid→unmodelled
    /// degradation `ingest` applies (`held` went through it when it was
    /// stored). Send timestamp and telemetry power cannot, and are not
    /// looked at. Two summaries that compare unchanged produce
    /// identical `ProcKey`s downstream.
    fn content_changed(&self, summary: &NodeSummary, held: Option<&NodeSummary>) -> bool {
        let Some(held) = held else {
            return true; // first report
        };
        let tol = self.inner.schedule_cache().tolerance();
        held.idle != summary.idle
            || held.current != summary.current
            || !summary
                .models
                .iter()
                .zip(&held.models)
                .all(|(new, old)| same_model(new.filter(CpiModel::is_valid), *old, &tol))
    }

    /// Route a summary into the rack. Returns `true` when the inner
    /// coordinator accepted and stored it. Out-of-rack node indices and
    /// malformed summaries are rejected; an offline rack drops
    /// everything on the floor (its uplink is dark too).
    pub fn ingest(&mut self, mut summary: NodeSummary) -> bool {
        if !self.online {
            return false;
        }
        if summary.node < self.base
            || summary.node >= self.base + self.len
            || summary.idle.len() != summary.models.len()
            || summary.current.len() != summary.models.len()
        {
            // Out of this rack's range (or malformed): hand it to the
            // inner coordinator for uniform rejection accounting only
            // when it is at least addressable.
            if summary.node >= self.base && summary.node < self.base + self.len {
                summary.node -= self.base;
                return self.inner.ingest(summary);
            }
            return false;
        }
        let local = summary.node - self.base;
        // An already-dirty rack has nothing left to learn from comparing.
        let changed = self.dirty
            || self.inner.is_dead(local)
            || self.content_changed(&summary, self.inner.latest_summary(local));
        summary.node = local;
        let accepted = self.inner.ingest(summary);
        self.dirty |= accepted && changed;
        accepted
    }

    /// Refresh the rack's aggregate at `now_s`, recomputing the inner
    /// schedule only when forced: content drifted, a liveness deadline
    /// passed, or the cache is cold. Returns `true` when the exported
    /// aggregate's fingerprint changed (the parent must re-merge).
    pub fn refresh(&mut self, now_s: f64) -> bool {
        self.refresh_due(now_s) && self.recompute(now_s)
    }

    /// The cheap first half of [`refresh`](Self::refresh): forget last
    /// round's outcome and decide whether this round must recompute,
    /// counting the skip when it need not. The tree asks every rack
    /// this on its own thread and fans out only over those that say yes.
    pub(crate) fn refresh_due(&mut self, now_s: f64) -> bool {
        self.ran = false;
        self.fp_changed = false;
        if !self.online {
            return false;
        }
        let liveness_due = if now_s >= self.next_deadline_s {
            // The cached deadline may be stale (a heartbeat arrived and
            // pushed it out); recompute lazily before paying for a run.
            self.next_deadline_s = self.inner.next_liveness_deadline_s();
            now_s >= self.next_deadline_s
        } else {
            false
        };
        if !self.dirty && !liveness_due && self.inner.schedule_cache().is_warm() {
            self.skips += 1;
            return false;
        }
        true
    }

    /// The second half of [`refresh`](Self::refresh), for a rack whose
    /// [`refresh_due`](Self::refresh_due) said yes.
    pub(crate) fn recompute(&mut self, now_s: f64) -> bool {
        self.runs += 1;
        self.ran = true;
        self.dirty = false;
        self.inner.compute(self.subbudget_w, now_s);
        self.next_deadline_s = self.inner.next_liveness_deadline_s();
        self.rebuild_aggregate();
        let fp = self.agg.fingerprint();
        self.fp_changed = fp != self.agg_fp;
        self.agg_fp = fp;
        self.fp_changed
    }

    /// Whether the last [`refresh`](Self::refresh) changed the exported
    /// aggregate fingerprint.
    pub fn fp_changed(&self) -> bool {
        self.fp_changed
    }

    fn rebuild_aggregate(&mut self) {
        let cache = self.inner.schedule_cache();
        let reserved = self.inner.reserved_w();
        self.agg.desired_w = cache.desired_power_w() + reserved;
        self.agg.floor_w = cache.floor_power_w() + reserved;
        self.agg.power_w = self.inner.reported_power_w();
        self.agg.ceiling_w = self.inner.charge_ceiling_w();
        self.rung_scratch.clear();
        let scratch = &mut self.rung_scratch;
        cache.for_each_demotion(|loss, shed_w| {
            scratch.push((quantize_loss(loss), shed_w));
        });
        coalesce_rungs(&mut self.rung_scratch, &mut self.agg.ladder);
    }

    /// Apply the parent's sub-budget and emit this round's commands.
    /// Returns an empty vector when nothing changed — the nodes hold
    /// their last commanded frequencies, so silence is a no-op — and
    /// always when the rack is offline.
    pub fn finalize(&mut self, subbudget_w: f64) -> Vec<FrequencyCommand> {
        if !self.finalize_due(subbudget_w) {
            return Vec::new();
        }
        if subbudget_w.to_bits() != self.subbudget_w.to_bits() {
            self.subbudget_w = subbudget_w;
            self.inner.recompute_budget(subbudget_w);
            // The budget passes can move the predicted power but never
            // the desired/floor/ladder (those are pass-1 artefacts), so
            // the exported fingerprint is still valid.
        }
        let mut commands = self.inner.emit_commands();
        for cmd in &mut commands {
            cmd.node += self.base;
        }
        // Issuing commands moved the per-node commanded ceilings, so the
        // exported death charge must follow. `ceiling_w` is excluded
        // from the fingerprint, so this never wakes the parent.
        self.agg.ceiling_w = self.inner.charge_ceiling_w();
        commands
    }

    /// Whether [`finalize`](Self::finalize) under `subbudget_w` would do
    /// anything: the rack is online and either recomputed this round or
    /// is being handed a different sub-budget.
    pub(crate) fn finalize_due(&self, subbudget_w: f64) -> bool {
        self.online && (self.ran || subbudget_w.to_bits() != self.subbudget_w.to_bits())
    }

    /// Conservative charge the parent holds when this rack's
    /// coordinator goes dark: the ceiling of what its nodes could draw
    /// with no further commands (at least the last sub-budget it was
    /// executing under), capped at every node flat-out.
    pub fn charge_if_dead_w(&self) -> f64 {
        let mut charge = self.agg.ceiling_w;
        if self.subbudget_w.is_finite() {
            charge = charge.max(self.subbudget_w);
        }
        charge.min(self.len as f64 * self.inner.worst_case_node_w())
    }

    /// The aggregate exported by the last [`refresh`](Self::refresh).
    pub fn aggregate(&self) -> &SubtreeAggregate {
        &self.agg
    }

    /// Sub-budget the rack last computed or finalized under (W).
    pub fn subbudget_w(&self) -> f64 {
        self.subbudget_w
    }

    /// Whether the last [`refresh`](Self::refresh) actually recomputed
    /// (vs skipping on clean fingerprints).
    pub fn ran(&self) -> bool {
        self.ran
    }

    /// Full recomputations performed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Rounds skipped because nothing changed.
    pub fn skips(&self) -> u64 {
        self.skips
    }

    /// Power reserved inside the rack for silent nodes (W).
    pub fn reserved_w(&self) -> f64 {
        self.inner.reserved_w()
    }

    /// Nodes of this rack that have reported at least once.
    pub fn nodes_reporting(&self) -> usize {
        self.inner.nodes_reporting()
    }

    /// Nodes of this rack currently presumed dead.
    pub fn dead_nodes(&self) -> usize {
        self.inner.dead_nodes()
    }

    /// Whether the (globally-numbered) node is presumed dead.
    pub fn is_dead(&self, node: usize) -> bool {
        node >= self.base && self.inner.is_dead(node - self.base)
    }

    /// The inner schedule's predicted power under the last budget (W).
    pub fn predicted_power_w(&self) -> f64 {
        self.inner.schedule_cache().decision().predicted_power_w
    }

    /// Whether the inner schedule met its last effective budget.
    pub fn feasible(&self) -> bool {
        self.inner.schedule_cache().decision().feasible
    }

    /// Inner incremental-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::{CpiModel, FreqMhz};

    fn summary(node: usize, at: f64, mems: &[f64]) -> NodeSummary {
        NodeSummary {
            node,
            sent_at_s: at,
            models: mems
                .iter()
                .map(|m| Some(CpiModel::from_components(1.0, *m)))
                .collect(),
            idle: vec![false; mems.len()],
            current: vec![FreqMhz(1000); mems.len()],
            power_w: 140.0 * mems.len() as f64,
        }
    }

    fn rack() -> RackCoordinator {
        RackCoordinator::new(FvsstAlgorithm::p630(), 4, 2).with_heartbeat_timeout(f64::INFINITY)
    }

    #[test]
    fn steady_state_refresh_skips_after_first_run() {
        let mut r = rack();
        assert!(r.ingest(summary(4, 1.0, &[0.0])));
        assert!(r.ingest(summary(5, 1.0, &[10.0e-9])));
        assert!(r.refresh(1.0)); // first run: fingerprint 0 → real
        r.finalize(f64::INFINITY);
        // Identical re-sends (newer timestamps, same content): no run.
        assert!(r.ingest(summary(4, 2.0, &[0.0])));
        assert!(r.ingest(summary(5, 2.0, &[10.0e-9])));
        assert!(!r.refresh(2.0));
        assert_eq!(r.runs(), 1);
        assert_eq!(r.skips(), 1);
        // Real model drift: runs again, and the aggregate moves.
        assert!(r.ingest(summary(4, 3.0, &[50.0e-9])));
        assert!(r.refresh(3.0));
        assert_eq!(r.runs(), 2);
    }

    /// What dirties a rack is what can change its schedule: a model
    /// leaving its tolerance bucket, a first report, a changed
    /// processor count, a recovery from dead — not a model wobbling
    /// inside its bucket, and not a heartbeat.
    #[test]
    fn only_schedule_shaping_changes_dirty_the_rack() {
        let mem = 10.0e-9;
        let step = ModelTolerance::PHASE_DEFAULT.mem_step_s;
        let mut r = RackCoordinator::new(FvsstAlgorithm::p630(), 4, 2).with_heartbeat_timeout(10.0);
        let round = |r: &mut RackCoordinator, s: NodeSummary| {
            let now = s.sent_at_s;
            assert!(r.ingest(s));
            r.refresh(now);
            r.finalize(f64::INFINITY);
            r.ran()
        };
        assert!(round(&mut r, summary(4, 1.0, &[mem])), "cold rack");
        assert!(
            !round(&mut r, summary(4, 2.0, &[mem + 0.2 * step])),
            "inside the bucket"
        );
        assert!(
            round(&mut r, summary(4, 3.0, &[mem + 2.0 * step])),
            "across buckets"
        );
        assert!(round(&mut r, summary(5, 4.0, &[mem])), "first report");
        assert!(!round(&mut r, summary(5, 5.0, &[mem])), "heartbeat");
        assert!(
            round(&mut r, summary(5, 6.0, &[mem, mem])),
            "processor count"
        );
        // Node 4 was last heard at t = 3: by t = 14 it is past the 10 s
        // timeout and the liveness deadline alone forces the run.
        assert!(
            round(&mut r, summary(5, 14.0, &[mem, mem])),
            "liveness deadline"
        );
        assert_eq!(r.dead_nodes(), 1);
        assert!(
            !round(&mut r, summary(5, 15.0, &[mem, mem])),
            "heartbeat beside a dead node"
        );
        // The content node 4 last sent, but from a node declared dead.
        assert!(
            round(&mut r, summary(4, 16.0, &[mem + 2.0 * step])),
            "recovery"
        );
        assert_eq!(r.dead_nodes(), 0);
    }

    #[test]
    fn out_of_rack_summaries_are_rejected() {
        let mut r = rack();
        assert!(!r.ingest(summary(0, 1.0, &[0.0]))); // below base
        assert!(!r.ingest(summary(6, 1.0, &[0.0]))); // above range
        assert_eq!(r.nodes_reporting(), 0);
    }

    #[test]
    fn finalize_reruns_budget_passes_only_on_subbudget_change() {
        let mut r = rack();
        r.ingest(summary(4, 1.0, &[0.0]));
        r.ingest(summary(5, 1.0, &[0.0]));
        r.refresh(1.0);
        let cmds = r.finalize(1000.0);
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].node, 4); // global numbering restored
        let p_unconstrained = r.predicted_power_w();
        // Same sub-budget, nothing dirty: silence.
        assert!(!r.refresh(2.0));
        assert!(r.finalize(1000.0).is_empty());
        // Tighter sub-budget: budget passes rerun, power drops.
        assert!(!r.refresh(3.0));
        let cmds = r.finalize(150.0);
        assert_eq!(cmds.len(), 2);
        assert!(r.predicted_power_w() <= 150.0);
        assert!(r.predicted_power_w() < p_unconstrained);
    }

    #[test]
    fn offline_rack_drops_ingest_and_emits_nothing() {
        let mut r = rack();
        r.ingest(summary(4, 1.0, &[0.0]));
        r.refresh(1.0);
        r.finalize(f64::INFINITY);
        r.set_online(false);
        assert!(!r.ingest(summary(5, 2.0, &[0.0])));
        assert!(!r.refresh(2.0));
        assert!(r.finalize(f64::INFINITY).is_empty());
        // The death charge covers at least the known command ceiling
        // and at most every node flat out.
        let charge = r.charge_if_dead_w();
        assert!(charge >= r.aggregate().ceiling_w);
        assert!(charge <= 2.0 * 560.0);
        // Recovery marks the rack dirty: next refresh recomputes.
        r.set_online(true);
        r.refresh(3.0);
        assert_eq!(r.runs(), 2);
    }

    #[test]
    fn aggregate_tracks_desired_floor_and_ladder() {
        let mut r = rack();
        r.ingest(summary(4, 1.0, &[0.0, 0.0]));
        r.refresh(1.0);
        let agg = r.aggregate();
        assert!(agg.desired_w > agg.floor_w);
        assert!(!agg.ladder.is_empty());
        let shed: f64 = agg.sheddable_w();
        assert!((shed - (agg.desired_w - agg.floor_w)).abs() < 1e-9);
        // Ladder is sorted ascending by quantized loss.
        for pair in agg.ladder.windows(2) {
            assert!(pair[0].loss_q < pair[1].loss_q);
        }
    }
}
