//! The budget-delegation tree: node → rack → row → datacenter root.
//!
//! One [`DelegationTree::schedule`] round runs five phases:
//!
//! 1. **Rack refresh**: each [`RackCoordinator`] recomputes only if
//!    its contents drifted or a liveness deadline passed, and reports
//!    whether its exported aggregate fingerprint moved. Which racks
//!    must is decided on the calling thread; only those are visited,
//!    rayon-parallel when there are enough of them.
//! 2. **Row merge**: a row re-merges its racks' aggregates only when at
//!    least one child fingerprint moved (or a rack's online state
//!    flipped). Offline racks enter the merge as unsheddable
//!    conservative charges — dead coordinators cost budget, never
//!    stall the tree.
//! 3. **Root assignment**: the root re-splits the global budget across
//!    rows only when a row fingerprint or the budget itself changed.
//! 4. **Row assignment**: every row that re-merged or received a new
//!    sub-budget re-splits it across its racks.
//! 5. **Rack finalize** (same fan-out rule): racks that recomputed or
//!    received a different sub-budget re-run the cheap budget passes;
//!    racks where nothing changed are not visited, emit nothing, and
//!    their nodes hold the last commanded frequencies.
//!
//! With `n` nodes re-reporting and `k` drifting subtrees a round costs
//! O(n) comparisons at [`ingest`](DelegationTree::ingest) — one per
//! processor against the summary already held, no hashing — and
//! O(k + tiers) in [`schedule`](DelegationTree::schedule), plus one
//! flag test per rack: the per-subtree fingerprints are the
//! `ScheduleCache` `ProcKey` idea lifted one level per tier. Nodes that
//! do not re-report cost nothing at all.

use std::sync::Arc;
use std::time::Instant;

use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{Counter, Gauge, Histogram, SchedEvent, SpanId, Telemetry, Tracer};
use rayon::prelude::*;

use super::aggregate::{assign_subbudgets, coalesce_rungs, ChildInput, SubtreeAggregate};
use super::rack::RackCoordinator;
use crate::coordinator::{FrequencyCommand, NodeSummary};

/// Tier codes used in `tier_round` / `subbudget_assigned` /
/// `subtree_cache` events.
pub const TIER_RACK: u8 = 1;
/// Row tier code.
pub const TIER_ROW: u8 = 2;
/// Datacenter-root tier code.
pub const TIER_ROOT: u8 = 3;

/// Shape of the delegation tree. Defaults give 32 nodes per rack and
/// 32 racks per row — 1024 nodes per row, so a 100k-node datacenter is
/// ~98 rows, keeping every tier's fan-out two-digit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierTopology {
    /// Nodes under one rack coordinator.
    pub nodes_per_rack: usize,
    /// Racks under one row coordinator.
    pub racks_per_row: usize,
}

impl Default for HierTopology {
    fn default() -> Self {
        HierTopology {
            nodes_per_rack: 32,
            racks_per_row: 32,
        }
    }
}

impl HierTopology {
    /// Override the rack fan-out.
    pub fn with_nodes_per_rack(mut self, n: usize) -> Self {
        self.nodes_per_rack = n.max(1);
        self
    }

    /// Override the row fan-out.
    pub fn with_racks_per_row(mut self, n: usize) -> Self {
        self.racks_per_row = n.max(1);
        self
    }

    /// Racks needed for `nodes` nodes.
    pub fn num_racks(&self, nodes: usize) -> usize {
        nodes.div_ceil(self.nodes_per_rack)
    }

    /// Rows needed for `nodes` nodes.
    pub fn num_rows(&self, nodes: usize) -> usize {
        self.num_racks(nodes).div_ceil(self.racks_per_row)
    }
}

/// Cumulative per-tier work counters (one pair per tier: recomputations
/// performed vs rounds skipped on clean fingerprints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Rack-tier full recomputations.
    pub rack_runs: u64,
    /// Rack-tier rounds skipped (clean fingerprints, no deadline due).
    pub rack_skips: u64,
    /// Row-tier aggregate re-merges.
    pub row_merges: u64,
    /// Row-tier rounds skipped.
    pub row_skips: u64,
    /// Root budget re-assignments.
    pub root_runs: u64,
    /// Root rounds skipped.
    pub root_skips: u64,
    /// Sub-budget hand-downs that actually changed a child's budget.
    pub subbudget_changes: u64,
}

/// One rack plus its per-round delegation state; the unit rayon fans
/// out over (each cell carries its own outputs, since the stand-in
/// `for_each` cannot collect returns).
#[derive(Debug)]
struct RackCell {
    rack: RackCoordinator,
    /// The phase about to run (refresh or finalize) has work here.
    due: bool,
    /// Sub-budget currently delegated to this rack (W).
    sub_w: f64,
    /// This round's emitted commands (reused buffer).
    commands: Vec<FrequencyCommand>,
}

#[derive(Debug)]
struct Row {
    /// Cell index range `[start, end)` of this row's racks.
    start: usize,
    end: usize,
    agg: SubtreeAggregate,
    agg_fp: u64,
    /// Sub-budget currently delegated to this row (W).
    sub_w: f64,
    /// Force a re-merge regardless of child fingerprints (topology or
    /// online-state change).
    dirty: bool,
    /// Last rack assignment over this row was feasible.
    assign_feasible: bool,
}

/// `hier.*` metric handles, created once at construction.
#[derive(Debug)]
struct HierMetrics {
    rack_runs: Arc<Counter>,
    rack_skips: Arc<Counter>,
    row_merges: Arc<Counter>,
    row_skips: Arc<Counter>,
    root_runs: Arc<Counter>,
    root_skips: Arc<Counter>,
    subbudget_changes: Arc<Counter>,
    delegation_wall_s: Arc<Histogram>,
    /// Per-tier phase latency (rack = refresh + finalize, row = merge +
    /// assign, root = assignment), quantile-estimable.
    tier_rack_s: Arc<Histogram>,
    tier_row_s: Arc<Histogram>,
    tier_root_s: Arc<Histogram>,
    /// Cumulative rack-tier skip ratio — the live view of the
    /// subtree-fingerprint cache (96–97% in steady state).
    subtree_cache_hit_ratio: Arc<Gauge>,
}

/// The full datacenter tree. See the module docs for the round
/// structure; construction is `DelegationTree::new(alg, nodes,
/// topology)` plus the usual builder overrides.
#[derive(Debug)]
pub struct DelegationTree {
    topology: HierTopology,
    num_nodes: usize,
    cells: Vec<RackCell>,
    rows: Vec<Row>,
    /// Bit pattern of the last global budget (sentinel NaN before the
    /// first round so any real budget reads as changed).
    budget_bits: u64,
    root_feasible: bool,
    root_ran_once: bool,
    parallel_threshold: usize,
    telemetry: Telemetry,
    tracer: Tracer,
    metrics: Option<HierMetrics>,
    rounds: u64,
    stats: HierStats,
    // Round scratch, reused.
    merged: Vec<bool>,
    sub_scratch: Vec<f64>,
    rung_scratch: Vec<(u32, f64)>,
}

impl DelegationTree {
    /// Tree over `nodes` globally-numbered nodes.
    pub fn new(algorithm: FvsstAlgorithm, nodes: usize, topology: HierTopology) -> Self {
        Self::with_telemetry(algorithm, nodes, topology, Telemetry::disabled())
    }

    /// Tree that journals `tier_round` / `subbudget_assigned` /
    /// `subtree_cache` events and keeps `hier.*` metrics.
    pub fn with_telemetry(
        algorithm: FvsstAlgorithm,
        nodes: usize,
        topology: HierTopology,
        telemetry: Telemetry,
    ) -> Self {
        let num_racks = topology.num_racks(nodes);
        let mut cells = Vec::with_capacity(num_racks);
        for r in 0..num_racks {
            let base = r * topology.nodes_per_rack;
            let len = topology.nodes_per_rack.min(nodes - base);
            cells.push(RackCell {
                // Rack coordinators journal through their own telemetry
                // in flat mode; inside the tree they run silent (the
                // tier events carry the per-round story) so a 100k-node
                // round does not emit thousands of lines.
                rack: RackCoordinator::new(algorithm.clone(), base, len),
                due: false,
                sub_w: f64::INFINITY,
                commands: Vec::new(),
            });
        }
        let num_rows = topology.num_rows(nodes);
        let rows = (0..num_rows)
            .map(|ri| Row {
                start: ri * topology.racks_per_row,
                end: ((ri + 1) * topology.racks_per_row).min(num_racks),
                agg: SubtreeAggregate::default(),
                agg_fp: 0,
                sub_w: f64::INFINITY,
                dirty: true,
                assign_feasible: true,
            })
            .collect();
        let metrics = telemetry.registry().map(|r| {
            let scope = r.scoped("hier");
            HierMetrics {
                rack_runs: scope.counter("rack_runs"),
                rack_skips: scope.counter("rack_skips"),
                row_merges: scope.counter("row_merges"),
                row_skips: scope.counter("row_skips"),
                root_runs: scope.counter("root_runs"),
                root_skips: scope.counter("root_skips"),
                subbudget_changes: scope.counter("subbudget_changes"),
                delegation_wall_s: scope
                    .histogram("delegation_wall_s", &Histogram::latency_bounds()),
                tier_rack_s: scope.histogram("tier_rack_s", &Histogram::latency_bounds()),
                tier_row_s: scope.histogram("tier_row_s", &Histogram::latency_bounds()),
                tier_root_s: scope.histogram("tier_root_s", &Histogram::latency_bounds()),
                subtree_cache_hit_ratio: scope.gauge("subtree_cache_hit_ratio"),
            }
        });
        DelegationTree {
            topology,
            num_nodes: nodes,
            cells,
            rows,
            budget_bits: f64::NAN.to_bits(),
            root_feasible: true,
            root_ran_once: false,
            parallel_threshold: 8,
            telemetry,
            tracer: Tracer::disabled(),
            metrics,
            rounds: 0,
            stats: HierStats::default(),
            merged: vec![false; num_rows],
            sub_scratch: Vec::new(),
            rung_scratch: Vec::new(),
        }
    }

    /// Forwarded to every rack coordinator.
    pub fn with_heartbeat_timeout(mut self, timeout_s: f64) -> Self {
        for cell in &mut self.cells {
            cell.rack.set_heartbeat_timeout(timeout_s);
        }
        self
    }

    /// Forwarded to every rack coordinator.
    pub fn with_worst_case_node_w(mut self, watts: f64) -> Self {
        for cell in &mut self.cells {
            cell.rack.set_worst_case_node_w(watts);
        }
        self
    }

    /// A rack phase goes through rayon only when at least this many
    /// racks *have work* in it; fewer run on the calling thread. Work is
    /// counted, not racks, because a fan-out costs more than a round in
    /// which every rack skips (DESIGN.md §14).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold.max(1);
        self
    }

    /// Attach a causal span tracer: each round records `hier.round`
    /// with per-phase children (`hier.rack_refresh` per rack — parented
    /// across the rayon fan-out — `hier.row_merge`, `hier.root_assign`,
    /// `hier.row_assign`, `hier.rack_finalize` per rack).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        // Racks share the tracer so their inner two-pass spans nest
        // under the per-rack phase spans (root → rack → passes).
        for cell in &mut self.cells {
            cell.rack.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
        self
    }

    /// Route one node summary to its rack. Returns `true` when the rack
    /// coordinator accepted and stored it; summaries for offline racks
    /// are dropped (the rack's whole uplink is dark).
    pub fn ingest(&mut self, summary: NodeSummary) -> bool {
        if summary.node >= self.num_nodes {
            return false;
        }
        let rack = summary.node / self.topology.nodes_per_rack;
        self.cells[rack].rack.ingest(summary)
    }

    /// Run one delegation round at `now_s` under the global budget and
    /// return the commands to fan out (only for racks where something
    /// changed; all other nodes hold their last commanded frequencies).
    pub fn schedule(&mut self, budget_w: f64, now_s: f64) -> Vec<FrequencyCommand> {
        let round_span = self.tracer.span("hier.round");
        let round_id = round_span.id();
        let t0 = Instant::now();
        let budget_changed = budget_w.to_bits() != self.budget_bits;
        self.budget_bits = budget_w.to_bits();

        // Phase 1: rack refresh (each rack decides for itself whether
        // its contents force a recomputation; only those are visited).
        let t_phase = Instant::now();
        for cell in &mut self.cells {
            cell.due = cell.rack.refresh_due(now_s);
        }
        self.for_each_due("hier.rack_refresh", round_id, |cell| {
            cell.rack.recompute(now_s);
        });
        let mut rack_tier_s = t_phase.elapsed().as_secs_f64();
        let mut rack_ran = 0u32;
        let mut rack_skipped = 0u32;
        let mut rack_fp_moved = 0u32;
        for cell in &self.cells {
            if !cell.rack.online() {
                continue;
            }
            if cell.rack.ran() {
                rack_ran += 1;
                if cell.rack.fp_changed() {
                    rack_fp_moved += 1;
                }
            } else {
                rack_skipped += 1;
            }
        }
        self.stats.rack_runs += u64::from(rack_ran);
        self.stats.rack_skips += u64::from(rack_skipped);

        // Phase 2: row merges, only where a child fingerprint moved.
        let t_phase = Instant::now();
        let merge_span = self.tracer.span("hier.row_merge");
        let mut row_fp_moved = false;
        let mut row_ran = 0u32;
        for ri in 0..self.rows.len() {
            let (start, end, dirty) = {
                let row = &self.rows[ri];
                (row.start, row.end, row.dirty)
            };
            let kids_changed = self.cells[start..end].iter().any(|c| c.rack.fp_changed());
            if !kids_changed && !dirty {
                self.merged[ri] = false;
                self.stats.row_skips += 1;
                continue;
            }
            row_ran += 1;
            self.merged[ri] = true;
            self.stats.row_merges += 1;
            self.rung_scratch.clear();
            let row = &mut self.rows[ri];
            row.agg.clear();
            row.dirty = false;
            for cell in &self.cells[start..end] {
                if cell.rack.online() {
                    let a = cell.rack.aggregate();
                    row.agg.desired_w += a.desired_w;
                    row.agg.floor_w += a.floor_w;
                    row.agg.power_w += a.power_w;
                    row.agg.ceiling_w += a.ceiling_w;
                    for rung in &a.ladder {
                        self.rung_scratch.push((rung.loss_q, rung.shed_w));
                    }
                } else {
                    // Dead rack coordinator: its nodes keep drawing
                    // whatever they were last commanded, so the charge
                    // is unsheddable — it raises desired AND floor.
                    let charge = cell.rack.charge_if_dead_w();
                    row.agg.desired_w += charge;
                    row.agg.floor_w += charge;
                    row.agg.ceiling_w += charge;
                    row.agg.power_w += cell.rack.aggregate().power_w;
                }
            }
            coalesce_rungs(&mut self.rung_scratch, &mut row.agg.ladder);
            let fp = row.agg.fingerprint();
            if fp != row.agg_fp {
                row_fp_moved = true;
            }
            row.agg_fp = fp;
        }
        let row_skipped = self.rows.len() as u32 - row_ran;
        drop(merge_span);
        let mut row_tier_s = t_phase.elapsed().as_secs_f64();

        // Phase 3: root assignment, only when a row fingerprint or the
        // budget moved.
        let t_phase = Instant::now();
        let root_span = self.tracer.span("hier.root_assign");
        let mut sub_changes = 0u64;
        let mut row_sub_changed = false;
        let root_ran = row_fp_moved || budget_changed || !self.root_ran_once;
        if root_ran {
            self.root_ran_once = true;
            self.stats.root_runs += 1;
            let children = self.rows.iter().map(|row| ChildInput {
                agg: &row.agg,
                offline_charge_w: None,
            });
            self.root_feasible = assign_subbudgets(children, budget_w, &mut self.sub_scratch);
            for ri in 0..self.rows.len() {
                let new_sub = self.sub_scratch[ri];
                if new_sub.to_bits() != self.rows[ri].sub_w.to_bits() {
                    self.rows[ri].sub_w = new_sub;
                    row_sub_changed = true;
                    sub_changes += 1;
                    self.stats.subbudget_changes += 1;
                    // Re-split this row's racks below even if no rack
                    // inside it changed.
                    self.merged[ri] = true;
                    if self.telemetry.enabled() {
                        self.telemetry.emit(SchedEvent::SubbudgetAssigned {
                            t_s: now_s,
                            tier: TIER_ROOT,
                            child: ri as u32,
                            subbudget_w: new_sub,
                        });
                    }
                }
            }
        } else {
            self.stats.root_skips += 1;
        }
        drop(root_span);
        let root_tier_s = t_phase.elapsed().as_secs_f64();

        // Phase 4: row → rack assignment for every row that re-merged
        // or received a different sub-budget.
        let t_phase = Instant::now();
        let assign_span = self.tracer.span("hier.row_assign");
        for ri in 0..self.rows.len() {
            if !self.merged[ri] {
                continue;
            }
            let (start, end, sub_w) = {
                let row = &self.rows[ri];
                (row.start, row.end, row.sub_w)
            };
            let children = self.cells[start..end].iter().map(|cell| ChildInput {
                agg: cell.rack.aggregate(),
                offline_charge_w: (!cell.rack.online()).then(|| cell.rack.charge_if_dead_w()),
            });
            self.rows[ri].assign_feasible =
                assign_subbudgets(children, sub_w, &mut self.sub_scratch);
            for (local, cell) in self.cells[start..end].iter_mut().enumerate() {
                let new_sub = self.sub_scratch[local];
                if new_sub.is_nan() {
                    continue; // offline: charged, not budgeted
                }
                if new_sub.to_bits() != cell.sub_w.to_bits() {
                    cell.sub_w = new_sub;
                    sub_changes += 1;
                    self.stats.subbudget_changes += 1;
                    if self.telemetry.enabled() {
                        self.telemetry.emit(SchedEvent::SubbudgetAssigned {
                            t_s: now_s,
                            tier: TIER_ROW,
                            child: (start + local) as u32,
                            subbudget_w: new_sub,
                        });
                    }
                }
            }
        }

        drop(assign_span);
        row_tier_s += t_phase.elapsed().as_secs_f64();

        // Phase 5: finalize — racks re-run the cheap budget passes only
        // if their sub-budget moved, and emit commands only if they
        // computed anything this round.
        let t_phase = Instant::now();
        for cell in &mut self.cells {
            cell.due = cell.rack.finalize_due(cell.sub_w);
        }
        self.for_each_due("hier.rack_finalize", round_id, |cell| {
            cell.commands = cell.rack.finalize(cell.sub_w);
        });
        rack_tier_s += t_phase.elapsed().as_secs_f64();
        let mut commands = Vec::new();
        for cell in &mut self.cells {
            commands.append(&mut cell.commands);
        }

        self.rounds += 1;
        let wall_s = t0.elapsed().as_secs_f64();
        if self.telemetry.enabled() {
            for (tier, ran, skipped) in [
                (TIER_RACK, rack_ran, rack_skipped),
                (TIER_ROW, row_ran, row_skipped),
                (TIER_ROOT, u32::from(root_ran), u32::from(!root_ran)),
            ] {
                self.telemetry.emit(SchedEvent::TierRound {
                    t_s: now_s,
                    tier,
                    ran,
                    skipped,
                });
                self.telemetry.emit(SchedEvent::SubtreeCache {
                    t_s: now_s,
                    tier,
                    hits: skipped,
                    misses: match tier {
                        TIER_RACK => rack_fp_moved,
                        TIER_ROW => u32::from(row_fp_moved),
                        _ => u32::from(row_sub_changed || budget_changed),
                    },
                });
            }
            if let Some(m) = &self.metrics {
                m.rack_runs.add(u64::from(rack_ran));
                m.rack_skips.add(u64::from(rack_skipped));
                m.row_merges.add(u64::from(row_ran));
                m.row_skips.add(u64::from(row_skipped));
                if root_ran {
                    m.root_runs.inc();
                } else {
                    m.root_skips.inc();
                }
                m.subbudget_changes.add(sub_changes);
                m.delegation_wall_s.observe(wall_s);
                m.tier_rack_s.observe(rack_tier_s);
                m.tier_row_s.observe(row_tier_s);
                m.tier_root_s.observe(root_tier_s);
                let probes = self.stats.rack_runs + self.stats.rack_skips;
                if probes > 0 {
                    m.subtree_cache_hit_ratio
                        .set(self.stats.rack_skips as f64 / probes as f64);
                }
            }
        }
        commands
    }

    /// Run `work` on every cell marked `due`, each under its own `span`
    /// parented explicitly to the round (so the causal chain survives
    /// the fan-out onto worker threads): through rayon when at least
    /// `parallel_threshold` cells are due, on the calling thread — no
    /// thread spawned — otherwise.
    fn for_each_due(
        &mut self,
        span: &'static str,
        round_id: SpanId,
        work: impl Fn(&mut RackCell) + Sync,
    ) {
        let tracer = &self.tracer;
        let visit = |cell: &mut RackCell| {
            if cell.due {
                let _s = tracer.span_under(span, round_id);
                work(cell);
            }
        };
        if self.cells.iter().filter(|c| c.due).count() >= self.parallel_threshold {
            self.cells.par_iter_mut().for_each(visit);
        } else {
            self.cells.iter_mut().for_each(visit);
        }
    }

    /// Take one rack's coordinator offline (or bring it back). The
    /// parent row re-merges next round either way; while offline the
    /// rack's conservative worst-case charge is held against the
    /// budget.
    pub fn set_rack_online(&mut self, rack: usize, online: bool) {
        if rack >= self.cells.len() {
            return;
        }
        self.cells[rack].rack.set_online(online);
        let ri = rack / self.topology.racks_per_row;
        self.rows[ri].dirty = true;
    }

    /// Whether rack `rack`'s coordinator is currently online.
    pub fn rack_online(&self, rack: usize) -> bool {
        self.cells
            .get(rack)
            .map(|c| c.rack.online())
            .unwrap_or(false)
    }

    /// Total nodes under the tree.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Rack coordinators in the tree.
    pub fn num_racks(&self) -> usize {
        self.cells.len()
    }

    /// Row coordinators in the tree.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Nodes that have reported at least once (across all racks,
    /// including the frozen view held for offline racks).
    pub fn nodes_reporting(&self) -> usize {
        self.cells.iter().map(|c| c.rack.nodes_reporting()).sum()
    }

    /// Nodes currently presumed dead by their rack coordinators.
    pub fn dead_nodes(&self) -> usize {
        self.cells.iter().map(|c| c.rack.dead_nodes()).sum()
    }

    /// Power reserved for everything the tree cannot command: silent
    /// nodes inside online racks plus whole offline racks (W).
    pub fn reserved_w(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                if c.rack.online() {
                    c.rack.reserved_w()
                } else {
                    c.rack.charge_if_dead_w()
                }
            })
            .sum()
    }

    /// Conservative ceiling on the datacenter draw implied by the last
    /// round: each online rack's predicted power plus its internal
    /// reserve, plus the worst-case charge of every offline rack (W).
    pub fn predicted_power_w(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                if c.rack.online() {
                    c.rack.predicted_power_w() + c.rack.reserved_w()
                } else {
                    c.rack.charge_if_dead_w()
                }
            })
            .sum()
    }

    /// Whether the last round's budget could be met at every tier.
    pub fn feasible(&self) -> bool {
        self.root_feasible && self.rows.iter().all(|r| r.assign_feasible)
    }

    /// Delegation rounds run.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cumulative per-tier work counters.
    pub fn stats(&self) -> HierStats {
        self.stats
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

    fn tree(nodes: usize) -> DelegationTree {
        DelegationTree::new(
            FvsstAlgorithm::p630(),
            nodes,
            HierTopology::default()
                .with_nodes_per_rack(4)
                .with_racks_per_row(2),
        )
        .with_heartbeat_timeout(f64::INFINITY)
        .with_parallel_threshold(usize::MAX)
    }

    fn feed_all(t: &mut DelegationTree, nodes: usize, at: f64) {
        for n in 0..nodes {
            assert!(t.ingest(summary(n, at, &[0.0])));
        }
    }

    #[test]
    fn three_tier_round_commands_every_node() {
        let mut t = tree(16); // 4 racks, 2 rows
        assert_eq!(t.num_racks(), 4);
        assert_eq!(t.num_rows(), 2);
        feed_all(&mut t, 16, 1.0);
        let cmds = t.schedule(f64::INFINITY, 1.0);
        assert_eq!(cmds.len(), 16);
        let mut nodes: Vec<usize> = cmds.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..16).collect::<Vec<_>>());
        assert!(t.feasible());
    }

    #[test]
    fn steady_state_costs_nothing_and_emits_nothing() {
        let mut t = tree(16);
        feed_all(&mut t, 16, 1.0);
        t.schedule(1000.0, 1.0);
        // Identical content re-sent: every tier skips, no commands.
        feed_all(&mut t, 16, 2.0);
        let cmds = t.schedule(1000.0, 2.0);
        assert!(cmds.is_empty());
        let s = t.stats();
        assert_eq!(s.rack_runs, 4);
        assert_eq!(s.rack_skips, 4);
        assert_eq!(s.row_merges, 2);
        assert_eq!(s.row_skips, 2);
        assert_eq!(s.root_runs, 1);
        assert_eq!(s.root_skips, 1);
    }

    #[test]
    fn single_drifter_wakes_only_its_path() {
        let mut t = tree(16);
        feed_all(&mut t, 16, 1.0);
        t.schedule(1000.0, 1.0);
        let before = t.stats();
        // Node 13 (rack 3, row 1) drifts memory-bound.
        assert!(t.ingest(summary(13, 2.0, &[40.0e-9])));
        t.schedule(1000.0, 2.0);
        let s = t.stats();
        // Exactly one rack recomputed; the other three skipped.
        assert_eq!(s.rack_runs - before.rack_runs, 1);
        assert_eq!(s.rack_skips - before.rack_skips, 3);
        // Exactly one row re-merged.
        assert_eq!(s.row_merges - before.row_merges, 1);
        assert_eq!(s.row_skips - before.row_skips, 1);
    }

    #[test]
    fn budget_drop_reaches_every_rack() {
        let mut t = tree(16);
        feed_all(&mut t, 16, 1.0);
        t.schedule(f64::INFINITY, 1.0);
        let p_unconstrained = t.predicted_power_w();
        // 16 CPU-bound single-proc nodes want ~140 W each; drop the
        // global budget to less than half of that.
        let budget = p_unconstrained / 2.0;
        let cmds = t.schedule(budget, 2.0);
        assert!(!cmds.is_empty());
        assert!(t.feasible());
        assert!(
            t.predicted_power_w() <= budget,
            "{} > {budget}",
            t.predicted_power_w()
        );
    }

    #[test]
    fn dead_rack_is_charged_and_the_rest_squeezed() {
        let mut t = tree(16);
        feed_all(&mut t, 16, 1.0);
        t.schedule(2240.0, 1.0); // 16 × 140 W: everyone flat out
        t.set_rack_online(1, false);
        // The dead rack's 4 nodes keep drawing their commanded ~140 W
        // each; that charge must now come out of everyone else's share.
        let budget = 1500.0;
        t.schedule(budget, 2.0);
        let charge = {
            // Rack 1's charge: at least its commanded ceiling.
            assert!(!t.rack_online(1));
            t.reserved_w()
        };
        assert!(charge >= 4.0 * 100.0, "{charge}");
        assert!(t.predicted_power_w() <= budget + 1e-6);
        assert!(t.feasible());
        // Recovery: bring it back, re-ingest, charge clears.
        t.set_rack_online(1, true);
        for n in 4..8 {
            assert!(t.ingest(summary(n, 3.0, &[0.0])));
        }
        t.schedule(budget, 3.0);
        assert!(t.reserved_w() < 1.0, "{}", t.reserved_w());
    }

    #[test]
    fn infeasible_budget_floors_the_tree_without_stalling() {
        let mut t = tree(16);
        feed_all(&mut t, 16, 1.0);
        let cmds = t.schedule(10.0, 1.0); // impossible budget
        assert!(!t.feasible());
        assert_eq!(cmds.len(), 16);
        // Every node pinned at the platform minimum.
        for cmd in &cmds {
            for f in &cmd.freqs {
                assert_eq!(*f, FreqMhz(250));
            }
        }
    }
}
