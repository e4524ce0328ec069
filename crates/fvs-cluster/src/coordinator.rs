//! The global coordinator: Figure 3 across all nodes.
//!
//! A round is a liveness sweep that flattens the live nodes' processors
//! into one `ProcInput` list (remembering where each node's begin), the
//! cached two-pass computation over that list, and a regroup of the
//! decision into one command per node. The sweep and the regroup do one
//! thing per node, not per processor: a command is a slice of the
//! decision, and its power ceiling a sum of table entries the cache
//! already resolved ([`ScheduleCache::decided_power_w`]).

use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{CacheStats, FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache};
use fvs_telemetry::{Counter, Gauge, SchedEvent, Telemetry, Tracer};
use serde::{Deserialize, Serialize};

/// What a node ships to the coordinator each scheduling period.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeSummary {
    /// Sending node.
    pub node: usize,
    /// Send timestamp (s).
    pub sent_at_s: f64,
    /// Per-processor fitted models (None = uninformative window).
    pub models: Vec<Option<CpiModel>>,
    /// Per-processor idle signals.
    pub idle: Vec<bool>,
    /// Per-processor current frequencies.
    pub current: Vec<FreqMhz>,
    /// Node aggregate power at send time (W) — the coordinator's
    /// compliance telemetry.
    pub power_w: f64,
}

/// What the coordinator ships back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyCommand {
    /// Target node.
    pub node: usize,
    /// Frequency per processor of that node.
    pub freqs: Vec<FreqMhz>,
}

/// Default heartbeat timeout: a node silent for longer is presumed dead
/// and charged conservatively. Five paper-default scheduling periods
/// (T = 100 ms) — long enough for latency jitter, short against ΔT.
pub const DEFAULT_HEARTBEAT_TIMEOUT_S: f64 = 0.5;

/// Default conservative charge for a node that has *never* reported: a
/// full p630 node at maximum frequency (4 × 140 W).
pub const DEFAULT_WORST_CASE_NODE_W: f64 = 560.0;

/// The coordinator's per-node state, one record per node: the last
/// summary held, the last-commanded power ceiling and the dead flag. A
/// crash-recovery snapshot persists the records as the coordinator keeps
/// them. They are everything conservative charging (the record's charge
/// rule) and the blind `f_min` command need — a resumed coordinator that
/// restores them charges a silent node exactly as if it had never
/// crashed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeRestore {
    /// The newest summary held for the node (its `sent_at_s` is on the
    /// exporter's clock; rebase before restoring).
    pub summary: Option<NodeSummary>,
    /// Ceiling of the frequencies last *commanded* (W). A node can die
    /// after commands were issued but before any summary reflects them,
    /// so its last report may understate what it is now drawing.
    pub commanded_w: f64,
    /// Whether the node was already declared dead (one-shot; reset when
    /// the node reports again).
    pub dead: bool,
}

impl NodeRestore {
    /// What the coordinator charges a node it cannot command: the
    /// daemon's [`fvs_sched::unlanded_charge_w`] of its last report and
    /// last command — it may have gone silent after a boost command,
    /// before any summary showed it — or `worst_case_w` if it has never reported.
    fn charge_w(&self, worst_case_w: f64) -> f64 {
        match &self.summary {
            Some(s) => fvs_sched::unlanded_charge_w(s.power_w, self.commanded_w),
            None => worst_case_w,
        }
    }
}

/// The check every summary the coordinator holds passes, from the uplink
/// or a snapshot: per-processor vectors of one length and a finite,
/// non-negative power, or it is refused whole (`false`). An invalid model
/// is journaled and, when `hold`, degraded to `None` (scheduled as
/// unmodelled). The node index and timestamp are the callers' to check.
fn admissible(telemetry: &Telemetry, s: &mut NodeSummary, hold: bool) -> bool {
    let n_procs = s.models.len();
    let shaped = s.idle.len() == n_procs && s.current.len() == n_procs;
    if !shaped || !s.power_w.is_finite() || s.power_w < 0.0 {
        return false;
    }
    for (p, entry) in s.models.iter_mut().enumerate() {
        if let Some(model) = entry.filter(|m| !m.is_valid()) {
            if telemetry.enabled() {
                telemetry.emit(SchedEvent::SampleQuarantined {
                    t_s: s.sent_at_s,
                    proc: p as u32,
                    value: model.cpi0,
                });
            }
            if hold {
                *entry = None;
            }
        }
    }
    true
}

/// Runs the two-pass algorithm over every processor of every node under
/// the single global budget.
#[derive(Debug)]
pub struct GlobalCoordinator {
    algorithm: FvsstAlgorithm,
    /// Everything the coordinator knows of each node, by node index.
    nodes: Vec<NodeRestore>,
    // Reused across rounds so the steady-state global computation does
    // not allocate; nodes with phase-stable models hit the fingerprint
    // cache and skip their per-processor rebuild entirely.
    cache: ScheduleCache,
    /// `(node, index of its first processor in procs)` for every node
    /// the last sweep found live, in node order.
    live: Vec<(usize, usize)>,
    procs: Vec<ProcInput>,
    rounds: u64,
    telemetry: Telemetry,
    tracer: Tracer,
    metrics: Option<CoordMetrics>,
    /// A node silent for longer than this is declared dead.
    heartbeat_timeout_s: f64,
    /// Conservative charge for a node that has never reported (W).
    worst_case_node_w: f64,
    /// Power reserved for silent nodes in the last round (W).
    reserved_w: f64,
    /// What the nodes the last sweep found live last reported drawing,
    /// summed (W).
    live_power_w: f64,
    /// Nodes charged (not scheduled) in the last computation — they
    /// receive blind fail-safe commands. Reused across rounds.
    blind: Vec<usize>,
}

/// Metric handles, created once at construction so scheduling rounds
/// never touch the registry mutex.
#[derive(Debug)]
struct CoordMetrics {
    rounds: std::sync::Arc<Counter>,
    summaries_ingested: std::sync::Arc<Counter>,
    summaries_stale: std::sync::Arc<Counter>,
    summaries_rejected: std::sync::Arc<Counter>,
    commands_sent: std::sync::Arc<Counter>,
    reported_power_watts: std::sync::Arc<Gauge>,
    nodes_reporting: std::sync::Arc<Gauge>,
    reserved_watts: std::sync::Arc<Gauge>,
}

impl GlobalCoordinator {
    /// Coordinator for `nodes` nodes. Panics on an ε the daemon would
    /// refuse ([`FvsstAlgorithm::assert_valid_epsilon`]).
    pub fn new(algorithm: FvsstAlgorithm, nodes: usize) -> Self {
        Self::with_telemetry(algorithm, nodes, Telemetry::disabled())
    }

    /// Coordinator that journals one [`SchedEvent::ClusterRound`] per
    /// global round and keeps `cluster.*` counters/gauges (summaries
    /// ingested and dropped as stale, commands fanned out, reported
    /// aggregate power).
    pub fn with_telemetry(algorithm: FvsstAlgorithm, nodes: usize, telemetry: Telemetry) -> Self {
        algorithm.assert_valid_epsilon();
        let metrics = telemetry.registry().map(|r| {
            let scope = r.scoped("cluster");
            CoordMetrics {
                rounds: scope.counter("rounds"),
                summaries_ingested: scope.counter("summaries_ingested"),
                summaries_stale: scope.counter("summaries_stale"),
                summaries_rejected: scope.counter("summaries_rejected"),
                commands_sent: scope.counter("commands_sent"),
                reported_power_watts: scope.gauge("reported_power_watts"),
                nodes_reporting: scope.gauge("nodes_reporting"),
                reserved_watts: scope.gauge("reserved_watts"),
            }
        });
        GlobalCoordinator {
            algorithm,
            nodes: vec![NodeRestore::default(); nodes],
            cache: ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT),
            live: Vec::new(),
            procs: Vec::new(),
            rounds: 0,
            telemetry,
            tracer: Tracer::disabled(),
            metrics,
            heartbeat_timeout_s: DEFAULT_HEARTBEAT_TIMEOUT_S,
            worst_case_node_w: DEFAULT_WORST_CASE_NODE_W,
            reserved_w: 0.0,
            live_power_w: 0.0,
            blind: Vec::new(),
        }
    }

    /// Override the heartbeat timeout after which a silent node is
    /// declared dead and charged conservatively (`+∞`: never). Panics on
    /// a NaN or non-positive timeout.
    pub fn with_heartbeat_timeout(mut self, timeout_s: f64) -> Self {
        self.set_heartbeat_timeout(timeout_s);
        self
    }

    pub(crate) fn set_heartbeat_timeout(&mut self, timeout_s: f64) {
        assert!(timeout_s > 0.0, "heartbeat timeout must be positive");
        self.heartbeat_timeout_s = timeout_s;
    }

    /// Override the conservative charge for nodes that have never
    /// reported (heterogeneous clusters with bigger machines). Panics
    /// unless `watts` is finite and non-negative.
    pub fn with_worst_case_node_w(mut self, watts: f64) -> Self {
        self.set_worst_case_node_w(watts);
        self
    }

    pub(crate) fn set_worst_case_node_w(&mut self, watts: f64) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "worst-case node charge must be finite and non-negative"
        );
        self.worst_case_node_w = watts;
    }

    /// Attach a causal span tracer: each global round records
    /// `cluster.round` with `cluster.liveness_sweep`, the two-pass
    /// spans (`sched.pass1` / `sched.cache_probe` / `sched.pass2`) and
    /// `cluster.emit_commands` as children.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Cache effectiveness counters for the global computation.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The conservative charge for a node that has never reported (W).
    pub fn worst_case_node_w(&self) -> f64 {
        self.worst_case_node_w
    }

    /// Ingest a (possibly stale) node summary; newer summaries replace
    /// older ones. Returns `true` when the summary was accepted and
    /// stored (fresh and well-formed), `false` when it was rejected or
    /// lost to a newer one already held.
    ///
    /// The uplink is not trusted: a summary with an out-of-range node
    /// index, a non-finite timestamp or power, a negative power or
    /// mismatched per-processor vectors is rejected whole, and a model
    /// with non-finite components is degraded to `None` (the processor
    /// holds its current frequency). Nothing a node ships can make the
    /// global computation produce a NaN.
    pub fn ingest(&mut self, mut summary: NodeSummary) -> bool {
        self.ingest_swap(&mut summary)
    }

    /// [`ingest`](Self::ingest) for a caller that reuses its buffers:
    /// an accepted summary is *swapped* with the one it displaces, so
    /// on `true` the caller holds the node's previous summary (an empty
    /// one on the node's first report) and can decode the next frame
    /// into its vectors. On `false` — rejected, or lost to a newer one
    /// already held — the caller's summary is left exactly as passed.
    pub fn ingest_swap(&mut self, summary: &mut NodeSummary) -> bool {
        let t = summary.sent_at_s;
        let newer = self
            .nodes
            .get(summary.node)
            .filter(|_| t.is_finite())
            .map(|r| r.summary.as_ref().is_none_or(|old| t >= old.sent_at_s));
        // Only a summary about to be stored is degraded; a stale one goes
        // back to the caller as it came.
        let newer = match newer {
            Some(newer) if admissible(&self.telemetry, summary, newer) => newer,
            _ => {
                if let Some(m) = &self.metrics {
                    m.summaries_rejected.inc();
                }
                if self.telemetry.enabled() {
                    self.telemetry.emit(SchedEvent::SampleQuarantined {
                        t_s: summary.sent_at_s,
                        proc: summary.node as u32,
                        value: summary.power_w,
                    });
                }
                return false;
            }
        };
        let slot = &mut self.nodes[summary.node].summary;
        if let Some(m) = &self.metrics {
            if newer {
                m.summaries_ingested.inc();
            } else {
                m.summaries_stale.inc();
            }
        }
        if newer {
            match slot {
                Some(old) => std::mem::swap(old, summary),
                None => *slot = Some(std::mem::take(summary)),
            }
        }
        newer
    }

    /// How many nodes have reported at least once.
    pub fn nodes_reporting(&self) -> usize {
        self.nodes.iter().filter(|r| r.summary.is_some()).count()
    }

    /// Sum of the latest reported node powers (telemetry view; lags
    /// reality by the message latency).
    pub fn reported_power_w(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|r| r.summary.as_ref())
            .map(|s| s.power_w)
            .sum()
    }

    /// Power reserved for silent or never-reported nodes in the last
    /// round (W) — subtracted from the global budget before scheduling
    /// the live nodes.
    pub fn reserved_w(&self) -> f64 {
        self.reserved_w
    }

    /// Summed last-reported power of the nodes the last round's liveness
    /// sweep found live (W). With [`reserved_w`](Self::reserved_w) this
    /// is the conservative cluster power the ΔT argument bounds: the
    /// sweep puts every node in exactly one of the two.
    pub fn live_power_w(&self) -> f64 {
        self.live_power_w
    }

    /// How many nodes the last round's liveness sweep found live: heard
    /// from within the heartbeat timeout. The one place that rule is
    /// written is the sweep itself.
    pub fn live_nodes(&self) -> usize {
        self.live.len()
    }

    /// Nodes currently presumed dead (silent past the heartbeat
    /// timeout, or never heard from once the timeout has elapsed).
    pub fn dead_nodes(&self) -> usize {
        self.nodes.iter().filter(|r| r.dead).count()
    }

    /// Run the global computation at time `now_s` and emit one command
    /// per live node.
    ///
    /// Graceful degradation for the silent: a node whose last summary
    /// is older than the heartbeat timeout, or that never reported, cannot
    /// be commanded, so it is *charged against the budget* by
    /// [`NodeRestore`]'s charge rule and the live nodes are scheduled
    /// under what remains. The cluster's true draw cannot exceed the
    /// global budget because of a node the coordinator cannot see.
    pub fn schedule(&mut self, budget_w: f64, now_s: f64) -> Vec<FrequencyCommand> {
        let _round_span = self.tracer.span("cluster.round");
        self.compute(budget_w, now_s);
        let commands = {
            let _emit_span = self.tracer.span("cluster.emit_commands");
            self.emit_commands()
        };
        let round = self.rounds;
        self.rounds += 1;
        if self.telemetry.enabled() {
            let d = self.cache.decision();
            self.telemetry.emit(SchedEvent::ClusterRound {
                round,
                nodes: self.nodes_reporting() as u32,
                procs: self.procs.len() as u32,
                budget_w,
                predicted_power_w: d.predicted_power_w,
                feasible: d.feasible,
            });
            if let Some(m) = &self.metrics {
                m.rounds.inc();
                m.commands_sent.add(commands.len() as u64);
                m.reported_power_watts.set(self.reported_power_w());
                m.nodes_reporting.set(self.nodes_reporting() as f64);
                m.reserved_watts.set(self.reserved_w);
            }
        }
        commands
    }

    /// The liveness sweep plus the cached two-pass computation, without
    /// emitting commands: flattens live processors into the reusable
    /// `ProcInput` list, charges silent and never-reported nodes against
    /// the budget, and runs `schedule_cached` under what remains. The
    /// decision lands in [`schedule_cache`](Self::schedule_cache); the
    /// hierarchy layer calls this to refresh a rack's aggregate before
    /// its sub-budget is known, then [`recompute_budget`] +
    /// [`emit_commands`] once it is.
    ///
    /// [`recompute_budget`]: Self::recompute_budget
    /// [`emit_commands`]: Self::emit_commands
    pub(crate) fn compute(&mut self, budget_w: f64, now_s: f64) {
        let sweep_span = self.tracer.span("cluster.liveness_sweep");
        self.live.clear();
        self.procs.clear();
        self.blind.clear();
        let mut reserved_w = 0.0;
        let mut live_power_w = 0.0;
        for (node_idx, record) in self.nodes.iter_mut().enumerate() {
            match &record.summary {
                Some(s) if now_s - s.sent_at_s <= self.heartbeat_timeout_s => {
                    record.dead = false;
                    live_power_w += s.power_w;
                    self.live.push((node_idx, self.procs.len()));
                    let inputs = s.models.iter().zip(&s.idle).zip(&s.current);
                    self.procs
                        .extend(inputs.map(|((&model, &idle), &current)| ProcInput {
                            model,
                            idle,
                            current,
                        }));
                }
                _ => {
                    // Silent past the timeout or never heard from: charged,
                    // in startup grace too. A node never heard from is
                    // overdue once the timeout has elapsed and gets no
                    // blind command: it has held f_min since boot.
                    let charged_w = record.charge_w(self.worst_case_node_w);
                    reserved_w += charged_w;
                    let last_seen_s = record.summary.as_ref().map(|s| s.sent_at_s);
                    if last_seen_s.is_some() {
                        self.blind.push(node_idx);
                    }
                    let overdue = last_seen_s.is_some() || now_s > self.heartbeat_timeout_s;
                    if overdue && !record.dead {
                        record.dead = true;
                        self.telemetry.emit(SchedEvent::NodeDeclaredDead {
                            t_s: now_s,
                            node: node_idx as u32,
                            last_seen_s: last_seen_s.unwrap_or(f64::NAN),
                            charged_w,
                        });
                    }
                }
            }
        }
        drop(sweep_span);
        self.reserved_w = reserved_w;
        self.live_power_w = live_power_w;
        let effective_budget_w = (budget_w - reserved_w).max(0.0);
        self.algorithm.schedule_cached_traced(
            &mut self.cache,
            &self.procs,
            effective_budget_w,
            &self.tracer,
        );
    }

    /// Re-run passes 2 + 3 under a different budget over the processor
    /// set of the last [`compute`](Self::compute), skipping the liveness
    /// sweep (every per-processor fingerprint hits, so only the budget
    /// passes run). The hierarchy layer uses this when a rack's
    /// sub-budget changed but nothing inside the rack did.
    pub(crate) fn recompute_budget(&mut self, budget_w: f64) {
        let effective_budget_w = (budget_w - self.reserved_w).max(0.0);
        self.algorithm
            .schedule_cached(&mut self.cache, &self.procs, effective_budget_w);
    }

    /// Regroup the last computed decision into per-node commands, record
    /// the commanded power ceilings, and append blind fail-safe commands
    /// for charged nodes.
    pub(crate) fn emit_commands(&mut self) -> Vec<FrequencyCommand> {
        let freqs = &self.cache.decision().freqs;
        // Regroup per node (the command vectors are shipped, so they are
        // allocated fresh). A live node without processors gets no
        // command and keeps its ceiling.
        let mut commands = Vec::with_capacity(self.live.len() + self.blind.len());
        let ends = self.live.iter().skip(1).map(|&(_, start)| start);
        for (&(node, start), end) in self.live.iter().zip(ends.chain([freqs.len()])) {
            if start == end {
                continue;
            }
            // Remember the node's power ceiling for conservative charging
            // should it go silent before reporting again: the table power
            // of what it is sent, which the cache holds by slot.
            self.nodes[node].commanded_w = self.cache.decided_power_w(start..end);
            commands.push(FrequencyCommand {
                node,
                freqs: freqs[start..end].to_vec(),
            });
        }
        // Blind fail-safe: a charged node may be mute-but-running (its
        // uplink lost while its downlink still works), and when the
        // reserve alone exceeds the budget the live nodes are floored and
        // nothing else restores *measured* compliance — so command it to
        // f_min, sized by its last accepted summary. Unacknowledged, it
        // never lowers `commanded_w`: the charge stands until it reports.
        let f_min = self.algorithm.freq_set.min();
        for &node in &self.blind {
            if let Some(s) = &self.nodes[node].summary {
                commands.push(FrequencyCommand {
                    node,
                    freqs: vec![f_min; s.models.len()],
                });
            }
        }
        commands
    }

    /// The incremental-scheduling cache behind the global computation —
    /// the hierarchy layer reads the desired/floor powers and the
    /// demotion ladder of the last round from it.
    pub fn schedule_cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Nodes this coordinator was built for.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether node `node` is currently presumed dead.
    pub fn is_dead(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(|r| r.dead)
    }

    /// The earliest future time at which a currently-live node could be
    /// declared dead (its last heartbeat plus the timeout), or the
    /// startup-grace expiry for nodes never heard from. `+∞` when no
    /// liveness transition can occur without a new summary arriving.
    /// A round skipped until this deadline cannot miss a declaration.
    pub fn next_liveness_deadline_s(&self) -> f64 {
        let mut deadline = f64::INFINITY;
        for record in self.nodes.iter().filter(|r| !r.dead) {
            let due = match &record.summary {
                Some(s) => s.sent_at_s + self.heartbeat_timeout_s,
                // Never reported: the grace period ends at the timeout.
                None => self.heartbeat_timeout_s,
            };
            deadline = deadline.min(due);
        }
        deadline
    }

    /// The newest summary held for `node` (snapshot export and tests).
    pub fn latest_summary(&self, node: usize) -> Option<&NodeSummary> {
        self.nodes.get(node).and_then(|r| r.summary.as_ref())
    }

    /// Export `node`'s record for a crash-recovery snapshot, or `None`
    /// when the index is out of range.
    pub fn export_node(&self, node: usize) -> Option<NodeRestore> {
        self.nodes.get(node).cloned()
    }

    /// Restore `node`'s charging state from a snapshot — the resync
    /// charging path. The caller rebases `summary.sent_at_s` onto its
    /// own clock first; a resumed coordinator deliberately stamps it
    /// stale so the next liveness sweep charges the node by the record's
    /// charge rule until a fresh summary arrives. Out-of-range indices
    /// are ignored, and the summary passes the check
    /// [`ingest`](Self::ingest) applies, so a snapshot cannot widen the
    /// cluster or inject what `ingest` would refuse.
    pub fn restore_node(&mut self, node: usize, mut r: NodeRestore) {
        let Some(record) = self.nodes.get_mut(node) else {
            return;
        };
        // A corrupt summary is dropped and the flags and ceiling kept: the
        // node degrades to worst-case charging. `-∞` is a legal timestamp
        // (what an infinite heartbeat timeout rebases to); NaN or `+∞`
        // would outrank every later summary and pin the node for good.
        let held = r.summary.as_mut().is_some_and(|s| {
            s.node == node && s.sent_at_s < f64::INFINITY && admissible(&self.telemetry, s, true)
        });
        if !held {
            r.summary = None;
        }
        if !(r.commanded_w.is_finite() && r.commanded_w >= 0.0) {
            r.commanded_w = 0.0;
        }
        *record = r;
    }

    /// A conservative ceiling on what this coordinator's nodes can draw
    /// if the coordinator itself dies right now and can issue no further
    /// commands: the reserve already charged for silent nodes, plus each
    /// live node's charge — [`NodeRestore`]'s rule, the worst case when
    /// that is 0 W. A parent tier charges this against its budget when
    /// the subtree goes dark.
    pub fn charge_ceiling_w(&self) -> f64 {
        // Never-reported and dead nodes are already in the reserve (grace
        // charges are part of `reserved_w` after any compute).
        let worst_w = self.worst_case_node_w;
        self.nodes
            .iter()
            .filter(|r| r.summary.is_some() && !r.dead)
            .map(|r| r.charge_w(worst_w))
            .map(|w| if w > 0.0 { w } else { worst_w })
            .fold(self.reserved_w, |total, w| total + w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(node: usize, at: f64, mem_times: &[f64]) -> NodeSummary {
        NodeSummary {
            node,
            sent_at_s: at,
            models: mem_times
                .iter()
                .map(|m| Some(CpiModel::from_components(1.0, *m)))
                .collect(),
            idle: vec![false; mem_times.len()],
            current: vec![FreqMhz(1000); mem_times.len()],
            power_w: 140.0 * mem_times.len() as f64,
        }
    }

    #[test]
    fn stale_summaries_do_not_replace_fresh_ones() {
        let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        c.ingest(summary(0, 2.0, &[0.0]));
        c.ingest(summary(0, 1.0, &[10.0e-9])); // older: ignored
        let cmds = c.schedule(f64::INFINITY, 2.0);
        assert_eq!(cmds.len(), 1);
        // The fresh (CPU-bound) summary wins: high frequency.
        assert!(cmds[0].freqs[0] >= FreqMhz(950));
    }

    #[test]
    fn global_budget_spans_nodes() {
        let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        // Node 0 CPU-bound, node 1 memory-bound, 2 procs each.
        c.ingest(summary(0, 1.0, &[0.0, 0.0]));
        c.ingest(summary(1, 1.0, &[10.0e-9, 10.0e-9]));
        // Budget forces trade-offs: 4 procs, 300 W total.
        let cmds = c.schedule(300.0, 1.0);
        let table = fvs_power::FreqPowerTable::p630_table1();
        let total: f64 = cmds
            .iter()
            .flat_map(|c| c.freqs.iter())
            .map(|f| table.power_interpolated(*f))
            .sum();
        assert!(total <= 300.0);
        // Diversity: the memory-bound node ended lower than the
        // CPU-bound node.
        let f_cpu = cmds.iter().find(|c| c.node == 0).unwrap().freqs[0];
        let f_mem = cmds.iter().find(|c| c.node == 1).unwrap().freqs[0];
        assert!(f_cpu > f_mem, "{f_cpu} vs {f_mem}");
    }

    #[test]
    fn missing_nodes_are_charged_worst_case_not_ignored() {
        let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 3);
        c.ingest(summary(1, 1.0, &[0.0]));
        let cmds = c.schedule(f64::INFINITY, 1.0);
        // Only the reporting node is commanded...
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].node, 1);
        assert_eq!(c.nodes_reporting(), 1);
        // ...but the two silent nodes are *not* free: each reserves the
        // worst-case node power against the budget.
        assert_eq!(c.reserved_w(), 2.0 * DEFAULT_WORST_CASE_NODE_W);
        // Past the heartbeat timeout they are declared dead outright.
        assert_eq!(c.dead_nodes(), 2);
    }

    #[test]
    fn silent_node_is_charged_its_last_known_power() {
        let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        // Both report; node 1 then falls silent.
        c.ingest(summary(0, 1.0, &[0.0, 0.0]));
        c.ingest(summary(1, 1.0, &[0.0, 0.0])); // last reported 280 W
        c.ingest(summary(0, 2.0, &[0.0, 0.0]));
        let cmds = c.schedule(300.0, 2.0);
        // Node 1 is a second past the timeout: dead, charged 280 W.
        assert_eq!(c.reserved_w(), 280.0);
        assert_eq!(c.dead_nodes(), 1);
        // Node 0's two CPU-bound procs get only the remaining 20 W:
        // they are demoted to the floor. Node 1 is not scheduled, but it
        // does get a blind fail-safe command — it may be mute yet
        // running, and the downlink might still work.
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].node, 0);
        for f in &cmds[0].freqs {
            assert_eq!(*f, FreqMhz(250));
        }
        assert_eq!(cmds[1].node, 1);
        assert_eq!(cmds[1].freqs, vec![FreqMhz(250); 2]);
        // The blind command is unacknowledged: node 1 stays charged.
        assert_eq!(c.reserved_w(), 280.0);
    }

    #[test]
    fn recovered_node_is_no_longer_charged() {
        let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        c.ingest(summary(0, 1.0, &[0.0]));
        c.ingest(summary(1, 1.0, &[0.0]));
        c.ingest(summary(0, 2.0, &[0.0]));
        c.schedule(300.0, 2.0);
        assert_eq!(c.dead_nodes(), 1);
        // Node 1 comes back (and node 0 keeps heartbeating).
        c.ingest(summary(0, 2.5, &[0.0]));
        c.ingest(summary(1, 2.5, &[0.0]));
        let cmds = c.schedule(300.0, 2.6);
        assert_eq!(c.reserved_w(), 0.0);
        assert_eq!(c.dead_nodes(), 0);
        assert_eq!(cmds.len(), 2);
    }

    /// The resync charging path: a coordinator built from another's
    /// exported node state charges a still-silent node its last-charged
    /// ceiling — never less — and releases the charge only when a fresh
    /// summary arrives.
    #[test]
    fn restored_node_state_keeps_the_conservative_charge() {
        let mut a = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        a.ingest(summary(0, 1.0, &[0.0, 0.0]));
        a.ingest(summary(1, 1.0, &[0.0, 0.0]));
        a.schedule(300.0, 1.0); // records commanded_w ceilings
        let exported: Vec<NodeRestore> = (0..2).map(|n| a.export_node(n).unwrap()).collect();
        assert!(exported[1].summary.is_some());
        assert!(exported[1].commanded_w > 0.0);

        // "Restart": a fresh coordinator restores both nodes with their
        // summaries re-stamped stale (the resumed clock starts over).
        let mut b = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        for (n, mut r) in exported.into_iter().enumerate() {
            if let Some(s) = &mut r.summary {
                s.sent_at_s = -10.0; // stale by construction
            }
            r.dead = true; // restored charges don't re-announce death
            b.restore_node(n, r);
        }
        b.schedule(300.0, 0.1);
        // Both nodes are charged max(last power, commanded ceiling) —
        // the last-charged-ceiling discipline — not scheduled as live.
        assert_eq!(b.dead_nodes(), 2);
        assert!(
            b.reserved_w() >= 2.0 * 280.0f64.min(300.0 / 2.0),
            "reserved {:.0} W",
            b.reserved_w()
        );
        // A fresh summary releases the charge.
        b.ingest(summary(1, 0.2, &[0.0, 0.0]));
        b.schedule(300.0, 0.25);
        assert_eq!(b.dead_nodes(), 1);

        // Out-of-range and corrupt restores are ignored, not panics.
        b.restore_node(
            9,
            NodeRestore {
                summary: None,
                commanded_w: 1.0,
                dead: false,
            },
        );
        let mut bad_power = summary(0, 0.0, &[0.0]);
        bad_power.power_w = f64::NAN;
        // A NaN timestamp, once stored, would lose to no later summary
        // and pass no liveness check: the node would stay dead for good.
        for bad in [bad_power, summary(0, f64::NAN, &[0.0])] {
            b.restore_node(
                0,
                NodeRestore {
                    summary: Some(bad),
                    commanded_w: f64::NAN,
                    dead: true,
                },
            );
            assert!(b.latest_summary(0).is_none(), "corrupt summary dropped");
            assert_eq!(b.export_node(0).unwrap().commanded_w, 0.0);
        }
        assert!(b.ingest(summary(0, 0.3, &[0.0])), "a fresh summary wins");
        b.schedule(300.0, 0.35);
        assert_eq!(b.dead_nodes(), 0);
    }

    #[test]
    fn corrupt_summaries_are_rejected_whole() {
        let mut c = GlobalCoordinator::new(FvsstAlgorithm::p630(), 2);
        c.ingest(summary(0, 1.0, &[0.0]));
        // NaN power: rejected, the earlier summary survives.
        let mut bad = summary(0, 2.0, &[10.0e-9]);
        bad.power_w = f64::NAN;
        c.ingest(bad);
        // Mismatched vectors: rejected.
        let mut bad = summary(0, 2.0, &[10.0e-9]);
        bad.idle = vec![false; 3];
        c.ingest(bad);
        // Out-of-range node index: rejected (not a panic).
        c.ingest(summary(7, 2.0, &[0.0]));
        let cmds = c.schedule(f64::INFINITY, 1.0);
        assert_eq!(cmds.len(), 1);
        // The surviving summary is the clean CPU-bound one.
        assert!(cmds[0].freqs[0] >= FreqMhz(950));
    }

    #[test]
    fn invalid_models_degrade_to_unmodelled_not_nan() {
        let mut s = summary(0, 1.0, &[0.0, 0.0]);
        s.models[1] = Some(CpiModel::from_components(f64::NAN, 0.0));
        s.current[1] = FreqMhz(800);
        // The same summary from the uplink and from a snapshot.
        let mut ingested = GlobalCoordinator::new(FvsstAlgorithm::p630(), 1);
        ingested.ingest(s.clone());
        let mut restored =
            GlobalCoordinator::new(FvsstAlgorithm::p630(), 1).with_heartbeat_timeout(f64::INFINITY);
        let record = NodeRestore {
            summary: Some(s),
            ..NodeRestore::default()
        };
        restored.restore_node(0, record);
        for mut c in [ingested, restored] {
            let cmds = c.schedule(f64::INFINITY, 1.0);
            // The corrupt model is quarantined: its processor is scheduled
            // as unmodelled and holds its current frequency.
            assert_eq!(cmds[0].freqs[1], FreqMhz(800));
            assert!(cmds[0].freqs.iter().all(|f| f.0 > 0));
            let d = c.schedule_cache().decision();
            assert!(d.predicted_loss.iter().all(|l| l.is_finite()));
            assert!(d.predicted_ipc.iter().flatten().all(|ipc| ipc.is_finite()));
        }
    }
}
