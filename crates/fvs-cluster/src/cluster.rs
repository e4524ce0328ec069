//! The cluster simulation: nodes + coordinator + delayed messaging.

use crate::coordinator::{FrequencyCommand, GlobalCoordinator, NodeSummary};
use crate::hierarchy::{DelegationTree, HierTopology};
use crate::message::DelayQueue;
use crate::node::ClusterNode;
use fvs_faults::{CounterFaultKind, FaultInjector, SummaryFaultKind};
use fvs_model::CpiModel;
use fvs_power::{BudgetEvent, BudgetSchedule};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_telemetry::{FaultDomain, SchedEvent, Telemetry};
use fvs_workloads::{MixConfig, WorkloadGenerator};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Node count below which the cluster tick runs sequentially: each
/// node's tick is microseconds of work, and fork/join overhead would
/// dominate.
const PARALLEL_TICK_THRESHOLD: usize = 8;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Dispatch period per node (s).
    pub t_s: f64,
    /// Scheduling period multiplier (summaries every `n` ticks).
    pub n: u32,
    /// One-way message latency node↔coordinator (s).
    pub latency_s: f64,
    /// The scheduling algorithm.
    pub algorithm: FvsstAlgorithm,
    /// Global budget over time.
    pub budget: BudgetSchedule,
    /// Telemetry handle passed to the coordinator (disabled by default).
    pub telemetry: Telemetry,
    /// `Some(topology)` replaces the flat global coordinator with a
    /// node → rack → row → root budget-delegation tree.
    pub hierarchy: Option<HierTopology>,
}

impl ClusterConfig {
    /// Paper-style defaults: t = 10 ms, T = 100 ms, 2 ms one-way latency
    /// (same-rack TCP), unlimited budget. The canonical starting point —
    /// refine with the `with_*` builders.
    pub fn rack() -> Self {
        ClusterConfig {
            t_s: 0.010,
            n: 10,
            latency_s: 0.002,
            algorithm: FvsstAlgorithm::p630(),
            budget: BudgetSchedule::constant(f64::INFINITY),
            telemetry: Telemetry::disabled(),
            hierarchy: None,
        }
    }

    /// Override the per-node dispatch period `t` (s).
    pub fn with_t_s(mut self, t_s: f64) -> Self {
        self.t_s = t_s;
        self
    }

    /// Override the scheduling-period multiplier `n` (summaries every
    /// `n` ticks, so `T = n·t`).
    pub fn with_n(mut self, n: u32) -> Self {
        self.n = n;
        self
    }

    /// Override the one-way node↔coordinator message latency (s).
    pub fn with_latency_s(mut self, latency_s: f64) -> Self {
        self.latency_s = latency_s;
        self
    }

    /// Set the global budget schedule.
    pub fn with_budget(mut self, budget: BudgetSchedule) -> Self {
        self.budget = budget;
        self
    }

    /// Attach a telemetry handle (journals coordinator rounds and keeps
    /// `cluster.*` metrics).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Coordinate through a budget-delegation tree of the given shape
    /// instead of the flat global coordinator.
    pub fn with_hierarchy(mut self, topology: HierTopology) -> Self {
        self.hierarchy = Some(topology);
        self
    }
}

/// Summary of a cluster run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Simulated seconds.
    pub duration_s: f64,
    /// Final aggregate processor power across all nodes (W).
    pub final_power_w: f64,
    /// Peak aggregate power (W).
    pub peak_power_w: f64,
    /// Seconds over budget.
    pub violation_s: f64,
    /// Time from the most recent budget *decrease* until compliance (s);
    /// None when no decrease occurred or compliance was never reached.
    pub response_s: Option<f64>,
    /// Per-node final power (W).
    pub node_power_w: Vec<f64>,
    /// Per-node mean effective frequency of core 0 over the run (MHz) —
    /// a cheap diversity fingerprint.
    pub node_mean_mhz: Vec<f64>,
    /// Global scheduling rounds executed.
    pub rounds: u64,
    /// Faults injected over the run (0 without an injector).
    pub faults_injected: u64,
    /// Power the coordinator held in reserve for silent nodes at the end
    /// of the run (W).
    pub reserved_w: f64,
}

/// A scripted node availability change: machines crash, get drained for
/// maintenance, and come back — the coordinator must keep the rest of
/// the cluster compliant throughout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeEvent {
    /// When the change takes effect (s).
    pub at_s: f64,
    /// Affected node.
    pub node: usize,
    /// `true` = the node (re)joins; `false` = it goes offline (cores
    /// powered down, no summaries sent, commands ignored).
    pub online: bool,
}

/// The budget authority: the paper's flat global coordinator, or the
/// delegation tree when the config asked for one.
enum Coordination {
    Flat(Box<GlobalCoordinator>),
    Hier(Box<DelegationTree>),
}

impl Coordination {
    fn ingest(&mut self, summary: NodeSummary) -> bool {
        match self {
            Coordination::Flat(c) => c.ingest(summary),
            Coordination::Hier(t) => t.ingest(summary),
        }
    }

    fn nodes_reporting(&self) -> usize {
        match self {
            Coordination::Flat(c) => c.nodes_reporting(),
            Coordination::Hier(t) => t.nodes_reporting(),
        }
    }

    fn schedule(&mut self, budget_w: f64, now_s: f64) -> Vec<FrequencyCommand> {
        match self {
            Coordination::Flat(c) => c.schedule(budget_w, now_s),
            Coordination::Hier(t) => t.schedule(budget_w, now_s),
        }
    }

    fn reserved_w(&self) -> f64 {
        match self {
            Coordination::Flat(c) => c.reserved_w(),
            Coordination::Hier(t) => t.reserved_w(),
        }
    }
}

/// A cluster of machines under one global budget.
pub struct ClusterSim {
    nodes: Vec<ClusterNode>,
    coordinator: Coordination,
    config: ClusterConfig,
    uplink: DelayQueue<NodeSummary>,
    downlink: DelayQueue<FrequencyCommand>,
    tick: u64,
    last_budget_w: Option<f64>,
    violation_s: f64,
    peak_power_w: f64,
    rounds: u64,
    budget_drop_at: Option<f64>,
    compliance_at: Option<f64>,
    node_events: Vec<NodeEvent>,
    next_node_event: usize,
    online: Vec<bool>,
    faults: Option<FaultInjector>,
}

impl ClusterSim {
    /// Build from explicit nodes.
    pub fn new(nodes: Vec<ClusterNode>, config: ClusterConfig) -> Self {
        let coordinator = match config.hierarchy {
            Some(topology) => Coordination::Hier(Box::new(DelegationTree::with_telemetry(
                config.algorithm.clone(),
                nodes.len(),
                topology,
                config.telemetry.clone(),
            ))),
            None => Coordination::Flat(Box::new(GlobalCoordinator::with_telemetry(
                config.algorithm.clone(),
                nodes.len(),
                config.telemetry.clone(),
            ))),
        };
        let n = nodes.len();
        ClusterSim {
            nodes,
            coordinator,
            config,
            uplink: DelayQueue::new(),
            downlink: DelayQueue::new(),
            tick: 0,
            last_budget_w: None,
            violation_s: 0.0,
            peak_power_w: 0.0,
            rounds: 0,
            budget_drop_at: None,
            compliance_at: None,
            node_events: Vec::new(),
            next_node_event: 0,
            online: vec![true; n],
            faults: None,
        }
    }

    /// Script node availability changes (sorted by time internally).
    pub fn with_node_events(mut self, mut events: Vec<NodeEvent>) -> Self {
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        self.node_events = events;
        self
    }

    /// Attach a fault injector.
    ///
    /// Scripted node outages in the plan merge into the availability
    /// events, scripted budget drops merge into the budget schedule (as
    /// fractions of its initial value), and the probabilistic summary
    /// faults — loss, duplication, lateness, payload corruption — are
    /// applied on the uplink each time a node ships a summary. Fault
    /// events go to the configured telemetry handle.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        let plan = injector.plan();
        let initial = self.config.budget.initial_w();
        for drop in &plan.budget_drops {
            self.config.budget.push_event(BudgetEvent {
                at_s: drop.at_s,
                budget_w: initial * drop.factor,
            });
        }
        let mut events = std::mem::take(&mut self.node_events);
        for outage in &plan.node_outages {
            events.push(NodeEvent {
                at_s: outage.down_s,
                node: outage.node,
                online: false,
            });
            if outage.up_s.is_finite() {
                events.push(NodeEvent {
                    at_s: outage.up_s,
                    node: outage.node,
                    online: true,
                });
            }
        }
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        self.node_events = events;
        self.next_node_event = 0;
        self.faults = Some(injector);
        self
    }

    /// Faults injected so far (0 when no injector is attached).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected())
    }

    /// The flat global coordinator (degradation state: reserve, dead
    /// nodes).
    ///
    /// # Panics
    ///
    /// When the config selected a hierarchy
    /// ([`ClusterConfig::with_hierarchy`]) — use
    /// [`hierarchy`](Self::hierarchy) there instead.
    pub fn coordinator(&self) -> &GlobalCoordinator {
        match &self.coordinator {
            Coordination::Flat(c) => c,
            Coordination::Hier(_) => {
                panic!("coordinator(): cluster is hierarchical; use hierarchy()")
            }
        }
    }

    /// The delegation tree, when the config selected one.
    pub fn hierarchy(&self) -> Option<&DelegationTree> {
        match &self.coordinator {
            Coordination::Flat(_) => None,
            Coordination::Hier(t) => Some(t.as_ref()),
        }
    }

    /// The delegation tree, mutably (chaos drills: killing a rack
    /// coordinator mid-run).
    pub fn hierarchy_mut(&mut self) -> Option<&mut DelegationTree> {
        match &mut self.coordinator {
            Coordination::Flat(_) => None,
            Coordination::Hier(t) => Some(t.as_mut()),
        }
    }

    /// Whether node `i` is currently online.
    pub fn is_online(&self, i: usize) -> bool {
        self.online[i]
    }

    /// A three-tier cluster of `nodes` single-socket 4-core machines
    /// with seeded synthetic workloads (web/app/db bands).
    pub fn three_tier(nodes: usize, seed: u64, config: ClusterConfig) -> Self {
        let mut gen = WorkloadGenerator::new(seed, MixConfig::default());
        let placement = gen.three_tier_placement(nodes);
        let built = placement
            .into_iter()
            .enumerate()
            .map(|(id, (tier, spec))| {
                // One looping tier workload per core, staggered seeds.
                let mut b = MachineBuilder::p630().seed(seed ^ (id as u64) << 8);
                b = b.workload(0, spec);
                for core in 1..4 {
                    b = b.workload(core, gen.for_tier(tier));
                }
                ClusterNode::new(id, b.build(), Some(tier))
            })
            .collect();
        ClusterSim::new(built, config)
    }

    /// A heterogeneous cluster: one entry per node giving its workloads
    /// (one per core; the node's core count is the vector's length).
    /// Clusters in the field rarely have uniform machines — the
    /// coordinator must handle mixed sizes, and this constructor
    /// exercises that.
    pub fn heterogeneous(
        node_workloads: Vec<Vec<fvs_workloads::WorkloadSpec>>,
        seed: u64,
        config: ClusterConfig,
    ) -> Self {
        let built = node_workloads
            .into_iter()
            .enumerate()
            .map(|(id, workloads)| {
                assert!(!workloads.is_empty(), "node {id} needs at least one core");
                let mut b = MachineBuilder::p630()
                    .cores(workloads.len())
                    .seed(seed ^ ((id as u64) << 8));
                for (core, w) in workloads.into_iter().enumerate() {
                    b = b.workload(core, w);
                }
                ClusterNode::new(id, b.build(), None)
            })
            .collect();
        ClusterSim::new(built, config)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Node access.
    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.nodes[i]
    }

    /// Current cluster time (all nodes advance in lockstep).
    pub fn now_s(&self) -> f64 {
        self.nodes
            .first()
            .map(|n| n.machine().now_s())
            .unwrap_or(0.0)
    }

    /// Aggregate processor power right now.
    pub fn total_power_w(&self) -> f64 {
        self.nodes.iter().map(ClusterNode::power_w).sum()
    }

    /// Advance the whole cluster one dispatch tick.
    pub fn step_tick(&mut self) {
        let t_s = self.config.t_s;
        // Apply any availability events due by the end of this tick.
        let end = self.now_s() + t_s;
        while self.next_node_event < self.node_events.len()
            && self.node_events[self.next_node_event].at_s <= end
        {
            let ev = self.node_events[self.next_node_event];
            self.next_node_event += 1;
            if ev.node < self.nodes.len() {
                self.online[ev.node] = ev.online;
                let f_min = self.config.algorithm.freq_set.min();
                let machine = self.nodes[ev.node].machine_mut();
                for core in 0..machine.num_cores() {
                    machine.set_powered(core, ev.online);
                    if ev.online {
                        // Rejoin conservatively: the cluster has long
                        // since redistributed this node's power budget,
                        // so come back at f_min and wait for the
                        // coordinator's next round.
                        machine.set_frequency(core, f_min);
                    }
                }
            }
        }
        // Every machine's clock advances (offline cores execute and draw
        // nothing). Nodes are independent within a tick — they interact
        // only through the coordinator messages handled below — so large
        // clusters fan the per-node work out across threads.
        if self.nodes.len() >= PARALLEL_TICK_THRESHOLD {
            self.nodes.par_iter_mut().for_each(|node| node.tick(t_s));
        } else {
            for node in &mut self.nodes {
                node.tick(t_s);
            }
        }
        let now = self.now_s();
        let budget_w = self.config.budget.budget_at(now);

        // Track budget decreases for response-time measurement.
        if let Some(last) = self.last_budget_w {
            if budget_w < last - 1e-9 {
                self.budget_drop_at = Some(now);
                self.compliance_at = None;
            }
        }
        let budget_changed = self
            .last_budget_w
            .map(|b| (b - budget_w).abs() > 1e-9)
            .unwrap_or(false);
        self.last_budget_w = Some(budget_w);

        // Compliance accounting.
        let power = self.total_power_w();
        self.peak_power_w = self.peak_power_w.max(power);
        if power > budget_w {
            self.violation_s += t_s;
        } else if self.budget_drop_at.is_some() && self.compliance_at.is_none() {
            self.compliance_at = Some(now);
        }

        // Periodic summaries ride the uplink (offline nodes are silent);
        // the fault injector may lose, duplicate, delay, or corrupt each
        // one in flight.
        self.tick += 1;
        if self.tick.is_multiple_of(u64::from(self.config.n)) {
            for node in &mut self.nodes {
                if !self.online[node.id] {
                    continue;
                }
                let mut s = node.summarize();
                let mut deliver_at = now + self.config.latency_s;
                if let Some(inj) = &mut self.faults {
                    if let Some(kind) = inj.counter_fault() {
                        self.config.telemetry.emit(SchedEvent::FaultInjected {
                            t_s: now,
                            domain: FaultDomain::Counter,
                            target: node.id as u32,
                        });
                        corrupt_summary(kind, &mut s);
                    }
                    match inj.summary_fault() {
                        Some(SummaryFaultKind::Loss) => {
                            self.config.telemetry.emit(SchedEvent::FaultInjected {
                                t_s: now,
                                domain: FaultDomain::Cluster,
                                target: node.id as u32,
                            });
                            continue;
                        }
                        Some(SummaryFaultKind::Duplicate) => {
                            self.config.telemetry.emit(SchedEvent::FaultInjected {
                                t_s: now,
                                domain: FaultDomain::Cluster,
                                target: node.id as u32,
                            });
                            self.uplink.send(deliver_at, s.clone());
                        }
                        Some(SummaryFaultKind::Late) => {
                            self.config.telemetry.emit(SchedEvent::FaultInjected {
                                t_s: now,
                                domain: FaultDomain::Cluster,
                                target: node.id as u32,
                            });
                            deliver_at += inj.plan().summary_late_s;
                        }
                        None => {}
                    }
                }
                self.uplink.send(deliver_at, s);
            }
        }

        // Coordinator ingests what has arrived and schedules on its
        // timer or on a budget change.
        for s in self.uplink.recv_ready(now) {
            self.coordinator.ingest(s);
        }
        let timer_fires = self.tick.is_multiple_of(u64::from(self.config.n));
        if (timer_fires || budget_changed) && self.coordinator.nodes_reporting() > 0 {
            self.rounds += 1;
            for cmd in self.coordinator.schedule(budget_w, now) {
                self.downlink.send(now + self.config.latency_s, cmd);
            }
        }

        // Nodes apply arriving commands (offline nodes drop theirs).
        for cmd in self.downlink.recv_ready(now) {
            if self.online[cmd.node] {
                self.nodes[cmd.node].apply(&cmd.freqs);
            }
        }
    }

    /// Run for `duration` seconds and return the cumulative report.
    pub fn run_for(&mut self, duration: f64) -> ClusterReport {
        let ticks = (duration / self.config.t_s).round().max(1.0) as u64;
        for _ in 0..ticks {
            self.step_tick();
        }
        self.report()
    }

    /// Snapshot the report.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            duration_s: self.now_s(),
            final_power_w: self.total_power_w(),
            peak_power_w: self.peak_power_w,
            violation_s: self.violation_s,
            response_s: match (self.budget_drop_at, self.compliance_at) {
                (Some(drop), Some(ok)) => Some(ok - drop),
                _ => None,
            },
            node_power_w: self.nodes.iter().map(ClusterNode::power_w).collect(),
            node_mean_mhz: self
                .nodes
                .iter()
                .map(|n| n.machine().residency(0).mean_mhz())
                .collect(),
            rounds: self.rounds,
            faults_injected: self.faults_injected(),
            reserved_w: self.coordinator.reserved_w(),
        }
    }
}

/// Corrupt an uplink summary payload the way a broken measurement agent
/// would; the coordinator's ingest validation must contain every shape.
fn corrupt_summary(kind: CounterFaultKind, s: &mut NodeSummary) {
    match kind {
        // Racy read: non-finite power — the whole summary is garbage.
        CounterFaultKind::Nan => s.power_w = f64::NAN,
        // One model solved to nonsense.
        CounterFaultKind::Spike => {
            if let Some(slot) = s.models.first_mut() {
                *slot = Some(CpiModel::from_components(f64::INFINITY, 0.0));
            }
        }
        // The agent's windows went uninformative.
        CounterFaultKind::Stuck => s.models.iter_mut().for_each(|m| *m = None),
        // A wildly old timestamp: must lose to fresher summaries.
        CounterFaultKind::Stale => s.sent_at_s -= 1.0e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_power::BudgetEvent;
    use fvs_workloads::Tier;

    #[test]
    fn builder_chain_sets_every_field() {
        let config = ClusterConfig::rack()
            .with_t_s(0.005)
            .with_n(20)
            .with_latency_s(0.05)
            .with_budget(BudgetSchedule::constant(800.0))
            .with_telemetry(Telemetry::memory(4))
            .with_hierarchy(HierTopology::default().with_nodes_per_rack(8));
        assert_eq!(config.t_s, 0.005);
        assert_eq!(config.n, 20);
        assert_eq!(config.latency_s, 0.05);
        assert_eq!(config.budget.initial_w(), 800.0);
        assert!(config.telemetry.enabled());
        assert_eq!(config.hierarchy.unwrap().nodes_per_rack, 8);
    }

    #[test]
    fn hierarchical_cluster_meets_global_budget_after_drop() {
        // Same drill as the flat cluster below, but coordinated through
        // a 2-nodes-per-rack, 2-racks-per-row delegation tree.
        let config = ClusterConfig::rack()
            .with_hierarchy(
                HierTopology::default()
                    .with_nodes_per_rack(2)
                    .with_racks_per_row(2),
            )
            .with_budget(BudgetSchedule::with_events(
                f64::INFINITY,
                vec![BudgetEvent {
                    at_s: 1.0,
                    budget_w: 1800.0,
                }],
            ));
        let mut sim = ClusterSim::three_tier(6, 7, config);
        let report = sim.run_for(3.0);
        assert!(
            report.final_power_w <= 1800.0,
            "final {}",
            report.final_power_w
        );
        let response = report.response_s.expect("compliance reached");
        assert!(response < 0.5, "response {response}s");
        let tree = sim.hierarchy().expect("hier mode");
        assert_eq!(tree.num_racks(), 3);
        assert_eq!(tree.num_rows(), 2);
        // Live synthetic workloads re-fit their models every window, so
        // (exactly like the flat ScheduleCache on this drill) racks stay
        // busy; the tree must still have delegated every round.
        let stats = tree.stats();
        assert!(stats.rack_runs > 0, "{stats:?}");
        assert_eq!(tree.rounds(), report.rounds);
    }

    #[test]
    fn three_tier_cluster_develops_frequency_diversity() {
        let mut sim = ClusterSim::three_tier(6, 42, ClusterConfig::rack());
        sim.run_for(2.0);
        let report = sim.report();
        // Db nodes (memory-bound) should sit at lower frequencies than
        // app nodes (CPU-bound).
        let tier_of = |i: usize| sim.node(i).tier.unwrap();
        let mut db_mean = 0.0;
        let mut db_n = 0.0;
        let mut app_mean = 0.0;
        let mut app_n = 0.0;
        for i in 0..sim.num_nodes() {
            let f = sim.node(i).machine().effective_frequency(0).0 as f64;
            match tier_of(i) {
                Tier::Db => {
                    db_mean += f;
                    db_n += 1.0;
                }
                Tier::App => {
                    app_mean += f;
                    app_n += 1.0;
                }
                Tier::Web => {}
            }
        }
        db_mean /= db_n;
        app_mean /= app_n;
        assert!(
            app_mean > db_mean + 100.0,
            "app {app_mean} MHz vs db {db_mean} MHz"
        );
        assert!(report.rounds > 0);
    }

    #[test]
    fn cluster_meets_global_budget_after_drop() {
        // 6 nodes × 4 cores × 140 W = 3360 W unconstrained.
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::with_events(
            f64::INFINITY,
            vec![BudgetEvent {
                at_s: 1.0,
                budget_w: 1800.0,
            }],
        ));
        let mut sim = ClusterSim::three_tier(6, 7, config);
        let report = sim.run_for(3.0);
        assert!(
            report.final_power_w <= 1800.0,
            "final {}",
            report.final_power_w
        );
        let response = report.response_s.expect("compliance reached");
        // Summaries and commands each ride a 2 ms link and the timer is
        // 100 ms: response should be well under a second.
        assert!(response < 0.5, "response {response}s");
    }

    #[test]
    fn node_failure_and_rejoin_keep_cluster_compliant() {
        // 4 nodes × 4 cores; budget forces scheduling throughout.
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(1200.0));
        let mut sim = ClusterSim::three_tier(4, 21, config).with_node_events(vec![
            NodeEvent {
                at_s: 1.0,
                node: 0,
                online: false,
            },
            NodeEvent {
                at_s: 2.0,
                node: 0,
                online: true,
            },
        ]);
        // Before the failure.
        sim.run_for(0.9);
        assert!(sim.is_online(0));
        let with_all = sim.total_power_w();
        assert!(with_all > 0.0);
        // During the outage the node draws nothing.
        sim.run_for(0.9); // now ≈ 1.8 s
        assert!(!sim.is_online(0));
        assert_eq!(sim.node(0).power_w(), 0.0);
        let violation_before_rejoin = sim.report().violation_s;
        // After rejoin it draws power again and the cluster still
        // complies — the node comes back at f_min, so the rejoin itself
        // adds no violation.
        let report = sim.run_for(1.5); // past 2.0 s
        assert!(sim.is_online(0));
        assert!(sim.node(0).power_w() > 0.0);
        assert!(report.final_power_w <= 1200.0);
        assert!(
            report.violation_s - violation_before_rejoin < 0.02,
            "rejoin added violation: {} → {}",
            violation_before_rejoin,
            report.violation_s
        );
    }

    #[test]
    fn offline_node_does_not_execute_work() {
        let mut sim =
            ClusterSim::three_tier(2, 3, ClusterConfig::rack()).with_node_events(vec![NodeEvent {
                at_s: 0.5,
                node: 1,
                online: false,
            }]);
        sim.run_for(0.5);
        let before = sim.node(1).machine().core(0).stats().body_instructions;
        sim.run_for(1.0);
        let after = sim.node(1).machine().core(0).stats().body_instructions;
        assert_eq!(before, after, "offline node must not retire work");
    }

    #[test]
    fn heterogeneous_node_sizes_schedule_under_one_budget() {
        use fvs_workloads::WorkloadSpec;
        let nodes = vec![
            // 2-core node, CPU-bound.
            vec![
                WorkloadSpec::synthetic(100.0, 1.0e13).looping(),
                WorkloadSpec::synthetic(100.0, 1.0e13).looping(),
            ],
            // 8-core node, memory-bound.
            (0..8)
                .map(|_| WorkloadSpec::synthetic(10.0, 1.0e13).looping())
                .collect(),
            // 1-core node.
            vec![WorkloadSpec::synthetic(50.0, 1.0e13).looping()],
        ];
        // 11 cores; give them 500 W total — requires real trade-offs.
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(500.0));
        let mut sim = ClusterSim::heterogeneous(nodes, 5, config);
        let report = sim.run_for(2.0);
        assert!(
            report.final_power_w <= 500.0,
            "power {}",
            report.final_power_w
        );
        assert_eq!(report.node_power_w.len(), 3);
        // The CPU-bound 2-core node keeps higher clocks than the
        // memory-bound 8-core node's cores.
        let f_cpu = sim.node(0).machine().effective_frequency(0);
        let f_mem = sim.node(1).machine().effective_frequency(0);
        assert!(f_cpu > f_mem, "{f_cpu} vs {f_mem}");
    }

    #[test]
    fn chaos_cluster_holds_the_dropped_budget() {
        use fvs_faults::FaultPlan;
        // 4 nodes × 4 cores; finite budget so the drop fraction bites.
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(1600.0));
        let plan =
            FaultPlan::parse("loss=0.1, dup=0.05, late=0.05:0.3, drop=0.6@1.0, node=0@1.2:2.4")
                .unwrap();
        let mut sim =
            ClusterSim::three_tier(4, 21, config).with_faults(FaultInjector::new(plan, 42));
        let report = sim.run_for(4.0);
        assert!(report.faults_injected > 0, "plan must actually fire");
        // The scripted supply fault cut the budget to 960 W at t = 1 s;
        // lost and late summaries plus a node outage must not break
        // compliance once the response window has passed.
        assert!(
            report.final_power_w <= 1600.0 * 0.6 + 1e-9,
            "final {}",
            report.final_power_w
        );
        assert!(report.final_power_w.is_finite());
        // The outage ended at 2.4 s: the node reported again well before
        // the end, so nothing is still charged to the reserve.
        assert_eq!(report.reserved_w, 0.0);
    }

    #[test]
    fn corrupted_uplink_summaries_never_stall_the_coordinator() {
        use fvs_faults::FaultPlan;
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(1200.0));
        let plan = FaultPlan::parse("counters=0.3").unwrap();
        let mut sim = ClusterSim::three_tier(4, 3, config).with_faults(FaultInjector::new(plan, 7));
        let report = sim.run_for(3.0);
        assert!(report.faults_injected > 0);
        assert!(report.rounds > 0, "coordinator kept scheduling");
        assert!(report.final_power_w.is_finite());
        assert!(
            report.final_power_w <= 1200.0,
            "final {}",
            report.final_power_w
        );
    }

    #[test]
    fn message_latency_delays_commands() {
        // Deep cut well below the unconstrained steady-state draw so both
        // clusters must actually demote (response > 0); pathological WAN
        // latency on the slow cluster.
        let cut = BudgetSchedule::with_events(
            f64::INFINITY,
            vec![BudgetEvent {
                at_s: 1.0,
                budget_w: 700.0,
            }],
        );
        let slow = ClusterConfig::rack()
            .with_latency_s(0.2)
            .with_budget(cut.clone());
        let fast = ClusterConfig::rack().with_budget(cut);
        let r_slow = ClusterSim::three_tier(6, 7, slow).run_for(3.0);
        let r_fast = ClusterSim::three_tier(6, 7, fast).run_for(3.0);
        assert!(
            r_slow.response_s.unwrap() > r_fast.response_s.unwrap(),
            "slow {:?} fast {:?}",
            r_slow.response_s,
            r_fast.response_s
        );
    }
}
