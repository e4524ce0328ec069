//! The cluster simulation: machines and a coordinator on virtual time,
//! speaking the product's protocol over a simulated wire.
//!
//! [`ClusterSim`] drives the two protocol cores as the socket loops do:
//! each node an [`AgentCore`], the coordinator a [`CoordinatorCore`],
//! and between them one [`Transport`] at each end of every connection,
//! as on a socket: every hello, ack, summary, ceiling and heartbeat is
//! sent and flushed by one end, crosses a delay queue (`latency_s`
//! each way) and is filled into the other. The cores hold every rule:
//! when a round is owed, what a frame means and what it answers, when a
//! budget has changed, when to reconnect. This adds the world: one clock
//! for every machine, scripted outages, the budget schedule, the fault
//! plan, and the measured truth of a [`ClusterReport`]. It reads no clock.
//!
//! The message faults are the agents': each agent's end runs under the
//! plan, seeded by its connection number, and the coordinator's end
//! runs quiet — the transport decides and applies every fault, as on a
//! socket. A frame that does not decode closes its connection at both
//! ends.

use crate::agent::AgentConfig;
use crate::agent_core::{AgentCore, Heard, Tick};
use crate::chaos::{ChaosSide, WireChaos};
use crate::coordinator::CoordinatorConfig;
use crate::coordinator_core::{CoordinatorCore, Received, RoundSink};
use crate::error::FvsError;
use crate::snapshot::Snapshot;
use crate::transport::Transport;
use crate::wire::WireMsg;
use fvs_cluster::{ClusterNode, GlobalCoordinator, NodeSummary};
use fvs_faults::{CounterFaultKind, FaultInjector};
use fvs_model::CpiModel;
use fvs_power::BudgetSchedule;
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_telemetry::{Counter, FaultDomain, SchedEvent, Telemetry};
use fvs_workloads::{MixConfig, WorkloadGenerator, WorkloadSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Node count below which the cluster tick runs sequentially: each
/// node's tick is microseconds of work, and fork/join overhead would
/// dominate.
const PARALLEL_TICK_THRESHOLD: usize = 8;

/// Cluster-wide configuration. Each field is one the cores already
/// have: `t_s` is the agents' `tick_s`, `n` their `summary_every`,
/// `n·t_s` the coordinator's `period_s`, and `telemetry` the
/// coordinator's; `latency_s` is the wire's.
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

    /// Attach a telemetry handle (journals coordinator rounds and
    /// injected faults, and keeps `cluster.*` metrics).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
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
    /// Time from the most recent budget *decrease* until compliance (s):
    /// the last of `drops`, as a duration; None when no decrease
    /// occurred or compliance was never reached.
    pub response_s: Option<f64>,
    /// Every budget decrease, in order, with the first tick at which
    /// the machines' actual power was at or below its new budget.
    pub drops: Vec<DropResponse>,
    /// When the first round that wrote every node a ceiling ran (s);
    /// None if no round ever did.
    pub all_commanded_s: Option<f64>,
    /// Per-node final power (W).
    pub node_power_w: Vec<f64>,
    /// Per-node mean effective frequency of core 0 over the run (MHz) —
    /// a cheap diversity fingerprint.
    pub node_mean_mhz: Vec<f64>,
    /// Global scheduling rounds executed.
    pub rounds: u64,
    /// Faults injected over the run, counter and frame faults (0
    /// without an injector).
    pub faults_injected: u64,
    /// Power the coordinator held in reserve for silent nodes at the end
    /// of the run (W).
    pub reserved_w: f64,
}

/// One budget decrease and when the cluster first complied with it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropResponse {
    /// When the budget fell (s).
    pub at_s: f64,
    /// The budget it fell to (W).
    pub budget_w: f64,
    /// The first tick at or after the drop at which the machines' actual
    /// power was at or below `budget_w` (s); None if none was.
    pub under_budget_s: Option<f64>,
}

/// A queue that delivers messages after a simulated network delay,
/// preserving send order among messages with equal delivery times.
#[derive(Debug, Default)]
struct DelayQueue<T> {
    /// In delivery order, equal times in send order.
    pending: VecDeque<(f64, T)>,
}

impl<T> DelayQueue<T> {
    /// Enqueue `msg` for delivery at `deliver_at_s`.
    fn send(&mut self, deliver_at_s: f64, msg: T) {
        let at = self
            .pending
            .partition_point(|(t, _)| t.total_cmp(&deliver_at_s).is_le());
        self.pending.insert(at, (deliver_at_s, msg));
    }

    /// Pop every message whose delivery time has arrived.
    fn recv_ready(&mut self, now_s: f64) -> Vec<T> {
        let due = self.pending.partition_point(|(t, _)| *t <= now_s);
        self.pending.drain(..due).map(|(_, msg)| msg).collect()
    }

    /// Messages still in flight.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

/// One connection and its two ends.
struct Link {
    conn: u64,
    /// `[coordinator's end, agent's end]`, the agent's under the fault
    /// plan (its stream seeded by `conn`): index with `uplink` to write,
    /// with `!uplink` to read.
    ends: [Transport; 2],
}

/// One agent and its end of the wire.
struct Slot {
    core: AgentCore,
    /// What the agent's last tick asked of its link.
    due: Tick,
    link: Option<Link>,
    online: bool,
}

/// A frame in flight: the slot at its agent end, its connection, its
/// bytes.
type InFlight = (usize, u64, Vec<u8>);

/// Where a round's output waits to be framed.
#[derive(Default)]
struct Outbox(Vec<(u64, WireMsg)>);

impl RoundSink for Outbox {
    fn persist(&mut self, _snapshot: &Snapshot) {}

    fn send(&mut self, conn: u64, msg: &WireMsg) -> bool {
        self.0.push((conn, msg.clone()));
        true
    }
}

/// A cluster of machines under one global budget. See the module docs.
pub struct ClusterSim {
    slots: Vec<Slot>,
    coordinator: CoordinatorCore,
    config: ClusterConfig,
    uplink: DelayQueue<InFlight>,
    downlink: DelayQueue<InFlight>,
    /// The slot at the agent end of every connection ever opened:
    /// connection `c` at `c - 1`.
    conn_slot: Vec<usize>,
    outbox: Outbox,
    violation_s: f64,
    peak_power_w: f64,
    drops: Vec<DropResponse>,
    all_commanded_s: Option<f64>,
    /// The fault plan's outages not yet applied, in time order: when,
    /// which node, and whether it comes back (`true`) or goes offline
    /// (cores powered down, its connection gone).
    availability: Vec<(f64, usize, bool)>,
    faults: FaultInjector,
    chaos: WireChaos,
    /// Frame faults the agents' ends have injected.
    wire_faults: Arc<Counter>,
}

impl ClusterSim {
    /// Build from explicit nodes, node `i` at index `i`; each runs at
    /// `f_min` until its first ceiling, as its [`AgentCore`] says.
    ///
    /// # Panics
    ///
    /// When `config` cannot run — `t_s` not finite and positive, `n` of
    /// zero, `latency_s` not finite and non-negative, or an initial
    /// budget that is NaN or negative — or `nodes` is empty or misnumbered.
    pub fn new(nodes: Vec<ClusterNode>, config: ClusterConfig) -> Self {
        let agent = AgentConfig {
            tick_s: config.t_s,
            summary_every: config.n,
            ..AgentConfig::default_lan()
        };
        let coordinator = CoordinatorConfig {
            period_s: f64::from(config.n) * config.t_s,
            initial_budget_w: config.budget.initial_w(),
            telemetry: config.telemetry.clone(),
            ..CoordinatorConfig::default_lan()
        };
        let latency = (config.latency_s.is_finite() && config.latency_s >= 0.0)
            .then_some(())
            .ok_or_else(|| FvsError::config("latency_s must be finite and non-negative"));
        if let Err(e) = agent.validate().and(coordinator.validate()).and(latency) {
            panic!("ClusterConfig: {e}");
        }
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let slots: Vec<Slot> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                assert_eq!(node.id, i, "node {i} names itself node {}", node.id);
                Slot {
                    core: AgentCore::new(node, &agent),
                    due: Tick::Flush,
                    link: None,
                    online: true,
                }
            })
            .collect();
        let core = CoordinatorCore::new(slots.len(), config.algorithm.clone(), &coordinator, None);
        ClusterSim {
            coordinator: core,
            slots,
            config,
            uplink: DelayQueue::default(),
            downlink: DelayQueue::default(),
            conn_slot: Vec::new(),
            outbox: Outbox::default(),
            violation_s: 0.0,
            peak_power_w: 0.0,
            drops: Vec::new(),
            all_commanded_s: None,
            availability: Vec::new(),
            faults: FaultInjector::disabled(),
            chaos: WireChaos::none(),
            wire_faults: Arc::new(Counter::new()),
        }
    }

    /// Attach a fault injector: its outages take nodes offline and back,
    /// its budget drops (fractions of the initial budget) join the
    /// schedule; counter faults corrupt summaries before they are
    /// encoded, and message faults take the frames, seeded from the
    /// injector's seed.
    ///
    /// # Panics
    ///
    /// When an outage names a node the cluster does not have: a plan
    /// that cannot be run is refused, not run without it.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        let plan = injector.plan();
        for drop in &plan.budget_drops {
            self.config.budget.push_drop(drop.at_s, drop.factor);
        }
        for o in &plan.node_outages {
            if o.node >= self.slots.len() {
                let up = if o.up_s.is_finite() {
                    format!(":{}", o.up_s)
                } else {
                    String::new()
                };
                panic!(
                    "fault plan clause node={}@{}{up} names a node this {}-node cluster \
                     does not have",
                    o.node,
                    o.down_s,
                    self.slots.len()
                );
            }
            self.availability.push((o.down_s, o.node, false));
            if o.up_s.is_finite() {
                self.availability.push((o.up_s, o.node, true));
            }
        }
        self.availability.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.chaos = WireChaos::new(plan.wire.clone(), injector.seed());
        self.faults = injector;
        self
    }

    /// The coordinator's scheduler (degradation state: reserve, dead
    /// nodes), read through its core.
    pub fn coordinator(&self) -> &GlobalCoordinator {
        self.coordinator.coordinator()
    }

    /// Whether node `i` is currently online.
    pub fn is_online(&self, i: usize) -> bool {
        self.slots[i].online
    }

    /// A three-tier cluster of `nodes` single-socket 4-core machines
    /// with seeded synthetic workloads (web/app/db bands).
    pub fn three_tier(nodes: usize, seed: u64, config: ClusterConfig) -> Self {
        let mut gen = WorkloadGenerator::new(seed, MixConfig::default());
        let (tiers, specs): (Vec<_>, Vec<_>) = gen.three_tier_placement(nodes).into_iter().unzip();
        // One looping tier workload per core.
        let workloads = tiers.iter().zip(specs).map(|(&tier, spec)| {
            let rest = (1..4).map(|_| gen.for_tier(tier));
            std::iter::once(spec).chain(rest).collect()
        });
        let mut sim = Self::heterogeneous(workloads.collect(), seed, config);
        for (slot, tier) in sim.slots.iter_mut().zip(tiers) {
            slot.core.node_mut().tier = Some(tier);
        }
        sim
    }

    /// A heterogeneous cluster: one entry per node giving its workloads
    /// (one per core; the node's core count is the vector's length).
    pub fn heterogeneous(
        node_workloads: Vec<Vec<WorkloadSpec>>,
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
        self.slots.len()
    }

    /// Node access.
    pub fn node(&self, i: usize) -> &ClusterNode {
        self.slots[i].core.node()
    }

    /// Current cluster time (all nodes advance in lockstep).
    pub fn now_s(&self) -> f64 {
        self.slots[0].core.node().machine().now_s()
    }

    /// Aggregate processor power right now.
    pub fn total_power_w(&self) -> f64 {
        self.slots.iter().map(|s| s.core.node().power_w()).sum()
    }

    /// Advance the whole cluster one dispatch tick.
    pub fn step_tick(&mut self) {
        let t_s = self.config.t_s;
        // Apply any outage edges due by the end of this tick.
        let end = self.now_s() + t_s;
        let due = self.availability.partition_point(|&(at_s, ..)| at_s <= end);
        for (_, node, online) in self.availability.drain(..due).collect::<Vec<_>>() {
            self.set_online(node, online);
        }
        // Every agent ticks, linked or not (offline cores execute and
        // draw nothing); large clusters fan that work out across threads.
        if self.slots.len() >= PARALLEL_TICK_THRESHOLD {
            self.slots
                .par_iter_mut()
                .for_each(|s| s.due = s.core.tick(end));
        } else {
            self.slots.iter_mut().for_each(|s| s.due = s.core.tick(end));
        }
        let now = self.now_s();
        // The coordinator says when the schedule's budget changed.
        let budget_w = self.config.budget.budget_at(now);
        let replaced_w = self.coordinator.set_budget(budget_w);
        if replaced_w.is_some_and(|from_w| budget_w < from_w) {
            self.drops.push(DropResponse {
                at_s: now,
                budget_w,
                under_budget_s: None,
            });
        }

        // Compliance accounting, on what the machines really draw.
        let power = self.total_power_w();
        self.peak_power_w = self.peak_power_w.max(power);
        if power > budget_w {
            self.violation_s += t_s;
        }
        for drop in self.drops.iter_mut().filter(|d| d.under_budget_s.is_none()) {
            if power <= drop.budget_w {
                drop.under_budget_s = Some(now);
            }
        }

        // What each agent's tick owes its link — every tick flushes, so a
        // delayed frame leaves on the tick that finds it due — and a
        // hello from each online one whose wait is over.
        for i in 0..self.slots.len() {
            match std::mem::replace(&mut self.slots[i].due, Tick::Flush) {
                Tick::Connect if self.slots[i].online => self.connect(i, now),
                Tick::Connect => {}
                Tick::Flush => self.flush(i, true, now),
                Tick::Silent => self.close(i, now),
                Tick::Summary(mut summary) => {
                    if let Some(kind) = self.faults.counter_fault() {
                        self.config.telemetry.emit(SchedEvent::FaultInjected {
                            t_s: now,
                            domain: FaultDomain::Counter,
                            target: i as u32,
                        });
                        corrupt_summary(kind, &mut summary);
                    }
                    self.send(i, true, &WireMsg::Summary(summary), now);
                }
            }
        }

        // The coordinator reads what has arrived, and runs a round when
        // its core owes one by the middle of this tick.
        for (i, conn, bytes) in self.uplink.recv_ready(now) {
            self.arrive(i, conn, true, &bytes, now);
        }
        if self.coordinator.until_round_s(now) <= 0.5 * t_s {
            self.coordinator.run_round(now, &mut self.outbox);
            let mut ceilings = 0;
            for (conn, msg) in std::mem::take(&mut self.outbox.0) {
                let i = self.conn_slot[conn as usize - 1];
                if self.link(i, conn).is_some() {
                    ceilings += usize::from(matches!(msg, WireMsg::Ceiling(_)));
                    self.send(i, false, &msg, now);
                }
            }
            // A round writes a node at most one ceiling.
            if ceilings == self.slots.len() && self.all_commanded_s.is_none() {
                self.all_commanded_s = Some(now);
            }
        }

        // Agents read what has arrived.
        for (i, conn, bytes) in self.downlink.recv_ready(now) {
            self.arrive(i, conn, false, &bytes, now);
        }
    }

    /// Node `i` goes offline (its cores power down, its connection is
    /// gone: its agent falls to `f_min`) or comes back, connecting now.
    fn set_online(&mut self, i: usize, online: bool) {
        let now = self.now_s();
        if !online {
            self.close(i, now);
        }
        let slot = &mut self.slots[i];
        slot.online = online;
        let machine = slot.core.node_mut().machine_mut();
        (0..machine.num_cores()).for_each(|core| machine.set_powered(core, online));
        if online {
            slot.core.connect_now();
        }
    }

    /// Open a connection for slot `i` and send its agent's hello.
    fn connect(&mut self, i: usize, now: f64) {
        self.conn_slot.push(i);
        let conn = self.conn_slot.len() as u64;
        let telemetry = self.config.telemetry.clone();
        let counter = Some(Arc::clone(&self.wire_faults));
        let mut agent = Transport::under(&self.chaos, ChaosSide::Agent, conn, telemetry, counter);
        agent.set_node(i);
        let slot = &mut self.slots[i];
        slot.link = Some(Link {
            conn,
            ends: [Transport::new(), agent],
        });
        let hello = slot.core.connected(now);
        self.send(i, true, &hello, now);
    }

    /// Slot `i`'s connection is gone, at both ends at once: what is in
    /// flight on it is lost, the coordinator's core forgets it, and the
    /// agent waits out its next rung (forever, if refused for good).
    fn close(&mut self, i: usize, now: f64) {
        let slot = &mut self.slots[i];
        let Some(link) = slot.link.take() else { return };
        self.coordinator.closed(link.conn);
        slot.core.lost(now);
    }

    /// Send `msg` from one end of slot `i`'s link — the agent's when
    /// `uplink` — and put what that end flushes on the wire. A send the
    /// transport refuses (a reset) closes the connection.
    fn send(&mut self, i: usize, uplink: bool, msg: &WireMsg, now: f64) {
        let Some(link) = self.slots[i].link.as_mut() else {
            return;
        };
        if link.ends[usize::from(uplink)].send(msg, now).is_err() {
            return self.close(i, now);
        }
        self.flush(i, uplink, now);
    }

    /// Put what one end of slot `i`'s link — the agent's when `uplink` —
    /// has ready by `now` on the wire, due `latency_s` later.
    fn flush(&mut self, i: usize, uplink: bool, now: f64) {
        let Some(link) = self.slots[i].link.as_mut() else {
            return;
        };
        let mut bytes = Vec::new();
        // A `Vec` takes whatever it is written.
        let _ = link.ends[usize::from(uplink)].flush(&mut bytes, now);
        if bytes.is_empty() {
            return;
        }
        let queue = if uplink {
            &mut self.uplink
        } else {
            &mut self.downlink
        };
        queue.send(now + self.config.latency_s, (i, link.conn, bytes));
    }

    /// Bytes reaching one end of slot `i`'s connection `conn` (the
    /// coordinator's when `uplink`), filled into it and handed frame by
    /// frame to that end's core; a frame that does not decode, or a core
    /// that says to, closes it.
    fn arrive(&mut self, i: usize, conn: u64, uplink: bool, mut bytes: &[u8], now: f64) {
        let end = usize::from(!uplink);
        let Some(link) = self.link(i, conn) else {
            return; // closed while the bytes were in flight
        };
        while !bytes.is_empty() {
            // A slice never fails a read.
            let _ = link.ends[end].fill(&mut bytes, now);
        }
        // The link borrowed by field, not through `link`, so that a lent
        // summary goes to the coordinator while the reader holds it.
        while let Some(link) = self.slots[i].link.as_mut().filter(|l| l.conn == conn) {
            let frame = match link.ends[end].next_lent() {
                Ok(None) => return,
                Err(_) => return self.close(i, now),
                Ok(Some(frame)) => frame,
            };
            let open = if uplink {
                let received = self.coordinator.frame(conn, frame, now);
                if let Received::Hello { ack, .. } = &received {
                    self.send(i, false, ack, now);
                }
                received.open()
            } else {
                let msg = frame.into_msg();
                let heard = self.slots[i].core.frame(&msg, now);
                !matches!(heard, Heard::Fenced | Heard::Refused)
            };
            if !open {
                return self.close(i, now);
            }
        }
    }

    /// Slot `i`'s link, if it still is connection `conn`.
    fn link(&mut self, i: usize, conn: u64) -> Option<&mut Link> {
        self.slots[i].link.as_mut().filter(|l| l.conn == conn)
    }

    /// Run for `duration` seconds, as [`fvs_sched::dispatch_ticks`] counts them, and report.
    pub fn run_for(&mut self, duration: f64) -> ClusterReport {
        for _ in 0..fvs_sched::dispatch_ticks(duration, self.config.t_s) {
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
            response_s: self
                .drops
                .last()
                .and_then(|d| Some(d.under_budget_s? - d.at_s)),
            drops: self.drops.clone(),
            all_commanded_s: self.all_commanded_s,
            node_power_w: self.slots.iter().map(|s| s.core.node().power_w()).collect(),
            node_mean_mhz: self
                .slots
                .iter()
                .map(|s| s.core.node().machine().residency(0).mean_mhz())
                .collect(),
            rounds: self.coordinator.status().rounds,
            faults_injected: self.faults.injected() + self.wire_faults.get(),
            reserved_w: self.coordinator().reserved_w(),
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
        // A wildly old timestamp: the coordinator stamps arrival time
        // over it, so it must change nothing.
        CounterFaultKind::Stale => s.sent_at_s -= 1.0e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_faults::FaultPlan;
    use fvs_power::BudgetEvent;
    use fvs_workloads::Tier;
    use proptest::prelude::*;

    /// Unlimited, then `budget_w` from `at_s` on.
    fn cut(at_s: f64, budget_w: f64) -> BudgetSchedule {
        BudgetSchedule::with_events(f64::INFINITY, vec![BudgetEvent { at_s, budget_w }])
    }

    /// An injector for `plan`'s clauses and nothing else.
    fn outages(plan: &str) -> FaultInjector {
        FaultInjector::new(FaultPlan::parse(plan).unwrap(), 1)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = DelayQueue::default();
        q.send(0.3, "c");
        q.send(0.1, "a");
        q.send(0.2, "b");
        assert_eq!(q.recv_ready(0.05), Vec::<&str>::new());
        assert_eq!(q.recv_ready(0.15), vec!["a"]);
        assert_eq!(q.recv_ready(0.35), vec!["b", "c"]);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn equal_times_preserve_send_order() {
        let mut q = DelayQueue::default();
        q.send(1.0, 1);
        q.send(1.0, 2);
        q.send(1.0, 3);
        assert_eq!(q.recv_ready(1.0), vec![1, 2, 3]);
    }

    proptest! {
        /// DelayQueue delivers every message exactly once, in
        /// delivery-time order, never early.
        #[test]
        fn delay_queue_delivers_everything_in_order(
            sends in prop::collection::vec((0.0f64..10.0, 0u32..1000), 1..50),
            polls in prop::collection::vec(0.0f64..12.0, 1..30),
        ) {
            let mut q = DelayQueue::default();
            for (at, msg) in &sends {
                q.send(*at, (*at, *msg));
            }
            let mut polls = polls.clone();
            polls.sort_by(f64::total_cmp);
            polls.push(11.0); // final drain
            let mut received = Vec::new();
            for now in polls {
                for (deliver_at, msg) in q.recv_ready(now) {
                    prop_assert!(deliver_at <= now, "early delivery");
                    received.push((deliver_at, msg));
                }
            }
            prop_assert_eq!(received.len(), sends.len());
            // Delivery-time ordering.
            for w in received.windows(2) {
                prop_assert!(w[0].0 <= w[1].0 + 1e-12);
            }
            prop_assert_eq!(q.in_flight(), 0);
        }
    }

    #[test]
    fn builder_chain_sets_every_field() {
        let config = ClusterConfig::rack()
            .with_t_s(0.005)
            .with_n(20)
            .with_latency_s(0.05)
            .with_budget(BudgetSchedule::constant(800.0))
            .with_telemetry(Telemetry::memory(4));
        assert_eq!(config.t_s, 0.005);
        assert_eq!(config.n, 20);
        assert_eq!(config.latency_s, 0.05);
        assert_eq!(config.budget.initial_w(), 800.0);
        assert!(config.telemetry.enabled());
    }

    /// A sim that cannot run is refused where it is built: a zero tick
    /// would loop `u64::MAX` times per `run_for`, and `n = 0` would
    /// never summarize nor schedule.
    #[test]
    #[should_panic(expected = "tick_s must be finite and positive")]
    fn a_zero_dispatch_period_is_refused() {
        ClusterSim::three_tier(2, 1, ClusterConfig::rack().with_t_s(0.0));
    }

    /// With no node there is no clock: `run_for` would tick and report
    /// nothing.
    #[test]
    #[should_panic(expected = "a cluster needs at least one node")]
    fn an_empty_cluster_is_refused() {
        ClusterSim::new(Vec::new(), ClusterConfig::rack());
    }

    /// Bugfix: ids were trusted, but the coordinator routes by id and the
    /// plan by slot: one node was faulted and another charged for it.
    #[test]
    #[should_panic(expected = "node 0 names itself node 1")]
    fn a_node_whose_id_is_not_its_index_is_refused() {
        let node = |id| ClusterNode::new(id, MachineBuilder::p630().build(), None);
        ClusterSim::new(vec![node(1), node(0)], ClusterConfig::rack());
    }

    #[test]
    #[should_panic(expected = "summary_every must be at least 1")]
    fn a_zero_scheduling_multiplier_is_refused() {
        ClusterSim::three_tier(2, 1, ClusterConfig::rack().with_n(0));
    }

    #[test]
    #[should_panic(expected = "latency_s must be finite and non-negative")]
    fn a_negative_latency_is_refused() {
        ClusterSim::three_tier(2, 1, ClusterConfig::rack().with_latency_s(-0.001));
    }

    /// Bugfix: an outage for a node the cluster does not have was
    /// skipped, so `node=9@1` on a 4-node cell injected nothing and the
    /// cell still reported compliant.
    #[test]
    #[should_panic(expected = "node=9@1 names a node this 4-node cluster does not have")]
    fn an_outage_for_a_missing_node_is_refused() {
        ClusterSim::three_tier(4, 1, ClusterConfig::rack()).with_faults(outages("node=9@1"));
    }

    #[test]
    fn three_tier_cluster_develops_frequency_diversity() {
        let mut sim = ClusterSim::three_tier(6, 42, ClusterConfig::rack());
        sim.run_for(2.0);
        let report = sim.report();
        // Db nodes (memory-bound) should sit at lower frequencies than
        // app nodes (CPU-bound).
        let mean_mhz = |tier: Tier| {
            let nodes = (0..sim.num_nodes()).filter(|&i| sim.node(i).tier == Some(tier));
            let mhz: Vec<f64> = nodes
                .map(|i| sim.node(i).machine().effective_frequency(0).0 as f64)
                .collect();
            mhz.iter().sum::<f64>() / mhz.len() as f64
        };
        let (app_mean, db_mean) = (mean_mhz(Tier::App), mean_mhz(Tier::Db));
        assert!(
            app_mean > db_mean + 100.0,
            "app {app_mean} MHz vs db {db_mean} MHz"
        );
        assert!(report.rounds > 0);
    }

    #[test]
    fn cluster_meets_global_budget_after_drop() {
        // 6 nodes × 4 cores × 140 W = 3360 W unconstrained.
        let config = ClusterConfig::rack().with_budget(cut(1.0, 1800.0));
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
        let mut sim = ClusterSim::three_tier(4, 21, config).with_faults(outages("node=0@1.0:2.0"));
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
            ClusterSim::three_tier(2, 3, ClusterConfig::rack()).with_faults(outages("node=1@0.5"));
        sim.run_for(0.5);
        let before = sim.node(1).machine().core(0).stats().body_instructions;
        sim.run_for(1.0);
        let after = sim.node(1).machine().core(0).stats().body_instructions;
        assert_eq!(before, after, "offline node must not retire work");
    }

    #[test]
    fn heterogeneous_node_sizes_schedule_under_one_budget() {
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
        // 4 nodes × 4 cores; finite budget so the drop fraction bites.
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(1600.0));
        let plan = FaultPlan::parse(
            "wire=0.1, wdup=0.05, delay=0.05:0.05, corrupt=0.01, reset=0.01, \
             drop=0.6@1.0, node=0@1.2:2.4",
        )
        .unwrap();
        let mut sim =
            ClusterSim::three_tier(4, 21, config).with_faults(FaultInjector::new(plan, 42));
        let report = sim.run_for(4.0);
        assert!(report.faults_injected > 0, "plan must actually fire");
        // The scripted supply fault cut the budget to 960 W at t = 1 s;
        // lost, doubled, late, corrupted and reset frames plus a node
        // outage must not break compliance once the response window has
        // passed.
        assert!(
            report.final_power_w <= 1600.0 * 0.6 + 1e-9,
            "final {}",
            report.final_power_w
        );
        assert!(report.final_power_w.is_finite());
        // The outage ended at 2.4 s. A rejoin whose hello or ack is lost
        // waits out the agent's link timeout (3 s) before it tries
        // again, so the node is back once a handshake gets through —
        // and from then on nothing is charged to the reserve.
        while sim.report().reserved_w > 0.0 {
            assert!(sim.now_s() < 20.0, "node 0 never re-reported");
            sim.step_tick();
        }
    }

    /// Every frame an agent writes is held 50 ms, its hello included:
    /// held frames leave on the flush of the tick that finds them due, so
    /// every node still handshakes and reports, and rounds run.
    #[test]
    fn delayed_frames_leave_on_a_later_ticks_flush() {
        let plan = FaultPlan::parse("delay=1.0:0.05").unwrap();
        let mut sim = ClusterSim::three_tier(4, 5, ClusterConfig::rack())
            .with_faults(FaultInjector::new(plan, 3));
        let report = sim.run_for(1.0);
        assert!(report.faults_injected > 0, "plan must actually fire");
        assert!(report.rounds > 0);
        for node in 0..4 {
            let reported = sim.coordinator().latest_summary(node);
            assert!(reported.is_some(), "node {node} never reported");
        }
        assert_eq!(report.reserved_w, 0.0, "a node is still charged");
    }

    #[test]
    fn corrupted_uplink_summaries_never_stall_the_coordinator() {
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
        // latency on the slow cluster, whose nodes need four one-way
        // trips (hello, ack, summary, ceiling) before they leave f_min,
        // so the cut comes once both have settled.
        let slow = ClusterConfig::rack()
            .with_latency_s(0.2)
            .with_budget(cut(2.0, 700.0));
        let fast = ClusterConfig::rack().with_budget(cut(2.0, 700.0));
        let r_slow = ClusterSim::three_tier(6, 7, slow).run_for(4.0);
        let r_fast = ClusterSim::three_tier(6, 7, fast).run_for(4.0);
        assert!(
            r_slow.response_s.unwrap() > r_fast.response_s.unwrap(),
            "slow {:?} fast {:?}",
            r_slow.response_s,
            r_fast.response_s
        );
    }
}
