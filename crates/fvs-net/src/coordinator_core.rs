//! The coordinator's rules, without its sockets.
//!
//! [`CoordinatorCore`] owns every piece of scheduling and protocol
//! state the coordinator has — the [`GlobalCoordinator`], the ΔT
//! [`BudgetDeadlineTracker`], which connection speaks for which node,
//! the fencing epoch, the budget in force, and the round, resync and
//! snapshot cadences — and is driven by plain calls that carry the time
//! as `now_s`, seconds on whatever clock the caller keeps:
//! [`frame`](CoordinatorCore::frame) for every frame an agent sends,
//! answered with what the caller is to write back, close or count, and
//! [`closed`](CoordinatorCore::closed) for a connection gone;
//! [`set_budget`](CoordinatorCore::set_budget) for what the operator
//! says; [`until_round_s`](CoordinatorCore::until_round_s) for when a
//! round is owed and [`run_round`](CoordinatorCore::run_round) for the
//! round, its output handed to a [`RoundSink`]. No caller holds a copy
//! of any of these rules.
//!
//! It opens no socket, reads no clock and never sleeps, so the paper's
//! guarantee — conservative power (live reports plus what is reserved
//! for the silent) within the budget by ΔT after a drop — can be
//! exercised as a table of calls in microseconds
//! (`tests/coordinator_core.rs`), and a virtual-time replay has
//! something to drive. The event loop in [`crate::coordinator`] is the
//! one production caller: it owns the listener, the poller and the
//! per-connection byte machinery, and turns readiness into these calls
//! ([`crate::sim`] makes the same ones on virtual time).
//!
//! What "live" means is not decided here either: the conservative sum
//! and the resync count are read off the liveness sweep the
//! [`GlobalCoordinator`] runs each round
//! ([`live_power_w`](GlobalCoordinator::live_power_w),
//! [`live_nodes`](GlobalCoordinator::live_nodes),
//! [`reserved_w`](GlobalCoordinator::reserved_w)), so a node is counted
//! live or charged as silent, never both, and a summary the scheduler
//! refuses changes neither.

use crate::coordinator::CoordinatorConfig;
use crate::snapshot::Snapshot;
use crate::wire::{Frame, WireCodec, WireMsg, CODEC_BINARY_BIT, SCHEMA_VERSION};
use fvs_cluster::{FrequencyCommand, GlobalCoordinator, NodeSummary};
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{BudgetDeadlineTracker, ComplianceRecord, OpenEpisode, SchedEvent};
use std::collections::BTreeMap;

/// A point-in-time view of the control plane, for operators and tests.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorStatus {
    /// Global scheduling rounds run.
    pub rounds: u64,
    /// Nodes that have reported at least once.
    pub nodes_reporting: usize,
    /// Nodes currently presumed dead.
    pub dead_nodes: usize,
    /// Power reserved for silent nodes last round (W).
    pub reserved_w: f64,
    /// Conservative cluster power: live reports + reserved (W).
    pub conservative_power_w: f64,
    /// Budget in force (W).
    pub budget_w: f64,
    /// Sockets currently past a completed handshake.
    pub connections: usize,
    /// Compliance episodes closed so far.
    pub compliances: u64,
    /// Deadline violations so far.
    pub violations: u64,
    /// The fencing epoch this coordinator serves.
    pub epoch: u64,
    /// Inside the post-resume resync grace window.
    pub resyncing: bool,
    /// When that window lapses at the latest, on the coordinator's
    /// clock (s); `None` once resynced, or if this incarnation never
    /// resumed.
    pub resync_deadline_s: Option<f64>,
    /// When the last round ran, on the coordinator's clock (s).
    pub last_round_s: f64,
    /// The most recently closed compliance episode.
    pub last_compliance: Option<ComplianceRecord>,
}

impl CoordinatorStatus {
    /// The conservative power fits the budget — the quantity the paper's
    /// ΔT argument bounds; an unlimited budget always fits.
    fn budget_compliant(&self) -> bool {
        !self.budget_w.is_finite() || self.conservative_power_w <= self.budget_w
    }

    /// Dead nodes exist or the budget is not honoured.
    fn degraded(&self) -> bool {
        self.dead_nodes > 0 || !self.budget_compliant()
    }

    /// Whether `/healthz` answers 200. A resyncing coordinator is *not*
    /// healthy yet: its conservative charges are restored, not observed,
    /// and the flip to 200 happens only after the round that emits
    /// `resync_complete`.
    pub fn healthy(&self) -> bool {
        !self.degraded() && !self.resyncing
    }

    /// The `/healthz` body at `now_s` on the coordinator's clock: uptime,
    /// the age of the last round and the time left in the resync window
    /// are read against it. Non-finite numbers render as `null`, as in
    /// the journal.
    pub fn health_json(&self, now_s: f64) -> String {
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        }
        let resync_left_s = self
            .resync_deadline_s
            .filter(|_| self.resyncing)
            .map_or(f64::NAN, |deadline_s| (deadline_s - now_s).max(0.0));
        format!(
            concat!(
                "{{\"status\":\"{}\",\"uptime_s\":{},\"rounds\":{},",
                "\"last_round_age_s\":{},\"nodes_reporting\":{},",
                "\"dead_nodes\":{},\"connections\":{},\"budget_w\":{},",
                "\"conservative_power_w\":{},\"reserved_w\":{},",
                "\"budget_compliant\":{},\"compliances\":{},",
                "\"violations\":{},\"epoch\":{},\"resyncing\":{},",
                "\"resync_deadline_s\":{}}}"
            ),
            self.state(["resyncing", "degraded", "ok"]),
            num(now_s),
            self.rounds,
            num((now_s - self.last_round_s).max(0.0)),
            self.nodes_reporting,
            self.dead_nodes,
            self.connections,
            num(self.budget_w),
            num(self.conservative_power_w),
            num(self.reserved_w),
            self.budget_compliant(),
            self.compliances,
            self.violations,
            self.epoch,
            self.resyncing,
            num(resync_left_s),
        )
    }

    /// The operator's one-line rendering at `now_s`: what `/healthz`
    /// says, for a terminal.
    pub fn status_line(&self, now_s: f64) -> String {
        let budget = if self.budget_w.is_finite() {
            format!("{:.1}", self.budget_w)
        } else {
            "inf".to_string()
        };
        format!(
            "[{:7.1}s] {} | epoch {} | rounds {} | nodes {} live / {} dead | conn {} | \
             power {:.1} W / budget {budget} W (reserved {:.1}) | ΔT {} ok / {} late",
            now_s,
            self.state(["RESYNC", "DEGRADED", "ok"]),
            self.epoch,
            self.rounds,
            self.nodes_reporting,
            self.dead_nodes,
            self.connections,
            self.conservative_power_w,
            self.reserved_w,
            self.compliances,
            self.violations,
        )
    }

    /// Which of `[resyncing, degraded, ok]` names the state.
    fn state(&self, [resyncing, degraded, ok]: [&'static str; 3]) -> &'static str {
        if self.resyncing {
            resyncing
        } else if self.degraded() {
            degraded
        } else {
            ok
        }
    }
}

/// Where a round's output goes: the event loop's writes sockets and a
/// file, a test's records the calls in order.
pub trait RoundSink {
    /// Make `snapshot` durable before returning. Called for the
    /// write-ahead snapshot of a budget change, always before the first
    /// [`send`](RoundSink::send) of that round.
    fn persist(&mut self, snapshot: &Snapshot);

    /// Write `msg` on connection `conn`. `false` means the connection
    /// failed and the sink has closed it; the core forgets it.
    fn send(&mut self, conn: u64, msg: &WireMsg) -> bool;
}

/// Why a hello was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The connection had already handshaken — a protocol error.
    Repeated,
    /// The agent speaks another dialect: another schema version, or a
    /// codec mask without `FVS2`, which every later frame is.
    Version,
    /// The hello names a node outside this coordinator's cluster, whose
    /// power would never be charged.
    UnknownNode,
    /// The agent has acknowledged a newer epoch than this coordinator's:
    /// this one is the stale survivor of a split brain.
    StaleEpoch,
}

/// What became of a summary ([`Received::Summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// In the scheduler.
    Accepted,
    /// Refused by the scheduler: malformed, or older than the one held.
    Rejected,
    /// Refused unread: its connection did not handshake as its node
    /// (else any socket could keep a dead node live and uncharged).
    Misattributed,
    /// Refused unread: its processor count is not the one its node's
    /// hello announced, so no ceiling sized by it could be applied.
    Miscounted,
}

/// What [`CoordinatorCore::frame`] made of an uplink frame, as
/// [`Heard`](crate::Heard) is for an agent: what happened, with the
/// reply to write back (a hello's `ack`), and whether the link stays
/// [`open`](Received::open).
#[derive(Debug, Clone, PartialEq)]
pub enum Received {
    /// A hello, judged: the ack goes back either way, and a refused link
    /// closes after it.
    Hello {
        /// The node the hello named.
        node: usize,
        /// The `hello_ack` to write back.
        ack: WireMsg,
        /// Accepted, or why not.
        verdict: Result<(), Refusal>,
    },
    /// A summary, and what became of it; the link stays open.
    Summary(Ingest),
    /// The agent is leaving: the link closes.
    Bye,
    /// A kind no agent sends: nothing happens.
    Ignored,
}

impl Received {
    /// Whether the link stays open once the reply is written.
    pub fn open(&self) -> bool {
        match self {
            Received::Hello { verdict, .. } => verdict.is_ok(),
            Received::Summary(_) | Received::Ignored => true,
            Received::Bye => false,
        }
    }
}

/// A node's current downlink.
#[derive(Debug)]
struct Route {
    conn: u64,
    /// The processor count its hello announced.
    procs: usize,
    /// The last round that wrote this node a ceiling, so the keep-alive
    /// pass skips it.
    commanded_round: u64,
}

/// The coordinator as a state machine. See the module docs.
#[derive(Debug)]
pub struct CoordinatorCore {
    coordinator: GlobalCoordinator,
    tracker: BudgetDeadlineTracker,
    /// Read for its scheduling and protocol fields, none of its socket
    /// ones. Snapshots are built only if it names a place to keep them.
    config: CoordinatorConfig,
    /// Handshaken connections and the node each spoke for.
    conns: BTreeMap<u64, usize>,
    /// Each node's current downlink: the connection of its latest
    /// accepted hello. Ordered, so a round's output repeats exactly.
    routes: BTreeMap<usize, Route>,
    /// The last summary's connection and who it speaks for, kept until a
    /// hello or a close: a read's summaries look it up once, not each.
    speaker: Option<(u64, Option<(usize, usize)>)>,
    /// What the last round published. The epoch (monotonic across
    /// resumes: cold start = 1, resume = snapshot + 1), the budget in
    /// force, the round count and time and the resync deadline are kept
    /// nowhere else; the rest is refreshed every round.
    status: CoordinatorStatus,
    /// A budget set since the last round; the next puts it in force.
    pending_budget_w: Option<f64>,
    last_snapshot_s: f64,
    /// Which nodes have had a summary accepted in this run of the
    /// process, and how many: the whole-cluster edge is the moment the
    /// count reaches the cluster's size, once.
    heard: Vec<bool>,
    heard_from: usize,
    /// The whole-cluster edge has come and its round has not yet run.
    edge_owed: bool,
}

impl CoordinatorCore {
    /// A coordinator for `nodes` nodes whose clock reads zero.
    ///
    /// With `restored`, the resume path: the epoch moves past the
    /// crashed incarnation's, and the persisted budget is in force (a
    /// pre-crash drop stays enforced). A stricter configured budget is a
    /// drop from it, pending: the first round, owed at once, puts it in
    /// force as [`set_budget`](Self::set_budget) would — write-ahead,
    /// `budget_drop`, a new ΔT episode. Every time the snapshot holds is
    /// on the crashed clock, and is rebased once onto this one by the
    /// snapshot's `taken_at_s`: an open episode keeps the time it has
    /// burned, and every node's charge comes back stamped stale, so
    /// until a node reports afresh it is charged by the one rule of
    /// [`NodeRestore`](fvs_cluster::NodeRestore) (the worst case if the
    /// snapshot knew nothing usable about it). A resumed coordinator is
    /// never less conservative than the snapshot it loaded.
    pub fn new(
        nodes: usize,
        algorithm: FvsstAlgorithm,
        config: &CoordinatorConfig,
        restored: Option<&Snapshot>,
    ) -> Self {
        let mut coordinator =
            GlobalCoordinator::with_telemetry(algorithm, nodes, config.telemetry.clone())
                .with_heartbeat_timeout(config.heartbeat_timeout_s)
                .with_worst_case_node_w(config.worst_case_node_w)
                .with_tracer(config.tracer.clone());
        let mut tracker = BudgetDeadlineTracker::new(config.deadline_s);
        let mut status = CoordinatorStatus {
            epoch: 1,
            budget_w: config.initial_budget_w,
            ..CoordinatorStatus::default()
        };
        let mut pending_budget_w = None;
        if let Some(snap) = restored {
            status.epoch = snap.epoch.saturating_add(1);
            // A NaN budget is no budget: the configured one stands.
            if !snap.budget_w.is_nan() {
                if config.initial_budget_w < snap.budget_w {
                    pending_budget_w = Some(config.initial_budget_w);
                }
                status.budget_w = snap.budget_w;
            }
            status.rounds = snap.rounds;
            status.resyncing = true;
            status.resync_deadline_s = Some(config.resync_grace_s);
            for (i, n) in snap.nodes.iter().enumerate().take(nodes) {
                let mut r = n.clone();
                if let Some(s) = &mut r.summary {
                    // Stale by construction: the first liveness sweep
                    // charges the node until a fresh summary lands.
                    // (Not `clamp` alone: a NaN age must sanitize to 0,
                    // and clamp would pass the NaN through.)
                    let age_s = snap.taken_at_s - s.sent_at_s;
                    let age_s = if age_s.is_finite() {
                        age_s.clamp(0.0, 1e9)
                    } else {
                        0.0
                    };
                    s.sent_at_s = -(age_s + config.heartbeat_timeout_s + 1.0);
                }
                coordinator.restore_node(i, r);
            }
            if let Some(ep) = snap.episode {
                // Time already burned before the crash stays burned.
                let age_s = (snap.taken_at_s - ep.dropped_at_s).max(0.0);
                tracker.restore_episode(OpenEpisode {
                    dropped_at_s: 0.0 - age_s,
                    ..ep
                });
            }
            config.telemetry.emit(SchedEvent::CoordinatorResumed {
                t_s: 0.0,
                epoch: status.epoch,
                budget_w: status.budget_w,
                restored_nodes: snap.nodes.len().min(nodes) as u32,
                grace_s: config.resync_grace_s,
            });
        }
        CoordinatorCore {
            coordinator,
            tracker,
            config: config.clone(),
            conns: BTreeMap::new(),
            routes: BTreeMap::new(),
            speaker: None,
            status,
            pending_budget_w,
            last_snapshot_s: 0.0,
            heard: vec![false; nodes],
            heard_from: 0,
            edge_owed: false,
        }
    }

    /// The node `conn` handshook as, if it did and is still open: what a
    /// caller journals a fault on the connection against.
    pub fn node_of(&self, conn: u64) -> Option<usize> {
        self.conns.get(&conn).copied()
    }

    /// The control plane as of the last round (or of construction).
    pub fn status(&self) -> &CoordinatorStatus {
        &self.status
    }

    /// The scheduler behind the rounds (reserve, dead nodes, cache).
    pub fn coordinator(&self) -> &GlobalCoordinator {
        &self.coordinator
    }

    /// Take a frame `conn` sent at `now_s`: the one entry for all an
    /// agent says, as [`AgentCore::frame`](crate::AgentCore::frame) is
    /// for all it hears. A hello is refused for the first [`Refusal`]
    /// that holds, in the order declared; accepted, the connection
    /// becomes the node's downlink — replacing, for a reconnecting node,
    /// the old socket, which dies by its read deadline — and the
    /// processors it announced the count its summaries are held to. A
    /// summary is held to that node and count (see [`Ingest`]), then
    /// re-stamped with `now_s` — liveness is what the coordinator
    /// observed, so clock skew cannot fake it — and swapped into the
    /// scheduler: accepted, the lent record holds the summary it
    /// displaced, whose vectors the next frame decodes into; refused,
    /// neither the node's liveness nor its charge changed. The node's
    /// first accepted summary in this run counts it heard from; the one
    /// that makes every node heard from owes a round at once. A bye
    /// closes the link; any other kind is ignored. Inlined, so that a
    /// summary moves no frame and no verdict.
    #[inline]
    pub fn frame(&mut self, conn: u64, frame: Frame<'_>, now_s: f64) -> Received {
        match frame {
            Frame::Summary(summary) => Received::Summary(self.ingest(conn, summary, now_s)),
            Frame::Msg(WireMsg::Bye { .. }) => Received::Bye,
            Frame::Msg(msg) => self.hello(conn, msg, now_s),
        }
    }

    /// A hello `conn` sent at `now_s`, or a kind no agent sends: see
    /// [`frame`](Self::frame).
    fn hello(&mut self, conn: u64, msg: WireMsg, now_s: f64) -> Received {
        let WireMsg::Hello {
            node,
            procs,
            version,
            last_epoch,
            codecs,
        } = msg
        else {
            return Received::Ignored;
        };
        let verdict = if self.conns.contains_key(&conn) {
            Err(Refusal::Repeated)
        } else if version != SCHEMA_VERSION || codecs & CODEC_BINARY_BIT == 0 {
            Err(Refusal::Version)
        } else if node >= self.coordinator.num_nodes() {
            Err(Refusal::UnknownNode)
        } else if last_epoch > self.status.epoch {
            // The agent has acknowledged a *newer* epoch than ours: we
            // are the stale survivor, and refusing resolves the split
            // brain in favour of the current incumbent.
            self.config.telemetry.emit(SchedEvent::EpochFenced {
                t_s: now_s,
                node: node as u32,
                peer_epoch: last_epoch,
                local_epoch: self.status.epoch,
            });
            Err(Refusal::StaleEpoch)
        } else {
            Ok(())
        };
        if verdict.is_ok() {
            self.conns.insert(conn, node);
            let route = Route {
                conn,
                procs,
                commanded_round: 0,
            };
            self.routes.insert(node, route);
            self.speaker = None;
        }
        let ack = WireMsg::HelloAck {
            accepted: verdict.is_ok(),
            version: SCHEMA_VERSION,
            epoch: self.status.epoch,
            codec: verdict.map_or(WireCodec::Json, |()| WireCodec::Binary).id(),
        };
        Received::Hello { node, ack, verdict }
    }

    /// A summary `conn` sent, arriving at `arrival_s`: see
    /// [`frame`](Self::frame).
    fn ingest(&mut self, conn: u64, summary: &mut NodeSummary, arrival_s: f64) -> Ingest {
        // `conn`'s node and the processors its route announced: `None` if
        // it never handshook, or its node's route has since gone.
        if self.speaker.is_none_or(|(last, _)| last != conn) {
            let route = |&node: &usize| Some((node, self.routes.get(&node)?.procs));
            self.speaker = Some((conn, self.conns.get(&conn).and_then(route)));
        }
        let from = self.speaker.and_then(|(_, from)| from);
        let Some((node, procs)) = from.filter(|&(node, _)| node == summary.node) else {
            return Ingest::Misattributed;
        };
        if summary.models.len() != procs {
            return Ingest::Miscounted;
        }
        summary.sent_at_s = arrival_s;
        if !self.coordinator.ingest_swap(summary) {
            return Ingest::Rejected;
        }
        if !std::mem::replace(&mut self.heard[node], true) {
            self.heard_from += 1;
            self.edge_owed = self.heard_from == self.heard.len();
        }
        Ingest::Accepted
    }

    /// `conn` is gone. Its node loses its route only if `conn` still
    /// was that route: the old socket of a node that has reconnected
    /// takes nothing with it.
    pub fn closed(&mut self, conn: u64) {
        let Some(node) = self.conns.remove(&conn) else {
            return;
        };
        self.speaker = None;
        if self.routes.get(&node).is_some_and(|r| r.conn == conn) {
            self.routes.remove(&node);
        }
    }

    /// Change the global budget by the one rule: `watts` replaces the
    /// latest budget set, in force or waiting, if more than 1e-9 W from
    /// it ([`fvs_power::replaced_budget`]), and a round is owed now to
    /// put it in force. Returns the budget replaced; `None` owes nothing.
    /// Panics on a NaN or negative `watts` (infinity is no budget).
    pub fn set_budget(&mut self, watts: f64) -> Option<f64> {
        assert!(watts >= 0.0, "set_budget: a budget of {watts} W");
        let latest_w = self.pending_budget_w.unwrap_or(self.status.budget_w);
        let replaced_w = fvs_power::replaced_budget(latest_w, watts)?;
        self.pending_budget_w = Some(watts);
        Some(replaced_w)
    }

    /// How long until a round is owed (s): zero when one is — the period
    /// has elapsed since the last, a budget change is waiting, or every
    /// node has now been heard from, for the first time in this run (a
    /// cold-started or resumed cluster is commanded, and its resync
    /// ended, as soon as it has all reported, not a period later).
    pub fn until_round_s(&self, now_s: f64) -> f64 {
        if self.pending_budget_w.is_some() || self.edge_owed {
            return 0.0;
        }
        (self.config.period_s - (now_s - self.status.last_round_s)).max(0.0)
    }

    /// Run one global round at `now_s`.
    ///
    /// In order: a changed budget is persisted through `sink` *before*
    /// it is acted on (write-ahead: a crash between here and the push
    /// can never resurrect the old, laxer budget) and opens or closes a
    /// ΔT episode; the scheduler runs; the conservative power — what
    /// the live nodes last reported plus what was reserved for the
    /// silent, the sum the ΔT argument is made against — is sampled;
    /// the resync window ends if every node has reported afresh or its
    /// deadline has lapsed, the `resync_complete` event strictly before
    /// the status that says so; then ceilings, then a keep-alive to
    /// every handshaken connection the round commanded nothing, go to
    /// `sink`. Left for the caller to publish: the new
    /// [`status`](Self::status), and the cadence snapshot this returns
    /// when one is due.
    pub fn run_round(&mut self, now_s: f64, sink: &mut impl RoundSink) -> Option<Snapshot> {
        self.status.last_round_s = now_s;
        self.edge_owed = false;
        if let Some(budget_w) = self.pending_budget_w.take() {
            if let Some(from_w) = fvs_power::replaced_budget(self.status.budget_w, budget_w) {
                self.status.budget_w = budget_w;
                if self.config.snapshot_path.is_some() {
                    sink.persist(&self.snapshot(now_s));
                    self.last_snapshot_s = now_s;
                }
                if let Some(ev) = self.tracker.on_budget_change(now_s, from_w, budget_w) {
                    self.config.telemetry.emit(ev);
                }
            }
        }

        let commands = self.coordinator.schedule(self.status.budget_w, now_s);
        self.tracker.on_round();
        let reserved_w = self.coordinator.reserved_w();
        let conservative_w = self.coordinator.live_power_w() + reserved_w;
        if let Some(ev) = self.tracker.on_power_sample(now_s, conservative_w) {
            self.config.telemetry.emit(ev);
        }

        if let Some(deadline_s) = self.status.resync_deadline_s {
            let nodes = self.coordinator.num_nodes();
            let fresh = self.coordinator.live_nodes();
            if fresh == nodes || now_s >= deadline_s {
                self.config.telemetry.emit(SchedEvent::ResyncComplete {
                    t_s: now_s,
                    wall_s: now_s,
                    fresh_nodes: fresh as u32,
                    charged_nodes: (nodes - fresh) as u32,
                });
                self.status.resync_deadline_s = None;
                self.status.resyncing = false;
            }
        }

        self.status.rounds += 1;
        {
            let _push_span = self.config.tracer.span("net.push");
            self.fan_out(commands, sink);
        }

        self.status.nodes_reporting = self.coordinator.nodes_reporting();
        self.status.dead_nodes = self.coordinator.dead_nodes();
        self.status.reserved_w = reserved_w;
        self.status.conservative_power_w = conservative_w;
        self.status.connections = self.routes.len();
        self.status.compliances = self.tracker.compliances();
        self.status.violations = self.tracker.violations();
        self.status.last_compliance = self.tracker.last_compliance();

        let due = now_s - self.last_snapshot_s >= self.config.snapshot_every_s;
        (due && self.config.snapshot_path.is_some()).then(|| {
            self.last_snapshot_s = now_s;
            self.snapshot(now_s)
        })
    }

    /// This round's ceilings, then a keep-alive [`WireMsg::Heartbeat`]
    /// to every route the round did not command — so agents can bound
    /// dead-link detection in time, and a stale coordinator gets fenced
    /// mid-connection by the epoch the heartbeat carries.
    fn fan_out(&mut self, commands: Vec<FrequencyCommand>, sink: &mut impl RoundSink) {
        let round = self.status.rounds;
        // Routes this round has commanded and left alive.
        let mut commanded = 0usize;
        for cmd in commands {
            let Some(route) = self.routes.get_mut(&cmd.node) else {
                continue;
            };
            let first = route.commanded_round != round;
            route.commanded_round = round;
            let conn = route.conn;
            if sink.send(conn, &WireMsg::Ceiling(cmd)) {
                commanded += usize::from(first);
            } else {
                self.closed(conn);
            }
        }
        // The steady case: every route just got a ceiling, so nobody is
        // owed a keep-alive.
        if commanded == self.routes.len() {
            return;
        }
        let heartbeat = WireMsg::Heartbeat {
            epoch: self.status.epoch,
        };
        let mut failed = Vec::new();
        for route in self.routes.values() {
            if route.commanded_round != round && !sink.send(route.conn, &heartbeat) {
                failed.push(route.conn);
            }
        }
        for conn in failed {
            self.closed(conn);
        }
    }

    /// The recoverable state as of `now_s`, on this clock.
    fn snapshot(&self, now_s: f64) -> Snapshot {
        Snapshot {
            epoch: self.status.epoch,
            budget_w: self.status.budget_w,
            taken_at_s: now_s,
            rounds: self.status.rounds,
            nodes: (0..self.coordinator.num_nodes())
                .filter_map(|i| self.coordinator.export_node(i))
                .collect(),
            episode: self.tracker.export_episode(),
        }
    }
}
