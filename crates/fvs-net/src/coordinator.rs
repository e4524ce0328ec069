//! The coordinator's TCP front end.
//!
//! A [`CoordinatorServer`] runs a [`CoordinatorCore`] — every
//! scheduling and protocol rule the coordinator has, and all the state
//! they need — behind sockets, from **one thread**. A readiness-driven
//! event loop (a [`Reactor`] over the vendored `netpoll` epoll wrapper)
//! accepts agents, decodes uplink frames through per-connection
//! [`Transport`] state machines and hands each to the core; when the
//! core says a round is owed it runs one and writes what comes out —
//! ceilings, keep-alives, snapshots — wherever the core points. The
//! loop owns the listener, the reactor and its transports, the
//! read-deadline sweep and the metric and span timers, and decides
//! nothing: no function here both touches a socket and mutates
//! scheduling or protocol state. Thread count is O(1) in connection
//! count: 10k agents cost file descriptors and slab slots, not stacks.
//!
//! Liveness is *genuine* socket liveness: a node is whatever its last
//! frame says it is, a dead socket simply stops producing frames, and
//! with ingest on the event loop itself there is no reader-to-scheduler
//! queue to hide latency in. The handshake, arrival re-stamping,
//! write-ahead snapshots and the resume rules are the core's: see
//! [`crate::coordinator_core`].

use crate::chaos::ChaosSide;
pub use crate::coordinator_core::CoordinatorStatus;
use crate::coordinator_core::{CoordinatorCore, Ingest, Received, Refusal, RoundSink};
use crate::error::FvsError;
use crate::obs::{ObsHandles, ObsServer};
use crate::reactor::{Reactor, LISTENER_TOKEN};
use crate::snapshot::Snapshot;
use crate::transport::{FillStatus, Transport};
use crate::wire::WireMsg;
use crate::WireChaos;
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, SchedEvent, Telemetry, Tracer, WireFaultKind,
};
use netpoll::PollEvent;
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the server needs beyond the algorithm itself.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Wall-clock scheduling period (s).
    pub period_s: f64,
    /// A node silent for longer is declared dead and charged.
    pub heartbeat_timeout_s: f64,
    /// Conservative charge for a node that has never reported (W).
    pub worst_case_node_w: f64,
    /// The paper's ΔT: budget drops must be honoured within this (s).
    pub deadline_s: f64,
    /// Budget in force at startup (W).
    pub initial_budget_w: f64,
    /// Where crash-recovery snapshots live (`None` = no durability).
    pub snapshot_path: Option<PathBuf>,
    /// Snapshot cadence (s); budget changes snapshot immediately
    /// regardless (write-ahead).
    pub snapshot_every_s: f64,
    /// Restore from the snapshot at `snapshot_path` on startup; a
    /// missing or damaged snapshot degrades to a cold start.
    pub resume: bool,
    /// After a resume, how long `/healthz` reports `resyncing` at most
    /// — the window in which restored (stale-by-construction) charges
    /// are replaced by fresh summaries.
    pub resync_grace_s: f64,
    /// Drop a connection when no frame arrives for this long (the
    /// coordinator-side dead-link bound; agents send summaries far
    /// more often than this when healthy).
    pub read_deadline_s: f64,
    /// Admission limit: sockets accepted beyond this many live
    /// connections are closed immediately.
    pub max_conns: usize,
    /// Wire-chaos injection on accepted connections (quiet = none).
    pub chaos: WireChaos,
    /// Where events and `net.*` metrics go.
    pub telemetry: Telemetry,
    /// Causal span tracer: `net.round` → `cluster.round` → two-pass
    /// spans → `net.push`, all on the event-loop thread.
    pub tracer: Tracer,
}

impl CoordinatorConfig {
    /// Paper-flavoured defaults: 100 ms global period, 0.5 s heartbeat
    /// timeout, one worst-case p630 node, ΔT = 1 s, unlimited budget.
    pub fn default_lan() -> Self {
        CoordinatorConfig {
            period_s: 0.1,
            heartbeat_timeout_s: fvs_cluster::DEFAULT_HEARTBEAT_TIMEOUT_S,
            worst_case_node_w: fvs_cluster::DEFAULT_WORST_CASE_NODE_W,
            deadline_s: 1.0,
            initial_budget_w: f64::INFINITY,
            snapshot_path: None,
            snapshot_every_s: 1.0,
            resume: false,
            resync_grace_s: 2.0,
            read_deadline_s: 5.0,
            max_conns: usize::MAX,
            chaos: WireChaos::none(),
            telemetry: Telemetry::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Override the scheduling period.
    pub fn with_period_s(mut self, period_s: f64) -> Self {
        self.period_s = period_s;
        self
    }

    /// Override the heartbeat timeout.
    pub fn with_heartbeat_timeout_s(mut self, timeout_s: f64) -> Self {
        self.heartbeat_timeout_s = timeout_s;
        self
    }

    /// Override the worst-case charge for never-reported nodes.
    pub fn with_worst_case_node_w(mut self, watts: f64) -> Self {
        self.worst_case_node_w = watts;
        self
    }

    /// Override the compliance deadline ΔT.
    pub fn with_deadline_s(mut self, deadline_s: f64) -> Self {
        self.deadline_s = deadline_s;
        self
    }

    /// Override the startup budget.
    pub fn with_initial_budget_w(mut self, watts: f64) -> Self {
        self.initial_budget_w = watts;
        self
    }

    /// Persist crash-recovery snapshots at `path`, every `every_s`.
    pub fn with_snapshots(mut self, path: impl Into<PathBuf>, every_s: f64) -> Self {
        self.snapshot_path = Some(path.into());
        self.snapshot_every_s = every_s;
        self
    }

    /// Restore from the configured snapshot on startup.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Override the post-resume resync grace window.
    pub fn with_resync_grace_s(mut self, grace_s: f64) -> Self {
        self.resync_grace_s = grace_s;
        self
    }

    /// Override the per-connection read deadline.
    pub fn with_read_deadline_s(mut self, deadline_s: f64) -> Self {
        self.read_deadline_s = deadline_s;
        self
    }

    /// Cap concurrent connections (see [`CoordinatorConfig::max_conns`]).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns;
        self
    }

    /// Inject wire chaos on every accepted socket.
    pub fn with_chaos(mut self, chaos: WireChaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Route events and metrics through `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Record causal spans through `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Checked by [`CoordinatorServer::bind`] and `ClusterSim`.
    pub fn validate(&self) -> Result<(), FvsError> {
        for (name, value) in [
            ("period_s", self.period_s),
            ("heartbeat_timeout_s", self.heartbeat_timeout_s),
            ("deadline_s", self.deadline_s),
            ("snapshot_every_s", self.snapshot_every_s),
            ("resync_grace_s", self.resync_grace_s),
            ("read_deadline_s", self.read_deadline_s),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(FvsError::config(format!(
                    "{name} must be finite and positive"
                )));
            }
        }
        // Rounds schedule under `(budget - reserved).max(0.0)`, which reads
        // a NaN as 0 W. An infinite budget is no budget.
        if self.initial_budget_w.is_nan() || self.initial_budget_w < 0.0 {
            return Err(FvsError::config("initial_budget_w must be non-negative"));
        }
        if !(self.worst_case_node_w.is_finite() && self.worst_case_node_w >= 0.0) {
            return Err(FvsError::config(
                "worst_case_node_w must be finite and non-negative",
            ));
        }
        if self.max_conns == 0 {
            return Err(FvsError::config("max_conns must be at least 1"));
        }
        if self.resume && self.snapshot_path.is_none() {
            return Err(FvsError::config("resume requires a snapshot_path"));
        }
        Ok(())
    }
}

struct NetMetrics {
    frames_rx: Arc<Counter>,
    frames_tx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    decode_errors: Arc<Counter>,
    connects: Arc<Counter>,
    disconnects: Arc<Counter>,
    version_rejects: Arc<Counter>,
    /// Stale-epoch hellos refused (split-brain fences).
    epoch_rejects: Arc<Counter>,
    /// Wire faults observed: injected (chaos) and organic (frame
    /// decode failures; protocol errors — a repeated hello, a summary
    /// for a node its connection did not handshake as) alike.
    wire_faults: Arc<Counter>,
    /// Frames refused for an oversize length prefix specifically.
    oversize_frames: Arc<Counter>,
    /// Crash-recovery snapshots persisted.
    snapshots_written: Arc<Counter>,
    /// Keep-alive heartbeats pushed downlink.
    heartbeats_tx: Arc<Counter>,
    connections: Arc<Gauge>,
    /// Wall time of one event-loop round (schedule → push),
    /// quantile-estimable for the `/metrics` p99.
    round_wall_s: Arc<Histogram>,
    /// Ceiling fan-out latency: time to write all commands downlink.
    fanout_wall_s: Arc<Histogram>,
    /// How long a read batch's last summary waited between arriving
    /// and being ingested, counted once per summary of the batch (an
    /// upper bound for the earlier ones).
    summary_staleness_s: Arc<Histogram>,
}

impl NetMetrics {
    /// The `net.*` handles of `telemetry`'s registry — or, when it has
    /// none, of one nobody reads, so the loop counts without asking.
    fn from(telemetry: &Telemetry) -> Self {
        let detached = MetricsRegistry::new();
        let scope = telemetry.registry().unwrap_or(&detached).scoped("net");
        let latency = Histogram::latency_bounds();
        NetMetrics {
            frames_rx: scope.counter("frames_rx"),
            frames_tx: scope.counter("frames_tx"),
            bytes_rx: scope.counter("bytes_rx"),
            decode_errors: scope.counter("decode_errors"),
            connects: scope.counter("connects"),
            disconnects: scope.counter("disconnects"),
            version_rejects: scope.counter("version_rejects"),
            epoch_rejects: scope.counter("epoch_rejects"),
            wire_faults: scope.counter("wire_faults"),
            oversize_frames: scope.counter("oversize_frames"),
            snapshots_written: scope.counter("snapshots_written"),
            heartbeats_tx: scope.counter("heartbeats_tx"),
            connections: scope.gauge("connections"),
            round_wall_s: scope.histogram("round_wall_s", &latency),
            fanout_wall_s: scope.histogram("fanout_wall_s", &latency),
            summary_staleness_s: scope.histogram("summary_staleness_s", &latency),
        }
    }
}

/// [`Shared::budget`] when no change is waiting: the bits of a NaN,
/// which [`CoordinatorServer::set_budget`] refuses.
const NO_BUDGET: u64 = u64::MAX;

/// What the event loop shares with the threads that hold the server.
struct Shared {
    stop: AtomicBool,
    /// One-slot budget mailbox: the f64 bits of the budget last asked
    /// for, [`NO_BUDGET`] once the event loop has taken it. The loop
    /// looks after every event and every poll slice, so a change is
    /// acted on within milliseconds instead of waiting out the period.
    budget: AtomicU64,
    /// What the last round published — everything `/healthz` serves.
    status: Mutex<CoordinatorStatus>,
}

impl Shared {
    /// The status guard, whether or not a thread panicked while holding
    /// it: the struct is plain data the event loop replaces whole every
    /// round, so a poisoned lock holds nothing worse than the previous
    /// round's numbers — and scheduling for the whole cluster must not
    /// die with a scrape handler.
    fn status(&self) -> MutexGuard<'_, CoordinatorStatus> {
        self.status.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The running coordinator server.
pub struct CoordinatorServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    thread: Option<JoinHandle<()>>,
    telemetry: Telemetry,
    tracer: Tracer,
    start: Instant,
}

/// Per-connection bookkeeping hung on the reactor next to the
/// [`Transport`]. Which node a connection speaks for is the core's to
/// know.
struct Conn {
    /// When a frame (or any bytes) last arrived, in [`Driver::now_s`]
    /// seconds: the read deadline's clock, and the arrival time of the
    /// summaries that read carried.
    last_rx_s: f64,
    /// [`Transport::bytes_rx`] at the last metrics sample.
    bytes_seen: u64,
}

/// The event loop's state: the sockets, and what they are serviced
/// with. It owns the listener, the reactor and its transports, the
/// read-deadline sweep and the metric and span timers; every rule is
/// the [`CoordinatorCore`]'s, which it is handed and does not hold.
struct Driver {
    listener: TcpListener,
    reactor: Reactor<Conn>,
    shared: Arc<Shared>,
    config: CoordinatorConfig,
    metrics: NetMetrics,
    /// Zero of the clock every `now_s` handed to the core is read on.
    start: Instant,
    accept_seq: u64,
    /// Connections holding chaos-delayed frames, flushed as those come
    /// due; empty under a quiet plan.
    held: BTreeSet<u64>,
    /// The `now_s` of the round being run: what its downlink writes are
    /// stamped with.
    round_s: f64,
    /// When this round's first downlink write began; `net.fanout_wall_s`
    /// is from then until the round returns, just past its last write.
    fanout_started: Option<Instant>,
}

impl CoordinatorServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving a cluster
    /// of `nodes` nodes.
    pub fn bind(
        addr: &str,
        nodes: usize,
        algorithm: FvsstAlgorithm,
        config: CoordinatorConfig,
    ) -> Result<Self, FvsError> {
        config.validate()?;
        if nodes == 0 {
            return Err(FvsError::config("a cluster needs at least one node"));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        // Resume path: a damaged or missing snapshot is a cold start —
        // worst-case charging is always safe.
        let restored = match &config.snapshot_path {
            Some(path) if config.resume => Snapshot::load(path)
                .inspect_err(|e| {
                    eprintln!("fvsst-coordinator: snapshot unusable ({e}); cold start")
                })
                .ok(),
            _ => None,
        };
        let core = CoordinatorCore::new(nodes, algorithm, &config, restored.as_ref());
        let reactor = Reactor::new()?;
        reactor.register_listener(&listener)?;
        let start = Instant::now();

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            budget: AtomicU64::new(NO_BUDGET),
            status: Mutex::new(core.status().clone()),
        });
        let (telemetry, tracer) = (config.telemetry.clone(), config.tracer.clone());
        let driver = Driver {
            listener,
            reactor,
            shared: Arc::clone(&shared),
            metrics: NetMetrics::from(&telemetry),
            config,
            start,
            accept_seq: 0,
            held: BTreeSet::new(),
            round_s: 0.0,
            fanout_started: None,
        };
        let thread = std::thread::Builder::new()
            .name("fvs-coordinator".into())
            .spawn(move || driver.run(core))
            .map_err(FvsError::Io)?;

        Ok(CoordinatorServer {
            shared,
            local_addr,
            thread: Some(thread),
            telemetry,
            tracer,
            start,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The fencing epoch this coordinator serves (constant for its life).
    pub fn epoch(&self) -> u64 {
        self.shared.status().epoch
    }

    /// Change the global budget; the event loop reacts on its next
    /// slice (a few milliseconds), not its next period. Panics on a NaN
    /// or negative `watts` (infinity is no budget).
    pub fn set_budget(&self, watts: f64) {
        assert!(watts >= 0.0, "set_budget: a budget of {watts} W");
        self.shared.budget.store(watts.to_bits(), Ordering::SeqCst);
    }

    /// A snapshot of the control plane right now.
    pub fn status(&self) -> CoordinatorStatus {
        self.shared.status().clone()
    }

    /// The operator's status line: the last round's status, rendered
    /// now — read as `/healthz` reads it, so the wire and the terminal
    /// can never disagree.
    pub fn status_line(&self) -> String {
        let (status, now_s) = observe(&self.shared, self.start);
        status.status_line(now_s)
    }

    /// Mount the observability listener at `addr` (`/metrics`,
    /// `/healthz`, `/journal`, `/trace`), backed by this server's
    /// registry, event ring, span ring and health snapshot.
    pub fn serve_obs(&self, addr: &str) -> Result<ObsServer, FvsError> {
        let shared = Arc::clone(&self.shared);
        let start = self.start;
        ObsServer::bind(
            addr,
            ObsHandles {
                registry: self.telemetry.registry().cloned(),
                journal: self.telemetry.clone(),
                tracer: self.tracer.clone(),
                health: Some(Arc::new(move || {
                    let (status, now_s) = observe(&shared, start);
                    (status.healthy(), status.health_json(now_s))
                })),
            },
        )
    }

    /// Stop the event loop, flush telemetry, and return the final
    /// status.
    pub fn shutdown(mut self) -> Result<CoordinatorStatus, FvsError> {
        self.stop_and_join();
        self.telemetry.flush()?;
        Ok(self.status())
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CoordinatorServer {
    fn drop(&mut self) {
        self.stop_and_join();
        let _ = self.telemetry.flush();
    }
}

impl Driver {
    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Take a connection off the reactor, which closes its socket, and
    /// count the disconnect. The core is told by the caller.
    fn close_conn(&mut self, token: u64) {
        self.held.remove(&token);
        if self.reactor.remove(token).is_some() {
            self.metrics.disconnects.inc();
        }
    }

    /// The one downlink write path: queue `msg` (none for a bare
    /// writable event or a delayed frame come due), write what the
    /// socket takes as of `now_s`, point the poller's write interest at
    /// what is left, note a held frame, count the frame. `false` means
    /// the connection failed, or was already gone, and is closed; the
    /// caller tells the core.
    fn write_conn(&mut self, token: u64, msg: Option<&WireMsg>, now_s: f64) -> bool {
        let Some((transport, stream, _)) = self.reactor.get_mut(token) else {
            return false;
        };
        let queued = msg.is_none_or(|msg| transport.send(msg, now_s).is_ok());
        if !(queued && transport.flush(stream, now_s).is_ok()) {
            self.close_conn(token);
            return false;
        }
        if transport.next_delay_due().is_some() {
            self.held.insert(token);
        }
        let _ = self.reactor.update_interest(token);
        if let Some(msg) = msg {
            self.metrics.frames_tx.inc();
            if matches!(msg, WireMsg::Heartbeat { .. }) {
                self.metrics.heartbeats_tx.inc();
            }
        }
        true
    }

    /// Accept everything pending on the listener (level-triggered: drain
    /// until `WouldBlock`, which ends the loop like any other error —
    /// the next readiness report retries either way).
    fn accept_ready(&mut self) {
        while let Ok((stream, _peer)) = self.listener.accept() {
            if self.reactor.len() >= self.config.max_conns {
                // Admission control: over the cap the kindest signal is
                // an immediate close, which the agent's backoff ladder
                // turns into a retry.
                continue;
            }
            self.accept_seq += 1;
            let transport = Transport::under(
                &self.config.chaos,
                ChaosSide::Coordinator,
                self.accept_seq,
                self.config.telemetry.clone(),
                Some(Arc::clone(&self.metrics.wire_faults)),
            );
            let _ = stream.set_nodelay(true);
            let conn = Conn {
                last_rx_s: self.now_s(),
                bytes_seen: 0,
            };
            if self.reactor.insert(stream, transport, conn).is_ok() {
                self.metrics.connects.inc();
            }
        }
    }

    /// Service one connection's readiness: flush if writable, then read,
    /// parse and hand the core every complete frame (a summary is in the
    /// scheduler the same iteration its bytes arrive), writing and
    /// counting what it answers. `false` when the connection is to be
    /// closed (or already is): the caller's to do.
    fn service_conn(&mut self, ev: &PollEvent, core: &mut CoordinatorCore) -> bool {
        let token = ev.token;
        let now_s = self.now_s();
        if ev.writable && !self.write_conn(token, None, now_s) {
            return false;
        }
        if !(ev.readable || ev.hangup) {
            return true;
        }
        let Some((transport, stream, conn)) = self.reactor.get_mut(token) else {
            return false;
        };
        match transport.fill(stream, now_s) {
            Ok(FillStatus::Eof) | Err(_) => return false,
            Ok(FillStatus::Progress) => {
                conn.last_rx_s = now_s;
                let total = transport.bytes_rx();
                self.metrics.bytes_rx.add(total - conn.bytes_seen);
                conn.bytes_seen = total;
            }
            Ok(FillStatus::Idle) => {}
        }
        // Every frame parsed below arrived with this call's read at the
        // latest; summaries are re-stamped with that time.
        let arrival_s = conn.last_rx_s;
        // Counted here, added to the metrics once after the loop.
        let mut frames = 0u64;
        let mut summaries = 0u64;
        let mut open = true;
        while open {
            let Some((transport, _, _)) = self.reactor.get_mut(token) else {
                return false;
            };
            let received = match transport.next_lent() {
                Ok(None) => break,
                Ok(Some(frame)) => core.frame(token, frame, arrival_s),
                Err(_) => {
                    // A desynchronised stream cannot be trusted. The
                    // organic fault (oversize / bad magic / decode, told
                    // from chaos by `injected:false`) is journaled, with
                    // the frame's length and codec, before the close.
                    let fault = transport.last_fault().unwrap_or(WireFaultKind::Decode);
                    if fault == WireFaultKind::Oversize {
                        self.metrics.oversize_frames.inc();
                    }
                    self.metrics.decode_errors.inc();
                    self.metrics.wire_faults.inc();
                    self.config.telemetry.emit(SchedEvent::WireFault {
                        t_s: self.start.elapsed().as_secs_f64(),
                        node: core.node_of(token).map_or(u32::MAX, |node| node as u32),
                        fault,
                        injected: false,
                        frame_len: transport.last_fault_len(),
                        codec: transport.last_fault_codec(),
                    });
                    open = false;
                    break;
                }
            };
            frames += 1;
            if let Received::Hello { ack, .. } = &received {
                open = self.write_conn(token, Some(ack), arrival_s);
            }
            open &= received.open();
            match received {
                Received::Summary(ingest) => {
                    summaries += 1;
                    if matches!(ingest, Ingest::Misattributed | Ingest::Miscounted) {
                        self.metrics.wire_faults.inc();
                    }
                }
                Received::Hello { node, verdict, .. } => match verdict {
                    Ok(()) => {
                        if let Some((transport, _, _)) = self.reactor.get_mut(token) {
                            transport.set_node(node);
                        }
                    }
                    Err(Refusal::Version) => self.metrics.version_rejects.inc(),
                    Err(Refusal::StaleEpoch) => self.metrics.epoch_rejects.inc(),
                    Err(Refusal::Repeated | Refusal::UnknownNode) => self.metrics.wire_faults.inc(),
                },
                Received::Bye | Received::Ignored => {}
            }
        }
        self.metrics.frames_rx.add(frames);
        if summaries > 0 {
            // Staleness at ingest, once per batch: how long the batch's
            // last summary waited between its bytes arriving and its
            // ingest — an upper bound for the ones parsed before it
            // (there is no reader-to-scheduler queue to wait in).
            let waited_s = (self.now_s() - arrival_s).max(0.0);
            self.metrics
                .summary_staleness_s
                .observe_n(waited_s, summaries);
        }
        open
    }

    /// Flush the connections whose chaos-delayed frames are due: a held
    /// frame leaves when its hold ends, not with the connection's next
    /// write. A flushed connection that still holds one is listed again
    /// by [`Driver::write_conn`].
    fn flush_held(&mut self, core: &mut CoordinatorCore) {
        if self.held.is_empty() {
            return;
        }
        let now_s = self.now_s();
        for token in std::mem::take(&mut self.held) {
            let held = self.reactor.get_mut(token);
            let Some(due) = held.and_then(|(t, _, _)| t.next_delay_due()) else {
                continue;
            };
            if due > now_s {
                self.held.insert(token);
            } else if !self.write_conn(token, None, now_s) {
                core.closed(token);
            }
        }
    }

    /// Move a waiting budget change from the mailbox into the core.
    fn take_budget(&self, core: &mut CoordinatorCore) {
        if self.shared.budget.load(Ordering::SeqCst) != NO_BUDGET {
            let bits = self.shared.budget.swap(NO_BUDGET, Ordering::SeqCst);
            core.set_budget(f64::from_bits(bits));
        }
    }

    /// The whole server, one thread: accept, read, and on the core's
    /// say-so run a round.
    fn run(mut self, mut core: CoordinatorCore) {
        // Read-deadline sweeps walk every connection, so amortize them.
        let read_deadline_s = self.config.read_deadline_s;
        let sweep_every_s = (read_deadline_s / 4.0).min(0.5);
        let mut last_sweep_s = self.now_s();
        // The poll batch being serviced and how far into it the loop is.
        let mut events = Vec::new();
        let mut next_event = 0;

        loop {
            let stopping = self.shared.stop.load(Ordering::SeqCst);

            if next_event == events.len() {
                // Wait for readiness, but never past the scheduler
                // slice: a budget change (an atomic poke from another
                // thread) must be noticed within a few milliseconds,
                // not a period.
                let until_round = Duration::from_secs_f64(core.until_round_s(self.now_s()));
                let timeout = until_round.min(Duration::from_millis(2));
                self.reactor.recycle_events(events);
                if let Err(e) = self.reactor.poll(Some(timeout)) {
                    eprintln!("fvsst-coordinator: poll failed: {e}");
                    break;
                }
                events = self.reactor.drain_events();
                next_event = 0;
            }
            while let Some(ev) = events.get(next_event) {
                next_event += 1;
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if !self.service_conn(ev, &mut core) {
                    self.close_conn(ev.token);
                    core.closed(ev.token);
                }
                // A round is owed: run it now and come back for the rest
                // of the batch, so that however many peers are ready and
                // however much each has written, scheduling waits for
                // one connection's fill budget and not for all of them —
                // and the connections late in a batch still get their
                // turn.
                self.take_budget(&mut core);
                if core.until_round_s(self.now_s()) <= 0.0 {
                    break;
                }
            }

            // Read-deadline sweep: a link that produces no bytes for
            // `read_deadline_s` is declared dead instead of lingering.
            let now_s = self.now_s();
            if now_s - last_sweep_s >= sweep_every_s {
                last_sweep_s = now_s;
                for token in self.reactor.tokens() {
                    let expired = self
                        .reactor
                        .get_mut(token)
                        .is_some_and(|(_, _, c)| now_s - c.last_rx_s > read_deadline_s);
                    if expired {
                        self.close_conn(token);
                        core.closed(token);
                    }
                }
            }

            self.flush_held(&mut core);
            self.take_budget(&mut core);
            let now_s = self.now_s();
            if stopping || core.until_round_s(now_s) <= 0.0 {
                let _round_span = self.config.tracer.span("net.round");
                let round_started = Instant::now();
                self.round_s = now_s;
                let snapshot = core.run_round(now_s, &mut self);
                let fanout = self.fanout_started.take();
                self.metrics
                    .fanout_wall_s
                    .observe(fanout.map_or(0.0, |t| t.elapsed().as_secs_f64()));
                self.metrics
                    .connections
                    .set(core.status().connections as f64);
                self.metrics
                    .round_wall_s
                    .observe(round_started.elapsed().as_secs_f64());
                // The status is what `/healthz` reads: whatever the round
                // journaled (`resync_complete`, say) precedes the flip.
                self.shared.status().clone_from(core.status());
                if let Some(snapshot) = &snapshot {
                    self.persist(snapshot);
                }
            }
            if stopping {
                break;
            }
        }
        // Dropping the reactor closes every socket, unblocking any agent
        // mid-read.
    }
}

/// A round's way out of the core: frames onto sockets through
/// [`Driver::write_conn`], snapshots onto disk.
impl RoundSink for Driver {
    fn persist(&mut self, snapshot: &Snapshot) {
        let Some(path) = &self.config.snapshot_path else {
            return;
        };
        match snapshot.save(path) {
            Ok(()) => {
                self.metrics.snapshots_written.inc();
                self.config.telemetry.emit(SchedEvent::SnapshotWritten {
                    t_s: snapshot.taken_at_s,
                    epoch: snapshot.epoch,
                    budget_w: snapshot.budget_w,
                    nodes: snapshot.nodes.len() as u32,
                });
            }
            Err(e) => eprintln!("fvsst-coordinator: snapshot write failed: {e}"),
        }
    }

    fn send(&mut self, conn: u64, msg: &WireMsg) -> bool {
        self.fanout_started.get_or_insert_with(Instant::now);
        self.write_conn(conn, Some(msg), self.round_s)
    }
}

/// The last published status and the time it is read at, on the
/// event loop's clock: what `/healthz` and the status line render.
fn observe(shared: &Shared, start: Instant) -> (CoordinatorStatus, f64) {
    (shared.status().clone(), start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that panics while holding the status lock (a scrape
    /// handler, say) poisons it; the event loop takes that lock every
    /// round. Rounds must keep advancing, and `status()` /
    /// `status_line()` must keep answering.
    #[test]
    fn a_poisoned_status_lock_does_not_stop_scheduling() {
        let config = CoordinatorConfig::default_lan().with_period_s(0.005);
        let server =
            CoordinatorServer::bind("127.0.0.1:0", 2, FvsstAlgorithm::p630(), config).unwrap();
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.status.lock().unwrap();
            panic!("poisoning the status lock on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.status.is_poisoned());

        let before = server.status().rounds;
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.status().rounds < before + 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            server.status().rounds >= before + 3,
            "rounds stopped at {} after the lock was poisoned",
            server.status().rounds
        );
        let line = server.status_line();
        let rounds = line.split(" | rounds ").nth(1);
        let rounds: u64 = rounds
            .and_then(|r| r.split(' ').next()?.parse().ok())
            .unwrap();
        assert!(rounds >= before + 3, "{line}");
        let last = server.shutdown().unwrap();
        assert!(last.rounds >= before + 3);
    }
}
