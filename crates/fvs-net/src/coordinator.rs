//! The coordinator's TCP front end.
//!
//! A [`CoordinatorServer`] owns the real [`GlobalCoordinator`] and
//! exposes it over sockets — from **one thread**. A readiness-driven
//! event loop (a [`Reactor`] over the vendored `netpoll` epoll wrapper)
//! accepts agents, decodes uplink frames through per-connection
//! [`Transport`] state machines, runs the global scheduling round on a
//! wall-clock period, and pushes [`FrequencyCommand`]s down whichever
//! connections are still alive. Thread count is O(1) in connection
//! count: 10k agents cost file descriptors and slab slots, not stacks.
//! Heartbeat tracking, silent-node charging and blind f_min commands
//! all operate on *genuine* socket liveness: a node is whatever its
//! last frame says it is, and a dead socket simply stops producing
//! frames.
//!
//! Codec negotiation happens per connection at hello time: an agent
//! advertising the binary `FVS2` codec gets it iff this server's
//! `preferred_codec` is binary too; everything else stays on JSON
//! `FVS1`, so a mixed fleet (old agents, new agents, tests speaking
//! JSON on purpose) connects to one listener. Reads never care — the
//! frame magic picks the decoder per frame.
//!
//! Timestamps are coordinator-local. Incoming summaries are re-stamped
//! with their *arrival* time on the server's monotonic clock, so agent
//! clock skew cannot fake liveness (an agent cannot claim "I reported
//! in your future") and the heartbeat timeout measures exactly what the
//! paper's ΔT argument needs: how long since the coordinator last heard
//! from the node. With ingest on the event loop itself there is no
//! reader-to-scheduler queue left to hide latency in — a summary is in
//! the [`GlobalCoordinator`] the same iteration its bytes arrive.
//!
//! Crash recovery: with snapshots configured the loop persists a
//! checksummed [`Snapshot`] on a cadence *and* write-ahead on every
//! budget change, so `--resume` restores the fencing epoch (+1), the
//! enforced budget (the stricter of snapshot and configured), every
//! node's last-charged ceiling and any open ΔT episode. Restored
//! summaries are re-stamped stale on purpose: until a node reports
//! fresh, the coordinator charges its last-commanded ceiling (or worst
//! case) — a crash can therefore never *un-enforce* a budget drop. The
//! resync grace window is visible on `/healthz` as a distinct
//! `resyncing` 503 until the `resync_complete` event fires.

use crate::chaos::{ChaosSide, ChaosStream};
use crate::error::FvsError;
use crate::obs::{HealthReport, ObsHandles, ObsServer};
use crate::reactor::{Reactor, LISTENER_TOKEN};
use crate::snapshot::{Snapshot, SnapshotEpisode, SnapshotNode, SnapshotStore};
use crate::transport::{FillStatus, Transport};
use crate::wire::{FrameFault, WireCodec, WireMsg, CODEC_BINARY_BIT, SCHEMA_VERSION};
use crate::WireChaos;
use fvs_cluster::{FrequencyCommand, GlobalCoordinator, NodeRestore};
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{
    BudgetDeadlineTracker, ComplianceRecord, Counter, Gauge, Histogram, SchedEvent, Telemetry,
    Tracer, WireFaultKind,
};
use std::collections::HashMap;
use std::io;
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
    /// The fastest codec this server will negotiate. Binary (the
    /// default) picks `FVS2` for agents that advertise it; JSON pins
    /// every connection to `FVS1`.
    pub preferred_codec: WireCodec,
    /// Admission limit: sockets accepted beyond this many live
    /// connections are closed immediately.
    pub max_conns: usize,
    /// Wire-chaos injection on accepted sockets (quiet = passthrough).
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
            preferred_codec: WireCodec::Binary,
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

    /// Cap the codec this server negotiates (see
    /// [`CoordinatorConfig::preferred_codec`]).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.preferred_codec = codec;
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

    fn validate(&self) -> Result<(), FvsError> {
        if !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err(FvsError::config("period_s must be finite and positive"));
        }
        if !(self.heartbeat_timeout_s.is_finite() && self.heartbeat_timeout_s > 0.0) {
            return Err(FvsError::config(
                "heartbeat_timeout_s must be finite and positive",
            ));
        }
        if !(self.deadline_s.is_finite() && self.deadline_s > 0.0) {
            return Err(FvsError::config("deadline_s must be finite and positive"));
        }
        if !(self.snapshot_every_s.is_finite() && self.snapshot_every_s > 0.0) {
            return Err(FvsError::config(
                "snapshot_every_s must be finite and positive",
            ));
        }
        if !(self.resync_grace_s.is_finite() && self.resync_grace_s > 0.0) {
            return Err(FvsError::config(
                "resync_grace_s must be finite and positive",
            ));
        }
        if !(self.read_deadline_s.is_finite() && self.read_deadline_s > 0.0) {
            return Err(FvsError::config(
                "read_deadline_s must be finite and positive",
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
    /// The most recently closed compliance episode.
    pub last_compliance: Option<ComplianceRecord>,
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
    /// decode failures) alike.
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
    fn from(telemetry: &Telemetry) -> Option<Self> {
        telemetry.registry().map(|r| {
            let scope = r.scoped("net");
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
                round_wall_s: scope.histogram("round_wall_s", &Histogram::latency_bounds()),
                fanout_wall_s: scope.histogram("fanout_wall_s", &Histogram::latency_bounds()),
                summary_staleness_s: scope
                    .histogram("summary_staleness_s", &Histogram::latency_bounds()),
            }
        })
    }
}

struct Shared {
    stop: AtomicBool,
    /// Budget as f64 bits, plus a change epoch so the event loop
    /// reacts on its next slice instead of waiting out the period.
    budget_bits: AtomicU64,
    budget_epoch: AtomicU64,
    /// The fencing epoch this coordinator serves (monotonic across
    /// resumes: cold start = 1, resume = snapshot + 1).
    epoch: AtomicU64,
    /// Post-resume resync deadline in coordinator seconds, as f64
    /// bits; NaN = not resyncing. Cleared by the event loop when
    /// it emits `resync_complete`, so `/healthz` flips strictly after
    /// the event.
    resync_deadline_bits: AtomicU64,
    status: Mutex<CoordinatorStatus>,
    /// When the last round finished, as f64-bit seconds on the server's
    /// monotonic clock (`/healthz` serves the age).
    last_round_bits: AtomicU64,
}

impl Shared {
    /// The status guard, whether or not a thread panicked while holding
    /// it: the struct is plain data the event loop overwrites field by
    /// field every round, so a poisoned lock holds nothing worse than
    /// the previous round's numbers — and scheduling for the whole
    /// cluster must not die with a scrape handler.
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
/// [`Transport`].
struct Conn {
    /// The node this socket handshook as (`None` until an accepted
    /// hello names it).
    node: Option<usize>,
    /// Last time a frame (or any bytes) arrived — the read deadline's
    /// clock.
    last_rx: Instant,
    /// [`Transport::bytes_rx`] at the last metrics sample.
    bytes_seen: u64,
    /// Round id of the last ceiling pushed to this connection, so the
    /// heartbeat pass skips freshly-commanded nodes in O(1).
    last_cmd_round: u64,
}

/// The event loop's share of the config, bundled once.
struct LoopCtx {
    shared: Arc<Shared>,
    metrics: Arc<Option<NetMetrics>>,
    telemetry: Telemetry,
    tracer: Tracer,
    period_s: f64,
    heartbeat_timeout_s: f64,
    nodes: usize,
    start: Instant,
    store: Option<SnapshotStore>,
    snapshot_every_s: f64,
    read_deadline: Duration,
    chaos: WireChaos,
    preferred_codec: WireCodec,
    max_conns: usize,
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

        let telemetry = config.telemetry.clone();
        let metrics = Arc::new(NetMetrics::from(&telemetry));
        let store = config.snapshot_path.as_ref().map(SnapshotStore::new);

        // Resume path: load the snapshot (a damaged or missing file is
        // a cold start — worst-case charging is always safe), bump the
        // epoch past the crashed incarnation, and keep the *stricter*
        // of the persisted and configured budgets so a pre-crash
        // budget drop stays enforced.
        let mut epoch = 1u64;
        let mut initial_budget = config.initial_budget_w;
        let mut restored: Option<Snapshot> = None;
        if config.resume {
            if let Some(store) = &store {
                match store.load() {
                    Ok(snap) => {
                        epoch = snap.epoch.saturating_add(1);
                        if snap.budget_w < initial_budget {
                            initial_budget = snap.budget_w;
                        }
                        restored = Some(snap);
                    }
                    Err(e) => {
                        eprintln!("fvsst-coordinator: snapshot unusable ({e}); cold start");
                    }
                }
            }
        }

        let mut coordinator =
            GlobalCoordinator::with_telemetry(algorithm, nodes, telemetry.clone())
                .with_heartbeat_timeout(config.heartbeat_timeout_s)
                .with_worst_case_node_w(config.worst_case_node_w)
                .with_tracer(config.tracer.clone());
        let mut tracker = BudgetDeadlineTracker::new(config.deadline_s);
        let mut initial_rounds = 0u64;
        if let Some(snap) = &restored {
            for (i, n) in snap.nodes.iter().enumerate().take(nodes) {
                let mut r = n.to_restore();
                if let Some(s) = &mut r.summary {
                    // Re-stamp the restored summary *stale by
                    // construction*: the first liveness sweep charges
                    // max(reported, commanded) — the last-charged
                    // ceiling — until a genuinely fresh summary lands.
                    // (Not `clamp`: a NaN age must sanitize to 0, and
                    // clamp would pass the NaN through.)
                    let age_s = if n.age_s.is_finite() {
                        n.age_s.clamp(0.0, 1e9)
                    } else {
                        0.0
                    };
                    s.sent_at_s = -(age_s + config.heartbeat_timeout_s + 1.0);
                }
                coordinator.restore_node(i, r);
            }
            if let Some(ep) = &snap.episode {
                // Rebase the open ΔT episode onto this process's clock
                // (which starts near zero): time already burned before
                // the crash stays burned.
                tracker.restore_episode(ep.to_open(0.0));
            }
            initial_rounds = snap.rounds;
        }

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            budget_bits: AtomicU64::new(initial_budget.to_bits()),
            budget_epoch: AtomicU64::new(0),
            epoch: AtomicU64::new(epoch),
            resync_deadline_bits: AtomicU64::new(if restored.is_some() {
                config.resync_grace_s.to_bits()
            } else {
                f64::NAN.to_bits()
            }),
            status: Mutex::new(CoordinatorStatus {
                budget_w: initial_budget,
                rounds: initial_rounds,
                epoch,
                resyncing: restored.is_some(),
                ..CoordinatorStatus::default()
            }),
            last_round_bits: AtomicU64::new(0f64.to_bits()),
        });
        let start = Instant::now();

        if let Some(snap) = &restored {
            telemetry.emit(SchedEvent::CoordinatorResumed {
                t_s: 0.0,
                epoch,
                budget_w: initial_budget,
                restored_nodes: snap.nodes.len().min(nodes) as u32,
                grace_s: config.resync_grace_s,
            });
        }

        let tracer = config.tracer.clone();
        let ctx = LoopCtx {
            shared: Arc::clone(&shared),
            metrics,
            telemetry: telemetry.clone(),
            tracer: tracer.clone(),
            period_s: config.period_s,
            heartbeat_timeout_s: config.heartbeat_timeout_s,
            nodes,
            start,
            store,
            snapshot_every_s: config.snapshot_every_s,
            read_deadline: Duration::from_secs_f64(config.read_deadline_s),
            chaos: config.chaos.clone(),
            preferred_codec: config.preferred_codec,
            max_conns: config.max_conns,
        };
        let thread = std::thread::Builder::new()
            .name("fvs-coordinator".into())
            .spawn(move || {
                event_loop(listener, coordinator, tracker, ctx);
            })
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

    /// The fencing epoch this coordinator serves.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Change the global budget; the event loop reacts on its next
    /// slice (a few milliseconds), not its next period.
    pub fn set_budget(&self, watts: f64) {
        self.shared
            .budget_bits
            .store(watts.to_bits(), Ordering::SeqCst);
        self.shared.budget_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// A snapshot of the control plane right now.
    pub fn status(&self) -> CoordinatorStatus {
        self.shared.status().clone()
    }

    /// The health report — the single code path behind the `/healthz`
    /// endpoint *and* the coordinator binary's status line, so the wire
    /// and the terminal can never disagree.
    pub fn health(&self) -> HealthReport {
        health_from(&self.shared, self.start)
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
                health: Some(Arc::new(move || health_from(&shared, start))),
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

/// Tear a connection down: deregister, unmap its node (if this socket
/// is still the node's current one), count the disconnect. Dropping
/// the transport closes the socket.
fn close_conn(
    reactor: &mut Reactor<Conn>,
    node_tokens: &mut HashMap<usize, u64>,
    token: u64,
    metrics: Option<&NetMetrics>,
) {
    let Some((_, conn)) = reactor.remove(token) else {
        return;
    };
    if let Some(node) = conn.node {
        if node_tokens.get(&node) == Some(&token) {
            node_tokens.remove(&node);
        }
    }
    if let Some(m) = metrics {
        m.disconnects.inc();
    }
}

/// Accept everything pending on the listener (level-triggered: drain
/// until `WouldBlock`).
fn accept_ready(listener: &TcpListener, reactor: &mut Reactor<Conn>, ctx: &LoopCtx, seq: &mut u64) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let metrics = ctx.metrics.as_ref().as_ref();
                if reactor.len() >= ctx.max_conns {
                    // Admission control: over the cap the kindest
                    // signal is an immediate close, which the agent's
                    // backoff ladder turns into a retry.
                    drop(stream);
                    continue;
                }
                *seq += 1;
                let chaos_counter = metrics.map(|m| Arc::clone(&m.wire_faults));
                let stream = ChaosStream::wrap(
                    stream,
                    &ctx.chaos,
                    ChaosSide::Coordinator,
                    *seq,
                    ctx.start,
                    ctx.telemetry.clone(),
                    chaos_counter,
                );
                let _ = stream.set_nodelay(true);
                let conn = Conn {
                    node: None,
                    last_rx: Instant::now(),
                    bytes_seen: 0,
                    last_cmd_round: 0,
                };
                if reactor.insert(Transport::new(stream), conn).is_ok() {
                    if let Some(m) = metrics {
                        m.connects.inc();
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Service one connection's readiness: flush if writable, then read,
/// parse and dispatch every complete frame. Summaries are re-stamped
/// with arrival time and ingested into the [`GlobalCoordinator`] right
/// here — same thread, same iteration.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    readable: bool,
    writable: bool,
    token: u64,
    reactor: &mut Reactor<Conn>,
    node_tokens: &mut HashMap<usize, u64>,
    ctx: &LoopCtx,
    coordinator: &mut GlobalCoordinator,
    last_power: &mut [f64],
    last_seen: &mut [f64],
    my_epoch: u64,
) {
    let metrics = ctx.metrics.as_ref().as_ref();
    if writable {
        let Some((transport, _)) = reactor.get_mut(token) else {
            return;
        };
        if transport.flush().is_err() {
            close_conn(reactor, node_tokens, token, metrics);
            return;
        }
        let _ = reactor.update_interest(token);
    }
    if !readable {
        return;
    }
    let arrival_s;
    {
        let Some((transport, conn)) = reactor.get_mut(token) else {
            return;
        };
        match transport.fill() {
            Ok(FillStatus::Eof) | Err(_) => {
                close_conn(reactor, node_tokens, token, metrics);
                return;
            }
            Ok(FillStatus::Progress) => {
                conn.last_rx = Instant::now();
                let total = transport.bytes_rx();
                if let Some(m) = metrics {
                    m.bytes_rx.add(total - conn.bytes_seen);
                }
                conn.bytes_seen = total;
            }
            Ok(FillStatus::Idle) => {}
        }
        // Every frame parsed below arrived with this call's read at the
        // latest; summaries are re-stamped with that time.
        arrival_s = conn
            .last_rx
            .saturating_duration_since(ctx.start)
            .as_secs_f64();
    }
    // Counted here, added to the metrics once after the loop.
    let mut frames = 0u64;
    let mut summaries = 0u64;
    while let Some((transport, conn)) = reactor.get_mut(token) {
        match transport.next_msg() {
            Ok(None) => break,
            Ok(Some(msg)) => {
                frames += 1;
                match msg {
                    WireMsg::Hello {
                        node,
                        version,
                        last_epoch,
                        codecs,
                        ..
                    } => {
                        let version_ok = version == SCHEMA_VERSION;
                        // An agent that has acknowledged a *newer*
                        // epoch than ours means we are the stale
                        // survivor: refuse, so the split-brain resolves
                        // in favour of the current incumbent.
                        let epoch_ok = last_epoch <= my_epoch;
                        let accepted = version_ok && epoch_ok;
                        // Codec negotiation: binary iff both sides want
                        // it; the ack itself is always JSON.
                        let chosen = if accepted
                            && ctx.preferred_codec == WireCodec::Binary
                            && codecs & CODEC_BINARY_BIT != 0
                        {
                            WireCodec::Binary
                        } else {
                            WireCodec::Json
                        };
                        let ack = WireMsg::HelloAck {
                            accepted,
                            version: SCHEMA_VERSION,
                            epoch: my_epoch,
                            codec: chosen.id(),
                        };
                        let acked = transport.send(&ack).is_ok() && transport.flush().is_ok();
                        if acked {
                            if let Some(m) = metrics {
                                m.frames_tx.inc();
                            }
                        }
                        if !version_ok {
                            if let Some(m) = metrics {
                                m.version_rejects.inc();
                            }
                            close_conn(reactor, node_tokens, token, metrics);
                            break;
                        }
                        if !epoch_ok {
                            if let Some(m) = metrics {
                                m.epoch_rejects.inc();
                            }
                            ctx.telemetry.emit(SchedEvent::EpochFenced {
                                t_s: ctx.start.elapsed().as_secs_f64(),
                                node: node as u32,
                                peer_epoch: last_epoch,
                                local_epoch: my_epoch,
                            });
                            close_conn(reactor, node_tokens, token, metrics);
                            break;
                        }
                        if !acked {
                            close_conn(reactor, node_tokens, token, metrics);
                            break;
                        }
                        transport.set_codec(chosen);
                        transport.stream().set_node(node);
                        conn.node = Some(node);
                        // A reconnecting node replaces its old socket as
                        // the push target; the old one dies by deadline.
                        node_tokens.insert(node, token);
                        let _ = reactor.update_interest(token);
                    }
                    WireMsg::Summary(mut summary) => {
                        // Re-stamp with arrival time on the
                        // coordinator's clock: liveness is what *we*
                        // observed, not what the agent claims.
                        summary.sent_at_s = arrival_s;
                        let node = summary.node;
                        if node < ctx.nodes {
                            last_power[node] = summary.power_w;
                            last_seen[node] = arrival_s;
                        }
                        summaries += 1;
                        // Accepted, `summary` now holds the one it
                        // displaced; either way its vectors take the
                        // connection's next decode.
                        coordinator.ingest_swap(&mut summary);
                        transport.recycle(summary);
                    }
                    WireMsg::Bye { .. } => {
                        close_conn(reactor, node_tokens, token, metrics);
                        break;
                    }
                    // Agents never send these; ignore.
                    WireMsg::HelloAck { .. } | WireMsg::Ceiling(_) | WireMsg::Heartbeat { .. } => {}
                }
            }
            Err(_) => {
                // A desynchronised stream cannot be trusted; classify
                // the organic fault for the journal and metrics
                // *before* dropping it (oversize / bad magic / decode
                // are distinguishable from injected chaos via
                // `injected:false`, and the event carries the observed
                // frame length and codec).
                let kind = match transport.last_fault() {
                    Some(FrameFault::Oversize) => {
                        if let Some(m) = metrics {
                            m.oversize_frames.inc();
                        }
                        WireFaultKind::Oversize
                    }
                    Some(FrameFault::BadMagic) => WireFaultKind::BadMagic,
                    _ => WireFaultKind::Decode,
                };
                if let Some(m) = metrics {
                    m.decode_errors.inc();
                    m.wire_faults.inc();
                }
                ctx.telemetry.emit(SchedEvent::WireFault {
                    t_s: ctx.start.elapsed().as_secs_f64(),
                    node: conn.node.map(|n| n as u32).unwrap_or(u32::MAX),
                    kind,
                    injected: false,
                    frame_len: transport.last_fault_len(),
                    codec: transport.last_fault_codec(),
                });
                close_conn(reactor, node_tokens, token, metrics);
                break;
            }
        }
    }
    if let Some(m) = metrics {
        m.frames_rx.add(frames);
        if summaries > 0 {
            // Staleness at ingest, once per batch: how long the batch's
            // last summary waited between its bytes arriving and its
            // ingest — an upper bound for the ones parsed before it
            // (there is no reader-to-scheduler queue to wait in).
            let waited_s = (ctx.start.elapsed().as_secs_f64() - arrival_s).max(0.0);
            m.summary_staleness_s.observe_n(waited_s, summaries);
        }
    }
}

/// Push this round's ceilings, then a keep-alive [`WireMsg::Heartbeat`]
/// to every handshaken connection the round did not command — so
/// agents can bound dead-link detection in time, and a stale
/// coordinator gets fenced mid-connection by the epoch the heartbeat
/// carries.
fn push_round(
    reactor: &mut Reactor<Conn>,
    node_tokens: &mut HashMap<usize, u64>,
    commands: Vec<FrequencyCommand>,
    epoch: u64,
    round: u64,
    metrics: Option<&NetMetrics>,
) {
    // Connections this round has commanded and left alive.
    let mut commanded = 0usize;
    for cmd in commands {
        let Some(&token) = node_tokens.get(&cmd.node) else {
            continue;
        };
        let Some((transport, conn)) = reactor.get_mut(token) else {
            continue;
        };
        let first = conn.last_cmd_round != round;
        conn.last_cmd_round = round;
        let ok = transport.send(&WireMsg::Ceiling(cmd)).is_ok() && transport.flush().is_ok();
        if !ok {
            close_conn(reactor, node_tokens, token, metrics);
            continue;
        }
        commanded += usize::from(first);
        let _ = reactor.update_interest(token);
        if let Some(m) = metrics {
            m.frames_tx.inc();
        }
    }
    // The steady case: every handshaken connection just got a ceiling,
    // so nobody is owed a keep-alive.
    if commanded == node_tokens.len() {
        return;
    }
    let heartbeat = WireMsg::Heartbeat { epoch };
    let targets: Vec<u64> = node_tokens.values().copied().collect();
    for token in targets {
        let Some((transport, conn)) = reactor.get_mut(token) else {
            continue;
        };
        if conn.last_cmd_round == round {
            continue;
        }
        let ok = transport.send(&heartbeat).is_ok() && transport.flush().is_ok();
        if !ok {
            close_conn(reactor, node_tokens, token, metrics);
            continue;
        }
        let _ = reactor.update_interest(token);
        if let Some(m) = metrics {
            m.frames_tx.inc();
            m.heartbeats_tx.inc();
        }
    }
}

/// Capture the coordinator's recoverable state as a [`Snapshot`].
fn take_snapshot(
    coordinator: &GlobalCoordinator,
    tracker: &BudgetDeadlineTracker,
    nodes: usize,
    epoch: u64,
    budget_w: f64,
    now_s: f64,
    rounds: u64,
) -> Snapshot {
    let nodes = (0..nodes)
        .map(|i| {
            let r = coordinator.export_node(i).unwrap_or(NodeRestore {
                summary: None,
                commanded_w: 0.0,
                dead: false,
                shape: None,
            });
            let age_s = r
                .summary
                .as_ref()
                .map(|s| (now_s - s.sent_at_s).max(0.0))
                .unwrap_or(f64::INFINITY);
            SnapshotNode {
                summary: r.summary,
                age_s,
                commanded_w: r.commanded_w,
                dead: r.dead,
                shape: r.shape,
            }
        })
        .collect();
    Snapshot {
        epoch,
        budget_w,
        taken_at_s: now_s,
        rounds,
        nodes,
        episode: tracker
            .export_episode()
            .map(|ep| SnapshotEpisode::from_open(&ep, now_s)),
    }
}

/// The whole server, one thread: accept, read, schedule, push.
fn event_loop(
    listener: TcpListener,
    mut coordinator: GlobalCoordinator,
    mut tracker: BudgetDeadlineTracker,
    ctx: LoopCtx,
) {
    let mut reactor: Reactor<Conn> = match Reactor::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fvsst-coordinator: reactor init failed: {e}");
            return;
        }
    };
    if let Err(e) = reactor.register_listener(&listener) {
        eprintln!("fvsst-coordinator: listener registration failed: {e}");
        return;
    }

    // Map a node id to its current downlink token.
    let mut node_tokens: HashMap<usize, u64> = HashMap::new();
    let mut accept_seq = 0u64;
    let mut last_round = Instant::now();
    let mut seen_epoch = 0u64;
    let mut prev_budget = f64::from_bits(ctx.shared.budget_bits.load(Ordering::SeqCst));
    let mut rounds = ctx.shared.status().rounds;
    let my_epoch = ctx.shared.epoch.load(Ordering::SeqCst);
    let mut last_snapshot_s = 0.0f64;
    // Last power each node reported, and when (coordinator clock) — the
    // live half of the conservative power sum. Restored nodes start
    // with `last_seen = -inf` on purpose: they are *charged* (inside
    // `reserved_w`) until they report on this incarnation's socket.
    let mut last_power = vec![0.0f64; ctx.nodes];
    let mut last_seen = vec![f64::NEG_INFINITY; ctx.nodes];
    // Read-deadline sweeps walk every connection, so amortize them.
    let sweep_every = (ctx.read_deadline / 4).min(Duration::from_millis(500));
    let mut last_sweep = Instant::now();

    let write_snapshot = |coordinator: &GlobalCoordinator,
                          tracker: &BudgetDeadlineTracker,
                          budget: f64,
                          now_s: f64,
                          rounds: u64| {
        let Some(store) = &ctx.store else { return };
        let snap = take_snapshot(
            coordinator,
            tracker,
            ctx.nodes,
            my_epoch,
            budget,
            now_s,
            rounds,
        );
        match store.save(&snap) {
            Ok(()) => {
                if let Some(m) = ctx.metrics.as_ref() {
                    m.snapshots_written.inc();
                }
                ctx.telemetry.emit(SchedEvent::SnapshotWritten {
                    t_s: now_s,
                    epoch: my_epoch,
                    budget_w: budget,
                    nodes: ctx.nodes as u32,
                });
            }
            Err(e) => {
                eprintln!("fvsst-coordinator: snapshot write failed: {e}");
            }
        }
    };

    let period = Duration::from_secs_f64(ctx.period_s);
    // The poll batch being serviced and how far into it the loop is.
    let mut events = Vec::new();
    let mut next_event = 0;

    loop {
        let stopping = ctx.shared.stop.load(Ordering::SeqCst);

        if next_event == events.len() {
            // Wait for readiness, but never past the scheduler slice: a
            // budget change (an atomic poke from another thread) must be
            // noticed within a few milliseconds, not a period.
            let until_round = period.saturating_sub(last_round.elapsed());
            let timeout = until_round.min(Duration::from_millis(2));
            reactor.recycle_events(events);
            if let Err(e) = reactor.poll(Some(timeout)) {
                eprintln!("fvsst-coordinator: poll failed: {e}");
                break;
            }
            events = reactor.drain_events();
            next_event = 0;
        }
        while let Some(ev) = events.get(next_event) {
            next_event += 1;
            if ev.token == LISTENER_TOKEN {
                accept_ready(&listener, &mut reactor, &ctx, &mut accept_seq);
            } else {
                service_conn(
                    ev.readable || ev.hangup,
                    ev.writable,
                    ev.token,
                    &mut reactor,
                    &mut node_tokens,
                    &ctx,
                    &mut coordinator,
                    &mut last_power,
                    &mut last_seen,
                    my_epoch,
                );
            }
            // A round is owed: run it now and come back for the rest of
            // the batch, so that however many peers are ready and
            // however much each has written, scheduling waits for one
            // connection's fill budget and not for all of them — and the
            // connections late in a batch still get their turn.
            if last_round.elapsed() >= period
                || ctx.shared.budget_epoch.load(Ordering::SeqCst) != seen_epoch
            {
                break;
            }
        }

        // Read-deadline sweep: a link that produces no bytes for
        // `read_deadline` is declared dead instead of lingering.
        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            for token in reactor.tokens() {
                let expired = reactor
                    .get_mut(token)
                    .map(|(_, c)| c.last_rx.elapsed() > ctx.read_deadline)
                    .unwrap_or(false);
                if expired {
                    close_conn(
                        &mut reactor,
                        &mut node_tokens,
                        token,
                        ctx.metrics.as_ref().as_ref(),
                    );
                }
            }
        }

        let epoch = ctx.shared.budget_epoch.load(Ordering::SeqCst);
        let budget_changed = epoch != seen_epoch;
        let due = last_round.elapsed() >= period;
        if budget_changed || due || stopping {
            let _round_span = ctx.tracer.span("net.round");
            let round_started = Instant::now();
            seen_epoch = epoch;
            last_round = Instant::now();
            let now_s = ctx.start.elapsed().as_secs_f64();
            let budget = f64::from_bits(ctx.shared.budget_bits.load(Ordering::SeqCst));
            if budget != prev_budget {
                // Write-ahead: persist the new budget *before* acting
                // on it, so a crash between here and the push can
                // never resurrect the old, laxer budget.
                write_snapshot(&coordinator, &tracker, budget, now_s, rounds);
                last_snapshot_s = now_s;
                if let Some(ev) = tracker.on_budget_change(now_s, prev_budget, budget) {
                    ctx.telemetry.emit(ev);
                }
                prev_budget = budget;
            }

            let commands = coordinator.schedule(budget, now_s);
            tracker.on_round();

            // Conservative power: what the live nodes last reported plus
            // what the coordinator reserved for the silent — the same
            // sum the ΔT argument is made against. Liveness here is the
            // exact rule `schedule()` used, so no node is both counted
            // live and charged as reserved.
            let reserved_w = coordinator.reserved_w();
            let live_w: f64 = (0..ctx.nodes)
                .filter(|&i| now_s - last_seen[i] <= ctx.heartbeat_timeout_s)
                .map(|i| last_power[i])
                .sum();
            let conservative_w = live_w + reserved_w;
            if let Some(ev) = tracker.on_power_sample(now_s, conservative_w) {
                ctx.telemetry.emit(ev);
            }

            // Resync bookkeeping: the grace window ends when every node
            // has reported fresh on this incarnation, or the deadline
            // lapses — whichever comes first. Clearing the bits here
            // (and only here) is what flips `/healthz` to 200, so the
            // `resync_complete` event strictly precedes the flip.
            let resync_deadline =
                f64::from_bits(ctx.shared.resync_deadline_bits.load(Ordering::SeqCst));
            let mut resyncing = !resync_deadline.is_nan();
            if resyncing {
                let fresh = (0..ctx.nodes)
                    .filter(|&i| now_s - last_seen[i] <= ctx.heartbeat_timeout_s)
                    .count();
                if fresh == ctx.nodes || now_s >= resync_deadline {
                    ctx.telemetry.emit(SchedEvent::ResyncComplete {
                        t_s: now_s,
                        wall_s: now_s,
                        fresh_nodes: fresh as u32,
                        charged_nodes: (ctx.nodes - fresh) as u32,
                    });
                    ctx.shared
                        .resync_deadline_bits
                        .store(f64::NAN.to_bits(), Ordering::SeqCst);
                    resyncing = false;
                }
            }

            rounds += 1;
            {
                let _push_span = ctx.tracer.span("net.push");
                let push_started = Instant::now();
                push_round(
                    &mut reactor,
                    &mut node_tokens,
                    commands,
                    my_epoch,
                    rounds,
                    ctx.metrics.as_ref().as_ref(),
                );
                if let Some(m) = ctx.metrics.as_ref() {
                    m.fanout_wall_s
                        .observe(push_started.elapsed().as_secs_f64());
                }
            }

            let mut status = ctx.shared.status();
            status.rounds = rounds;
            status.nodes_reporting = coordinator.nodes_reporting();
            status.dead_nodes = coordinator.dead_nodes();
            status.reserved_w = reserved_w;
            status.conservative_power_w = conservative_w;
            status.budget_w = budget;
            status.connections = node_tokens.len();
            status.compliances = tracker.compliances();
            status.violations = tracker.violations();
            status.epoch = my_epoch;
            status.resyncing = resyncing;
            status.last_compliance = tracker.last_compliance();
            if let Some(m) = ctx.metrics.as_ref() {
                m.connections.set(status.connections as f64);
                m.round_wall_s
                    .observe(round_started.elapsed().as_secs_f64());
            }
            drop(status);
            ctx.shared.last_round_bits.store(
                ctx.start.elapsed().as_secs_f64().to_bits(),
                Ordering::SeqCst,
            );

            // Cadence snapshot (budget changes already snapshotted
            // above, write-ahead).
            if now_s - last_snapshot_s >= ctx.snapshot_every_s {
                write_snapshot(&coordinator, &tracker, budget, now_s, rounds);
                last_snapshot_s = now_s;
            }
        }
        if stopping {
            break;
        }
    }
    // Dropping the reactor closes every socket, unblocking any agent
    // mid-read.
}

/// Build a [`HealthReport`] from the shared control-plane state. Budget
/// compliance is against the *conservative* power sum — the same
/// quantity the paper's ΔT argument bounds — and an infinite budget is
/// trivially compliant.
fn health_from(shared: &Shared, start: Instant) -> HealthReport {
    let status = shared.status().clone();
    let now_s = start.elapsed().as_secs_f64();
    let last_round_s = f64::from_bits(shared.last_round_bits.load(Ordering::SeqCst));
    let budget_compliant =
        !status.budget_w.is_finite() || status.conservative_power_w <= status.budget_w;
    let resync_deadline = f64::from_bits(shared.resync_deadline_bits.load(Ordering::SeqCst));
    let resyncing = !resync_deadline.is_nan();
    HealthReport {
        uptime_s: now_s,
        rounds: status.rounds,
        last_round_age_s: (now_s - last_round_s).max(0.0),
        nodes_reporting: status.nodes_reporting,
        dead_nodes: status.dead_nodes,
        connections: status.connections,
        budget_w: status.budget_w,
        conservative_power_w: status.conservative_power_w,
        reserved_w: status.reserved_w,
        budget_compliant,
        compliances: status.compliances,
        violations: status.violations,
        epoch: status.epoch,
        resyncing,
        resync_deadline_s: if resyncing {
            (resync_deadline - now_s).max(0.0)
        } else {
            f64::NAN
        },
        degraded: status.dead_nodes > 0 || !budget_compliant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that panics while holding the status lock (a scrape
    /// handler, say) poisons it; the event loop takes that lock every
    /// round. Rounds must keep advancing, and `status()` / `health()`
    /// must keep answering.
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
        assert!(server.health().rounds >= before + 3);
        let last = server.shutdown().unwrap();
        assert!(last.rounds >= before + 3);
    }
}
