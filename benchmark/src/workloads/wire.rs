//! `wire_steps` and `wire_burst`: the control plane over loopback TCP.
//!
//! One `CoordinatorServer` (binary codec, 100 ms period, ΔT 1 s, a
//! memory telemetry ring as `--obs-addr` gives, tracer off) and a
//! cluster of probe nodes the generator drives itself: raw non-blocking
//! `TcpStream`s on one `netpoll::Poller`, `wire::encode*` and
//! `FrameReader` for framing. The connections are the *cluster size* —
//! one node is one socket in this protocol — all driven by the one
//! generator thread; they are input size, not client concurrency.
//! Everything crosses the host loopback interface with no injected
//! delay, so latency here is processor time, not a network's.
//!
//! `wire_steps` is the paper's *budget drop → ceiling applied*:
//! `fvs-net` writes (poll slice, schedule, per-node encode + `write` +
//! `epoll_ctl` in `push_round`). `wire_burst` uses `fvs-net` the other
//! way round: `Transport::fill` → `FrameReader` → decode → `ingest`.

use super::{coord, time_median_ns, Pass, Size, Watchdog};
use crate::affinity::CpuSet;
use crate::spans::{Recorder, NONE};
use crate::stats::{
    median, percentile, quietest_window, sorted, supported_tail, Fnv1a, SplitMix64, WINDOW,
};
use fvs_cluster::{FrequencyCommand, NodeSummary};
use fvs_model::FreqMhz;
use fvs_net::netpoll::{raise_nofile_limit, Interest, PollEvent, Poller};
use fvs_net::{
    decode_payload, decode_payload_binary, encode, encode_binary, encode_with, CoordinatorConfig,
    CoordinatorServer, CoordinatorStatus, FrameReader, WireCodec, WireMsg, CODEC_ALL, HEADER_LEN,
    SCHEMA_VERSION,
};
use fvs_power::FreqPowerTable;
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{Counter, Histogram, SchedEvent, Telemetry, Tracer};
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROCS: usize = coord::PROCS_PER_NODE;
/// The coordinator's wall-clock scheduling period, and the period of
/// each node's summaries.
const PERIOD: Duration = Duration::from_millis(100);
/// Connections opened before their acks are awaited: 1 024 back-to-back
/// `connect`s overflow the accept backlog and surface as `BrokenPipe`.
const RAMP: usize = 64;
/// Summary frames each node writes in one burst.
const BURST_FRAMES: usize = 64;
/// A burst starts this long (ms, drawn per burst) after the generator
/// has seen a periodic round's fan-out end, one burst a round. Bursts on
/// their own clock meet a fan-out one time in three and then read a
/// fifth slower: two kinds of operation under one median.
const BURST_AFTER_FANOUT_MS: (f64, f64) = (5.0, 25.0);
/// `PAUSE`s after a poll that found nothing: drop → all ceilings read
/// 6.9–7.9 ms with none, 6.2–6.5 ms with 128, no better with 512.
const SPIN_PAUSES: usize = 128;
/// How long a step may stay unsettled before the next one goes ahead
/// regardless: the paper's ΔT.
const SETTLE_LIMIT: Duration = Duration::from_secs(1);
const HIGH_W_PER_PROC: f64 = 120.0;
const LOW_W_PER_PROC: f64 = 60.0;

struct Node {
    stream: TcpStream,
    reader: FrameReader,
    /// The last ceiling received, and the power it allows.
    ceiling: Vec<FreqMhz>,
    power_w: f64,
    /// Bytes a full socket buffer refused, to be written first.
    unsent: Vec<u8>,
    /// Saw a changed ceiling since the current step began.
    stepped: bool,
    /// Got a ceiling in the fan-out being counted (`Cluster::fanned`).
    fanned: bool,
    acked: bool,
}

/// One budget step in flight.
struct Step {
    at: Instant,
    dropping: bool,
    first: Option<Instant>,
    last: Option<Instant>,
    /// `set_budget` → changed ceiling decoded, per node (ms).
    node_ms: Vec<f64>,
}

/// What the steps of a pass measured.
#[derive(Default)]
struct StepLog {
    /// p50 over the nodes of each drop step on which every node stepped.
    drop_step_p50_ms: Vec<f64>,
    drop_node_ms: Vec<f64>,
    raise_node_ms: Vec<f64>,
    drop_all_ms: Vec<f64>,
    first_ms: Vec<f64>,
    span_ms: Vec<f64>,
    drops: u64,
    node_steps_failed: u64,
    over_budget_after_drop: u64,
}

/// The server, its probe nodes and the generator's poller.
struct Cluster {
    server: CoordinatorServer,
    telemetry: Telemetry,
    frames_rx: Arc<Counter>,
    poller: Poller,
    events: Vec<PollEvent>,
    nodes: Vec<Node>,
    pending: Vec<usize>,
    table: FreqPowerTable,
    offset: usize,
    frames_sent: u64,
    /// Nodes that got a ceiling since the last complete fan-out, and
    /// when the last one completed: how the generator knows the phase
    /// of the coordinator's 100 ms round without asking it.
    fanned: usize,
    fanout_done: Option<Instant>,
    io_errors: u64,
    step: Option<Step>,
    log: StepLog,
    handshake_s: f64,
    coordinator_tid: Option<String>,
    _cpus: RestoreCpus,
}

/// Gives the generator thread its vCPUs back when the cluster goes.
struct RestoreCpus(Option<CpuSet>);

impl Drop for RestoreCpus {
    fn drop(&mut self) {
        if let Some(all) = &self.0 {
            let _ = all.apply();
        }
    }
}

fn would_block(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock
}

impl Cluster {
    /// Bind, ramp the connections, handshake, and have every node
    /// report once so the coordinator charges no one worst-case.
    fn start(conns: usize, offset: usize, dog: &Watchdog) -> Result<Cluster, String> {
        raise_nofile_limit(2 * conns as u64 + 256)
            .map_err(|e| format!("raising RLIMIT_NOFILE: {e}"))?;
        let telemetry = Telemetry::memory(1024);
        let config = CoordinatorConfig::default_lan()
            .with_period_s(PERIOD.as_secs_f64())
            .with_deadline_s(1.0)
            .with_initial_budget_w((conns * PROCS) as f64 * HIGH_W_PER_PROC)
            .with_telemetry(telemetry.clone());
        // The generator keeps the lowest vCPU; threads spawned while the
        // mask holds the others — the coordinator's — inherit those.
        let all = CpuSet::current().ok();
        let split = all.and_then(|cpus| cpus.split_first());
        let restore = RestoreCpus(split.and(all));
        if let Some((_, product)) = &split {
            product
                .apply()
                .map_err(|e| format!("sched_setaffinity: {e}"))?;
        }
        let server = CoordinatorServer::bind("127.0.0.1:0", conns, FvsstAlgorithm::p630(), config)
            .map_err(|e| format!("binding the coordinator: {e}"))?;
        if let Some((generator, _)) = &split {
            generator
                .apply()
                .map_err(|e| format!("sched_setaffinity: {e}"))?;
        }
        let registry = telemetry
            .registry()
            .expect("a memory telemetry has a registry");
        let mut cluster = Cluster {
            frames_rx: registry.counter("net.frames_rx"),
            server,
            telemetry: telemetry.clone(),
            poller: Poller::new().map_err(|e| format!("creating the poller: {e}"))?,
            events: Vec::with_capacity(1024),
            nodes: Vec::with_capacity(conns),
            pending: Vec::new(),
            table: FreqPowerTable::p630_table1(),
            offset,
            frames_sent: 0,
            fanned: 0,
            fanout_done: None,
            io_errors: 0,
            step: None,
            log: StepLog::default(),
            handshake_s: 0.0,
            coordinator_tid: None,
            _cpus: restore,
        };
        let addr = cluster.server.local_addr();
        let ramp_started = Instant::now();
        for first in (0..conns).step_by(RAMP) {
            let last = (first + RAMP).min(conns);
            for node in first..last {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {node}: {e}"))?;
                stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                cluster
                    .poller
                    .register(stream.as_raw_fd(), node as u64, Interest::READ)
                    .map_err(|e| format!("register {node}: {e}"))?;
                cluster.nodes.push(Node {
                    stream,
                    reader: FrameReader::new(),
                    ceiling: Vec::new(),
                    power_w: 140.0 * PROCS as f64,
                    unsent: Vec::new(),
                    stepped: false,
                    fanned: false,
                    acked: false,
                });
                let hello = WireMsg::Hello {
                    node,
                    procs: PROCS,
                    version: SCHEMA_VERSION,
                    last_epoch: 0,
                    codecs: CODEC_ALL,
                };
                let frame = encode(&hello).map_err(|e| e.to_string())?;
                cluster.send(node, &frame, 1);
            }
            while !cluster.nodes[first..last].iter().all(|n| n.acked) {
                if dog.expired() {
                    return Err(format!("handshake of nodes {first}..{last} timed out"));
                }
                cluster.pump();
            }
        }
        cluster.handshake_s = ramp_started.elapsed().as_secs_f64();
        // The thread has named itself by the time it has acked.
        cluster.coordinator_tid = coordinator_tid();
        for node in 0..conns {
            cluster.send_summary(node);
        }
        Ok(cluster)
    }

    /// Write the `frames` frames in `frame` to `node`, keeping what the
    /// socket refuses.
    fn send(&mut self, node: usize, frame: &[u8], frames: u64) {
        self.frames_sent += frames;
        let n = &mut self.nodes[node];
        if !n.unsent.is_empty() {
            n.unsent.extend_from_slice(frame);
            return;
        }
        match n.stream.write(frame) {
            Ok(written) if written == frame.len() => {}
            Ok(written) => {
                n.unsent.extend_from_slice(&frame[written..]);
                self.pending.push(node);
            }
            Err(e) if would_block(&e) => {
                n.unsent.extend_from_slice(frame);
                self.pending.push(node);
            }
            Err(_) => self.io_errors += 1,
        }
    }

    /// One node's steady-state summary: its class models, the ceiling it
    /// last received as `current`, the power that ceiling allows.
    fn summary(&self, node: usize) -> NodeSummary {
        let mut s = coord::steady_summary(node, self.offset, false);
        let n = &self.nodes[node];
        if n.ceiling.len() == PROCS {
            s.current.clone_from(&n.ceiling);
        }
        s.power_w = n.power_w;
        s
    }

    fn send_summary(&mut self, node: usize) {
        let frame = encode_binary(&WireMsg::Summary(self.summary(node)))
            .expect("a four-processor summary encodes");
        self.send(node, &frame, 1);
    }

    /// Poll the sockets once without sleeping, decode what arrived, and
    /// retry refused writes. The generator spin-polls while timing: one
    /// that sleeps in epoll makes every coordinator `write` pay a
    /// cross-vCPU wake-up.
    fn pump(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        if self.poller.wait(&mut events, Some(Duration::ZERO)).is_err() {
            self.io_errors += 1;
        }
        for ev in &events {
            self.read_node(ev.token as usize);
        }
        if events.is_empty() {
            // Nothing to read: idle the pipeline for a microsecond or
            // two. On a VM whose vCPUs are hyperthreads of one core, a
            // spin that never pauses takes issue slots from the very
            // thread it is waiting for.
            for _ in 0..SPIN_PAUSES {
                std::hint::spin_loop();
            }
        }
        self.events = events;
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            for node in pending {
                let n = &mut self.nodes[node];
                match n.stream.write(&n.unsent) {
                    Ok(written) => {
                        n.unsent.drain(..written);
                        if !n.unsent.is_empty() {
                            self.pending.push(node);
                        }
                    }
                    Err(e) if would_block(&e) => self.pending.push(node),
                    Err(_) => {
                        n.unsent.clear();
                        self.io_errors += 1;
                    }
                }
            }
        }
    }

    fn read_node(&mut self, node: usize) {
        let mut buf = [0u8; 4096];
        loop {
            match self.nodes[node].stream.read(&mut buf) {
                Ok(0) => {
                    // The coordinator closed the socket; stop polling it.
                    let _ = self.poller.deregister(self.nodes[node].stream.as_raw_fd());
                    self.io_errors += 1;
                    return;
                }
                Ok(n) => {
                    self.nodes[node].reader.feed(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if would_block(&e) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.io_errors += 1;
                    return;
                }
            }
        }
        loop {
            match self.nodes[node].reader.next_frame() {
                Ok(Some(msg)) => self.on_frame(node, msg),
                Ok(None) => return,
                Err(_) => {
                    self.io_errors += 1;
                    return;
                }
            }
        }
    }

    fn on_frame(&mut self, node: usize, msg: WireMsg) {
        match msg {
            WireMsg::HelloAck {
                accepted, codec, ..
            } => {
                // Every handshake must be accepted, on the binary codec.
                if accepted && WireCodec::from_id(codec) == WireCodec::Binary {
                    self.nodes[node].acked = true;
                } else {
                    self.io_errors += 1;
                }
            }
            WireMsg::Ceiling(FrequencyCommand { freqs, .. }) => {
                let n = &mut self.nodes[node];
                if !n.fanned {
                    n.fanned = true;
                    self.fanned += 1;
                    if self.fanned == self.nodes.len() {
                        self.fanned = 0;
                        self.fanout_done = Some(Instant::now());
                        self.nodes.iter_mut().for_each(|n| n.fanned = false);
                    }
                }
                let n = &mut self.nodes[node];
                if freqs == n.ceiling {
                    return;
                }
                n.power_w = freqs
                    .iter()
                    .map(|f| self.table.power_interpolated(*f))
                    .sum();
                n.ceiling = freqs;
                // A node's sample for a step is the first ceiling that
                // differs from its last one.
                if let Some(step) = &mut self.step {
                    if !n.stepped {
                        n.stepped = true;
                        let now = Instant::now();
                        step.first.get_or_insert(now);
                        step.last = Some(now);
                        step.node_ms.push((now - step.at).as_secs_f64() * 1e3);
                    }
                }
            }
            _ => {}
        }
    }

    /// Close the step in flight: nodes that saw no changed ceiling
    /// before the next step failed; after a drop the ceilings the nodes
    /// hold must fit the budget.
    fn end_step(&mut self, rec: &mut Recorder) {
        let Some(step) = self.step.take() else { return };
        let nodes = self.nodes.len();
        self.log.node_steps_failed += (nodes - step.node_ms.len()) as u64;
        if let (Some(first), Some(last)) = (step.first, step.last) {
            let root = rec.add("step", NONE, step.at, last);
            rec.add("fvs-net.first_ceiling", root, step.at, first);
            rec.add("fvs-net.push_span", root, first, last);
            if step.dropping {
                self.log
                    .first_ms
                    .push((first - step.at).as_secs_f64() * 1e3);
                self.log.span_ms.push((last - first).as_secs_f64() * 1e3);
                if step.node_ms.len() == nodes {
                    self.log
                        .drop_all_ms
                        .push((last - step.at).as_secs_f64() * 1e3);
                }
            }
        }
        if step.dropping {
            self.log.drops += 1;
            let held_w: f64 = self.nodes.iter().map(|n| n.power_w).sum();
            if held_w > (nodes * PROCS) as f64 * LOW_W_PER_PROC {
                self.log.over_budget_after_drop += 1;
            }
            if step.node_ms.len() == nodes {
                self.log
                    .drop_step_p50_ms
                    .push(median(&mut step.node_ms.clone()));
            }
            self.log.drop_node_ms.extend(step.node_ms);
        } else {
            self.log.raise_node_ms.extend(step.node_ms);
        }
    }

    /// No step in flight, or every node has its changed ceiling and (for
    /// a drop) the coordinator has closed the compliance episode.
    fn step_settled(&self) -> bool {
        self.step.as_ref().is_none_or(|step| {
            step.node_ms.len() == self.nodes.len()
                && (!step.dropping || self.server.status().compliances > self.log.drops)
        })
    }

    fn begin_step(&mut self, dropping: bool, rec: &mut Recorder) {
        self.end_step(rec);
        for n in &mut self.nodes {
            n.stepped = false;
        }
        let per_proc = if dropping {
            LOW_W_PER_PROC
        } else {
            HIGH_W_PER_PROC
        };
        let at = Instant::now();
        self.server
            .set_budget((self.nodes.len() * PROCS) as f64 * per_proc);
        self.step = Some(Step {
            at,
            dropping,
            first: None,
            last: None,
            node_ms: Vec::with_capacity(self.nodes.len()),
        });
    }

    /// Spin until `done`, the time limit or the watchdog. `false` when
    /// `done` never held.
    fn pump_until(
        &mut self,
        limit: Duration,
        dog: &Watchdog,
        mut done: impl FnMut(&Cluster) -> bool,
    ) -> bool {
        let started = Instant::now();
        loop {
            if done(self) {
                return true;
            }
            if started.elapsed() >= limit || dog.expired() {
                return false;
            }
            self.pump();
        }
    }

    /// The frame count the coordinator must reach, the end-of-pass
    /// checks, and shutdown under the watchdog: a server thread that
    /// does not stop is abandoned, not waited for.
    fn finish(mut self, pass: &mut Pass, dog: &Watchdog, expect_compliances: Option<u64>) {
        let sent = self.frames_sent;
        let counted = self.pump_until(Duration::from_secs(2), dog, |c| {
            c.pending.is_empty() && c.frames_rx.get() >= sent
        });
        let rx = self.frames_rx.get();
        pass.check(counted && rx == sent, || {
            format!("generator sent {sent} frames, net.frames_rx counts {rx}")
        });
        // Liveness is judged at rounds: a node that a stall of the host
        // kept silent past the heartbeat timeout is alive again at the
        // round after its next summary. Give that round time to run.
        self.pump_until(4 * PERIOD, dog, |c| c.server.status().dead_nodes == 0);
        let status = self.server.status();
        pass.check(status.violations == 0, || {
            format!("{} ΔT violations", status.violations)
        });
        pass.check(status.dead_nodes == 0, || {
            format!("{} nodes presumed dead", status.dead_nodes)
        });
        pass.check(status.connections == self.nodes.len(), || {
            format!(
                "{} of {} connections handshaken",
                status.connections,
                self.nodes.len()
            )
        });
        if let Some(expected) = expect_compliances {
            pass.check(status.compliances == expected, || {
                format!(
                    "{} compliance episodes closed for {expected} drop steps",
                    status.compliances
                )
            });
        }
        pass.check(self.io_errors == 0, || {
            format!("{} socket or framing errors", self.io_errors)
        });

        match shutdown_within(self.server, dog.remaining().max(Duration::from_secs(2))) {
            Some(true) => {}
            Some(false) => pass
                .check_failures
                .push("coordinator shutdown reported an error".into()),
            None => {
                pass.timed_out = true;
                pass.check_failures
                    .push("coordinator shutdown hung; server thread abandoned".into());
            }
        }
    }
}

/// `shutdown()` on a helper thread: `Some(ok)` if it returned within
/// `limit`, `None` if it did not — the helper and the server thread are
/// then abandoned, not waited for.
fn shutdown_within(server: CoordinatorServer, limit: Duration) -> Option<bool> {
    let (tx, done) = mpsc::channel();
    let stopper = std::thread::Builder::new()
        .name("bench-shutdown".into())
        .spawn(move || {
            let _ = tx.send(server.shutdown().is_ok());
        })
        .expect("spawning the shutdown helper");
    let ok = done.recv_timeout(limit).ok()?;
    let _ = stopper.join();
    Some(ok)
}

/// The kernel's id of the thread named `fvs-coordinator`.
fn coordinator_tid() -> Option<String> {
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path();
        if std::fs::read_to_string(path.join("comm")).is_ok_and(|c| c.trim() == "fvs-coordinator") {
            return path.file_name()?.to_str().map(str::to_string);
        }
    }
    None
}

/// On-CPU nanoseconds of a thread of this process, from `schedstat`.
fn on_cpu_ns(tid: &Option<String>) -> Option<f64> {
    let text =
        std::fs::read_to_string(format!("/proc/self/task/{}/schedstat", tid.as_ref()?)).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Registry and status readings bracketing a timed stretch.
struct Meter {
    at: Instant,
    status: CoordinatorStatus,
    cpu_ns: Option<f64>,
    frames_rx: u64,
    frames_tx: u64,
    heartbeats_tx: u64,
    bytes_rx: u64,
    events: u64,
    round_wall: (f64, u64),
    fanout_wall: (f64, u64),
}

impl Meter {
    fn read(c: &Cluster) -> Meter {
        let r = c
            .telemetry
            .registry()
            .expect("a memory telemetry has a registry");
        let histogram = |name: &str| {
            let h = r.histogram(name, &Histogram::latency_bounds());
            (h.sum(), h.count())
        };
        Meter {
            at: Instant::now(),
            status: c.server.status(),
            cpu_ns: on_cpu_ns(&c.coordinator_tid),
            frames_rx: c.frames_rx.get(),
            frames_tx: r.counter("net.frames_tx").get(),
            heartbeats_tx: r.counter("net.heartbeats_tx").get(),
            bytes_rx: r.counter("net.bytes_rx").get(),
            events: c.telemetry.events_emitted(),
            round_wall: histogram("net.round_wall_s"),
            fanout_wall: histogram("net.fanout_wall_s"),
        }
    }

    /// Scheduling rounds per second and the coordinator thread's on-CPU
    /// milliseconds per second over the stretch from `self` to `end`.
    fn rates(&self, end: &Meter) -> (f64, f64) {
        let wall_s = (end.at - self.at).as_secs_f64();
        let cpu = match (self.cpu_ns, end.cpu_ns) {
            (Some(a), Some(b)) => (b - a) / 1e6 / wall_s,
            _ => f64::NAN,
        };
        (
            (end.status.rounds - self.status.rounds) as f64 / wall_s,
            cpu,
        )
    }

    /// The `fvs-net.burst_*` readings of `wire_burst`.
    fn report_burst(&self, end: &Meter, pass: &mut Pass) {
        let (round_rate_hz, cpu_ms_per_s) = self.rates(end);
        pass.set("fvs-net.burst_round_rate_hz", round_rate_hz);
        pass.set("fvs-net.burst_coordinator_cpu_ms_per_s", cpu_ms_per_s);
        pass.set(
            "fvs-net.burst_bytes_rx",
            (end.bytes_rx - self.bytes_rx) as f64,
        );
    }

    /// The `fvs-net.*` and `fvs-telemetry.events_per_round` readings of
    /// `wire_steps`.
    fn report_steps(&self, end: &Meter, pass: &mut Pass) {
        let (round_rate_hz, cpu_ms_per_s) = self.rates(end);
        let rounds = (end.status.rounds - self.status.rounds) as f64;
        let mean_ms = |a: (f64, u64), b: (f64, u64)| 1e3 * (b.0 - a.0) / (b.1 - a.1).max(1) as f64;
        pass.set("fvs-net.round_rate_hz", round_rate_hz);
        pass.set("fvs-net.coordinator_cpu_ms_per_s", cpu_ms_per_s);
        pass.set(
            "fvs-net.round_wall_mean_ms",
            mean_ms(self.round_wall, end.round_wall),
        );
        pass.set(
            "fvs-net.fanout_wall_mean_ms",
            mean_ms(self.fanout_wall, end.fanout_wall),
        );
        pass.set("fvs-net.frames_rx", (end.frames_rx - self.frames_rx) as f64);
        pass.set("fvs-net.frames_tx", (end.frames_tx - self.frames_tx) as f64);
        pass.set(
            "fvs-net.heartbeats_tx",
            (end.heartbeats_tx - self.heartbeats_tx) as f64,
        );
        pass.set("fvs-net.bytes_rx", (end.bytes_rx - self.bytes_rx) as f64);
        pass.set(
            "fvs-telemetry.events_per_round",
            (end.events - self.events) as f64 / rounds.max(1.0),
        );
        pass.set(
            "fvs-net.compliance_wall_last_ms",
            end.status
                .last_compliance
                .map_or(f64::NAN, |c| c.wall_s * 1e3),
        );
    }
}

/// Bring a cluster up to its first timed operation: every node
/// reporting and two rounds run on that.
fn warm(conns: usize, offset: usize, pass: &mut Pass, dog: &Watchdog) -> Option<Cluster> {
    let mut cluster = match Cluster::start(conns, offset, dog) {
        Ok(c) => c,
        Err(e) => {
            pass.check_failures.push(e);
            pass.timed_out = dog.expired();
            return None;
        }
    };
    let all_reporting = cluster.pump_until(Duration::from_secs(5), dog, |c| {
        c.server.status().nodes_reporting == conns
    });
    let rounds = cluster.server.status().rounds;
    // Idle nodes would be presumed dead within the heartbeat timeout;
    // two periods is well inside it.
    let warmed = all_reporting
        && cluster.pump_until(Duration::from_secs(5), dog, |c| {
            c.server.status().rounds >= rounds + 2
        });
    if !warmed {
        pass.check_failures
            .push(format!("cluster of {conns} did not reach two warm rounds"));
        pass.timed_out = dog.expired();
        cluster.finish(pass, dog, None);
        return None;
    }
    Some(cluster)
}

/// Direct calls on a memory ring, a registry and an enabled `Tracer`
/// (telemetry is on in the wire workloads, off elsewhere).
fn telemetry_timings(pass: &mut Pass) {
    const BATCH: usize = 4096;
    let telemetry = Telemetry::memory(1024);
    let event = SchedEvent::ClusterRound {
        round: 1,
        nodes: 1024,
        procs: 4096,
        budget_w: 1.0e5,
        predicted_power_w: 9.9e4,
        feasible: true,
    };
    pass.set(
        "fvs-telemetry.emit_ns",
        time_median_ns(31, BATCH, || {
            (0..BATCH).for_each(|_| telemetry.emit(black_box(event)))
        }),
    );
    let registry = telemetry
        .registry()
        .expect("a memory telemetry has a registry");
    let counter = registry.counter("bench.counter");
    pass.set(
        "fvs-telemetry.counter_inc_ns",
        time_median_ns(31, BATCH, || {
            (0..BATCH).for_each(|_| black_box(&counter).inc())
        }),
    );
    let histogram = registry.histogram("bench.histogram", &Histogram::latency_bounds());
    pass.set(
        "fvs-telemetry.histogram_observe_ns",
        time_median_ns(31, BATCH, || {
            (0..BATCH).for_each(|i| histogram.observe(black_box(1.0e-6 * (1 + i % 997) as f64)))
        }),
    );
    let tracer = Tracer::ring(BATCH);
    pass.set(
        "fvs-telemetry.span_ns",
        time_median_ns(31, BATCH, || {
            (0..BATCH).for_each(|_| drop(tracer.span("bench.span")))
        }),
    );
}

/// Encode and decode of four-processor frames under both codecs. JSON
/// is not on the wire in these workloads: its numbers are evidence for
/// the ROADMAP's "does FVS1 survive" question, nothing more.
fn codec_timings(pass: &mut Pass) {
    const BATCH: usize = 256;
    let summary = WireMsg::Summary(coord::steady_summary(7, 0, false));
    let ceiling = WireMsg::Ceiling(FrequencyCommand {
        node: 7,
        freqs: vec![FreqMhz(1000), FreqMhz(850), FreqMhz(700), FreqMhz(600)],
    });
    // (frame, codec, encode metric, decode metric, size metric)
    let rows = [
        (
            &summary,
            WireCodec::Binary,
            "fvs-net.encode_summary_binary_ns",
            "fvs-net.decode_summary_binary_ns",
            "fvs-net.frame_bytes_summary_binary",
        ),
        (
            &summary,
            WireCodec::Json,
            "fvs-net.encode_summary_json_ns",
            "fvs-net.decode_summary_json_ns",
            "fvs-net.frame_bytes_summary_json",
        ),
        (
            &ceiling,
            WireCodec::Binary,
            "fvs-net.encode_ceiling_binary_ns",
            "fvs-net.decode_ceiling_binary_ns",
            "fvs-net.frame_bytes_ceiling_binary",
        ),
        (
            &ceiling,
            WireCodec::Json,
            "fvs-net.encode_ceiling_json_ns",
            "fvs-net.decode_ceiling_json_ns",
            "fvs-net.frame_bytes_ceiling_json",
        ),
    ];
    for (msg, codec, encode_name, decode_name, bytes_name) in rows {
        let frame = encode_with(msg, codec).expect("the sample frame encodes");
        pass.set(bytes_name, frame.len() as f64);
        pass.set(
            encode_name,
            time_median_ns(31, BATCH, || {
                (0..BATCH).for_each(|_| {
                    black_box(encode_with(black_box(msg), codec).expect("encodes"));
                })
            }),
        );
        let payload = &frame[HEADER_LEN..];
        pass.set(
            decode_name,
            time_median_ns(31, BATCH, || {
                (0..BATCH).for_each(|_| {
                    let decoded = match codec {
                        WireCodec::Binary => decode_payload_binary(black_box(payload)),
                        WireCodec::Json => decode_payload(black_box(payload)),
                    };
                    black_box(decoded.expect("decodes"));
                })
            }),
        );
    }
}

pub fn steps(seed: u64, size: &Size, rec: &mut Recorder, dog: &Watchdog) -> Pass {
    let started = Instant::now();
    let mut pass = Pass::default();
    let conns = size.conns();
    let mut rng = SplitMix64::new(seed ^ 0x7769_7265_5f73_7465);
    let offset = (rng.next_u64() % 5) as usize;
    // Seed-jittered gaps between steps, kept clear of the periodic round:
    // every budget change restarts the coordinator's 100 ms period, so a
    // step `k·100 ms` after the last one lands while a round's fan-out
    // holds the event loop, and waits for it — another kind of operation
    // (its cost is `fvs-net.fanout_wall_mean_ms`), which made drop →
    // first ceiling bimodal (1.2 vs 7.5 ms). A drop's compliance episode
    // closes on the second periodic round after it, once every node has
    // reported its new power, so a raise follows 235–290 ms after a
    // drop; the next drop follows the raise by 30–90 ms.
    let mut gaps = vec![Duration::from_secs_f64(rng.range(30.0, 90.0) / 1e3)];
    let mut total_ms = 100.0;
    loop {
        let after_drop = gaps.len() % 2 == 1;
        let gap_ms = if after_drop {
            rng.range(235.0, 290.0)
        } else {
            rng.range(30.0, 90.0)
        };
        total_ms += gap_ms;
        if total_ms > size.seconds * 1e3 - 250.0 {
            break;
        }
        gaps.push(Duration::from_secs_f64(gap_ms / 1e3));
    }
    let mut digest = Fnv1a::default();
    digest.u64(offset as u64);
    digest.u64(conns as u64);
    for gap in &gaps {
        digest.u64(gap.as_nanos() as u64);
    }
    pass.digest = digest.0;

    let Some(mut cluster) = warm(conns, offset, &mut pass, dog) else {
        pass.attempted = (conns * gaps.len()) as u64;
        pass.failed = pass.attempted;
        return pass;
    };
    pass.set(
        "fvs-net.handshake_us_per_conn",
        cluster.handshake_s * 1e6 / conns as f64,
    );
    pass.setup_s = started.elapsed().as_secs_f64();

    // Open loop: node `i` reports at `(k + i/conns) · 100 ms` whether or
    // not the coordinator keeps up; lateness is the generator's own.
    let slot = PERIOD / conns as u32;
    let before = Meter::read(&cluster);
    let t0 = before.at;
    let run = Duration::from_secs_f64(size.seconds);
    let (mut next_summary, mut next_step) = (0u32, 0usize);
    // The first step is placed after a fan-out the generator saw end;
    // the rest follow the step before them.
    cluster.fanout_done = None;
    let mut step_due: Option<Instant> = None;
    let mut late_ms = Vec::new();
    loop {
        let now = Instant::now();
        let elapsed = now - t0;
        // A step is *settled* when every node has its ceiling and, for a
        // drop, the coordinator has closed the compliance episode. The
        // next step, and the end of the pass, wait for that up to ΔT: a
        // stall of the host then delays a step instead of failing a
        // thousand node-steps that the product did deliver.
        let overdue = |due: Duration| elapsed >= due + SETTLE_LIMIT;
        if dog.expired() || (elapsed >= run && (overdue(run) || cluster.step_settled())) {
            break;
        }
        if next_step == 0 && step_due.is_none() {
            step_due = cluster.fanout_done.map(|seen| seen + gaps[0]);
        }
        if let Some(due) = step_due.filter(|due| now >= *due && elapsed < run) {
            if cluster.step_settled() || now >= due + SETTLE_LIMIT {
                cluster.begin_step(next_step % 2 == 0, rec);
                next_step += 1;
                step_due = gaps.get(next_step).map(|gap| now + *gap);
            }
        }
        while elapsed >= slot * next_summary {
            late_ms.push((elapsed - slot * next_summary).as_secs_f64() * 1e3);
            cluster.send_summary(next_summary as usize % conns);
            next_summary += 1;
        }
        cluster.pump();
    }
    cluster.end_step(rec);
    let after = Meter::read(&cluster);
    pass.timed_out = next_step < gaps.len();

    let log = std::mem::take(&mut cluster.log);
    pass.attempted = (conns * gaps.len()) as u64;
    pass.failed = log.node_steps_failed + (conns * (gaps.len() - next_step)) as u64;
    pass.check(log.over_budget_after_drop == 0, || {
        format!(
            "{} drop steps left the nodes' ceilings over the budget",
            log.over_budget_after_drop
        )
    });
    // A drop step is a window of its own: 1 024 samples for the p50
    // over nodes, one for the time to the last node. The pass reports
    // its quietest step; the tail is over every node of every step.
    let quietest = |steps: &[f64]| steps.iter().copied().fold(f64::NAN, f64::min);
    pass.set("drop_to_ceiling_p50_ms", quietest(&log.drop_step_p50_ms));
    pass.set("drop_to_all_p50_ms", quietest(&log.drop_all_ms));
    let all_nodes = sorted(&log.drop_node_ms);
    let (label, tail) = supported_tail(&all_nodes).unwrap_or(("max", f64::NAN));
    pass.set("drop_to_ceiling_tail_ms", tail);
    pass.notes.push((
        "drop_to_ceiling_tail_ms",
        format!("{label}, n={}", all_nodes.len()),
    ));
    pass.notes.push((
        "drop_to_ceiling_p50_ms",
        format!(
            "quietest of n={} drop steps; p50 of all their nodes {:.4}",
            log.drop_step_p50_ms.len(),
            percentile(&all_nodes, 0.5)
        ),
    ));
    pass.set(
        "fvs-net.raise_to_ceiling_p50_ms",
        median(&mut log.raise_node_ms.clone()),
    );
    pass.set(
        "fvs-net.first_ceiling_p50_ms",
        median(&mut log.first_ms.clone()),
    );
    pass.set("fvs-net.push_span_p50_ms", median(&mut log.span_ms.clone()));
    pass.set(
        "fvs-net.generator_late_p99_ms",
        percentile(&sorted(&late_ms), 0.99),
    );
    pass.notes.push((
        "drop_to_all_p50_ms",
        format!(
            "quietest of n={} drop steps; p50 of all {:.4}",
            log.drop_all_ms.len(),
            median(&mut log.drop_all_ms.clone())
        ),
    ));
    before.report_steps(&after, &mut pass);
    if rec.enabled() {
        telemetry_timings(&mut pass);
    }
    cluster.finish(&mut pass, dog, Some(log.drops));
    pass
}

pub fn burst(seed: u64, size: &Size, rec: &mut Recorder, dog: &Watchdog) -> Pass {
    let started = Instant::now();
    let mut pass = Pass::default();
    let conns = size.conns();
    let mut rng = SplitMix64::new(seed ^ 0x7769_7265_5f62_7572);
    let offset = (rng.next_u64() % 5) as usize;
    let frames_per_burst = (conns * BURST_FRAMES) as u64;

    let Some(mut cluster) = warm(conns, offset, &mut pass, dog) else {
        pass.attempted = frames_per_burst;
        pass.failed = frames_per_burst;
        return pass;
    };
    // Every node's 64 frames, encoded once with the clock stopped: the
    // reconnect herd after `--resume` or a healed partition.
    let mut digest = Fnv1a::default();
    let bursts: Vec<Vec<u8>> = (0..conns)
        .map(|node| {
            let frame = encode_binary(&WireMsg::Summary(cluster.summary(node)))
                .expect("a four-processor summary encodes");
            digest.bytes(&frame);
            frame.repeat(BURST_FRAMES)
        })
        .collect();
    pass.digest = digest.0;
    pass.setup_s = started.elapsed().as_secs_f64();

    let before = Meter::read(&cluster);
    let run = Duration::from_secs_f64(size.seconds);
    let mut burst_s = Vec::new();
    let mut drain_ms = Vec::new();
    let mut short = 0u64;
    while before.at.elapsed() < run && !dog.expired() {
        // Ceilings and heartbeats are drained, not timed.
        cluster.fanout_done = None;
        // A fan-out is due every period; a second leaves room for a
        // stall of the host.
        if !cluster.pump_until(10 * PERIOD, dog, |c| c.fanout_done.is_some()) {
            pass.check_failures
                .push("no periodic fan-out seen for ten periods".into());
            break;
        }
        let wait = Duration::from_secs_f64(
            rng.range(BURST_AFTER_FANOUT_MS.0, BURST_AFTER_FANOUT_MS.1) / 1e3,
        );
        cluster.pump_until(wait, dog, |_| false);

        let target = cluster.frames_rx.get() + frames_per_burst;
        let first_write = Instant::now();
        for (node, bytes) in bursts.iter().enumerate() {
            cluster.send(node, bytes, BURST_FRAMES as u64);
        }
        let written = Instant::now();
        let reached =
            cluster.pump_until(Duration::from_secs(2), dog, |c| c.frames_rx.get() >= target);
        let done = Instant::now();
        pass.attempted += frames_per_burst;
        if reached {
            burst_s.push((done - first_write).as_secs_f64());
            let root = rec.add("burst", NONE, first_write, done);
            rec.add("generator.write", root, first_write, written);
            rec.add("fvs-net.burst_drain", root, written, done);
            drain_ms.push((done - written).as_secs_f64() * 1e3);
        } else {
            short += target.saturating_sub(cluster.frames_rx.get());
        }
    }
    let after = Meter::read(&cluster);
    // One last report each, so the end-of-pass liveness check judges the
    // nodes on fresh summaries however long the last burst took.
    (0..conns).for_each(|node| cluster.send_summary(node));
    pass.failed = short;
    pass.timed_out = dog.expired();
    if pass.attempted == 0 {
        pass.attempted = frames_per_burst;
        pass.failed = frames_per_burst;
    }
    // Bursts that did not reach their target are not in `burst_s`, so
    // consecutive entries may straddle one; they count as failed frames.
    pass.set(
        "burst_ingest_frames_per_s",
        frames_per_burst as f64 / quietest_window(&burst_s),
    );
    pass.set("fvs-net.burst_drain_p50_ms", median(&mut drain_ms));
    pass.notes.push((
        "burst_ingest_frames_per_s",
        format!(
            "quietest {WINDOW} in a row of n={} bursts of {frames_per_burst}; p50 of all {:.0}",
            burst_s.len(),
            frames_per_burst as f64 / median(&mut burst_s.clone())
        ),
    ));
    before.report_burst(&after, &mut pass);
    if rec.enabled() {
        codec_timings(&mut pass);
    }
    cluster.finish(&mut pass, dog, None);
    pass
}

/// The product bug the wire workloads steer around, on demand: nodes
/// write summaries as fast as their sockets take them, with no bound.
/// `Transport::fill` reads until the socket runs dry, so against a
/// writer that never lets it, the event loop stops scheduling (and, on
/// few connections, stops returning at all while the frame buffer
/// grows). For a later issue; see the README.
pub fn flood(conns: usize, seconds: f64) -> String {
    let dog = Watchdog::for_pass(seconds + 10.0);
    let mut pass = Pass::default();
    let Some(mut cluster) = warm(conns, 0, &mut pass, &dog) else {
        return format!("cluster did not start: {:?}", pass.check_failures);
    };
    let block: Vec<Vec<u8>> = (0..conns)
        .map(|node| {
            encode_binary(&WireMsg::Summary(cluster.summary(node)))
                .expect("a four-processor summary encodes")
                .repeat(BURST_FRAMES)
        })
        .collect();
    let rss_mb = || {
        std::fs::read_to_string("/proc/self/statm")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
            .map_or(f64::NAN, |pages| pages * 4096.0 / 1e6)
    };
    let (rounds, rss) = (cluster.server.status().rounds, rss_mb());
    let started = Instant::now();
    let mut written = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        for (node, bytes) in block.iter().enumerate() {
            // As fast as the socket takes them: another block as soon as
            // the last one has left the retry queue.
            if cluster.nodes[node].unsent.is_empty() {
                cluster.send(node, bytes, BURST_FRAMES as u64);
                written += bytes.len() as u64;
            }
        }
        cluster.pump();
    }
    let wall_s = started.elapsed().as_secs_f64();
    let status = cluster.server.status();
    let report = format!(
        "flood: {conns} connections wrote {:.0} MB in {wall_s:.1} s\n  scheduling rounds run: {} (the 100 ms period asks for {:.0})\n  resident memory: {rss:.0} MB -> {:.0} MB\n",
        written as f64 / 1e6,
        status.rounds - rounds,
        wall_s * 10.0,
        rss_mb(),
    );
    let stopped = shutdown_within(cluster.server, Duration::from_secs(5)).is_some();
    format!(
        "{report}  shutdown() {}\n",
        if stopped {
            "returned"
        } else {
            "still had not returned after 5 s; server thread abandoned"
        }
    )
}
