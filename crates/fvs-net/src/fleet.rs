//! The agent loop: any number of node agents on one thread.
//!
//! Every agent is an [`AgentCore`] — the state machine that holds the
//! node role's rules — given a socket: the slots are multiplexed onto
//! one [`Reactor`], with one periodic timer per slot driving wall-clock
//! ticks. A due timer is one tick of the core, linked or not, and its
//! answer (connect, flush, this summary, the link is silent) is carried
//! out over the slot's [`Transport`]; every frame that decodes goes to
//! the core, and what it says happened is counted. The loop decides
//! nothing. This is the only way an agent runs: [`AgentFleet::launch`]
//! for the thousands of a soak as for the one of `fvsst-node`, a tick
//! taking [`AgentConfig::pace`] of wall time.
//!
//! First ticks, and so first connects, are staggered across a ramp
//! window so 10k simultaneous SYNs don't blow the accept backlog, and
//! the ramp doubles as tick phase stagger: agents started at different
//! times summarize at different times, spreading uplink load across the
//! period.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fvs_cluster::{ClusterNode, NodeSummary};

use crate::agent::AgentConfig;
use crate::agent_core::{AgentCore, Heard, Phase, Tick};
use crate::chaos::ChaosSide;
use crate::error::FvsError;
use crate::reactor::Reactor;
use crate::transport::{FillStatus, Transport};
use crate::wire::WireMsg;

/// Per-attempt connect timeout: a coordinator that can't even complete
/// the TCP handshake within this is treated as down.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Disconnect a connection whose outbound queue exceeds this — the
/// coordinator has stopped reading and the honest move is to reconnect
/// rather than buffer unboundedly.
const MAX_QUEUED_BYTES: usize = 1 << 20;
/// Cap on timers fired per loop iteration, so a backlog of due ticks
/// can never starve the poller.
const MAX_TIMERS_PER_ITER: usize = 1024;

/// Live counters of a running fleet, updated by the fleet thread and
/// readable from anywhere — `fvsst-node`'s `/healthz` reads them
/// without joining the loop.
#[derive(Debug, Default)]
pub struct FleetStats {
    connected: AtomicU64,
    summaries_sent: AtomicU64,
    ceilings_applied: AtomicU64,
    reconnects: AtomicU64,
    epochs_fenced: AtomicU64,
    version_rejects: AtomicU64,
    /// Fleet power as f64 bits: each node at its latest summary while
    /// the loop runs, at its last tick once it has ended.
    power_bits: AtomicU64,
}

impl FleetStats {
    /// Agents currently past a successful handshake.
    pub fn connected(&self) -> u64 {
        self.connected.load(Ordering::SeqCst)
    }

    /// Summaries shipped upstream across the fleet.
    pub fn summaries_sent(&self) -> u64 {
        self.summaries_sent.load(Ordering::SeqCst)
    }

    /// Ceiling commands applied across the fleet.
    pub fn ceilings_applied(&self) -> u64 {
        self.ceilings_applied.load(Ordering::SeqCst)
    }

    /// Connections re-established after an agent's first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::SeqCst)
    }

    /// Stale coordinators fenced across the fleet.
    pub fn epochs_fenced(&self) -> u64 {
        self.epochs_fenced.load(Ordering::SeqCst)
    }

    /// Agents refused for good: over schema version, or over a node id
    /// outside the coordinator's cluster.
    pub fn version_rejects(&self) -> u64 {
        self.version_rejects.load(Ordering::SeqCst)
    }

    /// Fleet power (W): each node at its latest summary while the loop
    /// runs, at its last tick once it has ended.
    pub fn power_w(&self) -> f64 {
        f64::from_bits(self.power_bits.load(Ordering::SeqCst))
    }
}

/// A loop runs while the byte it shares with its handle is 0. This value
/// ends it in order: connected agents say `Bye`.
const END_BYE: u8 = 1;
/// This one ends it as a crash would: the sockets just close.
const END_SILENT: u8 = 2;

/// Handle to a running fleet thread.
pub struct FleetHandle {
    shutdown: Arc<AtomicU8>,
    stats: Arc<FleetStats>,
    thread: JoinHandle<()>,
}

impl FleetHandle {
    /// The fleet's live counters.
    pub fn stats(&self) -> Arc<FleetStats> {
        Arc::clone(&self.stats)
    }

    /// Orderly shutdown: connected agents say `Bye`, the thread joins,
    /// and the final counters are returned.
    pub fn stop(self) -> Arc<FleetStats> {
        self.end(END_BYE)
    }

    /// Crash the fleet: the sockets just go dead, no goodbye — from the
    /// coordinator's side this is indistinguishable from node failure,
    /// which is the point.
    pub fn kill(self) -> Arc<FleetStats> {
        self.end(END_SILENT)
    }

    fn end(self, how: u8) -> Arc<FleetStats> {
        self.shutdown.store(how, Ordering::SeqCst);
        self.thread.join().expect("fleet thread panicked");
        self.stats
    }

    /// Whether the loop has ended on its own: every agent was refused
    /// for good.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// What the loop keeps for an agent beside its rules.
struct Slot {
    core: AgentCore,
    token: Option<u64>,
    connect_seq: u64,
    /// Node power in the latest summary (W).
    power_w: f64,
}

/// Spawns and owns the one fleet thread. See the module docs.
pub struct AgentFleet;

impl AgentFleet {
    /// Launch agents for `nodes` against the coordinator at `addr`,
    /// staggering first connects across `ramp`. The one way an agent
    /// loop starts: check the config, resolve the address, build the
    /// slots, then spawn the thread — nothing is spawned for a config or
    /// an address that cannot work.
    pub fn launch(
        nodes: Vec<ClusterNode>,
        addr: impl ToSocketAddrs,
        config: AgentConfig,
        ramp: Duration,
    ) -> Result<FleetHandle, FvsError> {
        config.validate()?;
        if nodes.is_empty() {
            return Err(FvsError::config("a fleet needs at least one node"));
        }
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| FvsError::config("fleet address resolved to nothing"))?;
        let n = nodes.len();
        let start = Instant::now();
        // First ticks, staggered across the ramp.
        let timers = (0..n)
            .map(|i| Reverse((start + ramp.mul_f64(i as f64 / n as f64), i)))
            .collect();
        let slots = nodes
            .into_iter()
            .map(|node| Slot {
                core: AgentCore::new(node, &config),
                token: None,
                connect_seq: 0,
                power_w: 0.0,
            })
            .collect();
        let shutdown = Arc::new(AtomicU8::new(0));
        let stats = Arc::new(FleetStats::default());
        let mut fleet = Fleet {
            slots,
            reactor: Reactor::new()?,
            timers,
            addr,
            config,
            start,
            woke: start,
            stats: Arc::clone(&stats),
            power_w: 0.0,
        };
        let thread_shutdown = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("fvs-fleet".into())
            .spawn(move || {
                if let Err(e) = fleet.run(&thread_shutdown) {
                    eprintln!("fvs-fleet: reactor failed: {e}");
                }
                fleet.finish(&thread_shutdown);
            })
            .map_err(FvsError::Io)?;
        Ok(FleetHandle {
            shutdown,
            stats,
            thread,
        })
    }
}

/// (due, slot index) — a min-heap via `Reverse`, one entry per slot.
type Timers = BinaryHeap<Reverse<(Instant, usize)>>;

/// Everything the loop owns.
struct Fleet {
    slots: Vec<Slot>,
    reactor: Reactor<usize>,
    timers: Timers,
    addr: SocketAddr,
    /// Read for its pace and the chaos its transports run under; the
    /// protocol fields are the cores'.
    config: AgentConfig,
    /// Zero of the cores' clock, and the anchor of the chaos plan's
    /// partition windows.
    start: Instant,
    /// When the loop last woke from a poll: the time its goodbyes go
    /// out at.
    woke: Instant,
    stats: Arc<FleetStats>,
    /// Sum of the slots' `power_w`.
    power_w: f64,
}

impl Fleet {
    /// `at` on the clock the cores are told: seconds since launch.
    fn secs(&self, at: Instant) -> f64 {
        at.duration_since(self.start).as_secs_f64()
    }

    fn run(&mut self, shutdown: &AtomicU8) -> io::Result<()> {
        // Until told to stop, or until every agent is refused for good.
        let n = self.slots.len() as u64;
        while shutdown.load(Ordering::SeqCst) == 0 && self.stats.version_rejects() < n {
            // Fire due timers (bounded per iteration; see the const).
            let mut fired = 0usize;
            let now = Instant::now();
            while fired < MAX_TIMERS_PER_ITER {
                let Some(&Reverse((when, idx))) = self.timers.peek() else {
                    break;
                };
                if when > now {
                    break;
                }
                self.timers.pop();
                fired += 1;
                self.tick(idx, when, now);
            }

            // Sleep until the next timer (or briefly, if timers are
            // backlogged) while watching for socket readiness.
            let timeout = if fired >= MAX_TIMERS_PER_ITER {
                Duration::ZERO
            } else {
                self.timers
                    .peek()
                    .map(|Reverse((when, _))| when.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_millis(50))
                    .min(Duration::from_millis(50))
            };
            self.reactor.poll(Some(timeout))?;
            let events = self.reactor.drain_events();
            let now = Instant::now();
            self.woke = now;
            for ev in &events {
                let Some((_, _, &mut idx)) = self.reactor.get_mut(ev.token) else {
                    continue; // removed earlier this batch
                };
                if ev.readable || ev.hangup {
                    self.readable(idx, now);
                }
                // (`readable` may just have dropped the socket.)
                let open = self.slots[idx].token == Some(ev.token);
                if ev.writable && open && !self.ship(idx, None, self.secs(now)) {
                    self.disconnect(idx, now);
                }
            }
            self.reactor.recycle_events(events);
        }
        Ok(())
    }

    /// The loop has ended: running agents say goodbye if that was asked
    /// for, and the counters take each machine's power as it stands.
    fn finish(&mut self, shutdown: &AtomicU8) {
        if shutdown.load(Ordering::SeqCst) == END_BYE {
            let now_s = self.secs(self.woke);
            for slot in &self.slots {
                let Some(token) = slot.token else { continue };
                if let (Phase::Running, Some((transport, stream, _))) =
                    (slot.core.phase(), self.reactor.get_mut(token))
                {
                    // Best effort: the peer may already be gone.
                    stream.set_nonblocking(false).ok();
                    let node = slot.core.node().id;
                    let _ = transport.send(&WireMsg::Bye { node }, now_s);
                    let _ = transport.flush(stream, now_s);
                }
            }
        }
        // The sockets close with the reactor, when the thread returns.
        self.stats.connected.store(0, Ordering::SeqCst);
        let power_w: f64 = self.slots.iter().map(|s| s.core.node().power_w()).sum();
        self.stats
            .power_bits
            .store(power_w.to_bits(), Ordering::SeqCst);
    }

    /// The core said to connect: open a socket and send its hello on it.
    fn connect(&mut self, idx: usize) -> Result<(), FvsError> {
        let mut raw = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        // The connect blocks for up to `CONNECT_TIMEOUT`: the hello is
        // stamped from when it returned.
        let now_s = self.secs(Instant::now());
        let slot = &mut self.slots[idx];
        slot.connect_seq += 1;
        let mut transport = Transport::under(
            &self.config.chaos,
            ChaosSide::Agent,
            slot.connect_seq,
            self.config.telemetry.clone(),
            None,
        );
        transport.set_node(slot.core.node().id);
        let _ = raw.set_nodelay(true);
        // Socket is still blocking here, so hello + flush go out whole;
        // `Reactor::insert` flips it nonblocking.
        transport.send(&slot.core.connected(now_s), now_s)?;
        transport.flush(&mut raw, now_s)?;
        slot.token = Some(self.reactor.insert(raw, transport, idx)?);
        Ok(())
    }

    /// A slot's link is gone or no good: drop its socket if it has one,
    /// no goodbye, and tell the core, whose ticks say when to connect
    /// again — never, if it was refused for good.
    fn disconnect(&mut self, idx: usize, now: Instant) {
        let now_s = self.secs(now);
        let slot = &mut self.slots[idx];
        if let Some(token) = slot.token.take() {
            self.reactor.remove(token);
        }
        // Read before the core hears of the loss, which ends the phase.
        if slot.core.phase() == Phase::Running {
            self.stats.connected.fetch_sub(1, Ordering::SeqCst);
        }
        slot.core.lost(now_s);
    }

    /// One wall-clock tick of an agent, due at `when` and fired at
    /// `now`: connect, or ship what the core owes — every tick flushes,
    /// so a chaos-delayed frame, the hello included, moves on the flush
    /// that finds it due — and drop a link that could not open, that the
    /// core calls silent or that the shipping found no good.
    fn tick(&mut self, idx: usize, when: Instant, now: Instant) {
        let now_s = self.secs(now);
        let ok = match self.slots[idx].core.tick(now_s) {
            Tick::Connect => self.connect(idx).is_ok(),
            Tick::Silent => false,
            Tick::Flush => self.ship(idx, None, now_s),
            Tick::Summary(summary) => self.ship(idx, Some(summary), now_s),
        };
        let now = Instant::now();
        if !ok {
            self.disconnect(idx, now);
        }
        if self.slots[idx].core.phase() != Phase::Dead {
            // Drift-free cadence, until refused for good: schedule off the
            // previous deadline, but never pile further into the past
            // than "now".
            let next = (when + self.config.pace).max(now);
            self.timers.push(Reverse((next, idx)));
        }
    }

    /// Send what is due on a slot's link at `now_s` — a summary if there
    /// is one, whatever is queued or has come due always; false when the
    /// link has failed or has backed up past [`MAX_QUEUED_BYTES`].
    fn ship(&mut self, idx: usize, summary: Option<NodeSummary>, now_s: f64) -> bool {
        let slot = &mut self.slots[idx];
        let Some(token) = slot.token else {
            return true;
        };
        let Some((transport, stream, _)) = self.reactor.get_mut(token) else {
            return false;
        };
        if let Some(summary) = summary {
            self.power_w += summary.power_w - slot.power_w;
            slot.power_w = summary.power_w;
            self.stats
                .power_bits
                .store(self.power_w.to_bits(), Ordering::SeqCst);
            if transport.send(&WireMsg::Summary(summary), now_s).is_err() {
                return false;
            }
            self.stats.summaries_sent.fetch_add(1, Ordering::SeqCst);
        }
        if transport.flush(stream, now_s).is_err() || transport.queued_bytes() > MAX_QUEUED_BYTES {
            return false;
        }
        let _ = self.reactor.update_interest(token);
        true
    }

    /// Drain everything readable on a slot's socket, hand each frame to
    /// the core and count what it says happened.
    fn readable(&mut self, idx: usize, now: Instant) {
        let now_s = self.secs(now);
        let Some(token) = self.slots[idx].token else {
            return;
        };
        let Some((transport, stream, _)) = self.reactor.get_mut(token) else {
            return;
        };
        if matches!(transport.fill(stream, now_s), Ok(FillStatus::Eof) | Err(_)) {
            return self.disconnect(idx, now);
        }
        while let Some((transport, _, _)) = self.reactor.get_mut(token) {
            let msg = match transport.next_msg() {
                Ok(Some(msg)) => msg,
                Ok(None) => return,
                // Desynchronised downlink: reconnect.
                Err(_) => return self.disconnect(idx, now),
            };
            match self.slots[idx].core.frame(&msg, now_s) {
                Heard::Nothing => {}
                Heard::Accepted { reconnect } => {
                    if reconnect {
                        self.stats.reconnects.fetch_add(1, Ordering::SeqCst);
                    }
                    self.stats.connected.fetch_add(1, Ordering::SeqCst);
                }
                Heard::Applied => {
                    self.stats.ceilings_applied.fetch_add(1, Ordering::SeqCst);
                }
                Heard::Fenced => {
                    self.stats.epochs_fenced.fetch_add(1, Ordering::SeqCst);
                    return self.disconnect(idx, now);
                }
                Heard::Refused => {
                    self.stats.version_rejects.fetch_add(1, Ordering::SeqCst);
                    return self.disconnect(idx, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{CoordinatorConfig, CoordinatorServer};
    use fvs_sched::FvsstAlgorithm;
    use fvs_sim::MachineBuilder;
    use fvs_workloads::WorkloadSpec;

    fn wait_until(deadline_s: u64, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(deadline_s);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }

    #[test]
    fn fleet_connects_reports_and_applies_ceilings() {
        let n = 8;
        let server = CoordinatorServer::bind(
            "127.0.0.1:0",
            n,
            FvsstAlgorithm::p630(),
            CoordinatorConfig::default_lan().with_period_s(0.05),
        )
        .unwrap();
        let nodes: Vec<ClusterNode> = (0..n)
            .map(|i| {
                let mut b = MachineBuilder::p630();
                for core in 0..4 {
                    b = b.workload(core, WorkloadSpec::synthetic(0.0, 1.0e18));
                }
                ClusterNode::new(i, b.build(), None)
            })
            .collect();
        let config = AgentConfig::default_lan()
            .with_tick_s(0.02)
            .with_summary_every(2);
        let fleet = AgentFleet::launch(
            nodes,
            server.local_addr(),
            config,
            Duration::from_millis(100),
        )
        .unwrap();
        let stats = fleet.stats();
        assert!(
            wait_until(20, || stats.connected() == n as u64
                && stats.summaries_sent() > 2 * n as u64
                && stats.ceilings_applied() > 0),
            "fleet never converged: connected={} summaries={} ceilings={}",
            stats.connected(),
            stats.summaries_sent(),
            stats.ceilings_applied()
        );
        let final_stats = fleet.stop();
        let status = server.shutdown().unwrap();
        assert!(status.nodes_reporting > 0);
        assert_eq!(final_stats.version_rejects(), 0);
    }
}
