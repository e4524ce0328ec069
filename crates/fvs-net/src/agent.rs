//! The node agent: one machine's measurement daemon on a socket.
//!
//! A [`NodeAgent`] runs a [`ClusterNode`] (machine + local predictor —
//! the same per-core sampling path the multi-threaded daemon's
//! collectors feed) on its own thread: tick the machine, close the
//! measurement window every `summary_every` ticks, ship the
//! [`NodeSummary`] upstream, and apply whatever frequency ceilings come
//! back. When the link drops the agent reconnects with the exponential
//! backoff discipline of the degradation ladder — a seedable,
//! equal-jitter [`ReconnectLadder`]: base, 2×, 4×, … up to a ceiling,
//! each rung drawn uniformly from [rung/2, rung] so a herd of agents
//! losing one coordinator does not reconnect in lockstep — while the
//! machine keeps running at its last-commanded frequencies (exactly the
//! mute-but-running scenario the coordinator's conservative charging
//! defends against).
//!
//! Epoch fencing: the agent remembers the highest coordinator epoch it
//! has ever acknowledged and refuses to serve a coordinator presenting
//! a lower one — whether at handshake (a refused hello, or an ack
//! carrying a stale epoch) or mid-connection (a stale heartbeat). A
//! fenced coordinator is retried through the ladder, because the fence
//! is about *which* coordinator is current, not a permanent protocol
//! mismatch; only a schema-version refusal is terminal.

use crate::chaos::{ChaosSide, ChaosStream};
use crate::error::FvsError;
use crate::transport::{FillStatus, Transport};
use crate::wire::{WireCodec, WireMsg, CODEC_ALL, CODEC_JSON_BIT, SCHEMA_VERSION};
use crate::WireChaos;
use fvs_cluster::ClusterNode;
use fvs_sim::Pacer;
use fvs_telemetry::{Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seedable equal-jitter exponential backoff: rung `k` sleeps a
/// uniform draw from `[base·2ᵏ/2, base·2ᵏ]`, capped at `max`. Pure
/// state machine — the caller does the sleeping — so the jitter
/// distribution is unit-testable without a clock.
#[derive(Debug)]
pub struct ReconnectLadder {
    base: Duration,
    max: Duration,
    rung: Duration,
    rng: StdRng,
}

impl ReconnectLadder {
    /// A ladder climbing from `base` to `max`, jittered by `seed`.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        ReconnectLadder {
            base,
            max: max.max(base),
            rung: base,
            rng: StdRng::seed_from_u64(seed ^ 0xBACC_0FF5_EED5_0DA5),
        }
    }

    /// The next delay to sleep: equal-jitter on the current rung, then
    /// climb (doubling, capped at the ceiling).
    pub fn next_delay(&mut self) -> Duration {
        let jitter = 0.5 + 0.5 * self.rng.gen::<f64>();
        let delay = self.rung.mul_f64(jitter);
        self.rung = (self.rung * 2).min(self.max);
        delay
    }

    /// The rung the *next* `next_delay` will jitter around.
    pub fn rung(&self) -> Duration {
        self.rung
    }

    /// Back to the bottom rung (called on a successful handshake).
    pub fn reset(&mut self) {
        self.rung = self.base;
    }
}

/// Tunables of one node agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Simulated seconds each machine tick advances.
    pub tick_s: f64,
    /// Ticks per summary (the paper's `n`: window per report).
    pub summary_every: u32,
    /// Wall-clock pacing per tick (zero = free-running).
    pub pace: Duration,
    /// Real-time mode: pace each tick to exactly `tick_s` of wall time
    /// (absolute deadlines, drift-free), so one simulated second takes
    /// one wall second — the honest way to soak a live coordinator on
    /// the paper's real `t = 10 ms` sampling cadence. Overrides `pace`.
    pub timed: bool,
    /// First reconnect delay of the backoff ladder.
    pub backoff_base: Duration,
    /// Ceiling of the backoff ladder.
    pub backoff_max: Duration,
    /// Seed for the ladder's jitter (mixed with the node id, so a
    /// fleet sharing one config still spreads out).
    pub jitter_seed: u64,
    /// Declare the link dead when nothing — ceiling, heartbeat,
    /// anything — arrives for this long, and reconnect. Heartbeats
    /// from the coordinator make this time-bounded even on rounds that
    /// command the node nothing.
    pub link_timeout: Duration,
    /// Schema version to announce (tests speak wrong versions on
    /// purpose; everything real uses [`SCHEMA_VERSION`]).
    pub version: u32,
    /// Preferred wire codec. JSON is always advertised (it is the
    /// handshake encoding and the floor every peer speaks); preferring
    /// [`WireCodec::Binary`] additionally advertises the `FVS2` fast
    /// path, which the coordinator picks when it too prefers binary.
    pub codec: WireCodec,
    /// Wire-chaos injection on this agent's socket (quiet = pure
    /// passthrough).
    pub chaos: WireChaos,
    /// Causal span tracer: `node.apply` spans, one per ceiling applied
    /// to the machine.
    pub tracer: Tracer,
    /// Event journal (wire-fault events injected by `chaos` land
    /// here).
    pub telemetry: Telemetry,
}

impl AgentConfig {
    /// Paper-flavoured defaults: 10 ms ticks, summary every 10 ticks,
    /// 2 ms pacing, 50 ms → 800 ms backoff ladder.
    pub fn default_lan() -> Self {
        AgentConfig {
            tick_s: 0.01,
            summary_every: 10,
            pace: Duration::from_millis(2),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(800),
            jitter_seed: 0,
            link_timeout: Duration::from_secs(3),
            timed: false,
            version: SCHEMA_VERSION,
            codec: WireCodec::Binary,
            chaos: WireChaos::none(),
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Enable or disable wall-clock real-time pacing (see
    /// [`AgentConfig::timed`]).
    pub fn with_timed(mut self, timed: bool) -> Self {
        self.timed = timed;
        self
    }

    /// Override the simulated tick length.
    pub fn with_tick_s(mut self, tick_s: f64) -> Self {
        self.tick_s = tick_s;
        self
    }

    /// Override the ticks-per-summary window.
    pub fn with_summary_every(mut self, ticks: u32) -> Self {
        self.summary_every = ticks.max(1);
        self
    }

    /// Override the wall-clock pacing.
    pub fn with_pace(mut self, pace: Duration) -> Self {
        self.pace = pace;
        self
    }

    /// Override the backoff ladder.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_max = max;
        self
    }

    /// Seed the reconnect jitter.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Override the dead-link timeout.
    pub fn with_link_timeout(mut self, timeout: Duration) -> Self {
        self.link_timeout = timeout;
        self
    }

    /// Announce a different schema version (version-negotiation tests).
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Set the preferred wire codec (see [`AgentConfig::codec`]).
    pub fn with_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Inject wire chaos on this agent's socket.
    pub fn with_chaos(mut self, chaos: WireChaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attach a causal span tracer.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach an event journal.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn validate(&self) -> Result<(), FvsError> {
        if !(self.tick_s.is_finite() && self.tick_s > 0.0) {
            return Err(FvsError::config("tick_s must be finite and positive"));
        }
        if self.summary_every == 0 {
            return Err(FvsError::config("summary_every must be at least 1"));
        }
        if self.backoff_base > self.backoff_max {
            return Err(FvsError::config("backoff_base exceeds backoff_max"));
        }
        if self.link_timeout.is_zero() {
            return Err(FvsError::config("link_timeout must be positive"));
        }
        Ok(())
    }
}

/// What the agent thread hands back when it exits.
#[derive(Debug, Clone)]
pub struct AgentReport {
    /// The node this agent drove.
    pub node: usize,
    /// Summaries shipped upstream.
    pub summaries_sent: u64,
    /// Ceiling commands applied to the machine.
    pub ceilings_applied: u64,
    /// Times the connection was (re-)established after the first.
    pub reconnects: u64,
    /// Stale coordinators refused (handshake or heartbeat epoch below
    /// the highest this agent has acknowledged).
    pub epochs_fenced: u64,
    /// The coordinator refused our schema version.
    pub version_rejected: bool,
    /// Node power when the agent stopped (W).
    pub final_power_w: f64,
}

/// Live counters of a running agent, updated in place by the agent
/// thread and readable from any thread — the node binary's `/healthz`
/// endpoint reads these without joining the thread.
#[derive(Debug, Default)]
pub struct AgentStats {
    connected: AtomicBool,
    summaries_sent: AtomicU64,
    ceilings_applied: AtomicU64,
    reconnects: AtomicU64,
    epochs_fenced: AtomicU64,
    /// Latest node power as f64 bits.
    power_bits: AtomicU64,
    /// Codec id negotiated on the current connection (0 = none yet).
    codec_id: AtomicU64,
}

impl AgentStats {
    /// Currently connected (past a successful handshake).
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// Summaries shipped upstream so far.
    pub fn summaries_sent(&self) -> u64 {
        self.summaries_sent.load(Ordering::SeqCst)
    }

    /// Ceiling commands applied to the machine so far.
    pub fn ceilings_applied(&self) -> u64 {
        self.ceilings_applied.load(Ordering::SeqCst)
    }

    /// Times the connection was re-established after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::SeqCst)
    }

    /// Stale coordinators fenced so far.
    pub fn epochs_fenced(&self) -> u64 {
        self.epochs_fenced.load(Ordering::SeqCst)
    }

    /// The node's power at the last summary window (W).
    pub fn power_w(&self) -> f64 {
        f64::from_bits(self.power_bits.load(Ordering::SeqCst))
    }

    /// The codec negotiated on the current connection, if any.
    pub fn negotiated_codec(&self) -> Option<WireCodec> {
        match self.codec_id.load(Ordering::SeqCst) as u8 {
            0 => None,
            id => Some(WireCodec::from_id(id)),
        }
    }
}

struct Flags {
    /// Orderly shutdown: send `Bye`, then exit.
    stop: AtomicBool,
    /// Crash simulation: drop everything on the floor and exit.
    kill: AtomicBool,
}

/// Handle to a running agent thread.
pub struct NodeAgentHandle {
    flags: Arc<Flags>,
    stats: Arc<AgentStats>,
    thread: JoinHandle<AgentReport>,
}

impl NodeAgentHandle {
    /// Whether the agent thread has already exited on its own (version
    /// refusal is the one self-terminating path).
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// The agent's live counters (shareable; plain atomics).
    pub fn stats(&self) -> Arc<AgentStats> {
        Arc::clone(&self.stats)
    }

    /// Orderly shutdown: the agent says `Bye` and returns its report.
    pub fn stop(self) -> AgentReport {
        self.flags.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("agent thread panicked")
    }

    /// Crash the agent: the socket just goes dead, no goodbye — from
    /// the coordinator's side this is indistinguishable from a node
    /// failure, which is the point.
    pub fn kill(self) -> AgentReport {
        self.flags.kill.store(true, Ordering::SeqCst);
        self.thread.join().expect("agent thread panicked")
    }
}

/// Spawns and owns one node-agent thread.
pub struct NodeAgent;

impl NodeAgent {
    /// Start an agent driving `node` against the coordinator at `addr`.
    pub fn spawn(
        node: ClusterNode,
        addr: impl Into<String>,
        config: AgentConfig,
    ) -> Result<NodeAgentHandle, FvsError> {
        config.validate()?;
        let addr = addr.into();
        let flags = Arc::new(Flags {
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
        });
        let stats = Arc::new(AgentStats::default());
        let thread_flags = Arc::clone(&flags);
        let thread_stats = Arc::clone(&stats);
        let thread =
            std::thread::spawn(move || agent_loop(node, &addr, config, thread_flags, thread_stats));
        Ok(NodeAgentHandle {
            flags,
            stats,
            thread,
        })
    }
}

/// Sleep `total` in small slices so stop/kill stay responsive.
fn interruptible_sleep(total: Duration, flags: &Flags) {
    let slice = Duration::from_millis(5);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if flags.stop.load(Ordering::SeqCst) || flags.kill.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(slice.min(deadline.saturating_duration_since(Instant::now())));
    }
}

pub(crate) enum Handshake {
    /// Accepted; the coordinator's epoch (to remember as highest-seen)
    /// and the codec it chose from our advertisement.
    Accepted(u64, WireCodec),
    /// Refused over schema version: permanent, stop retrying.
    RefusedVersion,
    /// Refused (or acked) by a coordinator whose epoch is below our
    /// highest-seen: a stale survivor. Retry through the ladder — the
    /// *current* coordinator may come back on this address.
    Fenced,
    Dead,
}

/// The codec advertisement bitmask for a preference: JSON is always on
/// the table; preferring binary adds the `FVS2` bit.
pub(crate) fn advertised_codecs(prefer: WireCodec) -> u8 {
    match prefer {
        WireCodec::Json => CODEC_JSON_BIT,
        WireCodec::Binary => CODEC_ALL,
    }
}

/// Send `Hello`, wait briefly for the coordinator's verdict. On accept,
/// the transport's write codec is switched to the negotiated one.
pub(crate) fn handshake(
    transport: &mut Transport,
    node: usize,
    procs: usize,
    version: u32,
    last_epoch: u64,
    codecs: u8,
) -> Handshake {
    let hello = WireMsg::Hello {
        node,
        procs,
        version,
        last_epoch,
        codecs,
    };
    if transport.send(&hello).is_err() || transport.flush().is_err() {
        return Handshake::Dead;
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        match transport.fill() {
            Ok(FillStatus::Eof) | Err(_) => return Handshake::Dead,
            Ok(_) => {}
        }
        loop {
            match transport.next_msg() {
                Ok(Some(WireMsg::HelloAck {
                    accepted: true,
                    epoch,
                    codec,
                    ..
                })) => {
                    if epoch < last_epoch {
                        // An old-build coordinator (epoch 0) — or a
                        // stale one that doesn't know to refuse us.
                        // Either way, not the coordinator we last
                        // obeyed: fence it ourselves.
                        return Handshake::Fenced;
                    }
                    // An unknown codec id from a newer peer degrades to
                    // JSON — the floor both sides always speak.
                    let chosen = WireCodec::from_id(codec);
                    transport.set_codec(chosen);
                    return Handshake::Accepted(epoch, chosen);
                }
                Ok(Some(WireMsg::HelloAck {
                    accepted: false,
                    version: their_version,
                    epoch,
                    ..
                })) => {
                    if their_version == version && epoch < last_epoch {
                        return Handshake::Fenced;
                    }
                    return Handshake::RefusedVersion;
                }
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => return Handshake::Dead,
            }
        }
    }
    Handshake::Dead
}

fn agent_loop(
    mut node: ClusterNode,
    addr: &str,
    config: AgentConfig,
    flags: Arc<Flags>,
    stats: Arc<AgentStats>,
) -> AgentReport {
    let node_id = node.id;
    let procs = node.machine().num_cores();
    let mut report = AgentReport {
        node: node_id,
        summaries_sent: 0,
        ceilings_applied: 0,
        reconnects: 0,
        epochs_fenced: 0,
        version_rejected: false,
        final_power_w: 0.0,
    };
    let mut ladder = ReconnectLadder::new(
        config.backoff_base,
        config.backoff_max,
        config.jitter_seed ^ (node_id as u64).wrapping_mul(0x517C_C1B7_2722_0A95),
    );
    let mut ever_connected = false;
    // Highest coordinator epoch ever acknowledged: the fence.
    let mut last_epoch = 0u64;
    let chaos_start = Instant::now();
    let mut connect_seq = 0u64;
    let fence = |report: &mut AgentReport| {
        report.epochs_fenced += 1;
        stats.epochs_fenced.fetch_add(1, Ordering::SeqCst);
    };

    'outer: loop {
        if flags.stop.load(Ordering::SeqCst) || flags.kill.load(Ordering::SeqCst) {
            break;
        }
        let raw = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                // The reconnect ladder: jittered base, 2×, 4×, … cap.
                interruptible_sleep(ladder.next_delay(), &flags);
                continue;
            }
        };
        connect_seq += 1;
        let stream = ChaosStream::wrap(
            raw,
            &config.chaos,
            ChaosSide::Agent,
            connect_seq,
            chaos_start,
            config.telemetry.clone(),
            None,
        );
        stream.set_node(node_id);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
        let mut transport = Transport::new(stream);
        match handshake(
            &mut transport,
            node_id,
            procs,
            config.version,
            last_epoch,
            advertised_codecs(config.codec),
        ) {
            Handshake::Accepted(epoch, codec) => {
                last_epoch = epoch;
                stats.codec_id.store(codec.id() as u64, Ordering::SeqCst);
            }
            Handshake::RefusedVersion => {
                // A version refusal is permanent: retrying with the
                // same schema can never succeed, so don't storm.
                report.version_rejected = true;
                break 'outer;
            }
            Handshake::Fenced => {
                fence(&mut report);
                interruptible_sleep(ladder.next_delay(), &flags);
                continue;
            }
            Handshake::Dead => {
                interruptible_sleep(ladder.next_delay(), &flags);
                continue;
            }
        }
        if ever_connected {
            report.reconnects += 1;
            stats.reconnects.fetch_add(1, Ordering::SeqCst);
        }
        ever_connected = true;
        stats.connected.store(true, Ordering::SeqCst);
        ladder.reset();

        let mut ticks = 0u32;
        // Dead-link detection: any frame (ceiling or heartbeat) feeds
        // this; silence past `link_timeout` forces a reconnect.
        let mut last_rx = Instant::now();
        // Real-time mode: anchor the pacer at connection time so every
        // tick lands on an absolute deadline from here on out.
        let mut pacer = config
            .timed
            .then(|| Pacer::new(Duration::from_secs_f64(config.tick_s)));
        loop {
            if flags.kill.load(Ordering::SeqCst) {
                // Crash: no Bye, the socket just stops.
                break 'outer;
            }
            if flags.stop.load(Ordering::SeqCst) {
                transport.send_best_effort(&WireMsg::Bye { node: node_id });
                break 'outer;
            }

            node.tick(config.tick_s);
            ticks += 1;
            if ticks.is_multiple_of(config.summary_every) {
                let summary = node.summarize();
                stats
                    .power_bits
                    .store(summary.power_w.to_bits(), Ordering::SeqCst);
                if transport.send(&WireMsg::Summary(summary)).is_err() || transport.flush().is_err()
                {
                    // Link dropped mid-summary: climb the ladder.
                    break;
                }
                report.summaries_sent += 1;
                stats.summaries_sent.fetch_add(1, Ordering::SeqCst);
            } else {
                // Keep chaos-delayed frames moving between summaries.
                if transport.flush().is_err() {
                    break;
                }
            }

            // Take whatever ceilings arrived. With nothing to read,
            // `fill` waits out the 1 ms read timeout (`Idle`) — the only
            // pacing slack it gives; once data came it returns at once,
            // and anything behind a short read is picked up next tick.
            let mut link_dead = false;
            match transport.fill() {
                Ok(FillStatus::Eof) => link_dead = true, // coordinator went away
                Ok(FillStatus::Progress) => {
                    last_rx = Instant::now();
                    loop {
                        match transport.next_msg() {
                            Ok(Some(WireMsg::Ceiling(cmd))) => {
                                if cmd.node == node_id {
                                    let _apply = config.tracer.span("node.apply");
                                    node.apply(&cmd.freqs);
                                    report.ceilings_applied += 1;
                                    stats.ceilings_applied.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Ok(Some(WireMsg::Heartbeat { epoch })) => {
                                if epoch < last_epoch {
                                    // A stale coordinator is feeding
                                    // this link: fence mid-connection.
                                    fence(&mut report);
                                    link_dead = true;
                                    break;
                                }
                                last_epoch = epoch;
                            }
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(_) => {
                                // Desynchronised downlink: reconnect.
                                link_dead = true;
                                break;
                            }
                        }
                    }
                }
                Ok(FillStatus::Idle) => {}
                Err(_) => link_dead = true,
            }
            if last_rx.elapsed() > config.link_timeout {
                link_dead = true;
            }
            if link_dead {
                break;
            }

            if let Some(pacer) = pacer.as_mut() {
                pacer.pace();
            } else if !config.pace.is_zero() {
                std::thread::sleep(config.pace);
            }
        }
        // Only reachable when the link dropped (exits via 'outer skip
        // this): reflect the disconnect before climbing the ladder.
        stats.connected.store(false, Ordering::SeqCst);
        stats.codec_id.store(0, Ordering::SeqCst);
    }

    stats.connected.store(false, Ordering::SeqCst);
    report.final_power_w = node.power_w();
    stats
        .power_bits
        .store(report.final_power_w.to_bits(), Ordering::SeqCst);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_climbs_doubles_and_caps() {
        let mut ladder =
            ReconnectLadder::new(Duration::from_millis(50), Duration::from_millis(400), 7);
        let expected_rungs = [50u64, 100, 200, 400, 400, 400];
        for &rung_ms in &expected_rungs {
            let rung = Duration::from_millis(rung_ms);
            assert_eq!(ladder.rung(), rung);
            let d = ladder.next_delay();
            assert!(
                d >= rung / 2 && d <= rung,
                "delay {d:?} outside [{rung:?}/2, {rung:?}]"
            );
        }
        ladder.reset();
        assert_eq!(ladder.rung(), Duration::from_millis(50));
    }

    /// Satellite: the jitter actually spreads a fleet out. Across many
    /// seeds the first-rung delays must cover the [base/2, base] range
    /// instead of clustering — we check both ends of the range get
    /// hits and that not everyone draws the same delay.
    #[test]
    fn jitter_spreads_distinct_seeds_across_the_rung() {
        let base = Duration::from_millis(100);
        let max = Duration::from_secs(1);
        let delays: Vec<Duration> = (0u64..64)
            .map(|seed| ReconnectLadder::new(base, max, seed).next_delay())
            .collect();
        for d in &delays {
            assert!(*d >= base / 2 && *d <= base);
        }
        let lower_half = delays.iter().filter(|d| **d < base * 3 / 4).count();
        let upper_half = delays.len() - lower_half;
        assert!(
            lower_half >= 10 && upper_half >= 10,
            "jitter is not spreading: {lower_half} low vs {upper_half} high"
        );
        let first = delays[0];
        assert!(
            delays.iter().any(|d| *d != first),
            "every seed drew the same delay"
        );
    }

    #[test]
    fn same_seed_same_jitter_sequence() {
        let mk = || {
            let mut l =
                ReconnectLadder::new(Duration::from_millis(80), Duration::from_millis(640), 42);
            (0..6).map(|_| l.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
