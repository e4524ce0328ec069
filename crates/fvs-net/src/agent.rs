//! The node agent: one machine's measurement daemon on a socket.
//!
//! An agent drives a [`ClusterNode`] (machine + local predictor — the
//! same per-core sampling path the multi-threaded daemon's collectors
//! feed): tick the machine, close the measurement window every
//! `summary_every` ticks, ship the [`fvs_cluster::NodeSummary`]
//! upstream, and apply whatever frequency ceilings come back. When the
//! link drops it reconnects up a [`ReconnectLadder`] while the machine
//! keeps running at its last-commanded frequencies — exactly the
//! mute-but-running scenario the coordinator's conservative charging
//! defends against. It remembers the highest coordinator epoch it has
//! acknowledged and serves none below it: [`verdict`] is that rule, and
//! every other rule about a received frame.
//!
//! The loop that does all this is [`crate::fleet`]'s, for one agent as
//! for ten thousand; [`NodeAgent`] is that loop with one slot. This
//! module holds what is the agent's own and needs no socket: tunables,
//! counters, the ladder and the protocol rules.

use crate::error::FvsError;
use crate::fleet::{self, FleetHandle, FleetStats, END_BYE, END_SILENT};
use crate::wire::{WireCodec, WireMsg, CODEC_ALL, CODEC_JSON_BIT, SCHEMA_VERSION};
use crate::WireChaos;
use fvs_cluster::{ClusterNode, FrequencyCommand};
use fvs_telemetry::{Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Seedable equal-jitter exponential backoff: rung `k` sleeps a
/// uniform draw from `[base·2ᵏ/2, base·2ᵏ]`, capped at `max`, so a herd
/// of agents losing one coordinator does not come back in lockstep. Pure
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
    /// Wall time per tick of a [`NodeAgent`] that is not `timed` (zero
    /// = free-running). An [`AgentFleet`](crate::AgentFleet) ignores it.
    pub pace: Duration,
    /// Real-time mode: each tick takes exactly `tick_s` of wall time
    /// (absolute deadlines, drift-free), so one simulated second takes
    /// one wall second — the honest way to soak a live coordinator on
    /// the paper's real `t = 10 ms` sampling cadence. Overrides `pace`;
    /// an [`AgentFleet`](crate::AgentFleet) always runs this way.
    pub timed: bool,
    /// First reconnect delay of the backoff ladder.
    pub backoff_base: Duration,
    /// Ceiling of the backoff ladder.
    pub backoff_max: Duration,
    /// Seed for the ladder's jitter (mixed with the node id, so a
    /// fleet sharing one config still spreads out).
    pub jitter_seed: u64,
    /// Declare the link dead, and reconnect, when this long passes
    /// without a frame that decodes — any frame: an ack, a heartbeat, a
    /// ceiling, one addressed to another node. Bytes that do not parse
    /// prove nothing about the coordinator and do not count. Heartbeats
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

    /// Checked once, by [`fleet::spawn`], before any agent loop starts.
    pub(crate) fn validate(&self) -> Result<(), FvsError> {
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

/// What a stopped agent hands back.
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

/// Live counters of a running agent, readable from any thread — the
/// node binary's `/healthz` endpoint reads these without joining the
/// agent. A view of its one-slot fleet's [`FleetStats`].
#[derive(Debug)]
pub struct AgentStats {
    fleet: Arc<FleetStats>,
}

impl AgentStats {
    /// Currently connected (past a successful handshake).
    pub fn connected(&self) -> bool {
        self.fleet.connected() > 0
    }

    /// Summaries shipped upstream so far.
    pub fn summaries_sent(&self) -> u64 {
        self.fleet.summaries_sent()
    }

    /// Ceiling commands applied to the machine so far.
    pub fn ceilings_applied(&self) -> u64 {
        self.fleet.ceilings_applied()
    }

    /// Times the connection was re-established after the first.
    pub fn reconnects(&self) -> u64 {
        self.fleet.reconnects()
    }

    /// Stale coordinators fenced so far.
    pub fn epochs_fenced(&self) -> u64 {
        self.fleet.epochs_fenced()
    }

    /// The node's power at the last summary window (W).
    pub fn power_w(&self) -> f64 {
        self.fleet.power_w()
    }

    /// The codec negotiated on the current connection, if any.
    pub fn negotiated_codec(&self) -> Option<WireCodec> {
        self.connected().then(|| self.fleet.last_codec())
    }
}

/// Handle to a running agent.
pub struct NodeAgentHandle {
    node: usize,
    fleet: FleetHandle,
}

impl NodeAgentHandle {
    /// Whether the agent has already exited on its own (version
    /// refusal is the one self-terminating path).
    pub fn is_finished(&self) -> bool {
        self.fleet.is_finished()
    }

    /// The agent's live counters (shareable; plain atomics).
    pub fn stats(&self) -> Arc<AgentStats> {
        let fleet = self.fleet.stats();
        Arc::new(AgentStats { fleet })
    }

    /// Orderly shutdown: the agent says `Bye` and returns its report.
    pub fn stop(self) -> AgentReport {
        self.end(END_BYE)
    }

    /// Crash the agent: the socket just goes dead, no goodbye — from
    /// the coordinator's side this is indistinguishable from a node
    /// failure, which is the point.
    pub fn kill(self) -> AgentReport {
        self.end(END_SILENT)
    }

    fn end(self, how: u8) -> AgentReport {
        let stats = self.fleet.end(how);
        AgentReport {
            node: self.node,
            summaries_sent: stats.summaries_sent(),
            ceilings_applied: stats.ceilings_applied(),
            reconnects: stats.reconnects(),
            epochs_fenced: stats.epochs_fenced(),
            version_rejected: stats.version_rejects() > 0,
            final_power_w: stats.power_w(),
        }
    }
}

/// Spawns and owns one node agent: a fleet of one, on one thread.
pub struct NodeAgent;

impl NodeAgent {
    /// Start an agent driving `node` against the coordinator at `addr`.
    /// A tick takes `tick_s` of wall time when the config is `timed`,
    /// `pace` otherwise.
    pub fn spawn(
        node: ClusterNode,
        addr: impl Into<String>,
        config: AgentConfig,
    ) -> Result<NodeAgentHandle, FvsError> {
        let id = node.id;
        let timed = config.timed;
        let fleet = fleet::spawn(vec![node], addr.into(), config, timed, Duration::ZERO)?;
        Ok(NodeAgentHandle { node: id, fleet })
    }
}

/// The codec advertisement bitmask for a preference: JSON is always on
/// the table; preferring binary adds the `FVS2` bit.
pub(crate) fn advertised_codecs(prefer: WireCodec) -> u8 {
    match prefer {
        WireCodec::Json => CODEC_JSON_BIT,
        WireCodec::Binary => CODEC_ALL,
    }
}

/// Where an agent is in the life of its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// No socket: waiting out the ramp stagger or a backoff rung.
    Backoff,
    /// Hello sent, ack awaited.
    Handshaking,
    /// Ticking and shipping summaries.
    Running,
    /// Version-refused: permanently out of the game.
    Dead,
}

/// What a received frame means to the agent that received it.
#[derive(Debug, PartialEq)]
pub(crate) enum Verdict<'a> {
    /// The hello was accepted: adopt the coordinator's epoch, write
    /// under the codec it chose, start running.
    Accept { epoch: u64, codec: WireCodec },
    /// The current coordinator is alive: adopt its epoch.
    Alive { epoch: u64 },
    /// A ceiling for this node: apply it.
    Apply(&'a FrequencyCommand),
    /// The sender's epoch is below the highest this agent has
    /// acknowledged — a stale survivor, or an old build that knows no
    /// epochs. Drop the link and retry through the ladder: the current
    /// coordinator may come back on this address.
    Fence,
    /// Refused over schema version. Retrying with the same schema can
    /// never succeed, so stop for good instead of storming.
    Refused,
    /// Not for this agent, or not for this phase.
    Ignore,
}

/// The agent's protocol rules: what `msg` means to node `node`,
/// speaking schema `version`, in `phase`, having acknowledged epochs up
/// to `last_epoch`. Acks and heartbeats carry their sender's epoch and
/// count only if that is no lower than the fence.
pub(crate) fn verdict(
    phase: Phase,
    msg: &WireMsg,
    last_epoch: u64,
    node: usize,
    version: u32,
) -> Verdict<'_> {
    let (epoch, if_current) = match *msg {
        WireMsg::HelloAck {
            accepted,
            version: theirs,
            epoch,
            codec,
        } if phase == Phase::Handshaking => {
            if !accepted && theirs != version {
                // Another schema: its epoch says nothing about ours.
                return Verdict::Refused;
            }
            // An unknown codec id from a newer peer degrades to JSON —
            // the floor both sides always speak.
            let codec = WireCodec::from_id(codec);
            let accept = Verdict::Accept { epoch, codec };
            (epoch, if accepted { accept } else { Verdict::Refused })
        }
        WireMsg::Heartbeat { epoch } => (epoch, Verdict::Alive { epoch }),
        WireMsg::Ceiling(ref cmd) if phase == Phase::Running && cmd.node == node => {
            return Verdict::Apply(cmd)
        }
        _ => return Verdict::Ignore,
    };
    if epoch < last_epoch {
        Verdict::Fence
    } else {
        if_current
    }
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

    /// The protocol rules, no socket needed: node 3, speaking the
    /// current schema, fenced at epoch 5.
    #[test]
    fn verdict_table() {
        use Phase::{Handshaking, Running};
        use Verdict::{Accept, Alive, Apply, Fence, Ignore, Refused};
        const V: u32 = SCHEMA_VERSION;
        fn at(phase: Phase, msg: &WireMsg) -> Verdict<'_> {
            verdict(phase, msg, 5, 3, V)
        }
        let ack = |accepted, version, epoch, codec| WireMsg::HelloAck {
            accepted,
            version,
            epoch,
            codec,
        };
        let ceiling = |node| {
            let freqs = vec![fvs_model::FreqMhz(600); 4];
            WireMsg::Ceiling(FrequencyCommand { node, freqs })
        };
        let accept = |epoch, codec| Accept { epoch, codec };
        let bin = WireCodec::Binary.id();

        // Acks: the current coordinator, one naming a codec this build
        // has never heard of, a stale one (or an old build at epoch 0).
        let current = ack(true, V, 5, bin);
        assert_eq!(at(Handshaking, &current), accept(5, WireCodec::Binary));
        let newer = ack(true, V, 6, 99);
        assert_eq!(at(Handshaking, &newer), accept(6, WireCodec::Json));
        assert_eq!(at(Handshaking, &ack(true, V, 4, bin)), Fence);
        // Refusals: a stale coordinator speaking our schema is fenced
        // and retried; a current one, or any other schema, is final.
        assert_eq!(at(Handshaking, &ack(false, V, 4, 1)), Fence);
        assert_eq!(at(Handshaking, &ack(false, V, 5, 1)), Refused);
        assert_eq!(at(Handshaking, &ack(false, V + 1, 0, 1)), Refused);
        // Heartbeats fence mid-connection too.
        let beat = |epoch| WireMsg::Heartbeat { epoch };
        assert_eq!(at(Running, &beat(4)), Fence);
        assert_eq!(at(Running, &beat(6)), Alive { epoch: 6 });
        // Ceilings: ours while running, nobody else's, never before the ack.
        let (mine, theirs) = (ceiling(3), ceiling(2));
        let WireMsg::Ceiling(cmd) = &mine else {
            unreachable!()
        };
        assert_eq!(at(Running, &mine), Apply(cmd));
        assert_eq!(at(Running, &theirs), Ignore);
        assert_eq!(at(Handshaking, &mine), Ignore);
        // An ack while running is noise, even a stale one; so is a frame
        // only a coordinator should ever see.
        assert_eq!(at(Running, &ack(true, V, 4, bin)), Ignore);
        assert_eq!(at(Running, &WireMsg::Bye { node: 3 }), Ignore);
    }
}
