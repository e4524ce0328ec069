//! The node agent: one machine's measurement daemon on a socket.
//!
//! An agent drives a [`ClusterNode`](fvs_cluster::ClusterNode), a
//! machine and its local predictor: tick the machine, close the
//! measurement window every `summary_every` ticks, ship the
//! [`fvs_cluster::NodeSummary`] upstream, and apply whatever frequency
//! ceilings come back. When the link drops it reconnects up a
//! [`ReconnectLadder`], and the machine runs on at `f_min` until an
//! accepted link delivers a ceiling, so a node the coordinator cannot
//! command draws the least it can while it is charged.
//!
//! Those rules are [`AgentCore`](crate::AgentCore)'s, which needs no
//! socket. Its drivers — the loop that gives it one, [`crate::fleet`]'s,
//! and [`ClusterSim`](crate::ClusterSim) — tick every agent every
//! period, linked or not, and connect when the core says to. This
//! module holds what they read: the tunables and the ladder.

use crate::error::FvsError;
use crate::wire::SCHEMA_VERSION;
use crate::WireChaos;
use fvs_telemetry::{Telemetry, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    /// Wall time per tick (zero = free-running). A caller that means
    /// real time sets it to `tick_s`, so one simulated second takes one
    /// wall second — the honest way to soak a live coordinator on the
    /// paper's real `t = 10 ms` sampling cadence.
    pub pace: Duration,
    /// First reconnect delay of the backoff ladder.
    pub backoff_base: Duration,
    /// Ceiling of the backoff ladder.
    pub backoff_max: Duration,
    /// Seed for the ladder's jitter (mixed with the node id, so a
    /// fleet sharing one config still spreads out).
    pub jitter_seed: u64,
    /// Declare the link dead, and reconnect, when this long passes
    /// without a frame that decodes — any frame once running, only the
    /// ack before. Bytes that do not parse prove nothing about the
    /// coordinator and do not count. Heartbeats from the coordinator
    /// make this time-bounded even on rounds that command the node
    /// nothing.
    pub link_timeout: Duration,
    /// Schema version to announce (tests speak wrong versions on
    /// purpose; everything real uses [`SCHEMA_VERSION`]).
    pub version: u32,
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
            version: SCHEMA_VERSION,
            chaos: WireChaos::none(),
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Override the simulated tick length.
    pub fn with_tick_s(mut self, tick_s: f64) -> Self {
        self.tick_s = tick_s;
        self
    }

    /// Override the ticks-per-summary window.
    pub fn with_summary_every(mut self, ticks: u32) -> Self {
        self.summary_every = ticks;
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

    /// Checked before any agent runs, by
    /// [`AgentFleet::launch`](crate::AgentFleet::launch) and `ClusterSim`.
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
