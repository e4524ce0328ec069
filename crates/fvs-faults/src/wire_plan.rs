//! The message-fault model: what can happen to a frame in flight.
//!
//! [`WireFaultPlan`] extends the host-level [`FaultPlan`] grammar down
//! to the socket: per-frame drop / delay / duplication / corruption
//! rates, connection resets, and scripted one-way partitions.
//! [`WireFaultPlan::frame_fault`] is the one decision a frame takes, in
//! fvs-net's `Transport`, on a socket and on `ClusterSim`'s simulated
//! wire alike.
//!
//! One-way partitions are first-class because the paper's conservative
//! charging discipline treats them differently: an *uplink*-dead node
//! (summaries lost) must be charged its last-known ceiling, while a
//! *downlink*-dead node (commands lost) silently keeps running its old
//! frequency — the coordinator's charge must cover both.

use crate::plan::{parse_nonneg, parse_rate, PlanParseError};
use fvs_telemetry::WireFaultKind;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// What one frame in flight suffers ([`WireFaultPlan::frame_fault`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteFault {
    /// The frame arrives as sent.
    Deliver,
    /// The frame is lost: a drop, or a partition window.
    Drop,
    /// These bytes arrive instead (truncated or bit-flipped).
    Corrupt(Vec<u8>),
    /// The frame arrives twice.
    Duplicate,
    /// The frame arrives this much later than it would have.
    Delay(Duration),
    /// The connection closes at once; the frame goes nowhere.
    Reset,
}

/// Which direction of a connection a scripted partition blackholes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionDirection {
    /// Traffic toward the coordinator is dropped (summaries lost);
    /// commands still arrive.
    Uplink,
    /// Traffic toward the agent is dropped (commands lost); summaries
    /// still arrive.
    Downlink,
    /// Both directions are dropped (the classic partition).
    Both,
}

/// A scripted partition: `node`'s traffic is blackholed (in the given
/// direction) during `[from_s, until_s)`, measured on the clock of
/// whoever carries the frames: a socket's wall clock since launch, or
/// `ClusterSim`'s virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSpec {
    /// The node whose connection is partitioned.
    pub node: usize,
    /// When the partition starts (s).
    pub from_s: f64,
    /// When it heals (s); `f64::INFINITY` means never.
    pub until_s: f64,
    /// Which direction dies.
    pub direction: PartitionDirection,
}

impl PartitionSpec {
    /// Whether this spec blackholes `direction`-bound traffic for
    /// `node` at time `now_s`.
    pub fn active(&self, node: usize, now_s: f64) -> bool {
        self.node == node && now_s >= self.from_s && now_s < self.until_s
    }
}

/// What can go wrong on the wire, and how often. Rates are per-frame
/// probabilities; partitions are scripted windows. The default plan is
/// quiet: a transport built under it holds no fault state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireFaultPlan {
    /// Per-frame probability the frame is silently dropped.
    pub drop_rate: f64,
    /// Per-frame probability the frame is held back by
    /// [`delay_s`](WireFaultPlan::delay_s).
    pub delay_rate: f64,
    /// How long a delayed frame is held (s).
    pub delay_s: f64,
    /// Per-frame probability the frame is delivered twice.
    pub duplicate_rate: f64,
    /// Per-frame probability the frame is truncated or bit-flipped.
    pub corrupt_rate: f64,
    /// Per-frame probability the connection is reset instead of
    /// carrying the frame.
    pub reset_rate: f64,
    /// Scripted (possibly one-way) partitions.
    pub partitions: Vec<PartitionSpec>,
}

impl WireFaultPlan {
    /// The empty plan: the wire is perfect.
    pub fn none() -> Self {
        WireFaultPlan::default()
    }

    /// True when the plan can never produce a fault — a transport built
    /// under a quiet plan writes exactly the encoded frames.
    pub fn is_quiet(&self) -> bool {
        self.drop_rate <= 0.0
            && self.delay_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.reset_rate <= 0.0
            && self.partitions.is_empty()
    }

    /// The default wire-chaos mix: gentle per-frame rates in every
    /// class (the budget must stay *enforceable* under the plan — the
    /// kill-and-resume soak asserts compliance with this active) plus
    /// one 1.5 s full partition of node 1.
    pub fn chaos() -> Self {
        WireFaultPlan {
            drop_rate: 0.05,
            delay_rate: 0.05,
            delay_s: 0.05,
            duplicate_rate: 0.02,
            corrupt_rate: 0.01,
            reset_rate: 0.005,
            partitions: vec![PartitionSpec {
                node: 1,
                from_s: 2.0,
                until_s: 3.5,
                direction: PartitionDirection::Both,
            }],
        }
    }

    /// Parse a standalone wire plan from the compact spec (the
    /// `--chaos` flag). This is the full [`FaultPlan`](crate::FaultPlan)
    /// grammar with only the wire clauses retained, so
    /// `wire=0.05,partition=2@5:9` and the `chaos` / `none` presets all
    /// work.
    pub fn parse(spec: &str) -> Result<WireFaultPlan, PlanParseError> {
        crate::FaultPlan::parse(spec).map(|p| p.wire)
    }

    /// The partition window, if any, blackholing `node`'s traffic in one
    /// direction (`uplink`: toward the coordinator) at `now_s`.
    pub fn partitioned(&self, node: usize, uplink: bool, now_s: f64) -> Option<WireFaultKind> {
        // A one-way partition the other way spares this traffic.
        let (spared, kind) = if uplink {
            (PartitionDirection::Downlink, WireFaultKind::PartitionUp)
        } else {
            (PartitionDirection::Uplink, WireFaultKind::PartitionDown)
        };
        let mut active = self.partitions.iter().filter(|p| p.active(node, now_s));
        active.any(|p| p.direction != spared).then_some(kind)
    }

    /// The fault `frame`, on `node`'s connection toward the coordinator
    /// (`uplink`) or away from it at `now_s`, takes, and its kind for the
    /// journal; `None` when it arrives as sent. A partition window first,
    /// then reset, drop, corrupt, duplicate, delay: each rate that is
    /// positive draws from `rng`, so a run replays from the seed.
    pub fn frame_fault(
        &self,
        frame: &[u8],
        node: usize,
        uplink: bool,
        now_s: f64,
        rng: &mut StdRng,
    ) -> Option<(WireFaultKind, WriteFault)> {
        let rates = [
            (self.reset_rate, WireFaultKind::Reset),
            (self.drop_rate, WireFaultKind::Drop),
            (self.corrupt_rate, WireFaultKind::Corrupt),
            (self.duplicate_rate, WireFaultKind::Duplicate),
            (self.delay_rate, WireFaultKind::Delay),
        ];
        let mut fires = rates
            .into_iter()
            .filter(|&(rate, _)| rate > 0.0 && rng.gen::<f64>() < rate);
        let kind = self
            .partitioned(node, uplink, now_s)
            .or_else(|| Some(fires.next()?.1))?;
        let fault = match kind {
            WireFaultKind::Reset => WriteFault::Reset,
            WireFaultKind::Corrupt => WriteFault::Corrupt(mangle(frame, rng)),
            WireFaultKind::Duplicate => WriteFault::Duplicate,
            WireFaultKind::Delay => {
                WriteFault::Delay(Duration::from_secs_f64(self.delay_s.max(0.0)))
            }
            _ => WriteFault::Drop,
        };
        Some((kind, fault))
    }

    pub(crate) fn parse_clause(
        &mut self,
        key: &str,
        clause: &str,
        value: &str,
    ) -> Result<bool, PlanParseError> {
        match key {
            "wire" => self.drop_rate = parse_rate(clause, value)?,
            "delay" => match value.split_once(':') {
                Some((rate, hold)) => {
                    self.delay_rate = parse_rate(clause, rate)?;
                    self.delay_s = parse_nonneg(clause, hold)?;
                }
                None => {
                    self.delay_rate = parse_rate(clause, value)?;
                    self.delay_s = 0.05;
                }
            },
            "wdup" => self.duplicate_rate = parse_rate(clause, value)?,
            "corrupt" => self.corrupt_rate = parse_rate(clause, value)?,
            "reset" => self.reset_rate = parse_rate(clause, value)?,
            "partition" => {
                self.partitions
                    .push(parse_partition(clause, value, PartitionDirection::Both)?)
            }
            "partition_up" => {
                self.partitions
                    .push(parse_partition(clause, value, PartitionDirection::Uplink)?)
            }
            "partition_down" => self.partitions.push(parse_partition(
                clause,
                value,
                PartitionDirection::Downlink,
            )?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A corrupted copy of `frame`: half the time the tail never arrives,
/// otherwise one bit somewhere in it is flipped.
fn mangle(frame: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    if rng.gen::<f64>() < 0.5 && bytes.len() > 1 {
        let keep = rng.gen_range(1..bytes.len());
        bytes.truncate(keep);
    } else if !bytes.is_empty() {
        let at = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u32..8);
        bytes[at] ^= 1 << bit;
    }
    bytes
}

fn parse_partition(
    clause: &str,
    value: &str,
    direction: PartitionDirection,
) -> Result<PartitionSpec, PlanParseError> {
    let (node, window) = value
        .split_once('@')
        .ok_or_else(|| PlanParseError::bad(clause, "expected partition=I@T[:T2]"))?;
    let node: usize = node
        .parse()
        .map_err(|_| PlanParseError::bad(clause, "bad node index"))?;
    let (from, until) = match window.split_once(':') {
        Some((f, u)) => (parse_nonneg(clause, f)?, parse_nonneg(clause, u)?),
        None => (parse_nonneg(clause, window)?, f64::INFINITY),
    };
    if until <= from {
        return Err(PlanParseError::bad(
            clause,
            "partition must end after it starts",
        ));
    }
    Ok(PartitionSpec {
        node,
        from_s: from,
        until_s: until,
        direction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_quiet() {
        assert!(WireFaultPlan::none().is_quiet());
        assert!(WireFaultPlan::parse("").unwrap().is_quiet());
        assert!(WireFaultPlan::parse("none").unwrap().is_quiet());
    }

    #[test]
    fn chaos_preset_parses_and_is_not_quiet() {
        let p = WireFaultPlan::parse("chaos").unwrap();
        assert_eq!(p, WireFaultPlan::chaos());
        assert!(!p.is_quiet());
    }

    #[test]
    fn wire_grammar_round_trips() {
        let p = WireFaultPlan::parse(
            "wire=0.05, delay=0.1:0.2, wdup=0.02, corrupt=0.01, reset=0.005, \
             partition=2@5:9, partition_up=1@3, partition_down=0@1:2",
        )
        .unwrap();
        assert_eq!(p.drop_rate, 0.05);
        assert_eq!(p.delay_rate, 0.1);
        assert_eq!(p.delay_s, 0.2);
        assert_eq!(p.duplicate_rate, 0.02);
        assert_eq!(p.corrupt_rate, 0.01);
        assert_eq!(p.reset_rate, 0.005);
        assert_eq!(p.partitions.len(), 3);
        assert_eq!(p.partitions[0].direction, PartitionDirection::Both);
        assert_eq!(p.partitions[0].node, 2);
        assert_eq!(p.partitions[0].from_s, 5.0);
        assert_eq!(p.partitions[0].until_s, 9.0);
        assert_eq!(p.partitions[1].direction, PartitionDirection::Uplink);
        assert!(p.partitions[1].until_s.is_infinite());
        assert_eq!(p.partitions[2].direction, PartitionDirection::Downlink);
    }

    #[test]
    fn delay_hold_defaults_when_omitted() {
        let p = WireFaultPlan::parse("delay=0.3").unwrap();
        assert_eq!(p.delay_rate, 0.3);
        assert_eq!(p.delay_s, 0.05);
    }

    #[test]
    fn bad_wire_specs_are_rejected() {
        for spec in [
            "wire=1.5",
            "wire=nan",
            "partition=x@1",
            "partition=1@2:1",
            "reset=-0.1",
        ] {
            assert!(WireFaultPlan::parse(spec).is_err(), "{spec}");
        }
    }

    #[test]
    fn one_way_partition_windows_direction_logic() {
        let up = PartitionSpec {
            node: 1,
            from_s: 2.0,
            until_s: 3.0,
            direction: PartitionDirection::Uplink,
        };
        assert!(up.active(1, 2.0));
        assert!(up.active(1, 2.9));
        assert!(!up.active(1, 3.0), "half-open window");
        assert!(!up.active(0, 2.5), "other nodes unaffected");
        // Which traffic each direction blackholes, toward the coordinator
        // (`uplink`) and away from it.
        for (direction, up_lost, down_lost) in [
            (PartitionDirection::Uplink, true, false),
            (PartitionDirection::Downlink, false, true),
            (PartitionDirection::Both, true, true),
        ] {
            let plan = WireFaultPlan {
                partitions: vec![PartitionSpec { direction, ..up }],
                ..WireFaultPlan::none()
            };
            assert_eq!(plan.partitioned(1, true, 2.5).is_some(), up_lost);
            assert_eq!(plan.partitioned(1, false, 2.5).is_some(), down_lost);
            assert_eq!(plan.partitioned(1, true, 3.0), None, "healed");
        }
    }
}
