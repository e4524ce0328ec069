//! Wire-chaos configuration: [`WireChaos`] is a [`WireFaultPlan`] and the
//! base seed its connections draw from, carried by the agent and
//! coordinator configs and by `ClusterSim`; [`ChaosSide`] says which end
//! of a connection a [`Transport`] is. The per-connection fault state,
//! and every decision taken with it, is the transport's: see
//! [`crate::transport`].
//!
//! Determinism: same plan + same seed + same stream id + same frame
//! sequence → the same fault decisions, exactly like
//! [`fvs_faults::FaultInjector`].
//!
//! [`Transport`]: crate::transport::Transport

use fvs_faults::WireFaultPlan;
pub use fvs_faults::WriteFault;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which end of the connection a transport is — decides which partition
/// direction applies to its reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSide {
    /// The node agent: writes are uplink, reads are downlink.
    Agent,
    /// The coordinator: writes are downlink, reads are uplink.
    Coordinator,
}

/// A wire-chaos configuration: the plan plus the base seed. Carried by
/// the agent and coordinator configs; quiet by default.
#[derive(Debug, Clone, Default)]
pub struct WireChaos {
    /// What to inject.
    pub plan: WireFaultPlan,
    /// Base RNG seed; each connection mixes in its own stream id so
    /// reconnects see fresh (but reproducible) fault sequences.
    pub seed: u64,
}

impl WireChaos {
    /// No chaos: transports built under this hold no fault state.
    pub fn none() -> Self {
        WireChaos::default()
    }

    /// Chaos with the given plan and seed.
    pub fn new(plan: WireFaultPlan, seed: u64) -> Self {
        WireChaos { plan, seed }
    }

    /// Whether the plan can never fire.
    pub fn is_quiet(&self) -> bool {
        self.plan.is_quiet()
    }

    /// The fault stream of connection `stream_id`: the base seed mixed
    /// with the id, so each connection (reconnect attempts, accept
    /// sequence) gets its own reproducible stream.
    pub(crate) fn rng(&self, stream_id: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ SEED_MIX ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Seed mixer, in the `FaultInjector` idiom (a fixed xor so seed 0 is
/// still a real stream).
const SEED_MIX: u64 = 0xC4A0_5BAD_F00D_5EED;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{recv_one, send_flush, transport_pair, transport_pair_journaled};
    use crate::wire::{encode_with, WireCodec, WireMsg, CODEC_ALL, MAGIC, SCHEMA_VERSION};
    use fvs_telemetry::{SchedEvent, Telemetry, WireFaultKind};

    fn beat(epoch: u64) -> WireMsg {
        WireMsg::Heartbeat { epoch }
    }

    /// The acceptance differential: what a `none`-plan transport writes
    /// is the encoded frames end to end and nothing else — byte for byte
    /// what encoding alone gives: a JSON hello, then binary frames.
    #[test]
    fn quiet_chaos_stream_is_byte_identical_to_bare() {
        let (mut tx, _rx) = transport_pair(&WireChaos::none());
        let (mut bare, mut wire) = (Vec::new(), Vec::new());
        let hello = WireMsg::Hello {
            node: 0,
            procs: 4,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: CODEC_ALL,
        };
        for (i, msg) in std::iter::once(hello).chain((1..50).map(beat)).enumerate() {
            bare.extend(encode_with(&msg, WireCodec::Binary).unwrap());
            send_flush(&mut tx, &mut wire, &msg, i as f64);
        }
        assert_eq!(tx.injected(), 0);
        assert_eq!(wire[..4], MAGIC);
        assert_eq!(wire, bare);
    }

    /// Same plan + same seed + same frames → the same surviving byte
    /// stream and the same injected-fault count; a different seed gives
    /// a different fault stream.
    #[test]
    fn fault_stream_is_deterministic_in_the_seed() {
        let plan = WireFaultPlan {
            drop_rate: 0.3,
            duplicate_rate: 0.2,
            ..WireFaultPlan::none()
        };
        let run = |seed: u64| -> (Vec<u8>, u64) {
            let (mut tx, _rx) = transport_pair(&WireChaos::new(plan.clone(), seed));
            let mut wire = Vec::new();
            for i in 0..100 {
                send_flush(&mut tx, &mut wire, &beat(i), 0.0);
            }
            (wire, tx.injected())
        };
        let (a_bytes, a_injected) = run(42);
        let (b_bytes, b_injected) = run(42);
        assert_eq!(a_bytes, b_bytes);
        assert_eq!(a_injected, b_injected);
        assert!(a_injected > 0, "rates this high must fire in 100 frames");
        let (c_bytes, _) = run(43);
        assert_ne!(a_bytes, c_bytes, "different seed, different stream");
    }

    /// An uplink partition window blackholes writes from the agent side
    /// while it is active and heals afterwards; the agent's reads, which
    /// travel the other way, are spared.
    #[test]
    fn uplink_partition_blackholes_agent_writes_then_heals() {
        let plan = WireFaultPlan::parse("partition_up=3@0:0.2").unwrap();
        let (mut tx, mut rx) = transport_pair(&WireChaos::new(plan, 1));
        let mut wire = Vec::new();
        tx.set_node(3);
        send_flush(&mut tx, &mut wire, &beat(1), 0.1); // inside the window
        assert!(wire.is_empty());
        assert_eq!(tx.injected(), 1);
        rx.send(&beat(7), 0.1).unwrap();
        rx.flush(&mut wire, 0.1).unwrap();
        assert_eq!(recv_one(&mut tx, &mut wire), beat(7));
        send_flush(&mut tx, &mut wire, &beat(2), 0.25);
        assert_eq!(recv_one(&mut rx, &mut wire), beat(2));
        assert_eq!(tx.injected(), 1);
    }

    /// A delayed frame is held and delivered late, not lost.
    #[test]
    fn delayed_frames_arrive_late_not_never() {
        let plan = WireFaultPlan {
            delay_rate: 1.0,
            delay_s: 0.05,
            ..WireFaultPlan::none()
        };
        let (mut tx, mut rx) = transport_pair(&WireChaos::new(plan, 5));
        let mut wire = Vec::new();
        send_flush(&mut tx, &mut wire, &beat(1), 0.0);
        assert!(wire.is_empty(), "held, not sent");
        // The second frame is delayed in turn by the rate-1.0 plan; the
        // flush behind it finds the first one due.
        send_flush(&mut tx, &mut wire, &beat(2), 0.08);
        assert_eq!(recv_one(&mut rx, &mut wire), beat(1));
        assert_eq!(tx.injected(), 2, "both sends hit the delay fault");
    }

    /// Injected faults are journaled as `wire_fault` events flagged
    /// `injected:true`, and so are reads a partition window swallows.
    #[test]
    fn injected_faults_are_journaled() {
        let telemetry = Telemetry::memory(64);
        let plan = WireFaultPlan::parse("wire=1.0, partition_down=2@1:2").unwrap();
        let (mut tx, mut rx) =
            transport_pair_journaled(&WireChaos::new(plan, 9), telemetry.clone());
        tx.set_node(2);
        tx.send(&beat(1), 0.0).unwrap();
        let mut wire = Vec::new();
        rx.send(&beat(2), 1.5).unwrap();
        rx.flush(&mut wire, 1.5).unwrap();
        assert_eq!(
            tx.fill(&mut wire.as_slice(), 1.5).unwrap(),
            crate::transport::FillStatus::Idle
        );
        assert_eq!(tx.next_msg().unwrap(), None, "the read was swallowed");
        let faults: Vec<_> = telemetry
            .events()
            .into_iter()
            .filter_map(|e| match e {
                SchedEvent::WireFault {
                    node: 2,
                    fault,
                    injected: true,
                    frame_len,
                    ..
                } => Some((fault, frame_len)),
                _ => None,
            })
            .collect();
        let sent = encode_with(&beat(1), WireCodec::Binary).unwrap().len() as u32;
        assert_eq!(
            faults,
            [
                (WireFaultKind::Drop, sent),
                (WireFaultKind::PartitionDown, 0)
            ]
        );
    }
}
