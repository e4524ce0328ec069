//! No decoded frame, however corrupted, panics either protocol core.
//!
//! Every frame kind is encoded under each codec it travels in, then has
//! one to eight random bits flipped or is cut short. Whatever
//! `FrameReader` still decodes out of it goes to a handshaken
//! [`AgentCore::frame`] and to [`CoordinatorCore::frame`] (a hello on a
//! fresh connection, anything else on the handshaken one), and a round
//! runs over what the coordinator then believes. A summary naming any
//! node but the one its connection handshook as must be
//! [`Ingest::Misattributed`], and one of another processor count than
//! its hello's [`Ingest::Miscounted`].
//! `wire_roundtrip`'s `corrupt_frames_never_panic` stops at the decoder;
//! this goes on into the cores.

use fvs_cluster::{ClusterNode, FrequencyCommand, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{
    encode_with, AgentConfig, AgentCore, CoordinatorConfig, CoordinatorCore, Frame, FrameReader,
    Heard, Ingest, Received, RoundSink, Snapshot, WireCodec, WireMsg, CODEC_ALL, SCHEMA_VERSION,
};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_workloads::WorkloadSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The node both cores hold a link for; the cluster has `NODES`.
const NODE: usize = 1;
const NODES: usize = 3;
const PROCS: usize = 4;
/// The coordinator's connection from `NODE`.
const CONN: u64 = 7;

/// One well-formed frame of each kind, the way the two roles send them.
fn messages() -> Vec<WireMsg> {
    let summary = NodeSummary {
        node: NODE,
        sent_at_s: 2.5,
        models: vec![
            Some(CpiModel::from_components(1.2, 3.0e-9)),
            None,
            Some(CpiModel::from_components(0.8, 0.0)),
            Some(CpiModel::from_components(2.0, 9.0e-9)),
        ],
        idle: vec![false, true, false, false],
        current: vec![FreqMhz(1000), FreqMhz(250), FreqMhz(650), FreqMhz(800)],
        power_w: 310.0,
    };
    vec![
        WireMsg::Hello {
            node: NODE,
            procs: PROCS,
            version: SCHEMA_VERSION,
            last_epoch: 1,
            codecs: CODEC_ALL,
        },
        WireMsg::HelloAck {
            accepted: true,
            version: SCHEMA_VERSION,
            epoch: 1,
            codec: WireCodec::Binary.id(),
        },
        WireMsg::Summary(summary),
        WireMsg::Ceiling(FrequencyCommand {
            node: NODE,
            freqs: vec![FreqMhz(650), FreqMhz(800), FreqMhz(250), FreqMhz(1000)],
        }),
        WireMsg::Bye { node: NODE },
        WireMsg::Heartbeat { epoch: 1 },
    ]
}

/// Node `NODE`'s agent, past its handshake with the epoch-1 coordinator.
fn linked_agent() -> AgentCore {
    let mut b = MachineBuilder::p630();
    for core in 0..PROCS {
        b = b.workload(core, WorkloadSpec::synthetic(60.0, 1.0e18));
    }
    let mut agent = AgentCore::new(
        ClusterNode::new(NODE, b.build(), None),
        &AgentConfig::default_lan(),
    );
    agent.connected(0.0);
    let ack = WireMsg::HelloAck {
        accepted: true,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: WireCodec::Binary.id(),
    };
    assert_eq!(agent.frame(&ack, 0.0), Heard::Accepted { reconnect: false });
    agent
}

/// A coordinator of `NODES` nodes, `NODE` handshaken on `CONN`.
fn linked_coordinator() -> CoordinatorCore {
    let mut coordinator = CoordinatorCore::new(
        NODES,
        FvsstAlgorithm::p630(),
        &CoordinatorConfig::default_lan(),
        None,
    );
    let hello = WireMsg::Hello {
        node: NODE,
        procs: PROCS,
        version: SCHEMA_VERSION,
        last_epoch: 0,
        codecs: CODEC_ALL,
    };
    let received = coordinator.frame(CONN, Frame::Msg(hello), 0.0);
    assert!(received.open(), "{received:?}");
    coordinator
}

/// A round's output, dropped.
struct Discard;

impl RoundSink for Discard {
    fn persist(&mut self, _: &Snapshot) {}

    fn send(&mut self, _: u64, _: &WireMsg) -> bool {
        true
    }
}

/// `frame` with `flips` random bits flipped, or cut short, per `rng`.
fn corrupt(frame: &[u8], flips: usize, truncate: bool, rng: &mut StdRng) -> Vec<u8> {
    if truncate {
        return frame[..rng.gen_range(0..frame.len())].to_vec();
    }
    let mut bad = frame.to_vec();
    for _ in 0..flips {
        let i = rng.gen_range(0..bad.len());
        bad[i] ^= 1 << rng.gen_range(0u32..8);
    }
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn no_decoded_frame_panics_either_core(
        kind in 0usize..6,
        binary in any::<bool>(),
        seed in any::<u64>(),
        flips in 1usize..=8,
        truncate in any::<bool>(),
    ) {
        let msg = &messages()[kind];
        let codec = if binary { WireCodec::Binary } else { WireCodec::Json };
        let frame = encode_with(msg, codec).expect("a well-formed message encodes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reader = FrameReader::new();
        reader.feed(&corrupt(&frame, flips, truncate, &mut rng));

        let mut agent = linked_agent();
        let mut coordinator = linked_coordinator();
        let mut now_s = 0.01;
        // A flipped length prefix can leave bytes for a second frame.
        while let Ok(Some(decoded)) = reader.next_frame() {
            agent.frame(&decoded, now_s);
            match decoded {
                hello @ WireMsg::Hello { .. } => {
                    coordinator.frame(CONN + 1, Frame::Msg(hello), now_s);
                }
                WireMsg::Summary(mut summary) => {
                    let (named, procs) = (summary.node, summary.models.len());
                    let verdict = coordinator.frame(CONN, Frame::Summary(&mut summary), now_s);
                    if named != NODE {
                        prop_assert_eq!(verdict, Received::Summary(Ingest::Misattributed), "summary names node {}", named);
                    } else if procs != PROCS {
                        prop_assert_eq!(verdict, Received::Summary(Ingest::Miscounted), "summary of {} processors", procs);
                    }
                }
                other => {
                    coordinator.frame(CONN, Frame::Msg(other), now_s);
                }
            }
            now_s += 0.01;
        }
        // What the cores now believe drives their next steps.
        agent.tick(now_s);
        coordinator.run_round(now_s, &mut Discard);
    }
}
