//! Both roles' rules in one loop, on virtual time: a
//! [`CoordinatorCore`] and eight [`AgentCore`]s passing [`WireMsg`]
//! values through a [`RoundSink`] — no socket, no codec, no thread, no
//! clock. Three simulated seconds: the coordinator crashes and resumes
//! from its snapshot on a bumped epoch, the budget is halved, one node
//! goes mute but keeps running, and a stale coordinator finally answers
//! every agent. The paper's guarantee is read off the coordinator's
//! status and off the machines themselves, and the whole run repeats
//! bit for bit.
//!
//! Frames arrive in the step they were sent: this is the seed of a
//! simulated network, not one.

use fvs_cluster::ClusterNode;
use fvs_net::{
    AgentConfig, AgentCore, CoordinatorConfig, CoordinatorCore, Frame, Heard, Ingest, Received,
    RoundSink, Snapshot, Tick, WireMsg,
};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_workloads::WorkloadSpec;
use std::time::Duration;

const NODES: usize = 8;
const TICK_S: f64 = 0.01;
const STEPS: u32 = 300;
/// The coordinator is killed and resumed from its latest snapshot.
const RESUME_STEP: u32 = 50;
/// The budget drops to half of what the cluster draws.
const DROP_STEP: u32 = 100;
/// This node's frames vanish, both ways, from here to the end.
const MUTE: (usize, u32) = (7, 150);
/// ΔT: how long the conservative sum may stay over a dropped budget.
const DEADLINE_S: f64 = 0.5;

fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig::default_lan()
        .with_period_s(0.1)
        .with_heartbeat_timeout_s(0.3)
        .with_deadline_s(DEADLINE_S)
        .with_resync_grace_s(0.5)
        .with_snapshots("never-opened.snap", 0.2)
}

fn agent(id: usize) -> AgentCore {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        let intensity = 25.0 * ((id + core) % 4 + 1) as f64;
        b = b.workload(core, WorkloadSpec::synthetic(intensity, 1.0e18));
    }
    let config = AgentConfig::default_lan()
        .with_tick_s(TICK_S)
        .with_summary_every(5)
        .with_link_timeout(Duration::from_millis(400))
        .with_backoff(Duration::from_millis(20), Duration::from_millis(100))
        .with_jitter_seed(3845);
    AgentCore::new(ClusterNode::new(id, b.build(), None), &config)
}

/// Where a round's output goes: into a queue the loop delivers from.
#[derive(Default)]
struct Wire {
    downlink: Vec<(u64, WireMsg)>,
    /// The latest snapshot made durable or handed back by a round.
    snapshot: Option<Snapshot>,
}

impl RoundSink for Wire {
    fn persist(&mut self, snapshot: &Snapshot) {
        self.snapshot = Some(snapshot.clone());
    }

    fn send(&mut self, conn: u64, msg: &WireMsg) -> bool {
        self.downlink.push((conn, msg.clone()));
        true
    }
}

/// One agent's end of the network.
struct Peer {
    core: AgentCore,
    /// The connection it holds, if it holds one.
    conn: Option<u64>,
}

impl Peer {
    /// The link is gone: the core's ticks say when to connect again.
    fn hang_up(&mut self, now_s: f64) {
        self.conn = None;
        let due = self.core.lost(now_s);
        assert!(due.is_some(), "nobody is refused for good here");
    }
}

/// `hello` arrives at `coordinator` on `conn`: the ack it writes back,
/// and whether it accepted.
fn greet(
    coordinator: &mut CoordinatorCore,
    conn: u64,
    hello: WireMsg,
    now_s: f64,
) -> (WireMsg, bool) {
    match coordinator.frame(conn, Frame::Msg(hello), now_s) {
        Received::Hello { ack, verdict, .. } => (ack, verdict.is_ok()),
        other => panic!("connected() returns a hello, not what was taken for {other:?}"),
    }
}

/// Everything a run leaves behind that another run must equal.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every frame the coordinator sent, acks included: (step, connection, frame).
    downlink: Vec<(u32, u64, WireMsg)>,
    /// Each machine's final draw, as bits.
    power_bits: Vec<u64>,
}

fn run() -> Outcome {
    let config = coordinator_config();
    let mut coordinator = CoordinatorCore::new(NODES, FvsstAlgorithm::p630(), &config, None);
    // The coordinator's clock reads zero when it starts.
    let mut born_s = 0.0;
    let mut wire = Wire::default();
    let mut peers: Vec<Peer> = (0..NODES)
        .map(|id| Peer {
            core: agent(id),
            conn: None,
        })
        .collect();
    let mut next_conn = 0u64;
    let mut budget_w = f64::INFINITY;
    let mut trace = Vec::new();

    for step in 1..=STEPS {
        let now_s = step as f64 * TICK_S;
        let muted = |id: usize| id == MUTE.0 && step >= MUTE.1;

        if step == RESUME_STEP {
            let snapshot = wire.snapshot.take().expect("the cadence has snapshotted");
            coordinator =
                CoordinatorCore::new(NODES, FvsstAlgorithm::p630(), &config, Some(&snapshot));
            born_s = now_s;
            assert_eq!(coordinator.status().epoch, 2);
            for peer in &mut peers {
                peer.hang_up(now_s);
            }
        }
        if step == DROP_STEP {
            let status = coordinator.status();
            assert_eq!((status.nodes_reporting, status.dead_nodes), (NODES, 0));
            assert!(!status.resyncing, "every node reported afresh: {status:?}");
            budget_w = status.conservative_power_w / 2.0;
            coordinator.set_budget(budget_w);
        }

        for (id, peer) in peers.iter_mut().enumerate() {
            // Tick: the hello goes up and the ack comes straight back, a
            // summary goes up, silence brings the link down.
            match peer.core.tick(now_s) {
                Tick::Connect => {
                    next_conn += 1;
                    peer.conn = Some(next_conn);
                    let hello = peer.core.connected(now_s);
                    if !muted(id) {
                        let (ack, _) = greet(&mut coordinator, next_conn, hello, now_s - born_s);
                        let heard = peer.core.frame(&ack, now_s);
                        assert!(matches!(heard, Heard::Accepted { .. }), "{heard:?}");
                        trace.push((step, next_conn, ack));
                    }
                }
                Tick::Flush => {}
                Tick::Summary(mut summary) => {
                    if !muted(id) {
                        let conn = peer.conn.expect("a summary is sent on a link");
                        let frame = Frame::Summary(&mut summary);
                        let received = coordinator.frame(conn, frame, now_s - born_s);
                        assert_eq!(received, Received::Summary(Ingest::Accepted));
                    }
                }
                Tick::Silent => {
                    assert!(muted(id), "node {id} lost a live coordinator at {now_s} s");
                    peer.hang_up(now_s);
                }
            }
        }

        if coordinator.until_round_s(now_s - born_s) > 0.0 {
            continue;
        }
        if let Some(snapshot) = coordinator.run_round(now_s - born_s, &mut wire) {
            wire.snapshot = Some(snapshot);
        }
        for (conn, msg) in wire.downlink.drain(..) {
            let holder = peers
                .iter_mut()
                .enumerate()
                .find(|(_, p)| p.conn == Some(conn));
            if let Some((id, peer)) = holder {
                if !muted(id) {
                    let heard = peer.core.frame(&msg, now_s);
                    assert!(
                        matches!(heard, Heard::Applied | Heard::Nothing),
                        "{heard:?}"
                    );
                }
            }
            trace.push((step, conn, msg));
        }
        // The paper's guarantee, every round from ΔT after the drop on:
        // what the live nodes report plus what is reserved for the
        // silent fits the budget.
        let status = coordinator.status();
        if now_s >= DROP_STEP as f64 * TICK_S + DEADLINE_S {
            assert!(
                status.conservative_power_w <= budget_w,
                "{} W over {budget_w} W at {now_s} s",
                status.conservative_power_w
            );
        }
    }

    let status = coordinator.status();
    assert_eq!((status.compliances, status.violations), (1, 0));
    let met = status.last_compliance.expect("the drop was complied with");
    assert!(met.within_deadline && met.wall_s <= DEADLINE_S, "{met:?}");
    // The mute node was declared dead and is reserved for ...
    assert_eq!(status.dead_nodes, 1);
    assert!(status.reserved_w > 0.0);
    // ... which covers what it really draws, running on at the last
    // frequencies it was sent: the machines' own sum fits the budget.
    let drawn_w: f64 = peers.iter().map(|p| p.core.node().power_w()).sum();
    assert!(drawn_w <= budget_w, "{drawn_w} W drawn over {budget_w} W");
    assert!(
        drawn_w > 0.5 * budget_w,
        "{drawn_w} W is not a cluster at work"
    );

    // A stale coordinator, a cold start that knows nothing of epoch 2,
    // comes up on the address: every agent refuses to be served by it.
    let mut stale = CoordinatorCore::new(NODES, FvsstAlgorithm::p630(), &config, None);
    let end_s = (STEPS + 1) as f64 * TICK_S;
    for peer in &mut peers {
        if peer.conn.is_some() {
            peer.hang_up(end_s);
        }
        next_conn += 1;
        let hello = peer.core.connected(end_s);
        let (ack, accepted) = greet(&mut stale, next_conn, hello, 0.0);
        assert!(!accepted, "the stale coordinator knows it is stale");
        assert_eq!(peer.core.frame(&ack, end_s), Heard::Fenced);
        trace.push((STEPS + 1, next_conn, ack));
    }

    Outcome {
        downlink: trace,
        power_bits: peers
            .iter()
            .map(|p| p.core.node().power_w().to_bits())
            .collect(),
    }
}

#[test]
fn budget_drop_mute_node_resume_and_fencing_replay_bit_for_bit() {
    let first = run();
    assert!(
        first.downlink.len() > 100,
        "{} frames",
        first.downlink.len()
    );
    assert_eq!(first, run());
}
