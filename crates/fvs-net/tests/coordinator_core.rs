//! The coordinator's rules as tables of calls: no socket, no thread, no
//! sleep. Every test builds a [`CoordinatorCore`], says what time it is,
//! and reads what came out — through a recording [`RoundSink`], the
//! status, and an in-memory journal.

use fvs_cluster::NodeSummary;
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{
    CoordinatorConfig, CoordinatorCore, Refusal, RoundSink, Snapshot, SnapshotNode, WireCodec,
    WireMsg, CODEC_ALL, CODEC_JSON_BIT, SCHEMA_VERSION,
};
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{SchedEvent, Telemetry};

const PERIOD_S: f64 = 0.1;
const TIMEOUT_S: f64 = 0.5;
const WORST_W: f64 = 560.0;

fn config() -> CoordinatorConfig {
    CoordinatorConfig::default_lan()
        .with_period_s(PERIOD_S)
        .with_heartbeat_timeout_s(TIMEOUT_S)
        .with_worst_case_node_w(WORST_W)
        .with_telemetry(Telemetry::memory(1024))
}

fn core(nodes: usize, config: &CoordinatorConfig) -> CoordinatorCore {
    CoordinatorCore::new(nodes, FvsstAlgorithm::p630(), config, None)
}

fn summary(node: usize, power_w: f64) -> NodeSummary {
    NodeSummary {
        node,
        sent_at_s: 1.0e6, // the agent's clock; the core must not care
        models: vec![Some(CpiModel::from_components(1.5, 1.0e-9)); 4],
        idle: vec![false; 4],
        current: vec![FreqMhz(1000); 4],
        power_w,
    }
}

/// A hello from `node` on `conn`, current schema, both codecs, no epoch
/// acknowledged yet. Returns the verdict.
fn hello(core: &mut CoordinatorCore, conn: u64, node: usize) -> Result<WireCodec, Refusal> {
    core.hello(conn, node, SCHEMA_VERSION, 0, CODEC_ALL, 0.0).1
}

fn kinds(telemetry: &Telemetry) -> Vec<&'static str> {
    telemetry.events().iter().map(SchedEvent::kind).collect()
}

/// What a round handed its sink, in order.
#[derive(Debug, PartialEq)]
enum Call {
    /// A snapshot to persist, carrying this budget.
    Persist(f64),
    Ceiling(u64, usize),
    Heartbeat(u64, u64),
}

#[derive(Default)]
struct Recorder {
    calls: Vec<Call>,
    /// Connections whose writes fail.
    broken: Vec<u64>,
}

impl RoundSink for Recorder {
    fn persist(&mut self, snapshot: &Snapshot) {
        self.calls.push(Call::Persist(snapshot.budget_w));
    }

    fn send(&mut self, conn: u64, msg: &WireMsg) -> bool {
        self.calls.push(match msg {
            WireMsg::Ceiling(cmd) => Call::Ceiling(conn, cmd.node),
            WireMsg::Heartbeat { epoch } => Call::Heartbeat(conn, *epoch),
            other => panic!("a round sends ceilings and heartbeats, not {other:?}"),
        });
        !self.broken.contains(&conn)
    }
}

/// One round at `now_s`; what the sink saw.
fn round(core: &mut CoordinatorCore, now_s: f64) -> Vec<Call> {
    let mut sink = Recorder::default();
    core.run_round(now_s, &mut sink);
    sink.calls
}

#[test]
fn another_schema_version_is_refused_with_an_ack_that_says_so() {
    let mut core = core(1, &config());
    let (ack, verdict) = core.hello(7, 0, SCHEMA_VERSION + 1, 0, CODEC_ALL, 0.0);
    assert_eq!(verdict, Err(Refusal::Version));
    let refusal = WireMsg::HelloAck {
        accepted: false,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: WireCodec::Json.id(),
    };
    assert_eq!(ack, refusal);
    // Refused, the connection speaks for nobody.
    assert_eq!(core.node_of(7), None);
    assert_eq!(round(&mut core, PERIOD_S), []);
    assert_eq!(core.status().connections, 0);
}

#[test]
fn an_agent_that_has_seen_a_newer_epoch_fences_this_coordinator() {
    let config = config();
    let mut core = core(2, &config);
    assert_eq!(core.status().epoch, 1);
    // Epochs up to ours are fine: the agent's fence is `>=`.
    assert!(core
        .hello(1, 0, SCHEMA_VERSION, 1, CODEC_ALL, 0.2)
        .1
        .is_ok());
    assert_eq!(kinds(&config.telemetry), [] as [&str; 0]);

    let (ack, verdict) = core.hello(2, 1, SCHEMA_VERSION, 2, CODEC_ALL, 0.25);
    assert_eq!(verdict, Err(Refusal::StaleEpoch));
    assert!(matches!(
        ack,
        WireMsg::HelloAck {
            accepted: false,
            epoch: 1,
            ..
        }
    ));
    match config.telemetry.events().as_slice() {
        [SchedEvent::EpochFenced {
            t_s,
            node: 1,
            peer_epoch: 2,
            local_epoch: 1,
        }] => assert_eq!(*t_s, 0.25),
        other => panic!("expected one epoch_fenced event, got {other:?}"),
    }
    assert_eq!(
        core.status().connections,
        0,
        "status is as of the last round"
    );
    round(&mut core, PERIOD_S);
    assert_eq!(core.status().connections, 1);
}

#[test]
fn binary_is_negotiated_iff_both_sides_want_it() {
    for (preferred, advertised, chosen) in [
        (WireCodec::Binary, CODEC_ALL, WireCodec::Binary),
        (WireCodec::Binary, CODEC_JSON_BIT, WireCodec::Json),
        (WireCodec::Json, CODEC_ALL, WireCodec::Json),
        (WireCodec::Json, CODEC_JSON_BIT, WireCodec::Json),
    ] {
        let mut core = core(1, &config().with_codec(preferred));
        let (ack, verdict) = core.hello(1, 0, SCHEMA_VERSION, 0, advertised, 0.0);
        assert_eq!(verdict, Ok(chosen), "{preferred:?} x {advertised:#04b}");
        let accepted = WireMsg::HelloAck {
            accepted: true,
            version: SCHEMA_VERSION,
            epoch: 1,
            codec: chosen.id(),
        };
        assert_eq!(ack, accepted);
    }
}

#[test]
fn a_reconnect_takes_the_route_and_the_old_sockets_close_leaves_it() {
    let mut core = core(1, &config());
    hello(&mut core, 1, 0).unwrap();
    core.ingest(&mut summary(0, 300.0), 0.05);
    assert_eq!(round(&mut core, 0.1), [Call::Ceiling(1, 0)]);

    // The node comes back on a new socket while the old one lingers.
    hello(&mut core, 2, 0).unwrap();
    assert_eq!((core.node_of(1), core.node_of(2)), (Some(0), Some(0)));
    core.ingest(&mut summary(0, 300.0), 0.15);
    assert_eq!(round(&mut core, 0.2), [Call::Ceiling(2, 0)]);
    assert_eq!(core.status().connections, 1);

    // The old socket dies by its deadline: the new route stays.
    core.closed(1);
    assert_eq!(round(&mut core, 0.3), [Call::Ceiling(2, 0)]);
    // The current one dies: nothing is left to write to.
    core.closed(2);
    assert_eq!(round(&mut core, 0.4), []);
    assert_eq!(core.status().connections, 0);
}

#[test]
fn a_second_hello_on_a_handshaken_connection_is_a_protocol_error() {
    let mut core = core(2, &config());
    hello(&mut core, 1, 0).unwrap();
    // Same connection, now claiming node 1: refused, and nothing moves.
    let (ack, verdict) = core.hello(1, 1, SCHEMA_VERSION, 0, CODEC_ALL, 0.0);
    assert_eq!(verdict, Err(Refusal::Repeated));
    assert!(matches!(
        ack,
        WireMsg::HelloAck {
            accepted: false,
            ..
        }
    ));
    assert_eq!(core.node_of(1), Some(0));
    assert_eq!(round(&mut core, 0.1), [Call::Heartbeat(1, 1)]);
    assert_eq!(core.status().connections, 1);
    // The caller closes it, and no route leaks: the count comes back to
    // zero, and a round with nobody connected sends nothing.
    core.closed(1);
    assert_eq!(round(&mut core, 0.2), []);
    assert_eq!(core.status().connections, 0);
}

#[test]
fn a_budget_change_is_persisted_before_any_ceiling_leaves() {
    let config = config().with_snapshots("never-opened.snap", 1.0);
    let mut core = core(2, &config);
    for node in 0..2 {
        hello(&mut core, 10 + node as u64, node).unwrap();
        core.ingest(&mut summary(node, 300.0), 0.05);
    }
    // No change, no cadence due: ceilings only.
    let ceilings = [Call::Ceiling(10, 0), Call::Ceiling(11, 1)];
    assert_eq!(round(&mut core, 0.1), ceilings);

    core.set_budget(500.0);
    let mut sink = Recorder::default();
    let cadence = core.run_round(0.12, &mut sink);
    let [first, rest @ ..] = sink.calls.as_slice() else {
        panic!("the round handed out nothing");
    };
    assert_eq!(*first, Call::Persist(500.0), "write-ahead comes first");
    assert_eq!(rest, ceilings);
    assert!(cadence.is_none(), "the write-ahead restarts the cadence");
    assert_eq!(core.status().budget_w, 500.0);
    assert!(kinds(&config.telemetry).contains(&"budget_drop"));

    // Setting the budget it already has owes a round but changes nothing.
    core.set_budget(500.0);
    assert_eq!(round(&mut core, 0.14), ceilings);

    // The cadence snapshot is the caller's to persist, after the round.
    for node in 0..2 {
        core.ingest(&mut summary(node, 200.0), 1.1);
    }
    let mut sink = Recorder::default();
    let cadence = core.run_round(1.2, &mut sink).expect("cadence is due");
    assert_eq!(sink.calls, ceilings);
    assert_eq!((cadence.budget_w, cadence.taken_at_s), (500.0, 1.2));
    assert_eq!(cadence.rounds, core.status().rounds);

    // Without a snapshot path nothing is built or handed out.
    let mut plain = self::core(1, &self::config());
    plain.set_budget(500.0);
    let mut sink = Recorder::default();
    assert!(plain.run_round(5.0, &mut sink).is_none());
    assert_eq!(sink.calls, []);
}

#[test]
fn keep_alives_go_to_exactly_the_routes_the_round_did_not_command() {
    let mut core = core(4, &config());
    // Node 0 reports and is commanded. Node 1 is connected but silent.
    // Node 2 reconnected: its old socket (22) lingers. Node 3 never came.
    hello(&mut core, 20, 0).unwrap();
    hello(&mut core, 21, 1).unwrap();
    hello(&mut core, 22, 2).unwrap();
    hello(&mut core, 23, 2).unwrap();
    core.ingest(&mut summary(0, 300.0), 0.05);
    let expected = [
        Call::Ceiling(20, 0),
        Call::Heartbeat(21, 1),
        Call::Heartbeat(23, 1),
    ];
    assert_eq!(round(&mut core, 0.1), expected);

    // Everyone connected reports: the steady case sends no keep-alive.
    for node in 0..3 {
        core.ingest(&mut summary(node, 300.0), 0.15);
    }
    let steady = [
        Call::Ceiling(20, 0),
        Call::Ceiling(21, 1),
        Call::Ceiling(23, 2),
    ];
    assert_eq!(round(&mut core, 0.2), steady);

    // A write that fails closes the connection for the core too.
    let mut sink = Recorder {
        broken: vec![21],
        ..Recorder::default()
    };
    core.run_round(0.3, &mut sink);
    assert_eq!(sink.calls, steady);
    assert_eq!((core.node_of(21), core.status().connections), (None, 2));
    assert_eq!(
        round(&mut core, 0.4),
        [Call::Ceiling(20, 0), Call::Ceiling(23, 2)]
    );
}

#[test]
fn a_round_is_owed_on_the_period_and_on_a_budget_change() {
    let mut core = core(1, &config());
    assert!((core.until_round_s(0.03) - 0.07).abs() < 1e-12);
    assert_eq!(core.until_round_s(PERIOD_S), 0.0);
    assert_eq!(core.until_round_s(7.0), 0.0, "overdue is still zero");
    round(&mut core, PERIOD_S);
    assert_eq!(core.status().last_round_s, PERIOD_S);
    assert!((core.until_round_s(0.15) - 0.05).abs() < 1e-12);

    core.set_budget(900.0);
    assert_eq!(core.until_round_s(0.15), 0.0, "a change cannot wait");
    assert_eq!(core.status().budget_w, f64::INFINITY, "not in force yet");
    round(&mut core, 0.15);
    assert_eq!(core.status().budget_w, 900.0);
    assert!((core.until_round_s(0.16) - 0.09).abs() < 1e-12);
}

/// Bugfix: the driver used to mark a node live, and add its claimed
/// power to the conservative sum, before the scheduler had validated
/// the summary — so a NaN went into `/healthz` while `schedule()`
/// charged the same node as silent.
#[test]
fn a_rejected_summary_changes_neither_liveness_nor_the_conservative_sum() {
    let mut core = core(2, &config());
    assert!(core.ingest(&mut summary(0, 300.0), 0.05));
    round(&mut core, 0.1);
    // Node 0 live at 300 W, node 1 never heard from: worst case.
    assert_eq!(core.status().conservative_power_w, 300.0 + WORST_W);

    let mut misshapen = summary(0, 100.0);
    misshapen.idle.pop();
    let mut rejects = [
        summary(0, f64::NAN),
        summary(0, -50.0),
        summary(0, f64::INFINITY),
        misshapen,
        summary(9, 100.0),
    ];
    for bad in &mut rejects {
        let before = bad.clone();
        assert!(!core.ingest(bad, 0.15), "{before:?} must be refused");
    }
    round(&mut core, 0.2);
    assert_eq!(core.status().conservative_power_w, 300.0 + WORST_W);
    assert_eq!(core.status().dead_nodes, 0);

    // Only rejects since 0.05: past the timeout the node is silent, for
    // the status exactly as for the scheduler — charged, not counted.
    for bad in &mut rejects {
        assert!(!core.ingest(bad, 0.58));
    }
    round(&mut core, 0.6);
    let status = core.status();
    assert!(status.conservative_power_w.is_finite());
    assert_eq!(status.conservative_power_w, status.reserved_w);
    assert!(status.reserved_w >= 300.0 + WORST_W);
    assert_eq!(status.dead_nodes, 2);
}

fn snapshot_of(nodes: usize) -> Snapshot {
    Snapshot {
        epoch: 3,
        budget_w: 1000.0,
        taken_at_s: 42.0,
        rounds: 17,
        nodes: (0..nodes)
            .map(|node| SnapshotNode {
                summary: Some(summary(node, 300.0)),
                age_s: 0.1,
                commanded_w: 400.0,
                dead: false,
                shape: Some(4),
            })
            .collect(),
        episode: None,
    }
}

#[test]
fn resync_ends_when_every_node_is_fresh_and_says_so_before_the_status_does() {
    let config = config().with_resync_grace_s(2.0);
    let snap = snapshot_of(2);
    let mut core = CoordinatorCore::new(2, FvsstAlgorithm::p630(), &config, Some(&snap));
    let status = core.status();
    assert_eq!((status.epoch, status.rounds), (4, 17));
    assert_eq!(status.budget_w, 1000.0, "the stricter budget stays");
    assert_eq!(
        (status.resyncing, status.resync_deadline_s),
        (true, Some(2.0))
    );
    assert_eq!(kinds(&config.telemetry), ["coordinator_resumed"]);
    // The resumed epoch fences nobody who acknowledged the old one.
    assert!(core
        .hello(1, 0, SCHEMA_VERSION, 3, CODEC_ALL, 0.0)
        .1
        .is_ok());

    // Restored charges are stale by construction: max(reported, commanded).
    round(&mut core, 0.1);
    assert_eq!(core.status().conservative_power_w, 800.0);
    assert!(core.status().resyncing);
    // One of two fresh is not enough.
    core.ingest(&mut summary(0, 250.0), 0.15);
    round(&mut core, 0.2);
    assert_eq!(core.status().conservative_power_w, 250.0 + 400.0);
    assert!(core.status().resyncing);
    assert!(!kinds(&config.telemetry).contains(&"resync_complete"));

    core.ingest(&mut summary(1, 250.0), 0.25);
    round(&mut core, 0.3);
    let complete = config
        .telemetry
        .events()
        .into_iter()
        .find_map(|ev| match ev {
            SchedEvent::ResyncComplete {
                fresh_nodes,
                charged_nodes,
                ..
            } => Some((fresh_nodes, charged_nodes)),
            _ => None,
        });
    assert_eq!(
        complete,
        Some((2, 0)),
        "journaled by the time the status flips"
    );
    let status = core.status();
    assert_eq!((status.resyncing, status.resync_deadline_s), (false, None));
    assert_eq!(status.conservative_power_w, 500.0);
}

#[test]
fn resync_ends_at_its_deadline_with_the_silent_still_charged() {
    let config = config().with_resync_grace_s(2.0);
    let snap = snapshot_of(2);
    let mut core = CoordinatorCore::new(2, FvsstAlgorithm::p630(), &config, Some(&snap));
    core.ingest(&mut summary(0, 250.0), 1.85);
    round(&mut core, 1.9);
    assert!(core.status().resyncing);
    round(&mut core, 2.0);
    assert!(!core.status().resyncing);
    let complete = config
        .telemetry
        .events()
        .into_iter()
        .find_map(|ev| match ev {
            SchedEvent::ResyncComplete {
                t_s,
                fresh_nodes,
                charged_nodes,
                ..
            } => Some((t_s, fresh_nodes, charged_nodes)),
            _ => None,
        });
    assert_eq!(complete, Some((2.0, 1, 1)));
    assert_eq!(core.status().conservative_power_w, 250.0 + 400.0);
}
