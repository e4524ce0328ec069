//! The coordinator's rules as tables of calls: no socket, no thread, no
//! sleep. Every test builds a [`CoordinatorCore`], says what time it is,
//! and reads what came out — through a recording [`RoundSink`], the
//! status, and an in-memory journal.

use fvs_cluster::{NodeRestore, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{
    ClusterConfig, ClusterSim, CoordinatorConfig, CoordinatorCore, CoordinatorStatus, Frame,
    FvsError, Ingest, Received, Refusal, RoundSink, Snapshot, WireCodec, WireMsg, CODEC_ALL,
    CODEC_JSON_BIT, SCHEMA_VERSION,
};
use fvs_power::{BudgetEvent, BudgetSchedule};
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::{OpenEpisode, SchedEvent, Telemetry};

const PERIOD_S: f64 = 0.1;
const TIMEOUT_S: f64 = 0.5;
const WORST_W: f64 = 560.0;
/// Processors per node, as every hello here announces.
const PROCS: usize = 4;

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
        models: vec![Some(CpiModel::from_components(1.5, 1.0e-9)); PROCS],
        idle: vec![false; PROCS],
        current: vec![FreqMhz(1000); PROCS],
        power_w,
    }
}

/// The hello `node` sends: `procs` processors, schema `version`, epochs
/// up to `last_epoch` acknowledged, the codecs in `codecs`.
fn hello_of(node: usize, procs: usize, version: u32, last_epoch: u64, codecs: u8) -> WireMsg {
    WireMsg::Hello {
        node,
        procs,
        version,
        last_epoch,
        codecs,
    }
}

/// `msg`, a hello, arrives on `conn` at `now_s`: the ack and the verdict.
fn greet(
    core: &mut CoordinatorCore,
    conn: u64,
    msg: WireMsg,
    now_s: f64,
) -> (WireMsg, Result<(), Refusal>) {
    match core.frame(conn, Frame::Msg(msg), now_s) {
        Received::Hello { ack, verdict, .. } => (ack, verdict),
        other => panic!("a hello was taken for {other:?}"),
    }
}

/// A hello from `node` of `PROCS` processors on `conn`, current schema,
/// both codecs, no epoch acknowledged yet. Returns the verdict.
fn hello(core: &mut CoordinatorCore, conn: u64, node: usize) -> Result<(), Refusal> {
    greet(
        core,
        conn,
        hello_of(node, PROCS, SCHEMA_VERSION, 0, CODEC_ALL),
        0.0,
    )
    .1
}

/// `summary` arrives on `conn` at `arrival_s`: what became of it.
fn ingest(
    core: &mut CoordinatorCore,
    conn: u64,
    summary: &mut NodeSummary,
    arrival_s: f64,
) -> Ingest {
    match core.frame(conn, Frame::Summary(summary), arrival_s) {
        Received::Summary(ingest) => ingest,
        other => panic!("a summary was taken for {other:?}"),
    }
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
    let hello = hello_of(0, PROCS, SCHEMA_VERSION + 1, 0, CODEC_ALL);
    let (ack, verdict) = greet(&mut core, 7, hello, 0.0);
    assert_eq!(verdict, Err(Refusal::Version));
    let refusal = WireMsg::HelloAck {
        accepted: false,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: WireCodec::Json.id(),
    };
    assert_eq!(ack, refusal);
    // Refused, the connection speaks for nobody.
    let mut s = summary(0, 300.0);
    assert_eq!(ingest(&mut core, 7, &mut s, 0.05), Ingest::Misattributed);
    assert_eq!(round(&mut core, PERIOD_S), []);
    assert_eq!(core.status().connections, 0);
}

/// Bugfix: a hello naming a node the cluster does not have was
/// accepted, counted and kept alive by heartbeats, while every summary
/// it sent was refused as out of range: its power was never charged.
#[test]
fn a_node_outside_the_cluster_is_refused() {
    let mut core = core(4, &config());
    let hello = hello_of(4, PROCS, SCHEMA_VERSION, 0, CODEC_ALL);
    let (ack, verdict) = greet(&mut core, 7, hello, 0.0);
    assert_eq!(verdict, Err(Refusal::UnknownNode));
    let refusal = WireMsg::HelloAck {
        accepted: false,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: WireCodec::Json.id(),
    };
    assert_eq!(ack, refusal);
    let mut s = summary(4, 300.0);
    assert_eq!(ingest(&mut core, 7, &mut s, 0.05), Ingest::Misattributed);
    assert_eq!(round(&mut core, PERIOD_S), []);
    assert_eq!(core.status().connections, 0);
}

#[test]
fn an_agent_that_has_seen_a_newer_epoch_fences_this_coordinator() {
    let config = config();
    let mut core = core(2, &config);
    assert_eq!(core.status().epoch, 1);
    // Epochs up to ours are fine: the agent's fence is `>=`.
    let hello = hello_of(0, PROCS, SCHEMA_VERSION, 1, CODEC_ALL);
    assert!(greet(&mut core, 1, hello, 0.2).1.is_ok());
    assert_eq!(kinds(&config.telemetry), [] as [&str; 0]);

    let hello = hello_of(1, PROCS, SCHEMA_VERSION, 2, CODEC_ALL);
    let (ack, verdict) = greet(&mut core, 2, hello, 0.25);
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

/// Every frame after the handshake is `FVS2`: a hello that reads it is
/// accepted, one that does not speaks another dialect and is refused,
/// with a JSON ack, for no node.
#[test]
fn only_a_peer_that_reads_fvs2_is_accepted() {
    for (advertised, verdict, codec) in [
        (CODEC_ALL, Ok(()), WireCodec::Binary),
        (CODEC_JSON_BIT, Err(Refusal::Version), WireCodec::Json),
    ] {
        let mut core = core(1, &config());
        let hello = hello_of(0, PROCS, SCHEMA_VERSION, 0, advertised);
        let (ack, got) = greet(&mut core, 1, hello, 0.0);
        assert_eq!(got, verdict, "{advertised:#04b}");
        let want = WireMsg::HelloAck {
            accepted: verdict.is_ok(),
            version: SCHEMA_VERSION,
            epoch: 1,
            codec: codec.id(),
        };
        assert_eq!(ack, want);
        let taken = ingest(&mut core, 1, &mut summary(0, 300.0), 0.05);
        let speaks = verdict.map_or(Ingest::Misattributed, |()| Ingest::Accepted);
        assert_eq!(taken, speaks, "{advertised:#04b}");
    }
}

#[test]
fn a_reconnect_takes_the_route_and_the_old_sockets_close_leaves_it() {
    let mut core = core(1, &config());
    hello(&mut core, 1, 0).unwrap();
    ingest(&mut core, 1, &mut summary(0, 300.0), 0.05);
    assert_eq!(round(&mut core, 0.1), [Call::Ceiling(1, 0)]);

    // The node comes back on a new socket while the old one lingers:
    // both speak for it.
    hello(&mut core, 2, 0).unwrap();
    for conn in [1, 2] {
        let taken = ingest(&mut core, conn, &mut summary(0, 300.0), 0.15);
        assert_eq!(taken, Ingest::Accepted, "on connection {conn}");
    }
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
    let hello = hello_of(1, PROCS, SCHEMA_VERSION, 0, CODEC_ALL);
    let (ack, verdict) = greet(&mut core, 1, hello, 0.0);
    assert_eq!(verdict, Err(Refusal::Repeated));
    assert!(matches!(
        ack,
        WireMsg::HelloAck {
            accepted: false,
            ..
        }
    ));
    let mut s = summary(1, 300.0);
    assert_eq!(ingest(&mut core, 1, &mut s, 0.05), Ingest::Misattributed);
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
        ingest(&mut core, 10 + node as u64, &mut summary(node, 300.0), 0.05);
    }
    // No change, no cadence due: ceilings only.
    let ceilings = [Call::Ceiling(10, 0), Call::Ceiling(11, 1)];
    assert_eq!(round(&mut core, 0.1), ceilings);

    assert_eq!(core.set_budget(500.0), Some(f64::INFINITY));
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

    // Setting the budget it already has owes nothing, and a round then
    // changes nothing.
    assert_eq!(core.set_budget(500.0), None);
    assert!(core.until_round_s(0.14) > 0.0);
    assert_eq!(round(&mut core, 0.14), ceilings);

    // The cadence snapshot is the caller's to persist, after the round.
    for node in 0..2 {
        ingest(&mut core, 10 + node as u64, &mut summary(node, 200.0), 1.1);
    }
    let mut sink = Recorder::default();
    let cadence = core.run_round(1.2, &mut sink).expect("cadence is due");
    assert_eq!(sink.calls, ceilings);
    assert_eq!((cadence.budget_w, cadence.taken_at_s), (500.0, 1.2));
    assert_eq!(cadence.rounds, core.status().rounds);

    // Without a snapshot path nothing is built or handed out.
    let mut plain = self::core(1, &self::config());
    assert_eq!(plain.set_budget(500.0), Some(f64::INFINITY));
    let mut sink = Recorder::default();
    assert!(plain.run_round(5.0, &mut sink).is_none());
    assert_eq!(sink.calls, []);
}

/// A round schedules under `(budget - reserved).max(0.0)`, and `max`
/// drops a NaN: a NaN budget, or a NaN charge for a node that never
/// reported, would pin every node to `f_min` and say nothing. The config
/// refuses both; an infinite budget is no budget and stays legal.
#[test]
fn a_budget_or_charge_no_round_can_use_is_a_config_error() {
    let bad = [
        ("budget NaN", config().with_initial_budget_w(f64::NAN)),
        ("budget -1", config().with_initial_budget_w(-1.0)),
        ("charge NaN", config().with_worst_case_node_w(f64::NAN)),
        ("charge inf", config().with_worst_case_node_w(f64::INFINITY)),
        ("charge -1", config().with_worst_case_node_w(-1.0)),
    ];
    for (what, config) in bad {
        let verdict = config.validate();
        assert!(
            matches!(verdict, Err(FvsError::Config(_))),
            "{what}: {verdict:?}"
        );
    }
    for budget_w in [0.0, 500.0, f64::INFINITY] {
        assert!(config().with_initial_budget_w(budget_w).validate().is_ok());
    }
}

#[test]
#[should_panic(expected = "set_budget: a budget of NaN W")]
fn a_nan_budget_change_is_refused() {
    core(1, &config()).set_budget(f64::NAN);
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
    ingest(&mut core, 20, &mut summary(0, 300.0), 0.05);
    let expected = [
        Call::Ceiling(20, 0),
        Call::Heartbeat(21, 1),
        Call::Heartbeat(23, 1),
    ];
    assert_eq!(round(&mut core, 0.1), expected);

    // Everyone connected reports: the steady case sends no keep-alive.
    for (conn, node) in [(20, 0), (21, 1), (23, 2)] {
        ingest(&mut core, conn, &mut summary(node, 300.0), 0.15);
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
    let taken = ingest(&mut core, 21, &mut summary(1, 300.0), 0.35);
    assert_eq!(
        (taken, core.status().connections),
        (Ingest::Misattributed, 2)
    );
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
    hello(&mut core, 0, 0).unwrap();
    let accepted = ingest(&mut core, 0, &mut summary(0, 300.0), 0.05);
    assert_eq!(accepted, Ingest::Accepted);
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
    ];
    // Each on the connection of the node it names, so the scheduler
    // judges it. A node outside the cluster has no such connection.
    for bad in &mut rejects {
        let before = bad.clone();
        let ingested = ingest(&mut core, 0, bad, 0.15);
        assert_eq!(ingested, Ingest::Rejected, "{before:?} must be refused");
    }
    let mut outside = summary(9, 100.0);
    assert_eq!(
        ingest(&mut core, 0, &mut outside, 0.15),
        Ingest::Misattributed
    );
    round(&mut core, 0.2);
    assert_eq!(core.status().conservative_power_w, 300.0 + WORST_W);
    assert_eq!(core.status().dead_nodes, 0);

    // Only rejects since 0.05: past the timeout the node is silent, for
    // the status exactly as for the scheduler — charged, not counted.
    for bad in &mut rejects {
        assert_eq!(ingest(&mut core, 0, bad, 0.58), Ingest::Rejected);
    }
    round(&mut core, 0.6);
    let status = core.status();
    assert!(status.conservative_power_w.is_finite());
    assert_eq!(status.conservative_power_w, status.reserved_w);
    assert!(status.reserved_w >= 300.0 + WORST_W);
    assert_eq!(status.dead_nodes, 2);
}

/// Bugfix: a summary used to be taken from any connection, for any
/// node. One from a connection that never said hello is refused, and
/// the node it names stays charged as never heard from.
#[test]
fn a_summary_before_any_hello_is_refused() {
    let mut core = core(1, &config());
    assert_eq!(
        ingest(&mut core, 5, &mut summary(0, 300.0), 0.05),
        Ingest::Misattributed
    );
    round(&mut core, 0.1);
    assert_eq!(core.status().nodes_reporting, 0);
    assert_eq!(core.status().conservative_power_w, WORST_W);

    // Once the connection has handshaken as node 0, it speaks for it.
    hello(&mut core, 5, 0).unwrap();
    assert_eq!(
        ingest(&mut core, 5, &mut summary(0, 300.0), 0.15),
        Ingest::Accepted
    );
    round(&mut core, 0.2);
    assert_eq!(core.status().conservative_power_w, 300.0);
}

/// The same bug from a handshaken connection: node 0's socket writing
/// node 1's summaries must not keep node 1 live once its own link has
/// gone silent — past the timeout node 1 is dead and charged.
#[test]
fn a_summary_naming_another_node_is_refused() {
    let mut core = core(2, &config());
    hello(&mut core, 1, 0).unwrap();
    hello(&mut core, 2, 1).unwrap();
    for (conn, node) in [(1, 0), (2, 1)] {
        let ingested = ingest(&mut core, conn, &mut summary(node, 300.0), 0.05);
        assert_eq!(ingested, Ingest::Accepted);
    }
    round(&mut core, 0.1);
    assert_eq!(core.status().conservative_power_w, 600.0);

    // Node 1 falls silent; connection 1 reports for both.
    for at in [0.2, 0.3, 0.4, 0.5, 0.6] {
        assert_eq!(
            ingest(&mut core, 1, &mut summary(0, 300.0), at),
            Ingest::Accepted
        );
        assert_eq!(
            ingest(&mut core, 1, &mut summary(1, 100.0), at),
            Ingest::Misattributed
        );
        round(&mut core, at + 0.05);
    }
    let status = core.status();
    assert_eq!(status.dead_nodes, 1);
    assert!(status.reserved_w >= 300.0, "{status:?}");
}

/// A summary of `procs` processors from `node`.
fn summary_of(node: usize, procs: usize, power_w: f64) -> NodeSummary {
    NodeSummary {
        models: vec![Some(CpiModel::from_components(1.5, 1.0e-9)); procs],
        idle: vec![false; procs],
        current: vec![FreqMhz(1000); procs],
        ..summary(node, power_w)
    }
}

/// The lengths of the ceilings one round at `now_s` commands.
fn ceiling_lengths(core: &mut CoordinatorCore, now_s: f64) -> Vec<usize> {
    struct Lengths(Vec<usize>);
    impl RoundSink for Lengths {
        fn persist(&mut self, _: &Snapshot) {}
        fn send(&mut self, _: u64, msg: &WireMsg) -> bool {
            if let WireMsg::Ceiling(cmd) = msg {
                self.0.push(cmd.freqs.len());
            }
            true
        }
    }
    let mut sink = Lengths(Vec::new());
    core.run_round(now_s, &mut sink);
    sink.0
}

/// Bugfix: the processor count a hello announces was dropped, so a
/// well-formed summary of any other count went into the scheduler and
/// the next round sized the node a ceiling its machine refuses to
/// apply (40 000 processors fit one frame). Such a summary is refused
/// as a misattributed one is, the node's liveness and charge untouched.
#[test]
fn a_summary_of_another_processor_count_than_announced_is_refused() {
    let mut core = core(1, &config());
    hello(&mut core, 1, 0).unwrap();
    for procs in [5, 40_000, 3] {
        assert_eq!(
            ingest(&mut core, 1, &mut summary_of(0, procs, 300.0), 0.05),
            Ingest::Miscounted,
            "{procs} processors after a hello announcing {PROCS}"
        );
    }
    assert_eq!(ceiling_lengths(&mut core, 0.1), []);
    assert_eq!(core.status().nodes_reporting, 0);
    assert_eq!(core.status().conservative_power_w, WORST_W);

    assert_eq!(
        ingest(&mut core, 1, &mut summary_of(0, PROCS, 300.0), 0.15),
        Ingest::Accepted
    );
    assert_eq!(
        ingest(&mut core, 1, &mut summary_of(0, 40_000, 100.0), 0.25),
        Ingest::Miscounted
    );
    assert_eq!(ceiling_lengths(&mut core, 0.3), [PROCS]);
    assert_eq!(core.status().conservative_power_w, 300.0);
    let held = core
        .coordinator()
        .latest_summary(0)
        .expect("node 0 reported");
    assert_eq!((held.models.len(), held.sent_at_s), (PROCS, 0.15));

    // A reconnect that announces another count moves the node to it,
    // on either of its connections.
    let hello = hello_of(0, 8, SCHEMA_VERSION, 0, CODEC_ALL);
    assert_eq!(greet(&mut core, 2, hello, 0.35).1, Ok(()));
    for conn in [2, 1] {
        assert_eq!(
            ingest(&mut core, conn, &mut summary_of(0, PROCS, 300.0), 0.4),
            Ingest::Miscounted
        );
    }
    assert_eq!(
        ingest(&mut core, 2, &mut summary_of(0, 8, 300.0), 0.45),
        Ingest::Accepted
    );
    assert_eq!(ceiling_lengths(&mut core, 0.5), [8]);
}

fn snapshot_of(nodes: usize) -> Snapshot {
    Snapshot {
        epoch: 3,
        budget_w: 1000.0,
        taken_at_s: 42.0,
        rounds: 17,
        nodes: (0..nodes)
            .map(|node| NodeRestore {
                summary: Some(NodeSummary {
                    sent_at_s: 41.9,
                    ..summary(node, 300.0)
                }),
                commanded_w: 400.0,
                dead: false,
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
    for node in 0..2 {
        let hello = hello_of(node, PROCS, SCHEMA_VERSION, 3, CODEC_ALL);
        assert!(greet(&mut core, 1 + node as u64, hello, 0.0).1.is_ok());
    }

    // Restored charges are stale by construction: max(reported, commanded).
    round(&mut core, 0.1);
    assert_eq!(core.status().conservative_power_w, 800.0);
    assert!(core.status().resyncing);
    // One of two fresh is not enough.
    ingest(&mut core, 1, &mut summary(0, 250.0), 0.15);
    round(&mut core, 0.2);
    assert_eq!(core.status().conservative_power_w, 250.0 + 400.0);
    assert!(core.status().resyncing);
    assert!(!kinds(&config.telemetry).contains(&"resync_complete"));

    ingest(&mut core, 2, &mut summary(1, 250.0), 0.25);
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
    hello(&mut core, 1, 0).unwrap();
    ingest(&mut core, 1, &mut summary(0, 250.0), 1.85);
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

/// The first `SchedEvent` `pick` matches, from `telemetry`'s ring.
fn first<T>(telemetry: &Telemetry, pick: impl Fn(SchedEvent) -> Option<T>) -> Option<T> {
    telemetry.events().into_iter().find_map(pick)
}

/// Bugfix: a budget configured stricter than the snapshot's was put in
/// force silently — no write-ahead snapshot, no `budget_drop`, no ΔT
/// episode — while the restored episode went on judging compliance
/// against the looser budget. Now the resume is at the snapshot's
/// budget and the first round cuts to the configured one as
/// `set_budget` would.
#[test]
fn a_stricter_budget_configured_at_resume_is_a_budget_drop() {
    let config = config()
        .with_initial_budget_w(800.0)
        .with_snapshots("never-opened.snap", 10.0);
    let mut snap = snapshot_of(2);
    snap.episode = Some(OpenEpisode {
        dropped_at_s: 41.5,
        budget_w: 1000.0,
        rounds: 3,
        violation_emitted: false,
    });
    let mut core = CoordinatorCore::new(2, FvsstAlgorithm::p630(), &config, Some(&snap));
    assert_eq!(core.until_round_s(0.0), 0.0, "the cut cannot wait");
    for node in 0..2 {
        hello(&mut core, 1 + node as u64, node).unwrap();
        ingest(&mut core, 1 + node as u64, &mut summary(node, 450.0), 0.05);
    }
    let calls = round(&mut core, 0.1);
    assert_eq!(
        calls.first(),
        Some(&Call::Persist(800.0)),
        "write-ahead first"
    );
    assert_eq!(core.status().budget_w, 800.0);
    let drop = first(&config.telemetry, |ev| match ev {
        SchedEvent::BudgetDrop {
            t_s, from_w, to_w, ..
        } => Some((t_s, from_w, to_w)),
        _ => None,
    });
    assert_eq!(drop, Some((0.1, 1000.0, 800.0)));
    // 900 W meets the restored episode's 1 000 W, not the 800 W in force.
    assert!(!kinds(&config.telemetry).contains(&"budget_compliance"));

    for node in 0..2 {
        ingest(&mut core, 1 + node as u64, &mut summary(node, 350.0), 0.15);
    }
    round(&mut core, 0.2);
    let compliance = first(&config.telemetry, |ev| match ev {
        SchedEvent::BudgetCompliance {
            t_s,
            rounds,
            wall_s,
            ..
        } => Some((t_s, rounds, wall_s)),
        _ => None,
    });
    assert_eq!(compliance, Some((0.2, 2, 0.2 - 0.1)), "timed from the cut");
}

/// A snapshot's times are on the crashed clock and are rebased once, by
/// its `taken_at_s`. Each row: two summaries arrive, the budget drops
/// out of reach (the episode stays open), a cadence snapshot is taken at
/// `t`, written, read back and resumed. The restored summaries and ΔT
/// clock are those of the format that stored ages, bit for bit: a
/// summary `age = t − arrival` old comes back sent at
/// `−(age + timeout + 1)`, and the drop `t − drop` before the resume.
#[test]
fn a_resume_rebases_every_time_once_by_the_snapshot_clock() {
    // (arrivals, drop at, snapshot at)
    let rows: [([f64; 2], f64, f64); 5] = [
        ([0.05, 0.07], 0.12, 0.2),
        ([10.37, 10.41], 10.43, 13.7),
        ([0.3, 1.9], 2.0, 2.0 + 1.0 / 3.0),
        ([1e-9, 12_345.678_9], 12_345.7, 12_346.1),
        ([0.1, 0.1], 0.1, 0.1 + 1e-3),
    ];
    for (arrivals, drop_s, t) in rows {
        let crashed = config()
            .with_snapshots("never-opened.snap", 1e-3)
            .with_deadline_s(1e9);
        let mut a = core(2, &crashed);
        for (node, &at) in arrivals.iter().enumerate() {
            hello(&mut a, 1 + node as u64, node).unwrap();
            ingest(&mut a, 1 + node as u64, &mut summary(node, 300.0), at);
        }
        a.set_budget(100.0);
        round(&mut a, drop_s);
        let snap = a.run_round(t, &mut Recorder::default());
        let text = snap.expect("cadence is due").encode().unwrap();
        let snap = Snapshot::decode(&text).unwrap();

        let resumed = config();
        let mut b = CoordinatorCore::new(2, FvsstAlgorithm::p630(), &resumed, Some(&snap));
        for (node, &at) in arrivals.iter().enumerate() {
            let age_s = (t - at).max(0.0).clamp(0.0, 1e9);
            let want = -(age_s + TIMEOUT_S + 1.0);
            let got = b.coordinator().latest_summary(node).unwrap().sent_at_s;
            assert_eq!(got.to_bits(), want.to_bits(), "row at {t}: {got} vs {want}");
        }
        // The open episode's clock, read off its compliance.
        for node in 0..2 {
            hello(&mut b, 1 + node as u64, node).unwrap();
            ingest(&mut b, 1 + node as u64, &mut summary(node, 10.0), 0.05);
        }
        round(&mut b, 0.1);
        let wall_s = first(&resumed.telemetry, |ev| match ev {
            SchedEvent::BudgetCompliance { wall_s, .. } => Some(wall_s),
            _ => None,
        });
        let dropped_at_s = 0.0 - (t - drop_s).max(0.0);
        let want = 0.1 - dropped_at_s;
        assert_eq!(wall_s.map(f64::to_bits), Some(want.to_bits()), "row at {t}");
    }
}

/// The coordinator's `/healthz` body and status line, byte for byte as
/// the `HealthReport` they replaced rendered them: ok, degraded under
/// an unlimited budget, degraded over a finite one, and resyncing.
#[test]
fn healthz_bodies_and_status_lines_match_the_golden_strings() {
    let ok = CoordinatorStatus {
        rounds: 42,
        nodes_reporting: 3,
        conservative_power_w: 850.5,
        budget_w: 1200.0,
        connections: 3,
        compliances: 2,
        epoch: 1,
        last_round_s: 9.75,
        ..CoordinatorStatus::default()
    };
    let degraded_unlimited = CoordinatorStatus {
        rounds: 7,
        nodes_reporting: 1,
        dead_nodes: 1,
        reserved_w: 560.0,
        conservative_power_w: 860.25,
        budget_w: f64::INFINITY,
        connections: 1,
        violations: 1,
        epoch: 2,
        last_round_s: 3.5,
        ..CoordinatorStatus::default()
    };
    let over = CoordinatorStatus {
        rounds: 9,
        nodes_reporting: 2,
        conservative_power_w: 1300.0,
        budget_w: 1200.0,
        connections: 2,
        compliances: 1,
        epoch: 1,
        last_round_s: 4.0,
        ..CoordinatorStatus::default()
    };
    let resyncing = CoordinatorStatus {
        rounds: 17,
        nodes_reporting: 2,
        reserved_w: 800.0,
        conservative_power_w: 800.0,
        budget_w: 1000.0,
        connections: 2,
        epoch: 4,
        resyncing: true,
        resync_deadline_s: Some(2.0),
        last_round_s: 0.25,
        ..CoordinatorStatus::default()
    };
    let golden = [
        (
            ok,
            10.0,
            true,
            concat!(
                r#"{"status":"ok","uptime_s":10,"rounds":42,"last_round_age_s":0.25,"#,
                r#""nodes_reporting":3,"dead_nodes":0,"connections":3,"budget_w":1200,"#,
                r#""conservative_power_w":850.5,"reserved_w":0,"budget_compliant":true,"#,
                r#""compliances":2,"violations":0,"epoch":1,"resyncing":false,"#,
                r#""resync_deadline_s":null}"#
            ),
            "[   10.0s] ok | epoch 1 | rounds 42 | nodes 3 live / 0 dead | conn 3 | \
             power 850.5 W / budget 1200.0 W (reserved 0.0) | ΔT 2 ok / 0 late",
        ),
        (
            degraded_unlimited,
            3.625,
            false,
            concat!(
                r#"{"status":"degraded","uptime_s":3.625,"rounds":7,"last_round_age_s":0.125,"#,
                r#""nodes_reporting":1,"dead_nodes":1,"connections":1,"budget_w":null,"#,
                r#""conservative_power_w":860.25,"reserved_w":560,"budget_compliant":true,"#,
                r#""compliances":0,"violations":1,"epoch":2,"resyncing":false,"#,
                r#""resync_deadline_s":null}"#
            ),
            "[    3.6s] DEGRADED | epoch 2 | rounds 7 | nodes 1 live / 1 dead | conn 1 | \
             power 860.2 W / budget inf W (reserved 560.0) | ΔT 0 ok / 1 late",
        ),
        (
            over,
            4.0625,
            false,
            concat!(
                r#"{"status":"degraded","uptime_s":4.0625,"rounds":9,"last_round_age_s":0.0625,"#,
                r#""nodes_reporting":2,"dead_nodes":0,"connections":2,"budget_w":1200,"#,
                r#""conservative_power_w":1300,"reserved_w":0,"budget_compliant":false,"#,
                r#""compliances":1,"violations":0,"epoch":1,"resyncing":false,"#,
                r#""resync_deadline_s":null}"#
            ),
            "[    4.1s] DEGRADED | epoch 1 | rounds 9 | nodes 2 live / 0 dead | conn 2 | \
             power 1300.0 W / budget 1200.0 W (reserved 0.0) | ΔT 1 ok / 0 late",
        ),
        (
            resyncing,
            0.5,
            false,
            concat!(
                r#"{"status":"resyncing","uptime_s":0.5,"rounds":17,"last_round_age_s":0.25,"#,
                r#""nodes_reporting":2,"dead_nodes":0,"connections":2,"budget_w":1000,"#,
                r#""conservative_power_w":800,"reserved_w":800,"budget_compliant":true,"#,
                r#""compliances":0,"violations":0,"epoch":4,"resyncing":true,"#,
                r#""resync_deadline_s":1.5}"#
            ),
            "[    0.5s] RESYNC | epoch 4 | rounds 17 | nodes 2 live / 0 dead | conn 2 | \
             power 800.0 W / budget 1000.0 W (reserved 800.0) | ΔT 0 ok / 0 late",
        ),
    ];
    for (status, now_s, healthy, body, line) in golden {
        assert_eq!(status.healthy(), healthy, "{status:?}");
        assert_eq!(status.health_json(now_s), body);
        assert_eq!(status.status_line(now_s), line);
    }
}

/// The whole-cluster edge: a round is owed at once when the last
/// node's first accepted summary lands — not at a period before any
/// summary, and never again, not for a second summary and not for a
/// node that hands over a new hello.
#[test]
fn the_last_first_summary_owes_a_round_at_once_and_only_once() {
    let mut core = core(3, &config());
    assert!(
        (core.until_round_s(0.0) - PERIOD_S).abs() < 1e-12,
        "no edge at t = 0"
    );
    for node in 0..2 {
        hello(&mut core, node as u64, node).unwrap();
        assert_eq!(
            ingest(&mut core, node as u64, &mut summary(node, 300.0), 0.02),
            Ingest::Accepted
        );
        assert!(
            (core.until_round_s(0.02) - 0.08).abs() < 1e-12,
            "two of three"
        );
    }
    hello(&mut core, 2, 2).unwrap();
    assert_eq!(
        ingest(&mut core, 2, &mut summary(2, 300.0), 0.03),
        Ingest::Accepted
    );
    assert_eq!(core.until_round_s(0.03), 0.0, "every node has reported");
    assert_eq!(round(&mut core, 0.03).len(), 3, "every node commanded");
    assert!((core.until_round_s(0.04) - 0.09).abs() < 1e-12);

    // Fresh summaries, and node 2 again on a new connection: the edge
    // was this run's, and the period rules from here on.
    for node in 0..3 {
        assert_eq!(
            ingest(&mut core, node as u64, &mut summary(node, 280.0), 0.05),
            Ingest::Accepted
        );
    }
    hello(&mut core, 7, 2).unwrap();
    assert_eq!(
        ingest(&mut core, 7, &mut summary(2, 270.0), 0.06),
        Ingest::Accepted
    );
    assert!(
        (core.until_round_s(0.06) - 0.07).abs() < 1e-12,
        "a rejoin waits"
    );
}

/// Only an accepted summary counts a node heard from: a rejected,
/// misattributed or miscounted one leaves the cluster on the period.
#[test]
fn a_refused_summary_does_not_count_a_node_heard_from() {
    let mut core = core(2, &config());
    for node in 0..2 {
        hello(&mut core, node as u64, node).unwrap();
    }
    assert_eq!(
        ingest(&mut core, 0, &mut summary(0, 300.0), 0.01),
        Ingest::Accepted
    );
    // On node 1's connection, node 0's, and one that never said hello.
    let refused = [
        (1, summary(1, f64::NAN), Ingest::Rejected),
        (0, summary(1, 300.0), Ingest::Misattributed),
        (9, summary(1, 300.0), Ingest::Misattributed),
        (1, summary_of(1, PROCS + 1, 300.0), Ingest::Miscounted),
    ];
    for (conn, mut s, verdict) in refused {
        assert_eq!(ingest(&mut core, conn, &mut s, 0.02), verdict);
        assert!(
            (core.until_round_s(0.02) - 0.08).abs() < 1e-12,
            "{verdict:?} counted"
        );
    }
    assert_eq!(
        ingest(&mut core, 1, &mut summary(1, 300.0), 0.03),
        Ingest::Accepted
    );
    assert_eq!(core.until_round_s(0.03), 0.0);
}

/// With one node never heard from there is no edge: rounds come on the
/// period, however often the others report.
#[test]
fn with_one_node_never_heard_from_the_cluster_keeps_to_the_period() {
    let mut core = core(3, &config());
    for node in 0..2 {
        hello(&mut core, node as u64, node).unwrap();
    }
    for k in 1..=5 {
        let t = 0.1 * f64::from(k);
        for node in 0..2 {
            let at = t - 0.05;
            assert_eq!(
                ingest(&mut core, node as u64, &mut summary(node, 300.0), at),
                Ingest::Accepted
            );
            assert!(core.until_round_s(at) > 0.0, "a round owed at {at} s");
        }
        assert!(core.until_round_s(t) <= 1e-12);
        round(&mut core, t);
    }
    assert_eq!(core.status().rounds, 5);
}

/// After a resume the edge is the resync end: the round it owes
/// journals `resync_complete`, and the status says so only after it.
#[test]
fn after_a_resume_the_edge_round_ends_resync_before_the_status_says_so() {
    let config = config().with_resync_grace_s(2.0);
    let snap = snapshot_of(2);
    let mut core = CoordinatorCore::new(2, FvsstAlgorithm::p630(), &config, Some(&snap));
    for node in 0..2 {
        hello(&mut core, node as u64, node).unwrap();
    }
    assert_eq!(
        ingest(&mut core, 0, &mut summary(0, 250.0), 0.03),
        Ingest::Accepted
    );
    assert!(core.until_round_s(0.03) > 0.0, "one of two");
    assert_eq!(
        ingest(&mut core, 1, &mut summary(1, 250.0), 0.04),
        Ingest::Accepted
    );
    assert_eq!(core.until_round_s(0.04), 0.0);
    assert!(core.status().resyncing, "not before the round");
    assert!(!kinds(&config.telemetry).contains(&"resync_complete"));

    round(&mut core, 0.04);
    let complete = first(&config.telemetry, |ev| match ev {
        SchedEvent::ResyncComplete {
            t_s,
            fresh_nodes,
            charged_nodes,
            ..
        } => Some((t_s, fresh_nodes, charged_nodes)),
        _ => None,
    });
    assert_eq!(complete, Some((0.04, 2, 0)));
    let status = core.status();
    assert_eq!((status.resyncing, status.resync_deadline_s), (false, None));
    assert_eq!(status.last_round_s, 0.04);
}

/// What one uplink frame was, for the table below.
enum Sent {
    Msg(WireMsg),
    Summary(NodeSummary),
}

/// Every kind of frame through the one entry: what it is taken for (a
/// hello with the ack it owes), and whether the link stays open. Connection 1 has
/// handshaken as node 0 of a two-node cluster; connection 2 is new.
#[test]
fn frame_says_what_each_uplink_frame_was_what_to_write_and_whether_to_stay() {
    let ack = |accepted: bool| WireMsg::HelloAck {
        accepted,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: if accepted {
            WireCodec::Binary
        } else {
            WireCodec::Json
        }
        .id(),
    };
    let said = |node, version, last_epoch| {
        Sent::Msg(hello_of(node, PROCS, version, last_epoch, CODEC_ALL))
    };
    let judged = |node, verdict: Result<(), Refusal>| Received::Hello {
        node,
        ack: ack(verdict.is_ok()),
        verdict,
    };
    let rows = [
        // (what, connection, frame, taken for, stays open)
        (
            "hello",
            2,
            said(1, SCHEMA_VERSION, 1),
            judged(1, Ok(())),
            true,
        ),
        (
            "hello of another schema",
            2,
            said(1, SCHEMA_VERSION + 1, 0),
            judged(1, Err(Refusal::Version)),
            false,
        ),
        (
            "hello that has seen a newer epoch",
            2,
            said(1, SCHEMA_VERSION, 2),
            judged(1, Err(Refusal::StaleEpoch)),
            false,
        ),
        (
            "second hello",
            1,
            said(1, SCHEMA_VERSION, 0),
            judged(1, Err(Refusal::Repeated)),
            false,
        ),
        (
            "hello from outside the cluster",
            2,
            said(2, SCHEMA_VERSION, 0),
            judged(2, Err(Refusal::UnknownNode)),
            false,
        ),
        (
            "summary",
            1,
            Sent::Summary(summary(0, 300.0)),
            Received::Summary(Ingest::Accepted),
            true,
        ),
        (
            "NaN summary",
            1,
            Sent::Summary(summary(0, f64::NAN)),
            Received::Summary(Ingest::Rejected),
            true,
        ),
        (
            "another node's summary",
            1,
            Sent::Summary(summary(1, 300.0)),
            Received::Summary(Ingest::Misattributed),
            true,
        ),
        (
            "summary before a hello",
            2,
            Sent::Summary(summary(1, 300.0)),
            Received::Summary(Ingest::Misattributed),
            true,
        ),
        (
            "summary of another count",
            1,
            Sent::Summary(summary_of(0, PROCS + 1, 300.0)),
            Received::Summary(Ingest::Miscounted),
            true,
        ),
        (
            "bye",
            1,
            Sent::Msg(WireMsg::Bye { node: 0 }),
            Received::Bye,
            false,
        ),
        (
            "heartbeat",
            1,
            Sent::Msg(WireMsg::Heartbeat { epoch: 1 }),
            Received::Ignored,
            true,
        ),
        (
            "hello_ack",
            2,
            Sent::Msg(ack(true)),
            Received::Ignored,
            true,
        ),
    ];
    for (what, conn, sent, want, open) in rows {
        let mut core = core(2, &config());
        hello(&mut core, 1, 0).unwrap();
        let got = match sent {
            Sent::Msg(msg) => core.frame(conn, Frame::Msg(msg), 0.05),
            Sent::Summary(mut s) => core.frame(conn, Frame::Summary(&mut s), 0.05),
        };
        assert_eq!(got, want, "{what}");
        assert_eq!(got.open(), open, "{what}");
    }
}

/// The budget-change rule is `RoundClock`'s: a change of at most 1e-9 W
/// is none — it owes no round and replaces nothing — and a real one
/// returns the budget it replaced, in force or waiting. A waiting change
/// that comes back to the budget in force puts nothing in force: no
/// write-ahead, no second `budget_drop`.
#[test]
fn a_budget_change_of_a_nanowatt_or_less_owes_no_round() {
    let config = config().with_snapshots("never-opened.snap", 10.0);
    let mut core = self::core(1, &config);
    round(&mut core, PERIOD_S);
    assert_eq!(
        core.set_budget(f64::INFINITY),
        None,
        "no budget is no budget"
    );
    assert!(core.until_round_s(0.15) > 0.0);

    assert_eq!(core.set_budget(900.0), Some(f64::INFINITY));
    assert_eq!(core.until_round_s(0.15), 0.0);
    assert_eq!(
        core.set_budget(900.0 + 1e-10),
        None,
        "against the waiting one"
    );
    assert_eq!(core.set_budget(800.0), Some(900.0));
    assert_eq!(round(&mut core, 0.15).first(), Some(&Call::Persist(800.0)));
    assert_eq!(core.status().budget_w, 800.0);

    for nudge_w in [1e-10, -5e-10, 9e-10] {
        assert_eq!(core.set_budget(800.0 + nudge_w), None, "{nudge_w:e} W");
        assert!(core.until_round_s(0.16) > 0.0, "{nudge_w:e} W");
    }
    assert_eq!(core.set_budget(700.0), Some(800.0), "a drop");
    assert_eq!(core.set_budget(800.0), Some(700.0), "and back");
    assert_eq!(core.until_round_s(0.16), 0.0);
    let calls = round(&mut core, 0.16);
    assert!(!calls.contains(&Call::Persist(800.0)), "{calls:?}");
    assert_eq!(core.status().budget_w, 800.0);
    let drops = kinds(&config.telemetry);
    assert_eq!(drops.iter().filter(|&&k| k == "budget_drop").count(), 1);
}

/// `ClusterSim` hands the coordinator the schedule's budget every tick
/// and records a drop when `set_budget` says one replaced a higher
/// budget: a repeated value, or one within 1e-9 W, is no drop, and a
/// raise is none either.
#[test]
fn a_cluster_schedule_that_repeats_a_budget_records_only_the_real_drops() {
    let step = |at_s, budget_w| BudgetEvent { at_s, budget_w };
    let budget = BudgetSchedule::with_events(
        1600.0,
        vec![
            step(0.2, 1000.0),
            step(0.3, 1000.0),
            step(0.4, 1000.0 + 1e-10),
            step(0.5, 1200.0),
            step(0.6, 1200.0),
            step(0.7, 900.0),
            step(0.8, 900.0),
        ],
    );
    let config = ClusterConfig::rack().with_budget(budget);
    let report = ClusterSim::three_tier(4, 7, config).run_for(1.0);
    let drops: Vec<(f64, f64)> = report.drops.iter().map(|d| (d.at_s, d.budget_w)).collect();
    assert_eq!(drops.len(), 2, "{drops:?}");
    assert_eq!((drops[0].1, drops[1].1), (1000.0, 900.0));
    assert!((drops[0].0 - 0.2).abs() < 0.011 && (drops[1].0 - 0.7).abs() < 0.011);
}
