//! Socket-level mechanics over 127.0.0.1: handshake, version
//! negotiation, command flow, and the reconnect ladder. The full
//! cluster scenario (budget drop + dead node + ΔT compliance) lives in
//! the workspace-root `net_loopback` integration test.

use fvs_cluster::NodeSummary;
use fvs_faults::WireFaultPlan;
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::wire::{encode, encode_binary};
use fvs_net::{
    AgentConfig, AgentFleet, CoordinatorConfig, CoordinatorServer, FleetHandle, FrameReader,
    WireChaos, WireCodec, WireMsg, CODEC_ALL, SCHEMA_VERSION,
};
use fvs_sched::FvsstAlgorithm;
use fvs_sim::MachineBuilder;
use fvs_telemetry::Telemetry;
use fvs_workloads::WorkloadSpec;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn cpu_bound_node(id: usize) -> fvs_cluster::ClusterNode {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(0.0, 1.0e18));
    }
    fvs_cluster::ClusterNode::new(id, b.build(), None)
}

/// A fleet of one: node 0 against `addr`.
fn launch(addr: &str, config: AgentConfig) -> FleetHandle {
    AgentFleet::launch(vec![cpu_bound_node(0)], addr, config, Duration::ZERO).unwrap()
}

fn fast_agent() -> AgentConfig {
    AgentConfig::default_lan()
        .with_tick_s(0.01)
        .with_summary_every(2)
        .with_pace(Duration::from_millis(1))
        .with_backoff(Duration::from_millis(20), Duration::from_millis(100))
}

#[test]
fn agent_reports_and_receives_ceilings() {
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan()
            .with_period_s(0.02)
            .with_heartbeat_timeout_s(0.5)
            .with_initial_budget_w(f64::INFINITY),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let agent = launch(&addr, fast_agent());

    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let st = server.status();
        if st.nodes_reporting == 1 && st.rounds > 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let st = server.status();
    assert_eq!(st.nodes_reporting, 1, "agent never reported: {st:?}");
    assert_eq!(st.dead_nodes, 0);

    let stats = agent.stop();
    assert!(stats.summaries_sent() > 0);
    assert!(
        stats.ceilings_applied() > 0,
        "no ceiling ever arrived: {stats:?}"
    );
    assert_eq!(stats.version_rejects(), 0);
    server.shutdown().unwrap();
}

/// One agent, node `node` speaking `config`, against a one-node
/// coordinator that refuses its hello: the refusal is permanent, so the
/// agent exits on its own, and the coordinator counts neither the
/// connection nor the node.
fn assert_refused_for_good(node: usize, config: AgentConfig) {
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan().with_period_s(0.05),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let agent =
        AgentFleet::launch(vec![cpu_bound_node(node)], &addr, config, Duration::ZERO).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !agent.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(agent.is_finished(), "refused agent should self-terminate");
    let stats = agent.stop();
    assert_eq!(stats.version_rejects(), 1);
    assert_eq!(stats.summaries_sent(), 0);
    let st = server.shutdown().unwrap();
    assert_eq!((st.connections, st.nodes_reporting), (0, 0), "{st:?}");
}

#[test]
fn wrong_schema_version_is_refused_not_retried() {
    assert_refused_for_good(0, fast_agent().with_version(SCHEMA_VERSION + 1));
}

/// Bugfix: a hello from a node the cluster does not have was accepted,
/// and the coordinator's heartbeats kept the agent's link alive while
/// every summary it sent was refused, so its power was never charged.
#[test]
fn a_node_outside_the_cluster_is_refused_not_retried() {
    assert_refused_for_good(1, fast_agent());
}

#[test]
fn agent_survives_a_coordinator_restart() {
    let config = CoordinatorConfig::default_lan()
        .with_period_s(0.02)
        .with_heartbeat_timeout_s(0.5);
    let server =
        CoordinatorServer::bind("127.0.0.1:0", 1, FvsstAlgorithm::p630(), config.clone()).unwrap();
    let addr = server.local_addr().to_string();
    let agent = launch(&addr, fast_agent());

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.status().nodes_reporting < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.status().nodes_reporting, 1);
    // Kill the coordinator; the agent climbs its backoff ladder.
    drop(server);
    std::thread::sleep(Duration::from_millis(100));
    // Rebind the same port and wait for the agent to find us again.
    let server = CoordinatorServer::bind(&addr, 1, FvsstAlgorithm::p630(), config).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.status().nodes_reporting < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.status().nodes_reporting,
        1,
        "agent never reconnected"
    );
    let stats = agent.stop();
    assert!(stats.reconnects() >= 1, "ladder never climbed: {stats:?}");
    server.shutdown().unwrap();
}

/// The next frame on `socket`, waiting up to its read timeout.
fn next_frame(reader: &mut FrameReader, socket: &mut TcpStream) -> WireMsg {
    loop {
        if let Some(msg) = reader.next_frame().unwrap() {
            return msg;
        }
        let n = reader.read_from(socket, 4096).expect("a frame in time");
        assert!(n > 0, "the peer closed the connection");
    }
}

/// Bugfix: the fleet ticked only agents with a socket, so a machine's
/// clock stood still while its link was down. Nothing accepts on the
/// address for 0.4 s of one-tick-per-`tick_s` pacing; the first summary
/// after the handshake must carry a clock past that outage, not one
/// summary window.
#[test]
fn a_machine_runs_while_its_link_is_down() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let config = fast_agent().with_pace(Duration::from_millis(10));
    let agent = AgentFleet::launch(vec![cpu_bound_node(0)], addr, config, Duration::ZERO).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let listener = TcpListener::bind(addr).unwrap();
    let (mut socket, _) = listener.accept().unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let mut reader = FrameReader::new();
    let hello = next_frame(&mut reader, &mut socket);
    assert!(matches!(hello, WireMsg::Hello { node: 0, .. }), "{hello:?}");
    let ack = WireMsg::HelloAck {
        accepted: true,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: WireCodec::Binary.id(),
    };
    socket.write_all(&encode(&ack).unwrap()).unwrap();
    let summary = loop {
        if let WireMsg::Summary(summary) = next_frame(&mut reader, &mut socket) {
            break summary;
        }
    };
    agent.kill();
    assert!(
        summary.sent_at_s > 0.25,
        "the machine stood still while unlinked: first summary at {} s",
        summary.sent_at_s
    );
}

/// Bugfix: a socket node booted at 1 GHz (560 W for a 4-way P630) and
/// kept its last ceiling while unlinked. With nothing listening it never
/// holds a ceiling, so it runs at `f_min`: 4 × 9 W at 250 MHz.
#[test]
fn a_node_that_never_links_runs_at_f_min() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let agent =
        AgentFleet::launch(vec![cpu_bound_node(0)], addr, fast_agent(), Duration::ZERO).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(agent.stop().power_w(), 36.0);
}

/// Bugfix: a chaos-delayed frame on the coordinator's end used to leave
/// only with its connection's next write — a ceiling or a heartbeat, up
/// to a period later. Held 50 ms under a 1 s period, the hello ack must
/// arrive well inside the period.
#[test]
fn a_coordinator_delayed_frame_leaves_when_its_hold_ends() {
    let chaos = WireChaos::new(WireFaultPlan::parse("delay=1.0:0.05").unwrap(), 7);
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan()
            .with_period_s(1.0)
            .with_chaos(chaos),
    )
    .unwrap();
    let mut socket = TcpStream::connect(server.local_addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let hello = WireMsg::Hello {
        node: 0,
        procs: 4,
        version: SCHEMA_VERSION,
        last_epoch: 0,
        codecs: CODEC_ALL,
    };
    let sent = Instant::now();
    socket.write_all(&encode(&hello).unwrap()).unwrap();
    let mut reader = FrameReader::new();
    let ack = loop {
        if let Some(msg) = reader.next_frame().unwrap() {
            break msg;
        }
        let n = reader
            .read_from(&mut socket, 4096)
            .expect("an ack within 3 s");
        assert!(n > 0, "the coordinator closed the connection");
    };
    let waited = sent.elapsed();
    assert!(
        matches!(ack, WireMsg::HelloAck { accepted: true, .. }),
        "{ack:?}"
    );
    assert!(
        waited < Duration::from_millis(500),
        "the ack took {waited:?} under a 1 s period"
    );
    server.shutdown().unwrap();
}

/// Bugfix: the coordinator used to take a summary from any connection,
/// for any node. A socket that never says hello, writing node 0's
/// summaries after node 0's agent is gone, must not keep it live: node 0
/// is declared dead and charged, and each refused summary is a wire
/// fault.
#[test]
fn summaries_from_a_socket_that_never_said_hello_keep_no_node_alive() {
    let telemetry = Telemetry::memory(1024);
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        1,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan()
            .with_period_s(0.02)
            .with_heartbeat_timeout_s(0.3)
            .with_telemetry(telemetry.clone()),
    )
    .unwrap();
    let agent = launch(&server.local_addr().to_string(), fast_agent());
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.status().nodes_reporting < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.status().nodes_reporting, 1);
    agent.stop();

    let mut rogue = TcpStream::connect(server.local_addr()).unwrap();
    let forged = encode_binary(&WireMsg::Summary(NodeSummary {
        node: 0,
        sent_at_s: 0.0,
        models: vec![Some(CpiModel::from_components(1.0, 2.0e-9)); 4],
        idle: vec![false; 4],
        current: vec![FreqMhz(1000); 4],
        power_w: 100.0,
    }))
    .unwrap();
    // Five heartbeat timeouts of forged reports, one every 20 ms.
    let until = Instant::now() + Duration::from_millis(1500);
    while Instant::now() < until {
        rogue.write_all(&forged).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let status = server.status();
    assert_eq!(
        status.dead_nodes, 1,
        "forged summaries kept node 0 alive: {status:?}"
    );
    let registry = telemetry.registry().unwrap();
    assert!(registry.counter("net.wire_faults").get() > 0);
    server.shutdown().unwrap();
}

/// Peers that write summaries as fast as their sockets take them must
/// not keep the event loop from scheduling or from stopping. Two of
/// them test `Transport::fill`, which hands control back after its byte
/// budget; 256 of them test the loop itself, which leaves a poll batch
/// when a round is owed (one fill budget from each is two periods of
/// parsing).
#[test]
fn flooding_peers_starve_neither_rounds_nor_shutdown() {
    for conns in [2, 256] {
        flood(conns);
    }
}

fn flood(conns: usize) {
    const PERIOD_S: f64 = 0.05;
    const WRITERS: usize = 2;
    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        conns,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan().with_period_s(PERIOD_S),
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flooding = Arc::new(Barrier::new(WRITERS + 1));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (stop, flooding) = (Arc::clone(&stop), Arc::clone(&flooding));
            std::thread::spawn(move || {
                // Each writer owns every WRITERS-th node: a socket, the
                // node's block of 64 summaries, and how much of the
                // block the socket has taken.
                let mut peers: Vec<(TcpStream, Vec<u8>, usize)> = (w..conns)
                    .step_by(WRITERS)
                    .map(|node| {
                        let mut socket = TcpStream::connect(addr).unwrap();
                        let hello = WireMsg::Hello {
                            node,
                            procs: 4,
                            version: SCHEMA_VERSION,
                            last_epoch: 0,
                            codecs: CODEC_ALL,
                        };
                        socket.write_all(&encode(&hello).unwrap()).unwrap();
                        let summary = WireMsg::Summary(NodeSummary {
                            node,
                            sent_at_s: 0.0,
                            models: vec![Some(CpiModel::from_components(1.0, 2.0e-9)); 4],
                            idle: vec![false; 4],
                            current: vec![FreqMhz(1000); 4],
                            power_w: 400.0,
                        });
                        let block = encode_binary(&summary).unwrap().repeat(64);
                        socket.write_all(&block).unwrap();
                        // Never parked in the kernel: a server that stops
                        // reading must not hold a writer past the test.
                        socket.set_nonblocking(true).unwrap();
                        (socket, block, 0)
                    })
                    .collect();
                flooding.wait();
                // Ends when the test says so; a peer the server dropped
                // just stops taking bytes.
                while !stop.load(Ordering::SeqCst) {
                    for (socket, block, sent) in &mut peers {
                        if let Ok(n) = socket.write(&block[*sent..]) {
                            *sent = (*sent + n) % block.len();
                        }
                    }
                }
            })
        })
        .collect();
    flooding.wait();

    let before = server.status().rounds;
    std::thread::sleep(Duration::from_secs(1));
    let ran = server.status().rounds - before;

    // Shut down with the flood still running; bounded so that a hang
    // fails the test instead of wedging the suite.
    let (done, stopped) = mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown().is_ok()));
    let stopped = stopped.recv_timeout(Duration::from_secs(10));
    stop.store(true, Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    let due = 1.0 / PERIOD_S;
    assert!(
        ran as f64 >= 0.75 * due,
        "{conns} flooding peers: {ran} rounds in 1 s, {due} due"
    );
    assert_eq!(
        stopped,
        Ok(true),
        "shutdown() must return under a flood of {conns}"
    );
}
