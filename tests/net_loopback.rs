//! The cluster-over-sockets drill from the ISSUE: one coordinator and
//! four node agents on 127.0.0.1, a budget drop mid-run, one agent
//! killed without a goodbye — asserting that the coordinator reaches
//! budget compliance within ΔT, declares the silent node dead, charges
//! it at worst-case power, and keeps the conservative power sum under
//! the budget afterwards. Telemetry lands in a JSONL file (path taken
//! from `FVSST_NET_TELEMETRY` when set, so CI can grep the journal).
//!
//! The same run exercises the wire-served observability plane: mid-run
//! HTTP scrapes of `/metrics` (quantile lines for round latency and
//! ceiling fan-out must be present), `/healthz` (must flip to `503
//! degraded` once the killed agent is declared dead), `/journal` (the
//! budget drop must be in the tail) and `/trace` (the span ring must
//! hold a causal `net.round` → `cluster.round` → `sched.pass2` chain).

use fvsst::prelude::*;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const WORST_CASE_NODE_W: f64 = 560.0;
const DEADLINE_S: f64 = 2.0;

fn cpu_bound_node(id: usize) -> ClusterNode {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(100.0, 1.0e18));
    }
    ClusterNode::new(id, b.build(), None)
}

fn fast_agent() -> AgentConfig {
    AgentConfig::default_lan()
        .with_tick_s(0.01)
        .with_summary_every(2)
        .with_pace(Duration::from_millis(1))
        .with_backoff(Duration::from_millis(20), Duration::from_millis(100))
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

#[test]
fn budget_drop_and_node_death_over_loopback() {
    let telemetry_path = std::env::var("FVSST_NET_TELEMETRY")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("fvsst-net-loopback.telemetry.jsonl"));
    let _ = std::fs::remove_file(&telemetry_path);
    // Tee the journal: the JSONL file CI greps *and* a memory ring the
    // `/journal` endpoint tails.
    let telemetry = Telemetry::fanout(vec![
        Telemetry::jsonl(&telemetry_path).expect("telemetry file"),
        Telemetry::memory(512),
    ]);
    let tracer = Tracer::ring(4096);

    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        NODES,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan()
            .with_period_s(0.05)
            .with_heartbeat_timeout_s(0.3)
            .with_worst_case_node_w(WORST_CASE_NODE_W)
            .with_deadline_s(DEADLINE_S)
            .with_initial_budget_w(f64::INFINITY)
            .with_telemetry(telemetry)
            .with_tracer(tracer),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let obs = server.serve_obs("127.0.0.1:0").expect("obs bind");
    let obs_addr = obs.local_addr();

    // Four fleets of one, so that one can be killed on its own.
    let mut agents: Vec<FleetHandle> = (0..NODES)
        .map(|id| {
            let node = vec![cpu_bound_node(id)];
            AgentFleet::launch(node, addr.as_str(), fast_agent(), Duration::ZERO).expect("launch")
        })
        .collect();

    // Phase 1: everyone reports under an infinite budget.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let st = server.status();
            st.nodes_reporting == NODES && st.rounds > 5
        }),
        "agents never all reported: {:?}",
        server.status()
    );
    let unconstrained_w = server.status().conservative_power_w;
    assert!(
        unconstrained_w > 1000.0,
        "four CPU-bound nodes should draw serious power, got {unconstrained_w:.0} W"
    );

    // Mid-run observability scrape while everything is healthy: the
    // hot-path latency metrics must expose quantile estimates, and the
    // health endpoint must answer 200 with all nodes live.
    let (code, metrics) = http_get(obs_addr, "/metrics").expect("scrape /metrics");
    assert_eq!(code, 200);
    for line in [
        "net.round_wall_s{quantile=\"0.99\"}",
        "net.round_wall_s_bucket{le=\"+Inf\"}",
        "net.fanout_wall_s{quantile=\"0.99\"}",
        "net.summary_staleness_s{quantile=\"0.5\"}",
        "net.frames_rx",
    ] {
        assert!(metrics.contains(line), "missing {line} in:\n{metrics}");
    }
    let (code, health) = http_get(obs_addr, "/healthz").expect("scrape /healthz");
    assert_eq!(code, 200, "healthy cluster must answer 200: {health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Phase 2: drop the budget mid-run to something that forces real
    // throttling but stays feasible for four live nodes.
    let budget_w = 1200.0;
    server.set_budget(budget_w);
    assert!(
        wait_until(Duration::from_secs(10), || server.status().compliances >= 1),
        "budget drop never reached compliance: {:?}",
        server.status()
    );
    let st = server.status();
    assert_eq!(st.violations, 0, "compliance should beat the deadline");
    let record = st.last_compliance.expect("compliance record");
    assert!(
        record.within_deadline,
        "compliance after {:.2}s exceeded deadline {DEADLINE_S}s",
        record.wall_s
    );
    assert!(record.wall_s <= DEADLINE_S + 0.5);

    // Phase 3: kill one agent — no Bye, the socket just dies. The
    // coordinator must declare it dead and charge worst-case power.
    let killed = agents.remove(NODES - 1);
    let killed_stats = killed.kill();
    assert!(killed_stats.summaries_sent() > 0);
    assert!(
        wait_until(Duration::from_secs(10), || {
            let st = server.status();
            st.dead_nodes >= 1 && st.reserved_w > 0.0
        }),
        "silent node never declared dead: {:?}",
        server.status()
    );
    // A node that reported before dying is charged max(last reported,
    // last commanded) — its genuine draw, not the 560 W never-heard-from
    // worst case — so the floor here is "a real machine's power", while
    // the ceiling is the blanket worst-case charge.
    let st = server.status();
    assert!(
        st.reserved_w > 100.0 && st.reserved_w <= WORST_CASE_NODE_W,
        "dead node should be charged its conservative draw, reserved {:.0} W",
        st.reserved_w
    );

    // The health endpoint must reflect the dead-agent charge: degraded
    // (503), one dead node, nonzero reservation.
    let (code, health) = http_get(obs_addr, "/healthz").expect("scrape /healthz");
    assert_eq!(code, 503, "a dead node must degrade health: {health}");
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"dead_nodes\":1"), "{health}");

    // The journal tail served over the wire carries the budget drop.
    let (code, journal_tail) = http_get(obs_addr, "/journal?n=200").expect("scrape /journal");
    assert_eq!(code, 200);
    assert!(
        journal_tail.contains("\"kind\":\"budget_drop\""),
        "{journal_tail}"
    );

    // The span ring must hold a causally-chained round: the scheduler
    // thread's net.round parents the coordinator's cluster.round, which
    // parents the two-pass scheduler's sched.pass2.
    let (code, trace) = http_get(obs_addr, "/trace").expect("scrape /trace");
    assert_eq!(code, 200);
    let spans: serde_json::Value = serde_json::from_str(&trace).expect("chrome json");
    let spans = spans.as_array().expect("span array");
    let by_id: std::collections::HashMap<u64, &serde_json::Value> = spans
        .iter()
        .map(|s| (s["args"]["id"].as_u64().unwrap(), s))
        .collect();
    let chain_of = |leaf_name: &str| -> Vec<String> {
        let leaf = spans
            .iter()
            .find(|s| s["name"].as_str() == Some(leaf_name))
            .unwrap_or_else(|| panic!("no {leaf_name} span in trace"));
        let mut chain = Vec::new();
        let mut cur = Some(leaf);
        while let Some(s) = cur {
            chain.push(s["name"].as_str().unwrap().to_string());
            cur = s["args"]["parent"]
                .as_u64()
                .and_then(|p| by_id.get(&p))
                .copied();
        }
        chain.reverse();
        chain
    };
    assert_eq!(
        chain_of("sched.pass2"),
        ["net.round", "cluster.round", "sched.pass2"],
        "two-pass schedule must chain up to the network round"
    );
    assert_eq!(chain_of("net.push"), ["net.round", "net.push"]);

    // Phase 4: after a settling window the conservative sum (live nodes
    // + conservative charge for the dead one) must fit under the budget.
    // `nodes_reporting` counts ever-reported nodes, so it stays at NODES;
    // the dead one shows up in `dead_nodes` and `reserved_w`.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let st = server.status();
            st.conservative_power_w <= budget_w * 1.0001 && st.dead_nodes == 1
        }),
        "conservative power never fit the budget: {:?}",
        server.status()
    );

    for agent in agents {
        let stats = agent.stop();
        assert!(stats.summaries_sent() > 0);
        assert!(stats.ceilings_applied() > 0, "agent never throttled");
        assert_eq!(stats.connected(), 0, "stopped agent still marked connected");
    }
    obs.shutdown();
    let final_status = server.shutdown().expect("shutdown");
    assert!(final_status.rounds > 10);
    assert!(final_status.compliances >= 1);

    // The journal must carry the paper's two headline events.
    let journal = std::fs::read_to_string(&telemetry_path).expect("journal readable");
    assert!(
        journal.contains("node_declared_dead"),
        "journal missing node_declared_dead"
    );
    assert!(
        journal.contains("budget_compliance"),
        "journal missing budget_compliance"
    );
    assert!(
        journal.contains("budget_drop"),
        "journal missing budget_drop"
    );
    if std::env::var("FVSST_NET_TELEMETRY").is_err() {
        let _ = std::fs::remove_file(&telemetry_path);
    }
}

#[test]
fn prelude_covers_the_net_endpoints() {
    // The one-stop prelude really is one-stop: every name this test and
    // the two binaries need resolves from `fvsst::prelude::*` alone.
    let _ = AgentConfig::default_lan();
    let _ = CoordinatorConfig::default_lan();
    let _: u32 = SCHEMA_VERSION;
    let err = FvsError::config("prelude smoke");
    assert_eq!(err.category(), "config");
    let msg = WireMsg::Bye { node: 7 };
    assert_eq!(msg.kind(), "bye");
}
