//! The kill-and-resume soak from the ISSUE: a coordinator and three
//! node agents on 127.0.0.1 with deterministic wire chaos active on
//! both ends of every socket, a budget drop mid-run, then the
//! coordinator killed and restarted with `--resume` semantics. The
//! restarted coordinator must come back on a bumped epoch, report
//! `resyncing` until fresh summaries arrive, keep enforcing the
//! dropped budget it learned from the write-ahead snapshot, and
//! converge the conservative power sum back under it. Finally a *cold*
//! coordinator (epoch 1) on the same address must be refused by every
//! agent — the split-brain guard.
//!
//! Journals land in JSONL files (directory taken from
//! `FVSST_CHAOS_TELEMETRY` when set, so CI can grep them) and the test
//! asserts all five robustness event kinds appear where they should:
//! `wire_fault`, `snapshot_written`, `coordinator_resumed`,
//! `resync_complete` and `epoch_fenced`.

use fvsst::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const BUDGET_W: f64 = 1200.0;

fn cpu_bound_node(id: usize) -> ClusterNode {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(100.0, 1.0e18));
    }
    ClusterNode::new(id, b.build(), None)
}

/// Mild chaos on the agent side of every socket: drops, delays,
/// duplicates and the odd corrupt frame, deterministic per node.
fn agent_chaos(node: usize) -> WireChaos {
    let plan = WireFaultPlan::parse("wire=0.02,delay=0.05:0.03,wdup=0.02,corrupt=0.01")
        .expect("agent chaos plan");
    WireChaos::new(plan, 7 ^ ((node as u64) << 8))
}

fn chaotic_agent(node: usize) -> AgentConfig {
    AgentConfig::default_lan()
        .with_tick_s(0.01)
        .with_summary_every(2)
        .with_pace(Duration::from_millis(1))
        .with_backoff(Duration::from_millis(20), Duration::from_millis(100))
        .with_jitter_seed(1000 + node as u64)
        .with_link_timeout(Duration::from_millis(700))
        .with_chaos(agent_chaos(node))
}

/// Coordinator-side chaos: every fault class at gentle rates (no
/// scripted partition — this soak wants the *crash*, not a blackhole,
/// to be the headline outage).
fn coordinator_chaos(seed: u64) -> WireChaos {
    let plan =
        WireFaultPlan::parse("wire=0.03,delay=0.08:0.03,wdup=0.02,corrupt=0.015,reset=0.005")
            .expect("coordinator chaos plan");
    WireChaos::new(plan, seed)
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

/// Rebinding the address a just-dropped coordinator held can race the
/// kernel releasing it; retry briefly instead of flaking.
fn bind_retry(
    addr: &str,
    make_config: impl Fn() -> CoordinatorConfig,
) -> Result<CoordinatorServer, FvsError> {
    let end = Instant::now() + Duration::from_secs(8);
    loop {
        match CoordinatorServer::bind(addr, NODES, FvsstAlgorithm::p630(), make_config()) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() < end => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn coordinator_crash_resume_and_epoch_fencing_under_wire_chaos() {
    let dir = std::env::var("FVSST_CHAOS_TELEMETRY")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("fvsst-net-chaos"));
    std::fs::create_dir_all(&dir).expect("journal dir");
    let journal_a = dir.join("coordinator-a.jsonl");
    let journal_b = dir.join("coordinator-b.jsonl");
    let journal_c = dir.join("coordinator-c.jsonl");
    let snap_path = dir.join("coordinator.snap");
    for p in [&journal_a, &journal_b, &journal_c, &snap_path] {
        let _ = std::fs::remove_file(p);
    }

    // ---- Incarnation A: chaos active, snapshots on a tight cadence.
    let config_a = CoordinatorConfig::default_lan()
        .with_period_s(0.05)
        .with_heartbeat_timeout_s(0.4)
        .with_deadline_s(2.0)
        .with_initial_budget_w(f64::INFINITY)
        .with_snapshots(&snap_path, 0.15)
        .with_chaos(coordinator_chaos(42))
        .with_telemetry(Telemetry::jsonl(&journal_a).expect("journal a"));
    let server_a = CoordinatorServer::bind("127.0.0.1:0", NODES, FvsstAlgorithm::p630(), config_a)
        .expect("bind a");
    assert_eq!(server_a.epoch(), 1, "cold start serves epoch 1");
    let addr = server_a.local_addr().to_string();

    // Fleets of one: each agent has its own chaos plan and counters.
    let agents: Vec<FleetHandle> = (0..NODES)
        .map(|id| {
            let node = vec![cpu_bound_node(id)];
            AgentFleet::launch(node, addr.as_str(), chaotic_agent(id), Duration::ZERO)
                .expect("launch")
        })
        .collect();

    assert!(
        wait_until(Duration::from_secs(15), || {
            let st = server_a.status();
            st.nodes_reporting == NODES && st.rounds > 5
        }),
        "agents never all reported through the chaos: {:?}",
        server_a.status()
    );

    // Budget drop: the write-ahead snapshot must persist the new budget
    // even before compliance lands, so a crash can never un-enforce it.
    server_a.set_budget(BUDGET_W);
    assert!(
        wait_until(Duration::from_secs(10), || {
            Snapshot::load(&snap_path)
                .map(|s| s.budget_w == BUDGET_W && s.epoch == 1)
                .unwrap_or(false)
        }),
        "write-ahead snapshot never recorded the dropped budget"
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            server_a.status().compliances >= 1
        }),
        "budget drop never reached compliance under chaos: {:?}",
        server_a.status()
    );
    // Let the cadence capture at least one post-compliance image with
    // every node's summary in it.
    assert!(
        wait_until(Duration::from_secs(10), || {
            Snapshot::load(&snap_path)
                .map(|s| {
                    s.nodes.iter().filter(|n| n.summary.is_some()).count() == NODES && s.rounds > 0
                })
                .unwrap_or(false)
        }),
        "snapshot never captured all node summaries"
    );
    let pre_crash = Snapshot::load(&snap_path).expect("snapshot before crash");

    // ---- Crash. No goodbye to the agents; the sockets just die.
    drop(server_a);

    // ---- Incarnation B: --resume semantics on the same address.
    let make_config_b = || {
        CoordinatorConfig::default_lan()
            .with_period_s(0.05)
            .with_heartbeat_timeout_s(0.4)
            .with_deadline_s(2.0)
            .with_initial_budget_w(f64::INFINITY)
            .with_snapshots(&snap_path, 0.15)
            .with_resume(true)
            .with_resync_grace_s(3.0)
            .with_chaos(coordinator_chaos(43))
            .with_telemetry(Telemetry::jsonl(&journal_b).expect("journal b"))
    };
    let server_b = bind_retry(&addr, make_config_b).expect("bind b");
    assert_eq!(
        server_b.epoch(),
        pre_crash.epoch + 1,
        "resume must bump the fencing epoch"
    );
    let st = server_b.status();
    assert!(
        st.resyncing,
        "freshly resumed coordinator must be resyncing"
    );
    assert_eq!(
        st.budget_w, BUDGET_W,
        "resume must keep enforcing the dropped budget from the snapshot"
    );
    assert!(
        st.rounds >= pre_crash.rounds,
        "round counter must continue from the snapshot"
    );

    // While still resyncing, /healthz is a *distinct* 503 state with
    // the grace-window deadline in the JSON. (Checked only if resync
    // has not already completed — agents reconnect on their own clock.)
    let obs = server_b.serve_obs("127.0.0.1:0").expect("obs bind");
    let before = server_b.status().resyncing;
    let (code, health) = http_get(obs.local_addr(), "/healthz").expect("scrape /healthz");
    let after = server_b.status().resyncing;
    if before && after {
        assert_eq!(code, 503, "resyncing must refuse readiness: {health}");
        assert!(health.contains("\"status\":\"resyncing\""), "{health}");
        assert!(health.contains("\"resync_deadline_s\":"), "{health}");
    }

    // Agents reconnect (epoch 2 >= their last seen 1), summaries flow,
    // resync completes, and the budget holds without ever having been
    // re-dropped in this incarnation.
    assert!(
        wait_until(Duration::from_secs(15), || {
            let st = server_b.status();
            !st.resyncing && st.nodes_reporting == NODES
        }),
        "resync never completed: {:?}",
        server_b.status()
    );
    assert!(
        wait_until(Duration::from_secs(15), || {
            server_b.status().conservative_power_w <= BUDGET_W * 1.0001
        }),
        "conservative power never fit the restored budget: {:?}",
        server_b.status()
    );
    let (code, health) = http_get(obs.local_addr(), "/healthz").expect("scrape /healthz");
    assert_eq!(code, 200, "resynced cluster must answer 200: {health}");
    assert!(health.contains("\"resyncing\":false"), "{health}");
    assert!(
        agents.iter().map(|a| a.stats().reconnects()).sum::<u64>() >= NODES as u64,
        "every agent should have reconnected to the resumed coordinator"
    );
    obs.shutdown();

    // ---- Crash B, then bring up a *cold* coordinator C (epoch 1) on
    // the same address: every agent has seen epoch 2 and must refuse
    // the stale incarnation rather than obey a forgetful brain.
    drop(server_b);
    let fenced_before: Vec<u64> = agents.iter().map(|a| a.stats().epochs_fenced()).collect();
    let make_config_c = || {
        CoordinatorConfig::default_lan()
            .with_period_s(0.05)
            .with_heartbeat_timeout_s(0.4)
            .with_initial_budget_w(f64::INFINITY)
            .with_telemetry(Telemetry::jsonl(&journal_c).expect("journal c"))
    };
    let server_c = bind_retry(&addr, make_config_c).expect("bind c");
    assert_eq!(server_c.epoch(), 1, "cold coordinator serves epoch 1");
    assert!(
        wait_until(Duration::from_secs(20), || {
            agents
                .iter()
                .zip(&fenced_before)
                .all(|(a, before)| a.stats().epochs_fenced() > *before)
        }),
        "agents never all fenced the stale coordinator"
    );
    assert_eq!(
        server_c.status().nodes_reporting,
        0,
        "no agent may accept a stale epoch"
    );

    for agent in agents {
        let stats = agent.stop();
        assert!(stats.summaries_sent() > 0);
        assert!(
            stats.reconnects() > 0,
            "agent rode out two coordinator deaths"
        );
        assert!(stats.epochs_fenced() > 0, "agent must have refused epoch 1");
        assert_eq!(
            stats.version_rejects(),
            0,
            "fencing is not a version refusal"
        );
    }
    let _ = server_c.shutdown().expect("shutdown c");

    // ---- The journals tell the whole story, per incarnation.
    let a = std::fs::read_to_string(&journal_a).expect("journal a readable");
    let b = std::fs::read_to_string(&journal_b).expect("journal b readable");
    let c = std::fs::read_to_string(&journal_c).expect("journal c readable");
    assert!(
        a.contains("\"kind\":\"snapshot_written\""),
        "A never snapshotted"
    );
    assert!(a.contains("\"kind\":\"wire_fault\""), "A saw no wire chaos");
    assert!(
        a.contains("\"injected\":true"),
        "A's faults must be marked injected"
    );
    assert!(a.contains("\"kind\":\"budget_drop\""), "A missing the drop");
    assert!(
        !a.contains("\"kind\":\"coordinator_resumed\""),
        "A was a cold start"
    );
    assert!(
        b.contains("\"kind\":\"coordinator_resumed\""),
        "B must record the resume"
    );
    assert!(
        b.contains("\"kind\":\"resync_complete\""),
        "B must record resync"
    );
    assert!(
        c.contains("\"kind\":\"epoch_fenced\""),
        "C must record being fenced"
    );
    if std::env::var("FVSST_CHAOS_TELEMETRY").is_err() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
