//! A config no agent loop can run on is refused by the one entry point,
//! `AgentFleet::launch`, before anything is spawned. One test in a
//! process of its own, so that "no fleet thread exists" can be read off
//! `/proc` without other tests' fleets in view.

use fvs_net::{AgentConfig, AgentFleet, FvsError};
use fvs_sim::MachineBuilder;
use std::time::Duration;

fn node(id: usize) -> fvs_cluster::ClusterNode {
    fvs_cluster::ClusterNode::new(id, MachineBuilder::p630().build(), None)
}

/// Threads of this process named like the agent loop's.
fn fleet_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim() == "fvs-fleet")
        .count()
}

#[test]
fn a_bad_config_is_a_config_error_and_spawns_nothing() {
    // Nothing listens here; a config that passed would still get a loop.
    let addr = "127.0.0.1:9";
    let mut zero_window = AgentConfig::default_lan();
    zero_window.summary_every = 0;
    let bad = [
        (
            "tick_s = NaN",
            AgentConfig::default_lan().with_tick_s(f64::NAN),
        ),
        ("tick_s = -1", AgentConfig::default_lan().with_tick_s(-1.0)),
        ("summary_every = 0", zero_window),
        (
            "with_summary_every(0)",
            AgentConfig::default_lan().with_summary_every(0),
        ),
        (
            "link_timeout = 0",
            AgentConfig::default_lan().with_link_timeout(Duration::ZERO),
        ),
    ];
    for (what, config) in bad {
        let launched = AgentFleet::launch(vec![node(0)], addr, config, Duration::ZERO);
        assert!(
            matches!(launched.as_ref().err(), Some(FvsError::Config(_))),
            "launch with {what}: {:?}",
            launched.err()
        );
    }
    assert_eq!(fleet_threads(), 0, "a refused config left a loop running");

    // The probe sees a loop when there is one.
    let fleet = AgentFleet::launch(
        vec![node(0)],
        addr,
        AgentConfig::default_lan(),
        Duration::ZERO,
    )
    .expect("a good config launches");
    // (A thread names itself as it starts, so give it a moment.)
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fleet_threads() == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(fleet_threads(), 1);
    fleet.stop();
}
