//! When a simulated cluster is first commanded, and when it first fits
//! a dropped budget: the two times a `ClusterReport` states exactly.

use fvs_faults::{FaultInjector, FaultPlan};
use fvs_net::{ClusterConfig, ClusterSim, DropResponse};
use fvs_power::{BudgetEvent, BudgetSchedule};

const NODES: usize = 6;
const SEED: u64 = 11;

/// Step `sim` until the coordinator holds a summary from every node;
/// the time of that tick: when the last first summary was taken in.
fn last_first_summary_s(sim: &mut ClusterSim) -> f64 {
    let heard = |sim: &ClusterSim| {
        (0..sim.num_nodes()).all(|n| sim.coordinator().latest_summary(n).is_some())
    };
    while !heard(sim) {
        assert!(sim.now_s() < 5.0, "some node never reported");
        sim.step_tick();
    }
    sim.now_s()
}

/// A cold-started cluster is commanded in the round the last node's
/// first summary owes, not on the period after it: within one link
/// latency and one tick of that summary, at every latency. The time is
/// exact for a seed.
#[test]
fn a_cold_cluster_is_commanded_within_a_link_and_a_tick_of_its_last_first_summary() {
    for latency_s in [0.002, 0.02, 0.1] {
        let config = ClusterConfig::rack().with_latency_s(latency_s);
        let run = || {
            let mut sim = ClusterSim::three_tier(NODES, SEED, config.clone());
            let heard_s = last_first_summary_s(&mut sim);
            (heard_s, sim.run_for(0.5).all_commanded_s)
        };
        let (heard_s, commanded) = run();
        let commanded_s = commanded.expect("every node commanded");
        assert!(
            commanded_s >= heard_s && commanded_s <= heard_s + latency_s + config.t_s,
            "@{latency_s} s: every summary in by {heard_s} s, all commanded at {commanded_s} s"
        );
        assert_eq!(run().1.map(f64::to_bits), Some(commanded_s.to_bits()));
    }
}

/// With a node offline from the start, the cluster is never all heard
/// from: no round runs off the period, and no round commands every node.
#[test]
fn a_node_offline_from_the_start_keeps_the_rounds_on_the_period() {
    let plan = FaultPlan::parse("node=3@0").unwrap();
    let mut sim = ClusterSim::three_tier(4, SEED, ClusterConfig::rack())
        .with_faults(FaultInjector::new(plan, 1));
    let period_s = 0.1;
    let mut rounds = 0;
    for _ in 0..100 {
        sim.step_tick();
        let report = sim.report();
        if report.rounds > rounds {
            rounds = report.rounds;
            let periods = sim.now_s() / period_s;
            assert!(
                (periods - periods.round()).abs() < 1e-6,
                "round {rounds} off the period at {} s",
                sim.now_s()
            );
        }
    }
    assert_eq!(rounds, 10);
    assert_eq!(sim.report().all_commanded_s, None);
}

/// Two drops, each with its own time to under-budget; `response_s` is
/// the last one's.
#[test]
fn each_budget_drop_reports_its_first_tick_under_budget() {
    let drops = vec![
        BudgetEvent {
            at_s: 1.0,
            budget_w: 1500.0,
        },
        BudgetEvent {
            at_s: 2.0,
            budget_w: 900.0,
        },
    ];
    let config =
        ClusterConfig::rack().with_budget(BudgetSchedule::with_events(f64::INFINITY, drops));
    let report = ClusterSim::three_tier(NODES, SEED, config).run_for(3.0);
    let [first, last]: [DropResponse; 2] = report.drops.clone().try_into().unwrap();
    for (drop, at_s, budget_w) in [(first, 1.0, 1500.0), (last, 2.0, 900.0)] {
        assert!((drop.at_s - at_s).abs() < 1e-9, "{drop:?}");
        assert_eq!(drop.budget_w, budget_w);
        let under_s = drop.under_budget_s.expect("the cluster complied");
        // A summary, a round and a ceiling: well inside a second.
        assert!(under_s > drop.at_s && under_s < drop.at_s + 0.5, "{drop:?}");
    }
    let response_s = last.under_budget_s.unwrap() - last.at_s;
    assert_eq!(report.response_s, Some(response_s));
    assert!(report.final_power_w <= 900.0);
}
