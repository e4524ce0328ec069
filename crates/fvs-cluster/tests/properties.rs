//! Property-based tests of the cluster layer's messaging and
//! coordination invariants.

use fvs_cluster::{ClusterConfig, ClusterSim, DelayQueue, GlobalCoordinator, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_power::{BudgetSchedule, FreqPowerTable};
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::Telemetry;
use proptest::prelude::*;

/// One uplink summary of every class `ingest` tells apart, from a seed:
/// well-formed, out-of-range node, mismatched vectors, non-finite or
/// negative power, non-finite timestamp, and invalid models. Timestamps
/// come from a small grid so a sequence has stale and equal-time ones.
fn summary_of_class(class: u8, node: usize, t: u8, procs: usize, bad: usize) -> NodeSummary {
    let mut s = NodeSummary {
        node,
        sent_at_s: f64::from(t),
        models: (0..procs)
            .map(|p| (p % 3 != 2).then(|| CpiModel::from_components(0.5 + p as f64, 1.0e-9)))
            .collect(),
        idle: (0..procs).map(|p| p % 2 == 1).collect(),
        current: vec![FreqMhz(1000); procs],
        power_w: 100.0 + f64::from(t),
    };
    match class {
        0..=3 => {}
        4 => s.node = 1000,
        5 => s.idle.push(false),
        6 => s.current.clear(),
        7 => s.power_w = f64::NAN,
        8 => s.power_w = -1.0,
        9 => s.sent_at_s = f64::INFINITY,
        10 => {
            s.models[bad % procs] = Some(CpiModel {
                cpi0: f64::NAN,
                mem_time_per_instr: 0.0,
            })
        }
        _ => {
            s.models[bad % procs] = Some(CpiModel {
                cpi0: 1.0,
                mem_time_per_instr: -1.0,
            })
        }
    }
    s
}

proptest! {
    /// DelayQueue delivers every message exactly once, in delivery-time
    /// order, never early.
    #[test]
    fn delay_queue_delivers_everything_in_order(
        sends in prop::collection::vec((0.0f64..10.0, 0u32..1000), 1..50),
        polls in prop::collection::vec(0.0f64..12.0, 1..30),
    ) {
        let mut q = DelayQueue::new();
        for (at, msg) in &sends {
            q.send(*at, (*at, *msg));
        }
        let mut polls = polls.clone();
        polls.sort_by(f64::total_cmp);
        polls.push(11.0); // final drain
        let mut received = Vec::new();
        for now in polls {
            for (deliver_at, msg) in q.recv_ready(now) {
                prop_assert!(deliver_at <= now, "early delivery");
                received.push((deliver_at, msg));
            }
        }
        prop_assert_eq!(received.len(), sends.len());
        // Delivery-time ordering.
        for w in received.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 + 1e-12);
        }
        prop_assert_eq!(q.in_flight(), 0);
    }

    /// The coordinator's commands always cover exactly the reporting
    /// nodes, with one frequency per reported processor, all within the
    /// schedulable set and the budget.
    #[test]
    fn coordinator_commands_are_complete_and_compliant(
        node_sizes in prop::collection::vec(1usize..6, 1..6),
        reporting in prop::collection::vec(any::<bool>(), 6),
        budget in 50.0f64..3000.0,
    ) {
        let n_nodes = node_sizes.len();
        let alg = FvsstAlgorithm::p630();
        let set = alg.freq_set.clone();
        let mut coord = GlobalCoordinator::new(alg, n_nodes);
        let mut expected_nodes = Vec::new();
        for (i, &size) in node_sizes.iter().enumerate() {
            if reporting[i] {
                expected_nodes.push(i);
                coord.ingest(NodeSummary {
                    node: i,
                    sent_at_s: 1.0,
                    models: (0..size)
                        .map(|p| Some(CpiModel::from_components(
                            0.5 + p as f64 * 0.3,
                            (p as f64) * 2.0e-9,
                        )))
                        .collect(),
                    idle: vec![false; size],
                    current: vec![FreqMhz(1000); size],
                    power_w: 140.0 * size as f64,
                });
            }
        }
        // Schedule at the send timestamp: every reporting node is live,
        // and silent nodes only tighten the effective budget (which can
        // only push frequencies down, never above the budget).
        let cmds = coord.schedule(budget, 1.0);
        let covered: Vec<usize> = cmds.iter().map(|c| c.node).collect();
        prop_assert_eq!(&covered, &expected_nodes);
        let table = FreqPowerTable::p630_table1();
        let mut total = 0.0;
        for cmd in &cmds {
            let size = node_sizes[cmd.node];
            prop_assert_eq!(cmd.freqs.len(), size);
            for f in &cmd.freqs {
                prop_assert!(set.contains(*f));
                total += table.power_interpolated(*f);
            }
        }
        // Either compliant or floored at f_min everywhere.
        if total > budget {
            prop_assert!(cmds
                .iter()
                .flat_map(|c| c.freqs.iter())
                .all(|f| *f == set.min()));
        }
    }
}

proptest! {
    /// `ingest(s)` and `ingest_swap(&mut s)` are one implementation: the
    /// same return value, held summaries, shapes, counters and journal
    /// over accepted, stale, rejected-shape, non-finite and invalid-model
    /// summaries. What `ingest_swap` leaves with the caller is the
    /// summary it displaced when it accepted, and the caller's own,
    /// untouched, when it did not.
    #[test]
    fn ingest_and_ingest_swap_leave_identical_state(
        seq in prop::collection::vec(
            (0u8..12, 0usize..4, 0u8..6, 1usize..5, 0usize..4),
            1..40,
        ),
    ) {
        const NODES: usize = 4;
        let (ta, tb) = (Telemetry::memory(4096), Telemetry::memory(4096));
        let mut by_value =
            GlobalCoordinator::with_telemetry(FvsstAlgorithm::p630(), NODES, ta.clone());
        let mut by_swap =
            GlobalCoordinator::with_telemetry(FvsstAlgorithm::p630(), NODES, tb.clone());
        for (class, node, t, procs, bad) in seq {
            let sent = summary_of_class(class, node, t, procs, bad);
            let displaced = by_swap.latest_summary(sent.node).cloned();
            let mut handed = sent.clone();
            let accepted = by_swap.ingest_swap(&mut handed);
            prop_assert_eq!(by_value.ingest(sent.clone()), accepted);
            if accepted {
                prop_assert_eq!(&handed, &displaced.unwrap_or_default());
            } else {
                // NaN fields make `==` useless here; compare the rendering.
                prop_assert_eq!(format!("{handed:?}"), format!("{sent:?}"));
            }
        }
        for node in 0..NODES {
            prop_assert_eq!(by_value.export_node(node), by_swap.export_node(node));
        }
        prop_assert_eq!(by_value.nodes_reporting(), by_swap.nodes_reporting());
        for name in ["summaries_ingested", "summaries_stale", "summaries_rejected"] {
            let read = |t: &Telemetry| t.registry().unwrap().scoped("cluster").counter(name).get();
            prop_assert_eq!(read(&ta), read(&tb), "cluster.{}", name);
        }
        prop_assert_eq!(format!("{:?}", ta.events()), format!("{:?}", tb.events()));
    }
}

// End-to-end cluster property: random three-tier clusters under random
// feasible budgets end up compliant.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_clusters_comply(
        nodes in 2usize..8,
        budget_frac in 0.2f64..0.9,
        seed in any::<u64>(),
    ) {
        let budget = nodes as f64 * 4.0 * 140.0 * budget_frac;
        let config = ClusterConfig::rack().with_budget(BudgetSchedule::constant(budget));
        let mut sim = ClusterSim::three_tier(nodes, seed, config);
        let report = sim.run_for(2.0);
        prop_assert!(
            report.final_power_w <= budget + 1e-9,
            "{} nodes at frac {budget_frac}: {} > {budget}",
            nodes,
            report.final_power_w
        );
    }
}
