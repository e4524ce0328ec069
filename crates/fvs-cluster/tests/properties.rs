//! Property-based tests of the cluster layer's coordination invariants.

use fvs_cluster::{FrequencyCommand, GlobalCoordinator, NodeSummary, RackCoordinator};
use fvs_model::{CpiModel, FreqMhz};
use fvs_power::FreqPowerTable;
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
    /// The coordinator's commands always cover exactly the live nodes
    /// that have processors, with one frequency per reported processor,
    /// all within the schedulable set and the budget left after the
    /// reserve — and they are the decision, regrouped: node by node in
    /// processor order, blind `f_min` commands for the silent after
    /// them, each node's recorded ceiling the table power of what it was
    /// sent, to the bit. Held across a round in which every model is
    /// new, a full-hit round, and a rack's `finalize` under a changed
    /// sub-budget, for nodes of 0, 1, 4 and 7 processors, an unmodelled
    /// processor at an off-grid frequency, nodes silent past the timeout
    /// and nodes never heard from.
    #[test]
    fn coordinator_commands_are_complete_and_compliant(
        mut node_sizes in prop::collection::vec(1usize..6, 1..6),
        kinds in prop::collection::vec(0u8..6, 9),
        budget in 50.0f64..5000.0,
    ) {
        const NEVER: u8 = 0; // no report at all
        const SILENT: u8 = 1; // last report past the heartbeat timeout
        const OFF_GRID: u8 = 2; // live, processor 0 unmodelled at 675 MHz
        node_sizes.extend([0, 1, 4, 7]);
        let n_nodes = node_sizes.len();
        let alg = FvsstAlgorithm::p630();
        let set = alg.freq_set.clone();
        let table = FreqPowerTable::p630_table1();
        let mut coord = GlobalCoordinator::new(alg.clone(), n_nodes);
        let mut rack = RackCoordinator::new(alg, 0, n_nodes);
        for (i, &size) in node_sizes.iter().enumerate() {
            if kinds[i] == NEVER {
                continue;
            }
            let mut s = NodeSummary {
                node: i,
                sent_at_s: if kinds[i] == SILENT { 0.0 } else { 1.0 },
                models: (0..size)
                    .map(|p| Some(CpiModel::from_components(
                        0.5 + p as f64 * 0.3,
                        (p as f64) * 2.0e-9,
                    )))
                    .collect(),
                idle: vec![false; size],
                current: vec![FreqMhz(1000); size],
                power_w: 140.0 * size as f64,
            };
            if kinds[i] == OFF_GRID && size > 0 {
                s.models[0] = None;
                s.current[0] = FreqMhz(675);
            }
            prop_assert!(coord.ingest(s.clone()));
            prop_assert!(rack.ingest(s));
        }
        let live = |i: usize| kinds[i] > SILENT;

        // Schedule at the live nodes' send timestamp. `sent_w[n]` is the
        // table power of the last command node `n` got as a live node.
        let mut sent_w = vec![0.0f64; n_nodes];
        let mut check = |coord: &GlobalCoordinator, cmds: &[FrequencyCommand], budget: f64| {
            let freqs = &coord.schedule_cache().decision().freqs;
            let mut regrouped = Vec::new();
            let mut at = 0;
            for (node, &size) in node_sizes.iter().enumerate() {
                if live(node) && size > 0 {
                    let freqs = freqs[at..at + size].to_vec();
                    sent_w[node] = freqs.iter().map(|f| table.power_interpolated(*f)).sum();
                    regrouped.push(FrequencyCommand { node, freqs });
                    at += size;
                }
            }
            prop_assert_eq!(at, freqs.len());
            for (node, &size) in node_sizes.iter().enumerate() {
                if kinds[node] == SILENT {
                    regrouped.push(FrequencyCommand { node, freqs: vec![set.min(); size] });
                }
            }
            prop_assert_eq!(cmds, &regrouped[..]);
            for (node, w) in sent_w.iter().enumerate() {
                let held = coord.export_node(node).unwrap().commanded_w;
                prop_assert_eq!(held.to_bits(), w.to_bits(), "node {}", node);
            }
            let mut total = 0.0;
            let mut floored = true;
            for cmd in cmds.iter().filter(|c| live(c.node)) {
                for (p, f) in cmd.freqs.iter().enumerate() {
                    let off_grid = kinds[cmd.node] == OFF_GRID && p == 0;
                    prop_assert!(if off_grid { *f == FreqMhz(675) } else { set.contains(*f) });
                    floored &= off_grid || *f == set.min();
                    total += table.power_interpolated(*f);
                }
            }
            // Either compliant or floored at f_min everywhere.
            prop_assert!(total <= (budget - coord.reserved_w()).max(0.0) || floored);
            Ok(())
        };
        let cmds = coord.schedule(budget, 1.0);
        check(&coord, &cmds, budget)?;
        let moved = coord.cache_stats();
        prop_assert_eq!((moved.proc_hits, moved.full_hits), (0, 0));
        let again = coord.schedule(budget, 1.0);
        prop_assert_eq!(&again, &cmds);
        check(&coord, &again, budget)?;
        let feasible = coord.schedule_cache().decision().feasible;
        prop_assert_eq!(coord.cache_stats().full_hits, u64::from(feasible));

        // The rack computes before it knows its sub-budget, then runs
        // the budget passes alone; a second sub-budget finds it clean.
        rack.refresh(1.0);
        prop_assert_eq!(&rack.finalize(budget), &cmds);
        prop_assert!(!rack.refresh(1.0) && !rack.ran());
        let tighter = budget * 0.6;
        let cmds = coord.schedule(tighter, 1.0);
        check(&coord, &cmds, tighter)?;
        prop_assert_eq!(&rack.finalize(tighter), &cmds);
        let ceiling_w = rack.aggregate().ceiling_w;
        prop_assert_eq!(ceiling_w.to_bits(), coord.charge_ceiling_w().to_bits());
    }
}

proptest! {
    /// `ingest(s)` and `ingest_swap(&mut s)` are one implementation: the
    /// same return value, held summaries, counters and journal over
    /// accepted, stale, rejected-shape, non-finite and invalid-model
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
