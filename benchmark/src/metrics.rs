//! What is measured: every metric's name, unit, direction, bound and the
//! workload that produces it. `BENCHMARK.json` is rendered from these
//! tables (`fvs-benchmark manifest`), and a test keeps the two equal.

use crate::workloads::Workload::{self, *};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}
use Better::*;

/// How much worse a metric may get before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's value.
    Relative(f64),
    /// Simulated outcome: deterministic for a seed, so two runs on the
    /// same seed must agree bit for bit. `across_seeds` is the share
    /// `BENCHMARK.json` carries, for medians taken over different seeds.
    Exact { across_seeds: f64 },
    /// Set-up time: a share of the baseline, and at least this many
    /// seconds, so that 30 ms on a 100 ms set-up is not a regression.
    Setup { share: f64, floor_s: f64 },
}

impl Bound {
    /// The share `BENCHMARK.json` states.
    pub fn share(self) -> f64 {
        match self {
            Bound::Relative(share) | Bound::Setup { share, .. } => share,
            Bound::Exact { across_seeds } => across_seeds,
        }
    }
}

/// A metric a user of the control loop would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// The workload whose passes produce it; `None` for `setup_s`, which
    /// every workload adds to.
    pub workload: Option<Workload>,
    pub definition: &'static str,
}

pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Lower,
        bound: Bound::Setup { share: 0.25, floor_s: 0.050 },
        workload: None,
        definition: "wall from the start of a pass to its first timed operation (build inputs, reference run, bind, ramp, handshake, two warm rounds), summed over the workloads of the pass; excludes compilation",
    },
    EndToEnd {
        name: "sim_core_ticks_per_s",
        unit: "1/s",
        better: Higher,
        bound: Bound::Relative(0.25),
        workload: Some(SmpPhases),
        definition: "cores x dispatch ticks / wall of run_for over chunks of 5 000 ticks; quietest three chunks in a row (host time)",
    },
    EndToEnd {
        name: "perf_loss_pct",
        unit: "%",
        better: Lower,
        bound: Bound::Exact { across_seeds: 0.20 },
        workload: Some(SmpPhases),
        definition: "1 - sum(body_instructions) managed / unmanaged (simulated)",
    },
    EndToEnd {
        name: "energy_saved_pct",
        unit: "%",
        better: Higher,
        bound: Bound::Exact { across_seeds: 0.02 },
        workload: Some(SmpPhases),
        definition: "1 - energy_j managed / unmanaged (simulated)",
    },
    EndToEnd {
        name: "budget_violation_s",
        unit: "s",
        better: Lower,
        bound: Bound::Exact { across_seeds: 0.15 },
        workload: Some(SmpPhases),
        definition: "RunReport::violation_s: simulated seconds with power over the budget",
    },
    EndToEnd {
        name: "flat_round_p50_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Relative(0.25),
        workload: Some(CoordSteady),
        definition: "every node's ingest + schedule on GlobalCoordinator, steady state; p50 of the quietest three rounds in a row",
    },
    EndToEnd {
        name: "tree_round_p50_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Relative(0.25),
        workload: Some(CoordSteady),
        definition: "the same on DelegationTree with the default HierTopology",
    },
    EndToEnd {
        name: "drop_round_p50_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Relative(0.25),
        workload: Some(CoordChurn),
        definition: "ingest + schedule on rounds where the budget fell, every model moved; p50 of the quietest three such rounds in a row",
    },
    EndToEnd {
        name: "raise_round_p50_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Relative(0.25),
        workload: Some(CoordChurn),
        definition: "the same on rounds where the budget rose",
    },
    EndToEnd {
        name: "drop_to_ceiling_p50_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Relative(0.25),
        workload: Some(WireSteps),
        definition: "set_budget call -> changed Ceiling decoded at a node; p50 over the nodes of the quietest drop step",
    },
    EndToEnd {
        name: "drop_to_all_p50_ms",
        unit: "ms",
        better: Lower,
        bound: Bound::Relative(0.25),
        workload: Some(WireSteps),
        definition: "set_budget -> the last node's changed ceiling, on the quietest drop step (one sample a step; the name is ISSUE 11's)",
    },
    EndToEnd {
        name: "burst_ingest_frames_per_s",
        unit: "1/s",
        better: Higher,
        bound: Bound::Relative(0.25),
        workload: Some(WireBurst),
        definition: "frames of a burst / (first write -> net.frames_rx reaches its target); the quietest three bursts in a row",
    },
];

/// A metric of one layer (the layers are the crates), from the traced
/// pass. No bound: it explains an end-to-end number, it is not gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub workload: Workload,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: Workload,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        workload,
        moves,
    }
}

const SIM: &str = "sim_core_ticks_per_s on smp_phases";
const FLAT: &str = "flat_round_p50_ms on coord_steady";
const TREE: &str = "tree_round_p50_ms on coord_steady";
const CHURN: &str = "drop_round_p50_ms / raise_round_p50_ms on coord_churn";
const CEILING: &str = "drop_to_ceiling_p50_ms on wire_steps";
const ALL: &str = "drop_to_all_p50_ms on wire_steps";
const BURST: &str = "burst_ingest_frames_per_s on wire_burst";
const NOTHING: &str = "nothing: JSON is not on the wire here";
const DIAGNOSTIC: &str = "diagnostic";

pub const PER_LAYER: [PerLayer; 65] = [
    layer("fvs-sim.step_ns_per_core_tick", "ns", Lower, SmpPhases, SIM),
    layer(
        "fvs-sim.sample_ns_per_core_tick",
        "ns",
        Lower,
        SmpPhases,
        SIM,
    ),
    layer(
        "fvs-sim.actuate_ns_per_decision",
        "ns",
        Lower,
        SmpPhases,
        SIM,
    ),
    layer("fvs-sched.decide_idle_ns", "ns", Lower, SmpPhases, SIM),
    layer(
        "fvs-sched.decide_round_us",
        "us",
        Lower,
        SmpPhases,
        "sim_core_ticks_per_s on smp_phases; the simulated trio if behaviour changes",
    ),
    layer(
        "fvs-sched.predictor_push_ns",
        "ns",
        Lower,
        SmpPhases,
        "fvs-sched.decide_idle_ns",
    ),
    layer(
        "fvs-sched.predictor_refit_ns",
        "ns",
        Lower,
        SmpPhases,
        "fvs-sched.decide_round_us",
    ),
    layer(
        "trace_overhead_pct.smp_phases",
        "%",
        Lower,
        SmpPhases,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-sched.cache_hit_ratio",
        "ratio",
        Higher,
        CoordSteady,
        FLAT,
    ),
    layer(
        "fvs-sched.schedule_cached_us",
        "us",
        Lower,
        CoordSteady,
        FLAT,
    ),
    layer(
        "fvs-sched.schedule_scratch_us",
        "us",
        Lower,
        CoordSteady,
        CHURN,
    ),
    layer(
        "fvs-cluster.ingest_ns_per_summary",
        "ns",
        Lower,
        CoordSteady,
        "flat_round_p50_ms on coord_steady; burst_ingest_frames_per_s on wire_burst",
    ),
    layer(
        "fvs-cluster.tree_ingest_ns_per_summary",
        "ns",
        Lower,
        CoordSteady,
        TREE,
    ),
    layer(
        "fvs-cluster.flat_schedule_us",
        "us",
        Lower,
        CoordSteady,
        "flat_round_p50_ms on coord_steady; drop_to_ceiling_p50_ms on wire_steps",
    ),
    layer(
        "fvs-cluster.tree_schedule_us",
        "us",
        Lower,
        CoordSteady,
        TREE,
    ),
    layer("fvs-cluster.overhead_us", "us", Lower, CoordSteady, FLAT),
    layer(
        "fvs-cluster.tree_rack_skip_ratio",
        "ratio",
        Higher,
        CoordSteady,
        TREE,
    ),
    layer("flat_round_tail_ms", "ms", Lower, CoordSteady, DIAGNOSTIC),
    layer("tree_round_tail_ms", "ms", Lower, CoordSteady, DIAGNOSTIC),
    layer(
        "trace_overhead_pct.coord_steady",
        "%",
        Lower,
        CoordSteady,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-sched.cache_hit_ratio_churn",
        "ratio",
        Higher,
        CoordChurn,
        "must stay near 0: coord_churn bypasses the caches",
    ),
    layer(
        "fvs-model.perf_loss_table_ns",
        "ns",
        Lower,
        CoordChurn,
        "drop_round_p50_ms on coord_churn only",
    ),
    layer(
        "fvs-power.power_lookup_ns",
        "ns",
        Lower,
        CoordChurn,
        "drop_round_p50_ms on coord_churn only",
    ),
    layer(
        "fvs-cluster.tree_churn_round_ms",
        "ms",
        Lower,
        CoordChurn,
        DIAGNOSTIC,
    ),
    layer("drop_round_tail_ms", "ms", Lower, CoordChurn, DIAGNOSTIC),
    layer("raise_round_tail_ms", "ms", Lower, CoordChurn, DIAGNOSTIC),
    layer(
        "trace_overhead_pct.coord_churn",
        "%",
        Lower,
        CoordChurn,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-net.first_ceiling_p50_ms",
        "ms",
        Lower,
        WireSteps,
        CEILING,
    ),
    layer("fvs-net.push_span_p50_ms", "ms", Lower, WireSteps, ALL),
    layer(
        "fvs-net.raise_to_ceiling_p50_ms",
        "ms",
        Lower,
        WireSteps,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-net.round_wall_mean_ms",
        "ms",
        Lower,
        WireSteps,
        CEILING,
    ),
    layer("fvs-net.fanout_wall_mean_ms", "ms", Lower, WireSteps, ALL),
    layer(
        "fvs-net.coordinator_cpu_ms_per_s",
        "ms/s",
        Lower,
        WireSteps,
        "headroom at 10 Hz; drop_to_* under load",
    ),
    layer(
        "fvs-net.round_rate_hz",
        "1/s",
        Higher,
        WireSteps,
        "must stay near 10 + steps/s",
    ),
    layer("fvs-net.frames_rx", "count", Lower, WireSteps, DIAGNOSTIC),
    layer("fvs-net.frames_tx", "count", Lower, WireSteps, ALL),
    layer(
        "fvs-net.heartbeats_tx",
        "count",
        Lower,
        WireSteps,
        DIAGNOSTIC,
    ),
    layer("fvs-net.bytes_rx", "bytes", Lower, WireSteps, DIAGNOSTIC),
    layer(
        "fvs-net.handshake_us_per_conn",
        "us",
        Lower,
        WireSteps,
        "setup_s on wire_*",
    ),
    layer(
        "fvs-net.compliance_wall_last_ms",
        "ms",
        Lower,
        WireSteps,
        "the paper's delta-T margin; quantised by the period",
    ),
    layer(
        "fvs-net.generator_late_p99_ms",
        "ms",
        Lower,
        WireSteps,
        "how late the open-loop generator ran",
    ),
    layer(
        "drop_to_ceiling_tail_ms",
        "ms",
        Lower,
        WireSteps,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-telemetry.events_per_round",
        "count",
        Lower,
        WireSteps,
        CEILING,
    ),
    layer(
        "fvs-telemetry.emit_ns",
        "ns",
        Lower,
        WireSteps,
        "drop_to_ceiling_p50_ms on wire_steps; burst_ingest_frames_per_s on wire_burst",
    ),
    layer(
        "fvs-telemetry.counter_inc_ns",
        "ns",
        Lower,
        WireSteps,
        BURST,
    ),
    layer(
        "fvs-telemetry.histogram_observe_ns",
        "ns",
        Lower,
        WireSteps,
        BURST,
    ),
    layer("fvs-telemetry.span_ns", "ns", Lower, WireSteps, CEILING),
    layer(
        "trace_overhead_pct.wire_steps",
        "%",
        Lower,
        WireSteps,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-net.encode_summary_binary_ns",
        "ns",
        Lower,
        WireBurst,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-net.decode_summary_binary_ns",
        "ns",
        Lower,
        WireBurst,
        BURST,
    ),
    layer(
        "fvs-net.frame_bytes_summary_binary",
        "bytes",
        Lower,
        WireBurst,
        BURST,
    ),
    layer(
        "fvs-net.encode_summary_json_ns",
        "ns",
        Lower,
        WireBurst,
        NOTHING,
    ),
    layer(
        "fvs-net.decode_summary_json_ns",
        "ns",
        Lower,
        WireBurst,
        NOTHING,
    ),
    layer(
        "fvs-net.frame_bytes_summary_json",
        "bytes",
        Lower,
        WireBurst,
        NOTHING,
    ),
    layer(
        "fvs-net.encode_ceiling_binary_ns",
        "ns",
        Lower,
        WireBurst,
        ALL,
    ),
    layer(
        "fvs-net.decode_ceiling_binary_ns",
        "ns",
        Lower,
        WireBurst,
        DIAGNOSTIC,
    ),
    layer(
        "fvs-net.frame_bytes_ceiling_binary",
        "bytes",
        Lower,
        WireBurst,
        ALL,
    ),
    layer(
        "fvs-net.encode_ceiling_json_ns",
        "ns",
        Lower,
        WireBurst,
        NOTHING,
    ),
    layer(
        "fvs-net.decode_ceiling_json_ns",
        "ns",
        Lower,
        WireBurst,
        NOTHING,
    ),
    layer(
        "fvs-net.frame_bytes_ceiling_json",
        "bytes",
        Lower,
        WireBurst,
        NOTHING,
    ),
    layer("fvs-net.burst_drain_p50_ms", "ms", Lower, WireBurst, BURST),
    layer(
        "fvs-net.burst_round_rate_hz",
        "1/s",
        Higher,
        WireBurst,
        "starvation of scheduling by ingest shows here",
    ),
    layer(
        "fvs-net.burst_coordinator_cpu_ms_per_s",
        "ms/s",
        Lower,
        WireBurst,
        BURST,
    ),
    layer("fvs-net.burst_bytes_rx", "bytes", Lower, WireBurst, BURST),
    layer(
        "trace_overhead_pct.wire_burst",
        "%",
        Lower,
        WireBurst,
        DIAGNOSTIC,
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A workload's `trace_overhead_pct` metric, and the end-to-end metric
/// whose traced and untraced values give it.
pub fn overhead(workload: Workload) -> (&'static str, &'static EndToEnd) {
    let (name, gated) = match workload {
        SmpPhases => ("trace_overhead_pct.smp_phases", "sim_core_ticks_per_s"),
        CoordSteady => ("trace_overhead_pct.coord_steady", "flat_round_p50_ms"),
        CoordChurn => ("trace_overhead_pct.coord_churn", "drop_round_p50_ms"),
        WireSteps => ("trace_overhead_pct.wire_steps", "drop_to_ceiling_p50_ms"),
        WireBurst => ("trace_overhead_pct.wire_burst", "burst_ingest_frames_per_s"),
    };
    let gated = end_to_end(gated).expect("the overhead metrics are end-to-end metrics");
    (name, gated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(END_TO_END.iter().all(|m| m.bound.share() <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
