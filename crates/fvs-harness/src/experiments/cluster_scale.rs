//! Cluster-scale behaviour: does the algorithm's budget response
//! survive node count and network latency?
//!
//! The paper asserts its results "apply to server clusters as well as
//! SMP systems" and leaves the cluster prototype as future work. This
//! experiment runs the global coordinator over three-tier clusters of
//! increasing size and increasing node↔coordinator latency, measuring:
//!
//! - **response time** from a deep global budget cut to compliance,
//! - **violation time** across the whole run,
//! - **frequency diversity** across tiers (the §4.2 stability claim),
//! - bytes-on-the-wire proxy: scheduling rounds executed.
//!
//! Expected shape: response time is dominated by the dispatch tick and
//! two one-way latencies, *not* by cluster size — the computation is
//! O(total cores × frequencies) and the messaging is one summary and
//! one command per node per period.

use crate::render::TableBuilder;
use crate::runs::RunSettings;
use fvs_net::{ClusterConfig, ClusterSim, DropResponse};
use fvs_power::{BudgetEvent, BudgetSchedule};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Cluster sizes studied (nodes; 4 cores each).
pub const SIZES: [usize; 3] = [4, 16, 48];

/// One-way latencies studied (s).
pub const LATENCIES: [f64; 3] = [0.002, 0.020, 0.100];

/// One cell of the scaling study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleCell {
    /// Nodes in the cluster.
    pub nodes: usize,
    /// One-way message latency (s).
    pub latency_s: f64,
    /// Time from the budget cut to compliance (s), if reached.
    pub response_s: Option<f64>,
    /// Each budget decrease and the first tick under its new budget.
    pub drops: Vec<DropResponse>,
    /// When every node had first been written a ceiling in one round (s).
    pub all_commanded_s: Option<f64>,
    /// Total seconds over budget.
    pub violation_s: f64,
    /// Final power as a fraction of the cut budget.
    pub budget_utilisation: f64,
    /// Spread between the fastest and slowest node mean frequency (MHz)
    /// — tier diversity.
    pub diversity_mhz: f64,
}

/// Result of the scaling study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterScaleResult {
    /// One cell per (size, latency) pair.
    pub cells: Vec<ScaleCell>,
}

fn run_one(nodes: usize, latency_s: f64, settings: &RunSettings) -> ScaleCell {
    let unconstrained_w = nodes as f64 * 4.0 * 140.0;
    // Cut to 40% of flat-out — deep enough that every tier participates.
    let cut_w = unconstrained_w * 0.4;
    let mut config =
        ClusterConfig::rack()
            .with_latency_s(latency_s)
            .with_budget(BudgetSchedule::with_events(
                f64::INFINITY,
                vec![BudgetEvent {
                    at_s: 1.5,
                    budget_w: cut_w,
                }],
            ));
    // Trace one representative cell; every cell writing to the same
    // JSONL file would interleave the parallel runs.
    if nodes == SIZES[0] && latency_s == LATENCIES[0] {
        config = config.with_telemetry(settings.telemetry_for("cluster"));
    }
    let dur = if settings.fast { 3.0 } else { 6.0 };
    let mut sim = ClusterSim::three_tier(nodes, settings.seed ^ nodes as u64, config);
    let report = sim.run_for(dur);
    let mean_mhz: Vec<f64> = report.node_mean_mhz.clone();
    let diversity = mean_mhz.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - mean_mhz.iter().cloned().fold(f64::INFINITY, f64::min);
    ScaleCell {
        nodes,
        latency_s,
        response_s: report.response_s,
        drops: report.drops,
        all_commanded_s: report.all_commanded_s,
        violation_s: report.violation_s,
        budget_utilisation: report.final_power_w / cut_w,
        diversity_mhz: diversity,
    }
}

/// Run the study (each cell is an independent simulation).
pub fn run(settings: &RunSettings) -> ClusterScaleResult {
    let jobs: Vec<(usize, f64)> = SIZES
        .iter()
        .flat_map(|&n| LATENCIES.iter().map(move |&l| (n, l)))
        .collect();
    let cells = jobs
        .par_iter()
        .map(|&(n, l)| run_one(n, l, settings))
        .collect();
    ClusterScaleResult { cells }
}

impl ClusterScaleResult {
    /// Cell lookup.
    pub fn cell(&self, nodes: usize, latency_s: f64) -> Option<&ScaleCell> {
        self.cells
            .iter()
            .find(|c| c.nodes == nodes && (c.latency_s - latency_s).abs() < 1e-12)
    }

    /// Render the study.
    pub fn render(&self) -> String {
        let mut t =
            TableBuilder::new("Cluster scaling: budget-cut response vs size and network latency")
                .header([
                    "nodes",
                    "latency",
                    "response (s)",
                    "violation (s)",
                    "budget use",
                    "diversity (MHz)",
                ]);
        for c in &self.cells {
            t.row([
                format!("{}", c.nodes),
                format!("{:.0} ms", c.latency_s * 1e3),
                c.response_s
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "—".to_string()),
                format!("{:.2}", c.violation_s),
                format!("{:.2}", c.budget_utilisation),
                format!("{:.0}", c.diversity_mhz),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_scales_with_latency_not_size() {
        let r = run(&RunSettings::fast());
        for c in &r.cells {
            let resp = c.response_s.expect("compliance reached");
            // Response bounded by dispatch tick + summary & command
            // latencies + one scheduling period, independent of size.
            let bound = 0.01 + 2.0 * c.latency_s + 0.1 + 0.05;
            assert!(
                resp <= bound,
                "{} nodes @{}s latency: response {resp} > bound {bound}",
                c.nodes,
                c.latency_s
            );
            // And the budget ends up respected and well-utilised.
            assert!(c.budget_utilisation <= 1.0 + 1e-9);
            assert!(
                c.budget_utilisation > 0.5,
                "under-utilised: {}",
                c.budget_utilisation
            );
        }
        // Same latency, different sizes: response within a couple of
        // ticks of each other.
        let small = r.cell(SIZES[0], LATENCIES[0]).unwrap().response_s.unwrap();
        let large = r.cell(SIZES[2], LATENCIES[0]).unwrap().response_s.unwrap();
        assert!(
            (small - large).abs() <= 0.05,
            "size-dependent response: {small} vs {large}"
        );
        // Higher latency → slower response at fixed size.
        let fast_net = r.cell(SIZES[1], LATENCIES[0]).unwrap().response_s.unwrap();
        let slow_net = r.cell(SIZES[1], LATENCIES[2]).unwrap().response_s.unwrap();
        assert!(slow_net > fast_net);
    }

    #[test]
    fn tier_diversity_persists_at_every_scale() {
        let r = run(&RunSettings::fast());
        for c in &r.cells {
            assert!(
                c.diversity_mhz > 200.0,
                "{} nodes: diversity only {} MHz",
                c.nodes,
                c.diversity_mhz
            );
        }
    }
}
