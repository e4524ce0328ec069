//! Figure 4: performance impact (overhead) of running fvsst.
//!
//! The paper's metric bundles "the overhead of fvsst and the performance
//! lost due to mispredictions" — it does *not* count the ε-intended
//! slowdown (the scheduler giving up ≤ε of performance on purpose is the
//! feature, not overhead). The reference run is therefore the
//! ground-truth **oracle** at the same ε with a free daemon: the gap
//! between oracle and fvsst is exactly daemon CPU time + prediction
//! error. A bare run pinned at `f_max` is also reported for context.

use crate::render::TableBuilder;
use crate::runs::{run_reference, RunSettings};
use fvs_baselines::Oracle;
use fvs_model::FreqMhz;
use fvs_power::BudgetSchedule;
use fvs_sched::{ScheduledSimulation, SchedulerConfig};
use fvs_sim::MachineBuilder;
use fvs_workloads::SyntheticConfig;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Intensities studied.
pub const INTENSITIES: [f64; 4] = [100.0, 75.0, 50.0, 25.0];

/// One row of the overhead study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Row {
    /// CPU intensity of the benchmark.
    pub intensity: f64,
    /// Completion time pinned at `f_max`, unmanaged (s).
    pub bare_s: f64,
    /// Completion time under the zero-overhead ground-truth oracle (s).
    pub oracle_s: f64,
    /// Completion time under the real fvsst daemon (s).
    pub fvsst_s: f64,
    /// The paper's Figure 4 metric: overhead + misprediction loss
    /// (fvsst vs oracle).
    pub degradation: f64,
    /// Total cost vs a bare `f_max` run (includes the ε-intended loss).
    pub total_vs_bare: f64,
}

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// One row per intensity.
    pub rows: Vec<Fig4Row>,
}

/// The daemon's configuration; the oracle is built from it too, so the
/// two round on the same ticks.
fn daemon_config() -> SchedulerConfig {
    SchedulerConfig::p630().with_budget(BudgetSchedule::constant(f64::INFINITY))
}

fn completion_under_fvsst(intensity: f64, instr: f64, settings: &RunSettings) -> f64 {
    let machine = MachineBuilder::p630()
        .cores(1)
        .workload(
            0,
            SyntheticConfig::single(intensity, instr)
                .body_only()
                .build(),
        )
        .seed(settings.seed ^ intensity.to_bits())
        .build();
    let mut sim = ScheduledSimulation::new(machine, daemon_config()).without_trace();
    let report = sim.run_to_completion(600.0);
    report.completed_at_s[0].unwrap_or(report.duration_s)
}

fn completion_under_oracle(intensity: f64, instr: f64, settings: &RunSettings) -> f64 {
    let machine = MachineBuilder::p630()
        .cores(1)
        .workload(
            0,
            SyntheticConfig::single(intensity, instr)
                .body_only()
                .build(),
        )
        .seed(settings.seed ^ intensity.to_bits())
        .build();
    let mut sim = ScheduledSimulation::with_policy(
        machine,
        Oracle::new(&daemon_config()),
        BudgetSchedule::constant(f64::INFINITY),
        0.01,
    )
    .without_trace();
    let report = sim.run_to_completion(600.0);
    report.completed_at_s[0].unwrap_or(report.duration_s)
}

fn run_one(intensity: f64, settings: &RunSettings) -> Fig4Row {
    let instr = settings.instructions(3.0e9);
    let bare_s = run_reference(
        SyntheticConfig::single(intensity, instr)
            .body_only()
            .build(),
        FreqMhz(1000),
        settings,
        600.0,
    );
    let oracle_s = completion_under_oracle(intensity, instr, settings);
    let fvsst_s = completion_under_fvsst(intensity, instr, settings);
    Fig4Row {
        intensity,
        bare_s,
        oracle_s,
        fvsst_s,
        degradation: (fvsst_s - oracle_s) / oracle_s,
        total_vs_bare: (fvsst_s - bare_s) / bare_s,
    }
}

/// Run the experiment.
pub fn run(settings: &RunSettings) -> Fig4Result {
    let rows = INTENSITIES
        .par_iter()
        .map(|&c| run_one(c, settings))
        .collect();
    Fig4Result { rows }
}

impl Fig4Result {
    /// Render the table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(
            "Figure 4: fvsst overhead (vs oracle = overhead + misprediction; vs bare adds the intended ε loss)",
        )
        .header([
            "CPU intensity",
            "bare (s)",
            "oracle (s)",
            "fvsst (s)",
            "overhead+mispred",
            "total vs bare",
        ]);
        for r in &self.rows {
            t.row([
                format!("{:.0}", r.intensity),
                format!("{:.3}", r.bare_s),
                format!("{:.3}", r.oracle_s),
                format!("{:.3}", r.fvsst_s),
                format!("{:.2}%", r.degradation * 100.0),
                format!("{:.2}%", r.total_vs_bare * 100.0),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small() {
        let r = run(&RunSettings::fast());
        for row in &r.rows {
            // The paper's claim: overhead + misprediction ≤ 3%. Allow a
            // point of slack for fast mode's short runs.
            assert!(
                row.degradation < 0.04,
                "intensity {}: overhead+mispred {}",
                row.intensity,
                row.degradation
            );
            // Sanity: fvsst is never dramatically *faster* than the
            // oracle (that would mean the oracle reference is broken).
            assert!(row.degradation > -0.02);
            // Total vs bare also includes the intended ε loss: ≤ ε + 4%.
            assert!(
                row.total_vs_bare < 0.09,
                "intensity {}: total {}",
                row.intensity,
                row.total_vs_bare
            );
        }
    }
}
