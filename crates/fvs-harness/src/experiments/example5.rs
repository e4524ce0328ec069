//! The section-5 worked example, end to end.
//!
//! Four processors, the 0.6–1.0 GHz frequency table, a 294 W budget
//! after a supply failure. At `T0` the ε-constrained vector is
//! [1.0, 0.7, 0.8, 0.8] GHz (374 W — over budget), and pass 2 demotes to
//! a 289 W assignment. Between `T0` and `T1` processor 0 becomes more
//! memory-intensive; at `T1` the ε-vector [0.6, 0.7, 0.8, 0.8] GHz fits
//! at 282 W and nobody is demoted.
//!
//! Note on the paper's arithmetic: it prints the post-budget vector as
//! [0.6, 0.6, 0.7, 0.7] GHz but gives its power as [109, 48, 66, 66] W —
//! and 109 W is unambiguously 900 MHz in its own Table 1. We reproduce
//! the consistent reading ([0.9, 0.6, 0.7, 0.7] GHz, total 289 W).

use crate::render::TableBuilder;
use fvs_model::{CpiModel, FreqMhz};
use fvs_power::{FreqPowerTable, VoltageTable};
use fvs_sched::{FvsstAlgorithm, ProcInput, ScheduleDecision};
use serde::{Deserialize, Serialize};

/// Result of the worked example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Example5Result {
    /// Decision at `T0` (processor 0 CPU-bound).
    pub at_t0: ScheduleDecision,
    /// Decision at `T1` (processor 0 now memory-intensive).
    pub at_t1: ScheduleDecision,
    /// The budget used.
    pub budget_w: f64,
}

/// β targeting a desired frequency `f_hat` (fraction of 1 GHz) at
/// ε = 5 %: from `f̂ > (1−ε)/(1+ε·β)`, nudged to sit strictly between
/// table steps.
fn beta_for(f_hat: f64) -> f64 {
    (0.95 / (f_hat - 0.02) - 1.0) / 0.05
}

fn model_beta(beta: f64) -> CpiModel {
    CpiModel::from_components(1.0, beta * 1.0e-9)
}

/// Run the example.
pub fn run() -> Example5Result {
    let table = FreqPowerTable::section5_example();
    let alg = FvsstAlgorithm {
        freq_set: table.frequency_set(),
        power_table: table,
        voltage_table: VoltageTable::p630(),
        epsilon: 0.05,
        idle_detection: true,
    };
    let budget_w = 294.0;
    let proc = |beta: f64| ProcInput {
        model: Some(model_beta(beta)),
        idle: false,
        current: FreqMhz(1000),
    };
    // T0: processor 0 CPU-bound, 1 wants 0.7 GHz, 2 and 3 want 0.8 GHz.
    let at_t0 = alg.schedule(
        &[
            proc(0.0),
            proc(beta_for(0.7)),
            proc(beta_for(0.8)),
            proc(beta_for(0.8)),
        ],
        budget_w,
    );
    // T1: processor 0's aggregate work became memory-intensive enough to
    // want 0.6 GHz.
    let at_t1 = alg.schedule(
        &[
            proc(beta_for(0.6)),
            proc(beta_for(0.7)),
            proc(beta_for(0.8)),
            proc(beta_for(0.8)),
        ],
        budget_w,
    );
    Example5Result {
        at_t0,
        at_t1,
        budget_w,
    }
}

impl Example5Result {
    /// Render both scheduling instants.
    pub fn render(&self) -> String {
        let fmt = |d: &ScheduleDecision| {
            let freqs: Vec<String> = d
                .freqs
                .iter()
                .map(|f| format!("{:.1}", f.0 as f64 / 1000.0))
                .collect();
            let desired: Vec<String> = d
                .desired
                .iter()
                .map(|f| format!("{:.1}", f.0 as f64 / 1000.0))
                .collect();
            (freqs.join(", "), desired.join(", "))
        };
        let mut t = TableBuilder::new("Section 5 worked example (294 W budget)").header([
            "instant",
            "ε-vector (GHz)",
            "final (GHz)",
            "power (W)",
            "demotions",
        ]);
        let (f0, d0) = fmt(&self.at_t0);
        t.row([
            "T0".to_string(),
            d0,
            f0,
            format!("{:.0}", self.at_t0.predicted_power_w),
            format!("{}", self.at_t0.demotions),
        ]);
        let (f1, d1) = fmt(&self.at_t1);
        t.row([
            "T1".to_string(),
            d1,
            f1,
            format!("{:.0}", self.at_t1.predicted_power_w),
            format!("{}", self.at_t1.demotions),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t0_matches_paper() {
        let r = run();
        assert_eq!(
            r.at_t0.desired,
            vec![FreqMhz(1000), FreqMhz(700), FreqMhz(800), FreqMhz(800)]
        );
        // 374 W desired > 294 W: demotion happened and landed ≤ budget.
        assert!(r.at_t0.demotions > 0);
        assert!(r.at_t0.predicted_power_w <= 294.0);
        // The consistent reading of the paper's example: 289 W total
        // from [0.9, 0.6, 0.7, 0.7] GHz.
        assert_eq!(
            r.at_t0.freqs,
            vec![FreqMhz(900), FreqMhz(600), FreqMhz(700), FreqMhz(700)],
            "final vector"
        );
        assert!((r.at_t0.predicted_power_w - 289.0).abs() < 1e-9);
    }

    #[test]
    fn t1_matches_paper() {
        let r = run();
        assert_eq!(
            r.at_t1.desired,
            vec![FreqMhz(600), FreqMhz(700), FreqMhz(800), FreqMhz(800)]
        );
        // 48+66+84+84 = 282 W ≤ 294 W: everyone gets their ε-frequency.
        assert_eq!(r.at_t1.freqs, r.at_t1.desired);
        assert!((r.at_t1.predicted_power_w - 282.0).abs() < 1e-9);
        assert_eq!(r.at_t1.demotions, 0);
    }
}
