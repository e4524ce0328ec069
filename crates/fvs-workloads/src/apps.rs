//! Phase-profile models of the paper's four real applications.
//!
//! The paper evaluates `gzip` and `gap` (CPU-intensive, SPEC CPU2000) and
//! `mcf` (SPEC CPU2000) and `health` (Olden; both memory-intensive). We
//! cannot run the SPEC/Olden binaries, and the scheduler never inspects
//! program text anyway — it sees performance-counter streams. Each model
//! here is a *phase mixture* whose counter-visible behaviour is calibrated
//! to the paper's published aggregate results:
//!
//! - saturation/residency: the CPU apps split time between 1000 and
//!   950 MHz unconstrained, the memory apps spend the majority of their
//!   time at 650 MHz (paper Figure 8);
//! - performance under power caps: CPU apps ≈ 0.79/0.52 of full speed at
//!   75 W/35 W, memory apps ≈ 1.0 at 75 W and significantly reduced at
//!   35 W (paper Table 3);
//! - energy: ≈ 0.94 (gzip), 0.88 (gap) and ≈ 0.43 (mcf, health) of the
//!   non-fvsst system at an unconstrained budget (paper Table 3).
//!
//! Calibration is parameterised by `β`: the ratio of off-core stall
//! cycles to core cycles at the nominal 1 GHz clock
//! (`β = M·f_nom / cpi0`). A phase's ε-constrained frequency follows
//! directly: `f̂_desired > (1−ε) / (1 + ε·β)` (as a fraction of 1 GHz, for
//! small ε), so β is the natural knob for placing a phase's saturation
//! point.
//!
//! Known deviation (documented in EXPERIMENTS.md): under the paper's own
//! analytic model, a phase that loses *nothing* at 750 MHz can lose at
//! most ≈ 14 % at 500 MHz, so Table 3's (1.0 @ 75 W, 0.72 @ 35 W) for
//! `health` is not reachable by any stationary phase mixture — the
//! original magnitudes include machine effects (throttling granularity,
//! misprediction) outside the model. Our mixtures preserve the ordering
//! and the qualitative claims.

use crate::spec::{PhaseSpec, WorkloadSpec};
use fvs_model::{AccessRates, ExecutionProfile, MemoryLatencies};
use serde::{Deserialize, Serialize};

/// Nominal frequency the β calibration is defined against (Hz).
const F_NOM_HZ: f64 = 1.0e9;

/// How a phase's off-core stall time is split across hierarchy levels.
#[derive(Debug, Clone, Copy)]
struct StallSplit {
    l2: f64,
    l3: f64,
    mem: f64,
}

impl StallSplit {
    /// Cache-friendly traffic: most stalls in L2/L3 (gzip/gap-like).
    const CACHEY: StallSplit = StallSplit {
        l2: 0.5,
        l3: 0.2,
        mem: 0.3,
    };
    /// Pointer-chasing traffic: most stalls in main memory (mcf/health).
    const MEMORY: StallSplit = StallSplit {
        l2: 0.1,
        l3: 0.15,
        mem: 0.75,
    };
}

/// Build an `ExecutionProfile` from `(alpha, l1_stall, β)` with a given
/// stall split, using the P630 latencies the whole study assumes.
fn profile_from_beta(alpha: f64, l1_stall: f64, beta: f64, split: StallSplit) -> ExecutionProfile {
    let lat = MemoryLatencies::P630;
    let cpi0 = 1.0 / alpha + l1_stall;
    let stall_time = beta * cpi0 / F_NOM_HZ; // M in seconds/instruction
    ExecutionProfile {
        alpha,
        l1_stall_cycles_per_instr: l1_stall,
        rates: AccessRates {
            l2_per_instr: stall_time * split.l2 / lat.l2_s,
            l3_per_instr: stall_time * split.l3 / lat.l3_s,
            mem_per_instr: stall_time * split.mem / lat.mem_s,
        },
    }
}

/// One of the paper's four applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppBenchmark {
    /// SPEC CPU2000 `gzip` — compression; CPU-intensive.
    Gzip,
    /// SPEC CPU2000 `gap` — group theory interpreter; CPU-intensive.
    Gap,
    /// SPEC CPU2000 `mcf` — network simplex; memory-intensive.
    Mcf,
    /// Olden `health` — hierarchical health-care simulation;
    /// memory-intensive (linked lists).
    Health,
}

/// All four, in the paper's Table 3 column order.
pub const APP_BENCHMARKS: [AppBenchmark; 4] = [
    AppBenchmark::Gzip,
    AppBenchmark::Gap,
    AppBenchmark::Mcf,
    AppBenchmark::Health,
];

impl AppBenchmark {
    /// The benchmark's display name.
    pub fn name(&self) -> &'static str {
        match self {
            AppBenchmark::Gzip => "gzip",
            AppBenchmark::Gap => "gap",
            AppBenchmark::Mcf => "mcf",
            AppBenchmark::Health => "health",
        }
    }

    /// The workload spec, scaled to roughly `total_instructions` of body
    /// work (phase structure is preserved; per-phase budgets scale).
    pub fn workload(&self, total_instructions: f64) -> WorkloadSpec {
        // (name, alpha, l1_stall, beta, split, weight) per body phase.
        type Row = (&'static str, f64, f64, f64, StallSplit, f64);
        let rows: &[Row] = match self {
            // CPU apps: split time between 1000 MHz (β below the first
            // demotion threshold) and 950 MHz phases — Figure 8.
            // deflate is fully in-L1 (β = 0): with ε = 5 %, any β > 0
            // makes 950 MHz admissible, and Figure 8 shows gzip holding
            // 1000 MHz for much of its run.
            AppBenchmark::Gzip => &[
                ("deflate", 1.2, 0.2, 0.0, StallSplit::CACHEY, 0.55),
                ("window", 1.2, 0.2, 0.30, StallSplit::CACHEY, 0.45),
            ],
            AppBenchmark::Gap => &[
                ("eval", 1.1, 0.25, 0.20, StallSplit::CACHEY, 0.70),
                ("gc", 1.1, 0.25, 0.50, StallSplit::CACHEY, 0.30),
            ],
            // Memory apps: majority of time saturated around 650 MHz.
            // β = 11 sits mid-band for a 650 MHz ε-frequency (the band
            // is β ∈ (9.7, 12.2] at ε = 4.8 %), so window-level counter
            // noise doesn't flip the decision to 700 MHz.
            AppBenchmark::Mcf => &[
                ("pricing", 0.9, 0.3, 11.0, StallSplit::MEMORY, 0.55),
                ("refactor", 0.9, 0.3, 5.3, StallSplit::MEMORY, 0.30),
                ("setup", 0.9, 0.3, 3.0, StallSplit::MEMORY, 0.15),
            ],
            AppBenchmark::Health => &[
                ("traverse", 0.85, 0.35, 11.0, StallSplit::MEMORY, 0.45),
                ("build", 0.85, 0.35, 5.5, StallSplit::MEMORY, 0.55),
            ],
        };
        // Init/exit are kept tiny relative to the body: they are
        // memory-bound and run clocked-down, so even a 1 % instruction
        // share would occupy a disproportionate share of *time*.
        let mut phases = vec![PhaseSpec::init(
            crate::synthetic::init_profile(),
            total_instructions * 0.002,
        )];
        for &(name, alpha, l1, beta, split, weight) in rows {
            phases.push(PhaseSpec::body(
                name,
                profile_from_beta(alpha, l1, beta, split),
                total_instructions * weight,
            ));
        }
        phases.push(PhaseSpec::exit(
            crate::synthetic::exit_profile(),
            total_instructions * 0.001,
        ));
        WorkloadSpec::new(self.name(), phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PhaseKind;
    use fvs_model::{CpiModel, FreqMhz};

    /// Instruction-weighted performance of the body phases at `f`,
    /// relative to 1000 MHz — an analytic stand-in for Table 3's
    /// perf-under-cap rows (each phase capped at `min(desired, cap)`;
    /// here we simply cap the clock, the stronger condition).
    fn capped_perf_ratio(app: AppBenchmark, cap: FreqMhz) -> f64 {
        let lat = MemoryLatencies::P630;
        let w = app.workload(1.0e9);
        let body: Vec<_> = w
            .phases
            .iter()
            .filter(|p| p.kind == PhaseKind::Body)
            .collect();
        // Time to finish each phase at cap vs at 1000 MHz.
        let time = |f: FreqMhz| -> f64 {
            body.iter()
                .map(|p| {
                    let m = CpiModel::from_profile(&p.profile, &lat);
                    p.instructions / m.perf_at(f)
                })
                .sum()
        };
        time(FreqMhz(1000)) / time(cap)
    }

    #[test]
    fn cpu_apps_degrade_roughly_linearly() {
        for app in [AppBenchmark::Gzip, AppBenchmark::Gap] {
            let p750 = capped_perf_ratio(app, FreqMhz(750));
            let p500 = capped_perf_ratio(app, FreqMhz(500));
            assert!((0.75..0.85).contains(&p750), "{} @750: {p750}", app.name());
            assert!((0.50..0.62).contains(&p500), "{} @500: {p500}", app.name());
        }
    }

    #[test]
    fn memory_apps_saturate() {
        for app in [AppBenchmark::Mcf, AppBenchmark::Health] {
            let p750 = capped_perf_ratio(app, FreqMhz(750));
            let p500 = capped_perf_ratio(app, FreqMhz(500));
            assert!(p750 > 0.93, "{} @750: {p750}", app.name());
            assert!((0.78..0.93).contains(&p500), "{} @500: {p500}", app.name());
            // Order: 35 W hurts more than 75 W.
            assert!(p500 < p750);
        }
    }

    #[test]
    fn memory_apps_lose_more_than_cpu_apps_keep() {
        // The paper's headline: under the same cap, memory apps retain
        // much more performance than CPU apps.
        let cpu = capped_perf_ratio(AppBenchmark::Gzip, FreqMhz(500));
        let mem = capped_perf_ratio(AppBenchmark::Mcf, FreqMhz(500));
        assert!(mem > cpu + 0.2, "mem {mem} vs cpu {cpu}");
    }

    #[test]
    fn workload_structure() {
        for app in APP_BENCHMARKS {
            let w = app.workload(1.0e9);
            assert!(w.is_valid(), "{}", app.name());
            assert_eq!(w.phases.first().unwrap().kind, PhaseKind::Init);
            assert_eq!(w.phases.last().unwrap().kind, PhaseKind::Exit);
            assert!(w.body_instructions() > 0.9e9);
        }
    }

    #[test]
    fn beta_profile_roundtrip() {
        // profile_from_beta must produce a model whose stall-cycle ratio
        // at 1 GHz is the requested beta.
        let lat = MemoryLatencies::P630;
        for beta in [0.1, 1.0, 5.0, 10.0] {
            let p = profile_from_beta(1.0, 0.2, beta, StallSplit::MEMORY);
            let m = CpiModel::from_profile(&p, &lat);
            let got = m.mem_time_per_instr * 1.0e9 / m.cpi0;
            assert!((got - beta).abs() < 1e-9, "beta {beta} got {got}");
        }
    }
}
