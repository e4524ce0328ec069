//! Per-core value types: where a core is in its workload and what it
//! has executed. The stepping itself lives in `bank.rs`; the tests below
//! pin a single core's behaviour through a one-core [`crate::Machine`],
//! under both of its steppers.

use serde::{Deserialize, Serialize};

/// Position within a workload's phase list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseCursor {
    /// Index into the workload's phases.
    pub phase: usize,
    /// Instructions already retired in the current phase.
    pub done_in_phase: f64,
}

/// Aggregate statistics a core keeps about its own execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CoreStats {
    /// All instructions retired (workload + idle loop).
    pub total_instructions: f64,
    /// Instructions retired in the workload's *body* phases — the
    /// throughput the synthetic benchmark reports.
    pub body_instructions: f64,
    /// Simulation time at which the (non-looping) workload completed.
    pub completed_at_s: Option<f64>,
    /// Total busy (non-idle-loop) seconds.
    pub busy_s: f64,
}

#[cfg(test)]
mod tests {
    use crate::{Machine, MachineBuilder, NoiseModel};
    use fvs_model::FreqMhz;
    use fvs_workloads::{SyntheticConfig, WorkloadSpec};

    /// A noiseless one-core machine running `workload` at `f`, once per
    /// stepper: the batched pass and the scalar reference.
    fn core_with(workload: WorkloadSpec, f: FreqMhz) -> [Machine; 2] {
        [false, true].map(|reference| {
            let b = MachineBuilder::p630()
                .cores(1)
                .noise(NoiseModel::NONE)
                .initial_frequency(f)
                .workload(0, workload.clone());
            if reference {
                b.reference_stepping().build()
            } else {
                b.build()
            }
        })
    }

    /// Step in `dt` ticks until the workload completes; when it did.
    fn completion_time(mut m: Machine, dt: f64) -> f64 {
        while !m.core(0).is_finished() {
            m.step(dt);
        }
        m.core(0).stats().completed_at_s.unwrap()
    }

    #[test]
    fn cpu_bound_core_retires_at_alpha_times_frequency() {
        // Pure CPU work at alpha=1.3, 1 GHz → 1.3e9 instr/s.
        for mut m in core_with(WorkloadSpec::hot_idle(), FreqMhz(1000)) {
            m.step(1.0);
            let got = m.core(0).counters().instructions;
            assert!((got - 1.3e9).abs() / 1.3e9 < 1e-9, "got {got}");
            // Cycles equal wall time × frequency.
            assert!((m.core(0).counters().cycles - 1.0e9).abs() / 1.0e9 < 1e-9);
        }
    }

    #[test]
    fn workload_completes_and_falls_into_idle() {
        for mut m in core_with(WorkloadSpec::synthetic(100.0, 1.0e8), FreqMhz(1000)) {
            assert!(!m.idle_signal(0));
            // 1e8 instructions at ~1.2e9 instr/s: finishes well within 1 s.
            m.step(1.0);
            assert!(m.core(0).is_finished());
            assert!(m.idle_signal(0));
            let done_at = m.core(0).stats().completed_at_s.unwrap();
            assert!(done_at > 0.0 && done_at < 0.2, "completed at {done_at}");
            // Idle loop keeps retiring instructions afterwards.
            let before = m.core(0).counters().instructions;
            m.step(0.1);
            assert!(m.core(0).counters().instructions > before);
        }
    }

    #[test]
    fn looping_workload_never_finishes() {
        let w = SyntheticConfig::single(50.0, 1.0e6)
            .body_only()
            .looping()
            .build();
        for mut m in core_with(w, FreqMhz(1000)) {
            for _ in 0..100 {
                m.step(0.01);
            }
            assert!(!m.core(0).is_finished());
            assert!(
                m.core(0).stats().body_instructions > 1.0e6,
                "looped at least once"
            );
        }
    }

    #[test]
    fn slower_clock_stretches_completion_time() {
        let run = |mhz: u32| {
            core_with(WorkloadSpec::synthetic(100.0, 1.0e8), FreqMhz(mhz))
                .map(|m| completion_time(m, 0.001))
        };
        for (fast, slow) in run(1000).into_iter().zip(run(500)) {
            let ratio = slow / fast;
            // The 100%-intensity profile keeps a residual memory rate
            // (paper: "some memory-related stalls even in the
            // CPU-intensive phase"), so the slowdown is slightly below
            // the 2.0 clock ratio.
            assert!(
                (1.7..2.01).contains(&ratio),
                "CPU-bound slowdown should be just under 2x, got {ratio}"
            );
        }
    }

    #[test]
    fn memory_bound_completion_barely_stretches() {
        let run = |mhz: u32| {
            core_with(WorkloadSpec::synthetic(0.0, 1.0e8), FreqMhz(mhz))
                .map(|m| completion_time(m, 0.001))
        };
        for (fast, slow) in run(1000).into_iter().zip(run(500)) {
            let ratio = slow / fast;
            assert!(
                ratio < 1.1,
                "memory-bound slowdown should be small: {ratio}"
            );
        }
    }

    #[test]
    fn sample_raw_deltas_reset() {
        for mut m in core_with(WorkloadSpec::hot_idle(), FreqMhz(1000)) {
            m.step(0.01);
            let d1 = m.sample(0);
            assert!(d1.instructions > 0.0);
            let d2 = m.sample(0);
            assert_eq!(d2.instructions, 0.0, "no work between samples");
            m.step(0.01);
            let d3 = m.sample(0);
            assert!((d3.instructions - d1.instructions).abs() / d1.instructions < 1e-9);
        }
    }

    #[test]
    fn phase_transitions_cross_tick_boundaries() {
        // Two body phases of 1e6 instructions each; step in large ticks so
        // both phase transitions happen inside single ticks.
        let w = SyntheticConfig::two_phase(100.0, 1.0e6, 0.0, 1.0e6)
            .body_only()
            .build();
        for mut m in core_with(w, FreqMhz(1000)) {
            m.step(1.0);
            assert!(m.core(0).is_finished());
            // Both phases' instructions retired exactly.
            assert!((m.core(0).stats().body_instructions - 2.0e6).abs() < 1.0);
        }
    }

    #[test]
    fn loop_drift_varies_iterations_without_changing_totals() {
        // Short looping body so many iterations fit in the run.
        let base = SyntheticConfig::single(40.0, 2.0e6)
            .body_only()
            .looping()
            .build();
        let run = |amp: f64| {
            core_with(base.clone().with_drift(amp), FreqMhz(1000)).map(|mut m| {
                // Per-iteration memory-access rate fingerprints.
                let mut rates = Vec::new();
                let mut prev = (0.0, 0.0);
                for _ in 0..200 {
                    m.step(0.01);
                    let c = m.core(0).counters();
                    rates.push((c.mem_accesses - prev.0) / (c.instructions - prev.1));
                    prev = (c.mem_accesses, c.instructions);
                }
                rates
            })
        };
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            max - min
        };
        for (steady, drifting) in run(0.0).into_iter().zip(run(0.4)) {
            assert!(spread(&steady) < 1e-9, "no drift → constant rate");
            assert!(
                spread(&drifting) > 0.2 * steady[0],
                "drift must be visible: spread {}",
                spread(&drifting)
            );
        }
    }

    #[test]
    fn powered_off_core_does_nothing() {
        for mut m in core_with(WorkloadSpec::synthetic(100.0, 1.0e8), FreqMhz(1000)) {
            m.set_powered(0, false);
            m.step(1.0);
            assert_eq!(m.core(0).counters().instructions, 0.0);
            assert_eq!(m.core_power_w(0), 0.0);
            // Power back on: resumes and completes.
            m.set_powered(0, true);
            m.step(1.0);
            assert!(m.core(0).is_finished());
        }
    }

    #[test]
    fn stolen_time_delays_workload_completion() {
        let run = |steal_per_tick: f64| {
            core_with(WorkloadSpec::synthetic(100.0, 1.0e8), FreqMhz(1000)).map(|mut m| {
                while !m.core(0).is_finished() {
                    m.core_mut(0).steal(steal_per_tick);
                    m.step(0.01);
                }
                m.core(0).stats().completed_at_s.unwrap()
            })
        };
        // 5% of each 10 ms tick.
        for (clean, stolen) in run(0.0).into_iter().zip(run(0.0005)) {
            let slowdown = stolen / clean;
            assert!(
                (1.03..1.10).contains(&slowdown),
                "5% theft should slow completion ~5%, got {slowdown}"
            );
        }
    }

    #[test]
    fn assign_resets_cursor() {
        for mut m in core_with(WorkloadSpec::synthetic(100.0, 1.0e6), FreqMhz(1000)) {
            m.step(1.0);
            assert!(m.core(0).is_finished());
            m.core_mut(0).assign(WorkloadSpec::synthetic(50.0, 1.0e6));
            assert!(!m.core(0).is_finished());
            assert!(!m.idle_signal(0));
        }
    }
}
