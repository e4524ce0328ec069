//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Policy comparison** (the paper's thesis): non-uniform fvsst vs
//!    uniform scaling, node power-down, utilization-driven DVFS, the
//!    ground-truth oracle, and no management — all under the same budget
//!    drop on the same diverse workload.
//! 2. **Cascade scenario** (section 2): who survives the supply failure.
//! 3. **Idle detection** (section 5): hot-idle power with and without.
//! 4. **Actuator** (section 6): true DVFS vs fetch throttling under both
//!    power-accounting assumptions.
//! 5. **Demotion order** (Figure 3 step 2): least-predicted-loss vs
//!    round-robin ([`RoundRobinDemotion`]).
//! 6. **ε sweep**: power/performance trade-off of the loss tolerance.
//! 7. **T/t ratio** (section 5): scheduling period vs responsiveness and
//!    overhead.
//! 8. **Discrete vs continuous `f_ideal`** (section 5 extension,
//!    [`ContinuousIdeal`]).

use crate::render::TableBuilder;
use crate::runs::RunSettings;
use fvs_baselines::{
    ContinuousIdeal, NoDvfs, NodePowerDown, Oracle, RoundRobinDemotion, UniformScaling,
    UtilizationDriven,
};
use fvs_power::{BudgetEvent, BudgetSchedule, SupplyBank};
use fvs_sched::{Policy, RunReport, ScheduledSimulation, SchedulerConfig};
use fvs_sim::{Machine, MachineBuilder, ThrottlePowerModel};
use fvs_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Row of the policy-comparison ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Mean per-core progress relative to an unconstrained full-speed
    /// run of the same duration (1.0 = nobody slowed down). Per-core
    /// normalisation keeps memory-bound cores — which retire few raw
    /// instructions — from vanishing out of the metric.
    pub progress: f64,
    /// Seconds over budget.
    pub violation_s: f64,
    /// Time-averaged power (W).
    pub avg_power_w: f64,
}

/// Row of the cascade ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CascadeRow {
    /// Policy name.
    pub policy: String,
    /// Whether the supply bank cascaded, and when.
    pub cascaded_at_s: Option<f64>,
    /// Final aggregate power (W).
    pub final_power_w: f64,
}

/// Result bundle for the whole ablation suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Policy comparison under a budget drop.
    pub policies: Vec<PolicyRow>,
    /// Cascade survival.
    pub cascade: Vec<CascadeRow>,
    /// (idle detection on, off) average power of an all-idle machine.
    pub idle_power_w: (f64, f64),
    /// (actuator name, avg power, violation seconds).
    pub actuators: Vec<(String, f64, f64)>,
    /// (order name, total throughput) under a tight budget.
    pub demotion: Vec<(String, f64)>,
    /// (ε, avg power, throughput).
    pub epsilon: Vec<(f64, f64, f64)>,
    /// (n = T/t, decisions, frequency switches, violation seconds after
    /// drop, throughput).
    pub period: Vec<(u32, u64, u64, f64, f64)>,
    /// (mode name, avg power, throughput).
    pub modes: Vec<(String, f64, f64)>,
    /// Closed-loop power enforcement on honest (dynamic-only) fetch
    /// throttling: (loop name, final power W, violation seconds).
    pub feedback: Vec<(String, f64, f64)>,
    /// Predictor robustness to workload drift: (drift amplitude, mean
    /// |ΔIPC| on the busiest core, violation seconds @294 W).
    pub drift: Vec<(f64, f64, f64)>,
}

/// The diverse 4-core workload every ablation shares.
fn diverse_machine(settings: &RunSettings) -> Machine {
    MachineBuilder::p630()
        .workload(0, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
        .workload(1, WorkloadSpec::synthetic(60.0, 1.0e13).looping())
        .workload(2, WorkloadSpec::synthetic(30.0, 1.0e13).looping())
        .workload(3, WorkloadSpec::synthetic(5.0, 1.0e13).looping())
        .seed(settings.seed)
        .build()
}

/// Constant tight budget for the steady-state policy comparison. (A
/// *drop* would let policies coast unconstrained for part of the run and
/// blur the comparison; the transient is studied by the cascade and
/// period ablations.)
fn tight_budget() -> BudgetSchedule {
    BudgetSchedule::constant(250.0)
}

fn drop_budget() -> BudgetSchedule {
    BudgetSchedule::with_events(
        560.0,
        vec![BudgetEvent {
            at_s: 1.0,
            budget_w: 294.0,
        }],
    )
}

/// Per-core body instructions of an unconstrained full-speed run — the
/// progress denominator.
fn unconstrained_reference(settings: &RunSettings, dur: f64) -> Vec<f64> {
    let mut machine = diverse_machine(settings);
    machine.run_for(dur, 0.01);
    (0..machine.num_cores())
        .map(|i| machine.core(i).stats().body_instructions)
        .collect()
}

fn progress(report: &RunReport, reference: &[f64]) -> f64 {
    let per_core: f64 = report
        .body_instructions
        .iter()
        .zip(reference)
        .map(|(done, full)| (done / full).min(1.0))
        .sum();
    per_core / reference.len() as f64
}

fn policy_row<P: Policy>(
    name: &str,
    policy: P,
    settings: &RunSettings,
    dur: f64,
    reference: &[f64],
) -> PolicyRow {
    let mut sim =
        ScheduledSimulation::with_policy(diverse_machine(settings), policy, tight_budget(), 0.01)
            .without_trace();
    let report = sim.run_for(dur);
    PolicyRow {
        policy: name.to_string(),
        progress: progress(&report, reference),
        violation_s: report.violation_s,
        avg_power_w: report.avg_power_w,
    }
}

fn run_policies(settings: &RunSettings, dur: f64) -> Vec<PolicyRow> {
    let reference = unconstrained_reference(settings, dur);
    let config = SchedulerConfig::p630().with_budget(tight_budget());
    let fvsst = {
        let machine = diverse_machine(settings);
        let mut sim = ScheduledSimulation::new(machine, config.clone()).without_trace();
        let report = sim.run_for(dur);
        PolicyRow {
            policy: "fvsst".to_string(),
            progress: progress(&report, &reference),
            violation_s: report.violation_s,
            avg_power_w: report.avg_power_w,
        }
    };
    vec![
        fvsst,
        policy_row("oracle", Oracle::new(&config), settings, dur, &reference),
        policy_row(
            "uniform-scaling",
            UniformScaling::new(),
            settings,
            dur,
            &reference,
        ),
        policy_row(
            "node-powerdown",
            NodePowerDown::new(),
            settings,
            dur,
            &reference,
        ),
        policy_row(
            "utilization-dvfs",
            UtilizationDriven::default(),
            settings,
            dur,
            &reference,
        ),
        policy_row("no-dvfs", NoDvfs::new(), settings, dur, &reference),
    ]
}

fn run_cascade(settings: &RunSettings, dur: f64) -> Vec<CascadeRow> {
    let mut rows = Vec::new();
    // fvsst
    {
        let machine = diverse_machine(settings);
        let config = SchedulerConfig::p630();
        let mut sim = ScheduledSimulation::new(machine, config)
            .with_supply_bank(SupplyBank::p630_scenario(1.0), 186.0)
            .without_trace();
        let report = sim.run_for(dur);
        rows.push(CascadeRow {
            policy: "fvsst".to_string(),
            cascaded_at_s: report.cascaded_at_s,
            final_power_w: report.final_power_w,
        });
    }
    // uniform scaling (also survives — it just hurts more)
    {
        let mut sim = ScheduledSimulation::with_policy(
            diverse_machine(settings),
            UniformScaling::new(),
            BudgetSchedule::constant(f64::INFINITY),
            0.01,
        )
        .with_supply_bank(SupplyBank::p630_scenario(1.0), 186.0)
        .without_trace();
        let report = sim.run_for(dur);
        rows.push(CascadeRow {
            policy: "uniform-scaling".to_string(),
            cascaded_at_s: report.cascaded_at_s,
            final_power_w: report.final_power_w,
        });
    }
    // no management: cascades
    {
        let mut sim = ScheduledSimulation::with_policy(
            diverse_machine(settings),
            NoDvfs::new(),
            BudgetSchedule::constant(f64::INFINITY),
            0.01,
        )
        .with_supply_bank(SupplyBank::p630_scenario(1.0), 186.0)
        .without_trace();
        let report = sim.run_for(dur);
        rows.push(CascadeRow {
            policy: "no-dvfs".to_string(),
            cascaded_at_s: report.cascaded_at_s,
            final_power_w: report.final_power_w,
        });
    }
    rows
}

fn run_idle(settings: &RunSettings, dur: f64) -> (f64, f64) {
    let run = |detect: bool| {
        let machine = MachineBuilder::p630().seed(settings.seed).build();
        let config = SchedulerConfig::p630().with_idle_detection(detect);
        let mut sim = ScheduledSimulation::new(machine, config).without_trace();
        sim.run_for(dur).avg_power_w
    };
    (run(true), run(false))
}

fn run_actuators(settings: &RunSettings, dur: f64) -> Vec<(String, f64, f64)> {
    let build = |kind: u8| -> Machine {
        let mut b = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(1, WorkloadSpec::synthetic(10.0, 1.0e13).looping())
            .seed(settings.seed);
        b = match kind {
            0 => b,
            1 => b.throttling(ThrottlePowerModel::AsDvfs),
            _ => b.throttling(ThrottlePowerModel::DynamicOnly),
        };
        b.build()
    };
    ["dvfs", "throttle-as-dvfs", "throttle-dynamic-only"]
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
            let mut sim = ScheduledSimulation::new(build(k as u8), config).without_trace();
            let report = sim.run_for(dur);
            (name.to_string(), report.avg_power_w, report.violation_s)
        })
        .collect()
}

/// fvsst under `config`, and `comparator` built from it, on the diverse
/// machine: each one's report.
fn against<P: Policy>(
    settings: &RunSettings,
    dur: f64,
    config: SchedulerConfig,
    comparator: impl FnOnce(usize, &SchedulerConfig) -> P,
) -> [RunReport; 2] {
    let machine = diverse_machine(settings);
    let policy = comparator(machine.num_cores(), &config);
    let (budget, t_s) = (config.budget.clone(), config.t_s);
    let mut other = ScheduledSimulation::with_policy(machine, policy, budget, t_s).without_trace();
    let mut fvsst = ScheduledSimulation::new(diverse_machine(settings), config).without_trace();
    [fvsst.run_for(dur), other.run_for(dur)]
}

fn throughput(report: &RunReport) -> f64 {
    report.body_instructions.iter().sum()
}

fn run_demotion(settings: &RunSettings, dur: f64) -> Vec<(String, f64)> {
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(250.0));
    let reports = against(settings, dur, config, RoundRobinDemotion::new);
    let names = ["least-loss", "round-robin"];
    (names.iter().zip(&reports))
        .map(|(name, r)| (name.to_string(), throughput(r)))
        .collect()
}

fn run_epsilon(settings: &RunSettings, dur: f64) -> Vec<(f64, f64, f64)> {
    [0.01, 0.02, 0.05, 0.10, 0.20]
        .iter()
        .map(|&eps| {
            let machine = diverse_machine(settings);
            let config = SchedulerConfig::p630()
                .with_epsilon(eps)
                .with_budget(BudgetSchedule::constant(f64::INFINITY));
            let mut sim = ScheduledSimulation::new(machine, config).without_trace();
            let report = sim.run_for(dur);
            (
                eps,
                report.avg_power_w,
                report.body_instructions.iter().sum::<f64>(),
            )
        })
        .collect()
}

fn run_period(settings: &RunSettings, dur: f64) -> Vec<(u32, u64, u64, f64, f64)> {
    [2u32, 5, 10, 20, 50]
        .iter()
        .map(|&n| {
            let machine = diverse_machine(settings);
            let config = SchedulerConfig::p630().with_budget(drop_budget()).with_n(n);
            let mut sim = ScheduledSimulation::new(machine, config).without_trace();
            let report = sim.run_for(dur);
            (
                n,
                report.decisions,
                report.frequency_switches,
                report.violation_s,
                report.body_instructions.iter().sum::<f64>(),
            )
        })
        .collect()
}

fn run_modes(settings: &RunSettings, dur: f64) -> Vec<(String, f64, f64)> {
    let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(f64::INFINITY));
    let reports = against(settings, dur, config, ContinuousIdeal::new);
    let names = ["discrete-epsilon", "continuous-ideal"];
    (names.iter().zip(&reports))
        .map(|(name, r)| (name.to_string(), r.avg_power_w, throughput(r)))
        .collect()
}

fn run_feedback(settings: &RunSettings, dur: f64) -> Vec<(String, f64, f64)> {
    use fvs_sched::{FeedbackGuard, FvsstScheduler};
    let build = || {
        MachineBuilder::p630()
            .throttling(ThrottlePowerModel::DynamicOnly)
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(1, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(2, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .workload(3, WorkloadSpec::synthetic(100.0, 1.0e13).looping())
            .seed(settings.seed)
            .build()
    };
    let budget = BudgetSchedule::constant(294.0);
    let mut rows = Vec::new();
    {
        let config = SchedulerConfig::p630().with_budget(budget.clone());
        let mut sim = ScheduledSimulation::new(build(), config).without_trace();
        let report = sim.run_for(dur);
        rows.push((
            "open-loop".to_string(),
            report.final_power_w,
            report.violation_s,
        ));
    }
    {
        let guard = FeedbackGuard::new(FvsstScheduler::new(4, SchedulerConfig::p630()));
        let mut sim =
            ScheduledSimulation::with_policy(build(), guard, budget, 0.01).without_trace();
        let report = sim.run_for(dur);
        rows.push((
            "feedback".to_string(),
            report.final_power_w,
            report.violation_s,
        ));
    }
    rows
}

fn run_drift(settings: &RunSettings, dur: f64) -> Vec<(f64, f64, f64)> {
    use fvs_workloads::SyntheticConfig;
    [0.0, 0.2, 0.4, 0.6]
        .iter()
        .map(|&amp| {
            let drifting = |intensity: f64| {
                SyntheticConfig::single(intensity, 5.0e7)
                    .body_only()
                    .looping()
                    .build()
                    .with_drift(amp)
            };
            let machine = MachineBuilder::p630()
                .workload(0, drifting(90.0))
                .workload(1, drifting(60.0))
                .workload(2, drifting(35.0))
                .workload(3, drifting(10.0))
                .seed(settings.seed)
                .build();
            let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(294.0));
            let mut sim = ScheduledSimulation::new(machine, config).without_trace();
            let report = sim.run_for(dur);
            let err = (0..4)
                .map(|i| sim.policy().error_stats(i).mean_abs())
                .fold(0.0f64, f64::max);
            (amp, err, report.violation_s)
        })
        .collect()
}

/// Run the whole suite.
pub fn run(settings: &RunSettings) -> AblationResult {
    let dur = if settings.fast { 2.0 } else { 5.0 };
    AblationResult {
        policies: run_policies(settings, dur),
        cascade: run_cascade(settings, dur.max(3.0)),
        idle_power_w: run_idle(settings, dur.min(2.0)),
        actuators: run_actuators(settings, dur.min(3.0)),
        demotion: run_demotion(settings, dur.min(3.0)),
        epsilon: run_epsilon(settings, dur.min(3.0)),
        period: run_period(settings, dur),
        modes: run_modes(settings, dur.min(3.0)),
        feedback: run_feedback(settings, dur.max(4.0)),
        drift: run_drift(settings, dur.min(3.0)),
    }
}

impl AblationResult {
    /// Progress of a named policy row.
    pub fn progress_of(&self, policy: &str) -> Option<f64> {
        self.policies
            .iter()
            .find(|p| p.policy == policy)
            .map(|p| p.progress)
    }

    /// Render the whole suite.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = TableBuilder::new("Ablation 1: policies under a constant 250 W budget")
            .header(["policy", "mean progress", "violation (s)", "avg power (W)"]);
        for p in &self.policies {
            t.row([
                p.policy.clone(),
                format!("{:.3}", p.progress),
                format!("{:.2}", p.violation_s),
                format!("{:.0}", p.avg_power_w),
            ]);
        }
        out.push_str(&t.render());

        let mut t = TableBuilder::new("Ablation 2: supply-failure cascade (section 2)").header([
            "policy",
            "cascaded",
            "final power (W)",
        ]);
        for c in &self.cascade {
            t.row([
                c.policy.clone(),
                c.cascaded_at_s
                    .map(|t| format!("yes @ {t:.2}s"))
                    .unwrap_or_else(|| "no".to_string()),
                format!("{:.0}", c.final_power_w),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());

        out.push_str(&format!(
            "\nAblation 3: all-idle machine average power — idle detection on: {:.0} W, off: {:.0} W\n",
            self.idle_power_w.0, self.idle_power_w.1
        ));

        let mut t = TableBuilder::new("Ablation 4: actuator under a 294 W budget").header([
            "actuator",
            "avg power (W)",
            "violation (s)",
        ]);
        for (name, p, v) in &self.actuators {
            t.row([name.clone(), format!("{p:.0}"), format!("{v:.2}")]);
        }
        out.push('\n');
        out.push_str(&t.render());

        let mut t = TableBuilder::new("Ablation 5: pass-2 demotion order @250 W")
            .header(["order", "throughput (Ginstr)"]);
        for (name, thr) in &self.demotion {
            t.row([name.clone(), format!("{:.2}", thr / 1e9)]);
        }
        out.push('\n');
        out.push_str(&t.render());

        let mut t = TableBuilder::new("Ablation 6: ε sweep (unconstrained)").header([
            "ε",
            "avg power (W)",
            "throughput (Ginstr)",
        ]);
        for (e, p, thr) in &self.epsilon {
            t.row([
                format!("{e:.2}"),
                format!("{p:.0}"),
                format!("{:.2}", thr / 1e9),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());

        let mut t = TableBuilder::new("Ablation 7: scheduling period T = n·t").header([
            "n",
            "decisions",
            "freq switches",
            "violation (s)",
            "throughput (Ginstr)",
        ]);
        for (n, d, sw, v, thr) in &self.period {
            t.row([
                format!("{n}"),
                format!("{d}"),
                format!("{sw}"),
                format!("{v:.2}"),
                format!("{:.2}", thr / 1e9),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());

        let mut t = TableBuilder::new("Ablation 8: discrete ε-scan vs continuous f_ideal")
            .header(["mode", "avg power (W)", "throughput (Ginstr)"]);
        for (name, p, thr) in &self.modes {
            t.row([name.clone(), format!("{p:.0}"), format!("{:.2}", thr / 1e9)]);
        }
        out.push('\n');
        out.push_str(&t.render());

        let mut t =
            TableBuilder::new("Ablation 9: measured-power feedback on honest throttling @294 W")
                .header(["control", "final power (W)", "violation (s)"]);
        for (name, p, v) in &self.feedback {
            t.row([name.clone(), format!("{p:.0}"), format!("{v:.2}")]);
        }
        out.push('\n');
        out.push_str(&t.render());

        let mut t = TableBuilder::new("Ablation 10: predictor robustness to workload drift")
            .header([
                "drift amplitude",
                "worst mean |ΔIPC|",
                "violation (s) @294 W",
            ]);
        for (amp, err, v) in &self.drift {
            t.row([format!("{amp:.1}"), format!("{err:.3}"), format!("{v:.2}")]);
        }
        out.push('\n');
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_suite_shape() {
        let r = run(&RunSettings::fast());

        // 1. fvsst beats uniform scaling and power-down on mean progress
        //    while meeting the budget; no-dvfs violates.
        let fvsst = r.progress_of("fvsst").unwrap();
        let uniform = r.progress_of("uniform-scaling").unwrap();
        let powerdown = r.progress_of("node-powerdown").unwrap();
        assert!(fvsst > uniform, "fvsst {fvsst} vs uniform {uniform}");
        assert!(fvsst > powerdown, "fvsst {fvsst} vs powerdown {powerdown}");
        let no_dvfs = r.policies.iter().find(|p| p.policy == "no-dvfs").unwrap();
        assert!(no_dvfs.violation_s > 0.5);
        let fvsst_row = r.policies.iter().find(|p| p.policy == "fvsst").unwrap();
        assert!(fvsst_row.violation_s < 0.1);
        // Oracle is an upper bound (within noise).
        let oracle = r.progress_of("oracle").unwrap();
        assert!(oracle >= fvsst * 0.97);

        // 2. fvsst survives the cascade; no-dvfs does not.
        let by_name = |n: &str| r.cascade.iter().find(|c| c.policy == n).unwrap();
        assert!(by_name("fvsst").cascaded_at_s.is_none());
        assert!(by_name("no-dvfs").cascaded_at_s.is_some());

        // 3. Idle detection slashes idle power.
        assert!(
            r.idle_power_w.0 < r.idle_power_w.1 * 0.25,
            "idle {:?}",
            r.idle_power_w
        );

        // 4. Dynamic-only throttling saves less power than as-DVFS.
        let p = |name: &str| r.actuators.iter().find(|(n, ..)| n == name).unwrap();
        assert!(p("throttle-dynamic-only").1 > p("throttle-as-dvfs").1);

        // 5. Least-loss demotion is at least as good as round-robin.
        assert!(r.demotion[0].1 >= r.demotion[1].1 * 0.98);

        // 6. Wider ε → lower power.
        let first = r.epsilon.first().unwrap();
        let last = r.epsilon.last().unwrap();
        assert!(last.1 < first.1, "eps power {first:?} vs {last:?}");

        // 7. Larger n → fewer decisions.
        assert!(r.period.first().unwrap().1 > r.period.last().unwrap().1);

        // 8. Both modes land on similar power (within ~15%).
        let (pd, pc) = (r.modes[0].1, r.modes[1].1);
        assert!((pd - pc).abs() / pd < 0.15, "{pd} vs {pc}");

        // 9. Open loop overshoots on honest throttling; feedback ends
        //    compliant.
        let open = r.feedback.iter().find(|(n, ..)| n == "open-loop").unwrap();
        let fb = r.feedback.iter().find(|(n, ..)| n == "feedback").unwrap();
        assert!(open.1 > 294.0, "open loop should overshoot: {}", open.1);
        assert!(fb.1 <= 294.0, "feedback final power {}", fb.1);
        assert!(fb.2 < open.2, "feedback should violate less");

        // 10. Drift raises prediction error but never budget violations.
        let err0 = r.drift.first().unwrap().1;
        let err_max = r.drift.last().unwrap().1;
        assert!(
            err_max > err0,
            "drift must raise error: {err0} vs {err_max}"
        );
        for (amp, _, v) in &r.drift {
            assert!(*v <= 0.05, "drift {amp}: violated {v}s");
        }
    }
}
