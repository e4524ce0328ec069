//! Chaos: fault injection + graceful degradation, end to end.
//!
//! The paper's hard requirement is that `P_max` is honored within ΔT
//! even under a supply failure; this experiment checks it holds when
//! nothing else works either. Two cells, one fault plan, one seed:
//!
//! - **machine** — a 4-core P630 under fvsst with corrupted counter
//!   samples, flaky actuation, and the plan's scripted budget drop. The
//!   degradation ladder (quarantine, then a hold at `f_min`, charged,
//!   for a command that has not landed) must keep the schedule NaN-free
//!   and end compliant.
//! - **cluster** — a 4-node rack under the plan's message faults (the
//!   wire model: frames lost, doubled, delayed, corrupted or reset, a
//!   partition window) and corrupted counters, a node outage, and the
//!   same budget drop. The coordinator's heartbeat tracking must charge
//!   the silent node conservatively so the global cap holds on the
//!   survivors.
//!
//! The plan comes from `--faults` (the [`FaultPlan::parse`] grammar) and
//! the injectors are seeded from `--seed`, so a chaos run replays
//! byte-for-byte from its command line.

use crate::render::TableBuilder;
use crate::runs::RunSettings;
use fvs_faults::{FaultInjector, FaultPlan};
use fvs_net::{ClusterConfig, ClusterSim};
use fvs_power::BudgetSchedule;
use fvs_sched::{ScheduledSimulation, SchedulerConfig};
use fvs_sim::MachineBuilder;
use fvs_telemetry::Telemetry;
use fvs_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// One chaos cell: a run under the fault plan plus its degradation
/// bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Which layer the cell exercises (`machine` / `cluster`).
    pub name: String,
    /// Budget in force at the end of the run (W).
    pub budget_w: f64,
    /// Aggregate power at the end of the run (W).
    pub final_power_w: f64,
    /// Seconds over budget across the whole run (includes the allowed
    /// response window after each drop).
    pub violation_s: f64,
    /// Faults the injector actually fired.
    pub faults_injected: u64,
    /// Samples / summaries quarantined by validation.
    pub quarantined: u64,
    /// `f_min` re-issues to held processors.
    pub actuation_retries: u64,
    /// Holds at the fail-safe minimum begun: commands that had not
    /// landed.
    pub failsafe_pins: u64,
    /// Nodes presumed dead at the end of the run (cluster cell).
    pub dead_nodes: u64,
    /// Power reserved at the end (W): by the coordinator for silent
    /// nodes, by the daemon for commands that had not landed.
    pub reserved_w: f64,
    /// `final_power_w <= budget_w`: the invariant the experiment exists
    /// to check.
    pub compliant: bool,
}

/// Result of the chaos experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Seed the injectors ran with.
    pub seed: u64,
    /// The fault-plan spec (`chaos` when none was given).
    pub plan: String,
    /// Machine and cluster cells.
    pub cells: Vec<ChaosCell>,
}

fn run_machine(plan: &FaultPlan, settings: &RunSettings, telemetry: Telemetry) -> ChaosCell {
    let mut b = MachineBuilder::p630().seed(settings.seed);
    for (i, c) in [100.0, 60.0, 30.0, 10.0].iter().enumerate() {
        b = b.workload(i, WorkloadSpec::synthetic(*c, 1.0e13).looping());
    }
    let config = SchedulerConfig::p630()
        .with_budget(BudgetSchedule::constant(560.0))
        .with_telemetry(telemetry.clone());
    let mut sim = ScheduledSimulation::new(b.build(), config)
        .without_trace()
        .with_faults(FaultInjector::new(plan.clone(), settings.seed), telemetry);
    let dur = if settings.fast { 3.0 } else { 6.0 };
    let report = sim.run_for(dur);
    let budget_w = sim.budget_w();
    let sched = sim.policy();
    ChaosCell {
        name: "machine".to_string(),
        budget_w,
        final_power_w: report.final_power_w,
        violation_s: report.violation_s,
        faults_injected: sim.faults_injected(),
        quarantined: sched.quarantined_samples(),
        actuation_retries: sched.actuation_retries(),
        failsafe_pins: sched.holds(),
        dead_nodes: 0,
        reserved_w: sched.reserved_w(),
        compliant: report.final_power_w <= budget_w + 1e-9,
    }
}

fn run_cluster(plan: &FaultPlan, settings: &RunSettings, telemetry: Telemetry) -> ChaosCell {
    // 4 nodes × 4 cores; finite so the plan's drop fraction bites.
    let config = ClusterConfig::rack()
        .with_telemetry(telemetry)
        .with_budget(BudgetSchedule::constant(1600.0));
    let mut sim = ClusterSim::three_tier(4, settings.seed, config).with_faults(FaultInjector::new(
        plan.clone(),
        settings.seed.wrapping_add(1),
    ));
    let dur = if settings.fast { 3.5 } else { 7.0 };
    let report = sim.run_for(dur);
    let budget_w = plan
        .budget_drops
        .iter()
        .rfind(|d| d.at_s <= dur)
        .map_or(1600.0, |d| 1600.0 * d.factor);
    ChaosCell {
        name: "cluster".to_string(),
        budget_w,
        final_power_w: report.final_power_w,
        violation_s: report.violation_s,
        faults_injected: report.faults_injected,
        quarantined: 0,
        actuation_retries: 0,
        failsafe_pins: 0,
        dead_nodes: sim.coordinator().dead_nodes() as u64,
        reserved_w: report.reserved_w,
        compliant: report.final_power_w <= budget_w + 1e-9,
    }
}

/// Run both chaos cells under the settings' fault plan. An unparseable
/// `--faults` spec falls back to the chaos preset with a note on stderr
/// (the experiment must still produce its report).
pub fn run(settings: &RunSettings) -> ChaosResult {
    let plan = settings.fault_plan().unwrap_or_else(|e| {
        eprintln!("bad --faults spec ({e}); using the chaos preset");
        FaultPlan::chaos()
    });
    let telemetry = settings.telemetry_for("chaos");
    let cells = vec![
        run_machine(&plan, settings, telemetry.clone()),
        run_cluster(&plan, settings, telemetry),
    ];
    ChaosResult {
        seed: settings.seed,
        plan: settings
            .faults
            .clone()
            .unwrap_or_else(|| "chaos".to_string()),
        cells,
    }
}

impl ChaosResult {
    /// Render the chaos report.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(format!(
            "Chaos: budget held under plan `{}` (seed {})",
            self.plan, self.seed
        ))
        .header([
            "cell",
            "budget (W)",
            "final (W)",
            "violation (s)",
            "faults",
            "quarantined",
            "retries",
            "pins",
            "dead",
            "reserved (W)",
            "compliant",
        ]);
        for c in &self.cells {
            t.row([
                c.name.clone(),
                format!("{:.0}", c.budget_w),
                format!("{:.1}", c.final_power_w),
                format!("{:.2}", c.violation_s),
                format!("{}", c.faults_injected),
                format!("{}", c.quarantined),
                format!("{}", c.actuation_retries),
                format!("{}", c.failsafe_pins),
                format!("{}", c.dead_nodes),
                format!("{:.0}", c.reserved_w),
                if c.compliant { "yes" } else { "NO" }.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_telemetry::SchedEvent;

    #[test]
    fn chaos_cells_end_compliant_and_fault_rich() {
        let r = run(&RunSettings::fast());
        assert_eq!(r.cells.len(), 2);
        for c in &r.cells {
            assert!(c.compliant, "{} ended over budget", c.name);
            assert!(c.faults_injected > 0, "{} injected nothing", c.name);
            assert!(c.final_power_w.is_finite());
        }
        // The machine cell exercised the full degradation ladder.
        let m = &r.cells[0];
        assert!(m.quarantined > 0, "no samples quarantined");
        assert!(m.actuation_retries > 0, "no actuation retries");
    }

    /// The CI chaos-smoke contract: with the default seed and preset,
    /// the telemetry journal must contain every fault event kind — a
    /// run that silently stops exercising one degradation rung should
    /// fail here, not in a downstream grep.
    #[test]
    fn default_seed_emits_every_fault_event_kind() {
        let telemetry = Telemetry::memory(200_000);
        let settings = RunSettings::fast();
        let plan = FaultPlan::chaos();
        run_machine(&plan, &settings, telemetry.clone());
        run_cluster(&plan, &settings, telemetry.clone());
        let events = telemetry.events();
        for kind in [
            "fault_injected",
            "sample_quarantined",
            "actuation_retry",
            "node_declared_dead",
            "failsafe_pin",
        ] {
            assert!(
                events.iter().any(|e| e.kind() == kind),
                "no {kind} event in {} journal entries",
                events.len()
            );
        }
        // And the journal's fault domains span counters and actuation,
        // and the cluster's frames took the wire model's faults.
        let domains: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                SchedEvent::FaultInjected { domain, .. } => Some(domain.as_str()),
                _ => None,
            })
            .collect();
        for d in ["counter", "actuation"] {
            assert!(domains.contains(&d), "no {d}-domain fault fired");
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, SchedEvent::WireFault { injected: true, .. })),
            "no injected wire fault in the cluster cell"
        );
    }
}
