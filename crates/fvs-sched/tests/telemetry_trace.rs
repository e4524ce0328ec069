//! End-to-end telemetry: the journal emitted by a scheduled simulation
//! is a faithful, replayable record of what the scheduler did.
//!
//! Two properties are pinned here:
//!
//! 1. **Budget-deadline accounting** — a mid-run `P_max` drop opens a
//!    compliance episode; the journal records compliance within a few
//!    scheduling rounds when `ΔT` is realistic, and counts exactly one
//!    violation when `ΔT` is impossibly small.
//! 2. **Replay** — the per-round `desired` + `demotion` events alone
//!    reconstruct the exact final [`ScheduleDecision`] frequencies, so a
//!    trace consumer never needs the scheduler's in-memory state.

use fvs_power::{BudgetEvent, BudgetSchedule};
use fvs_sched::{ScheduledSimulation, SchedulerConfig};
use fvs_sim::{MachineBuilder, ThrottlePowerModel};
use fvs_telemetry::{SchedEvent, Telemetry};
use fvs_workloads::WorkloadSpec;

/// Four CPU-bound looping cores: unconstrained draw ≈ 560 W, so a drop
/// to 294 W forces real pass-2 demotions.
fn busy_machine() -> fvs_sim::Machine {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(100.0, 1.0e13).looping());
    }
    b.build()
}

/// Same load on the honest fetch-throttling actuator: throttling cannot
/// drop the voltage, so measured power stays over the table prediction
/// and the open-loop scheduler never complies.
fn throttling_machine() -> fvs_sim::Machine {
    let mut b = MachineBuilder::p630().throttling(ThrottlePowerModel::DynamicOnly);
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(100.0, 1.0e13).looping());
    }
    b.build()
}

fn dropping_budget() -> BudgetSchedule {
    BudgetSchedule::with_events(
        f64::INFINITY,
        vec![BudgetEvent {
            at_s: 1.0,
            budget_w: 294.0,
        }],
    )
}

#[test]
fn budget_drop_reaches_compliance_within_deadline() {
    let telemetry = Telemetry::memory(65536);
    let config = SchedulerConfig::p630()
        .with_budget(dropping_budget())
        .with_telemetry(telemetry.clone())
        .with_deadline_s(1.0);
    let mut sim = ScheduledSimulation::new(busy_machine(), config).without_trace();
    sim.run_for(3.0);

    let events = telemetry.events();
    let drop = events
        .iter()
        .find_map(|e| match *e {
            SchedEvent::BudgetDrop {
                t_s,
                to_w,
                deadline_s,
                ..
            } => Some((t_s, to_w, deadline_s)),
            _ => None,
        })
        .expect("journal records the budget drop");
    assert!((drop.0 - 1.0).abs() < 0.05, "drop at {}", drop.0);
    assert_eq!(drop.1, 294.0);
    assert_eq!(drop.2, 1.0);

    let (rounds, wall_s, within) = events
        .iter()
        .find_map(|e| match *e {
            SchedEvent::BudgetCompliance {
                rounds,
                wall_s,
                within_deadline,
                ..
            } => Some((rounds, wall_s, within_deadline)),
            _ => None,
        })
        .expect("journal records compliance");
    assert!(within, "compliance should land inside ΔT = 1 s");
    // The budget-change trigger reschedules immediately; measured power
    // follows within a few dispatch ticks.
    assert!(rounds <= 10, "took {rounds} rounds");
    assert!(wall_s < 1.0, "took {wall_s} s");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, SchedEvent::BudgetViolation { .. })),
        "no violation with a realistic deadline"
    );

    // The tracker and the metrics agree with the journal.
    let tracker = sim.policy().budget_deadline();
    assert_eq!(tracker.violations(), 0);
    assert_eq!(tracker.compliances(), 1);
    let sched = telemetry.registry().expect("enabled").scoped("sched");
    assert_eq!(sched.counter("budget_violations").get(), 0);
    assert_eq!(sched.counter("budget_compliances").get(), 1);
}

#[test]
fn impossible_deadline_counts_one_violation() {
    let telemetry = Telemetry::memory(65536);
    let config = SchedulerConfig::p630()
        .with_budget(dropping_budget())
        .with_telemetry(telemetry.clone())
        // Measured power lags the decision by at least one dispatch
        // tick, so a microsecond deadline cannot be met.
        .with_deadline_s(1e-6);
    let mut sim = ScheduledSimulation::new(busy_machine(), config).without_trace();
    sim.run_for(3.0);

    let tracker = sim.policy().budget_deadline();
    assert_eq!(tracker.violations(), 1, "exactly one episode, one miss");
    // Compliance still eventually arrives — flagged as missing the
    // deadline (on this fast-settling machine the miss and the first
    // compliant sample can land together, so the journal records it as
    // a late compliance rather than a standalone violation event).
    let within = telemetry.events().iter().find_map(|e| match *e {
        SchedEvent::BudgetCompliance {
            within_deadline, ..
        } => Some(within_deadline),
        _ => None,
    });
    assert_eq!(within, Some(false));
    let sched = telemetry.registry().expect("enabled").scoped("sched");
    assert_eq!(sched.counter("budget_violations").get(), 1);
}

#[test]
fn persistent_overshoot_journals_an_explicit_violation() {
    let telemetry = Telemetry::memory(65536);
    let config = SchedulerConfig::p630()
        .with_budget(dropping_budget())
        .with_telemetry(telemetry.clone())
        .with_deadline_s(0.05);
    // Open loop on the throttling actuator: measured power stays over
    // the dropped budget well past ΔT, so the violation fires on its
    // own, ahead of any compliance.
    let mut sim = ScheduledSimulation::new(throttling_machine(), config).without_trace();
    sim.run_for(3.0);

    let events = telemetry.events();
    let violations = events
        .iter()
        .filter(|e| matches!(e, SchedEvent::BudgetViolation { .. }))
        .count();
    assert_eq!(violations, 1, "exactly one violation per episode");
    let violation_t = events
        .iter()
        .find_map(|e| match *e {
            SchedEvent::BudgetViolation { t_s, deadline_s } => {
                assert_eq!(deadline_s, 0.05);
                Some(t_s)
            }
            _ => None,
        })
        .unwrap();
    assert!(violation_t > 1.05, "fires only after ΔT: {violation_t}");
    assert!(sim.policy().budget_deadline().violations() >= 1);
    let sched = telemetry.registry().expect("enabled").scoped("sched");
    assert_eq!(
        sched.counter("budget_violations").get(),
        sim.policy().budget_deadline().violations(),
        "metric mirrors the tracker exactly"
    );
}

#[test]
fn demotion_events_replay_to_the_final_decision() {
    let telemetry = Telemetry::memory(65536);
    let config = SchedulerConfig::p630()
        .with_budget(BudgetSchedule::constant(294.0))
        .with_telemetry(telemetry.clone());
    let mut sim = ScheduledSimulation::new(busy_machine(), config).without_trace();
    sim.run_for(2.0);

    let decision = sim.policy().last_decision().expect("ran").clone();
    let events = telemetry.events();
    let last_round = events
        .iter()
        .rev()
        .find_map(|e| match *e {
            SchedEvent::RoundEnd { round, .. } => Some(round),
            _ => None,
        })
        .expect("at least one completed round");

    // Start from pass 1's ε choices, then apply pass 2's demotions in
    // journal order. Each demotion must chain off the frequency the
    // replay currently holds — the log is stepwise-consistent, not just
    // endpoint-consistent.
    let mut freqs = vec![0u32; decision.freqs.len()];
    for e in &events {
        if let SchedEvent::Desired {
            round,
            proc,
            desired_mhz,
            ..
        } = *e
        {
            if round == last_round {
                freqs[proc as usize] = desired_mhz;
            }
        }
    }
    assert!(freqs.iter().all(|&f| f > 0), "every proc has a desired");
    for e in &events {
        if let SchedEvent::Demotion {
            round,
            proc,
            from_mhz,
            to_mhz,
            ..
        } = *e
        {
            if round == last_round {
                assert_eq!(
                    freqs[proc as usize], from_mhz,
                    "demotion chain broken for proc {proc}"
                );
                freqs[proc as usize] = to_mhz;
            }
        }
    }
    let expected: Vec<u32> = decision.freqs.iter().map(|f| f.0).collect();
    assert_eq!(freqs, expected, "replay must land on the final decision");

    // And the round-end bookkeeping matches the decision itself.
    let (feasible, demotions) = events
        .iter()
        .find_map(|e| match *e {
            SchedEvent::RoundEnd {
                round,
                feasible,
                demotions,
                ..
            } if round == last_round => Some((feasible, demotions)),
            _ => None,
        })
        .expect("round end");
    assert_eq!(feasible, decision.feasible);
    assert_eq!(demotions as usize, decision.demotions);
}

/// A budget drop under an unlimited `ΔT` journals `"deadline_s":null`:
/// every line of the JSONL file is JSON, whatever the configuration.
#[test]
fn unlimited_deadline_journals_json_lines() {
    let path = std::env::temp_dir().join(format!(
        "fvs-sched-unlimited-deadline-{}.jsonl",
        std::process::id()
    ));
    let telemetry = Telemetry::jsonl(&path).expect("journal file");
    let config = SchedulerConfig::p630()
        .with_budget(dropping_budget())
        .with_telemetry(telemetry.clone())
        .with_deadline_s(f64::INFINITY);
    let mut sim = ScheduledSimulation::new(busy_machine(), config).without_trace();
    sim.run_for(1.5);
    telemetry.flush().expect("flush");

    let text = std::fs::read_to_string(&path).expect("journal written");
    let _ = std::fs::remove_file(&path);
    let mut drops = 0;
    for line in text.lines() {
        let v = serde_json::from_str(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
        if v["kind"].as_str() == Some("budget_drop") {
            drops += 1;
            assert!(v["deadline_s"].is_null(), "{line}");
        }
    }
    assert_eq!(drops, 1);
}
