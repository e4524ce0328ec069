//! A supply failure is a budget drop: a run under a [`SupplyBank`] is a
//! run under the schedule the bank yields, and the loop's one overload
//! clock times the cascade against the bank's `ΔT`.

use fvs_baselines::NoDvfs;
use fvs_faults::{FaultInjector, FaultPlan};
use fvs_power::{BudgetSchedule, PowerSupply, SupplyBank, SupplyEvent};
use fvs_sched::ScheduledSimulation;
use fvs_sim::{Machine, MachineBuilder};
use fvs_telemetry::Telemetry;
use fvs_workloads::WorkloadSpec;

/// Processor draw of the P630 at `f_max` is 560 W; with 186 W for the
/// rest of the system, two 480 W supplies leave 774 W and one 294 W.
const NON_CPU_W: f64 = 186.0;

fn p630() -> Machine {
    let mut b = MachineBuilder::p630();
    for (i, c) in [80.0, 50.0, 20.0, 5.0].into_iter().enumerate() {
        b = b.workload(i, WorkloadSpec::synthetic(c, 1.0e12).looping());
    }
    b.build()
}

/// NoDvfs on the P630 under `bank`'s schedule and `ΔT`.
fn under(bank: SupplyBank) -> ScheduledSimulation<NoDvfs> {
    ScheduledSimulation::with_policy(
        p630(),
        NoDvfs::new(),
        BudgetSchedule::constant(f64::INFINITY),
        0.01,
    )
    .with_supply_bank(bank, NON_CPU_W)
}

/// Two P630 supplies (ΔT = 1 s) and a timeline of `(fail, restore)`
/// windows of supply 0.
fn outages(windows: &[(f64, f64)]) -> SupplyBank {
    let events = windows
        .iter()
        .flat_map(|&(down, up)| {
            [
                SupplyEvent::Fail {
                    index: 0,
                    at_s: down,
                },
                SupplyEvent::Restore { index: 0, at_s: up },
            ]
        })
        .collect();
    SupplyBank::new(vec![PowerSupply::p630_example(); 2], events)
}

#[test]
fn a_supply_run_is_a_schedule_run() {
    let bank = SupplyBank::p630_scenario(1.0);
    let mut scheduled =
        ScheduledSimulation::with_policy(p630(), NoDvfs::new(), bank.budget(NON_CPU_W), 0.01);
    let mut supplied = under(bank);
    let a = scheduled.run_for(3.0);
    let mut b = supplied.run_for(3.0);
    assert_eq!(a.cascaded_at_s, None);
    assert!(b.cascaded_at_s.is_some());
    b.cascaded_at_s = None;
    // `Debug` prints every f64 so that it reads back to the same bits.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn a_plans_drops_apply_under_a_bank() {
    let plan = FaultPlan::parse("drop=0.5@2.0").unwrap();
    let mut sim = under(SupplyBank::p630_scenario(1.0))
        .with_faults(FaultInjector::new(plan, 1), Telemetry::disabled());
    sim.run_for(1.95);
    assert_eq!(sim.budget_w(), 294.0, "the bank's failure at 1 s");
    sim.run_for(0.1);
    assert_eq!(sim.budget_w(), 774.0 * 0.5, "the plan's drop at 2 s");
}

#[test]
fn fast_response_survives() {
    // Over the budget for 0.5 s, under ΔT = 1 s.
    let report = under(outages(&[(0.0, 0.5)])).run_for(3.0);
    assert_eq!(report.cascaded_at_s, None);
    assert!(report.violation_s > 0.45);
}

#[test]
fn slow_response_cascades() {
    let mut sim = under(outages(&[(0.5, 3.0)]));
    let at = sim.run_for(2.0).cascaded_at_s.expect("overloaded past ΔT");
    // The tick the supply fails in counts whole: the overload runs from
    // its start, so the cascade comes ΔT after it, give or take a tick.
    assert!((1.49 - 1e-9..=1.51).contains(&at), "cascaded at {at}");
    // The cascade is recorded once, and stays after the supply returns.
    assert_eq!(sim.run_for(2.0).cascaded_at_s, Some(at));
}

#[test]
fn overload_clock_resets_when_load_recovers() {
    // 1.8 s over the budget in all, but never 1 s at a stretch.
    let report = under(outages(&[(0.0, 0.9), (1.0, 1.9)])).run_for(3.0);
    assert_eq!(report.cascaded_at_s, None);
    assert!(report.violation_s > 1.75);
}
