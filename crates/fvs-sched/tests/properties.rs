//! Property-based tests of the simulation loop's overload clock.

use fvs_baselines::NoDvfs;
use fvs_power::{BudgetSchedule, PowerSupply, SupplyBank};
use fvs_sched::ScheduledSimulation;
use fvs_sim::MachineBuilder;
use fvs_workloads::WorkloadSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A persistent overload cascades within ΔT + one dispatch tick,
    /// never earlier than ΔT: NoDvfs draws 560 W against the 294 W a
    /// single 480 W supply leaves beside 186 W of the rest of the system.
    #[test]
    fn persistent_overload_cascades_on_deadline(tolerance in 0.1f64..2.0) {
        let t_s = 0.01;
        let mut b = MachineBuilder::p630();
        for i in 0..4 {
            b = b.workload(i, WorkloadSpec::synthetic(50.0, 1.0e12).looping());
        }
        let bank = SupplyBank::new(vec![PowerSupply::new(480.0, tolerance)], vec![]);
        let mut sim = ScheduledSimulation::with_policy(
            b.build(),
            NoDvfs::new(),
            BudgetSchedule::constant(f64::INFINITY),
            t_s,
        )
        .with_supply_bank(bank, 186.0);
        let at = sim.run_for(tolerance + 0.5).cascaded_at_s.expect("never cascaded");
        prop_assert!(at >= tolerance - 1e-9, "cascaded at {} before ΔT {}", at, tolerance);
        prop_assert!(at <= tolerance + t_s + 1e-9, "cascaded at {} after ΔT {}", at, tolerance);
    }
}
