//! Property-based tests of the power-model invariants.

use fvs_model::FreqMhz;
use fvs_power::{
    AnalyticPowerModel, BudgetEvent, BudgetSchedule, EnergyMeter, FreqPowerTable, SupplyBank,
    VoltageTable,
};
use proptest::prelude::*;

proptest! {
    /// Interpolated power is monotone in frequency and bounded by the
    /// table's endpoints.
    #[test]
    fn interpolation_monotone_and_bounded(a in 100u32..1200, b in 100u32..1200) {
        let t = FreqPowerTable::p630_table1();
        prop_assume!(a < b);
        let pa = t.power_interpolated(FreqMhz(a));
        let pb = t.power_interpolated(FreqMhz(b));
        prop_assert!(pa <= pb);
        prop_assert!(pa >= t.min_power() && pb <= t.max_power());
    }

    /// `max_freq_under` is exact: the returned frequency fits the cap and
    /// the next table step does not.
    #[test]
    fn max_freq_under_is_tight(cap in 1.0f64..200.0) {
        let t = FreqPowerTable::p630_table1();
        match t.max_freq_under(cap) {
            Some(f) => {
                prop_assert!(t.power_at(f).unwrap() <= cap);
                let set = t.frequency_set();
                if let Some(up) = set.step_up(f) {
                    prop_assert!(t.power_at(up).unwrap() > cap);
                }
            }
            None => prop_assert!(cap < t.min_power()),
        }
    }

    /// Voltage is monotone in frequency and clamped to [v_min, v_max].
    #[test]
    fn voltage_monotone_and_clamped(a in 0u32..2000, b in 0u32..2000) {
        let v = VoltageTable::p630();
        prop_assume!(a <= b);
        prop_assert!(v.min_voltage(FreqMhz(a)) <= v.min_voltage(FreqMhz(b)) + 1e-12);
        let x = v.min_voltage(FreqMhz(a));
        prop_assert!((0.7..=1.3).contains(&x));
    }

    /// Calibration of a synthetic exact CV²f+BV² table recovers its
    /// coefficients for any positive (C, B).
    #[test]
    fn calibration_identifies_exact_models(c in 1.0e-11f64..1.0e-9, b in 0.01f64..20.0) {
        let truth = AnalyticPowerModel { c, b };
        let vt = VoltageTable::p630();
        let entries: Vec<(FreqMhz, f64)> = (5..=20)
            .map(|k| {
                let f = FreqMhz(k * 50);
                (f, truth.power(f, vt.min_voltage(f)))
            })
            .collect();
        let table = FreqPowerTable::new(entries).unwrap();
        let report = AnalyticPowerModel::calibrate(&table, &vt);
        prop_assert!((report.model.c - c).abs() / c < 1e-6);
        prop_assert!((report.model.b - b).abs() / b < 1e-6);
    }

    /// Energy accounting: integral of a piecewise-constant power history
    /// equals the sum of the rectangles, and normalisation is linear.
    #[test]
    fn energy_meter_is_exact(
        segments in prop::collection::vec((0.0f64..600.0, 0.001f64..10.0), 1..20)
    ) {
        let mut m = EnergyMeter::new();
        let mut joules = 0.0;
        let mut seconds = 0.0;
        for (w, dt) in &segments {
            m.record(*w, *dt);
            joules += w * dt;
            seconds += dt;
        }
        prop_assert!((m.joules() - joules).abs() < 1e-6);
        prop_assert!((m.seconds() - seconds).abs() < 1e-9);
        let norm = m.normalised_against(140.0);
        prop_assert!((norm - joules / (140.0 * seconds)).abs() < 1e-9);
    }

    /// The budget schedule returns the latest event at or before `t`.
    #[test]
    fn budget_schedule_is_piecewise_constant(
        mut events in prop::collection::vec((0.0f64..100.0, 1.0f64..1000.0), 0..10),
        t in 0.0f64..120.0,
    ) {
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let schedule = BudgetSchedule::with_events(
            500.0,
            events
                .iter()
                .map(|(at_s, budget_w)| BudgetEvent { at_s: *at_s, budget_w: *budget_w })
                .collect(),
        );
        let expected = events
            .iter()
            .rfind(|(at, _)| *at <= t)
            .map(|(_, w)| *w)
            .unwrap_or(500.0);
        prop_assert_eq!(schedule.budget_at(t), expected);
    }

    /// Supply bank: the budget it yields is the survivors' capacity minus
    /// the rest of the system's draw, floored at zero, at every time.
    #[test]
    fn supply_budget_is_surviving_capacity_less_non_cpu(
        fail_at in 0.0f64..5.0,
        t in 0.0f64..10.0,
        non_cpu_w in 0.0f64..1000.0,
    ) {
        let budget = SupplyBank::p630_scenario(fail_at).budget(non_cpu_w);
        let surviving_w = if t < fail_at { 960.0 } else { 480.0 };
        prop_assert_eq!(budget.budget_at(t), (surviving_w - non_cpu_w).max(0.0));
    }
}
