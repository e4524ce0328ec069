//! Frequency actuation: true DVFS vs. the prototype's fetch throttling.
//!
//! The paper's hardware cannot actually scale frequency/voltage; its
//! prototype intersperses fetch cycles with dead cycles ("fetch
//! throttling") and *assumes* this yields the same power and performance
//! as real scaling, ignoring settling time. Both mechanisms are modelled
//! so that assumption is testable (ablation E-X6 in DESIGN.md). A core's
//! actuator is three columns of the machine's core bank — the requested
//! frequency and the step `(current, target, settle_at)` its effective
//! frequency follows — and one machine-wide `Actuation` supplies the
//! two rules that fill them: where and when a request settles, and what
//! a core draws.

use fvs_model::FreqMhz;
use fvs_power::{AnalyticPowerModel, FreqPowerTable, VoltageTable};
use serde::{Deserialize, Serialize};

/// How throttling is charged for power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThrottlePowerModel {
    /// The paper's assumption: throttling to an effective frequency costs
    /// the same as really scaling to it (voltage drop included).
    AsDvfs,
    /// The honest model: the clock and voltage stay at nominal; only the
    /// active (switching) component scales with the duty cycle.
    DynamicOnly,
}

/// The P630's nominal clock, which a throttled core never leaves.
const F_NOM: FreqMhz = FreqMhz(1000);

/// Duty positions of the throttle (the P630 prototype exposes
/// fine-grained control; 32 is representative).
const DUTY_STEPS: u32 = 32;

/// The duty setting a throttled request for `f` lands on: the nearest
/// step, at least 1 (a fully-dead pipeline would never retire the idle
/// loop's instructions).
fn duty(f: FreqMhz) -> u32 {
    let raw = f64::from(f.0.min(F_NOM.0)) * f64::from(DUTY_STEPS) / f64::from(F_NOM.0);
    (raw.round() as u32).clamp(1, DUTY_STEPS)
}

/// How every core of a machine turns a request into an effective
/// frequency and a power draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Actuation {
    /// True DVFS: a request runs at exactly the requested frequency from
    /// `settle_s` after it is made (PLL relock + voltage ramp), and power
    /// follows the frequency/voltage table.
    Dvfs { settle_s: f64 },
    /// Throttling, which takes effect at once on a grid of 32 duty
    /// steps, charged as if the frequency had really scaled.
    ThrottleAsDvfs,
    /// Throttling at nominal clock and voltage: `active_w` scales with
    /// the duty cycle, `static_w` does not — what throttling really saves.
    ThrottleDynamicOnly { active_w: f64, static_w: f64 },
}

impl Actuation {
    /// Throttling charged per `power_model`; `DynamicOnly` draws from the
    /// analytic model fitted to the P630 tables, whatever the machine's.
    pub(crate) fn throttle(power_model: ThrottlePowerModel) -> Self {
        if power_model == ThrottlePowerModel::AsDvfs {
            return Actuation::ThrottleAsDvfs;
        }
        let volts = VoltageTable::p630();
        let analytic = AnalyticPowerModel::calibrate(&FreqPowerTable::p630_table1(), &volts).model;
        let v_nom = volts.min_voltage(F_NOM);
        Actuation::ThrottleDynamicOnly {
            active_w: analytic.active_power(F_NOM, v_nom),
            static_w: analytic.static_power(v_nom),
        }
    }

    /// Where and when a request for `f` made at `now_s` settles: the
    /// frequency it runs at, from the instant returned on.
    pub(crate) fn lands(&self, f: FreqMhz, now_s: f64) -> (FreqMhz, f64) {
        match *self {
            Actuation::Dvfs { settle_s } => (f, now_s + settle_s),
            _ => {
                let eff = u64::from(F_NOM.0) * u64::from(duty(f)) / u64::from(DUTY_STEPS);
                (FreqMhz(eff.max(1) as u32), now_s)
            }
        }
    }

    /// Power (W) of a powered core running at `effective` after a request
    /// for `requested`.
    pub(crate) fn power_w(
        &self,
        requested: FreqMhz,
        effective: FreqMhz,
        table: &FreqPowerTable,
    ) -> f64 {
        match *self {
            Actuation::ThrottleDynamicOnly { active_w, static_w } => {
                active_w * (f64::from(duty(requested)) / f64::from(DUTY_STEPS)) + static_w
            }
            _ => table.power_interpolated(effective),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineBuilder};

    fn one_core(b: MachineBuilder) -> Machine {
        b.cores(1).build()
    }

    fn throttled(power_model: ThrottlePowerModel) -> Machine {
        one_core(MachineBuilder::p630().throttling(power_model))
    }

    #[test]
    fn dvfs_settles_after_delay() {
        let mut m = one_core(MachineBuilder::p630().dvfs_settling(0.001));
        m.step(10.0);
        m.set_frequency(0, FreqMhz(600));
        assert_eq!(m.effective_frequency(0), FreqMhz(1000), "still settling");
        m.step(0.0005);
        assert_eq!(m.effective_frequency(0), FreqMhz(1000));
        m.step(0.0005);
        assert_eq!(m.effective_frequency(0), FreqMhz(600));
        assert_eq!(m.requested_mhz()[0], 600);
    }

    #[test]
    fn dvfs_instant_is_immediate() {
        let mut m = one_core(MachineBuilder::p630());
        m.step(5.0);
        m.set_frequency(0, FreqMhz(250));
        assert_eq!(m.effective_frequency(0), FreqMhz(250));
    }

    #[test]
    fn dvfs_repeated_same_request_is_noop() {
        let mut m = one_core(MachineBuilder::p630().dvfs_settling(1.0));
        m.set_frequency(0, FreqMhz(600));
        m.step(0.5);
        // Re-requesting the in-flight target must not restart the ramp.
        m.set_frequency(0, FreqMhz(600));
        m.step(0.5);
        assert_eq!(m.effective_frequency(0), FreqMhz(600));
    }

    #[test]
    fn dvfs_power_follows_effective_frequency() {
        let mut m = one_core(MachineBuilder::p630());
        assert_eq!(m.core_power_w(0), 140.0);
        m.set_frequency(0, FreqMhz(500));
        assert_eq!(m.core_power_w(0), 35.0);
    }

    #[test]
    fn throttle_quantises_to_duty_grid() {
        let mut m = throttled(ThrottlePowerModel::AsDvfs);
        m.set_frequency(0, FreqMhz(700));
        // 700/1000 * 32 = 22.4 → 22 steps → 687.5 MHz.
        assert_eq!(m.effective_frequency(0), FreqMhz(687));
        m.set_frequency(0, FreqMhz(1000));
        assert_eq!(m.effective_frequency(0), FreqMhz(1000));
    }

    #[test]
    fn throttle_never_fully_stops() {
        let mut m = throttled(ThrottlePowerModel::AsDvfs);
        m.set_frequency(0, FreqMhz(1));
        assert!(
            m.effective_frequency(0).0 >= 31,
            "one duty step of 1 GHz / 32"
        );
    }

    #[test]
    fn dynamic_only_throttling_saves_less_power_than_dvfs() {
        let mut honest = throttled(ThrottlePowerModel::DynamicOnly);
        let mut assumed = throttled(ThrottlePowerModel::AsDvfs);
        honest.set_frequency(0, FreqMhz(500));
        assumed.set_frequency(0, FreqMhz(500));
        let p_honest = honest.core_power_w(0);
        let p_assumed = assumed.core_power_w(0);
        assert!(
            p_honest > p_assumed,
            "throttling without voltage scaling must save less: {p_honest} vs {p_assumed}"
        );
    }

    #[test]
    fn throttle_requests_above_nominal_clamp() {
        let mut m = throttled(ThrottlePowerModel::AsDvfs);
        m.set_frequency(0, FreqMhz(1500));
        assert_eq!(m.effective_frequency(0), FreqMhz(1000));
    }
}
