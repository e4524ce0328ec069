//! Frequency actuators: true DVFS vs. the prototype's fetch throttling.
//!
//! The paper's hardware cannot actually scale frequency/voltage; its
//! prototype intersperses fetch cycles with dead cycles ("fetch
//! throttling") and *assumes* this yields the same power and performance
//! as real scaling, ignoring settling time. Both mechanisms are modelled
//! here so that assumption is testable (ablation E-X6 in DESIGN.md):
//!
//! - [`DvfsActuator`] — changes take effect after a programmable settling
//!   delay; the effective frequency is exactly the requested setting, and
//!   power follows the frequency/voltage table.
//! - [`ThrottleActuator`] — the clock stays at `f_nom`; the duty cycle is
//!   quantised to `steps` positions, so the achievable effective
//!   frequencies form a uniform grid. Under
//!   [`ThrottlePowerModel::DynamicOnly`] the voltage cannot drop, so only
//!   active power scales — the honest model of what throttling saves.
//!   Under [`ThrottlePowerModel::AsDvfs`] power is charged as if the
//!   frequency had really scaled — the paper's assumption.

use fvs_model::FreqMhz;
use fvs_power::{AnalyticPowerModel, FreqPowerTable, VoltageTable};
use serde::{Deserialize, Serialize};

/// A frequency actuator: accepts requests, reports the effective
/// frequency and power as time advances.
pub trait Actuator: std::fmt::Debug + Send {
    /// Request a new operating point at time `now_s`.
    fn request(&mut self, freq: FreqMhz, now_s: f64);

    /// The frequency actually in effect at `now_s` (settling may make
    /// this differ from the last request).
    fn effective(&self, now_s: f64) -> FreqMhz;

    /// The most recent request.
    fn requested(&self) -> FreqMhz;

    /// Processor power (W) at `now_s`, given the platform's power table.
    fn power_w(&self, now_s: f64, table: &FreqPowerTable) -> f64;

    /// The actuator's state as a `(current, target, settle_at_s)` step
    /// function: the effective frequency is `target` from `settle_at_s`
    /// onward and `current` before. Every actuator in this crate is
    /// exactly such a step (throttling settles instantly), which is what
    /// lets the batched tick cache effective frequencies in flat arrays
    /// instead of making a virtual call per core per tick.
    fn linearize(&self) -> (FreqMhz, FreqMhz, f64);
}

/// True dynamic frequency/voltage scaling with a settling delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsActuator {
    current: FreqMhz,
    target: FreqMhz,
    /// When the in-flight transition completes.
    settle_at_s: f64,
    /// Seconds a transition takes (PLL relock + voltage ramp).
    pub settle_s: f64,
}

impl DvfsActuator {
    /// Actuator starting at `initial`, with transition time `settle_s`.
    pub fn new(initial: FreqMhz, settle_s: f64) -> Self {
        DvfsActuator {
            current: initial,
            target: initial,
            settle_at_s: 0.0,
            settle_s,
        }
    }

    /// Instantaneous transitions (idealised hardware).
    pub fn instant(initial: FreqMhz) -> Self {
        Self::new(initial, 0.0)
    }
}

impl Actuator for DvfsActuator {
    fn request(&mut self, freq: FreqMhz, now_s: f64) {
        if freq == self.target {
            return;
        }
        // Commit whatever is in effect now as the base of the new ramp.
        self.current = self.effective(now_s);
        self.target = freq;
        self.settle_at_s = now_s + self.settle_s;
    }

    fn effective(&self, now_s: f64) -> FreqMhz {
        if now_s >= self.settle_at_s {
            self.target
        } else {
            // During settling the old frequency persists (PLL relock
            // keeps the clock at the previous setting until lock).
            self.current
        }
    }

    fn requested(&self) -> FreqMhz {
        self.target
    }

    fn power_w(&self, now_s: f64, table: &FreqPowerTable) -> f64 {
        table.power_interpolated(self.effective(now_s))
    }

    fn linearize(&self) -> (FreqMhz, FreqMhz, f64) {
        (self.current, self.target, self.settle_at_s)
    }
}

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

/// Fetch-throttling actuator: duty-cycle quantised effective frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThrottleActuator {
    /// Nominal (physical) clock.
    pub f_nom: FreqMhz,
    /// Number of duty positions (the P630 prototype exposes fine-grained
    /// control; 32 is representative).
    pub steps: u32,
    /// Power accounting mode.
    pub power_model: ThrottlePowerModel,
    /// Analytic model used for `DynamicOnly` accounting.
    pub analytic: AnalyticPowerModel,
    /// Nominal voltage used for `DynamicOnly` accounting.
    pub v_nom: f64,
    duty_steps: u32,
    requested: FreqMhz,
}

impl ThrottleActuator {
    /// Throttle actuator for the P630: 1 GHz nominal, 32 duty steps,
    /// charged per the paper's as-DVFS assumption.
    pub fn p630(power_model: ThrottlePowerModel) -> Self {
        let table = FreqPowerTable::p630_table1();
        let volts = VoltageTable::p630();
        let analytic = AnalyticPowerModel::calibrate(&table, &volts).model;
        ThrottleActuator {
            f_nom: FreqMhz(1000),
            steps: 32,
            power_model,
            analytic,
            v_nom: volts.min_voltage(FreqMhz(1000)),
            duty_steps: 32,
            requested: FreqMhz(1000),
        }
    }

    /// The quantised effective frequency for the current duty setting.
    fn quantised(&self) -> FreqMhz {
        FreqMhz(
            (u64::from(self.f_nom.0) * u64::from(self.duty_steps) / u64::from(self.steps)).max(1)
                as u32,
        )
    }
}

impl Actuator for ThrottleActuator {
    fn request(&mut self, freq: FreqMhz, now_s: f64) {
        let _ = now_s; // throttling takes effect at the next fetch group
        self.requested = freq;
        let clamped = freq.0.min(self.f_nom.0);
        // Round to the nearest duty step, at least 1 (a fully-dead
        // pipeline would never retire the idle loop's instructions).
        let raw = f64::from(clamped) * f64::from(self.steps) / f64::from(self.f_nom.0);
        self.duty_steps = (raw.round() as u32).clamp(1, self.steps);
    }

    fn effective(&self, _now_s: f64) -> FreqMhz {
        self.quantised()
    }

    fn requested(&self) -> FreqMhz {
        self.requested
    }

    fn power_w(&self, now_s: f64, table: &FreqPowerTable) -> f64 {
        match self.power_model {
            ThrottlePowerModel::AsDvfs => table.power_interpolated(self.effective(now_s)),
            ThrottlePowerModel::DynamicOnly => {
                let duty = f64::from(self.duty_steps) / f64::from(self.steps);
                let active = self.analytic.active_power(self.f_nom, self.v_nom) * duty;
                active + self.analytic.static_power(self.v_nom)
            }
        }
    }

    fn linearize(&self) -> (FreqMhz, FreqMhz, f64) {
        // Throttling has no settling: the quantised setting is in effect
        // at every instant, past and future.
        let q = self.quantised();
        (q, q, f64::NEG_INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvfs_settles_after_delay() {
        let mut a = DvfsActuator::new(FreqMhz(1000), 0.001);
        a.request(FreqMhz(600), 10.0);
        assert_eq!(a.effective(10.0), FreqMhz(1000), "still settling");
        assert_eq!(a.effective(10.0005), FreqMhz(1000));
        assert_eq!(a.effective(10.001), FreqMhz(600));
        assert_eq!(a.requested(), FreqMhz(600));
    }

    #[test]
    fn dvfs_instant_is_immediate() {
        let mut a = DvfsActuator::instant(FreqMhz(1000));
        a.request(FreqMhz(250), 5.0);
        assert_eq!(a.effective(5.0), FreqMhz(250));
    }

    #[test]
    fn dvfs_repeated_same_request_is_noop() {
        let mut a = DvfsActuator::new(FreqMhz(1000), 1.0);
        a.request(FreqMhz(600), 0.0);
        // Re-requesting the in-flight target must not restart the ramp.
        a.request(FreqMhz(600), 0.5);
        assert_eq!(a.effective(1.0), FreqMhz(600));
    }

    #[test]
    fn dvfs_power_follows_effective_frequency() {
        let table = FreqPowerTable::p630_table1();
        let mut a = DvfsActuator::instant(FreqMhz(1000));
        assert_eq!(a.power_w(0.0, &table), 140.0);
        a.request(FreqMhz(500), 0.0);
        assert_eq!(a.power_w(0.0, &table), 35.0);
    }

    #[test]
    fn throttle_quantises_to_duty_grid() {
        let mut a = ThrottleActuator::p630(ThrottlePowerModel::AsDvfs);
        a.request(FreqMhz(700), 0.0);
        let eff = a.effective(0.0);
        // 700/1000 * 32 = 22.4 → 22 steps → 687.5 MHz.
        assert_eq!(eff, FreqMhz(687));
        a.request(FreqMhz(1000), 0.0);
        assert_eq!(a.effective(0.0), FreqMhz(1000));
    }

    #[test]
    fn throttle_never_fully_stops() {
        let mut a = ThrottleActuator::p630(ThrottlePowerModel::AsDvfs);
        a.request(FreqMhz(1), 0.0);
        assert!(a.effective(0.0).0 >= 31, "one duty step of 1 GHz / 32");
    }

    #[test]
    fn dynamic_only_throttling_saves_less_power_than_dvfs() {
        let table = FreqPowerTable::p630_table1();
        let mut honest = ThrottleActuator::p630(ThrottlePowerModel::DynamicOnly);
        let mut assumed = ThrottleActuator::p630(ThrottlePowerModel::AsDvfs);
        honest.request(FreqMhz(500), 0.0);
        assumed.request(FreqMhz(500), 0.0);
        let p_honest = honest.power_w(0.0, &table);
        let p_assumed = assumed.power_w(0.0, &table);
        assert!(
            p_honest > p_assumed,
            "throttling without voltage scaling must save less: {p_honest} vs {p_assumed}"
        );
    }

    #[test]
    fn throttle_requests_above_nominal_clamp() {
        let mut a = ThrottleActuator::p630(ThrottlePowerModel::AsDvfs);
        a.request(FreqMhz(1500), 0.0);
        assert_eq!(a.effective(0.0), FreqMhz(1000));
    }
}
