//! Minimum-voltage tables: `MinVoltage(f)` of Figure 3 step 3.

use fvs_model::FreqMhz;
use serde::{Deserialize, Serialize};

/// The minimum voltage that reliably drives each available frequency.
///
/// The paper's platform runs its Power4+ cores at 1.3 V at the nominal
/// 1 GHz. Voltage must scale down roughly linearly with frequency until it
/// hits the technology's minimum operating voltage. The scheduler performs
/// step 3 of Figure 3 by looking the voltage up here. (The paper notes the
/// table "may be different for each processor if there is significant
/// process variation"; every processor modelled here is nominal.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoltageTable {
    /// Frequency at which `v_max` is required.
    pub f_max: FreqMhz,
    /// Voltage at `f_max`.
    pub v_max: f64,
    /// Frequency at which `v_min` suffices.
    pub f_min: FreqMhz,
    /// Technology minimum operating voltage.
    pub v_min: f64,
}

impl VoltageTable {
    /// The P630 calibration used throughout: 1.3 V at 1 GHz scaling
    /// linearly down to 0.7 V at 250 MHz.
    pub fn p630() -> Self {
        VoltageTable {
            f_max: FreqMhz(1000),
            v_max: 1.3,
            f_min: FreqMhz(250),
            v_min: 0.7,
        }
    }

    /// `MinVoltage(f)`: linear interpolation between the calibration
    /// points, clamped to `[v_min, v_max]`.
    pub fn min_voltage(&self, f: FreqMhz) -> f64 {
        let span_f = (self.f_max.0 - self.f_min.0) as f64;
        let w = ((f.0.saturating_sub(self.f_min.0)) as f64 / span_f).clamp(0.0, 1.0);
        self.v_min + (self.v_max - self.v_min) * w
    }
}

impl Default for VoltageTable {
    fn default() -> Self {
        VoltageTable::p630()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::FrequencySet;

    #[test]
    fn endpoints_match_calibration() {
        let v = VoltageTable::p630();
        assert!((v.min_voltage(FreqMhz(1000)) - 1.3).abs() < 1e-12);
        assert!((v.min_voltage(FreqMhz(250)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_frequency() {
        let v = VoltageTable::p630();
        let set = FrequencySet::p630();
        let volts: Vec<f64> = set.iter().map(|f| v.min_voltage(f)).collect();
        for w in volts.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn clamped_outside_range() {
        let v = VoltageTable::p630();
        assert!((v.min_voltage(FreqMhz(100)) - 0.7).abs() < 1e-12);
        assert!((v.min_voltage(FreqMhz(1500)) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_linear() {
        let v = VoltageTable::p630();
        // 625 MHz is the midpoint of [250, 1000]: voltage should be 1.0 V.
        assert!((v.min_voltage(FreqMhz(625)) - 1.0).abs() < 1e-12);
    }
}
