//! Energy accounting: integrates power over time per consumer.

use serde::{Deserialize, Serialize};

/// A trapezoid-free running energy integrator.
///
/// The simulator advances in fixed ticks during which per-core power is
/// constant, so rectangular integration is exact: each call to
/// [`EnergyMeter::record`] adds `watts × dt` joules. The paper's Table 3
/// reports energy *normalised* against a non-fvsst system running flat
/// out, which [`EnergyMeter::normalised_against`] computes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    joules: f64,
    seconds: f64,
    peak_watts: f64,
}

impl EnergyMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assemble a meter from already-integrated totals. The batched
    /// simulator accrues joules/seconds/peak in flat per-core arrays
    /// (one streaming pass per tick) and materialises a meter on demand.
    pub fn from_parts(joules: f64, seconds: f64, peak_watts: f64) -> Self {
        EnergyMeter {
            joules,
            seconds,
            peak_watts,
        }
    }

    /// Add `dt` seconds at `watts`.
    pub fn record(&mut self, watts: f64, dt: f64) {
        debug_assert!(watts >= 0.0 && dt >= 0.0);
        self.joules += watts * dt;
        self.seconds += dt;
        if watts > self.peak_watts {
            self.peak_watts = watts;
        }
    }

    /// Total energy so far (J).
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total integrated time (s).
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Highest instantaneous power seen (W).
    pub fn peak_watts(&self) -> f64 {
        self.peak_watts
    }

    /// This meter's energy as a fraction of running at `reference_watts`
    /// for the same wall-clock time — the normalisation of paper Table 3
    /// ("Energy @ …" columns, where 1.0 is a system pinned at full power).
    pub fn normalised_against(&self, reference_watts: f64) -> f64 {
        let reference = reference_watts * self.seconds;
        if reference > 0.0 {
            self.joules / reference
        } else {
            0.0
        }
    }

    /// Merge another meter into this one (e.g. summing cores into a
    /// system total). Peak is the max of per-interval sums only if the
    /// meters are time-aligned; we conservatively add peaks, which is the
    /// worst-case aggregate the power-delivery system must survive.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.joules += other.joules;
        self.seconds = self.seconds.max(other.seconds);
        self.peak_watts += other.peak_watts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_rectangles() {
        let mut m = EnergyMeter::new();
        m.record(100.0, 2.0);
        m.record(50.0, 2.0);
        assert!((m.joules() - 300.0).abs() < 1e-12);
        assert!((m.seconds() - 4.0).abs() < 1e-12);
        assert_eq!(m.peak_watts(), 100.0);
    }

    #[test]
    fn normalisation_matches_hand_calc() {
        let mut m = EnergyMeter::new();
        m.record(70.0, 10.0); // 700 J over 10 s
                              // Against a 140 W reference: 700 / 1400 = 0.5.
        assert!((m.normalised_against(140.0) - 0.5).abs() < 1e-12);
        assert_eq!(EnergyMeter::new().normalised_against(140.0), 0.0);
    }

    #[test]
    fn merge_sums_energy() {
        let mut a = EnergyMeter::new();
        a.record(10.0, 1.0);
        let mut b = EnergyMeter::new();
        b.record(20.0, 1.0);
        a.merge(&b);
        assert!((a.joules() - 30.0).abs() < 1e-12);
        assert_eq!(a.peak_watts(), 30.0);
        assert_eq!(a.seconds(), 1.0);
    }
}
