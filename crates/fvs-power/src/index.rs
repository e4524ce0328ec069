//! Per-frequency-index platform tables for the scheduler's hot path.
//!
//! Pass 2 of the scheduling algorithm demotes one frequency step at a
//! time and needs the power delta of each step. Looking power and
//! voltage up by *frequency* costs a binary search (plus interpolation)
//! per step; resolving both once per [`FrequencySet`] **index** turns
//! every step of the demotion loop into two array reads.

use crate::table::FreqPowerTable;
use crate::voltage::VoltageTable;
use fvs_model::{FreqMhz, FrequencySet};

/// Power and minimum voltage resolved at every index of a frequency set.
///
/// Rebuild with [`PowerVoltageIndex::rebuild`] whenever the platform
/// tables change; rebuilding reuses the internal storage, so a scratch
/// that holds one of these performs no allocation in steady state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerVoltageIndex {
    freqs: Vec<FreqMhz>,
    power_w: Vec<f64>,
    voltage_v: Vec<f64>,
}

impl PowerVoltageIndex {
    /// An empty index; fill with [`rebuild`](PowerVoltageIndex::rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Index built in one call (convenience for one-shot users).
    pub fn build(power: &FreqPowerTable, voltage: &VoltageTable, set: &FrequencySet) -> Self {
        let mut idx = Self::new();
        idx.rebuild(power, voltage, set);
        idx
    }

    /// Resolve power (interpolated) and minimum voltage at every setting
    /// of `set`, reusing existing storage.
    pub fn rebuild(&mut self, power: &FreqPowerTable, voltage: &VoltageTable, set: &FrequencySet) {
        self.freqs.clear();
        self.power_w.clear();
        self.voltage_v.clear();
        self.freqs.extend(set.iter());
        self.power_w
            .extend(set.iter().map(|f| power.power_interpolated(f)));
        self.voltage_v
            .extend(set.iter().map(|f| voltage.min_voltage(f)));
    }

    /// Whether this index currently mirrors `set` (same settings, same
    /// order). Power/voltage staleness is the caller's concern: rebuild
    /// whenever the platform tables may have changed.
    pub fn matches(&self, set: &FrequencySet) -> bool {
        self.freqs == set.as_slice()
    }

    /// Number of indexed settings.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True before the first `rebuild`.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// The setting at `idx`.
    #[inline]
    pub fn freq(&self, idx: usize) -> FreqMhz {
        self.freqs[idx]
    }

    /// Watts at the setting with index `idx`.
    #[inline]
    pub fn power_w(&self, idx: usize) -> f64 {
        self.power_w[idx]
    }

    /// Minimum voltage at the setting with index `idx`.
    #[inline]
    pub fn voltage_v(&self, idx: usize) -> f64 {
        self.voltage_v[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_direct_lookups() {
        let power = FreqPowerTable::p630_table1();
        let voltage = VoltageTable::p630();
        let set = power.frequency_set();
        let idx = PowerVoltageIndex::build(&power, &voltage, &set);
        assert_eq!(idx.len(), set.len());
        assert!(idx.matches(&set));
        for (i, f) in set.iter().enumerate() {
            assert_eq!(idx.freq(i), f);
            assert_eq!(idx.power_w(i), power.power_interpolated(f));
            assert_eq!(idx.voltage_v(i), voltage.min_voltage(f));
        }
    }

    /// What lets a caller read a decided slot's power from the index
    /// where it used to interpolate the decided frequency: the entry
    /// *is* `power_interpolated(set.at(k))`, to the bit — also for a set
    /// whose settings fall between the power table's.
    #[test]
    fn indexed_power_is_the_interpolated_power_bit_for_bit() {
        let voltage = VoltageTable::p630();
        let mut x = 3845u64;
        let mut draw = |below: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % below
        };
        let mut entries = vec![(FreqMhz(200), 3.0)];
        for _ in 0..23 {
            let (f, p) = entries[entries.len() - 1];
            let step = (
                FreqMhz(f.0 + 1 + draw(90) as u32),
                p + 0.1 + draw(1000) as f64 / 7.0,
            );
            entries.push(step);
        }
        let random = FreqPowerTable::new(entries).unwrap();
        let between: Vec<FreqMhz> = (0..40).map(|_| FreqMhz(150 + draw(2200) as u32)).collect();
        let between = FrequencySet::new(between).unwrap();
        for power in [FreqPowerTable::p630_table1(), random] {
            for set in [power.frequency_set(), between.clone()] {
                let idx = PowerVoltageIndex::build(&power, &voltage, &set);
                for k in 0..set.len() {
                    let direct = power.power_interpolated(set.at(k));
                    assert_eq!(idx.power_w(k).to_bits(), direct.to_bits(), "{}", set.at(k));
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_storage_and_tracks_set_changes() {
        let power = FreqPowerTable::p630_table1();
        let voltage = VoltageTable::p630();
        let full = power.frequency_set();
        let mut idx = PowerVoltageIndex::new();
        assert!(idx.is_empty());
        idx.rebuild(&power, &voltage, &full);
        let cap = idx.power_w.capacity();
        let small = FrequencySet::example_section5();
        idx.rebuild(&power, &voltage, &small);
        assert!(idx.matches(&small));
        assert!(!idx.matches(&full));
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.power_w.capacity(), cap, "storage must be reused");
    }
}
