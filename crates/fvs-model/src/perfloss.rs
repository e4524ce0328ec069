//! The `PerfLoss` metric and the per-frequency table the scheduler scans.

use crate::cpi::CpiModel;
use crate::freq::{FreqMhz, FrequencySet};
use serde::{Deserialize, Serialize};

/// Relative performance loss of running at `f` instead of the reference
/// frequency `f_ref` (normally `f_max`):
///
/// ```text
/// perf_loss(f_ref, f) = (Perf(f_ref) − Perf(f)) / Perf(f_ref)
/// ```
///
/// Positive values are losses, negative values gains. This is the
/// `PerfLoss(f_max, f_i)` the scheduler compares against `ε` in the
/// paper's Figure 3. (The paper's prose defines the metric with the
/// opposite sign — "values greater than 0 indicate a performance gain" —
/// but then requires `PerfLoss(f_max, f) < ε`, which only reads sensibly
/// with the loss-positive orientation used here; we keep loss-positive and
/// document the choice.)
#[inline]
pub fn perf_loss(model: &CpiModel, f_ref: FreqMhz, f: FreqMhz) -> f64 {
    perf_loss_from(model.perf_at(f_ref), model, f)
}

/// `perf_loss` between two arbitrary frequencies `g → f`, normalised by
/// the performance at `g`.
#[inline]
pub fn perf_loss_between(model: &CpiModel, g: FreqMhz, f: FreqMhz) -> f64 {
    perf_loss_from(model.perf_at(g), model, f)
}

/// `perf_loss` against a reference whose performance `p_ref` is already
/// known — the one place the loss is written. [`perf_loss`],
/// [`PerfLossTable::rebuild`], the scheduler's loss rows and every loss
/// a scheduling round evaluates call it, so a loss read from a table and
/// one evaluated where a round needs it agree bit for bit.
#[inline]
pub fn perf_loss_from(p_ref: f64, model: &CpiModel, f: FreqMhz) -> f64 {
    (p_ref - model.perf_at(f)) / p_ref
}

/// One row of a [`PerfLossTable`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfLossEntry {
    /// The candidate frequency.
    pub freq: FreqMhz,
    /// Predicted IPC at that frequency.
    pub ipc: f64,
    /// Predicted throughput (instructions/second).
    pub perf: f64,
    /// Loss versus the table's reference frequency (positive = slower).
    pub loss_vs_ref: f64,
}

/// Predicted IPC / performance / loss at every available frequency — the
/// data structure pass 1 of the scheduling algorithm scans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfLossTable {
    /// Reference frequency the losses are computed against (`f_max`).
    pub reference: FreqMhz,
    /// One entry per available frequency, ascending.
    pub entries: Vec<PerfLossEntry>,
}

impl PerfLossTable {
    /// Evaluate `model` at every frequency in `set`, against `set.max()`.
    pub fn build(model: &CpiModel, set: &FrequencySet) -> Self {
        let mut table = PerfLossTable {
            reference: set.max(),
            entries: Vec::with_capacity(set.len()),
        };
        table.rebuild(model, set);
        table
    }

    /// Re-evaluate this table in place for a new model (and/or set),
    /// reusing the entry storage. Allocation-free once `entries` has
    /// capacity for `set.len()` rows — the steady-state path for daemons
    /// that reschedule every window with a freshly fitted model.
    pub fn rebuild(&mut self, model: &CpiModel, set: &FrequencySet) {
        self.reference = set.max();
        let p_ref = model.perf_at(self.reference);
        self.entries.clear();
        self.entries.extend(set.iter().map(|f| PerfLossEntry {
            freq: f,
            ipc: model.ipc_at(f),
            perf: model.perf_at(f),
            loss_vs_ref: perf_loss_from(p_ref, model, f),
        }));
    }

    /// An empty placeholder table (no entries); fill with [`rebuild`].
    ///
    /// [`rebuild`]: PerfLossTable::rebuild
    pub fn placeholder() -> Self {
        PerfLossTable {
            reference: FreqMhz(1),
            entries: Vec::new(),
        }
    }

    /// Pass 1 of the paper's Figure 3: the **lowest** frequency whose
    /// predicted loss versus `f_max` is `< epsilon`. Entries are ascending,
    /// and loss is monotone non-increasing in frequency, so the first
    /// admissible entry is the answer. Falls back to `f_max` (loss 0 by
    /// construction) if no lower setting qualifies.
    pub fn epsilon_constrained(&self, epsilon: f64) -> FreqMhz {
        self.entries
            .iter()
            .find(|e| e.loss_vs_ref < epsilon)
            .map(|e| e.freq)
            .unwrap_or(self.reference)
    }

    /// Look up the entry for an exact frequency.
    pub fn entry(&self, f: FreqMhz) -> Option<&PerfLossEntry> {
        self.entries.iter().find(|e| e.freq == f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::MemoryLatencies;
    use crate::profile::AccessRates;

    fn model(mem_per_instr: f64) -> CpiModel {
        let rates = AccessRates {
            l2_per_instr: 0.0,
            l3_per_instr: 0.0,
            mem_per_instr,
        };
        CpiModel::from_components(1.0, rates.stall_time_per_instr(&MemoryLatencies::P630))
    }

    #[test]
    fn loss_at_reference_is_zero() {
        let m = model(0.01);
        assert_eq!(perf_loss(&m, FreqMhz(1000), FreqMhz(1000)), 0.0);
    }

    #[test]
    fn loss_positive_below_reference_negative_above() {
        let m = model(0.01);
        assert!(perf_loss(&m, FreqMhz(1000), FreqMhz(500)) > 0.0);
        assert!(perf_loss(&m, FreqMhz(500), FreqMhz(1000)) < 0.0);
    }

    #[test]
    fn cpu_bound_loss_is_one_to_one_with_frequency() {
        let m = CpiModel::from_components(1.0, 0.0);
        let loss = perf_loss(&m, FreqMhz(1000), FreqMhz(750));
        assert!((loss - 0.25).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_loss_is_sublinear() {
        let m = model(0.02);
        let loss = perf_loss(&m, FreqMhz(1000), FreqMhz(750));
        // 25% frequency cut must cost well under 25% for memory-bound work.
        assert!(loss < 0.10, "loss was {loss}");
    }

    #[test]
    fn table_is_ascending_and_loss_monotone() {
        let m = model(0.01);
        let set = FrequencySet::p630();
        let table = PerfLossTable::build(&m, &set);
        assert_eq!(table.entries.len(), set.len());
        for pair in table.entries.windows(2) {
            assert!(pair[0].freq < pair[1].freq);
            assert!(pair[0].loss_vs_ref >= pair[1].loss_vs_ref);
        }
        assert_eq!(table.entries.last().unwrap().loss_vs_ref, 0.0);
    }

    #[test]
    fn epsilon_constrained_picks_lowest_admissible() {
        let set = FrequencySet::p630();
        // Strongly memory-bound: big epsilon admits very low frequencies.
        let m = model(0.05);
        let table = PerfLossTable::build(&m, &set);
        let f = table.epsilon_constrained(0.05);
        assert!(f < FreqMhz(1000));
        // Check minimality: one step down must violate epsilon.
        if let Some(lower) = set.step_down(f) {
            assert!(table.entry(lower).unwrap().loss_vs_ref >= 0.05);
        }
        assert!(table.entry(f).unwrap().loss_vs_ref < 0.05);
    }

    #[test]
    fn epsilon_constrained_cpu_bound_stays_at_max() {
        let set = FrequencySet::p630();
        let m = CpiModel::from_components(1.0, 0.0);
        let table = PerfLossTable::build(&m, &set);
        assert_eq!(table.epsilon_constrained(0.02), FreqMhz(1000));
    }

    #[test]
    fn rebuild_matches_build_and_reuses_storage() {
        let set = FrequencySet::p630();
        let mut table = PerfLossTable::placeholder();
        table.rebuild(&model(0.01), &set);
        assert_eq!(table, PerfLossTable::build(&model(0.01), &set));
        let cap = table.entries.capacity();
        table.rebuild(&model(0.03), &set);
        assert_eq!(table, PerfLossTable::build(&model(0.03), &set));
        assert_eq!(table.entries.capacity(), cap, "storage must be reused");
    }
}
