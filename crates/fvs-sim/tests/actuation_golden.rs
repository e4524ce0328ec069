//! Golden readings of every actuation a machine can be built with: the
//! effective frequency and the power's bit pattern after each of a fixed
//! walk of requests. The constants were read off the per-core actuator
//! objects the bank's columns replaced, so a rule that parts from their
//! arithmetic in the last bit fails here.

use fvs_model::FreqMhz;
use fvs_sim::{MachineBuilder, ThrottlePowerModel};

/// 990 MHz is 31.68 duty steps: it pins rounding to the nearest step.
const REQUESTS: [u32; 6] = [1000, 700, 500, 250, 1, 990];

/// `(effective MHz, power bits)` of a one-core machine after each
/// request and, with `settle_s`, again once that long has passed.
fn readings(b: MachineBuilder, settle_s: Option<f64>) -> Vec<(u32, u64)> {
    let mut m = b.cores(1).build();
    let mut out = Vec::new();
    let read = |m: &fvs_sim::Machine| (m.effective_frequency(0).0, m.core_power_w(0).to_bits());
    for f in REQUESTS {
        m.set_frequency(0, FreqMhz(f));
        out.push(read(&m));
        if let Some(s) = settle_s {
            m.step(s);
            out.push(read(&m));
        }
    }
    out
}

const W140: u64 = 0x4061_8000_0000_0000;
const W66: u64 = 0x4050_8000_0000_0000;
const W35: u64 = 0x4041_8000_0000_0000;
const W9: u64 = 0x4022_0000_0000_0000;
/// 136.6 W: the table interpolated at 990 MHz.
const W136: u64 = 0x4061_1333_3333_3333;

#[test]
fn every_actuation_reads_the_golden_frequencies_and_power_bits() {
    let dvfs_instant = readings(MachineBuilder::p630(), None);
    assert_eq!(
        dvfs_instant,
        [
            (1000, W140),
            (700, W66),
            (500, W35),
            (250, W9),
            (1, W9),
            (990, W136),
        ]
    );

    // Each request read before and after its 3 ms settle.
    let dvfs_settling = readings(MachineBuilder::p630().dvfs_settling(0.003), Some(0.003));
    assert_eq!(
        dvfs_settling,
        [
            (1000, W140),
            (1000, W140),
            (1000, W140),
            (700, W66),
            (700, W66),
            (500, W35),
            (500, W35),
            (250, W9),
            (250, W9),
            (1, W9),
            (1, W9),
            (990, W136),
        ]
    );

    let as_dvfs = readings(
        MachineBuilder::p630().throttling(ThrottlePowerModel::AsDvfs),
        None,
    );
    // 63.66 W: the table interpolated at 687 MHz.
    assert_eq!(
        as_dvfs,
        [
            (1000, W140),
            (687, 0x404f_d47a_e147_ae14),
            (500, W35),
            (250, W9),
            (31, W9),
            (1000, W140),
        ]
    );

    let dynamic_only = readings(
        MachineBuilder::p630().throttling(ThrottlePowerModel::DynamicOnly),
        None,
    );
    // 138.28, 95.73, 70.21, 36.18, 6.40 and again 138.28 W.
    assert_eq!(
        dynamic_only,
        [
            (1000, 0x4061_48d3_3795_461c),
            (687, 0x4057_ef00_9b47_b97b),
            (500, 0x4051_8d69_e8f2_d4a4),
            (250, 0x4042_1697_4bad_f1b6),
            (31, 0x4019_9712_b1e9_88a8),
            (1000, 0x4061_48d3_3795_461c),
        ]
    );
}
