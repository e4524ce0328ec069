//! `Predictor::push_all` admits a tick's samples as a loop of
//! `Predictor::push` does, whatever the counters say.

use fvs_model::{CounterDelta, CounterWindow, MemoryLatencies};
use fvs_sched::Predictor;
use proptest::prelude::*;

/// A counter reading from anywhere on the line and off it.
fn arb_counter() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        0.0f64..1.0e10,
        -1.0e6f64..0.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
    ]
}

/// A delta, sometimes bent into IPC above 8, IPC exactly 8, or
/// instructions without cycles.
fn arb_delta() -> impl Strategy<Value = CounterDelta> {
    (
        arb_counter(),
        arb_counter(),
        arb_counter(),
        arb_counter(),
        arb_counter(),
        0u8..4,
    )
        .prop_map(
            |(instructions, cycles, l2_accesses, l3_accesses, mem_accesses, bend)| {
                let mut d = CounterDelta {
                    instructions,
                    cycles,
                    l2_accesses,
                    l3_accesses,
                    mem_accesses,
                };
                match bend {
                    0 => d.instructions = d.cycles * 9.0,
                    1 => d.instructions = d.cycles * Predictor::MAX_IPC,
                    2 => d.cycles = 0.0,
                    _ => {}
                }
                d
            },
        )
}

/// A window's sum to the bit, and its sample count.
fn bits(w: &CounterWindow) -> ([u64; 5], u32) {
    let t = w.total();
    let sum = [
        t.instructions,
        t.cycles,
        t.l2_accesses,
        t.l3_accesses,
        t.mem_accesses,
    ];
    (sum.map(f64::to_bits), w.samples())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same windows to the bit, and the same refused cores in the
    /// same order, tick after tick.
    #[test]
    fn push_all_equals_a_loop_of_push(
        ticks in prop::collection::vec(prop::collection::vec(arb_delta(), 7), 1..6),
    ) {
        let mut one = Predictor::new(7, MemoryLatencies::P630);
        let mut batch = one.clone();
        for samples in &ticks {
            let refused_one: Vec<usize> =
                (0..samples.len()).filter(|&i| !one.push(i, &samples[i])).collect();
            let mut refused_batch = Vec::new();
            batch.push_all(samples, |i| refused_batch.push(i));
            prop_assert_eq!(&refused_batch, &refused_one);
            for i in 0..samples.len() {
                prop_assert_eq!(bits(one.window(i)), bits(batch.window(i)), "core {}", i);
            }
        }
    }
}
