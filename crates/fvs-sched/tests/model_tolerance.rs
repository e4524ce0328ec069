//! `ModelTolerance::same_bucket` against its definition: equal
//! `quantize` indices for finite pairs, equal bits otherwise — over the
//! pairs its division-free shortcut could get wrong. Dropping the
//! finiteness test or the quotient-range guard fails here; a margin of
//! one step instead of 1.5 would not, because it is exact too (round
//! half away from zero leaves each bucket open on its coarser side, so
//! no bucket holds quotients a full step apart) — 1.5 is the margin the
//! error bound alone proves.

use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache};
use proptest::prelude::*;

/// The steps the shapes below are drawn at: bit-exact, `PHASE_DEFAULT`'s
/// two, and one whose quotients are exact.
const STEPS: [f64; 4] = [0.0, 1.0e-13, 1.0e-4, 1.0];

/// `x` moved by `n` representable values (`0.0` and `-0.0` count as one).
fn nudge(x: f64, n: i64) -> f64 {
    let ordered = |b: i64| if b < 0 { i64::MIN - b } else { b };
    f64::from_bits(ordered(ordered(x.to_bits() as i64) + n) as u64)
}

/// The oracle: what `same_bucket` must answer, computed the slow way.
fn same_bucket_by_definition(a: f64, b: f64, step: f64) -> bool {
    if a.is_finite() && b.is_finite() {
        ModelTolerance::quantize(a, step) == ModelTolerance::quantize(b, step)
    } else {
        a.to_bits() == b.to_bits()
    }
}

/// Near the edge `(k + ½)·step` and the edges `j` quanta away, a few
/// ulps to either side, at every magnitude up to 2⁵⁵ quanta.
fn bucket_edges() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        prop::sample::select(STEPS.to_vec()),
        0.0f64..55.0,
        any::<bool>(),
        -2i64..=2,
        -4i64..=4,
        -4i64..=4,
    )
        .prop_map(|(step, log2_k, negative, j, da, db)| {
            let k = log2_k.exp2().floor() * if negative { -1.0 } else { 1.0 };
            let a = nudge((k + 0.5) * step, da);
            let b = nudge((k + 0.5 + j as f64) * step, db);
            (a, b, step)
        })
}

/// `b` 0.9–2.1 quanta from `a`, at ordinary and at 2⁴⁸–2⁵⁵-quantum
/// magnitudes, where the quotients stop being exact.
fn gaps() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        prop::sample::select(STEPS.to_vec()),
        prop_oneof![-1.0e6f64..1.0e6, (48.0f64..55.0).prop_map(f64::exp2)],
        any::<bool>(),
        0.9f64..2.1,
        any::<bool>(),
        -2i64..=2,
    )
        .prop_map(|(step, quanta, negative, gap, down, d)| {
            let a = quanta * step * if negative { -1.0 } else { 1.0 };
            let b = nudge(a + gap * step * if down { -1.0 } else { 1.0 }, d);
            (a, b, step)
        })
}

/// Signed zeros, subnormals and the smallest normals, also at steps of
/// their own size.
fn tiny() -> impl Strategy<Value = (f64, f64, f64)> {
    let value = || {
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            (1u64..1 << 52, any::<bool>())
                .prop_map(|(bits, neg)| { f64::from_bits(bits | if neg { 1 << 63 } else { 0 }) }),
            (1.0f64..4.0).prop_map(|m| m * f64::MIN_POSITIVE),
        ]
    };
    let steps = [STEPS.to_vec(), vec![f64::from_bits(3), f64::MIN_POSITIVE]].concat();
    (value(), value(), prop::sample::select(steps))
}

/// ±∞ and NaNs of either sign, beside the finite value whose bucket
/// index is their bit pattern, another non-finite, or a random finite.
fn non_finite() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        prop_oneof![
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (1u64..1 << 52, any::<bool>()).prop_map(|(payload, neg)| {
                f64::from_bits(0x7FF0_0000_0000_0000 | payload | if neg { 1 << 63 } else { 0 })
            }),
        ],
        0u8..3,
        -1.0e9f64..1.0e9,
        prop::sample::select(STEPS.to_vec()),
        any::<bool>(),
    )
        .prop_map(|(x, partner, finite, step, swap)| {
            let other = match partner {
                0 => (x.to_bits() as i64) as f64 * step,
                1 => f64::NAN,
                _ => finite,
            };
            if swap {
                (other, x, step)
            } else {
                (x, other, step)
            }
        })
}

/// A finite coefficient past `quantize`'s integer range, whose index is
/// its bit pattern, beside the finite one whose integer index is that
/// pattern: −1.7·10³⁰⁸ and an index in (−9·10¹⁵, −2⁵²). They share a
/// bucket by definition, and only the quotient-range guard keeps the
/// shortcut from calling them apart. Steps are powers of two, so the
/// partner's quotient is exact.
fn index_collisions() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        -9.0e15f64..-(2.0f64.powi(52) + 1.0),
        prop::sample::select(vec![1.0, 0.25, 2.0f64.powi(-20)]),
        any::<bool>(),
    )
        .prop_map(|(q, step, swap)| {
            let q = q.round();
            let huge = f64::from_bits(q as i64 as u64);
            let at_q = q * step;
            if swap {
                (at_q, huge, step)
            } else {
                (huge, at_q, step)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    fn same_bucket_agrees_with_quantize(
        (a, b, step) in prop_oneof![bucket_edges(), gaps(), tiny(), non_finite(), index_collisions()],
    ) {
        prop_assert_eq!(
            ModelTolerance::same_bucket(a, b, step),
            same_bucket_by_definition(a, b, step),
            "a = {:e} ({:#x}), b = {:e} ({:#x}), step = {:e}",
            a, a.to_bits(), b, b.to_bits(), step
        );
        prop_assert_eq!(
            ModelTolerance::same_bucket(a, b, step),
            ModelTolerance::same_bucket(b, a, step)
        );
    }
}

/// A finite coefficient whose bucket index is the bit pattern of a
/// non-finite one: −2⁵²·step lands on −∞'s pattern, −step on the NaN
/// with the sign and every payload bit set. A `PHASE_DEFAULT` cache fed
/// the finite model and then the non-finite one rebuilds for the
/// second, and decides what a fresh run decides.
#[test]
fn a_non_finite_coefficient_never_hits_a_finite_bucket() {
    let step = ModelTolerance::PHASE_DEFAULT.cpi0_step;
    let alg = FvsstAlgorithm::p630();
    for (finite, non_finite) in [
        (-((1u64 << 52) as f64) * step, f64::NEG_INFINITY),
        (-step, f64::from_bits(u64::MAX)),
    ] {
        assert_eq!(ModelTolerance::quantize(finite, step), non_finite.to_bits());
        let mut cache = ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT);
        for cpi0 in [finite, non_finite] {
            let p = [ProcInput {
                model: Some(CpiModel::from_components(cpi0, 1.0e-9)),
                idle: false,
                current: FreqMhz(1000),
            }];
            let fresh = alg.schedule_reference(&p, 200.0);
            let cached = alg.schedule_cached(&mut cache, &p, 200.0);
            // Debug text: the predictions may be NaN, which `==` refuses.
            assert_eq!(format!("{cached:?}"), format!("{fresh:?}"));
        }
        let s = cache.stats();
        assert_eq!(
            (s.proc_hits, s.proc_rebuilds),
            (0, 2),
            "{finite:e} then {non_finite}"
        );
    }
}
