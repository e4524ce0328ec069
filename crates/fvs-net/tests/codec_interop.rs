//! Cross-codec interop: the binary codec (`FVS2`), which every frame
//! after the handshake travels in, and the JSON codec (`FVS1`) must
//! agree on every message.
//!
//! Two layers of proof:
//!
//! 1. **Property tests** (256 cases each): any summary or command
//!    encodes under both codecs and decodes back bit-identically —
//!    same node ids, same float bit patterns including `-0.0`. For
//!    non-finite floats the codecs' documented contracts diverge and
//!    both are pinned here: binary preserves the exact NaN payload
//!    bits, JSON canonicalizes every non-finite value to quiet NaN.
//! 2. **Fuzz**: truncating or bit-flipping binary frames through the
//!    same [`FrameReader`] the transport uses never panics.

use fvs_cluster::{FrequencyCommand, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{
    decode_payload, decode_payload_binary, encode_with, FrameReader, WireCodec, WireMsg, HEADER_LEN,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Finite floats with awkward bit patterns the wire must not normalise:
/// negative zero, subnormals, and full-precision values.
fn arb_finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e6f64..1.0e6,
        Just(-0.0),
        Just(0.0),
        Just(f64::MIN_POSITIVE / 2.0), // subnormal
        Just(f64::MAX),
    ]
}

/// Non-finite floats with distinguishable payloads, to pin the codecs'
/// divergent contracts.
fn arb_nonfinite() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::from_bits(0x7ff8_dead_beef_0001)), // payload NaN
    ]
}

fn arb_freq() -> impl Strategy<Value = FreqMhz> {
    prop::sample::select(vec![250u32, 500, 650, 800, 950, 1000]).prop_map(FreqMhz)
}

fn arb_summary<F>(mk_float: fn() -> F) -> impl Strategy<Value = NodeSummary>
where
    F: Strategy<Value = f64> + 'static,
{
    (
        0usize..1024,
        mk_float(),
        prop::collection::vec(
            // (has_model, cpi0, mem, idle, freq): a hand-rolled Option
            // since the vendored proptest has no `prop::option`.
            (
                any::<bool>(),
                mk_float(),
                mk_float(),
                any::<bool>(),
                arb_freq(),
            ),
            1..9,
        ),
        mk_float(),
    )
        .prop_map(|(node, sent_at_s, procs, power_w)| NodeSummary {
            node,
            sent_at_s,
            models: procs
                .iter()
                .map(|(has, cpi0, mem, _, _)| has.then(|| CpiModel::from_components(*cpi0, *mem)))
                .collect(),
            idle: procs.iter().map(|(_, _, _, i, _)| *i).collect(),
            current: procs.iter().map(|(_, _, _, _, f)| *f).collect(),
            power_w,
        })
}

fn arb_command() -> impl Strategy<Value = FrequencyCommand> {
    (0usize..1024, prop::collection::vec(arb_freq(), 1..9))
        .prop_map(|(node, freqs)| FrequencyCommand { node, freqs })
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Decode one frame through the codec-specific payload path, the same
/// split the transport makes after reading the magic.
fn transcode(msg: &WireMsg, codec: WireCodec) -> WireMsg {
    let frame = encode_with(msg, codec).expect("encode");
    let payload = &frame[HEADER_LEN..];
    match codec {
        WireCodec::Binary => decode_payload_binary(payload).expect("binary decode"),
        WireCodec::Json => decode_payload(payload).expect("json decode"),
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Bit-exact summary equality (plain `==` is fooled by -0.0 / NaN).
fn assert_summary_bits(got: &WireMsg, want: &NodeSummary) {
    let WireMsg::Summary(got) = got else {
        panic!("kind changed in transit");
    };
    assert_eq!(got.node, want.node);
    assert!(same_bits(got.sent_at_s, want.sent_at_s));
    assert!(same_bits(got.power_w, want.power_w));
    assert_eq!(got.idle, want.idle);
    assert_eq!(got.current, want.current);
    assert_eq!(got.models.len(), want.models.len());
    for (g, w) in got.models.iter().zip(&want.models) {
        match (g, w) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert!(same_bits(g.cpi0, w.cpi0));
                assert!(same_bits(g.mem_time_per_instr, w.mem_time_per_instr));
            }
            _ => panic!("model presence changed in transit"),
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Cross-codec property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Finite summaries round-trip bit-identically under BOTH codecs.
    #[test]
    fn finite_summaries_agree_across_codecs(s in arb_summary(arb_finite)) {
        let msg = WireMsg::Summary(s.clone());
        assert_summary_bits(&transcode(&msg, WireCodec::Binary), &s);
        assert_summary_bits(&transcode(&msg, WireCodec::Json), &s);
    }

    /// Commands (the fan-out direction) agree across codecs too; their
    /// fields are integral so plain equality is exact.
    #[test]
    fn commands_agree_across_codecs(c in arb_command()) {
        let msg = WireMsg::Ceiling(c);
        prop_assert_eq!(transcode(&msg, WireCodec::Binary), msg.clone());
        prop_assert_eq!(transcode(&msg, WireCodec::Json), msg);
    }

    /// Non-finite floats: binary preserves the exact bit pattern
    /// (payload NaNs included); JSON canonicalizes every non-finite
    /// value to quiet NaN via `null`. Both outcomes are contracts —
    /// ingest validation treats any NaN the same — and this pins them.
    #[test]
    fn nonfinite_contracts_hold(s in arb_summary(arb_nonfinite)) {
        let msg = WireMsg::Summary(s.clone());
        assert_summary_bits(&transcode(&msg, WireCodec::Binary), &s);
        let WireMsg::Summary(j) = transcode(&msg, WireCodec::Json) else {
            panic!("kind changed in transit");
        };
        let json_ok = |got: f64, sent: f64| {
            if sent.is_finite() { same_bits(got, sent) } else { got.is_nan() }
        };
        prop_assert!(json_ok(j.sent_at_s, s.sent_at_s));
        prop_assert!(json_ok(j.power_w, s.power_w));
        for (g, w) in j.models.iter().zip(&s.models) {
            if let (Some(g), Some(w)) = (g, w) {
                prop_assert!(json_ok(g.cpi0, w.cpi0));
                prop_assert!(json_ok(g.mem_time_per_instr, w.mem_time_per_instr));
            }
        }
    }

    // -----------------------------------------------------------------------
    // 2. Fuzz: the binary frame path never panics
    // -----------------------------------------------------------------------

    /// Every truncation of a binary frame either waits for more bytes
    /// or errors — never panics, never fabricates a message — and the
    /// remainder completes cleanly when the prefix was accepted.
    #[test]
    fn truncated_binary_frames_never_panic(
        s in arb_summary(arb_finite),
        cut in 0usize..10_000,
    ) {
        let frame = encode_with(&WireMsg::Summary(s), WireCodec::Binary).unwrap();
        let cut = cut % frame.len();
        let mut r = FrameReader::new();
        r.feed(&frame[..cut]);
        match r.next_frame() {
            Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "message out of a truncated frame"),
            Err(_) => {}
        }
        r.feed(&frame[cut..]);
        let _ = r.next_frame();
    }

    /// Random bit flips anywhere in a binary frame — magic, length,
    /// kind, float bodies — are rejected or decode to something, but
    /// never panic and never loop. Seeded so failures replay.
    #[test]
    fn corrupt_binary_frames_never_panic(
        s in arb_summary(arb_finite),
        seed in 0u64..1_000_000,
        flips in 1usize..8,
    ) {
        let frame = encode_with(&WireMsg::Summary(s), WireCodec::Binary).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = frame.clone();
        for _ in 0..flips {
            let i = rng.gen_range(0..bad.len());
            bad[i] ^= 1 << rng.gen_range(0u32..8);
        }
        let mut r = FrameReader::new();
        r.feed(&bad);
        for _ in 0..4 {
            match r.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A frame re-tagged with the *other* codec's magic must not decode
    /// as a valid message by accident — the payload formats are
    /// disjoint enough that a mislabelled frame surfaces as an error,
    /// not silent garbage. (Empty-body frames are exempt: a zero-length
    /// payload is invalid under both codecs.)
    #[test]
    fn cross_tagged_frames_do_not_silently_decode(s in arb_summary(arb_finite)) {
        let frame = encode_with(&WireMsg::Summary(s), WireCodec::Binary).unwrap();
        // Binary payload pushed through the JSON decoder: the payload
        // starts with a kind byte (1..=4), never the '{' JSON needs.
        prop_assert!(decode_payload(&frame[HEADER_LEN..]).is_err());
    }
}
