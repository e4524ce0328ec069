//! Property tests for the wire codec: arbitrary summaries and commands
//! round-trip bit-identically, no amount of truncation or byte
//! corruption — including the structured corruption streams of
//! fvs-faults — makes the decoder panic, and a stream of frames decodes
//! the same however it is cut up and whichever way it reaches the
//! reader.

use fvs_cluster::{FrequencyCommand, NodeSummary};
use fvs_faults::{apply_counter_fault, CounterFaultKind, FaultInjector, FaultPlan};
use fvs_model::{CounterDelta, CpiModel, FreqMhz};
use fvs_net::{
    decode_payload, encode, encode_with, Frame, FrameReader, FvsError, WireCodec, WireMsg,
    CODEC_ALL, HEADER_LEN, MAGIC, MAGIC_V2, MAX_FRAME_LEN, SCHEMA_VERSION,
};
use fvs_telemetry::WireFaultKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read};
use std::sync::OnceLock;

mod cursor_oracle;

fn arb_model() -> impl Strategy<Value = Option<CpiModel>> {
    (0.1f64..10.0, 0.0f64..50.0e-9, any::<bool>())
        .prop_map(|(cpi0, m, has)| has.then(|| CpiModel::from_components(cpi0, m)))
}

fn arb_freq() -> impl Strategy<Value = FreqMhz> {
    prop::sample::select(vec![250u32, 500, 650, 800, 950, 1000]).prop_map(FreqMhz)
}

fn arb_summary() -> impl Strategy<Value = NodeSummary> {
    (
        0usize..64,
        0.0f64..1.0e4,
        prop::collection::vec((arb_model(), any::<bool>(), arb_freq()), 1..9),
        0.0f64..5000.0,
    )
        .prop_map(|(node, sent_at_s, procs, power_w)| {
            let models = procs.iter().map(|(m, _, _)| *m).collect();
            let idle = procs.iter().map(|(_, i, _)| *i).collect();
            let current = procs.iter().map(|(_, _, f)| *f).collect();
            NodeSummary {
                node,
                sent_at_s,
                models,
                idle,
                current,
                power_w,
            }
        })
}

fn arb_command() -> impl Strategy<Value = FrequencyCommand> {
    (0usize..64, prop::collection::vec(arb_freq(), 1..9))
        .prop_map(|(node, freqs)| FrequencyCommand { node, freqs })
}

fn decode_one(frame: &[u8]) -> WireMsg {
    let mut r = FrameReader::new();
    r.feed(frame);
    r.next_frame()
        .expect("clean frame decodes")
        .expect("complete frame yields a message")
}

/// Bit-identical equality for the float fields (plain `==` would be
/// fooled by -0.0 and would reject NaN; the wire must preserve bits of
/// every finite value exactly).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → frame → decode is the identity on summaries, down to
    /// the float bit patterns.
    #[test]
    fn summary_round_trips_bit_identical(s in arb_summary()) {
        let msg = WireMsg::Summary(s.clone());
        let back = decode_one(&encode(&msg).unwrap());
        let WireMsg::Summary(b) = back else { panic!("wrong kind") };
        prop_assert_eq!(b.node, s.node);
        prop_assert!(same_bits(b.sent_at_s, s.sent_at_s));
        prop_assert!(same_bits(b.power_w, s.power_w));
        prop_assert_eq!(&b.idle, &s.idle);
        prop_assert_eq!(&b.current, &s.current);
        prop_assert_eq!(b.models.len(), s.models.len());
        for (bm, sm) in b.models.iter().zip(&s.models) {
            match (bm, sm) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    prop_assert!(same_bits(x.cpi0, y.cpi0));
                    prop_assert!(same_bits(x.mem_time_per_instr, y.mem_time_per_instr));
                }
                _ => prop_assert!(false, "model presence changed in transit"),
            }
        }
    }

    /// encode → frame → decode is the identity on commands.
    #[test]
    fn command_round_trips(c in arb_command()) {
        let msg = WireMsg::Ceiling(c);
        let back = decode_one(&encode(&msg).unwrap());
        prop_assert_eq!(back, msg);
    }

    /// Every truncation of a valid frame either waits for more bytes or
    /// errors — never panics, never fabricates a message.
    #[test]
    fn truncated_frames_never_panic(s in arb_summary(), cut in 0usize..10_000) {
        let frame = encode(&WireMsg::Summary(s)).unwrap();
        let cut = cut % frame.len();
        let mut r = FrameReader::new();
        r.feed(&frame[..cut]);
        match r.next_frame() {
            Ok(None) => {}       // waiting for the rest
            Ok(Some(_)) => prop_assert!(false, "message out of a truncated frame"),
            Err(_) => {}         // header happened to be cut mid-magic: fine
        }
        // Feeding the remainder completes the frame cleanly when the
        // reader did not reject the prefix.
        r.feed(&frame[cut..]);
        let _ = r.next_frame();
    }

    /// Random byte flips anywhere in the frame are rejected or decode
    /// to *something* — but never panic. Uses a seeded RNG so failures
    /// replay.
    #[test]
    fn corrupt_frames_never_panic(s in arb_summary(), seed in 0u64..1_000_000, flips in 1usize..8) {
        let frame = encode(&WireMsg::Summary(s)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = frame.clone();
        for _ in 0..flips {
            let i = rng.gen_range(0..bad.len());
            bad[i] ^= 1 << rng.gen_range(0u32..8);
        }
        let mut r = FrameReader::new();
        r.feed(&bad);
        // Drain until the reader is done or errors; any outcome but a
        // panic is acceptable.
        for _ in 0..4 {
            match r.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Summaries whose counters went through the fvs-faults corruption
    /// stream (NaN / spike / stuck / stale deltas feeding the models)
    /// still encode and decode without panicking: the codec is
    /// corruption-agnostic, and validation stays the coordinator's job.
    #[test]
    fn fault_corrupted_summaries_transit_safely(s in arb_summary(), seed in 0u64..100_000) {
        let plan = FaultPlan {
            counter_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, seed);
        let mut s = s;
        let prev = CounterDelta::default();
        for slot in s.models.iter_mut() {
            if let Some(kind) = inj.counter_fault() {
                // Drive the model through a corrupted delta the same way
                // a faulty node would: NaN deltas produce NaN models.
                let mut delta = CounterDelta {
                    instructions: 1.0e6,
                    cycles: 2.0e6,
                    ..prev
                };
                apply_counter_fault(kind, &mut delta, &prev);
                if matches!(kind, CounterFaultKind::Nan) {
                    *slot = Some(CpiModel::from_components(delta.cycles, 0.0));
                }
            }
        }
        // Also corrupt the scalar fields the way a broken sensor would.
        if seed % 3 == 0 { s.power_w = f64::NAN; }
        if seed % 5 == 0 { s.sent_at_s = f64::INFINITY; }
        let frame = encode(&WireMsg::Summary(s)).unwrap();
        let decoded = decode_one(&frame);
        prop_assert!(matches!(decoded, WireMsg::Summary(_)));
    }

    /// A corrupt length prefix can claim any size; the reader must
    /// reject oversized claims before allocating and never panic on
    /// undersized ones.
    #[test]
    fn corrupt_length_prefix_is_safe(s in arb_summary(), len_bits in any::<u32>()) {
        let mut frame = encode(&WireMsg::Summary(s)).unwrap();
        frame[4..HEADER_LEN].copy_from_slice(&len_bits.to_be_bytes());
        let mut r = FrameReader::new();
        r.feed(&frame);
        match r.next_frame() {
            Ok(None) => {}      // claims more bytes than fed: waits forever, caller's timeout handles it
            Ok(Some(_)) => {}   // claimed a shorter-but-valid JSON prefix: implausible but harmless
            Err(_) => {}        // oversized or garbled: rejected
        }
    }
}

// --- Reader equivalence ---------------------------------------------------
//
// The reference is the simplest reader there is: a fresh `FrameReader`
// fed exactly one frame. A stream of those frames, cut at arbitrary
// byte boundaries and delivered through `feed` or read in place through
// `read_from`, and parsed by `next_frame` or by the lending `next_lent`, must
// yield the same messages (bit for bit) and errors in the same order,
// the same fault classification after each, and a `pending()` that
// accounts for every byte.

type Faults = (Option<WireFaultKind>, u32, u8);

fn faults(r: &FrameReader) -> Faults {
    (r.last_fault(), r.last_fault_len(), r.last_fault_codec())
}

/// What a reader reports for one call of `next_frame`: the message or
/// the error text, and the classification it left behind.
type Outcome = (Result<WireMsg, String>, Faults);

/// Decode `frame` on its own.
fn alone(frame: &[u8]) -> Outcome {
    let mut r = FrameReader::new();
    r.feed(frame);
    let result = match r.next_frame() {
        Ok(Some(msg)) => Ok(msg),
        Ok(None) => panic!("a whole frame is not a partial one"),
        Err(e) => Err(e.to_string()),
    };
    (result, faults(&r))
}

/// Whether the reader consumed the frame it reported on: bad magic and
/// an oversize length leave the stream where it was (and every later
/// call repeats the error), everything else moves past the frame.
fn consumed(outcome: &Outcome) -> bool {
    !matches!(
        outcome.1 .0,
        Some(WireFaultKind::BadMagic | WireFaultKind::Oversize)
    )
}

/// A `Read` that hands its bytes out in arbitrary short reads.
struct ShortReads<'a> {
    data: &'a [u8],
    sizes: StdRng,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let most = buf.len().min(self.data.len());
        // A read of zero bytes means EOF, so at least one while any are left.
        let n = most.min(self.sizes.gen_range(1usize..=4096));
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// How a path takes one frame off a reader.
type Parse = fn(&mut FrameReader) -> Result<Option<WireMsg>, FvsError>;

/// The lending call, its summary copied out of the reader's record: the
/// record keeps its vectors, and the next summary decodes into them.
fn lend(r: &mut FrameReader) -> Result<Option<WireMsg>, FvsError> {
    Ok(r.next_lent()?.map(|frame| match frame {
        Frame::Summary(summary) => WireMsg::Summary(summary.clone()),
        Frame::Msg(WireMsg::Summary(_)) => panic!("a summary is lent, never moved"),
        Frame::Msg(msg) => msg,
    }))
}

/// The bits of every float `msg` carries: equal messages with equal
/// bits agree bit for bit, NaN payloads and signed zeros included.
fn float_bits(msg: &Result<WireMsg, String>) -> Vec<u64> {
    let Ok(WireMsg::Summary(s)) = msg else {
        return Vec::new();
    };
    let models = s.models.iter().flatten();
    [s.sent_at_s, s.power_w]
        .into_iter()
        .chain(models.flat_map(|m| [m.cpi0, m.mem_time_per_instr]))
        .map(f64::to_bits)
        .collect()
}

/// Drain `r` by `parse` against `expected[*next..]`, checking each
/// outcome, the classification left after it, and that `pending()` is
/// exactly what was delivered minus what was consumed.
fn drain(
    r: &mut FrameReader,
    parse: Parse,
    frames: &[Vec<u8>],
    expected: &[Outcome],
    next: &mut usize,
    delivered: usize,
    taken: &mut usize,
) -> Result<(), TestCaseError> {
    loop {
        let before = faults(r);
        let got = match parse(r) {
            Ok(None) => {
                prop_assert_eq!(faults(r), before, "waiting for bytes changed the fault");
                prop_assert_eq!(r.pending(), delivered - *taken);
                return Ok(());
            }
            Ok(Some(msg)) => Ok(msg),
            Err(e) => Err(e.to_string()),
        };
        prop_assert!(*next < expected.len(), "a frame nobody sent: {:?}", got);
        let want = &expected[*next];
        prop_assert_eq!(&got, &want.0, "frame {}", *next);
        prop_assert_eq!(float_bits(&got), float_bits(&want.0), "frame {}", *next);
        prop_assert_eq!(faults(r), want.1, "fault after frame {}", *next);
        if !consumed(want) {
            // The stream is stuck on this frame, as it must be.
            prop_assert_eq!(r.pending(), delivered - *taken);
            return Ok(());
        }
        *taken += frames[*next].len();
        *next += 1;
        prop_assert_eq!(r.pending(), delivered - *taken);
    }
}

/// Deliver `stream` every way and hold each against `expected`.
fn check_every_path(
    frames: &[Vec<u8>],
    expected: &[Outcome],
    seed: u64,
) -> Result<(), TestCaseError> {
    let stream: Vec<u8> = frames.concat();
    // The last frame may be one the reader refuses without consuming.
    let whole = expected.iter().take_while(|o| consumed(o)).count();
    let mut cuts = StdRng::seed_from_u64(seed);

    // Through `feed`, cut at arbitrary byte boundaries, parsed by each
    // call.
    for (path, parse) in [
        ("feed", FrameReader::next_frame as Parse),
        ("next_lent", lend),
    ] {
        let mut r = FrameReader::new();
        let (mut next, mut taken, mut delivered) = (0, 0, 0);
        while delivered < stream.len() {
            let n = cuts.gen_range(1..=(stream.len() - delivered).min(3000));
            r.feed(&stream[delivered..delivered + n]);
            delivered += n;
            drain(
                &mut r, parse, frames, expected, &mut next, delivered, &mut taken,
            )?;
        }
        prop_assert_eq!(next, whole, "{}: frames left undecoded", path);
    }

    // Read in place from a source that returns arbitrary short reads,
    // under arbitrary limits.
    let mut r = FrameReader::new();
    let mut src = ShortReads {
        data: &stream,
        sizes: StdRng::seed_from_u64(seed ^ 0x5eed),
    };
    let (mut next, mut taken, mut delivered) = (0, 0, 0);
    loop {
        let limit = cuts.gen_range(1usize..=70_000);
        let n = r.read_from(&mut src, limit).unwrap();
        prop_assert!(n <= limit);
        if n == 0 {
            break;
        }
        delivered += n;
        drain(
            &mut r,
            FrameReader::next_frame,
            frames,
            expected,
            &mut next,
            delivered,
            &mut taken,
        )?;
    }
    prop_assert_eq!(delivered, stream.len(), "read_from: bytes lost");
    prop_assert_eq!(next, whole, "read_from: frames left undecoded");
    Ok(())
}

/// A valid JSON ceiling a few bytes short of `MAX_FRAME_LEN`, built once.
fn near_max_frame() -> &'static Vec<u8> {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| {
        // "1000," is five bytes a frequency; the envelope is under 100.
        let freqs = vec![FreqMhz(1000); (MAX_FRAME_LEN - 100) / 5];
        let frame = encode(&WireMsg::Ceiling(FrequencyCommand { node: 1, freqs })).unwrap();
        assert!(frame.len() > MAX_FRAME_LEN - 200 && frame.len() <= HEADER_LEN + MAX_FRAME_LEN);
        frame
    })
}

fn arb_msg() -> impl Strategy<Value = WireMsg> {
    (
        0u8..6,
        arb_summary(),
        arb_command(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(kind, summary, command, n, flag)| match kind {
            0 => WireMsg::Hello {
                node: (n % 10_000) as usize,
                procs: (n % 64) as usize,
                version: SCHEMA_VERSION,
                last_epoch: n >> 32,
                codecs: CODEC_ALL,
            },
            1 => WireMsg::HelloAck {
                accepted: flag,
                version: SCHEMA_VERSION,
                epoch: n >> 32,
                codec: WireCodec::Binary.id(),
            },
            2 => WireMsg::Summary(summary),
            3 => WireMsg::Ceiling(command),
            4 => WireMsg::Bye {
                node: (n % 10_000) as usize,
            },
            _ => WireMsg::Heartbeat { epoch: n },
        })
}

/// How one frame of the stream is spoiled, if at all.
fn spoil(frame: &mut Vec<u8>, how: u8, at: usize) {
    let payload = frame.len() - HEADER_LEN;
    match how {
        // Sound framing, broken payload: an unknown kind byte or broken
        // JSON. The reader reports it and carries on with the next frame.
        0 => frame[HEADER_LEN] = 0xEE,
        // A payload cut short, with the length prefix saying so.
        1 => {
            let keep = at % payload;
            frame.truncate(HEADER_LEN + keep);
            frame[4..HEADER_LEN].copy_from_slice(&(keep as u32).to_be_bytes());
        }
        // One flipped bit somewhere in the payload.
        2 => frame[HEADER_LEN + at % payload] ^= 0x10,
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random sequences of frames — both codecs, every kind, payload-
    /// corrupt frames in between, now and then one near `MAX_FRAME_LEN`,
    /// sometimes ending in a frame the reader must refuse — decode the
    /// same through `feed`, through `read_from`, through the lending
    /// `next_lent`, and one frame at a time.
    #[test]
    fn reader_paths_agree_with_frame_at_a_time_decoding(
        specs in prop::collection::vec((arb_msg(), any::<bool>(), 0u8..8, any::<u16>()), 1..24),
        big_at in 0usize..200,
        ending in 0u8..6,
        seed in any::<u64>(),
    ) {
        let mut frames: Vec<Vec<u8>> = specs
            .iter()
            .map(|(msg, binary, how, at)| {
                let codec = if *binary { WireCodec::Binary } else { WireCodec::Json };
                let mut frame = encode_with(msg, codec).unwrap();
                spoil(&mut frame, *how, usize::from(*at));
                frame
            })
            .collect();
        if big_at < frames.len() {
            frames.insert(big_at, near_max_frame().clone());
        }
        match ending {
            0 => frames.push(b"FVS3\0\0\0\x04oops".to_vec()),
            1 => {
                let mut header = MAGIC_V2.to_vec();
                header.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
                frames.push(header);
            }
            _ => {}
        }
        let expected: Vec<Outcome> = frames.iter().map(|f| alone(f)).collect();
        check_every_path(&frames, &expected, seed)?;
    }
}

/// Binary four-processor summary frames for nodes `0..n`, 119 bytes
/// each: no two alike, so bytes left where they were by a compaction
/// that should have moved them decode as the wrong node.
fn summary_frames(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|node| {
            let s = NodeSummary {
                node,
                sent_at_s: node as f64,
                models: vec![Some(CpiModel::from_components(1.5, 2.0e-9)); 4],
                idle: vec![false; 4],
                current: vec![FreqMhz(1000); 4],
                power_w: 300.0 + node as f64,
            };
            let frame = encode_with(&WireMsg::Summary(s), WireCodec::Binary).unwrap();
            assert_eq!(
                frame.len(),
                119,
                "the tests' arithmetic assumes this layout"
            );
            frame
        })
        .collect()
}

/// Parse what `r` holds, checking each message against its frame alone.
fn parse_in_order(r: &mut FrameReader, frames: &[Vec<u8>], next: &mut usize) {
    while let Some(msg) = r.next_frame().unwrap() {
        assert_eq!(Ok(msg), alone(&frames[*next]).0, "frame {next}");
        *next += 1;
    }
}

/// A frame cut in two by the end of the storage: the first read fills
/// the reader's 1 KiB exactly, the frames in it are parsed, and the next
/// read has to move the unfinished one to the front before completing
/// it — without growing, since compaction made the room.
#[test]
fn a_partial_frame_straddling_a_compaction_decodes() {
    let frames = summary_frames(20);
    let stream = frames.concat();
    let mut src: &[u8] = &stream;
    let mut r = FrameReader::new();
    let mut next = 0;

    assert_eq!(r.read_from(&mut src, usize::MAX).unwrap(), 1024);
    assert_eq!(r.capacity(), 1024);
    parse_in_order(&mut r, &frames, &mut next);
    assert_eq!(next, 1024 / 119);
    assert_eq!(
        r.pending(),
        1024 % 119,
        "the ninth frame is cut by the storage"
    );

    while r.read_from(&mut src, usize::MAX).unwrap() > 0 {
        parse_in_order(&mut r, &frames, &mut next);
    }
    assert_eq!(next, 20);
    assert_eq!(r.pending(), 0);
    assert_eq!(
        r.capacity(),
        1024,
        "a read that left room must not grow the storage"
    );
}

/// The same cut, but what follows the straddling frame is not a frame:
/// the error and its classification are those of the bad bytes alone.
#[test]
fn a_bad_magic_right_after_a_compaction_is_classified() {
    let frames = summary_frames(9);
    let bad = b"GET / HTTP/1.1\r\n".to_vec();
    assert_ne!(&bad[..4], &MAGIC);
    let stream = [frames.concat(), bad.clone()].concat();
    let mut src: &[u8] = &stream;
    let mut r = FrameReader::new();
    let mut next = 0;

    assert_eq!(r.read_from(&mut src, usize::MAX).unwrap(), 1024);
    parse_in_order(&mut r, &frames, &mut next);
    assert_eq!(next, 8);
    assert!(r.read_from(&mut src, usize::MAX).unwrap() > 0);
    let straddling = r.next_frame().unwrap().expect("the straddling frame");
    assert_eq!(Ok(straddling), alone(&frames[8]).0);

    let want = alone(&bad);
    assert_eq!(Err(r.next_frame().unwrap_err().to_string()), want.0);
    assert_eq!(faults(&r), (Some(WireFaultKind::BadMagic), 0, 0));
    assert_eq!(faults(&r), want.1);
    assert_eq!(r.pending(), bad.len(), "a refused frame is not consumed");
}

/// The codec byte of a JSON ack and the codec mask of a JSON hello are
/// bytes: a larger number is a decode error, never narrowed into one
/// (`"codecs": 258` would read as `0b10`, an `FVS2` reader).
#[test]
fn out_of_range_codec_bytes_in_a_json_handshake_do_not_decode() {
    let binary = WireCodec::Binary.id();
    let hello = WireMsg::Hello {
        node: 1,
        procs: 4,
        version: SCHEMA_VERSION,
        last_epoch: 0,
        codecs: CODEC_ALL,
    };
    let ack = WireMsg::HelloAck {
        accepted: true,
        version: SCHEMA_VERSION,
        epoch: 1,
        codec: binary,
    };
    for (msg, field, byte) in [(hello, "codecs", CODEC_ALL), (ack, "codec", binary)] {
        let frame = encode(&msg).unwrap();
        let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
        let exact = format!("\"{field}\":{byte}");
        assert!(text.contains(&exact), "{text}");
        for (value, decodes) in [(255, true), (258, false), (u64::MAX, false)] {
            let payload = text.replace(&exact, &format!("\"{field}\":{value}"));
            let decoded = decode_payload(payload.as_bytes());
            assert_eq!(decoded.is_ok(), decodes, "{payload}: {decoded:?}");
        }
    }
}

// --- The cursor decoder as oracle -----------------------------------------
//
// The fixed-offset `FVS2` decoder must accept exactly what the cursor
// decoder it replaced accepted, and decode it to the same values bit for
// bit: valid payloads of every kind, every truncation of them, random
// byte flips in them, and random bytes.

/// Floats the wire must carry untouched: payload NaNs, both infinities,
/// negative zero, and arbitrary bit patterns.
fn arb_bits_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_dead_beef_0001)),
        Just(f64::from_bits(0xfff0_0000_0000_0001)),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn arb_binary_msg() -> impl Strategy<Value = WireMsg> {
    let procs = prop::collection::vec(
        (
            any::<bool>(),
            arb_bits_f64(),
            arb_bits_f64(),
            any::<bool>(),
            any::<u32>(),
        ),
        0..=64,
    );
    (
        0u8..6,
        any::<u64>(),
        any::<u64>(),
        (arb_bits_f64(), arb_bits_f64()),
        procs,
        any::<u32>(),
        any::<u8>(),
    )
        .prop_map(|(kind, a, b, (sent_at_s, power_w), procs, v, byte)| {
            let node = a as usize;
            match kind {
                0 => WireMsg::Hello {
                    node,
                    procs: b as usize,
                    version: v,
                    last_epoch: a ^ b,
                    codecs: byte,
                },
                1 => WireMsg::HelloAck {
                    accepted: byte & 1 == 1,
                    version: v,
                    epoch: b,
                    codec: byte,
                },
                2 => WireMsg::Summary(NodeSummary {
                    node,
                    sent_at_s,
                    models: procs
                        .iter()
                        .map(|&(has, cpi0, mem, _, _)| {
                            has.then_some(CpiModel {
                                cpi0,
                                mem_time_per_instr: mem,
                            })
                        })
                        .collect(),
                    idle: procs.iter().map(|p| p.3).collect(),
                    current: procs.iter().map(|p| FreqMhz(p.4)).collect(),
                    power_w,
                }),
                3 => WireMsg::Ceiling(FrequencyCommand {
                    node,
                    freqs: procs.iter().map(|p| FreqMhz(p.4)).collect(),
                }),
                4 => WireMsg::Bye { node },
                _ => WireMsg::Heartbeat { epoch: b },
            }
        })
}

/// Every field of `msg` as bits, floats by `f64::to_bits`.
fn fields_as_bits(msg: &WireMsg) -> Vec<u64> {
    let kinds = [
        "hello",
        "hello_ack",
        "summary",
        "ceiling",
        "bye",
        "heartbeat",
    ];
    let mut out = vec![kinds.iter().position(|k| *k == msg.kind()).unwrap() as u64];
    match msg {
        WireMsg::Hello {
            node,
            procs,
            version,
            last_epoch,
            codecs,
        } => out.extend([
            *node as u64,
            *procs as u64,
            u64::from(*version),
            *last_epoch,
            u64::from(*codecs),
        ]),
        WireMsg::HelloAck {
            accepted,
            version,
            epoch,
            codec,
        } => out.extend([
            u64::from(*accepted),
            u64::from(*version),
            *epoch,
            u64::from(*codec),
        ]),
        WireMsg::Summary(s) => {
            out.extend([
                s.node as u64,
                s.sent_at_s.to_bits(),
                s.power_w.to_bits(),
                s.models.len() as u64,
                s.idle.len() as u64,
                s.current.len() as u64,
            ]);
            for m in &s.models {
                match m {
                    Some(m) => out.extend([1, m.cpi0.to_bits(), m.mem_time_per_instr.to_bits()]),
                    None => out.push(0),
                }
            }
            out.extend(s.idle.iter().map(|&i| u64::from(i)));
            out.extend(s.current.iter().map(|f| u64::from(f.0)));
        }
        WireMsg::Ceiling(c) => {
            out.extend([c.node as u64, c.freqs.len() as u64]);
            out.extend(c.freqs.iter().map(|f| u64::from(f.0)));
        }
        WireMsg::Bye { node } => out.push(*node as u64),
        WireMsg::Heartbeat { epoch } => out.push(*epoch),
    }
    out
}

/// Both decoders on `payload`: the same verdict, the same bits.
fn agree(payload: &[u8]) -> Result<(), TestCaseError> {
    let product = fvs_net::decode_payload_binary(payload);
    let oracle = cursor_oracle::decode_payload_binary(payload);
    match (&product, &oracle) {
        (Ok(p), Ok(o)) => prop_assert_eq!(fields_as_bits(p), fields_as_bits(o), "{:02x?}", payload),
        (Err(_), Err(_)) => {}
        _ => prop_assert!(
            false,
            "decoders disagree on {:02x?}: product {:?}, oracle {:?}",
            payload,
            product,
            oracle
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binary_decoder_agrees_with_the_cursor_oracle(
        msg in arb_binary_msg(),
        seed in any::<u64>(),
        noise in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let frame = fvs_net::encode_binary(&msg).unwrap();
        let payload = &frame[HEADER_LEN..];
        agree(payload)?;
        let decoded = fvs_net::decode_payload_binary(payload).unwrap();
        prop_assert_eq!(fields_as_bits(&decoded), fields_as_bits(&msg));
        for cut in 0..payload.len() {
            agree(&payload[..cut])?;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let mut bad = payload.to_vec();
            for _ in 0..rng.gen_range(1usize..=8) {
                let i = rng.gen_range(0..bad.len());
                bad[i] ^= 1 << rng.gen_range(0u32..8);
            }
            agree(&bad)?;
        }
        // Random bytes, bare and behind each kind byte.
        agree(&noise)?;
        for kind in 1..=6u8 {
            agree(&[&[kind][..], &noise].concat())?;
        }
    }
}
