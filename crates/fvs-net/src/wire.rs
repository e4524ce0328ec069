//! The length-prefixed, versioned wire codec — two payload encodings
//! behind one frame shape.
//!
//! Every frame on the socket is
//!
//! ```text
//! +--------+--------+------------------------+
//! | magic  | length |       payload          |
//! | 4 bytes| u32 BE | length bytes           |
//! +--------+--------+------------------------+
//! ```
//!
//! The magic selects the payload encoding *per frame*:
//!
//! * `"FVS1"` — one JSON object carrying a `schema_version` field, a
//!   `kind` discriminant and a `body`:
//!   `{"schema_version":1,"kind":"summary","body":{...NodeSummary...}}`
//! * `"FVS2"` — a fixed-layout big-endian binary payload: one kind byte
//!   followed by the fields in declaration order, floats as raw IEEE-754
//!   bits (so NaN payloads survive bit-exactly). See [`WireCodec`] and
//!   the per-kind layouts in this module's binary section.
//!
//! The encoding is a property of the frame kind: the handshake (`hello`
//! / `hello_ack`) is **always** JSON, so that a peer on any schema can
//! still be refused politely, and every other frame is binary. A hello
//! whose codec bitmask lacks `FVS2` is refused. Readers accept both
//! magics unconditionally.
//!
//! The magic catches stream desynchronisation and non-fvsst peers; the
//! length prefix bounds each read (frames over [`MAX_FRAME_LEN`] are
//! rejected before any allocation); the version field lets a coordinator
//! refuse a newer agent explicitly (see [`WireMsg::HelloAck`]) instead
//! of mis-parsing it. The vendored serde stand-in has no typed
//! deserializer, so decoding walks the [`serde::Value`] tree by hand —
//! every missing field, wrong type, or out-of-range number surfaces as
//! an [`FvsError::Wire`], never a panic. The binary decoder gives the
//! same guarantee by checking a payload's length against its kind's
//! layout once, then reading every field at a fixed offset.

use crate::error::FvsError;
use fvs_cluster::{FrequencyCommand, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_telemetry::WireFaultKind;
use serde::{Serialize, Value};
use std::io;

/// Leading bytes of every JSON (`FVS1`) frame.
pub const MAGIC: [u8; 4] = *b"FVS1";

/// Leading bytes of every binary (`FVS2`) frame.
pub const MAGIC_V2: [u8; 4] = *b"FVS2";

/// Wire schema version spoken by this build.
pub const SCHEMA_VERSION: u32 = 1;

/// A payload encoding.
///
/// The hello advertises the codecs an agent reads as a bitmask
/// ([`CODEC_ALL`]), and an accepting ack names `FVS2`
/// ([`WireCodec::id`]).
/// Readers do not care: [`FrameReader`] dispatches on the frame magic,
/// so both encodings are always understood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// `FVS1`: self-describing JSON, the handshake's encoding.
    Json,
    /// `FVS2`: fixed-layout big-endian binary. Roughly an order of
    /// magnitude cheaper to encode/decode for summaries.
    Binary,
}

impl WireCodec {
    /// Stable one-byte identifier used in the hello ack (1 = JSON,
    /// 2 = binary; 0 is reserved for "unknown" in telemetry).
    pub fn id(self) -> u8 {
        match self {
            WireCodec::Json => 1,
            WireCodec::Binary => 2,
        }
    }

    /// Decode a hello-ack identifier; unknown ids read as JSON.
    pub fn from_id(id: u8) -> WireCodec {
        match id {
            2 => WireCodec::Binary,
            _ => WireCodec::Json,
        }
    }
}

/// Hello bitmask bit advertising `FVS1` JSON support.
pub const CODEC_JSON_BIT: u8 = 0b01;
/// Hello bitmask bit advertising `FVS2` binary support.
pub const CODEC_BINARY_BIT: u8 = 0b10;
/// Bitmask advertising every codec this build speaks.
pub const CODEC_ALL: u8 = CODEC_JSON_BIT | CODEC_BINARY_BIT;

/// Frame header length: 4 bytes magic + 4 bytes big-endian length.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a payload, enforced before buffering it. Generous for
/// summaries (a few dozen bytes per processor) while capping what a
/// corrupt length prefix can make the reader allocate.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// One control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Agent → coordinator, first frame on a connection: who am I, how
    /// many processors do I drive, and which schema do I speak.
    Hello {
        /// Node index within the cluster.
        node: usize,
        /// Processor count of the node.
        procs: usize,
        /// Schema version the agent speaks (the one header field read
        /// even when it differs from ours).
        version: u32,
        /// Highest coordinator epoch this agent has acknowledged (0 =
        /// none yet). A coordinator whose own epoch is *lower* is stale
        /// — a pre-crash survivor or a cold restart racing a resumed
        /// one — and must refuse the connection (split-brain guard).
        /// Decodes as 0 when absent, so older peers interoperate.
        last_epoch: u64,
        /// Bitmask of payload codecs the agent can read and write
        /// ([`CODEC_JSON_BIT`] | [`CODEC_BINARY_BIT`]). Decodes as
        /// JSON-only when absent; a hello without the binary bit is
        /// refused.
        codecs: u8,
    },
    /// Coordinator → agent reply to `Hello`: accepted or refused (with
    /// the version the server speaks, so the agent can log why).
    HelloAck {
        /// Whether the coordinator accepted the connection.
        accepted: bool,
        /// Schema version the coordinator speaks.
        version: u32,
        /// The coordinator's epoch. Agents record the highest epoch
        /// ever seen and fence any coordinator presenting a lower one.
        /// Decodes as 0 when absent, so older peers interoperate.
        epoch: u64,
        /// [`WireCodec::id`] of the codec the connection runs after the
        /// handshake: binary when accepted, JSON when refused. Decodes
        /// as JSON when absent. Agents do not read it.
        codec: u8,
    },
    /// Agent → coordinator: one measurement window.
    Summary(NodeSummary),
    /// Coordinator → agent: one frequency-ceiling command.
    Ceiling(FrequencyCommand),
    /// Agent → coordinator: orderly goodbye (distinguishes a drained
    /// node from a crashed one).
    Bye {
        /// Departing node.
        node: usize,
    },
    /// Coordinator → agent: keep-alive for rounds that commanded the
    /// node nothing. Makes dead-link detection time-bounded on the
    /// agent side (no frame for a link-timeout → reconnect) and carries
    /// the epoch so a stale coordinator is fenced mid-connection too.
    Heartbeat {
        /// The sending coordinator's epoch.
        epoch: u64,
    },
}

impl WireMsg {
    /// Stable lowercase kind discriminant (the payload `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            WireMsg::Hello { .. } => "hello",
            WireMsg::HelloAck { .. } => "hello_ack",
            WireMsg::Summary(_) => "summary",
            WireMsg::Ceiling(_) => "ceiling",
            WireMsg::Bye { .. } => "bye",
            WireMsg::Heartbeat { .. } => "heartbeat",
        }
    }
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn to_payload(msg: &WireMsg) -> Value {
    let (version, body) = match msg {
        WireMsg::Hello {
            node,
            procs,
            version,
            last_epoch,
            codecs,
        } => (
            *version,
            obj(vec![
                ("node", Value::UInt(*node as u64)),
                ("procs", Value::UInt(*procs as u64)),
                ("last_epoch", Value::UInt(*last_epoch)),
                ("codecs", Value::UInt(u64::from(*codecs))),
            ]),
        ),
        WireMsg::HelloAck {
            accepted,
            version,
            epoch,
            codec,
        } => (
            *version,
            obj(vec![
                ("accepted", Value::Bool(*accepted)),
                ("epoch", Value::UInt(*epoch)),
                ("codec", Value::UInt(u64::from(*codec))),
            ]),
        ),
        WireMsg::Summary(s) => (SCHEMA_VERSION, s.to_json()),
        WireMsg::Ceiling(c) => (SCHEMA_VERSION, c.to_json()),
        WireMsg::Bye { node } => (
            SCHEMA_VERSION,
            obj(vec![("node", Value::UInt(*node as u64))]),
        ),
        WireMsg::Heartbeat { epoch } => (SCHEMA_VERSION, obj(vec![("epoch", Value::UInt(*epoch))])),
    };
    obj(vec![
        ("schema_version", Value::UInt(u64::from(version))),
        ("kind", Value::String(msg.kind().to_string())),
        ("body", body),
    ])
}

/// Encode one message as a complete frame (header + JSON payload).
pub fn encode(msg: &WireMsg) -> Result<Vec<u8>, FvsError> {
    let payload = serde_json::to_string(&to_payload(msg))?;
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(FvsError::wire(format!(
            "payload of {} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
            bytes.len()
        )));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + bytes.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Encode one message under `codec`.
///
/// Handshake frames (`hello` / `hello_ack`) always go out as JSON, so
/// that a peer on any schema can read them.
pub fn encode_with(msg: &WireMsg, codec: WireCodec) -> Result<Vec<u8>, FvsError> {
    match (codec, msg) {
        (WireCodec::Json, _) | (_, WireMsg::Hello { .. }) | (_, WireMsg::HelloAck { .. }) => {
            encode(msg)
        }
        (WireCodec::Binary, _) => encode_binary(msg),
    }
}

// --- FVS2 binary payloads -------------------------------------------------
//
// One kind byte, then fixed-layout fields, everything big-endian. Offsets
// count from the kind byte, and each payload's length is checked once,
// against its kind, before any field is read:
//
//   kind 1  hello      30 B      version u32 @1 · node u64 @5 · procs u64 @13
//                                · last_epoch u64 @21 · codecs u8 @29
//   kind 2  hello_ack  15 B      version u32 @1 · accepted u8 @5
//                                · epoch u64 @6 · codec u8 @14
//   kind 3  summary    27 B      node u64 @1 · sent_at_s f64 @9
//                                · power_w f64 @17 · nproc u16 @25
//                      + nproc records, each starting with flags u8 @0:
//                        5 B     no model: current u32 @1
//                        21 B    model: cpi0 f64 @1 · mem f64 @9
//                                · current u32 @17
//                      flags bit0 = model present, bit1 = idle
//   kind 4  ceiling    11+4n B   node u64 @1 · n u16 @9 · n × freq u32 @11
//   kind 5  bye        9 B       node u64 @1
//   kind 6  heartbeat  9 B       epoch u64 @1
//
// Floats travel as raw IEEE-754 bits (`f64::to_bits`), so NaN and
// infinity — which the JSON codec can only collapse to `null`/NaN —
// round-trip bit-exactly. Ingest-side validation stays where it was.

const BK_HELLO: u8 = 1;
const BK_HELLO_ACK: u8 = 2;
const BK_SUMMARY: u8 = 3;
const BK_CEILING: u8 = 4;
const BK_BYE: u8 = 5;
const BK_HEARTBEAT: u8 = 6;

const FLAG_MODEL: u8 = 0b01;
const FLAG_IDLE: u8 = 0b10;

const HELLO_LEN: usize = 30;
const HELLO_ACK_LEN: usize = 15;
/// `bye` and `heartbeat`: the kind byte and one u64.
const WORD_LEN: usize = 9;
const SUMMARY_HEAD_LEN: usize = 27;
/// A summary's processor record without a model, and with one.
const PROC_LEN: usize = 5;
const MODEL_PROC_LEN: usize = 21;
const CEILING_HEAD_LEN: usize = 11;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// The `FVS2` payload length of `msg`, or why the layout cannot carry it.
fn binary_len(msg: &WireMsg) -> Result<usize, FvsError> {
    Ok(match msg {
        WireMsg::Hello { .. } => HELLO_LEN,
        WireMsg::HelloAck { .. } => HELLO_ACK_LEN,
        WireMsg::Summary(s) => {
            let nproc = s.models.len();
            if s.idle.len() != nproc || s.current.len() != nproc || nproc > usize::from(u16::MAX) {
                return Err(FvsError::wire(format!(
                    "summary of {nproc} models, {} idle flags and {} frequencies does not fit FVS2",
                    s.idle.len(),
                    s.current.len()
                )));
            }
            let models = s.models.iter().filter(|m| m.is_some()).count();
            SUMMARY_HEAD_LEN + nproc * PROC_LEN + models * (MODEL_PROC_LEN - PROC_LEN)
        }
        WireMsg::Ceiling(c) => {
            if c.freqs.len() > usize::from(u16::MAX) {
                return Err(FvsError::wire("more than 65535 frequencies in one command"));
            }
            CEILING_HEAD_LEN + 4 * c.freqs.len()
        }
        WireMsg::Bye { .. } | WireMsg::Heartbeat { .. } => WORD_LEN,
    })
}

/// Encode one message as a complete `FVS2` frame: header and payload
/// written into one buffer of exactly their size.
pub fn encode_binary(msg: &WireMsg) -> Result<Vec<u8>, FvsError> {
    let len = binary_len(msg)?;
    if len > MAX_FRAME_LEN {
        return Err(FvsError::wire(format!(
            "payload of {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    let mut f = Vec::with_capacity(HEADER_LEN + len);
    f.extend_from_slice(&MAGIC_V2);
    put_u32(&mut f, len as u32);
    match msg {
        WireMsg::Hello {
            node,
            procs,
            version,
            last_epoch,
            codecs,
        } => {
            f.push(BK_HELLO);
            put_u32(&mut f, *version);
            put_u64(&mut f, *node as u64);
            put_u64(&mut f, *procs as u64);
            put_u64(&mut f, *last_epoch);
            f.push(*codecs);
        }
        WireMsg::HelloAck {
            accepted,
            version,
            epoch,
            codec,
        } => {
            f.push(BK_HELLO_ACK);
            put_u32(&mut f, *version);
            f.push(u8::from(*accepted));
            put_u64(&mut f, *epoch);
            f.push(*codec);
        }
        WireMsg::Summary(s) => {
            f.push(BK_SUMMARY);
            put_u64(&mut f, s.node as u64);
            put_f64(&mut f, s.sent_at_s);
            put_f64(&mut f, s.power_w);
            put_u16(&mut f, s.models.len() as u16);
            for ((model, idle), current) in s.models.iter().zip(&s.idle).zip(&s.current) {
                let idle = if *idle { FLAG_IDLE } else { 0 };
                match model {
                    Some(m) => {
                        f.push(FLAG_MODEL | idle);
                        put_f64(&mut f, m.cpi0);
                        put_f64(&mut f, m.mem_time_per_instr);
                    }
                    None => f.push(idle),
                }
                put_u32(&mut f, current.0);
            }
        }
        WireMsg::Ceiling(c) => {
            f.push(BK_CEILING);
            put_u64(&mut f, c.node as u64);
            put_u16(&mut f, c.freqs.len() as u16);
            for freq in &c.freqs {
                put_u32(&mut f, freq.0);
            }
        }
        WireMsg::Bye { node } => {
            f.push(BK_BYE);
            put_u64(&mut f, *node as u64);
        }
        WireMsg::Heartbeat { epoch } => {
            f.push(BK_HEARTBEAT);
            put_u64(&mut f, *epoch);
        }
    }
    debug_assert_eq!(f.len(), HEADER_LEN + len);
    Ok(f)
}

// Field readers at a fixed offset of a payload whose length the caller
// has checked: the slice cannot fail, and with a constant offset into a
// fixed-size array the compiler drops the check.
fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(b[at..at + 4].try_into().expect("four bytes"))
}
fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(b[at..at + 8].try_into().expect("eight bytes"))
}
fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(b, at))
}
fn index_at(b: &[u8], at: usize) -> Result<usize, FvsError> {
    usize::try_from(u64_at(b, at)).map_err(|_| FvsError::wire("index exceeds usize"))
}

#[cold]
fn bad_len(kind: &str, len: usize, want: usize) -> FvsError {
    FvsError::wire(format!(
        "binary {kind} payload is {len} bytes, its layout says {want}"
    ))
}

/// A summary `p` that ends short of the `need` bytes wanted at `rest`.
#[cold]
fn cut(p: &[u8], rest: &[u8], need: usize) -> FvsError {
    bad_len("summary", p.len(), p.len() - rest.len() + need)
}

/// `p` as the payload of a fixed-size kind.
fn sized<'a, const N: usize>(p: &'a [u8], kind: &str) -> Result<&'a [u8; N], FvsError> {
    p.try_into().map_err(|_| bad_len(kind, p.len(), N))
}

/// Decode one `FVS2` binary frame *payload*.
pub fn decode_payload_binary(p: &[u8]) -> Result<WireMsg, FvsError> {
    let Some(&kind) = p.first() else {
        return Err(FvsError::wire("empty binary payload"));
    };
    Ok(match kind {
        BK_HELLO => {
            let p = sized::<HELLO_LEN>(p, "hello")?;
            WireMsg::Hello {
                version: u32_at(p, 1),
                node: index_at(p, 5)?,
                procs: index_at(p, 13)?,
                last_epoch: u64_at(p, 21),
                codecs: p[29],
            }
        }
        BK_HELLO_ACK => {
            let p = sized::<HELLO_ACK_LEN>(p, "hello_ack")?;
            WireMsg::HelloAck {
                version: u32_at(p, 1),
                accepted: p[5] != 0,
                epoch: u64_at(p, 6),
                codec: p[14],
            }
        }
        BK_SUMMARY => {
            let mut summary = NodeSummary::default();
            decode_summary_binary(p, &mut summary)?;
            WireMsg::Summary(summary)
        }
        BK_CEILING => WireMsg::Ceiling(decode_ceiling_binary(p)?),
        BK_BYE => WireMsg::Bye {
            node: index_at(sized::<WORD_LEN>(p, "bye")?, 1)?,
        },
        BK_HEARTBEAT => WireMsg::Heartbeat {
            epoch: u64_at(sized::<WORD_LEN>(p, "heartbeat")?, 1),
        },
        other => return Err(FvsError::wire(format!("unknown binary kind byte {other}"))),
    })
}

/// A summary payload into `into`, whose vectors it reuses: the head,
/// then each processor's record, its length (by its flags) checked as
/// the walk reaches it, then nothing. On `Err`, `into` holds whatever
/// had been decoded.
fn decode_summary_binary(p: &[u8], into: &mut NodeSummary) -> Result<(), FvsError> {
    let Some((head, mut rest)) = p.split_first_chunk::<SUMMARY_HEAD_LEN>() else {
        return Err(bad_len("summary", p.len(), SUMMARY_HEAD_LEN));
    };
    let nproc = usize::from(u16_at(head, 25));
    // Every record is at least `PROC_LEN` bytes, so a fuzzed count larger
    // than the payload is refused before any allocation sized by it.
    if rest.len() < nproc * PROC_LEN {
        return Err(cut(p, rest, nproc * PROC_LEN));
    }
    into.node = index_at(head, 1)?;
    into.sent_at_s = f64_at(head, 9);
    into.power_w = f64_at(head, 17);
    let (models, idle, current) = (&mut into.models, &mut into.idle, &mut into.current);
    models.clear();
    idle.clear();
    current.clear();
    models.reserve(nproc);
    idle.reserve(nproc);
    current.reserve(nproc);
    for _ in 0..nproc {
        let Some((r, tail)) = rest.split_first_chunk::<PROC_LEN>() else {
            return Err(cut(p, rest, PROC_LEN));
        };
        let flags = r[0];
        if flags & FLAG_MODEL == 0 {
            models.push(None);
            current.push(FreqMhz(u32_at(r, 1)));
            rest = tail;
        } else {
            let Some((r, tail)) = rest.split_first_chunk::<MODEL_PROC_LEN>() else {
                return Err(cut(p, rest, MODEL_PROC_LEN));
            };
            models.push(Some(CpiModel {
                cpi0: f64_at(r, 1),
                mem_time_per_instr: f64_at(r, 9),
            }));
            current.push(FreqMhz(u32_at(r, 17)));
            rest = tail;
        }
        idle.push(flags & FLAG_IDLE != 0);
    }
    if !rest.is_empty() {
        return Err(bad_len("summary", p.len(), p.len() - rest.len()));
    }
    Ok(())
}

fn decode_ceiling_binary(p: &[u8]) -> Result<FrequencyCommand, FvsError> {
    let Some((head, freqs)) = p.split_first_chunk::<CEILING_HEAD_LEN>() else {
        return Err(bad_len("ceiling", p.len(), CEILING_HEAD_LEN));
    };
    let n = usize::from(u16_at(head, 9));
    if freqs.len() != 4 * n {
        return Err(bad_len("ceiling", p.len(), CEILING_HEAD_LEN + 4 * n));
    }
    Ok(FrequencyCommand {
        node: index_at(head, 1)?,
        freqs: freqs
            .chunks_exact(4)
            .map(|w| FreqMhz(u32_at(w, 0)))
            .collect(),
    })
}

pub(crate) fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, FvsError> {
    match v.get(key) {
        Some(x) if !x.is_null() => Ok(x),
        _ => Err(FvsError::wire(format!("missing field `{key}`"))),
    }
}

pub(crate) fn usize_field(v: &Value, key: &str) -> Result<usize, FvsError> {
    field(v, key)?
        .as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not an index")))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, FvsError> {
    field(v, key)?
        .as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a u32")))
}

pub(crate) fn bool_field(v: &Value, key: &str) -> Result<bool, FvsError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a bool")))
}

/// A float field; JSON `null` decodes as NaN (the encoder maps
/// non-finite floats to `null`, and the coordinator's ingest validation
/// is what rejects them — the codec round-trips faithfully).
pub(crate) fn f64_field(v: &Value, key: &str) -> Result<f64, FvsError> {
    match v.get(key) {
        Some(Value::Null) => Ok(f64::NAN),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a number"))),
        None => Err(FvsError::wire(format!("missing field `{key}`"))),
    }
}

/// A u64 field that defaults when absent or null — schema-version-1
/// compatible field additions (epochs) decode leniently so frames from
/// peers predating the field still parse.
pub(crate) fn u64_field_or(v: &Value, key: &str, default: u64) -> Result<u64, FvsError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| FvsError::wire(format!("field `{key}` is not a u64"))),
    }
}

/// [`u64_field_or`] for a byte: a value above 255 is an error, never
/// narrowed into one.
fn u8_field_or(v: &Value, key: &str, default: u8) -> Result<u8, FvsError> {
    u8::try_from(u64_field_or(v, key, u64::from(default))?)
        .map_err(|_| FvsError::wire(format!("field `{key}` is not a u8")))
}

pub(crate) fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a Vec<Value>, FvsError> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| FvsError::wire(format!("field `{key}` is not an array")))
}

fn decode_freq(v: &Value) -> Result<FreqMhz, FvsError> {
    v.as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .map(FreqMhz)
        .ok_or_else(|| FvsError::wire("frequency is not a u32"))
}

fn decode_model(v: &Value) -> Result<Option<CpiModel>, FvsError> {
    if v.is_null() {
        return Ok(None);
    }
    if !v.is_object() {
        return Err(FvsError::wire("model is neither null nor an object"));
    }
    Ok(Some(CpiModel {
        cpi0: f64_field(v, "cpi0")?,
        mem_time_per_instr: f64_field(v, "mem_time_per_instr")?,
    }))
}

pub(crate) fn decode_summary(body: &Value) -> Result<NodeSummary, FvsError> {
    let models = array_field(body, "models")?
        .iter()
        .map(decode_model)
        .collect::<Result<Vec<_>, _>>()?;
    let idle = array_field(body, "idle")?
        .iter()
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| FvsError::wire("idle entry is not a bool"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let current = array_field(body, "current")?
        .iter()
        .map(decode_freq)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(NodeSummary {
        node: usize_field(body, "node")?,
        sent_at_s: f64_field(body, "sent_at_s")?,
        models,
        idle,
        current,
        power_w: f64_field(body, "power_w")?,
    })
}

fn decode_command(body: &Value) -> Result<FrequencyCommand, FvsError> {
    Ok(FrequencyCommand {
        node: usize_field(body, "node")?,
        freqs: array_field(body, "freqs")?
            .iter()
            .map(decode_freq)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// Decode one frame *payload* (the JSON between headers).
///
/// A `hello` decodes under any schema version — the coordinator must be
/// able to read a newer agent's introduction to refuse it politely —
/// but every other kind requires an exact [`SCHEMA_VERSION`] match.
pub fn decode_payload(payload: &[u8]) -> Result<WireMsg, FvsError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| FvsError::wire("payload is not valid UTF-8"))?;
    let v = serde_json::from_str(text)?;
    let version = u32_field(&v, "schema_version")?;
    let kind = field(&v, "kind")?
        .as_str()
        .ok_or_else(|| FvsError::wire("field `kind` is not a string"))?
        .to_string();
    let body = field(&v, "body")?;
    if kind != "hello" && version != SCHEMA_VERSION {
        return Err(FvsError::wire(format!(
            "schema_version {version} not supported (this build speaks {SCHEMA_VERSION})"
        )));
    }
    match kind.as_str() {
        "hello" => Ok(WireMsg::Hello {
            node: usize_field(body, "node")?,
            procs: usize_field(body, "procs")?,
            version,
            last_epoch: u64_field_or(body, "last_epoch", 0)?,
            // Agents predating FVS2 send no mask: they speak JSON only.
            codecs: u8_field_or(body, "codecs", CODEC_JSON_BIT)?,
        }),
        "hello_ack" => Ok(WireMsg::HelloAck {
            accepted: bool_field(body, "accepted")?,
            version,
            epoch: u64_field_or(body, "epoch", 0)?,
            codec: u8_field_or(body, "codec", WireCodec::Json.id())?,
        }),
        "summary" => Ok(WireMsg::Summary(decode_summary(body)?)),
        "ceiling" => Ok(WireMsg::Ceiling(decode_command(body)?)),
        "bye" => Ok(WireMsg::Bye {
            node: usize_field(body, "node")?,
        }),
        "heartbeat" => Ok(WireMsg::Heartbeat {
            epoch: u64_field_or(body, "epoch", 0)?,
        }),
        other => Err(FvsError::wire(format!("unknown frame kind `{other}`"))),
    }
}

/// One complete frame as [`FrameReader::next_lent`] lends it.
#[derive(Debug)]
pub enum Frame<'a> {
    /// A summary, of either codec, decoded into the record the reader
    /// keeps. A caller may swap it for a summary it is done with, as
    /// [`crate::CoordinatorCore::frame`] does: the next summary decodes
    /// into the vectors the record holds then, and allocates nothing.
    Summary(&'a mut NodeSummary),
    /// Any other kind. Never a [`WireMsg::Summary`].
    Msg(WireMsg),
}

impl Frame<'_> {
    /// The frame as an owned message. A summary moves out of the
    /// reader's record, which the next summary then decodes afresh.
    pub fn into_msg(self) -> WireMsg {
        match self {
            Frame::Summary(summary) => WireMsg::Summary(std::mem::take(summary)),
            Frame::Msg(msg) => msg,
        }
    }
}

/// Incremental frame parser over a byte stream.
///
/// Feed it whatever the socket produced; it buffers partial frames and
/// yields complete ones: lent by [`next_lent`](FrameReader::next_lent), owned by
/// [`next_frame`](FrameReader::next_frame). Any framing violation (bad magic,
/// oversized length, malformed payload) is returned as an error and
/// poisons nothing — but a desynchronised TCP stream cannot be trusted
/// past the first bad byte, so callers should drop the connection and
/// let the agent's reconnect ladder recover. [`last_fault`] classifies
/// the most recent error so the caller can emit a `wire_fault`
/// telemetry event *before* closing instead of dying silently.
///
/// [`last_fault`]: FrameReader::last_fault
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Initialised storage; `buf[start..end]` is what has arrived and
    /// not been parsed. Zeroed when grown, never per read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Where the next summary is decoded (see [`Frame::Summary`]).
    record: NodeSummary,
    last_fault: Option<WireFaultKind>,
    last_fault_len: u32,
    last_fault_codec: u8,
}

/// The storage a reader starts with on its first
/// [`read_from`](FrameReader::read_from), and all a connection that
/// reports one summary a period ever holds.
const INITIAL_READ_ROOM: usize = 1024;

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the unread bytes to the front of the storage — nothing to
    /// move when everything buffered was parsed, the common case.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Append bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.buf.len() - self.end < bytes.len() {
            self.compact();
            let need = self.end + bytes.len();
            if self.buf.len() < need {
                self.buf.resize(need, 0);
            }
        }
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` of at most `limit` bytes from `src` straight into the
    /// storage; returns what `read` returned. The room offered is all
    /// the storage behind the unread bytes: `INITIAL_READ_ROOM` at
    /// first, doubled whenever it is found full — that is, only after a
    /// read filled it (or a frame larger than it is still arriving).
    pub fn read_from<R: io::Read>(&mut self, src: &mut R, limit: usize) -> io::Result<usize> {
        self.compact();
        if self.end == self.buf.len() {
            let grown = (self.buf.len() * 2).max(INITIAL_READ_ROOM);
            self.buf.resize(grown, 0);
        }
        let room = (self.buf.len() - self.end).min(limit);
        let n = src.read(&mut self.buf[self.end..self.end + room])?;
        self.end += n;
        Ok(n)
    }

    /// Storage left behind the unread bytes: zero after a read that
    /// filled all of it.
    pub(crate) fn room(&self) -> usize {
        self.buf.len() - self.end
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Forget every unconsumed byte past the first `keep`: what a
    /// partition window swallowed.
    pub(crate) fn truncate(&mut self, keep: usize) {
        self.end = self.end.min(self.start + keep);
    }

    /// Bytes of storage held, parsed or not.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Classification of the most recent [`next_lent`] error, cleared
    /// by any successful parse: [`WireFaultKind::BadMagic`] (stream
    /// desynchronised or a foreign peer), [`WireFaultKind::Oversize`]
    /// (length prefix over [`MAX_FRAME_LEN`]) or [`WireFaultKind::Decode`]
    /// (sound framing, a payload that did not decode). It is what the
    /// `wire_fault` event the reader's owner journals carries, so chaos
    /// runs can tell an organic fault from an injected one.
    ///
    /// [`next_lent`]: FrameReader::next_lent
    pub fn last_fault(&self) -> Option<WireFaultKind> {
        self.last_fault
    }

    /// Observed length-prefix of the faulting frame (0 when the header
    /// itself was untrustworthy, e.g. on bad magic). For oversize
    /// faults this is the claimed — rejected — length.
    pub fn last_fault_len(&self) -> u32 {
        self.last_fault_len
    }

    /// Codec of the faulting frame as a [`WireCodec::id`] (0 when the
    /// magic matched neither codec).
    pub fn last_fault_codec(&self) -> u8 {
        self.last_fault_codec
    }

    fn fault(&mut self, kind: WireFaultKind, len: u32, codec: u8) {
        self.last_fault = Some(kind);
        self.last_fault_len = len;
        self.last_fault_codec = codec;
    }

    /// Try to extract the next complete frame. `Ok(None)` means more
    /// bytes are needed.
    pub fn next_lent(&mut self) -> Result<Option<Frame<'_>>, FvsError> {
        let unread = &self.buf[self.start..self.end];
        if unread.len() < HEADER_LEN {
            return Ok(None);
        }
        let codec = if unread[..4] == MAGIC {
            WireCodec::Json
        } else if unread[..4] == MAGIC_V2 {
            WireCodec::Binary
        } else {
            // The length bytes of a desynchronised stream are garbage;
            // report 0 rather than a misleading number.
            let err = FvsError::wire(format!(
                "bad magic {:02x?} (stream desynchronised or not an fvsst peer)",
                &unread[..4]
            ));
            self.fault(WireFaultKind::BadMagic, 0, 0);
            return Err(err);
        };
        let len = u32::from_be_bytes([unread[4], unread[5], unread[6], unread[7]]) as usize;
        if len > MAX_FRAME_LEN {
            self.fault(WireFaultKind::Oversize, len as u32, codec.id());
            return Err(FvsError::wire(format!(
                "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
            )));
        }
        if unread.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = &unread[HEADER_LEN..HEADER_LEN + len];
        // `None`: a summary, now in `record`.
        let decoded = match codec {
            WireCodec::Binary if payload.first() == Some(&BK_SUMMARY) => {
                decode_summary_binary(payload, &mut self.record).map(|()| None)
            }
            WireCodec::Binary => decode_payload_binary(payload).map(Some),
            WireCodec::Json => decode_payload(payload).map(|msg| match msg {
                WireMsg::Summary(summary) => {
                    self.record = summary;
                    None
                }
                msg => Some(msg),
            }),
        };
        // Consume the frame whether or not the payload decoded: the
        // framing itself was sound, so the next frame may be fine.
        self.start += HEADER_LEN + len;
        match decoded {
            Ok(msg) => {
                (self.last_fault, self.last_fault_len, self.last_fault_codec) = (None, 0, 0);
                let frame = msg.map_or(Frame::Summary(&mut self.record), Frame::Msg);
                Ok(Some(frame))
            }
            Err(e) => {
                self.fault(WireFaultKind::Decode, len as u32, codec.id());
                Err(e)
            }
        }
    }

    /// [`next_lent`](Self::next_lent), owned.
    pub fn next_frame(&mut self) -> Result<Option<WireMsg>, FvsError> {
        Ok(self.next_lent()?.map(Frame::into_msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> NodeSummary {
        NodeSummary {
            node: 3,
            sent_at_s: 1.25,
            models: vec![
                Some(CpiModel::from_components(1.5, 2.0e-9)),
                None,
                Some(CpiModel::from_components(0.75, 0.0)),
            ],
            idle: vec![false, true, false],
            current: vec![FreqMhz(1000), FreqMhz(250), FreqMhz(850)],
            power_w: 312.5,
        }
    }

    fn hello(node: usize, last_epoch: u64) -> WireMsg {
        WireMsg::Hello {
            node,
            procs: 4,
            version: SCHEMA_VERSION,
            last_epoch,
            codecs: CODEC_ALL,
        }
    }

    fn ack(epoch: u64, codec: WireCodec) -> WireMsg {
        WireMsg::HelloAck {
            accepted: true,
            version: SCHEMA_VERSION,
            epoch,
            codec: codec.id(),
        }
    }

    /// One message of each kind.
    fn every_kind() -> Vec<WireMsg> {
        vec![
            hello(2, 3),
            ack(4, WireCodec::Binary),
            WireMsg::Summary(sample_summary()),
            WireMsg::Ceiling(FrequencyCommand {
                node: 1,
                freqs: vec![FreqMhz(600), FreqMhz(1000)],
            }),
            WireMsg::Bye { node: 7 },
            WireMsg::Heartbeat { epoch: 9 },
        ]
    }

    /// The JSON payload `msg` encodes to, as text.
    fn json_text(msg: &WireMsg) -> String {
        let frame = encode(msg).unwrap();
        String::from_utf8(frame[HEADER_LEN..].to_vec()).unwrap()
    }

    #[test]
    fn summary_round_trips_exactly() {
        let msg = WireMsg::Summary(sample_summary());
        let frame = encode(&msg).unwrap();
        assert_eq!(&frame[..4], &MAGIC);
        let mut r = FrameReader::new();
        r.feed(&frame);
        let back = r.next_frame().unwrap().unwrap();
        assert_eq!(back, msg);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn every_kind_round_trips() {
        let msgs = every_kind();
        let mut r = FrameReader::new();
        for m in &msgs {
            r.feed(&encode(m).unwrap());
        }
        for m in &msgs {
            assert_eq!(r.next_frame().unwrap().as_ref(), Some(m));
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let mut r = FrameReader::new();
        let (head, tail) = frame.split_at(frame.len() - 1);
        for chunk in head.chunks(3) {
            r.feed(chunk);
            assert_eq!(r.next_frame().unwrap(), None);
        }
        r.feed(tail);
        assert_eq!(r.next_frame().unwrap(), Some(WireMsg::Bye { node: 1 }));
    }

    #[test]
    fn bad_magic_is_an_error_not_a_panic() {
        let mut frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        frame[0] = b'X';
        let mut r = FrameReader::new();
        r.feed(&frame);
        assert!(matches!(r.next_frame(), Err(FvsError::Wire(_))));
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut r = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC);
        junk.extend_from_slice(&u32::MAX.to_be_bytes());
        r.feed(&junk);
        assert!(matches!(r.next_frame(), Err(FvsError::Wire(_))));
    }

    #[test]
    fn corrupt_payload_consumes_the_frame_and_reports() {
        let good = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = b'!'; // break the JSON
        let mut r = FrameReader::new();
        r.feed(&bad);
        r.feed(&good);
        assert!(r.next_frame().is_err());
        // The stream is not poisoned: the following frame still decodes.
        assert_eq!(r.next_frame().unwrap(), Some(WireMsg::Bye { node: 1 }));
    }

    #[test]
    fn non_hello_frames_require_exact_version() {
        let bumped = json_text(&WireMsg::Bye { node: 1 })
            .replace("\"schema_version\":1", "\"schema_version\":2");
        let err = decode_payload(bumped.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("schema_version 2"), "{err}");
    }

    #[test]
    fn hello_decodes_under_foreign_versions() {
        let bumped =
            json_text(&hello(0, 0)).replace("\"schema_version\":1", "\"schema_version\":9");
        match decode_payload(bumped.as_bytes()).unwrap() {
            WireMsg::Hello { version, .. } => assert_eq!(version, 9),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The epoch fields are version-1-compatible additions: frames from
    /// peers that predate them (no `last_epoch` / `epoch` key) still
    /// decode, defaulting to epoch 0.
    #[test]
    fn missing_epoch_fields_decode_as_zero() {
        let legacy = json_text(&hello(5, 7)).replace(",\"last_epoch\":7", "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::Hello {
                node, last_epoch, ..
            } => {
                assert_eq!(node, 5);
                assert_eq!(last_epoch, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let legacy = json_text(&ack(3, WireCodec::Json)).replace(",\"epoch\":3", "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::HelloAck {
                accepted, epoch, ..
            } => {
                assert!(accepted);
                assert_eq!(epoch, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Each error path stamps its classification so the reader's owner
    /// can emit the right `wire_fault` event before dropping the link.
    #[test]
    fn frame_faults_are_classified() {
        // Oversized length prefix.
        let mut r = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC);
        junk.extend_from_slice(&u32::MAX.to_be_bytes());
        r.feed(&junk);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(WireFaultKind::Oversize));

        // Bad magic.
        let mut r = FrameReader::new();
        let mut frame = encode(&WireMsg::Bye { node: 1 }).unwrap();
        frame[0] = b'X';
        r.feed(&frame);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(WireFaultKind::BadMagic));

        // Corrupt payload, then a clean frame clears the classification.
        let mut r = FrameReader::new();
        let good = encode(&WireMsg::Bye { node: 1 }).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = b'!';
        r.feed(&bad);
        r.feed(&good);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(WireFaultKind::Decode));
        assert!(r.next_frame().unwrap().is_some());
        assert_eq!(r.last_fault(), None);
    }

    #[test]
    fn binary_every_kind_round_trips() {
        let msgs = every_kind();
        let mut r = FrameReader::new();
        for m in &msgs {
            let frame = encode_binary(m).unwrap();
            assert_eq!(&frame[..4], &MAGIC_V2);
            r.feed(&frame);
        }
        for m in &msgs {
            assert_eq!(r.next_frame().unwrap().as_ref(), Some(m));
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }

    /// The binary codec carries floats as raw bits, so even non-finite
    /// values — which JSON collapses to `null` — survive bit-exactly.
    #[test]
    fn binary_non_finite_floats_round_trip_bit_exactly() {
        let mut s = sample_summary();
        s.power_w = f64::NEG_INFINITY;
        s.sent_at_s = f64::from_bits(0x7ff8_dead_beef_0001); // payload NaN
        let bits = (s.power_w.to_bits(), s.sent_at_s.to_bits());
        let frame = encode_binary(&WireMsg::Summary(s)).unwrap();
        let mut r = FrameReader::new();
        r.feed(&frame);
        match r.next_frame().unwrap().unwrap() {
            WireMsg::Summary(back) => {
                assert_eq!(back.power_w.to_bits(), bits.0);
                assert_eq!(back.sent_at_s.to_bits(), bits.1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_codec_stream_decodes_frame_by_frame() {
        let a = WireMsg::Summary(sample_summary());
        let b = WireMsg::Heartbeat { epoch: 12 };
        let mut r = FrameReader::new();
        r.feed(&encode(&a).unwrap());
        r.feed(&encode_binary(&b).unwrap());
        r.feed(&encode_binary(&a).unwrap());
        r.feed(&encode(&b).unwrap());
        assert_eq!(r.next_frame().unwrap(), Some(a.clone()));
        assert_eq!(r.next_frame().unwrap(), Some(b.clone()));
        assert_eq!(r.next_frame().unwrap(), Some(a));
        assert_eq!(r.next_frame().unwrap(), Some(b));
    }

    /// `encode_with` pins the handshake to JSON, which a peer on any
    /// schema reads.
    #[test]
    fn handshake_frames_always_encode_as_json() {
        for m in [hello(1, 0), ack(1, WireCodec::Binary)] {
            let frame = encode_with(&m, WireCodec::Binary).unwrap();
            assert_eq!(&frame[..4], &MAGIC);
        }
        let frame = encode_with(&WireMsg::Heartbeat { epoch: 1 }, WireCodec::Binary).unwrap();
        assert_eq!(&frame[..4], &MAGIC_V2);
    }

    /// Frames from peers predating the codec fields decode as JSON-only
    /// speakers.
    #[test]
    fn missing_codec_fields_default_to_json() {
        let legacy = json_text(&hello(5, 0)).replace(&format!(",\"codecs\":{CODEC_ALL}"), "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::Hello { codecs, .. } => assert_eq!(codecs, CODEC_JSON_BIT),
            other => panic!("unexpected {other:?}"),
        }
        let legacy = json_text(&ack(3, WireCodec::Binary)).replace(",\"codec\":2", "");
        match decode_payload(legacy.as_bytes()).unwrap() {
            WireMsg::HelloAck { codec, .. } => assert_eq!(codec, WireCodec::Json.id()),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Truncating a binary frame anywhere yields an error (or a wait
    /// for more bytes) — never a panic — and the claimed proc count of
    /// a fuzzed summary cannot force an oversized allocation.
    #[test]
    fn binary_truncation_and_fuzz_are_safe() {
        let frame = encode_binary(&WireMsg::Summary(sample_summary())).unwrap();
        for cut in HEADER_LEN..frame.len() {
            let mut truncated = frame[..cut].to_vec();
            // Patch the length so the reader treats it as complete.
            let len = (cut - HEADER_LEN) as u32;
            truncated[4..8].copy_from_slice(&len.to_be_bytes());
            let mut r = FrameReader::new();
            r.feed(&truncated);
            let _ = r.next_frame(); // must not panic
        }
        // An absurd proc count over a tiny payload is refused.
        let mut p = frame[HEADER_LEN..HEADER_LEN + SUMMARY_HEAD_LEN].to_vec();
        p[25..].copy_from_slice(&u16::MAX.to_be_bytes());
        assert!(decode_payload_binary(&p).is_err());
    }

    #[test]
    fn fault_diagnostics_carry_length_and_codec() {
        // Oversize binary frame: claimed length and codec id captured.
        let mut r = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC_V2);
        junk.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
        r.feed(&junk);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(WireFaultKind::Oversize));
        assert_eq!(r.last_fault_len(), (MAX_FRAME_LEN as u32) + 1);
        assert_eq!(r.last_fault_codec(), WireCodec::Binary.id());

        // Bad magic: neither length nor codec is trustworthy.
        let mut r = FrameReader::new();
        r.feed(b"XXXX\x00\x00\x00\x01z");
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault_len(), 0);
        assert_eq!(r.last_fault_codec(), 0);

        // Torn binary payload: observed length + binary codec id.
        let good = encode_binary(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        let mut bad = good.clone();
        bad[HEADER_LEN] = 0xEE; // unknown kind byte
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(r.next_frame().is_err());
        assert_eq!(r.last_fault(), Some(WireFaultKind::Decode));
        assert_eq!(r.last_fault_len(), (good.len() - HEADER_LEN) as u32);
        assert_eq!(r.last_fault_codec(), WireCodec::Binary.id());

        // A clean parse clears all three diagnostics.
        r.feed(&good);
        assert!(r.next_frame().unwrap().is_some());
        assert_eq!(r.last_fault(), None);
        assert_eq!(r.last_fault_len(), 0);
        assert_eq!(r.last_fault_codec(), 0);
    }

    #[test]
    fn non_finite_floats_round_trip_as_nan() {
        let mut s = sample_summary();
        s.power_w = f64::INFINITY;
        s.sent_at_s = f64::NAN;
        let frame = encode(&WireMsg::Summary(s)).unwrap();
        let mut r = FrameReader::new();
        r.feed(&frame);
        match r.next_frame().unwrap().unwrap() {
            WireMsg::Summary(back) => {
                // The JSON encoding maps non-finite to null; decode maps
                // null back to NaN, which ingest validation rejects.
                assert!(back.power_w.is_nan());
                assert!(back.sent_at_s.is_nan());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
