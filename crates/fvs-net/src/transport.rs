//! The transport: one connection end's chaos, framing and queueing
//! state behind a single API — the same type on a socket in
//! either driver and at either end of `ClusterSim`'s simulated wire.
//!
//! A transport owns no socket and reads no clock. [`Transport::flush`]
//! writes into whatever `Write` its caller holds and [`Transport::fill`]
//! reads from whatever `Read`; every call that can meet a fault carries
//! `now_s`, the caller's seconds since its start.
//!
//! * **Codec** — the handshake goes out as `FVS1` and every other frame
//!   as `FVS2` (see [`encode_with`]); incoming frames decode by magic,
//!   so both codecs are always readable.
//! * **Chaos** — built under a [`WireChaos`] plan that can fire, a
//!   transport takes [`WireFaultPlan::frame_fault`] once for each frame
//!   [`Transport::send`] encodes, as it queues it: a partial write
//!   retried later never re-rolls the dice, and a held frame waits
//!   aside, never blocking the frames behind it. Bytes
//!   [`Transport::fill`] reads inside a partition window of the
//!   direction they travel are consumed and discarded, so a one-way
//!   partition behaves like the real thing: an uplink-dead node keeps
//!   receiving commands it can never acknowledge, a downlink-dead node
//!   keeps reporting while ignoring every ceiling. Each injected fault is
//!   journaled as a `wire_fault` flagged `injected`. Same plan, seed,
//!   stream id and frames → the same faults. Under a quiet plan a
//!   transport holds no chaos state and writes exactly the encoded
//!   frames.
//! * **Queueing** — writes never block. Bytes the writer does not take
//!   wait in an outbound queue with a partial-write offset;
//!   [`Transport::flush`] drains what the writer will take.
//!
//! On a socket, a transport sits beside its nonblocking stream in a
//! [`Reactor`](crate::reactor::Reactor), driven off readiness events:
//! thousands of them in the coordinator's, one per agent in the fleet's.
//! The one blocking moment is an agent's hello, flushed before the
//! socket is handed to the reactor.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::chaos::{ChaosSide, WireChaos, WriteFault};
use crate::error::FvsError;
use crate::wire::{encode_with, Frame, FrameReader, WireCodec, WireMsg, MAGIC, MAGIC_V2};
use fvs_faults::WireFaultPlan;
use fvs_telemetry::{Counter, SchedEvent, Telemetry, WireFaultKind};
use rand::rngs::StdRng;

/// Most bytes one [`Transport::fill`] call takes off its reader: well
/// above what a node sends between two polls (a reconnect burst is
/// under 8 KiB), small enough that the caller is back within a few
/// hundred microseconds.
const FILL_BUDGET: u64 = 64 * 1024;

/// The node index before a hello names it.
const NODE_UNKNOWN: usize = usize::MAX;

/// What [`Transport::fill`] observed on its reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// Bytes arrived and were buffered; call [`Transport::next_msg`].
    Progress,
    /// Nothing available right now (`WouldBlock` / read timeout), or
    /// what arrived was lost in a partition window.
    Idle,
    /// The peer closed the connection (orderly EOF).
    Eof,
}

/// One connection end's transport state. See the module docs.
#[derive(Debug, Default)]
pub struct Transport {
    reader: FrameReader,
    /// Complete frames (post-fault-decision) awaiting writer space.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written.
    out_pos: usize,
    /// Total bytes across `outq` (backpressure accounting).
    queued: usize,
    /// Chaos-delayed frames and when they come due (`now_s`), promoted
    /// into `outq` by [`Transport::flush`].
    delayed: Vec<(f64, Vec<u8>)>,
    /// Total bytes [`Transport::fill`] has kept.
    bytes_rx: u64,
    /// This connection's fault state; `None` under a quiet plan.
    chaos: Option<Box<Faults>>,
}

/// A connection's fault state under a plan that can fire.
#[derive(Debug)]
struct Faults {
    plan: WireFaultPlan,
    rng: StdRng,
    /// This end writes toward the coordinator (it is the agent's).
    uplink: bool,
    /// The node this connection speaks for ([`NODE_UNKNOWN`] until
    /// [`Transport::set_node`]); partitions target nodes.
    node: usize,
    injected: u64,
    journal: Telemetry,
    counter: Option<Arc<Counter>>,
}

impl Faults {
    /// The fault `frame`, written at `now_s`, takes
    /// ([`WireFaultPlan::frame_fault`]), recorded here for the caller to
    /// apply.
    fn frame_fault(&mut self, frame: &[u8], now_s: f64) -> WriteFault {
        let decided = self
            .plan
            .frame_fault(frame, self.node, self.uplink, now_s, &mut self.rng);
        let Some((kind, fault)) = decided else {
            return WriteFault::Deliver;
        };
        self.note(kind, frame, now_s);
        fault
    }

    /// Record one injected fault, on `frame` (empty for a blackholed
    /// read): the count, the optional counter, and the journal entry.
    fn note(&mut self, kind: WireFaultKind, frame: &[u8], now_s: f64) {
        self.injected += 1;
        if let Some(c) = &self.counter {
            c.inc();
        }
        if self.journal.enabled() {
            let (frame_len, codec) = sniff_frame(frame);
            self.journal.emit(SchedEvent::WireFault {
                t_s: now_s,
                node: u32::try_from(self.node).unwrap_or(u32::MAX),
                fault: kind,
                injected: true,
                frame_len,
                codec,
            });
        }
    }
}

/// Identify a frame for fault telemetry: its total size and the codec
/// its magic claims (0 when the buffer is too short or foreign).
fn sniff_frame(buf: &[u8]) -> (u32, u8) {
    let len = u32::try_from(buf.len()).unwrap_or(u32::MAX);
    let codec = match buf.get(..4) {
        Some(magic) if magic == MAGIC => WireCodec::Json.id(),
        Some(magic) if magic == MAGIC_V2 => WireCodec::Binary.id(),
        _ => 0,
    };
    (len, codec)
}

impl Transport {
    /// A transport under no chaos.
    pub fn new() -> Self {
        Self::default()
    }

    /// `side`'s end of connection `stream_id` under `chaos` (a quiet plan
    /// gives [`Transport::new`]). The stream id gives each connection
    /// (reconnect attempts, accept sequence) its own reproducible fault
    /// stream; injected faults are journaled through `journal` and
    /// counted on `counter` when given.
    pub fn under(
        chaos: &WireChaos,
        side: ChaosSide,
        stream_id: u64,
        journal: Telemetry,
        counter: Option<Arc<Counter>>,
    ) -> Self {
        let chaos = (!chaos.is_quiet()).then(|| {
            Box::new(Faults {
                plan: chaos.plan.clone(),
                rng: chaos.rng(stream_id),
                uplink: side == ChaosSide::Agent,
                node: NODE_UNKNOWN,
                injected: 0,
                journal,
                counter,
            })
        });
        Transport {
            chaos,
            ..Self::default()
        }
    }

    /// Name the node this connection speaks for (the agent's end knows
    /// it at once, the coordinator's from the hello).
    pub fn set_node(&mut self, node: usize) {
        if let Some(chaos) = &mut self.chaos {
            chaos.node = node;
        }
    }

    /// Faults injected on this connection end so far.
    pub fn injected(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.injected)
    }

    /// Total bytes kept off the reader so far (metrics delta source).
    pub fn bytes_rx(&self) -> u64 {
        self.bytes_rx
    }

    /// Bytes sitting in the outbound queue (excluding delayed frames).
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether [`Transport::flush`] has writer work to do right now —
    /// the reactor's cue to poll for write readiness.
    pub fn wants_write(&self) -> bool {
        !self.outq.is_empty()
    }

    /// When the earliest chaos-delayed frame comes due (`now_s`), if
    /// any — the cue to call [`Transport::flush`] again even without new
    /// sends.
    pub fn next_delay_due(&self) -> Option<f64> {
        self.delayed.iter().map(|&(due, _)| due).reduce(f64::min)
    }

    /// Encode `msg` (`FVS2`, but a handshake frame `FVS1`), take the
    /// chaos fault decision at `now_s`, and queue the surviving bytes.
    /// Never blocks; call [`Transport::flush`] to move the queue onto
    /// the writer.
    ///
    /// An `Err` means the connection is unusable (an encode failure, or
    /// a chaos reset: the caller closes it).
    pub fn send(&mut self, msg: &WireMsg, now_s: f64) -> Result<(), FvsError> {
        let frame = encode_with(msg, WireCodec::Binary)?;
        let fault = self
            .chaos
            .as_deref_mut()
            .map_or(WriteFault::Deliver, |chaos| {
                chaos.frame_fault(&frame, now_s)
            });
        match fault {
            WriteFault::Deliver => self.enqueue(frame),
            WriteFault::Drop => {}
            WriteFault::Corrupt(bytes) => self.enqueue(bytes),
            WriteFault::Duplicate => {
                self.enqueue(frame.clone());
                self.enqueue(frame);
            }
            WriteFault::Delay(hold) => self.delayed.push((now_s + hold.as_secs_f64(), frame)),
            WriteFault::Reset => {
                return Err(FvsError::Io(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos reset the connection",
                )))
            }
        }
        Ok(())
    }

    fn enqueue(&mut self, bytes: Vec<u8>) {
        self.queued += bytes.len();
        self.outq.push_back(bytes);
    }

    /// Promote the delayed frames due by `now_s`, then write as much of
    /// the queue as `dst` accepts, returning at `WouldBlock` with the
    /// remainder queued. Errors mean the connection is dead.
    pub fn flush(&mut self, dst: &mut impl Write, now_s: f64) -> io::Result<()> {
        if !self.delayed.is_empty() {
            let mut i = 0;
            while i < self.delayed.len() {
                if self.delayed[i].0 <= now_s {
                    let (_, frame) = self.delayed.remove(i);
                    self.enqueue(frame);
                } else {
                    i += 1;
                }
            }
        }
        while let Some(front) = self.outq.front() {
            match dst.write(&front[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "the writer accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.out_pos += n;
                    if self.out_pos == front.len() {
                        self.queued -= front.len();
                        self.out_pos = 0;
                        self.outq.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what `src` has straight into the frame buffer, at most
    /// `FILL_BUDGET` bytes a call. Returns after the first read that
    /// left room (the reader had no more than that), when the budget is
    /// spent, the reader has nothing (`WouldBlock` or a read timeout),
    /// the peer closes, or an error surfaces. Bytes that arrive at
    /// `now_s` inside a partition window of their direction are
    /// discarded, and the call reports [`FillStatus::Idle`].
    ///
    /// The budget is what keeps a peer that writes faster than this side
    /// reads from holding the caller here forever (no frame parsed, no
    /// round run, no stop flag seen, the buffer growing by whatever
    /// arrives). The pollers are level-triggered, so whatever is left in
    /// the socket — more bytes, or the EOF behind them — is reported
    /// again on the next poll; that is also why no call ends by asking
    /// once more only to be told `WouldBlock`.
    pub fn fill(&mut self, src: &mut impl Read, now_s: f64) -> io::Result<FillStatus> {
        let (held, kept) = (self.reader.pending(), self.bytes_rx);
        let status = self.read_budget(src)?;
        let Some(chaos) = self.chaos.as_deref_mut().filter(|_| self.bytes_rx > kept) else {
            return Ok(status);
        };
        // Reads travel the other way from writes.
        let Some(kind) = chaos.plan.partitioned(chaos.node, !chaos.uplink, now_s) else {
            return Ok(status);
        };
        // The bytes vanish as if the link were down, and the caller sees
        // a quiet socket.
        self.reader.truncate(held);
        self.bytes_rx = kept;
        chaos.note(kind, &[], now_s);
        Ok(FillStatus::Idle)
    }

    fn read_budget(&mut self, src: &mut impl Read) -> io::Result<FillStatus> {
        let mut progressed = false;
        let spent_at = self.bytes_rx + FILL_BUDGET;
        while self.bytes_rx < spent_at {
            let left = (spent_at - self.bytes_rx) as usize;
            match self.reader.read_from(src, left) {
                // EOF right after fresh bytes (peer wrote, then closed):
                // report the progress first so the caller parses what
                // arrived; the next call reports the EOF.
                Ok(0) if progressed => return Ok(FillStatus::Progress),
                Ok(0) => return Ok(FillStatus::Eof),
                Ok(n) => {
                    self.bytes_rx += n as u64;
                    progressed = true;
                    if self.reader.room() > 0 {
                        return Ok(FillStatus::Progress);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(if progressed {
                        FillStatus::Progress
                    } else {
                        FillStatus::Idle
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(FillStatus::Progress)
    }

    /// Parse the next buffered frame, a summary lent in the reader's
    /// record (see [`Frame::Summary`]); `Ok(None)` means more bytes are
    /// needed. On `Err`, [`Transport::last_fault`] (and its length and
    /// codec companions) classify the failure for telemetry.
    pub fn next_lent(&mut self) -> Result<Option<Frame<'_>>, FvsError> {
        self.reader.next_lent()
    }

    /// [`Transport::next_lent`], owned.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, FvsError> {
        self.reader.next_frame()
    }

    /// Classification of the most recent [`Transport::next_lent`] error.
    pub fn last_fault(&self) -> Option<WireFaultKind> {
        self.reader.last_fault()
    }

    /// Observed length of the faulting frame (see
    /// [`FrameReader::last_fault_len`]).
    pub fn last_fault_len(&self) -> u32 {
        self.reader.last_fault_len()
    }

    /// Codec id of the faulting frame (see
    /// [`FrameReader::last_fault_codec`]).
    pub fn last_fault_codec(&self) -> u8 {
        self.reader.last_fault_codec()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::SCHEMA_VERSION;
    use fvs_cluster::NodeSummary;

    /// A sending end as an agent's under `chaos`, and a quiet receiving
    /// end; the wire between them is the caller's `Vec<u8>`.
    pub(crate) fn transport_pair(chaos: &WireChaos) -> (Transport, Transport) {
        transport_pair_journaled(chaos, Telemetry::disabled())
    }

    pub(crate) fn transport_pair_journaled(
        chaos: &WireChaos,
        journal: Telemetry,
    ) -> (Transport, Transport) {
        let tx = Transport::under(chaos, ChaosSide::Agent, 0, journal, None);
        (tx, Transport::new())
    }

    /// Send `msg` at `now_s` and flush whatever is due onto `wire`.
    pub(crate) fn send_flush(tx: &mut Transport, wire: &mut Vec<u8>, msg: &WireMsg, now_s: f64) {
        tx.send(msg, now_s).unwrap();
        tx.flush(wire, now_s).unwrap();
    }

    /// The next frame `rx` parses out of `wire`, which it consumes.
    pub(crate) fn recv_one(rx: &mut Transport, wire: &mut Vec<u8>) -> WireMsg {
        rx.fill(&mut wire.as_slice(), 0.0).unwrap();
        wire.clear();
        rx.next_msg().unwrap().expect("a whole frame on the wire")
    }

    /// A socket buffer with room for `room` bytes: a write past that
    /// would block.
    struct Pipe {
        bytes: Vec<u8>,
        room: usize,
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room - self.bytes.len());
            if n == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn hello() -> WireMsg {
        WireMsg::Hello {
            node: 1,
            procs: 64,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: crate::wire::CODEC_ALL,
        }
    }

    /// The handshake crosses as `FVS1`, everything else as `FVS2`.
    #[test]
    fn frames_cross_in_both_codecs() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        let mut wire = Vec::new();
        for (msg, magic) in [
            (hello(), MAGIC),
            (WireMsg::Heartbeat { epoch: 2 }, MAGIC_V2),
        ] {
            send_flush(&mut tx, &mut wire, &msg, 0.0);
            assert_eq!(wire, encode_with(&msg, WireCodec::Binary).unwrap());
            assert_eq!(wire[..4], magic);
            assert_eq!(recv_one(&mut rx, &mut wire), msg);
        }
    }

    #[test]
    fn nonblocking_sender_queues_past_a_full_socket() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        let mut pipe = Pipe {
            bytes: Vec::new(),
            room: 4096,
        };
        // Stuff the socket until writes stop landing, then some more.
        let msg = hello();
        let mut sent = 0u64;
        while tx.queued_bytes() == 0 {
            tx.send(&msg, 0.0).unwrap();
            tx.flush(&mut pipe, 0.0).unwrap();
            sent += 1;
        }
        for _ in 0..100 {
            tx.send(&msg, 0.0).unwrap();
        }
        sent += 100;
        // Drain the receiver; the sender's queue must fully unwind,
        // partial writes and all.
        let mut got = 0u64;
        while got < sent {
            rx.fill(&mut pipe.bytes.as_slice(), 0.0).unwrap();
            pipe.bytes.clear();
            while let Some(m) = rx.next_msg().unwrap() {
                assert_eq!(m, msg);
                got += 1;
            }
            tx.flush(&mut pipe, 0.0).unwrap();
        }
        assert_eq!(got, sent);
        assert_eq!(tx.queued_bytes(), 0);
    }

    /// Against a peer that writes faster than `fill` reads, every call
    /// still returns after its byte budget: the caller gets to parse
    /// frames, run rounds and see its stop flag.
    #[test]
    fn fill_returns_under_a_flooding_writer() {
        let mut flood = io::repeat(0).take(128 * 64 * 1024);
        let mut rx = Transport::new();
        let mut largest = 0;
        loop {
            let before = rx.bytes_rx();
            match rx.fill(&mut flood, 0.0).unwrap() {
                FillStatus::Eof => break,
                FillStatus::Idle => unreachable!("a flood never runs dry"),
                FillStatus::Progress => largest = largest.max(rx.bytes_rx() - before),
            }
        }
        assert_eq!(rx.bytes_rx(), 128 * 64 * 1024, "nothing may be lost");
        // The reader never runs dry, so the budget is what ended the
        // longest call — to the byte.
        assert!(largest >= FILL_BUDGET, "flood never outran fill: {largest}");
        assert!(
            largest < FILL_BUDGET + 4096,
            "one fill took {largest} bytes"
        );
    }

    /// A connection that reports one summary a period never has a read
    /// fill its storage, so it holds the 1 KiB it started with.
    #[test]
    fn a_steady_connection_holds_one_kib_of_read_buffer() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        let summary = WireMsg::Summary(NodeSummary {
            node: 3,
            sent_at_s: 0.5,
            models: vec![None; 4],
            idle: vec![false; 4],
            current: vec![fvs_model::FreqMhz(1000); 4],
            power_w: 512.0,
        });
        let mut wire = Vec::new();
        for round in 0..40 {
            send_flush(&mut tx, &mut wire, &summary, 0.0);
            let status = rx.fill(&mut wire.as_slice(), 0.0).unwrap();
            wire.clear();
            assert_eq!(status, FillStatus::Progress, "frame {round} never arrived");
            assert_eq!(rx.next_msg().unwrap().as_ref(), Some(&summary));
            assert_eq!(rx.next_msg().unwrap(), None);
            assert_eq!(rx.reader.capacity(), 1024);
        }
    }

    /// A chaos-delayed frame must not block frames sent after it — the
    /// transport reorders (that's what a delay fault *means*), and the
    /// held frame arrives once due.
    #[test]
    fn delayed_frames_do_not_block_the_queue() {
        let chaos = WireChaos::new(
            WireFaultPlan {
                delay_rate: 1.0,
                delay_s: 0.08,
                ..WireFaultPlan::none()
            },
            11,
        );
        let (mut tx, mut rx) = transport_pair(&chaos);
        let mut wire = Vec::new();
        send_flush(&mut tx, &mut wire, &WireMsg::Heartbeat { epoch: 1 }, 0.0);
        assert_eq!(tx.next_delay_due(), Some(0.08));
        assert!(!tx.wants_write(), "held frame must not occupy the queue");
        tx.flush(&mut wire, 0.05).unwrap();
        assert!(wire.is_empty(), "not due yet");
        tx.flush(&mut wire, 0.12).unwrap();
        assert_eq!(
            recv_one(&mut rx, &mut wire),
            WireMsg::Heartbeat { epoch: 1 }
        );
        assert!(tx.next_delay_due().is_none());
    }

    /// Chaos reset surfaces as a send error.
    #[test]
    fn chaos_reset_surfaces_on_send() {
        let chaos = WireChaos::new(
            WireFaultPlan {
                reset_rate: 1.0,
                ..WireFaultPlan::none()
            },
            3,
        );
        let (mut tx, _rx) = transport_pair(&chaos);
        let err = tx.send(&WireMsg::Heartbeat { epoch: 1 }, 0.0).unwrap_err();
        assert!(matches!(err, FvsError::Io(_)), "{err}");
    }
}
