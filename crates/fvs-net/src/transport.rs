//! The transport: one connection's codec, chaos, framing and queueing
//! state behind a single API, the same type at both ends.
//!
//! * **Codec seam** — frames go out under the negotiated [`WireCodec`]
//!   (handshake frames always JSON, see [`encode_with`]); incoming
//!   frames decode by magic, so both codecs are always readable.
//! * **Chaos as a layer** — outgoing frames take their fault decision
//!   from [`ChaosStream::decide_write_fault`] at enqueue time, which is
//!   what makes fault injection compose with nonblocking writes: a
//!   partial write retried later must not re-roll the dice, and a
//!   chaos-delayed frame must not block frames behind it.
//! * **Queueing** — writes never block. Bytes that don't fit the socket
//!   buffer wait in an outbound queue with a partial-write offset;
//!   [`Transport::flush`] drains what the socket will take.
//!
//! Every transport in production sits on a nonblocking socket in a
//! [`Reactor`](crate::reactor::Reactor), driven off readiness events:
//! thousands of them in the coordinator's, one per agent in an agent
//! loop's. The one blocking moment is an agent's hello, sent before the
//! socket is handed to the reactor.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use crate::chaos::{ChaosStream, WriteFault};
use crate::error::FvsError;
use crate::wire::{encode_with, FrameReader, WireCodec, WireMsg};
use fvs_cluster::NodeSummary;
use fvs_telemetry::WireFaultKind;

/// Most bytes one [`Transport::fill`] call takes off its socket: well
/// above what a node sends between two polls (a reconnect burst is
/// under 8 KiB), small enough that the caller is back within a few
/// hundred microseconds.
const FILL_BUDGET: u64 = 64 * 1024;

/// What [`Transport::fill`] observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStatus {
    /// Bytes arrived and were buffered; call [`Transport::next_msg`].
    Progress,
    /// Nothing available right now (`WouldBlock` / read timeout).
    Idle,
    /// The peer closed the connection (orderly EOF).
    Eof,
}

/// One connection's transport state. See the module docs.
#[derive(Debug)]
pub struct Transport {
    stream: ChaosStream,
    reader: FrameReader,
    codec: WireCodec,
    /// Complete frames (post-fault-decision) awaiting socket space.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written.
    out_pos: usize,
    /// Total bytes across `outq` (backpressure accounting).
    queued: usize,
    /// Chaos-delayed frames and their due times, promoted into `outq`
    /// by [`Transport::flush`]. Kept separate so a held frame never
    /// blocks the frames behind it.
    delayed: Vec<(Instant, Vec<u8>)>,
    /// Frames successfully enqueued (i.e. sent, as far as the caller
    /// is concerned — chaos drops count, since the caller can't tell).
    frames_tx: u64,
    /// Total bytes [`Transport::fill`] has read off the socket.
    bytes_rx: u64,
}

impl Transport {
    /// Wrap a connection. The write codec starts as JSON — the only
    /// encoding legal before negotiation completes.
    pub fn new(stream: ChaosStream) -> Self {
        Transport {
            stream,
            reader: FrameReader::new(),
            codec: WireCodec::Json,
            outq: VecDeque::new(),
            out_pos: 0,
            queued: 0,
            delayed: Vec::new(),
            frames_tx: 0,
            bytes_rx: 0,
        }
    }

    /// The underlying chaos-wrapped socket (for `set_node`,
    /// `peer_addr`, timeouts and shutdown).
    pub fn stream(&self) -> &ChaosStream {
        &self.stream
    }

    /// Switch the write codec once negotiation picks one. Reads are
    /// unaffected — the frame magic decides per frame.
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// The negotiated write codec.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// Frames handed to [`Transport::send`] so far.
    pub fn frames_tx(&self) -> u64 {
        self.frames_tx
    }

    /// Total bytes read off the socket so far (metrics delta source).
    pub fn bytes_rx(&self) -> u64 {
        self.bytes_rx
    }

    /// Bytes sitting in the outbound queue (excluding delayed frames).
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether [`Transport::flush`] has socket work to do right now —
    /// the reactor's cue to poll for write readiness.
    pub fn wants_write(&self) -> bool {
        !self.outq.is_empty()
    }

    /// When the earliest chaos-delayed frame comes due, if any — the
    /// cue to call [`Transport::flush`] again even without new sends.
    pub fn next_delay_due(&self) -> Option<Instant> {
        self.delayed.iter().map(|(due, _)| *due).min()
    }

    /// Encode `msg` under the negotiated codec, take the chaos fault
    /// decision, and queue the surviving bytes. Never blocks; call
    /// [`Transport::flush`] to move the queue onto the socket.
    ///
    /// An `Err` means the connection is unusable (encode failure or a
    /// chaos reset that already shut the socket down).
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), FvsError> {
        let frame = encode_with(msg, self.codec)?;
        self.frames_tx += 1;
        match self.stream.decide_write_fault(&frame) {
            WriteFault::Deliver => self.enqueue(frame),
            WriteFault::Drop => {}
            WriteFault::Corrupt(bytes) => self.enqueue(bytes),
            WriteFault::Duplicate => {
                self.enqueue(frame.clone());
                self.enqueue(frame);
            }
            WriteFault::Delay(hold) => self.delayed.push((Instant::now() + hold, frame)),
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

    /// Promote due delayed frames, then write as much of the queue as
    /// the socket accepts, returning at `WouldBlock` with the remainder
    /// queued. Errors mean the connection is dead.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.delayed.is_empty() {
            let now = Instant::now();
            let mut i = 0;
            while i < self.delayed.len() {
                if self.delayed[i].0 <= now {
                    let (_, frame) = self.delayed.remove(i);
                    self.enqueue(frame);
                } else {
                    i += 1;
                }
            }
        }
        while let Some(front) = self.outq.front() {
            match self.stream.write_raw(&front[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
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

    /// Read what the socket has straight into the frame buffer, at most
    /// [`FILL_BUDGET`] bytes a call. Returns after the first read that
    /// left room (the socket had no more than that), when the budget is
    /// spent, the socket has nothing (`WouldBlock` or a read timeout),
    /// the peer closes, or an error surfaces.
    ///
    /// The budget is what keeps a peer that writes faster than this side
    /// reads from holding the caller here forever (no frame parsed, no
    /// round run, no stop flag seen, the buffer growing by whatever
    /// arrives). The pollers are level-triggered, so whatever is left in
    /// the socket — more bytes, or the EOF behind them — is reported
    /// again on the next poll; that is also why no call ends by asking
    /// once more only to be told `WouldBlock`.
    pub fn fill(&mut self) -> io::Result<FillStatus> {
        let mut progressed = false;
        let spent_at = self.bytes_rx + FILL_BUDGET;
        while self.bytes_rx < spent_at {
            let left = (spent_at - self.bytes_rx) as usize;
            match self.reader.read_from(&mut self.stream, left) {
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

    /// Hand back a summary taken from [`Transport::next_msg`] (or the
    /// one an ingest displaced): the next binary summary is decoded into
    /// its vectors (see [`FrameReader::recycle`]).
    pub fn recycle(&mut self, summary: NodeSummary) {
        self.reader.recycle(summary);
    }

    /// Parse the next buffered frame; `Ok(None)` means more bytes are
    /// needed. On `Err`, [`Transport::last_fault`] (and its length and
    /// codec companions) classify the failure for telemetry.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, FvsError> {
        self.reader.next_frame()
    }

    /// Classification of the most recent [`Transport::next_msg`] error.
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

    /// Best-effort goodbye: send + flush, ignoring failures (the peer
    /// may already be gone).
    pub fn send_best_effort(&mut self, msg: &WireMsg) {
        let _ = self.send(msg);
        let _ = self.flush();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::{ChaosSide, WireChaos};
    use crate::wire::SCHEMA_VERSION;
    use fvs_faults::WireFaultPlan;
    use fvs_telemetry::Telemetry;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// A connected loopback socket pair.
    pub(crate) fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// A loopback pair: the sending end an agent's socket under `chaos`,
    /// the receiving end bare.
    pub(crate) fn transport_pair(chaos: &WireChaos) -> (Transport, Transport) {
        transport_pair_journaled(chaos, Telemetry::disabled())
    }

    pub(crate) fn transport_pair_journaled(
        chaos: &WireChaos,
        journal: Telemetry,
    ) -> (Transport, Transport) {
        let (a, b) = pair();
        let tx = Transport::new(ChaosStream::wrap(
            a,
            chaos,
            ChaosSide::Agent,
            0,
            Instant::now(),
            journal,
            None,
        ));
        let rx = Transport::new(ChaosStream::passthrough(b));
        (tx, rx)
    }

    /// Every byte that reaches `rx` before its peer closes, unparsed.
    pub(crate) fn read_to_end(mut rx: Transport) -> Vec<u8> {
        use std::io::Read;
        rx.stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut bytes = Vec::new();
        rx.stream.read_to_end(&mut bytes).unwrap();
        bytes
    }

    pub(crate) fn recv_one(rx: &mut Transport) -> WireMsg {
        let deadline = Instant::now() + Duration::from_secs(5);
        rx.stream()
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        while Instant::now() < deadline {
            if let Some(msg) = rx.next_msg().unwrap() {
                return msg;
            }
            let _ = rx.fill().unwrap();
        }
        panic!("no frame within deadline");
    }

    #[test]
    fn frames_cross_in_both_codecs() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        tx.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        tx.flush().unwrap();
        assert_eq!(recv_one(&mut rx), WireMsg::Heartbeat { epoch: 1 });

        tx.set_codec(WireCodec::Binary);
        tx.send(&WireMsg::Heartbeat { epoch: 2 }).unwrap();
        tx.flush().unwrap();
        // The receiver never negotiated binary — the magic carries it.
        assert_eq!(recv_one(&mut rx), WireMsg::Heartbeat { epoch: 2 });
    }

    #[test]
    fn nonblocking_sender_queues_past_a_full_socket() {
        let (mut tx, mut rx) = transport_pair(&WireChaos::none());
        tx.stream().set_nonblocking(true).unwrap();
        // Stuff the socket until writes stop landing, then some more.
        let msg = WireMsg::Hello {
            node: 1,
            procs: 64,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: crate::wire::CODEC_ALL,
        };
        let mut sent = 0u64;
        while tx.queued_bytes() == 0 && sent < 200_000 {
            tx.send(&msg).unwrap();
            tx.flush().unwrap();
            sent += 1;
        }
        assert!(tx.queued_bytes() > 0, "loopback buffers are not infinite");
        for _ in 0..100 {
            tx.send(&msg).unwrap();
        }
        sent += 100;
        // Drain the receiver; the sender's queue must fully unwind.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0u64;
        rx.stream()
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        while got < sent && Instant::now() < deadline {
            tx.flush().unwrap();
            let _ = rx.fill().unwrap();
            while let Some(m) = rx.next_msg().unwrap() {
                assert_eq!(m, msg);
                got += 1;
            }
        }
        assert_eq!(got, sent);
        assert_eq!(tx.queued_bytes(), 0);
    }

    /// Against a peer that writes faster than `fill` reads, every call
    /// still returns after its byte budget: the caller gets to parse
    /// frames, run rounds and see its stop flag.
    #[test]
    fn fill_returns_under_a_flooding_writer() {
        use std::io::Write;
        let (mut client, server) = pair();
        let writer = std::thread::spawn(move || {
            let block = vec![0u8; 64 * 1024];
            for _ in 0..128 {
                if client.write_all(&block).is_err() {
                    break;
                }
            }
        });
        let mut rx = Transport::new(ChaosStream::passthrough(server));
        rx.stream().set_nonblocking(true).unwrap();
        let mut largest = 0;
        loop {
            let before = rx.bytes_rx();
            match rx.fill().unwrap() {
                FillStatus::Eof => break,
                FillStatus::Idle => std::thread::yield_now(),
                FillStatus::Progress => largest = largest.max(rx.bytes_rx() - before),
            }
        }
        writer.join().unwrap();
        assert_eq!(rx.bytes_rx(), 128 * 64 * 1024, "nothing may be lost");
        // 64 KiB writes against reads that never exceed what is left of
        // the budget: the socket does not run dry first, so the budget is
        // what ended the longest call — to the byte.
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
        rx.stream().set_nonblocking(true).unwrap();
        let summary = WireMsg::Summary(NodeSummary {
            node: 3,
            sent_at_s: 0.5,
            models: vec![None; 4],
            idle: vec![false; 4],
            current: vec![fvs_model::FreqMhz(1000); 4],
            power_w: 512.0,
        });
        for round in 0..40 {
            tx.set_codec(if round % 2 == 0 {
                WireCodec::Json
            } else {
                WireCodec::Binary
            });
            tx.send(&summary).unwrap();
            tx.flush().unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while rx.fill().unwrap() != FillStatus::Progress {
                assert!(Instant::now() < deadline, "frame {round} never arrived");
                std::thread::yield_now();
            }
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
        tx.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap();
        tx.flush().unwrap();
        assert!(tx.next_delay_due().is_some());
        assert!(!tx.wants_write(), "held frame must not occupy the queue");
        std::thread::sleep(Duration::from_millis(120));
        tx.flush().unwrap();
        assert_eq!(recv_one(&mut rx), WireMsg::Heartbeat { epoch: 1 });
        assert!(tx.next_delay_due().is_none());
    }

    /// Chaos reset surfaces as a send error and the socket is dead.
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
        let err = tx.send(&WireMsg::Heartbeat { epoch: 1 }).unwrap_err();
        assert!(matches!(err, FvsError::Io(_)), "{err}");
    }
}
