//! Wire-level chaos injection: [`ChaosStream`] wraps a `TcpStream` and
//! enforces a [`WireFaultPlan`] on it.
//!
//! Faults are decided per outgoing *frame*: [`Transport::send`] asks
//! [`ChaosStream::decide_write_fault`] once for each encoded frame and
//! applies the answer as it queues the bytes, so a partial write retried
//! later never re-rolls the dice and a held frame never blocks the ones
//! behind it. The decision is [`WireFaultPlan::frame_fault`], as on
//! `ClusterSim`'s simulated wire; this stream adapts it to a socket.
//! Each endpoint wraps its own socket, which covers both directions:
//! the agent's writes are the uplink, the coordinator's writes are the
//! downlink. Scripted partitions additionally blackhole the *read*
//! path, so a one-way partition behaves like the real thing: an
//! uplink-dead node keeps receiving commands it can never acknowledge,
//! a downlink-dead node keeps reporting while ignoring every ceiling.
//!
//! Determinism: same plan + same seed + same frame sequence → the same
//! fault decisions, exactly like [`fvs_faults::FaultInjector`]. A quiet
//! plan builds no injection state at all — reads and writes forward
//! straight to the inner stream, byte-identically (the differential
//! test in this module proves it).
//!
//! [`Transport::send`]: crate::transport::Transport::send

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fvs_faults::WireFaultPlan;
pub use fvs_faults::WriteFault;
use fvs_telemetry::{Counter, SchedEvent, Telemetry, WireFaultKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which endpoint of the connection this stream belongs to — decides
/// which partition direction applies to its reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSide {
    /// The node agent: writes are uplink, reads are downlink.
    Agent,
    /// The coordinator: writes are downlink, reads are uplink.
    Coordinator,
}

/// A wire-chaos configuration: the plan plus the base seed. Carried by
/// the agent and coordinator configs; quiet by default.
#[derive(Debug, Clone, Default)]
pub struct WireChaos {
    /// What to inject.
    pub plan: WireFaultPlan,
    /// Base RNG seed; each connection mixes in its own stream id so
    /// reconnects see fresh (but reproducible) fault sequences.
    pub seed: u64,
}

impl WireChaos {
    /// No chaos: streams built from this are pure passthroughs.
    pub fn none() -> Self {
        WireChaos::default()
    }

    /// Chaos with the given plan and seed.
    pub fn new(plan: WireFaultPlan, seed: u64) -> Self {
        WireChaos { plan, seed }
    }

    /// Whether the plan can never fire.
    pub fn is_quiet(&self) -> bool {
        self.plan.is_quiet()
    }

    /// The fault stream of connection `stream_id`: the base seed mixed
    /// with the id, so each connection (reconnect attempts, accept
    /// sequence) gets its own reproducible stream.
    pub(crate) fn rng(&self, stream_id: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ SEED_MIX ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// The node index before a hello names it.
const NODE_UNKNOWN: usize = usize::MAX;

/// Seed mixer, in the `FaultInjector` idiom (a fixed xor so seed 0 is
/// still a real stream).
const SEED_MIX: u64 = 0xC4A0_5BAD_F00D_5EED;

/// The journal entry of one injected fault on `node`'s connection, for
/// both transports: a `wire_fault` flagged `injected` (organic decode
/// faults are not), with the size and codec of the frame it hit (0 for
/// a blackholed read).
pub(crate) fn injected_fault(
    t_s: f64,
    node: usize,
    fault: WireFaultKind,
    frame: &[u8],
) -> SchedEvent {
    let (frame_len, codec) = sniff_frame(frame);
    SchedEvent::WireFault {
        t_s,
        node: u32::try_from(node).unwrap_or(u32::MAX),
        fault,
        injected: true,
        frame_len,
        codec,
    }
}

#[derive(Debug)]
struct ChaosCore {
    plan: WireFaultPlan,
    /// This end writes toward the coordinator (it is the agent's).
    uplink: bool,
    /// Partition windows are measured from here.
    start: Instant,
    /// Node this connection belongs to (`NODE_UNKNOWN` pre-hello; the
    /// coordinator learns it from the hello and calls `set_node`).
    node: AtomicUsize,
    rng: StdRng,
    injected: u64,
    telemetry: Telemetry,
    counter: Option<Arc<Counter>>,
}

impl ChaosCore {
    fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn node(&self) -> usize {
        self.node.load(Ordering::Relaxed)
    }

    /// Record one injected fault: the atomic count, the optional
    /// `net.wire_faults_injected` counter, and the journal entry.
    fn note(&mut self, kind: WireFaultKind, frame: &[u8]) {
        self.injected += 1;
        if let Some(c) = &self.counter {
            c.inc();
        }
        if self.telemetry.enabled() {
            let event = injected_fault(self.now_s(), self.node(), kind, frame);
            self.telemetry.emit(event);
        }
    }
}

/// Identify a written frame for fault telemetry: its total size and the
/// codec its magic claims (0 when the buffer is too short or foreign).
fn sniff_frame(buf: &[u8]) -> (u32, u8) {
    let len = u32::try_from(buf.len()).unwrap_or(u32::MAX);
    if buf.len() < 4 {
        return (len, 0);
    }
    let codec = if buf[..4] == crate::wire::MAGIC {
        crate::wire::WireCodec::Json.id()
    } else if buf[..4] == crate::wire::MAGIC_V2 {
        crate::wire::WireCodec::Binary.id()
    } else {
        0
    };
    (len, codec)
}

/// A `TcpStream` wrapper that injects [`WireFaultPlan`] faults.
///
/// Built from a quiet plan it holds no injection state: every read and
/// write forwards directly to the inner stream (byte-identical — the
/// acceptance differential test).
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    core: Option<Box<ChaosCore>>,
}

impl ChaosStream {
    /// Wrap with no chaos at all (alias for a quiet plan).
    pub fn passthrough(inner: TcpStream) -> Self {
        ChaosStream { inner, core: None }
    }

    /// Wrap `inner` under `chaos`. `stream_id` disambiguates
    /// connections (reconnect attempts, accept sequence) so each gets
    /// its own reproducible fault stream; `start` anchors the partition
    /// clock (share one `Instant` across streams to script
    /// cluster-wide windows); injected faults are journaled through
    /// `telemetry` and counted on `counter` when given.
    pub fn wrap(
        inner: TcpStream,
        chaos: &WireChaos,
        side: ChaosSide,
        stream_id: u64,
        start: Instant,
        telemetry: Telemetry,
        counter: Option<Arc<Counter>>,
    ) -> Self {
        if chaos.is_quiet() {
            return ChaosStream::passthrough(inner);
        }
        ChaosStream {
            inner,
            core: Some(Box::new(ChaosCore {
                plan: chaos.plan.clone(),
                uplink: side == ChaosSide::Agent,
                start,
                node: AtomicUsize::new(NODE_UNKNOWN),
                rng: chaos.rng(stream_id),
                injected: 0,
                telemetry,
                counter,
            })),
        }
    }

    /// Name the node this connection belongs to (the coordinator calls
    /// this once the hello arrives; partitions target nodes by index).
    pub fn set_node(&self, node: usize) {
        if let Some(core) = &self.core {
            core.node.store(node, Ordering::Relaxed);
        }
    }

    /// Injected faults so far on this stream.
    pub fn injected(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.injected)
    }

    /// Passthrough to [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    /// Passthrough to [`TcpStream::set_nonblocking`].
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.inner.set_nonblocking(on)
    }

    /// The fault one outgoing frame takes
    /// ([`WireFaultPlan::frame_fault`]), journaled here for the caller
    /// to apply. On [`WriteFault::Reset`] the socket has already been
    /// shut down; surface `ConnectionReset`.
    pub fn decide_write_fault(&mut self, frame: &[u8]) -> WriteFault {
        let Some(core) = self.core.as_deref_mut() else {
            return WriteFault::Deliver;
        };
        let (node, uplink, now_s) = (core.node(), core.uplink, core.now_s());
        let Some((kind, fault)) = core
            .plan
            .frame_fault(frame, node, uplink, now_s, &mut core.rng)
        else {
            return WriteFault::Deliver;
        };
        core.note(kind, frame);
        if fault == WriteFault::Reset {
            let _ = self.inner.shutdown(Shutdown::Both);
        }
        fault
    }

    /// One raw `write` on the inner socket — no fault logic, no
    /// `write_all` loop. The nonblocking `Transport` uses this to
    /// drain its queue, tracking partial-write offsets itself.
    pub fn write_raw(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    /// Passthrough to [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
    }

    /// Passthrough to [`TcpStream::shutdown`].
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        self.inner.shutdown(how)
    }

    /// Passthrough to [`TcpStream::peer_addr`].
    pub fn peer_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.inner.peer_addr()
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(core) = self.core.as_deref_mut().filter(|_| n > 0) {
            // Reads travel the other way from writes.
            let uplink = !core.uplink;
            if let Some(kind) = core.plan.partitioned(core.node(), uplink, core.now_s()) {
                // Drain-and-discard: the bytes vanish as if the link
                // were down, and the caller sees its usual timeout.
                core.note(kind, &[]);
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "chaos partition blackholed the read",
                ));
            }
        }
        Ok(n)
    }
}

impl AsRawFd for ChaosStream {
    fn as_raw_fd(&self) -> RawFd {
        self.inner.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{
        read_to_end, recv_one, transport_pair, transport_pair_journaled,
    };
    use crate::wire::{encode_with, WireCodec, WireMsg};

    fn beat(epoch: u64) -> WireMsg {
        WireMsg::Heartbeat { epoch }
    }

    /// The acceptance differential: what a `none`-plan transport puts on
    /// the wire is the encoded frames end to end and nothing else — byte
    /// for byte what a bare socket would carry — in both codecs.
    #[test]
    fn quiet_chaos_stream_is_byte_identical_to_bare() {
        let (mut tx, rx) = transport_pair(&WireChaos::none());
        let mut bare = Vec::new();
        for i in 0..50 {
            let codec = [WireCodec::Json, WireCodec::Binary][i % 2];
            bare.extend(encode_with(&beat(i as u64), codec).unwrap());
            tx.set_codec(codec);
            tx.send(&beat(i as u64)).unwrap();
            tx.flush().unwrap();
        }
        assert_eq!(tx.stream().injected(), 0);
        drop(tx);
        assert_eq!(read_to_end(rx), bare);
    }

    /// Same plan + same seed + same frames → the same surviving byte
    /// stream and the same injected-fault count; a different seed gives
    /// a different fault stream.
    #[test]
    fn fault_stream_is_deterministic_in_the_seed() {
        let plan = WireFaultPlan {
            drop_rate: 0.3,
            duplicate_rate: 0.2,
            ..WireFaultPlan::none()
        };
        let run = |seed: u64| -> (Vec<u8>, u64) {
            let (mut tx, rx) = transport_pair(&WireChaos::new(plan.clone(), seed));
            for i in 0..100 {
                tx.send(&beat(i)).unwrap();
                tx.flush().unwrap();
            }
            let injected = tx.stream().injected();
            drop(tx);
            (read_to_end(rx), injected)
        };
        let (a_bytes, a_injected) = run(42);
        let (b_bytes, b_injected) = run(42);
        assert_eq!(a_bytes, b_bytes);
        assert_eq!(a_injected, b_injected);
        assert!(a_injected > 0, "rates this high must fire in 100 frames");
        let (c_bytes, _) = run(43);
        assert_ne!(a_bytes, c_bytes, "different seed, different stream");
    }

    /// An uplink partition window blackholes writes from the agent side
    /// while it is active and heals afterwards.
    #[test]
    fn uplink_partition_blackholes_agent_writes_then_heals() {
        let plan = WireFaultPlan::parse("partition_up=3@0:0.2").unwrap();
        let (mut tx, mut rx) = transport_pair(&WireChaos::new(plan, 1));
        let healed = Instant::now() + Duration::from_millis(250);
        tx.stream().set_node(3);
        tx.send(&beat(1)).unwrap(); // inside the window: blackholed
        tx.flush().unwrap();
        assert_eq!(tx.stream().injected(), 1);
        std::thread::sleep(healed.saturating_duration_since(Instant::now()));
        tx.send(&beat(2)).unwrap();
        tx.flush().unwrap();
        assert_eq!(recv_one(&mut rx), beat(2));
    }

    /// A delayed frame is held and delivered late, not lost.
    #[test]
    fn delayed_frames_arrive_late_not_never() {
        let plan = WireFaultPlan {
            delay_rate: 1.0,
            delay_s: 0.05,
            ..WireFaultPlan::none()
        };
        let (mut tx, mut rx) = transport_pair(&WireChaos::new(plan, 5));
        tx.send(&beat(1)).unwrap();
        tx.flush().unwrap();
        std::thread::sleep(Duration::from_millis(80));
        // The second frame is delayed in turn by the rate-1.0 plan; the
        // flush behind it finds the first one due.
        tx.send(&beat(2)).unwrap();
        tx.flush().unwrap();
        assert_eq!(recv_one(&mut rx), beat(1));
        assert_eq!(tx.stream().injected(), 2, "both sends hit the delay fault");
    }

    /// Injected faults are journaled as `wire_fault` events flagged
    /// `injected:true`.
    #[test]
    fn injected_faults_are_journaled() {
        let telemetry = Telemetry::memory(64);
        let plan = WireFaultPlan {
            drop_rate: 1.0,
            ..WireFaultPlan::none()
        };
        let (mut tx, _rx) = transport_pair_journaled(&WireChaos::new(plan, 9), telemetry.clone());
        tx.stream().set_node(2);
        tx.send(&beat(1)).unwrap();
        assert!(telemetry.events().iter().any(|e| matches!(
            e,
            SchedEvent::WireFault {
                node: 2,
                fault: WireFaultKind::Drop,
                injected: true,
                ..
            }
        )));
    }
}
