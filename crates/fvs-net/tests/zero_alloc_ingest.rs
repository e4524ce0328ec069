//! Counting-allocator proof of the coordinator read path's steady-state
//! claim: after one warm-up burst, a reconnect herd's binary summaries
//! travel socket → `Transport::fill` → `Transport::next_lent` (the reader
//! lends its record as `Frame::Summary`) → `CoordinatorCore::frame` →
//! `GlobalCoordinator::ingest_swap` without one heap allocation. The
//! read lands in storage the reader already owns, the summary is decoded
//! into the record that holds what the previous ingest displaced, and
//! the coordinator swaps instead of dropping. Take a summary out of the
//! record (`Frame::into_msg`, what `next_frame` does), or let `fill`
//! size its storage per call again, and this fails.
//!
//! Runs as a `harness = false` binary for the reason given in
//! `crates/fvs-sched/tests/zero_alloc.rs`: the counters are exact only
//! in a single-threaded process.

use fvs_cluster::NodeSummary;
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{
    encode_binary, CoordinatorConfig, CoordinatorCore, FillStatus, Frame, Ingest, Received,
    Transport, WireMsg, CODEC_ALL, SCHEMA_VERSION,
};
use fvs_sched::FvsstAlgorithm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const CONNS: usize = 8;
const FRAMES_PER_BURST: usize = 64;
const PROCS: usize = 4;

/// The `frame`th summary of a burst from `node`; the power tells them
/// apart, so the end state shows the last one won.
fn summary(node: usize, frame: usize) -> NodeSummary {
    NodeSummary {
        node,
        sent_at_s: 1.0,
        models: (0..PROCS)
            .map(|p| (p != 3).then(|| CpiModel::from_components(1.0 + p as f64, 1.0e-9)))
            .collect(),
        idle: vec![false, false, false, true],
        current: vec![FreqMhz(1000); 4],
        power_w: 400.0 + frame as f64,
    }
}

/// Write every connection's burst, then read, parse and ingest until
/// all of it is in the coordinator, as the coordinator's event loop
/// does. Returns the summaries accepted.
fn burst(
    clients: &mut [TcpStream],
    servers: &mut [(TcpStream, Transport)],
    bursts: &[Vec<u8>],
    core: &mut CoordinatorCore,
) -> usize {
    for (client, bytes) in clients.iter_mut().zip(bursts) {
        client.write_all(bytes).expect("loopback takes a burst");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut seen, mut accepted) = (0, 0);
    while seen < CONNS * FRAMES_PER_BURST {
        assert!(Instant::now() < deadline, "burst stalled at {seen} frames");
        for (conn, (socket, transport)) in servers.iter_mut().enumerate() {
            match transport.fill(socket, 0.0).expect("loopback read") {
                FillStatus::Progress => {}
                FillStatus::Idle => continue,
                FillStatus::Eof => panic!("nobody closed this connection"),
            }
            while let Some(frame) = transport.next_lent().expect("clean frames") {
                assert!(
                    matches!(frame, Frame::Summary(_)),
                    "only summaries were sent"
                );
                seen += 1;
                let received = core.frame(conn as u64, frame, 1.0);
                accepted += usize::from(received == Received::Summary(Ingest::Accepted));
            }
        }
    }
    accepted
}

fn main() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let mut clients = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..CONNS {
        clients.push(TcpStream::connect(addr).expect("connect"));
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        servers.push((server, Transport::new()));
    }
    let bursts: Vec<Vec<u8>> = (0..CONNS)
        .map(|node| {
            (0..FRAMES_PER_BURST)
                .flat_map(|frame| encode_binary(&WireMsg::Summary(summary(node, frame))).unwrap())
                .collect()
        })
        .collect();
    let config = CoordinatorConfig::default_lan();
    let mut core = CoordinatorCore::new(CONNS, FvsstAlgorithm::p630(), &config, None);
    for node in 0..CONNS {
        let hello = WireMsg::Hello {
            node,
            procs: PROCS,
            version: SCHEMA_VERSION,
            last_epoch: 0,
            codecs: CODEC_ALL,
        };
        let received = core.frame(node as u64, Frame::Msg(hello), 0.0);
        assert!(received.open(), "{received:?}");
    }

    // Warm-up: the read storage grows to what a burst needs, every node
    // gets its first summary stored and every reader's record vectors
    // to decode into. (Twice, in case the first one's bytes trickled in and no
    // read found the storage full.)
    for _ in 0..2 {
        let warm = burst(&mut clients, &mut servers, &bursts, &mut core);
        assert_eq!(warm, CONNS * FRAMES_PER_BURST);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut accepted = 0;
    for _ in 0..3 {
        accepted += burst(&mut clients, &mut servers, &bursts, &mut core);
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(accepted, 3 * CONNS * FRAMES_PER_BURST);
    for node in 0..CONNS {
        let held = core
            .coordinator()
            .latest_summary(node)
            .expect("node reported");
        assert_eq!(held, &summary(node, FRAMES_PER_BURST - 1));
    }
    assert_eq!(
        allocated, 0,
        "{allocated} heap allocations over {accepted} steady-state summary frames"
    );
    println!(
        "zero_alloc_ingest: {accepted} summary frames over {CONNS} connections, 0 allocations"
    );
}
