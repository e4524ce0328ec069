//! The coordinator's read path, a frame at a time.
//!
//! `net_read_path/reader/{1,64,550,8800}` is ns per frame of
//! `FrameReader::next_frame` with that many binary four-processor
//! summaries (119 bytes each) fed at once and parsed one by one: 1 is a
//! node's steady report, 64 a reconnect burst, 550 what a 64 KiB `fill`
//! leaves behind a flooding peer, 8 800 a megabyte of backlog. Parsing
//! advances an offset, so the rows should read alike; a reader that
//! moves its backlog per frame reads 90× worse at 8 800 than at 64. The
//! `net-smoke` CI job runs `--quick` (these rows only, five samples) and
//! holds the 8 800 row to at most twice the 64 row — a ratio on one
//! host, so it holds on any runner.
//!
//! `net_read_path/loopback/64` is ns per frame of the whole path the
//! coordinator's event loop walks for a summary — `Transport::fill` off
//! a loopback socket, `next_msg`, `GlobalCoordinator::ingest_swap`,
//! `recycle` — with a burst of 64 written whenever the socket has run
//! dry (the `write` is inside the measurement: one per 64 frames).

use criterion::{BenchmarkId, Criterion};
use fvs_cluster::{GlobalCoordinator, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{encode_binary, FrameReader, Transport, WireMsg};
use fvs_sched::FvsstAlgorithm;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};

fn summary_frame(node: usize) -> Vec<u8> {
    let summary = NodeSummary {
        node,
        sent_at_s: 1.0,
        models: (0..4)
            .map(|p| Some(CpiModel::from_components(1.0 + p as f64 * 0.25, 2.0e-9)))
            .collect(),
        idle: vec![false; 4],
        current: vec![FreqMhz(1000); 4],
        power_w: 560.0,
    };
    encode_binary(&WireMsg::Summary(summary)).expect("a four-processor summary encodes")
}

fn bench_reader(c: &mut Criterion, quick: bool) {
    let mut g = c.benchmark_group("net_read_path/reader");
    if quick {
        g.sample_size(5);
    }
    for &buffered in &[1usize, 64, 550, 8_800] {
        let backlog = summary_frame(3).repeat(buffered);
        let mut reader = FrameReader::new();
        g.bench_with_input(
            BenchmarkId::from_parameter(buffered),
            &backlog,
            |b, backlog| {
                b.iter(|| {
                    if reader.pending() == 0 {
                        reader.feed(backlog);
                    }
                    let Ok(Some(WireMsg::Summary(s))) = reader.next_frame() else {
                        panic!("the backlog is whole summary frames");
                    };
                    black_box(s.power_w);
                    reader.recycle(s);
                });
            },
        );
    }
    g.finish();
}

fn bench_loopback(c: &mut Criterion) {
    const BURST: usize = 64;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
    let (mut server, _) = listener.accept().expect("accept");
    server.set_nonblocking(true).expect("nonblocking");
    let mut rx = Transport::new();
    let burst = summary_frame(0).repeat(BURST);
    let mut coordinator = GlobalCoordinator::new(FvsstAlgorithm::p630(), 1);
    let mut in_flight = 0usize;

    let mut g = c.benchmark_group("net_read_path/loopback");
    g.bench_function(BenchmarkId::from_parameter(BURST), |b| {
        b.iter(|| loop {
            if let Some(msg) = rx.next_msg().expect("clean frames") {
                let WireMsg::Summary(mut s) = msg else {
                    panic!("only summaries were sent");
                };
                in_flight -= 1;
                black_box(coordinator.ingest_swap(&mut s));
                rx.recycle(s);
                break;
            }
            if in_flight == 0 {
                client.write_all(&burst).expect("loopback takes a burst");
                in_flight = BURST;
            }
            rx.fill(&mut server, 0.0).expect("loopback read");
        });
    });
    g.finish();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut criterion = Criterion::default();
    bench_reader(&mut criterion, quick);
    if !quick {
        bench_loopback(&mut criterion);
    }
}
