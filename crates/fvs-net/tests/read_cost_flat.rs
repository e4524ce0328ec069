//! Parsing a frame must cost the same behind a megabyte of backlog as
//! behind a reconnect burst: `FrameReader::next_lent`, the call the
//! coordinator reads with, advances an offset and decodes a summary into
//! the record it lends, and nothing it does per frame may scale with
//! what is still buffered. A reader that moves its backlog forward after every parsed
//! frame reads 50-90x worse at 8 800 buffered frames than at 64.
//!
//! Timing, so `#[ignore]`d: CI's Net smoke runs it in release,
//! `cargo test --release -p fvs-net --test read_cost_flat -- --ignored --nocapture`.

use fvs_cluster::NodeSummary;
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{encode_binary, Frame, FrameReader, WireMsg};
use std::hint::black_box;
use std::time::Instant;

/// Frames buffered at once: a node's steady report, a reconnect burst,
/// what one 64 KiB `fill` leaves behind a flooding peer, a megabyte.
const BUFFERED: [usize; 4] = [1, 64, 550, 8_800];
/// Frames per timed batch: whole backlogs at every size.
const BATCH: usize = 17_600;
const ROUNDS: usize = 40;

/// A node's binary summary of four processors.
fn summary_frame() -> Vec<u8> {
    let summary = NodeSummary {
        node: 3,
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

/// Wall nanoseconds per frame over one batch: `backlog` fed whenever
/// the reader has run dry, then parsed a frame at a time.
fn batch_ns_per_frame(reader: &mut FrameReader, backlog: &[u8]) -> f64 {
    let t = Instant::now();
    for _ in 0..BATCH {
        if reader.pending() == 0 {
            reader.feed(backlog);
        }
        let Ok(Some(Frame::Summary(s))) = reader.next_lent() else {
            panic!("the backlog is whole summary frames");
        };
        black_box(s.power_w);
    }
    t.elapsed().as_nanos() as f64 / BATCH as f64
}

#[test]
#[ignore = "compares wall times; run in release"]
fn read_cost_is_flat_in_the_backlog() {
    let frame = summary_frame();
    assert_eq!(frame.len(), 119);
    let backlogs: Vec<Vec<u8>> = BUFFERED.iter().map(|&n| frame.repeat(n)).collect();
    let mut readers: Vec<FrameReader> = BUFFERED.iter().map(|_| FrameReader::new()).collect();
    // The sizes' batches alternate, so a host that slows down for a
    // while slows all of them, and the best batch of each is what a
    // frame costs there when the host leaves it alone.
    let mut best = [f64::INFINITY; BUFFERED.len()];
    for _ in 0..ROUNDS {
        for ((reader, backlog), best) in readers.iter_mut().zip(&backlogs).zip(&mut best) {
            *best = best.min(batch_ns_per_frame(reader, backlog));
        }
    }
    let row: Vec<String> = BUFFERED
        .iter()
        .zip(&best)
        .map(|(n, ns)| format!("{ns:.0} at {n}"))
        .collect();
    println!("ns/frame by frames buffered: {}", row.join(", "));
    let (burst, megabyte) = (best[1], best[3]);
    assert!(
        megabyte <= 2.0 * burst,
        "a frame costs {megabyte:.0} ns behind 8 800 buffered frames, {burst:.0} ns behind 64"
    );
}
