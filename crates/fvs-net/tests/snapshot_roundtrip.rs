//! Property tests for the crash-recovery snapshot codec: arbitrary
//! snapshots — non-finite floats included — round-trip through
//! encode/decode, and truncated or bit-flipped files are rejected with
//! a clean error, never a panic and never a silently different
//! snapshot.

use fvs_cluster::{NodeRestore, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{CoordinatorConfig, CoordinatorCore, RoundSink, Snapshot, WireMsg};
use fvs_sched::FvsstAlgorithm;
use fvs_telemetry::OpenEpisode;
use proptest::prelude::*;

/// Any f64, with the non-finite specials drawn often enough to matter.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e6f64..1.0e6,
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-0.0f64),
    ]
}

fn arb_model() -> impl Strategy<Value = Option<CpiModel>> {
    (arb_f64(), arb_f64(), any::<bool>()).prop_map(|(cpi0, m, has)| {
        has.then_some(CpiModel {
            cpi0,
            mem_time_per_instr: m,
        })
    })
}

fn arb_summary() -> impl Strategy<Value = Option<NodeSummary>> {
    (
        0usize..64,
        arb_f64(),
        prop::collection::vec(
            (
                arb_model(),
                any::<bool>(),
                prop::sample::select(vec![250u32, 650, 1000, 1400]),
            ),
            1..6,
        ),
        arb_f64(),
        any::<bool>(),
    )
        .prop_map(|(node, sent_at_s, procs, power_w, has)| {
            has.then(|| NodeSummary {
                node,
                sent_at_s,
                models: procs.iter().map(|(m, _, _)| *m).collect(),
                idle: procs.iter().map(|(_, i, _)| *i).collect(),
                current: procs.iter().map(|(_, _, f)| FreqMhz(*f)).collect(),
                power_w,
            })
        })
}

fn arb_node() -> impl Strategy<Value = NodeRestore> {
    (arb_summary(), arb_f64(), any::<bool>()).prop_map(|(summary, commanded_w, dead)| NodeRestore {
        summary,
        commanded_w,
        dead,
    })
}

fn arb_episode() -> impl Strategy<Value = Option<OpenEpisode>> {
    (
        arb_f64(),
        arb_f64(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(dropped_at_s, budget_w, rounds, violation_emitted, has)| {
            has.then_some(OpenEpisode {
                dropped_at_s,
                budget_w,
                rounds,
                violation_emitted,
            })
        })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        any::<u64>(),
        arb_f64(),
        arb_f64(),
        any::<u64>(),
        prop::collection::vec(arb_node(), 0..6),
        arb_episode(),
    )
        .prop_map(
            |(epoch, budget_w, taken_at_s, rounds, nodes, episode)| Snapshot {
                epoch,
                budget_w,
                taken_at_s,
                rounds,
                nodes,
                episode,
            },
        )
}

/// Snapshot-level floats round-trip bit-class-exactly: finite values
/// keep their bits, ±inf keeps its sign, every NaN comes back NaN.
fn same_float(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

/// Summary-internal floats keep wire parity instead: non-finite
/// collapses to NaN in transit, finite is bit-exact.
fn same_wire_float(sent: f64, back: f64) -> bool {
    if sent.is_finite() {
        sent.to_bits() == back.to_bits()
    } else {
        back.is_nan()
    }
}

fn assert_summary_matches(sent: &Option<NodeSummary>, back: &Option<NodeSummary>) {
    match (sent, back) {
        (None, None) => {}
        (Some(s), Some(b)) => {
            assert_eq!(b.node, s.node);
            assert!(same_wire_float(s.sent_at_s, b.sent_at_s));
            assert!(same_wire_float(s.power_w, b.power_w));
            assert_eq!(b.idle, s.idle);
            assert_eq!(b.current, s.current);
            assert_eq!(b.models.len(), s.models.len());
            for (bm, sm) in b.models.iter().zip(&s.models) {
                match (bm, sm) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert!(same_wire_float(y.cpi0, x.cpi0));
                        assert!(same_wire_float(y.mem_time_per_instr, x.mem_time_per_instr));
                    }
                    _ => panic!("model presence changed across the snapshot"),
                }
            }
        }
        _ => panic!("summary presence changed across the snapshot"),
    }
}

/// A sink for a round nobody is connected to.
struct NoSink;

impl RoundSink for NoSink {
    fn persist(&mut self, _: &Snapshot) {}
    fn send(&mut self, _: u64, _: &WireMsg) -> bool {
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A coordinator resumed from *any* snapshot is never less
    /// conservative than it: on its first round every node is charged
    /// at least `max(restored power, last commanded)` — the worst case
    /// where the snapshot held nothing usable for it — and the budget in
    /// force is at most the stricter of the snapshot's and the
    /// configured one.
    #[test]
    fn a_resumed_core_is_never_less_conservative(
        mut snap in arb_snapshot(),
        plausible in any::<bool>(),
        nodes in 1usize..8,
    ) {
        if plausible {
            // `arb_snapshot` rarely draws a summary a restore would
            // keep; make every one name its own node and draw a real
            // power, so the restored-charge path is exercised as well.
            for (i, n) in snap.nodes.iter_mut().enumerate() {
                if let Some(s) = &mut n.summary {
                    s.node = i;
                    s.power_w = if s.power_w.is_finite() { s.power_w.abs() } else { 1.0 };
                }
            }
        }
        const WORST_W: f64 = 560.0;
        const CONFIGURED_W: f64 = 5.0e5;
        let config = CoordinatorConfig::default_lan()
            .with_worst_case_node_w(WORST_W)
            .with_initial_budget_w(CONFIGURED_W);
        let mut core = CoordinatorCore::new(nodes, FvsstAlgorithm::p630(), &config, Some(&snap));
        prop_assert_eq!(core.status().epoch, snap.epoch.saturating_add(1));
        prop_assert!(core.status().resyncing);
        core.run_round(config.period_s, &mut NoSink);

        let floor_w: f64 = (0..nodes)
            .map(|i| {
                let Some(n) = snap.nodes.get(i) else { return WORST_W };
                // What a restore keeps of a summary: one that names its
                // own node, well-shaped, drawing a real power.
                let usable = n.summary.as_ref().filter(|s| {
                    s.node == i
                        && s.idle.len() == s.models.len()
                        && s.current.len() == s.models.len()
                        && s.power_w.is_finite()
                        && s.power_w >= 0.0
                });
                match usable {
                    Some(s) if n.commanded_w.is_finite() => s.power_w.max(n.commanded_w),
                    Some(s) => s.power_w,
                    None => WORST_W,
                }
            })
            .sum();
        let status = core.status();
        prop_assert!(
            status.conservative_power_w >= floor_w * (1.0 - 1e-12),
            "charged {} W, the snapshot implies at least {} W",
            status.conservative_power_w,
            floor_w
        );
        prop_assert!(status.budget_w <= CONFIGURED_W);
        if !snap.budget_w.is_nan() {
            prop_assert!(status.budget_w <= snap.budget_w);
        }
    }

    /// encode → decode is the identity on snapshots, with the two-tier
    /// float contract: top-level floats keep their non-finite class
    /// (inf stays inf, NaN stays NaN), summary-internal floats keep
    /// wire parity (non-finite → NaN).
    #[test]
    fn snapshot_round_trips(snap in arb_snapshot()) {
        let text = snap.encode().unwrap();
        let back = Snapshot::decode(&text).unwrap();
        prop_assert_eq!(back.epoch, snap.epoch);
        prop_assert_eq!(back.rounds, snap.rounds);
        prop_assert!(same_float(snap.budget_w, back.budget_w));
        prop_assert!(same_float(snap.taken_at_s, back.taken_at_s));
        prop_assert_eq!(back.nodes.len(), snap.nodes.len());
        for (b, s) in back.nodes.iter().zip(&snap.nodes) {
            prop_assert!(same_float(s.commanded_w, b.commanded_w));
            prop_assert_eq!(b.dead, s.dead);
            assert_summary_matches(&s.summary, &b.summary);
        }
        match (&snap.episode, &back.episode) {
            (None, None) => {}
            (Some(s), Some(b)) => {
                prop_assert!(same_float(s.dropped_at_s, b.dropped_at_s));
                prop_assert!(same_float(s.budget_w, b.budget_w));
                prop_assert_eq!(b.rounds, s.rounds);
                prop_assert_eq!(b.violation_emitted, s.violation_emitted);
            }
            _ => prop_assert!(false, "episode presence changed across the snapshot"),
        }
    }

    /// Every truncation of a valid snapshot file is a clean `Err`: the
    /// checksum covers the exact body bytes, so a partial write can
    /// never restore as a shorter-but-valid snapshot.
    #[test]
    fn truncated_files_are_rejected_cleanly(snap in arb_snapshot(), cut in 0usize..100_000) {
        let text = snap.encode().unwrap();
        let cut = cut % text.len();
        // Truncating at a char boundary is enough: real torn writes are
        // byte-aligned and the reader takes &str from read_to_string.
        if text.is_char_boundary(cut) {
            prop_assert!(Snapshot::decode(&text[..cut]).is_err());
        }
    }

    /// A single flipped bit anywhere in the body fails the checksum —
    /// decode errors cleanly, never panics, never yields a snapshot.
    #[test]
    fn bit_flipped_files_are_rejected_cleanly(
        snap in arb_snapshot(),
        at in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let text = snap.encode().unwrap();
        let body_start = text.find('\n').unwrap() + 1;
        let mut bytes = text.into_bytes();
        let at = body_start + (at % (bytes.len() - body_start));
        bytes[at] ^= 1 << bit;
        let s = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(Snapshot::decode(&s).is_err(), "flip at {} survived", at);
    }
}
