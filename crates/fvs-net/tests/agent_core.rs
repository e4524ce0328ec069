//! The node role's rules as tables of calls: no socket, no thread, no
//! sleep. Every test builds an [`AgentCore`], says what time it is, and
//! reads what came back.

use fvs_cluster::{ClusterNode, FrequencyCommand};
use fvs_model::FreqMhz;
use fvs_net::{
    AgentConfig, AgentCore, Heard, Phase, Tick, WireCodec, WireMsg, CODEC_ALL, SCHEMA_VERSION,
};
use fvs_sim::MachineBuilder;
use fvs_telemetry::{SchedEvent, Telemetry};
use fvs_workloads::WorkloadSpec;
use std::time::Duration;

const NODE: usize = 3;
const FENCE: u64 = 5;
const V: u32 = SCHEMA_VERSION;
const LINK_TIMEOUT_S: f64 = 1.0;
const BACKOFF_BASE: Duration = Duration::from_millis(20);

fn config() -> AgentConfig {
    AgentConfig::default_lan()
        .with_summary_every(3)
        .with_link_timeout(Duration::from_secs_f64(LINK_TIMEOUT_S))
        .with_backoff(BACKOFF_BASE, Duration::from_millis(640))
}

fn fresh() -> AgentCore {
    fresh_with(&config())
}

fn fresh_with(config: &AgentConfig) -> AgentCore {
    let mut b = MachineBuilder::p630();
    for core in 0..4 {
        b = b.workload(core, WorkloadSpec::synthetic(100.0, 1.0e18));
    }
    AgentCore::new(ClusterNode::new(NODE, b.build(), None), config)
}

fn ack(accepted: bool, version: u32, epoch: u64, codec: u8) -> WireMsg {
    WireMsg::HelloAck {
        accepted,
        version,
        epoch,
        codec,
    }
}

fn current_ack() -> WireMsg {
    ack(true, V, FENCE, WireCodec::Binary.id())
}

fn ceiling(node: usize) -> WireMsg {
    let freqs = vec![FreqMhz(600); 4];
    WireMsg::Ceiling(FrequencyCommand { node, freqs })
}

fn accepted(reconnect: bool) -> Heard {
    Heard::Accepted { reconnect }
}

/// Node 3, speaking the current schema, in `phase` on a link opened at
/// t = 0, fenced at epoch 5.
fn at(phase: Phase) -> AgentCore {
    let mut core = fresh();
    core.connected(0.0);
    assert_eq!(core.frame(&current_ack(), 0.0), accepted(false));
    if phase == Phase::Handshaking {
        core.lost(0.0);
        core.connected(0.0);
    }
    assert_eq!(core.phase(), phase);
    core
}

/// The fence, as the agent's next hello would state it.
fn fence(core: &mut AgentCore) -> u64 {
    match core.connected(0.0) {
        WireMsg::Hello { last_epoch, .. } => last_epoch,
        other => panic!("connected() returns a hello, not {other:?}"),
    }
}

fn requested(core: &AgentCore) -> Vec<FreqMhz> {
    let machine = core.node().machine();
    (0..machine.num_cores())
        .map(|i| machine.core(i).requested_frequency())
        .collect()
}

#[test]
fn what_a_frame_means() {
    use Heard::{Applied, Fenced, Nothing, Refused};
    use Phase::{Handshaking, Running};
    let bin = WireCodec::Binary.id();
    let beat = |epoch| WireMsg::Heartbeat { epoch };
    let rows = [
        // Acks: the current coordinator, one naming a codec this build
        // has never heard of (the byte is not read), a stale one (or an
        // old build at epoch 0).
        (Handshaking, current_ack(), accepted(true)),
        (Handshaking, ack(true, V, 6, 99), accepted(true)),
        (Handshaking, ack(true, V, 4, bin), Fenced),
        // Refusals: a stale coordinator speaking our schema is fenced
        // and retried; a current one, or any other schema, is final.
        (Handshaking, ack(false, V, 4, 1), Fenced),
        (Handshaking, ack(false, V, 5, 1), Refused),
        (Handshaking, ack(false, V + 1, 0, 1), Refused),
        // Heartbeats fence mid-connection too.
        (Running, beat(4), Fenced),
        (Running, beat(6), Nothing),
        // Ceilings: ours while running, nobody else's, never before the ack.
        (Running, ceiling(NODE), Applied),
        (Running, ceiling(2), Nothing),
        (Handshaking, ceiling(NODE), Nothing),
        // An ack while running is noise, even a stale one; so is a frame
        // only a coordinator should ever see.
        (Running, ack(true, V, 4, bin), Nothing),
        (Running, WireMsg::Bye { node: NODE }, Nothing),
    ];
    for (phase, msg, heard) in rows {
        let mut core = at(phase);
        let before = requested(&core);
        assert_eq!(core.frame(&msg, 0.0), heard, "{phase:?} hears {msg:?}");
        // What it did beside answering: only an accepted ack starts the
        // agent running, only a refusal kills it, only its own ceiling
        // reaches the machine.
        let phase_after = match heard {
            Heard::Accepted { .. } => Running,
            Refused => Phase::Dead,
            _ => phase,
        };
        assert_eq!(core.phase(), phase_after, "{phase:?} after {msg:?}");
        let after = match heard {
            Applied => vec![FreqMhz(600); 4],
            _ => before,
        };
        assert_eq!(requested(&core), after, "{phase:?} after {msg:?}");
    }
}

#[test]
fn the_fence_follows_the_newest_epoch_acknowledged() {
    assert_eq!(fence(&mut fresh()), 0);
    assert_eq!(fence(&mut at(Phase::Running)), FENCE);
    // An accepted ack and a heartbeat move it up; nothing moves it down.
    let mut core = at(Phase::Handshaking);
    core.frame(&ack(true, V, 6, 0), 0.0);
    assert_eq!(fence(&mut core), 6);
    let mut core = at(Phase::Running);
    assert_eq!(
        core.frame(&WireMsg::Heartbeat { epoch: 7 }, 0.0),
        Heard::Nothing
    );
    assert_eq!(
        core.frame(&WireMsg::Heartbeat { epoch: 6 }, 0.0),
        Heard::Fenced
    );
    assert_eq!(fence(&mut core), 7);
    // A fenced or refusing sender teaches the agent nothing.
    let mut core = at(Phase::Handshaking);
    core.frame(&ack(false, V + 1, 9, 0), 0.0);
    assert_eq!(fence(&mut core), FENCE);
}

#[test]
fn the_hello_states_the_node_the_schema_the_fence_and_the_codecs() {
    let machine = MachineBuilder::p630().build();
    let config = config().with_version(V + 2);
    let mut core = AgentCore::new(ClusterNode::new(NODE, machine, None), &config);
    assert_eq!(core.phase(), Phase::Backoff);
    let hello = WireMsg::Hello {
        node: NODE,
        procs: 4,
        version: V + 2,
        last_epoch: 0,
        codecs: CODEC_ALL,
    };
    assert_eq!(core.connected(0.0), hello);
    assert_eq!(core.phase(), Phase::Handshaking);
}

#[test]
fn a_hello_waits_for_its_ack_no_longer_than_link_timeout() {
    let mut core = fresh();
    core.connected(10.0);
    assert_eq!(core.tick(10.5), Tick::Flush);
    // The ack was lost, and the coordinator's keep-alives and ceilings
    // keep coming: none of them is the ack, and none extends the wait.
    assert_eq!(
        core.frame(&WireMsg::Heartbeat { epoch: FENCE }, 10.6),
        Heard::Nothing
    );
    assert_eq!(core.frame(&ceiling(NODE), 10.7), Heard::Nothing);
    assert_eq!(core.tick(10.0 + LINK_TIMEOUT_S), Tick::Flush);
    let silent_s = 10.0 + LINK_TIMEOUT_S + 0.001;
    assert_eq!(core.tick(silent_s), Tick::Silent);
    // The caller drops the link, and the core names when to connect.
    assert_eq!(core.phase(), Phase::Handshaking);
    let wait = core.lost(silent_s).expect("silence is not a refusal") - silent_s;
    let base = BACKOFF_BASE.as_secs_f64();
    assert!(wait >= base / 2.0 - 1e-9 && wait <= base + 1e-9, "{wait}");
    assert_eq!(core.phase(), Phase::Backoff);
}

#[test]
fn any_decoded_frame_refreshes_the_link_and_silence_does_not() {
    let mut core = at(Phase::Running);
    assert_ne!(core.tick(0.9), Tick::Silent);
    // A ceiling for somebody else still proves the coordinator is there.
    assert_eq!(core.frame(&ceiling(2), 0.9), Heard::Nothing);
    assert_ne!(core.tick(1.8), Tick::Silent);
    // Ticking proves nothing. The machine advances on the tick that
    // finds the link silent all the same: it is mute, not stopped.
    let before_s = core.node().machine().now_s();
    assert_eq!(core.tick(1.95), Tick::Silent);
    assert!(core.node().machine().now_s() > before_s);
}

#[test]
fn a_summary_every_nth_running_tick_and_none_while_handshaking() {
    let mut core = fresh();
    core.connected(0.0);
    for tick in 1..=6 {
        assert_eq!(core.tick(tick as f64 * 0.01), Tick::Flush);
    }
    // The machine ran those six ticks; no ack, no window to close.
    assert!((core.node().machine().now_s() - 0.06).abs() < 1e-12);

    core.frame(&current_ack(), 0.06);
    let mut closed = Vec::new();
    for tick in 1..=7 {
        match core.tick(0.06 + tick as f64 * 0.01) {
            Tick::Summary(summary) => {
                assert_eq!(summary.node, NODE);
                assert_eq!(summary.sent_at_s, core.node().machine().now_s());
                closed.push(tick);
            }
            other => assert_eq!(other, Tick::Flush),
        }
    }
    assert_eq!(closed, [3, 6], "summary_every = 3");

    // A new connection opens a new window: the seventh tick above is
    // not carried over.
    core.lost(0.13);
    core.connected(0.2);
    core.frame(&current_ack(), 0.2);
    assert_eq!(core.tick(0.21), Tick::Flush);
    assert_eq!(core.tick(0.22), Tick::Flush);
    assert!(matches!(core.tick(0.23), Tick::Summary(_)));
}

/// A machine does not stop because its link did: it advances in every
/// phase but `Dead`, and with no link open there is nothing to call
/// silent — only, once the wait is over, a link to open.
#[test]
fn the_machine_runs_on_in_backoff_and_backoff_is_never_silent() {
    let mut core = at(Phase::Running);
    core.lost(0.0);
    assert_eq!(core.phase(), Phase::Backoff);
    let before = core.node().machine().core(0).stats().body_instructions;
    for tick in 1..=10 {
        // Long past link_timeout since the last frame at t = 0.
        let now_s = 10.0 * LINK_TIMEOUT_S + tick as f64 * 0.01;
        assert_eq!(core.tick(now_s), Tick::Connect, "tick {tick}");
    }
    assert!((core.node().machine().now_s() - 0.1).abs() < 1e-12);
    let after = core.node().machine().core(0).stats().body_instructions;
    assert!(after > before, "the machine kept working");
    // Refused for good, it stops.
    let mut core = at(Phase::Handshaking);
    core.frame(&ack(false, V + 1, 0, 0), 0.0);
    assert_eq!(core.tick(0.01), Tick::Flush);
    assert_eq!(core.node().machine().now_s(), 0.0);
}

#[test]
fn reconnect_is_false_on_the_first_accepted_handshake_and_true_after() {
    let mut core = fresh();
    // A handshake that was never accepted is not a first connection.
    core.connected(0.0);
    core.lost(0.0);
    core.connected(0.0);
    assert_eq!(core.frame(&ack(true, V, 0, 0), 0.0), accepted(false));
    // The ladder climbs while connects fail ...
    let waits: Vec<f64> = (0..4).map(|_| core.lost(0.0).unwrap()).collect();
    assert!(waits[3] >= 4.0 * BACKOFF_BASE.as_secs_f64(), "{waits:?}");
    // ... and an accepted handshake takes it back to the bottom rung.
    core.connected(1.0);
    assert_eq!(core.frame(&ack(true, V, 0, 0), 1.0), accepted(true));
    assert!(core.lost(1.0).unwrap() - 1.0 <= BACKOFF_BASE.as_secs_f64() + 1e-9);
    core.connected(2.0);
    assert_eq!(core.frame(&current_ack(), 2.0), accepted(true));
}

#[test]
fn a_refused_agent_stays_dead_through_lost() {
    let mut core = at(Phase::Handshaking);
    assert_eq!(core.frame(&ack(false, V + 1, 0, 0), 0.0), Heard::Refused);
    assert_eq!(core.phase(), Phase::Dead);
    // The caller drops the link; there is no rung to wait out, and no
    // tick ever says to connect.
    assert_eq!(core.lost(0.0), None);
    assert_eq!(core.lost(0.0), None);
    assert_eq!(core.phase(), Phase::Dead);
    for now_s in [0.0, 0.01, 1.0, 1.0e3, f64::INFINITY] {
        assert_eq!(core.tick(now_s), Tick::Flush, "{now_s} s");
    }
}

/// `Connect` comes on the first tick at or past the time `lost` drew —
/// not one tick earlier — rung after rung, and keeps coming until the
/// caller connects. The waits are the ladder's.
#[test]
fn connect_comes_exactly_when_the_drawn_delay_has_elapsed() {
    let tick_s = config().tick_s;
    let mut core = at(Phase::Running);
    let mut lost_s = 1.0;
    let mut rung = BACKOFF_BASE.as_secs_f64();
    for _ in 0..7 {
        let due = core.lost(lost_s).expect("not refused");
        let wait = due - lost_s;
        assert!(
            wait >= rung / 2.0 - 1e-9 && wait <= rung + 1e-9,
            "{wait} on {rung}"
        );
        let mut now_s = lost_s + tick_s;
        while now_s < due {
            assert_eq!(core.tick(now_s), Tick::Flush, "{now_s} s, due {due} s");
            now_s += tick_s;
        }
        assert_eq!(core.tick(now_s), Tick::Connect, "{now_s} s, due {due} s");
        assert_eq!(core.tick(now_s + tick_s), Tick::Connect, "until connected");
        // The hello goes out; no ack comes, and the link is lost again.
        core.connected(now_s + tick_s);
        assert_eq!(core.tick(now_s + 2.0 * tick_s), Tick::Flush);
        lost_s = now_s + 2.0 * tick_s;
        rung = (2.0 * rung).min(0.64);
    }
}

/// The machine's clock runs on across a backoff: one `tick_s` per tick,
/// before the wait is over and after it alike.
#[test]
fn the_machine_clock_advances_across_a_backoff() {
    let tick_s = config().tick_s;
    let mut core = at(Phase::Running);
    let due = core.lost(0.0).expect("not refused");
    let mut answers = Vec::new();
    for tick in 1..=20 {
        let before_s = core.node().machine().now_s();
        answers.push(core.tick(due + (tick - 10) as f64 * tick_s / 4.0));
        let after_s = core.node().machine().now_s();
        assert!((after_s - before_s - tick_s).abs() < 1e-12, "tick {tick}");
    }
    assert!(
        answers[..9].iter().all(|a| *a == Tick::Flush),
        "{answers:?}"
    );
    assert!(
        answers[9..].iter().all(|a| *a == Tick::Connect),
        "{answers:?}"
    );
    assert_eq!(core.phase(), Phase::Backoff);
}

/// Bugfix: a ceiling was applied entry by entry and unchecked, so a bit
/// flip that turned 750 MHz into 4 846 MHz ran the core at 4 846 MHz,
/// and a short vector left some cores at their old setting. A ceiling
/// the node cannot run is now refused whole, journaled as a wire fault,
/// and the link stays open.
#[test]
fn a_ceiling_the_node_cannot_run_is_refused_not_applied() {
    let telemetry = Telemetry::memory(16);
    let mut core = fresh_with(&config().with_telemetry(telemetry.clone()));
    core.connected(0.0);
    assert_eq!(core.frame(&current_ack(), 0.0), accepted(false));
    let before = requested(&core);
    let mhz = |f: &[u32]| f.iter().map(|&f| FreqMhz(f)).collect::<Vec<_>>();
    for (k, freqs) in [mhz(&[750, 4846, 750, 750]), mhz(&[750, 750])]
        .into_iter()
        .enumerate()
    {
        let msg = WireMsg::Ceiling(FrequencyCommand { node: NODE, freqs });
        assert_eq!(core.frame(&msg, 0.1), Heard::Nothing, "{msg:?}");
        assert_eq!(requested(&core), before, "{msg:?}");
        assert_eq!(core.phase(), Phase::Running);
        let faults = telemetry
            .events()
            .into_iter()
            .filter(|e| {
                matches!(e, SchedEvent::WireFault { node, injected: false, .. } if *node == NODE as u32)
            })
            .count();
        assert_eq!(faults, k + 1, "{msg:?}");
    }
    // One it can run still lands.
    assert_eq!(core.frame(&ceiling(NODE), 0.2), Heard::Applied);
    assert_eq!(requested(&core), vec![FreqMhz(600); 4]);
}

/// A node without a ceiling runs at `f_min` (250 MHz on the P630): from
/// construction, after a lost link and after a refusal, until an
/// accepted link delivers a ceiling — an accepted hello alone is not one.
#[test]
fn a_node_without_a_ceiling_runs_at_f_min() {
    let floor = vec![FreqMhz(250); 4];
    let lifted = vec![FreqMhz(600); 4];
    // Running under a ceiling, then the link goes.
    let lost = || {
        let mut core = at(Phase::Running);
        assert_eq!(core.frame(&ceiling(NODE), 0.0), Heard::Applied);
        core.lost(0.1);
        core
    };
    // Running under a ceiling, a new hello on the same link, refused.
    let refused = || {
        let mut core = at(Phase::Running);
        assert_eq!(core.frame(&ceiling(NODE), 0.0), Heard::Applied);
        core.connected(0.1);
        assert_eq!(core.frame(&ack(false, V + 1, 0, 0), 0.1), Heard::Refused);
        core
    };
    let accepted_only = || {
        let mut core = fresh();
        core.connected(0.0);
        assert_eq!(core.frame(&current_ack(), 0.0), accepted(false));
        assert_eq!(
            core.frame(&WireMsg::Heartbeat { epoch: FENCE }, 0.1),
            Heard::Nothing
        );
        core.tick(0.01);
        core
    };
    let first_ceiling = || {
        let mut core = accepted_only();
        assert_eq!(core.frame(&ceiling(NODE), 0.2), Heard::Applied);
        core
    };
    let rejoined = || {
        let mut core = lost();
        core.connected(0.2);
        assert_eq!(core.frame(&current_ack(), 0.2), accepted(true));
        core
    };
    let rows = [
        ("new", fresh(), &floor),
        ("after lost()", lost(), &floor),
        ("after a refusal", refused(), &floor),
        ("accepted, no ceiling yet", accepted_only(), &floor),
        ("first ceiling", first_ceiling(), &lifted),
        ("accepted again after lost()", rejoined(), &floor),
    ];
    for (label, core, want) in rows {
        assert_eq!(&requested(&core), want, "{label}");
    }
}
