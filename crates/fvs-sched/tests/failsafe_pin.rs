//! A fail-safe pin with idle detection off. Pass 1 then keeps a pinned
//! processor at the frequency it reports, so the pin reaches the host
//! only by being folded into the command in force: in the hand-off that
//! pins, in every later round, and in the round's `Desired` journal line.

use fvs_model::counters::{synthesize_delta, CounterDelta};
use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{FvsstScheduler, PlatformView, Policy, SchedulerConfig, TickContext};
use fvs_telemetry::{SchedEvent, Telemetry};

fn sample_for(model: &CpiModel, mem_rate: f64, f: FreqMhz) -> CounterDelta {
    let instr = model.perf_at(f) * 0.01;
    synthesize_delta(model, 0.0, 0.0, mem_rate, instr, f)
}

/// Processor 1's `Desired` line of `round`, if journaled.
fn desired_of_1(telemetry: &Telemetry, round: u64) -> Option<FreqMhz> {
    (telemetry.events().iter()).find_map(|e| match *e {
        SchedEvent::Desired {
            round: r,
            proc: 1,
            desired_mhz,
            ..
        } if r == round => Some(FreqMhz(desired_mhz)),
        _ => None,
    })
}

/// Pinned as `verify_walk_table` pins: processor 1's commands never land
/// until the pin is released.
#[test]
fn a_failsafe_pin_binds_with_idle_detection_off() {
    let platform = PlatformView::p630();
    let telemetry = Telemetry::memory(256);
    let cfg = SchedulerConfig::p630()
        .with_idle_detection(false)
        .with_telemetry(telemetry.clone());
    let f_min = cfg.algorithm.freq_set.min();
    let mut s = FvsstScheduler::new(2, cfg);
    let compute = CpiModel::from_components(1.0, 0.0);
    let membound = CpiModel::from_components(1.0, 10.0e-9);
    let mut current = [FreqMhz(1000); 2];
    let mut tick = 0u64;
    // One tick, timer at n = 10: processor 1 moves only when `lands`.
    // Returns processor 1's command and desired frequency, if any.
    let mut step = |s: &mut FvsstScheduler, current: &mut [FreqMhz; 2], lands: bool| {
        let samples = [
            sample_for(&compute, 0.0, current[0]),
            sample_for(&membound, 10.0e-9 / 393.0e-9, current[1]),
        ];
        let c = TickContext {
            now_s: (tick + 1) as f64 * 0.01,
            tick,
            budget_w: f64::INFINITY,
            measured_power_w: 0.0,
            samples: &samples,
            idle: &[false, false],
            transitional: &[false, false],
            current: &current[..],
            ground_truth: &[],
            platform: &platform,
        };
        tick += 1;
        let d = s.on_tick(&c)?;
        current[0] = d.freqs[0];
        if lands {
            current[1] = d.freqs[1];
        }
        Some((d.freqs[1], d.desired[1]))
    };

    // Tick 0, the bootstrap round, sends processor 1 below f_max; the
    // command never lands. Retries at ticks 1, 3 and 7, the pin at 8.
    let (f1, _) = step(&mut s, &mut current, false).expect("bootstrap round");
    assert!(f1 < FreqMhz(1000) && f1 > f_min);
    for _ in 1..8 {
        step(&mut s, &mut current, false);
    }
    assert!(!s.failsafe_pinned(1));
    // The hand-off that pins, and the nudge on the tick after.
    for _ in 8..10 {
        assert_eq!(step(&mut s, &mut current, false), Some((f_min, f_min)));
        assert!(s.failsafe_pinned(1));
    }
    // Tick 10, the timer round: pass 1 keeps processor 1 at the f_max it
    // reports, and the fold commands f_min, journaled as desired.
    assert_eq!(s.schedules_run(), 1);
    assert_eq!(step(&mut s, &mut current, false), Some((f_min, f_min)));
    assert_eq!(s.schedules_run(), 2);
    assert_eq!(desired_of_1(&telemetry, 1), Some(f_min));

    // Released: f_min stays the command in force, re-issued (and now
    // landing) by the walk, until the next round.
    s.clear_failsafe_pins();
    assert_eq!(step(&mut s, &mut current, true), Some((f_min, f_min)));
    assert_eq!(current[1], f_min);
    for _ in 12..20 {
        assert_eq!(step(&mut s, &mut current, true), None);
    }
    assert_eq!(s.schedules_run(), 2);
    let (f1, _) = step(&mut s, &mut current, true).expect("timer round");
    assert!(f1 > f_min, "the next round schedules processor 1 again");
    assert_eq!(desired_of_1(&telemetry, 2), Some(f1));
}
