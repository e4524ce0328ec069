//! A command that never lands, under a finite budget. From the next tick
//! the daemon holds the processor at `f_min`, re-issued every tick; the
//! next round takes it in through the idle path and divides the budget
//! less its charge, `max(P(running), P(commanded))`, over `P(f_min)`;
//! once the `f_min` write lands the round after schedules it normally.
//! With idle detection on and off alike: off, the held processor goes in
//! unmodelled at `f_min` and stays there.

use fvs_model::counters::{synthesize_delta, CounterDelta};
use fvs_model::{CpiModel, FreqMhz};
use fvs_sched::{FvsstScheduler, PlatformView, Policy, SchedulerConfig, TickContext};
use fvs_telemetry::{SchedEvent, Telemetry};

fn sample_for(model: &CpiModel, mem_rate: f64, f: FreqMhz) -> CounterDelta {
    let instr = model.perf_at(f) * 0.01;
    synthesize_delta(model, 0.0, 0.0, mem_rate, instr, f)
}

/// The budget pass 2 divided in `round`, from its `round_end` line.
fn divided_budget(telemetry: &Telemetry, round: u64) -> Option<f64> {
    (telemetry.events().iter()).find_map(|e| match *e {
        SchedEvent::RoundEnd {
            round: r, budget_w, ..
        } if r == round => Some(budget_w),
        _ => None,
    })
}

fn held_then_charged_then_scheduled(idle_detection: bool) {
    let platform = PlatformView::p630();
    let table = platform.power_table.clone();
    let telemetry = Telemetry::memory(256);
    let cfg = SchedulerConfig::p630()
        .with_idle_detection(idle_detection)
        .with_telemetry(telemetry.clone());
    let f_min = cfg.algorithm.freq_set.min();
    let mut s = FvsstScheduler::new(2, cfg);
    let compute = CpiModel::from_components(1.0, 0.0);
    let membound = CpiModel::from_components(1.0, 10.0e-9);
    let budget_w = 250.0;
    let mut current = [FreqMhz(1000); 2];
    let mut tick = 0u64;
    // One tick, timer at n = 10: processor 1 moves only when `lands`.
    // Returns both processors' commands, if any.
    let mut step = |s: &mut FvsstScheduler, current: &mut [FreqMhz; 2], lands: bool| {
        let samples = [
            sample_for(&compute, 0.0, current[0]),
            sample_for(&membound, 10.0e-9 / 393.0e-9, current[1]),
        ];
        let c = TickContext {
            now_s: (tick + 1) as f64 * 0.01,
            tick,
            budget_w,
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
        Some([d.freqs[0], d.freqs[1]])
    };

    // Tick 0, the bootstrap round, sends processor 1 below f_max; the
    // write never lands.
    let [f0, f1] = step(&mut s, &mut current, false).expect("bootstrap round");
    assert!(f1 < FreqMhz(1000) && f1 > f_min);
    assert_eq!(divided_budget(&telemetry, 0), Some(budget_w));
    // From the next tick, processor 1 is commanded f_min, every tick.
    for _ in 1..10 {
        assert_eq!(step(&mut s, &mut current, false), Some([f0, f_min]));
    }
    assert_eq!(current[1], FreqMhz(1000));

    // Tick 10, the timer round: processor 1 still runs f_max. Its charge
    // less the f_min pass 2 counts it at comes off the budget, and
    // processor 0 is demoted to fit what is left. This f_min write lands.
    let charge_w = (table.power_interpolated(FreqMhz(1000))).max(table.power_interpolated(f1));
    let reserve_w = charge_w - table.power_interpolated(f_min);
    let [g0, g1] = step(&mut s, &mut current, true).expect("timer round");
    assert_eq!(s.schedules_run(), 2);
    assert_eq!(g1, f_min);
    assert_eq!(s.reserved_w(), reserve_w);
    assert_eq!(divided_budget(&telemetry, 1), Some(budget_w - reserve_w));
    let d = s.last_decision().expect("a round ran");
    assert!(d.feasible && d.predicted_power_w <= budget_w - reserve_w);
    assert!(g0 < f0, "the reserve binds: processor 0 runs {g0}");
    assert_eq!(current[1], f_min);

    // Landed: nothing is commanded until the next round, which schedules
    // processor 1 normally under the whole budget.
    for _ in 11..20 {
        assert_eq!(step(&mut s, &mut current, true), None);
    }
    assert_eq!(step(&mut s, &mut current, true), Some([f0, f1]));
    assert_eq!(s.reserved_w(), 0.0);
    assert_eq!(divided_budget(&telemetry, 2), Some(budget_w));
    // One hold, journaled once, under the `failsafe_pin` kind.
    let pins = (telemetry.events().iter())
        .filter(|e| matches!(e, SchedEvent::FailsafePin { proc: 1, .. }))
        .count();
    assert_eq!((pins, s.holds()), (1, 1));
}

#[test]
fn an_unlanded_command_is_held_at_f_min_and_charged() {
    held_then_charged_then_scheduled(true);
}

#[test]
fn an_unlanded_command_is_held_and_charged_with_idle_detection_off() {
    held_then_charged_then_scheduled(false);
}
