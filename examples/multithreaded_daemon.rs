//! The paper's daemon on a thread of its own (§6 hosts it in one
//! process; §9 sketches threads), written over the public API only.
//!
//! The measurement loop owns the machine and sends each dispatch tick's
//! observations down a channel; the scheduler thread owns an
//! [`FvsstScheduler`], runs [`Policy::decide`] on every tick and answers
//! with the frequencies to apply, if any. The exchange is synchronous,
//! as in the prototype, whose measurement path runs at maximum
//! round-robin priority and waits for the daemon.
//!
//! ```sh
//! cargo run --release --example multithreaded_daemon
//! ```

use fvsst::prelude::*;
use fvsst::sched::{Decision, PlatformView, Policy, TickContext};
use std::sync::mpsc;

const CORES: usize = 4;
const BUDGET_W: f64 = 294.0;

/// One dispatch tick's observations, owned so they can cross the channel.
struct Tick {
    now_s: f64,
    tick: u64,
    measured_power_w: f64,
    samples: Vec<CounterDelta>,
    idle: Vec<bool>,
    current: Vec<FreqMhz>,
}

fn main() {
    let mut machine = MachineBuilder::p630()
        .workload(0, WorkloadSpec::synthetic(100.0, 1.0e12).looping())
        .workload(1, WorkloadSpec::synthetic(60.0, 1.0e12).looping())
        .workload(2, WorkloadSpec::synthetic(25.0, 1.0e12).looping())
        .workload(3, WorkloadSpec::synthetic(5.0, 1.0e12).looping())
        .build();

    let (tick_tx, tick_rx) = mpsc::channel::<Tick>();
    let (cmd_tx, cmd_rx) = mpsc::channel::<Option<Vec<FreqMhz>>>();
    let daemon = std::thread::spawn(move || {
        let platform = PlatformView::p630();
        let mut scheduler = FvsstScheduler::new(CORES, SchedulerConfig::p630());
        let mut out = Decision::default();
        // Ends when the measurement loop drops its sender.
        for t in tick_rx {
            let ctx = TickContext {
                now_s: t.now_s,
                tick: t.tick,
                budget_w: BUDGET_W,
                measured_power_w: t.measured_power_w,
                samples: &t.samples,
                idle: &t.idle,
                transitional: &[false; CORES],
                current: &t.current,
                ground_truth: &[],
                platform: &platform,
            };
            let command = scheduler.decide(&ctx, &mut out).then(|| out.freqs.clone());
            if cmd_tx.send(command).is_err() {
                break;
            }
        }
        scheduler.schedules_run()
    });

    let mut commands_applied = 0u64;
    for tick in 0..300u64 {
        machine.step(0.01);
        let observed = Tick {
            now_s: machine.now_s(),
            tick,
            measured_power_w: machine.total_power_w(),
            samples: machine.sample_all(),
            idle: (0..CORES).map(|i| machine.idle_signal(i)).collect(),
            current: (0..CORES)
                .map(|i| machine.core(i).requested_frequency())
                .collect(),
        };
        tick_tx.send(observed).expect("daemon thread alive");
        if let Some(freqs) = cmd_rx.recv().expect("daemon thread alive") {
            for (core, f) in freqs.into_iter().enumerate() {
                machine.set_frequency(core, f);
            }
            commands_applied += 1;
        }
    }
    drop(tick_tx);
    let rounds = daemon.join().expect("daemon thread panicked");

    println!("3.0 s simulated under a {BUDGET_W} W budget, scheduler on its own thread\n");
    println!("core  frequency  power");
    for i in 0..CORES {
        println!(
            "{i}     {:>8}  {:>5.0} W",
            machine.effective_frequency(i),
            machine.core_power_w(i)
        );
    }
    println!(
        "\ntotal {:.0} W; {rounds} scheduling rounds, {commands_applied} assignments applied",
        machine.total_power_w()
    );
    assert!(machine.total_power_w() <= BUDGET_W);
}
