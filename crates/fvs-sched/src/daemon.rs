//! A thread-hosted scheduler daemon, mirroring the prototype.
//!
//! The paper's fvsst is "a privileged user-level daemon process
//! implemented as a single-threaded program" that periodically collects
//! counter data and, on a timer or an external signal, recomputes and
//! applies frequencies. This module hosts the [`FvsstScheduler`] on its
//! own thread behind `std::sync::mpsc` channels: the measurement path sends tick
//! observations, the daemon replies with decisions, and a separate signal
//! channel delivers budget changes out of band (the prototype's "signal
//! with a new frequency limit").

use crate::policy::{Decision, PlatformView, Policy, TickContext};
use crate::scheduler::{FvsstScheduler, SchedulerConfig, Trigger};
use fvs_model::{CounterDelta, CpiModel, FreqMhz};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// One tick's observations, owned so they can cross the channel.
#[derive(Debug, Clone)]
pub struct TickData {
    /// Simulation/wall time at the end of the tick (s).
    pub now_s: f64,
    /// Tick index.
    pub tick: u64,
    /// Budget in force (W).
    pub budget_w: f64,
    /// Measured aggregate processor power (W).
    pub measured_power_w: f64,
    /// Per-core counter deltas.
    pub samples: Vec<CounterDelta>,
    /// Per-core idle signals.
    pub idle: Vec<bool>,
    /// Per-core transitional flags (error bookkeeping only).
    pub transitional: Vec<bool>,
    /// Per-core current frequencies.
    pub current: Vec<FreqMhz>,
    /// Per-core ground-truth models (oracle bookkeeping; empty is fine
    /// for the fvsst daemon, which never reads it).
    pub ground_truth: Vec<CpiModel>,
}

enum Request {
    Tick(Box<TickData>),
    Shutdown,
}

/// Summary returned when the daemon shuts down.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// Scheduling computations performed.
    pub schedules_run: u64,
    /// `(time, trigger)` log.
    pub triggers: Vec<(f64, Trigger)>,
}

/// Handle to a running scheduler daemon thread.
#[derive(Debug)]
pub struct SchedulerDaemon {
    tx: SyncSender<Request>,
    rx: Receiver<Option<Decision>>,
    join: Option<JoinHandle<DaemonSummary>>,
}

impl SchedulerDaemon {
    /// Spawn the daemon for `n_cores` cores on `platform`.
    pub fn spawn(n_cores: usize, config: SchedulerConfig, platform: PlatformView) -> Self {
        let (req_tx, req_rx) = sync_channel::<Request>(1);
        let (resp_tx, resp_rx) = sync_channel::<Option<Decision>>(1);
        let join = std::thread::Builder::new()
            .name("fvsst-daemon".to_string())
            .spawn(move || {
                let mut scheduler = FvsstScheduler::new(n_cores, config);
                while let Ok(req) = req_rx.recv() {
                    match req {
                        Request::Tick(data) => {
                            let ctx = TickContext {
                                now_s: data.now_s,
                                tick: data.tick,
                                budget_w: data.budget_w,
                                measured_power_w: data.measured_power_w,
                                samples: &data.samples,
                                idle: &data.idle,
                                transitional: &data.transitional,
                                current: &data.current,
                                ground_truth: &data.ground_truth,
                                platform: &platform,
                            };
                            let decision = scheduler.on_tick(&ctx);
                            if resp_tx.send(decision).is_err() {
                                break;
                            }
                        }
                        Request::Shutdown => break,
                    }
                }
                DaemonSummary {
                    schedules_run: scheduler.schedules_run(),
                    triggers: scheduler.trigger_log().to_vec(),
                }
            })
            .expect("spawn fvsst daemon thread");
        SchedulerDaemon {
            tx: req_tx,
            rx: resp_rx,
            join: Some(join),
        }
    }

    /// Deliver one tick of observations; blocks for the daemon's answer
    /// (the measurement path is synchronous in the prototype too — it
    /// runs at maximum round-robin priority).
    pub fn tick(&self, data: TickData) -> Option<Decision> {
        self.tx
            .send(Request::Tick(Box::new(data)))
            .expect("daemon alive");
        self.rx.recv().expect("daemon alive")
    }

    /// Stop the daemon and collect its summary.
    pub fn shutdown(mut self) -> DaemonSummary {
        let _ = self.tx.send(Request::Shutdown);
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("daemon thread panicked")
    }
}

impl Drop for SchedulerDaemon {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.tx.send(Request::Shutdown);
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::counters::synthesize_delta;
    use fvs_model::CpiModel;

    fn tick_data(tick: u64, budget: f64, mem_time: f64) -> TickData {
        let model = CpiModel::from_components(1.0, mem_time);
        let f = FreqMhz(1000);
        let instr = model.perf_at(f) * 0.01;
        let mem_rate = mem_time / 393.0e-9;
        TickData {
            now_s: (tick + 1) as f64 * 0.01,
            tick,
            budget_w: budget,
            measured_power_w: 0.0,
            samples: vec![synthesize_delta(&model, 0.0, 0.0, mem_rate, instr, f)],
            idle: vec![false],
            transitional: vec![false],
            current: vec![f],
            ground_truth: vec![model],
        }
    }

    #[test]
    fn daemon_schedules_on_timer() {
        let daemon = SchedulerDaemon::spawn(1, SchedulerConfig::p630(), PlatformView::p630());
        let mut decisions = 0;
        // Apply each commanded frequency like a real host would, so the
        // scheduler's actuation verification sees its commands honored.
        let mut current = FreqMhz(1000);
        for t in 0..20 {
            let mut data = tick_data(t, f64::INFINITY, 10.0e-9);
            data.current = vec![current];
            if let Some(d) = daemon.tick(data) {
                decisions += 1;
                current = d.freqs[0];
            }
        }
        let summary = daemon.shutdown();
        // Bootstrap at tick 0, then the timer at tick 10.
        assert_eq!(decisions, 2);
        assert_eq!(summary.schedules_run, 2);
    }

    #[test]
    fn daemon_reacts_to_budget_signal() {
        let daemon = SchedulerDaemon::spawn(1, SchedulerConfig::p630(), PlatformView::p630());
        assert!(
            daemon.tick(tick_data(0, 560.0, 0.0)).is_some(),
            "bootstrap decision"
        );
        let d = daemon
            .tick(tick_data(1, 75.0, 0.0))
            .expect("budget change triggers");
        // 75 W cap on one CPU-bound core: 750 MHz.
        assert_eq!(d.freqs[0], FreqMhz(750));
        let summary = daemon.shutdown();
        assert_eq!(summary.triggers[1].1, Trigger::BudgetChange);
    }

    #[test]
    fn daemon_drop_is_clean() {
        let daemon = SchedulerDaemon::spawn(2, SchedulerConfig::p630(), PlatformView::p630());
        drop(daemon); // must not hang or panic
    }
}
