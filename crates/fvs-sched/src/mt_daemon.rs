//! The multi-threaded daemon of the paper's section 9.
//!
//! The shipped prototype is single-threaded; the paper sketches the
//! better design it wanted: "use multiple threads, two per processor.
//! One thread on each processor collects the performance counter data
//! from the counters at user level while the other one controls the
//! throttling or frequency and voltage scaling for it."
//!
//! This module implements that architecture with `std::sync::mpsc`
//! channels:
//!
//! - one **collector** thread per processor accumulates that processor's
//!   dispatch-tick samples into a scheduling window and fits the CPI
//!   model locally (the estimation work parallelises per core);
//! - a central **scheduler** thread merges per-core updates, reruns the
//!   two-pass algorithm on its timer or on a budget signal, and fans the
//!   frequency/voltage commands out;
//! - one **actuator** mailbox per processor delivers commands
//!   asynchronously — the measurement path never blocks on actuation,
//!   unlike [`crate::daemon::SchedulerDaemon`]'s synchronous
//!   request/response loop.
//!
//! The driving loop (simulation or real sampling code) submits samples
//! with [`MtDaemon::submit`] and drains [`MtDaemon::poll_commands`]
//! whenever convenient.

use crate::algorithm::{FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache};
use fvs_model::{CounterDelta, CounterWindow, CpiModel, Estimator, FreqMhz, MemoryLatencies};
use fvs_telemetry::{Histogram, RoundTimer, SchedEvent, Telemetry};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One dispatch-tick observation for one processor.
#[derive(Debug, Clone, Copy)]
pub struct CoreSample {
    /// The frequency the processor ran at during the tick.
    pub freq: FreqMhz,
    /// Counter deltas over the tick.
    pub delta: CounterDelta,
    /// The idle signal.
    pub idle: bool,
}

/// A frequency/voltage command for one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreCommand {
    /// Target processor.
    pub core: usize,
    /// Frequency to apply.
    pub freq: FreqMhz,
    /// Minimum voltage for that frequency.
    pub voltage: f64,
}

/// Per-core update shipped from a collector to the scheduler thread.
#[derive(Debug, Clone, Copy)]
struct ProcUpdate {
    core: usize,
    model: Option<CpiModel>,
    idle: bool,
    current: FreqMhz,
}

/// Everything the scheduler thread is told, on one channel, so it
/// blocks in `recv` and wakes for whichever comes first.
enum SchedulerMsg {
    Update(ProcUpdate),
    Budget(f64),
    Shutdown,
}

/// Summary returned at shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct MtSummary {
    /// Scheduling rounds the central thread executed.
    pub schedules_run: u64,
    /// Samples processed per collector.
    pub samples_per_core: Vec<u64>,
}

/// Handle to the running thread ensemble.
#[derive(Debug)]
pub struct MtDaemon {
    sample_txs: Vec<Sender<CoreSample>>,
    cmd_rx: Receiver<CoreCommand>,
    scheduler_tx: Sender<SchedulerMsg>,
    collector_handles: Vec<JoinHandle<u64>>,
    scheduler_handle: Option<JoinHandle<u64>>,
}

impl MtDaemon {
    /// Spawn collectors (one per core) and the central scheduler.
    ///
    /// `n` is the scheduling window length in samples, as in the
    /// single-threaded daemon (`T = n·t`).
    pub fn spawn(n_cores: usize, algorithm: FvsstAlgorithm, n: u32) -> Self {
        Self::spawn_with_telemetry(n_cores, algorithm, n, Telemetry::disabled())
    }

    /// Like [`spawn`](MtDaemon::spawn), with a telemetry pipeline: the
    /// scheduler thread journals one [`SchedEvent::DaemonRound`] per
    /// round and records round latencies in an `mt.round_wall_s`
    /// histogram.
    pub fn spawn_with_telemetry(
        n_cores: usize,
        algorithm: FvsstAlgorithm,
        n: u32,
        telemetry: Telemetry,
    ) -> Self {
        let latencies = MemoryLatencies::P630;
        let (scheduler_tx, scheduler_rx) = channel::<SchedulerMsg>();
        let (cmd_tx, cmd_rx) = channel::<CoreCommand>();

        // Collectors: window + local model fit, per core.
        let mut sample_txs = Vec::with_capacity(n_cores);
        let mut collector_handles = Vec::with_capacity(n_cores);
        for core in 0..n_cores {
            let (tx, rx) = channel::<CoreSample>();
            sample_txs.push(tx);
            let update_tx = scheduler_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fvsst-collector-{core}"))
                .spawn(move || {
                    let estimator = Estimator::new(latencies);
                    let mut window = CounterWindow::new();
                    let mut model: Option<CpiModel> = None;
                    let mut processed: u64 = 0;
                    while let Ok(sample) = rx.recv() {
                        processed += 1;
                        window.push(&sample.delta);
                        if window.samples() >= n {
                            let total = window.drain();
                            if let Ok(m) = estimator.estimate(&total, sample.freq) {
                                model = Some(m);
                            }
                            let _ = update_tx.send(SchedulerMsg::Update(ProcUpdate {
                                core,
                                model,
                                idle: sample.idle,
                                current: sample.freq,
                            }));
                        }
                    }
                    processed
                })
                .expect("spawn collector");
            collector_handles.push(handle);
        }
        // Central scheduler: merge updates, schedule on a full round or
        // a budget signal.
        let scheduler_handle = std::thread::Builder::new()
            .name("fvsst-scheduler".to_string())
            .spawn(move || {
                let mut latest: Vec<Option<ProcUpdate>> = vec![None; n_cores];
                let mut fresh = 0usize;
                let mut budget_w = f64::INFINITY;
                let mut schedules: u64 = 0;
                // Reused across rounds: the scheduling computation itself
                // allocates nothing in steady state, and phase-stable
                // cores hit the fingerprint cache.
                let mut cache = ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT);
                let mut procs: Vec<ProcInput> = Vec::with_capacity(n_cores);
                // Warm metric handles (cold-path registration happens
                // here, once, not inside the round).
                let mt_metrics = telemetry.registry().map(|r| {
                    let scope = r.scoped("mt");
                    (
                        scope.counter("rounds"),
                        scope.histogram("round_wall_s", &Histogram::latency_bounds()),
                    )
                });
                let mut run =
                    |latest: &[Option<ProcUpdate>], budget_w: f64, schedules: &mut u64| {
                        let timer = telemetry.enabled().then(RoundTimer::start);
                        procs.clear();
                        procs.extend(latest.iter().map(|u| match u {
                            Some(u) => ProcInput {
                                model: u.model,
                                idle: u.idle,
                                current: u.current,
                            },
                            None => ProcInput {
                                model: None,
                                idle: false,
                                current: algorithm.freq_set.max(),
                            },
                        }));
                        let d = algorithm.schedule_cached(&mut cache, &procs, budget_w);
                        let round = *schedules;
                        *schedules += 1;
                        for (core, (f, v)) in d.freqs.iter().zip(&d.voltages).enumerate() {
                            let _ = cmd_tx.send(CoreCommand {
                                core,
                                freq: *f,
                                voltage: *v,
                            });
                        }
                        if let Some(timer) = timer {
                            telemetry.emit(SchedEvent::DaemonRound {
                                round,
                                procs: n_cores as u32,
                                wall_ns: timer.elapsed_ns(),
                            });
                            if let Some((rounds, wall)) = &mt_metrics {
                                rounds.inc();
                                wall.observe(timer.elapsed_s());
                            }
                        }
                    };
                // Ends on `Shutdown`, or when the handle and every
                // collector are gone.
                while let Ok(msg) = scheduler_rx.recv() {
                    match msg {
                        SchedulerMsg::Update(update) => {
                            fresh += 1;
                            latest[update.core] = Some(update);
                            // A full round of updates → timer tick.
                            if fresh >= n_cores {
                                fresh = 0;
                                run(&latest, budget_w, &mut schedules);
                            }
                        }
                        SchedulerMsg::Budget(w) => {
                            if (w - budget_w).abs() > 1e-9 {
                                budget_w = w;
                                // Budget signal: immediate round with
                                // whatever data is on hand.
                                if latest.iter().any(Option::is_some) {
                                    run(&latest, budget_w, &mut schedules);
                                }
                            }
                        }
                        SchedulerMsg::Shutdown => break,
                    }
                }
                schedules
            })
            .expect("spawn scheduler");

        MtDaemon {
            sample_txs,
            cmd_rx,
            scheduler_tx,
            collector_handles,
            scheduler_handle: Some(scheduler_handle),
        }
    }

    /// Submit one dispatch-tick sample for `core` (non-blocking).
    pub fn submit(&self, core: usize, sample: CoreSample) {
        let _ = self.sample_txs[core].send(sample);
    }

    /// Signal a new global budget (non-blocking; triggers an immediate
    /// scheduling round, like the prototype's frequency-limit signal).
    pub fn set_budget(&self, budget_w: f64) {
        let _ = self.scheduler_tx.send(SchedulerMsg::Budget(budget_w));
    }

    /// Drain any commands produced so far (non-blocking).
    pub fn poll_commands(&self) -> Vec<CoreCommand> {
        self.cmd_rx.try_iter().collect()
    }

    /// Block until at least one command arrives or the daemon stops.
    pub fn wait_command(&self) -> Option<CoreCommand> {
        self.cmd_rx.recv().ok()
    }

    /// Stop all threads and collect the summary.
    pub fn shutdown(mut self) -> MtSummary {
        let _ = self.scheduler_tx.send(SchedulerMsg::Shutdown);
        // Closing the sample channels terminates the collectors.
        let txs = std::mem::take(&mut self.sample_txs);
        drop(txs);
        let samples_per_core = self
            .collector_handles
            .drain(..)
            .map(|h| h.join().expect("collector panicked"))
            .collect();
        let schedules_run = self
            .scheduler_handle
            .take()
            .expect("not yet joined")
            .join()
            .expect("scheduler panicked");
        MtSummary {
            schedules_run,
            samples_per_core,
        }
    }
}

impl Drop for MtDaemon {
    fn drop(&mut self) {
        let _ = self.scheduler_tx.send(SchedulerMsg::Shutdown);
        self.sample_txs.clear();
        for h in self.collector_handles.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.scheduler_handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::counters::synthesize_delta;

    fn sample(model: &CpiModel, mem_rate: f64, f: FreqMhz, idle: bool) -> CoreSample {
        let instr = model.perf_at(f) * 0.01;
        CoreSample {
            freq: f,
            delta: synthesize_delta(model, 0.0, 0.0, mem_rate, instr, f),
            idle,
        }
    }

    #[test]
    fn full_rounds_produce_commands() {
        let daemon = MtDaemon::spawn(2, FvsstAlgorithm::p630(), 10);
        let cpu = CpiModel::from_components(0.8, 0.0);
        let mem = CpiModel::from_components(1.0, 10.0e-9);
        for _ in 0..10 {
            daemon.submit(0, sample(&cpu, 0.0, FreqMhz(1000), false));
            daemon.submit(1, sample(&mem, 10.0e-9 / 393.0e-9, FreqMhz(1000), false));
        }
        // One full round → 2 commands.
        let mut cmds = Vec::new();
        while cmds.len() < 2 {
            match daemon.wait_command() {
                Some(c) => cmds.push(c),
                None => panic!("daemon stopped early"),
            }
        }
        cmds.sort_by_key(|c| c.core);
        assert!(
            cmds[0].freq >= FreqMhz(950),
            "cpu-bound core: {:?}",
            cmds[0]
        );
        assert!(
            cmds[1].freq <= FreqMhz(700),
            "memory-bound core: {:?}",
            cmds[1]
        );
        // Voltages carried with the commands.
        assert!(cmds[0].voltage > cmds[1].voltage);
        let summary = daemon.shutdown();
        assert_eq!(summary.schedules_run, 1);
        assert_eq!(summary.samples_per_core, vec![10, 10]);
    }

    #[test]
    fn budget_signal_triggers_immediate_round() {
        let daemon = MtDaemon::spawn(1, FvsstAlgorithm::p630(), 10);
        let cpu = CpiModel::from_components(0.8, 0.0);
        for _ in 0..10 {
            daemon.submit(0, sample(&cpu, 0.0, FreqMhz(1000), false));
        }
        // Wait for the timer round.
        let first = daemon.wait_command().unwrap();
        assert_eq!(first.freq, FreqMhz(1000));
        // Now signal a 75 W budget: an immediate round must follow
        // without any further samples.
        daemon.set_budget(75.0);
        let second = daemon.wait_command().unwrap();
        assert_eq!(second.freq, FreqMhz(750));
        let summary = daemon.shutdown();
        assert_eq!(summary.schedules_run, 2);
    }

    #[test]
    fn idle_cores_commanded_to_minimum() {
        let daemon = MtDaemon::spawn(1, FvsstAlgorithm::p630(), 5);
        let idle_model = CpiModel::from_components(1.0 / 1.3, 0.0);
        for _ in 0..5 {
            daemon.submit(0, sample(&idle_model, 0.0, FreqMhz(1000), true));
        }
        let cmd = daemon.wait_command().unwrap();
        assert_eq!(cmd.freq, FreqMhz(250));
        daemon.shutdown();
    }

    #[test]
    fn shutdown_and_drop_are_clean() {
        let daemon = MtDaemon::spawn(4, FvsstAlgorithm::p630(), 10);
        daemon.submit(
            0,
            sample(
                &CpiModel::from_components(1.0, 0.0),
                0.0,
                FreqMhz(1000),
                false,
            ),
        );
        let summary = daemon.shutdown();
        assert_eq!(summary.schedules_run, 0, "no full round happened");
        assert_eq!(summary.samples_per_core[0], 1);
        // And plain drop must not hang either.
        let d2 = MtDaemon::spawn(2, FvsstAlgorithm::p630(), 10);
        drop(d2);
    }

    #[test]
    fn collectors_work_in_parallel() {
        // Flood all collectors; every sample must be processed exactly
        // once and rounds must keep coming.
        let n_cores = 8;
        let daemon = MtDaemon::spawn(n_cores, FvsstAlgorithm::p630(), 10);
        let model = CpiModel::from_components(1.0, 2.0e-9);
        let rounds = 5;
        for _ in 0..(10 * rounds) {
            for core in 0..n_cores {
                daemon.submit(
                    core,
                    sample(&model, 2.0e-9 / 393.0e-9, FreqMhz(1000), false),
                );
            }
        }
        let mut received = 0;
        while received < n_cores * rounds {
            if daemon.wait_command().is_some() {
                received += 1;
            } else {
                break;
            }
        }
        let summary = daemon.shutdown();
        assert_eq!(summary.schedules_run as usize, rounds);
        for c in &summary.samples_per_core {
            assert_eq!(*c, 10 * rounds as u64);
        }
    }
}
