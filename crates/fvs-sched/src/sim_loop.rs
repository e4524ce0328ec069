//! Drives a [`fvs_sim::Machine`] under a [`Policy`] and reports what the
//! paper's evaluation measures.
//!
//! [`ScheduledSimulation::step_tick`] is the loop every scheduled
//! experiment spends its time in, so it does each per-core job once per
//! tick and over the machine's columns ([`Machine::transitional_flags`],
//! [`Machine::finished_flags`], [`Machine::requested_mhz`], one
//! `sample_all_into`), not through a view per core. The per-core API
//! says the same things — a test below drives the same tick through it
//! and compares bits — and is what the trace path and the report use.

use crate::policy::{Decision, PlatformView, Policy, TickContext};
use crate::scheduler::{FvsstScheduler, SchedulerConfig};
use fvs_faults::{apply_counter_fault, ActuationFaultKind, FaultInjector};
use fvs_model::{CounterDelta, CpiModel, FreqMhz};
use fvs_power::{BudgetEvent, BudgetSchedule, EnergyMeter, SupplyBank};
use fvs_sim::{Machine, ResidencyHistogram, TraceRecorder, TraceSample};
use fvs_telemetry::{FaultDomain, SchedEvent, Telemetry};
use serde::{Deserialize, Serialize};

/// Where the global power budget comes from.
#[derive(Debug)]
enum BudgetSource {
    /// A scripted schedule of budget values.
    Schedule(BudgetSchedule),
    /// A bank of power supplies: the budget is the surviving capacity
    /// minus the non-processor power draw, and the bank tracks cascade
    /// deadlines against the *actual* total draw.
    Supplies { bank: SupplyBank, non_cpu_w: f64 },
}

/// How many dispatch ticks late a [`ActuationFaultKind::Delay`]ed
/// frequency command lands.
const ACTUATION_DELAY_TICKS: u64 = 2;

/// Fault-injection state for a chaos run: the deterministic injector
/// plus the scratch needed to corrupt samples and drop / delay
/// actuations without allocating per tick.
struct FaultBox {
    injector: FaultInjector,
    telemetry: Telemetry,
    /// Raw (uncorrupted) deltas of the previous tick, so a `Stale`
    /// fault replays last tick's *true* reading rather than compounding
    /// an earlier corruption.
    prev_samples: Vec<CounterDelta>,
    /// This tick's raw deltas, captured before corruption.
    raw_scratch: Vec<CounterDelta>,
    /// Per-core in-flight delayed command: `(apply_at_tick, freq)`.
    delayed: Vec<Option<(u64, FreqMhz)>>,
}

/// Outcome summary of a managed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy that produced the run.
    pub policy: String,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Aggregate processor power at the end of the run (W).
    pub final_power_w: f64,
    /// Highest tick-level aggregate power (W).
    pub peak_power_w: f64,
    /// Time-averaged aggregate power (W).
    pub avg_power_w: f64,
    /// Total processor energy (J).
    pub energy_j: f64,
    /// Per-core energy meters.
    pub core_energy: Vec<EnergyMeter>,
    /// Seconds during which aggregate power exceeded the budget.
    pub violation_s: f64,
    /// Worst overshoot above the budget (W).
    pub max_overshoot_w: f64,
    /// Per-core workload completion times (None = still running).
    pub completed_at_s: Vec<Option<f64>>,
    /// Per-core body instructions retired.
    pub body_instructions: Vec<f64>,
    /// Per-core effective-frequency residency.
    pub residency: Vec<ResidencyHistogram>,
    /// Whether a supply cascade occurred, and when.
    pub cascaded_at_s: Option<f64>,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Total per-core frequency *changes* applied (a stability metric:
    /// each change costs actuator settling and, on real hardware,
    /// voltage-ramp time).
    pub frequency_switches: u64,
}

/// A machine + policy + budget, stepped at the dispatch period.
pub struct ScheduledSimulation<P: Policy = FvsstScheduler> {
    machine: Machine,
    policy: P,
    budget: BudgetSource,
    platform: PlatformView,
    t_s: f64,
    tick: u64,
    trace: TraceRecorder,
    trace_enabled: bool,
    violation_s: f64,
    max_overshoot_w: f64,
    peak_power_w: f64,
    power_time_integral: f64,
    decisions: u64,
    frequency_switches: u64,
    last_desired: Vec<FreqMhz>,
    /// Per-core "this scheduling window overlapped an init/exit phase or
    /// a workload completion" flags, OR-accumulated across ticks and
    /// reset whenever the policy takes a decision (= closes its window).
    window_transitional: Vec<bool>,
    was_finished: Vec<bool>,
    /// Whether the policy declared [`Policy::wants_ground_truth`] at
    /// construction; computing the per-core ground-truth models is real
    /// per-tick work, so it is skipped entirely otherwise.
    wants_ground_truth: bool,
    // Per-tick scratch, reused so the steady-state tick allocates
    // nothing.
    samples_buf: Vec<CounterDelta>,
    idle_buf: Vec<bool>,
    current_buf: Vec<FreqMhz>,
    transitional_buf: Vec<bool>,
    ground_truth_buf: Vec<CpiModel>,
    decision_buf: Decision,
    faults: Option<FaultBox>,
}

impl ScheduledSimulation<FvsstScheduler> {
    /// The canonical setup: an fvsst daemon built from `config` managing
    /// `machine`, with the budget taken from `config.budget`.
    ///
    /// # Panics
    ///
    /// When `config.t_s` is not finite and positive (see
    /// [`with_policy`](ScheduledSimulation::with_policy)), and on what
    /// [`FvsstScheduler::new`] refuses.
    pub fn new(machine: Machine, config: SchedulerConfig) -> Self {
        let budget = config.budget.clone();
        let t_s = config.t_s;
        let scheduler = FvsstScheduler::new(machine.num_cores(), config);
        Self::with_policy(machine, scheduler, budget, t_s)
    }
}

impl<P: Policy> ScheduledSimulation<P> {
    /// A machine under an arbitrary policy (baselines, ablations),
    /// dispatched every `t_s` seconds.
    ///
    /// # Panics
    ///
    /// When `t_s` is not finite and positive: no tick count covers a run
    /// at such a period.
    pub fn with_policy(machine: Machine, policy: P, budget: BudgetSchedule, t_s: f64) -> Self {
        assert!(
            t_s.is_finite() && t_s > 0.0,
            "t_s must be finite and positive, got {t_s}"
        );
        let n = machine.num_cores();
        let cfg = machine.config();
        let platform = PlatformView {
            freq_set: cfg.power_table.frequency_set(),
            power_table: cfg.power_table.clone(),
            voltage_table: cfg.voltage_table.clone(),
            latencies: cfg.latencies,
        };
        let f_max = platform.freq_set.max();
        let wants_ground_truth = policy.wants_ground_truth();
        ScheduledSimulation {
            machine,
            policy,
            budget: BudgetSource::Schedule(budget),
            platform,
            t_s,
            tick: 0,
            trace: TraceRecorder::new(),
            trace_enabled: true,
            violation_s: 0.0,
            max_overshoot_w: 0.0,
            peak_power_w: 0.0,
            power_time_integral: 0.0,
            decisions: 0,
            frequency_switches: 0,
            last_desired: vec![f_max; n],
            window_transitional: vec![false; n],
            was_finished: vec![false; n],
            wants_ground_truth,
            samples_buf: Vec::with_capacity(n),
            idle_buf: Vec::with_capacity(n),
            current_buf: Vec::with_capacity(n),
            transitional_buf: Vec::with_capacity(n),
            ground_truth_buf: Vec::with_capacity(n),
            decision_buf: Decision::default(),
            faults: None,
        }
    }

    /// Replace the budget schedule with a supply bank: the budget becomes
    /// the surviving capacity minus `non_cpu_w`, and cascade deadlines
    /// are enforced against actual draw (the section-2 scenario).
    pub fn with_supply_bank(mut self, bank: SupplyBank, non_cpu_w: f64) -> Self {
        self.budget = BudgetSource::Supplies { bank, non_cpu_w };
        self
    }

    /// Attach a fault injector; its events go to `telemetry`.
    ///
    /// Counter faults corrupt the sampled deltas before the policy sees
    /// them; actuation faults drop, halve, or delay frequency commands
    /// between the policy and the machine. Scripted budget drops in the
    /// plan are merged into the budget schedule as fractions of its
    /// initial value (they do not apply when the budget comes from a
    /// supply bank — there, supply failures model the same thing).
    pub fn with_faults(mut self, injector: FaultInjector, telemetry: Telemetry) -> Self {
        let n = self.machine.num_cores();
        if let BudgetSource::Schedule(schedule) = &mut self.budget {
            let initial = schedule.initial_w();
            for drop in &injector.plan().budget_drops {
                schedule.push_event(BudgetEvent {
                    at_s: drop.at_s,
                    budget_w: initial * drop.factor,
                });
            }
        }
        self.faults = Some(FaultBox {
            injector,
            telemetry,
            prev_samples: vec![CounterDelta::default(); n],
            raw_scratch: Vec::with_capacity(n),
            delayed: vec![None; n],
        });
        self
    }

    /// Faults injected so far (0 when no injector is attached).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injector.injected())
    }

    /// Disable per-tick trace recording (large sweeps).
    pub fn without_trace(mut self) -> Self {
        self.trace_enabled = false;
        self
    }

    /// The managed machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The policy (concrete type — e.g. to read fvsst's error stats).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The recorded trace.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Current simulation time.
    pub fn now_s(&self) -> f64 {
        self.machine.now_s()
    }

    /// The budget in force right now.
    pub fn budget_w(&self) -> f64 {
        match &self.budget {
            BudgetSource::Schedule(s) => s.budget_at(self.machine.now_s()),
            BudgetSource::Supplies { bank, non_cpu_w } => (bank.capacity_w() - non_cpu_w).max(0.0),
        }
    }

    /// Advance one dispatch tick.
    pub fn step_tick(&mut self) {
        let t_s = self.t_s;
        let n = self.machine.num_cores();

        // Delayed actuations land late: apply any command that is due
        // before the tick runs (it reached the PLL only now).
        if let Some(fb) = &mut self.faults {
            for i in 0..n {
                if let Some((at, f)) = fb.delayed[i] {
                    if self.tick >= at {
                        fb.delayed[i] = None;
                        if self.machine.requested_mhz()[i] != f.0 {
                            self.frequency_switches += 1;
                        }
                        self.machine.set_frequency(i, f);
                    }
                }
            }
        }

        // Capture ground-truth transitional flags *before* stepping so a
        // window that started in init/exit is flagged.
        for (window, now) in self
            .window_transitional
            .iter_mut()
            .zip(self.machine.transitional_flags())
        {
            *window |= *now;
        }

        self.machine.step(t_s);
        let now = self.machine.now_s();

        // Advance the supply bank against actual total draw.
        let total_power = self.machine.total_power_w();
        if let BudgetSource::Supplies { bank, non_cpu_w } = &mut self.budget {
            bank.advance(total_power + *non_cpu_w, t_s);
        }
        let budget_w = self.budget_w();

        // Compliance accounting.
        self.peak_power_w = self.peak_power_w.max(total_power);
        self.power_time_integral += total_power * t_s;
        if total_power > budget_w {
            self.violation_s += t_s;
            self.max_overshoot_w = self.max_overshoot_w.max(total_power - budget_w);
        }

        // Flag windows that ended in a transitional phase, or in which
        // the workload ran to completion (the exit→idle hand-off can
        // happen entirely inside one tick, so completion is tracked
        // explicitly).
        let finished = self.machine.finished_flags();
        for (((window, now), done), was) in self
            .window_transitional
            .iter_mut()
            .zip(self.machine.transitional_flags())
            .zip(finished)
            .zip(&self.was_finished)
        {
            *window |= *now | (*done & !*was);
        }
        self.was_finished.copy_from_slice(finished);
        // The window flags accumulate until a decision closes the window,
        // which happens while the context still borrows them — so the
        // policy sees a snapshot (buffer reused across ticks).
        self.transitional_buf.clone_from(&self.window_transitional);

        // Observe (into reusable buffers: the steady-state tick allocates
        // nothing): idle signals, requested frequencies, counters.
        self.idle_buf.clear();
        self.idle_buf.extend(
            (finished.iter().zip(self.machine.idle_loop_flags()))
                .map(|(done, idle)| *done || *idle),
        );
        self.current_buf.clear();
        self.current_buf
            .extend(self.machine.requested_mhz().iter().map(|f| FreqMhz(*f)));
        self.machine.sample_all_into(&mut self.samples_buf);
        // Corrupt counter samples per the fault plan, keeping the raw
        // deltas so next tick's `Stale` fault has a true reading to
        // replay.
        if let Some(fb) = &mut self.faults {
            if !fb.injector.is_quiet() {
                fb.raw_scratch.clone_from(&self.samples_buf);
                for (i, s) in self.samples_buf.iter_mut().enumerate() {
                    if let Some(kind) = fb.injector.counter_fault() {
                        apply_counter_fault(kind, s, &fb.prev_samples[i]);
                        fb.telemetry.emit(SchedEvent::FaultInjected {
                            t_s: now,
                            domain: FaultDomain::Counter,
                            target: i as u32,
                        });
                    }
                }
                std::mem::swap(&mut fb.prev_samples, &mut fb.raw_scratch);
            }
        }

        // Ground-truth models of the currently-executing phases — real
        // per-tick work, computed only for policies that declared
        // `wants_ground_truth` (oracle baselines); everyone else sees an
        // empty slice.
        self.ground_truth_buf.clear();
        if self.wants_ground_truth {
            for i in 0..n {
                self.ground_truth_buf.push(CpiModel::from_profile(
                    self.machine.core(i).current_profile(),
                    &self.platform.latencies,
                ));
            }
        }

        // Consult the policy.
        let ctx = TickContext {
            now_s: now,
            tick: self.tick,
            budget_w,
            measured_power_w: total_power,
            samples: &self.samples_buf,
            idle: &self.idle_buf,
            transitional: &self.transitional_buf,
            current: &self.current_buf,
            ground_truth: &self.ground_truth_buf,
            platform: &self.platform,
        };
        let overhead = self.policy.overhead();
        // Sampling cost is paid every tick the daemon runs.
        if overhead.per_sample_s > 0.0 {
            self.machine
                .core_mut(overhead.host_core)
                .steal(overhead.per_sample_s * n as f64);
        }
        if self.policy.decide(&ctx, &mut self.decision_buf) {
            // The policy closed its measurement window: start a fresh
            // transitional-flag accumulation.
            self.window_transitional.iter_mut().for_each(|f| *f = false);
            self.decisions += 1;
            for (i, f) in self.decision_buf.freqs.iter().enumerate() {
                let target = *f;
                let current = FreqMhz(self.machine.requested_mhz()[i]);
                let mut apply = Some(target);
                if let Some(fb) = &mut self.faults {
                    // Only a real transition can misbehave — re-issuing
                    // the frequency already in force is a no-op at the
                    // actuator.
                    if current != target {
                        if let Some(kind) = fb.injector.actuation_fault() {
                            fb.telemetry.emit(SchedEvent::FaultInjected {
                                t_s: now,
                                domain: FaultDomain::Actuation,
                                target: i as u32,
                            });
                            apply = match kind {
                                ActuationFaultKind::Drop => None,
                                ActuationFaultKind::Partial => {
                                    // The PLL settles halfway; any older
                                    // in-flight command is superseded by
                                    // this (partial) register write.
                                    fb.delayed[i] = None;
                                    Some(FreqMhz((current.0 + target.0) / 2))
                                }
                                ActuationFaultKind::Delay => {
                                    fb.delayed[i] =
                                        Some((self.tick + ACTUATION_DELAY_TICKS, target));
                                    None
                                }
                            };
                        } else {
                            // A clean write supersedes any in-flight
                            // delayed command.
                            fb.delayed[i] = None;
                        }
                    }
                }
                if let Some(f) = apply {
                    if f != current {
                        self.frequency_switches += 1;
                    }
                    self.machine.set_frequency(i, f);
                }
            }
            for (i, on) in self.decision_buf.powered_on.iter().enumerate() {
                self.machine.set_powered(i, *on);
            }
            self.last_desired.clone_from(&self.decision_buf.desired);
            if overhead.per_schedule_s > 0.0 {
                self.machine
                    .core_mut(overhead.host_core)
                    .steal(overhead.per_schedule_s);
            }
        }

        // Trace.
        if self.trace_enabled {
            for i in 0..n {
                self.trace.push(TraceSample {
                    t_s: now,
                    core: i,
                    effective_mhz: self.machine.effective_frequency(i).0,
                    requested_mhz: self.machine.core(i).requested_frequency().0,
                    desired_mhz: self.last_desired[i].0,
                    observed_ipc: self.samples_buf[i].observed_ipc(),
                    power_w: self.machine.core_power_w(i),
                    phase: self.machine.core(i).current_phase_name().to_string(),
                });
            }
        }
        self.tick += 1;
    }

    /// Run for `duration` seconds of simulated time (at least one tick)
    /// and return the cumulative report. Panics unless `duration` is
    /// finite and non-negative.
    pub fn run_for(&mut self, duration: f64) -> RunReport {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "run_for duration must be finite and non-negative"
        );
        let ticks = (duration / self.t_s).round().max(1.0) as u64;
        for _ in 0..ticks {
            self.step_tick();
        }
        self.report()
    }

    /// Run until every core's workload has completed (or `max_s` of
    /// simulated time elapses) and return the cumulative report. Panics
    /// unless `max_s` is finite and non-negative: `+∞` never ends a looping workload.
    pub fn run_to_completion(&mut self, max_s: f64) -> RunReport {
        assert!(
            max_s.is_finite() && max_s >= 0.0,
            "run_to_completion max_s must be finite and non-negative"
        );
        let max_ticks = (max_s / self.t_s).round() as u64;
        for _ in 0..max_ticks {
            if (0..self.machine.num_cores()).all(|i| self.machine.idle_signal(i)) {
                break;
            }
            self.step_tick();
        }
        self.report()
    }

    /// Snapshot the cumulative report.
    pub fn report(&self) -> RunReport {
        let n = self.machine.num_cores();
        let now = self.machine.now_s();
        let cascaded_at_s = match &self.budget {
            BudgetSource::Supplies { bank, .. } => bank.cascaded_at(),
            BudgetSource::Schedule(_) => None,
        };
        RunReport {
            policy: self.policy.name().to_string(),
            duration_s: now,
            final_power_w: self.machine.total_power_w(),
            peak_power_w: self.peak_power_w,
            avg_power_w: if now > 0.0 {
                self.power_time_integral / now
            } else {
                0.0
            },
            energy_j: self.machine.total_energy_j(),
            core_energy: (0..n).map(|i| self.machine.energy(i)).collect(),
            violation_s: self.violation_s,
            max_overshoot_w: self.max_overshoot_w,
            completed_at_s: (0..n)
                .map(|i| self.machine.core(i).stats().completed_at_s)
                .collect(),
            body_instructions: (0..n)
                .map(|i| self.machine.core(i).stats().body_instructions)
                .collect(),
            residency: (0..n).map(|i| self.machine.residency(i).clone()).collect(),
            cascaded_at_s,
            decisions: self.decisions,
            frequency_switches: self.frequency_switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_power::BudgetEvent;
    use fvs_sim::MachineBuilder;
    use fvs_workloads::WorkloadSpec;

    fn machine_with(intensities: [f64; 4]) -> Machine {
        let mut b = MachineBuilder::p630();
        for (i, c) in intensities.iter().enumerate() {
            b = b.workload(i, WorkloadSpec::synthetic(*c, 1.0e12));
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "t_s must be finite and positive")]
    fn a_zero_dispatch_period_is_refused() {
        let config = SchedulerConfig::p630().with_t_s(0.0);
        ScheduledSimulation::new(machine_with([1.0; 4]), config);
    }

    #[test]
    fn unconstrained_run_saves_power_on_memory_bound_cores() {
        let machine = machine_with([100.0, 20.0, 20.0, 20.0]);
        let config = SchedulerConfig::p630();
        let mut sim = ScheduledSimulation::new(machine, config);
        let report = sim.run_for(1.0);
        // Memory-bound cores dropped well below 140 W; CPU core stayed
        // near full speed.
        assert!(report.final_power_w < 4.0 * 140.0 * 0.7);
        assert!(report.decisions >= 9);
        let cpu_freq = sim.machine().effective_frequency(0);
        let mem_freq = sim.machine().effective_frequency(1);
        assert!(cpu_freq >= FreqMhz(950), "cpu core at {cpu_freq}");
        assert!(mem_freq <= FreqMhz(700), "mem core at {mem_freq}");
    }

    #[test]
    fn budget_drop_is_honored_quickly() {
        let machine = machine_with([100.0, 100.0, 100.0, 100.0]);
        let budget = BudgetSchedule::with_events(
            560.0,
            vec![BudgetEvent {
                at_s: 0.5,
                budget_w: 294.0,
            }],
        );
        let config = SchedulerConfig::p630().with_budget(budget);
        let mut sim = ScheduledSimulation::new(machine, config);
        let report = sim.run_for(1.0);
        assert!(
            report.final_power_w <= 294.0,
            "final power {}",
            report.final_power_w
        );
        // Violation window: at most a couple of dispatch ticks after the
        // drop (the budget-change trigger fires on the next tick).
        assert!(
            report.violation_s <= 0.05,
            "violated for {}s",
            report.violation_s
        );
    }

    #[test]
    fn idle_cores_pinned_to_minimum() {
        let machine = MachineBuilder::p630().build(); // all hot-idle
        let config = SchedulerConfig::p630();
        let mut sim = ScheduledSimulation::new(machine, config);
        sim.run_for(0.5);
        for i in 0..4 {
            assert_eq!(sim.machine().effective_frequency(i), FreqMhz(250));
        }
    }

    #[test]
    fn without_idle_detection_idle_burns_full_power() {
        let machine = MachineBuilder::p630().build();
        let config = SchedulerConfig::p630().with_idle_detection(false);
        let mut sim = ScheduledSimulation::new(machine, config);
        let report = sim.run_for(0.5);
        // Hot idle looks CPU-bound (IPC 1.3): stays at/near f_max.
        assert!(
            report.final_power_w > 4.0 * 120.0,
            "power {}",
            report.final_power_w
        );
    }

    #[test]
    fn supply_failure_scenario_survives_with_fvsst() {
        // Section 2: 4 CPUs (560 W) + 186 W non-CPU = 746 W; two 480 W
        // supplies; one fails at t=0.5 s; ΔT = 1 s.
        let machine = machine_with([100.0, 60.0, 30.0, 10.0]);
        let config = SchedulerConfig::p630();
        let bank = SupplyBank::p630_scenario(0.5);
        let mut sim = ScheduledSimulation::new(machine, config).with_supply_bank(bank, 186.0);
        let report = sim.run_for(3.0);
        assert_eq!(report.cascaded_at_s, None, "fvsst must beat the deadline");
        assert!(report.final_power_w <= 294.0 + 1e-9);
    }

    #[test]
    fn trace_records_all_cores_every_tick() {
        let machine = machine_with([50.0, 50.0, 50.0, 50.0]);
        let mut sim = ScheduledSimulation::new(machine, SchedulerConfig::p630());
        sim.run_for(0.2);
        // 20 ticks × 4 cores.
        assert_eq!(sim.trace().len(), 80);
        let series = sim.trace().frequency_series(2);
        assert_eq!(series.len(), 20);
    }

    #[test]
    fn without_trace_records_nothing() {
        let machine = machine_with([50.0; 4]);
        let mut sim = ScheduledSimulation::new(machine, SchedulerConfig::p630()).without_trace();
        sim.run_for(0.2);
        assert!(sim.trace().is_empty());
    }

    #[test]
    fn quiet_injector_is_bit_identical_to_no_injector() {
        let config = SchedulerConfig::p630();
        let mut plain = ScheduledSimulation::new(machine_with([100.0, 60.0, 30.0, 10.0]), config);
        let config = SchedulerConfig::p630();
        let mut quiet = ScheduledSimulation::new(machine_with([100.0, 60.0, 30.0, 10.0]), config)
            .with_faults(FaultInjector::disabled(), Telemetry::disabled());
        let a = plain.run_for(1.0);
        let b = quiet.run_for(1.0);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.final_power_w, b.final_power_w);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.frequency_switches, b.frequency_switches);
        assert_eq!(quiet.faults_injected(), 0);
    }

    #[test]
    fn chaos_run_still_honors_the_dropped_budget() {
        use fvs_faults::FaultPlan;
        let plan = FaultPlan::parse("counters=0.05, actuation=0.2, drop=0.55@1.0").unwrap();
        let machine = machine_with([100.0, 100.0, 100.0, 100.0]);
        let config = SchedulerConfig::p630().with_budget(BudgetSchedule::constant(560.0));
        let mut sim = ScheduledSimulation::new(machine, config)
            .with_faults(FaultInjector::new(plan, 42), Telemetry::disabled());
        let report = sim.run_for(3.0);
        assert!(sim.faults_injected() > 0, "chaos plan must actually fire");
        // The scripted supply fault cut the budget to 308 W at t = 1 s;
        // despite corrupted counters and flaky actuators the run must
        // end compliant and every reported number must be a number.
        assert!(
            report.final_power_w <= 560.0 * 0.55 + 1e-9,
            "final power {}",
            report.final_power_w
        );
        assert!(report.avg_power_w.is_finite());
        assert!(report.energy_j.is_finite());
        for d in &report.completed_at_s {
            assert!(d.is_none_or(f64::is_finite));
        }
    }

    /// A policy that keeps what it was shown each tick.
    struct Recording {
        inner: FvsstScheduler,
        seen: Vec<(Vec<bool>, Vec<bool>, Vec<FreqMhz>)>,
    }

    impl Policy for Recording {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
            self.seen.push((
                ctx.transitional.to_vec(),
                ctx.idle.to_vec(),
                ctx.current.to_vec(),
            ));
            self.inner.decide(ctx, out)
        }

        fn overhead(&self) -> crate::policy::OverheadModel {
            self.inner.overhead()
        }
    }

    /// `step_tick` reads the machine's columns; the per-core view API is
    /// what everyone else (the repo benchmark's traced loop among them)
    /// drives the same tick with. Both must show the policy the same
    /// things and leave the machine on the same bits.
    #[test]
    fn step_tick_equals_a_loop_over_the_per_core_api() {
        use fvs_workloads::{PhaseKind, SyntheticConfig};
        const TICKS: usize = 2_000;
        let t_s = 0.010;
        let machine = |reference: bool| {
            let mut b = MachineBuilder::p630().cores(9).seed(19);
            // Init and exit phases all round; cores 0-2 complete mid-run,
            // core 6 loops its body, core 8 is the hot-idle loop.
            for (i, (c, instructions)) in [
                (100.0, 2.0e9),
                (60.0, 1.5e9),
                (15.0, 2.0e8),
                (85.0, 1.0e12),
                (40.0, 1.0e12),
                (5.0, 1.0e12),
            ]
            .into_iter()
            .enumerate()
            {
                b = b.workload(i, SyntheticConfig::single(c, instructions).build());
            }
            b = b.workload(6, SyntheticConfig::single(70.0, 5.0e8).looping().build());
            // Core 7's exit phase is shorter than a tick: it goes from
            // its body to finished inside one.
            let mut brief = SyntheticConfig::single(90.0, 1.0e9);
            brief.exit_instructions = 1.0e5;
            b = b.workload(7, brief.build());
            if reference {
                b = b.reference_stepping();
            }
            b.build()
        };
        let budget = BudgetSchedule::with_events(
            9.0 * 140.0,
            vec![
                BudgetEvent {
                    at_s: 6.0,
                    budget_w: 9.0 * 140.0 * 0.3,
                },
                BudgetEvent {
                    at_s: 13.0,
                    budget_w: 9.0 * 140.0 * 0.6,
                },
            ],
        );
        let policy = || Recording {
            inner: FvsstScheduler::new(9, SchedulerConfig::p630()),
            seen: Vec::with_capacity(TICKS),
        };
        for reference in [false, true] {
            let mut sim =
                ScheduledSimulation::with_policy(machine(reference), policy(), budget.clone(), t_s)
                    .without_trace();
            for _ in 0..TICKS {
                sim.step_tick();
            }
            let report = sim.report();

            // The same tick by hand, one core at a time.
            let mut m = machine(reference);
            let mut own = policy();
            let platform = PlatformView::p630();
            let in_transition = |m: &Machine, i: usize| {
                matches!(
                    m.core(i).current_phase_kind(),
                    PhaseKind::Init | PhaseKind::Exit
                )
            };
            let mut window = [false; 9];
            let mut was_finished = [false; 9];
            let mut decision = Decision::default();
            let (mut violation_s, mut decisions, mut switches) = (0.0, 0u64, 0u64);
            for tick in 0..TICKS {
                for (i, w) in window.iter_mut().enumerate() {
                    *w |= in_transition(&m, i);
                }
                m.step(t_s);
                let total_power = m.total_power_w();
                let budget_w = budget.budget_at(m.now_s());
                if total_power > budget_w {
                    violation_s += t_s;
                }
                for i in 0..9 {
                    let finished = m.core(i).is_finished();
                    window[i] |= in_transition(&m, i) || (finished && !was_finished[i]);
                    was_finished[i] = finished;
                }
                let samples = m.sample_all();
                let idle: Vec<bool> = (0..9).map(|i| m.idle_signal(i)).collect();
                let current: Vec<FreqMhz> =
                    (0..9).map(|i| m.core(i).requested_frequency()).collect();
                let ctx = TickContext {
                    now_s: m.now_s(),
                    tick: tick as u64,
                    budget_w,
                    measured_power_w: total_power,
                    samples: &samples,
                    idle: &idle,
                    transitional: &window,
                    current: &current,
                    ground_truth: &[],
                    platform: &platform,
                };
                let overhead = own.overhead();
                m.core_mut(overhead.host_core)
                    .steal(overhead.per_sample_s * 9.0);
                if own.decide(&ctx, &mut decision) {
                    window = [false; 9];
                    decisions += 1;
                    for (i, f) in decision.freqs.iter().enumerate() {
                        if m.core(i).requested_frequency() != *f {
                            switches += 1;
                        }
                        m.set_frequency(i, *f);
                    }
                    for (i, on) in decision.powered_on.iter().enumerate() {
                        m.set_powered(i, *on);
                    }
                    m.core_mut(overhead.host_core)
                        .steal(overhead.per_schedule_s);
                }
            }

            assert_eq!(report.energy_j, m.total_energy_j());
            let body: Vec<f64> = (0..9)
                .map(|i| m.core(i).stats().body_instructions)
                .collect();
            assert_eq!(report.body_instructions, body);
            assert_eq!(report.violation_s, violation_s);
            assert_eq!(
                (report.decisions, report.frequency_switches),
                (decisions, switches)
            );
            assert!(sim.policy().seen == own.seen, "the policy saw another run");
            // The run had what it was built for: budget rounds on top of
            // the timer's, completions, and core 7 flagged on the tick
            // it went from body to finished.
            assert!(report.decisions > 200 && report.violation_s > 0.0);
            assert!(report.completed_at_s[..3].iter().all(Option::is_some));
            let done = (report.completed_at_s[7].expect("core 7 completes") / t_s) as usize;
            assert!(own.seen[done].0[7] && !own.seen[done - 1].0[7]);
        }
    }

    #[test]
    fn report_average_power_is_consistent_with_energy() {
        let machine = machine_with([100.0; 4]);
        let mut sim = ScheduledSimulation::new(machine, SchedulerConfig::p630());
        let report = sim.run_for(1.0);
        assert!((report.avg_power_w * report.duration_s - report.energy_j).abs() < 1.0);
    }
}
