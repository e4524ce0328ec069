//! The simulated machine: cores + platform + bookkeeping.
//!
//! Per-core state lives in a `CoreBank` (struct-of-arrays, see
//! `bank.rs`), the one place a core is stepped;
//! [`Machine::core`]/[`Machine::core_mut`] hand out lightweight per-core
//! views over it, and the columns a scheduler reads every tick are also
//! there as slices ([`Machine::transitional_flags`] and its neighbours),
//! saying what the views say. A machine is stepped one of two ways for its whole
//! life, chosen at [`MachineBuilder::build`]: the batched pass, or —
//! with [`MachineBuilder::reference_stepping`] — the scalar per-core
//! loop that serves as the differential-testing oracle.

use crate::actuator::{Actuation, ThrottlePowerModel};
use crate::bank::CoreBank;
use crate::core::{CoreStats, PhaseCursor};
use crate::noise::NoiseModel;
use crate::trace::ResidencyHistogram;
use fvs_model::{CounterDelta, ExecutionProfile, FreqMhz, FrequencySet, MemoryLatencies};
use fvs_power::{EnergyMeter, FreqPowerTable, VoltageTable};
use fvs_workloads::{PhaseKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Platform-level configuration shared by all cores.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory-hierarchy latencies.
    pub latencies: MemoryLatencies,
    /// Frequency→power table (per core).
    pub power_table: FreqPowerTable,
    /// Minimum-voltage table.
    pub voltage_table: VoltageTable,
    /// Counter sampling noise.
    pub noise: NoiseModel,
}

impl MachineConfig {
    /// The paper's P630 platform.
    pub fn p630() -> Self {
        MachineConfig {
            latencies: MemoryLatencies::P630,
            power_table: FreqPowerTable::p630_table1(),
            voltage_table: VoltageTable::p630(),
            noise: NoiseModel::DEFAULT,
        }
    }
}

/// Builder for a [`Machine`].
#[derive(Debug)]
pub struct MachineBuilder {
    config: MachineConfig,
    n_cores: usize,
    workloads: Vec<Option<WorkloadSpec>>,
    actuation: Actuation,
    seed: u64,
    initial_freq: FreqMhz,
    reference_stepping: bool,
}

impl MachineBuilder {
    /// A 4-core P630-like machine; unassigned cores run the hot-idle
    /// loop, actuators are instantaneous DVFS at 1 GHz.
    pub fn p630() -> Self {
        MachineBuilder {
            config: MachineConfig::p630(),
            n_cores: 4,
            workloads: vec![None; 4],
            actuation: Actuation::Dvfs { settle_s: 0.0 },
            seed: 0xF0_55_7E,
            initial_freq: FreqMhz(1000),
            reference_stepping: false,
        }
    }

    /// Change the core count (resets per-core workload assignments that
    /// fall outside the new range).
    pub fn cores(mut self, n: usize) -> Self {
        assert!(n > 0, "a machine needs at least one core");
        self.n_cores = n;
        self.workloads.resize(n, None);
        self
    }

    /// Assign a workload to core `i`.
    pub fn workload(mut self, i: usize, spec: WorkloadSpec) -> Self {
        assert!(i < self.n_cores, "core index {i} out of range");
        self.workloads[i] = Some(spec);
        self
    }

    /// Use DVFS actuators with a settling time; panics unless `settle_s`
    /// is finite and non-negative (a request would never settle).
    pub fn dvfs_settling(mut self, settle_s: f64) -> Self {
        assert!(
            settle_s.is_finite() && settle_s >= 0.0,
            "settle_s must be finite and non-negative, got {settle_s}"
        );
        self.actuation = Actuation::Dvfs { settle_s };
        self
    }

    /// Use fetch-throttle actuators (the paper's prototype mechanism).
    pub fn throttling(mut self, power_model: ThrottlePowerModel) -> Self {
        self.actuation = Actuation::throttle(power_model);
        self
    }

    /// Override the sampling-noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.config.noise = noise;
        self
    }

    /// Override the RNG seed (noise reproducibility).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the platform config wholesale.
    pub fn config(mut self, config: MachineConfig) -> Self {
        self.config = config;
        self
    }

    /// Initial operating frequency of every core.
    pub fn initial_frequency(mut self, f: FreqMhz) -> Self {
        self.initial_freq = f;
        self
    }

    /// Step cores with the scalar per-core loop instead of the batched
    /// SoA pass, for the machine's whole life — the oracle side of the
    /// differential proptests (`tests/batch_parity.rs`).
    pub fn reference_stepping(mut self) -> Self {
        self.reference_stepping = true;
        self
    }

    /// Materialise the machine; panics unless the noise amplitude is
    /// finite and in `[0, 1)` (a factor drawn from `[1 − amp, 1 + amp]`
    /// must be a non-negative scale).
    pub fn build(self) -> Machine {
        let amp = self.config.noise.relative_amplitude;
        assert!(
            (0.0..1.0).contains(&amp),
            "noise amplitude must be finite and in [0, 1), got {amp}"
        );
        let n = self.n_cores;
        let workloads: Vec<WorkloadSpec> = self
            .workloads
            .into_iter()
            .map(|w| w.unwrap_or_else(WorkloadSpec::hot_idle))
            .collect();
        // Every core starts settled at the initial request.
        let f = self.initial_freq;
        let (eff, _) = self.actuation.lands(f, 0.0);
        let power_w = self.actuation.power_w(f, eff, &self.config.power_table);
        let mut bank = CoreBank::new(n, f, eff, power_w);
        for (i, w) in workloads.iter().enumerate() {
            assert!(w.is_valid(), "invalid workload for core {i}");
            bank.idle_loop_flag[i] = w.is_idle_loop;
            bank.sync_transitional(i, w);
            bank.refresh_row(i, w, &self.config.latencies);
        }
        Machine {
            config: self.config,
            bank,
            workloads,
            actuation: self.actuation,
            now_s: 0.0,
            rng: StdRng::seed_from_u64(self.seed),
            energy_j: vec![0.0; n],
            energy_s: vec![0.0; n],
            energy_peak_w: vec![0.0; n],
            acc_ticks: 0,
            acc_applied: vec![0; n],
            acc_dt: 0.0,
            residency: vec![ResidencyHistogram::new(); n],
            reference_stepping: self.reference_stepping,
        }
    }
}

/// A multi-core machine advancing in discrete time.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    bank: CoreBank,
    workloads: Vec<WorkloadSpec>,
    actuation: Actuation,
    now_s: f64,
    rng: StdRng,
    // Energy accounting in struct-of-arrays form with deferred accrual:
    // per-core power is constant between actuation events, so a tick
    // only bumps `acc_ticks`; the `k` pending ticks of a row are flushed
    // in closed form (`joules += k·w·dt`) before any event that changes
    // its power and folded into reads on the fly. A window of one tick
    // flushes with the exact arithmetic of `EnergyMeter::record`.
    energy_j: Vec<f64>,
    energy_s: Vec<f64>,
    energy_peak_w: Vec<f64>,
    /// Ticks accrued machine-wide at `acc_dt` since the last dt change.
    acc_ticks: u64,
    /// Count of accrued ticks already applied to row `i`'s energy and
    /// stint accumulators; `acc_ticks - acc_applied[i]` is row `i`'s
    /// pending window.
    acc_applied: Vec<u64>,
    /// The dt of the ticks counted by `acc_ticks`.
    acc_dt: f64,
    residency: Vec<ResidencyHistogram>,
    reference_stepping: bool,
}

/// Read-only view of one core's state, assembled from the bank row and
/// the core's workload spec.
#[derive(Clone, Copy)]
pub struct CoreView<'a> {
    bank: &'a CoreBank,
    workload: &'a WorkloadSpec,
    i: usize,
}

impl<'a> CoreView<'a> {
    /// Core index within its machine.
    pub fn id(&self) -> usize {
        self.i
    }

    /// The workload this core was assigned.
    pub fn workload(&self) -> &'a WorkloadSpec {
        self.workload
    }

    /// Whether a non-looping workload has run to completion.
    pub fn is_finished(&self) -> bool {
        self.bank.finished[self.i]
    }

    /// Whether the core is in the idle loop: either its assigned
    /// workload *is* the idle loop, or the workload has completed.
    pub fn is_idle(&self) -> bool {
        self.bank.finished[self.i] || self.workload.is_idle_loop
    }

    /// Whether the core is powered on.
    pub fn is_powered(&self) -> bool {
        self.bank.powered[self.i]
    }

    /// The ground-truth profile currently executing (idle loop when
    /// finished). Experiments use this for oracle baselines and error
    /// measurement; the scheduler must never touch it.
    pub fn current_profile(&self) -> &'a ExecutionProfile {
        if self.bank.finished[self.i] {
            &self.bank.idle_profile
        } else {
            &self.workload.phases[self.bank.phase_idx[self.i] as usize].profile
        }
    }

    /// Name of the current phase, for traces.
    pub fn current_phase_name(&self) -> &'a str {
        if self.bank.finished[self.i] {
            "idle"
        } else {
            &self.workload.phases[self.bank.phase_idx[self.i] as usize].name
        }
    }

    /// Kind of the current phase (idle counts as `Body` of the idle
    /// loop).
    pub fn current_phase_kind(&self) -> PhaseKind {
        self.bank.phase_kind(self.i, self.workload)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CoreStats {
        self.bank.stats(self.i)
    }

    /// Ground-truth cumulative counters (no noise). Returned by value —
    /// the counters live in per-field bank arrays, not in one struct.
    pub fn counters(&self) -> CounterDelta {
        self.bank.counters(self.i)
    }

    /// Position within the workload's phase list.
    pub fn cursor(&self) -> PhaseCursor {
        self.bank.cursor(self.i)
    }

    /// The most recently requested frequency.
    pub fn requested_frequency(&self) -> FreqMhz {
        FreqMhz(self.bank.req_mhz[self.i])
    }
}

/// Mutable view of one core, for the few per-core mutations cluster and
/// scheduler code performs (daemon-time theft, workload reassignment,
/// power state).
pub struct CoreViewMut<'a> {
    machine: &'a mut Machine,
    i: usize,
}

impl CoreViewMut<'_> {
    /// Charge `dt` seconds of management-software CPU time to this
    /// core. The stolen time is consumed at the start of subsequent
    /// steps, executing a daemon-like profile instead of the workload —
    /// this is how the fvsst prototype's own overhead (paper Figure 4)
    /// shows up in workload throughput.
    pub fn steal(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.machine.bank.perturb_row(self.i);
        self.machine.bank.pending_steal_s[self.i] += dt;
    }

    /// Replace the workload (used by cluster experiments when work
    /// arrives at a node); resets the cursor, keeps counters and stats.
    pub fn assign(&mut self, workload: WorkloadSpec) {
        assert!(workload.is_valid(), "invalid workload for core {}", self.i);
        let i = self.i;
        let m = &mut *self.machine;
        m.bank.perturb_row(i);
        m.bank.idle_loop_flag[i] = workload.is_idle_loop;
        m.workloads[i] = workload;
        m.bank.phase_idx[i] = 0;
        m.bank.done_in_phase[i] = 0.0;
        m.bank.finished[i] = false;
        m.bank.sync_transitional(i, &m.workloads[i]);
        m.bank.refresh_row(i, &m.workloads[i], &m.config.latencies);
    }

    /// Power the core on or off. A powered-off core retires nothing and
    /// draws nothing; its workload resumes where it stopped on power-up.
    pub fn set_powered(&mut self, on: bool) {
        let i = self.i;
        self.machine.set_powered(i, on);
    }
}

impl Machine {
    /// Current simulation time (s).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.bank.len()
    }

    /// Platform configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The discrete frequency set the platform supports.
    pub fn frequency_set(&self) -> FrequencySet {
        self.config.power_table.frequency_set()
    }

    /// Immutable core access.
    pub fn core(&self, i: usize) -> CoreView<'_> {
        CoreView {
            bank: &self.bank,
            workload: &self.workloads[i],
            i,
        }
    }

    /// Mutable core access (workload reassignment in cluster tests).
    pub fn core_mut(&mut self, i: usize) -> CoreViewMut<'_> {
        assert!(i < self.bank.len(), "core index {i} out of range");
        CoreViewMut { machine: self, i }
    }

    /// Iterate cores.
    pub fn cores(&self) -> impl Iterator<Item = CoreView<'_>> {
        (0..self.bank.len()).map(|i| self.core(i))
    }

    /// Request frequency `f` on core `i`, effective per its actuator.
    pub fn set_frequency(&mut self, i: usize, f: FreqMhz) {
        // A repeated request changes no column (so it never restarts a
        // ramp); with no transition in flight there is nothing settled to
        // commit either.
        let repeated = f.0 == self.bank.req_mhz[i];
        if repeated && !self.bank.settling_flag[i] {
            return;
        }
        let now = self.now_s;
        if !repeated {
            // What is in effect now persists until the request settles.
            let b = &mut self.bank;
            let (target, settle_at_s) = self.actuation.lands(f, now);
            b.lin_cur_mhz[i] = b.effective_at(i, now).0;
            b.req_mhz[i] = f.0;
            b.lin_tgt_mhz[i] = target.0;
            b.lin_settle_at_s[i] = settle_at_s;
        }
        self.apply_effective(i, now);
        if self.bank.lin_settle_at_s[i] > now && !self.bank.settling_flag[i] {
            self.bank.settling_flag[i] = true;
            self.bank.settling.push(i as u32);
        }
    }

    /// Set every core to `f`.
    pub fn set_all_frequencies(&mut self, f: FreqMhz) {
        for i in 0..self.bank.len() {
            self.set_frequency(i, f);
        }
    }

    /// Effective frequency of core `i` right now.
    pub fn effective_frequency(&self, i: usize) -> FreqMhz {
        self.bank.effective_at(i, self.now_s)
    }

    /// Power core `i` up or down (the node power-down baseline).
    pub fn set_powered(&mut self, i: usize, on: bool) {
        // Owed even when `on` is the state the core is in: where an
        // accrual window is split decides how `energy_j` rounds.
        self.flush_accrual_row(i);
        self.bank.perturb_row(i);
        if on != self.bank.powered[i] {
            self.bank.powered[i] = on;
            self.bank.power_w[i] = self.live_power(i, self.now_s);
        }
    }

    /// Swap the work executing on cores `i` and `j` — the primitive a
    /// *work-scheduling* policy uses instead of frequency scaling. The
    /// job carries its cursor; counters, stats, loop drift and the
    /// actuator stay with the core. `penalty_s` of cold-start time (cache
    /// refill, migration bookkeeping) is charged to **both** cores — the
    /// "overhead of moving work from one processor to another" the
    /// paper's introduction cites against this approach.
    pub fn swap_workloads(&mut self, i: usize, j: usize, penalty_s: f64) {
        assert_ne!(i, j, "cannot swap a core with itself");
        self.bank.perturb_row(i);
        self.bank.perturb_row(j);
        self.workloads.swap(i, j);
        self.bank.phase_idx.swap(i, j);
        self.bank.done_in_phase.swap(i, j);
        self.bank.finished.swap(i, j);
        self.bank.transitional.swap(i, j);
        self.bank.idle_loop_flag.swap(i, j);
        self.bank.pending_steal_s[i] += penalty_s;
        self.bank.pending_steal_s[j] += penalty_s;
        self.bank
            .refresh_row(i, &self.workloads[i], &self.config.latencies);
        self.bank
            .refresh_row(j, &self.workloads[j], &self.config.latencies);
    }

    /// Instantaneous power of core `i` (W).
    pub fn core_power_w(&self, i: usize) -> f64 {
        if self.bank.settling_flag[i] {
            // An in-flight transition may have settled since the cache
            // was written; compute live until the next step retires it.
            self.live_power(i, self.now_s)
        } else {
            self.bank.power_w[i]
        }
    }

    /// Instantaneous aggregate processor power (W).
    pub fn total_power_w(&self) -> f64 {
        if self.bank.settling.is_empty() {
            // Every cache entry is live: the same terms in the same order.
            self.bank.power_w.iter().sum()
        } else {
            (0..self.bank.len()).map(|i| self.core_power_w(i)).sum()
        }
    }

    /// The idle signal for core `i` — what the paper's firmware/OS idle
    /// indicator would deliver to the scheduler.
    pub fn idle_signal(&self, i: usize) -> bool {
        self.bank.finished[i] || self.bank.idle_loop_flag[i]
    }

    /// Per core: [`CoreView::is_finished`].
    pub fn finished_flags(&self) -> &[bool] {
        &self.bank.finished
    }

    /// Per core: whether its assigned workload is the idle loop; with
    /// [`Machine::finished_flags`], the two terms of
    /// [`Machine::idle_signal`].
    pub fn idle_loop_flags(&self) -> &[bool] {
        &self.bank.idle_loop_flag
    }

    /// Per core: whether [`CoreView::current_phase_kind`] is init or exit.
    pub fn transitional_flags(&self) -> &[bool] {
        &self.bank.transitional
    }

    /// Per core: [`CoreView::requested_frequency`], in MHz.
    pub fn requested_mhz(&self) -> &[u32] {
        &self.bank.req_mhz
    }

    /// Per-core accumulated energy, materialised from the flat
    /// accumulator arrays with the row's pending accrual window folded
    /// in (read-through: the same arithmetic a flush would apply).
    pub fn energy(&self, i: usize) -> EnergyMeter {
        let k = self.acc_ticks - self.acc_applied[i];
        if k == 0 {
            return EnergyMeter::from_parts(
                self.energy_j[i],
                self.energy_s[i],
                self.energy_peak_w[i],
            );
        }
        let kf = k as f64;
        let w = self.bank.power_w[i];
        EnergyMeter::from_parts(
            self.energy_j[i] + (w * self.acc_dt) * kf,
            self.energy_s[i] + self.acc_dt * kf,
            if w > self.energy_peak_w[i] {
                w
            } else {
                self.energy_peak_w[i]
            },
        )
    }

    /// Total energy across cores.
    pub fn total_energy_j(&self) -> f64 {
        (0..self.bank.len()).map(|i| self.energy(i).joules()).sum()
    }

    /// Per-core frequency residency (time spent at each effective
    /// frequency). Returned by value: the histogram proper is only
    /// flushed when the effective frequency changes, so the running
    /// stint at the current frequency is folded in here.
    pub fn residency(&self, i: usize) -> ResidencyHistogram {
        let mut h = self.residency[i].clone();
        let k = self.acc_ticks - self.acc_applied[i];
        let stint = self.bank.stint_s[i] + self.acc_dt * k as f64;
        if stint > 0.0 {
            h.add(FreqMhz(self.bank.eff_mhz[i]), stint);
        }
        h
    }

    /// Power of core `i` from its actuator columns (zero when off).
    fn live_power(&self, i: usize, now_s: f64) -> f64 {
        if self.bank.powered[i] {
            self.actuation.power_w(
                FreqMhz(self.bank.req_mhz[i]),
                self.bank.effective_at(i, now_s),
                &self.config.power_table,
            )
        } else {
            0.0
        }
    }

    /// Apply row `i`'s pending energy/stint accrual window. Must run
    /// before anything changes the row's power or reads/writes its stint
    /// or meters mutably. A one-tick window reproduces
    /// `EnergyMeter::record` bit for bit; longer windows collapse `k`
    /// equal additions into one.
    fn flush_accrual_row(&mut self, i: usize) {
        let k = self.acc_ticks - self.acc_applied[i];
        if k == 0 {
            return;
        }
        self.acc_applied[i] = self.acc_ticks;
        let kf = k as f64;
        let dt = self.acc_dt;
        let w = self.bank.power_w[i];
        self.energy_j[i] += (w * dt) * kf;
        self.energy_s[i] += dt * kf;
        if w > self.energy_peak_w[i] {
            self.energy_peak_w[i] = w;
        }
        self.bank.stint_s[i] += dt * kf;
    }

    /// Flush every row's pending accrual window.
    fn flush_accrual_all(&mut self) {
        for i in 0..self.bank.len() {
            self.flush_accrual_row(i);
        }
    }

    /// Commit row `i`'s effective frequency for `now_s`: flush the
    /// residency stint on change and refresh the power cache.
    fn apply_effective(&mut self, i: usize, now_s: f64) {
        let eff = self.bank.effective_at(i, now_s);
        if eff.0 != self.bank.eff_mhz[i] {
            // Close the deferred windows at the old frequency before
            // anything about the row changes.
            self.flush_accrual_row(i);
            self.bank.perturb_row(i);
            let stint = self.bank.stint_s[i];
            if stint > 0.0 {
                self.residency[i].add(FreqMhz(self.bank.eff_mhz[i]), stint);
                self.bank.stint_s[i] = 0.0;
            }
            self.bank.eff_mhz[i] = eff.0;
            self.bank.eff_hz[i] = eff.hz();
            self.bank.recompute_rate_row(i);
        }
        let p = self.live_power(i, now_s);
        if p != self.bank.power_w[i] {
            self.flush_accrual_row(i);
            self.bank.power_w[i] = p;
        }
    }

    /// Retire actuator transitions whose settling time has arrived.
    fn settle_pending(&mut self, now_s: f64) {
        let mut k = 0;
        while k < self.bank.settling.len() {
            let i = self.bank.settling[k] as usize;
            if now_s >= self.bank.lin_settle_at_s[i] {
                self.bank.settling.swap_remove(k);
                self.bank.settling_flag[i] = false;
                self.apply_effective(i, now_s);
            } else {
                k += 1;
            }
        }
    }

    /// Advance the whole machine by `dt` seconds.
    pub fn step(&mut self, dt: f64) {
        debug_assert!(dt > 0.0);
        let now = self.now_s;
        self.settle_pending(now);
        if self.reference_stepping {
            self.step_reference(now, dt);
        } else {
            // Deferred energy/stint accrual: per-core power is constant
            // until the next actuation event, so this tick joins the open
            // machine-wide window instead of touching any per-core array.
            if dt != self.acc_dt {
                self.flush_accrual_all();
                self.acc_dt = dt;
            }
            self.acc_ticks += 1;
            self.bank
                .tick_batch(now, dt, &self.config.latencies, &self.workloads);
        }
        self.now_s += dt;
    }

    /// [`Machine::step`] of a [`MachineBuilder::reference_stepping`]
    /// machine: per core per tick, live actuator reads, a
    /// per-tick histogram insert, and a CPI-model rebuild from the phase
    /// profile. Agrees with the batched step bit-for-bit when every tick
    /// is observed and to ≤1e-12 relative otherwise (deferred windows).
    /// Never mixed with it on one machine: this loop opens no deferred
    /// window and leaves the bank's phase cache stale.
    fn step_reference(&mut self, now: f64, dt: f64) {
        for i in 0..self.bank.len() {
            let p = self.live_power(i, now);
            // Same per-meter arithmetic as `EnergyMeter::record`.
            self.energy_j[i] += p * dt;
            self.energy_s[i] += dt;
            if p > self.energy_peak_w[i] {
                self.energy_peak_w[i] = p;
            }
            self.residency[i].add(self.bank.effective_at(i, now), dt);
        }
        self.bank
            .step_rows_reference(now, dt, &self.config.latencies, &self.workloads);
    }

    /// Run unmanaged (no scheduler) for `duration` in `tick`-second
    /// steps; panics unless both are finite, `duration` non-negative and `tick` positive.
    pub fn run_for(&mut self, duration: f64, tick: f64) {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "duration must be finite and non-negative, got {duration}"
        );
        assert!(
            tick.is_finite() && tick > 0.0,
            "tick must be finite and positive, got {tick}"
        );
        let steps = (duration / tick).round() as u64;
        for _ in 0..steps {
            self.step(tick);
        }
    }

    /// Sample core `i`'s counters since the last sample, with platform
    /// noise applied — the scheduler-visible observation.
    pub fn sample(&mut self, i: usize) -> CounterDelta {
        self.bank.sample_row(i, &self.config.noise, &mut self.rng)
    }

    /// Sample every core.
    pub fn sample_all(&mut self) -> Vec<CounterDelta> {
        let mut out = Vec::with_capacity(self.bank.len());
        self.sample_all_into(&mut out);
        out
    }

    /// Sample every core into a caller-provided buffer (cleared first),
    /// so a steady-state sampling loop allocates nothing.
    pub fn sample_all_into(&mut self, out: &mut Vec<CounterDelta>) {
        self.bank
            .sample_all_into(&self.config.noise, &mut self.rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_workloads::SyntheticConfig;

    #[test]
    fn builder_defaults_to_hot_idle() {
        let m = MachineBuilder::p630().build();
        assert_eq!(m.num_cores(), 4);
        for i in 0..4 {
            assert!(m.idle_signal(i));
            assert_eq!(m.effective_frequency(i), FreqMhz(1000));
        }
    }

    #[test]
    fn full_speed_power_matches_paper_motivation() {
        // Four 140 W CPUs flat out: the motivating example's 560 W of
        // processor power.
        let m = MachineBuilder::p630().build();
        assert_eq!(m.total_power_w(), 560.0);
    }

    #[test]
    fn frequency_changes_reduce_power() {
        let mut m = MachineBuilder::p630().build();
        m.set_all_frequencies(FreqMhz(600));
        assert_eq!(m.total_power_w(), 4.0 * 48.0);
        m.set_frequency(0, FreqMhz(1000));
        assert_eq!(m.total_power_w(), 140.0 + 3.0 * 48.0);
    }

    #[test]
    fn energy_accumulates_with_time() {
        let mut m = MachineBuilder::p630().build();
        m.run_for(1.0, 0.01);
        // 4 cores at 140 W for 1 s = 560 J.
        assert!((m.total_energy_j() - 560.0).abs() < 1e-6);
        assert!((m.energy(0).joules() - 140.0).abs() < 1e-6);
    }

    #[test]
    fn residency_tracks_frequency_time() {
        let mut m = MachineBuilder::p630().build();
        m.run_for(0.5, 0.01);
        m.set_all_frequencies(FreqMhz(500));
        m.run_for(0.5, 0.01);
        let h = m.residency(0);
        assert!((h.fraction_at(FreqMhz(1000)) - 0.5).abs() < 1e-9);
        assert!((h.fraction_at(FreqMhz(500)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_noisy_but_close() {
        let mut m = MachineBuilder::p630()
            .workload(0, SyntheticConfig::single(50.0, 1.0e12).body_only().build())
            .build();
        m.run_for(0.1, 0.01);
        let d = m.sample(0);
        let truth = m.core(0).counters();
        // One sample over the whole run: ratio within noise bounds.
        let rel = (d.instructions - truth.instructions).abs() / truth.instructions;
        assert!(rel <= 0.015 + 1e-9, "rel error {rel}");
        assert!(d.instructions > 0.0);
    }

    #[test]
    fn noiseless_machine_samples_exactly() {
        let mut m = MachineBuilder::p630().noise(NoiseModel::NONE).build();
        m.run_for(0.1, 0.01);
        let d = m.sample(0);
        // Hot idle at 1 GHz, IPC 1.3 → 1.3e8 instructions in 0.1 s.
        assert!((d.instructions - 1.3e8).abs() / 1.3e8 < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = MachineBuilder::p630()
                .workload(0, WorkloadSpec::synthetic(30.0, 1.0e9))
                .seed(77)
                .build();
            m.run_for(0.2, 0.01);
            m.sample(0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_touched_block_is_checked_once_before_it_defers_again() {
        // Which ticks join a deferred window decides how an unobserved
        // accumulator rounds, so the schedule is pinned: the tick after
        // anything touches a block (or the tick length changes) is a
        // checked pass, deferral resumes on the one after — and a block
        // touched every tick (a scheduled run steals on its host core
        // each tick) never defers.
        let mut m = MachineBuilder::p630()
            .noise(NoiseModel::NONE)
            .workload(0, WorkloadSpec::synthetic(50.0, 1.0e15))
            .build();
        let mut pending = Vec::new();
        for tick in 0..15 {
            match tick {
                4 => m.set_frequency(1, FreqMhz(600)),
                // Consumed within tick 7, which is the checked pass.
                7 => m.core_mut(2).steal(1.0e-4),
                10 | 11 => m.set_powered(3, true),
                _ => {}
            }
            m.step(if tick < 12 { 0.01 } else { 0.005 });
            pending.push(m.bank.pending_ticks[0]);
        }
        assert_eq!(pending, [0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn swap_workloads_moves_jobs_with_progress() {
        // The memory-bound job is kept small: at ~1.5e7 instructions/s
        // it dominates the wall-clock either way.
        let mut m = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(100.0, 1.0e9))
            .workload(1, WorkloadSpec::synthetic(0.0, 2.0e8))
            .build();
        m.run_for(0.1, 0.01);
        let done0 = m.core(0).stats().body_instructions;
        let name0 = m.core(0).workload().name.clone();
        m.swap_workloads(0, 1, 0.0);
        // The jobs changed places, carrying their cursors.
        assert_eq!(m.core(1).workload().name, name0);
        // Core 1 now runs the CPU-bound job: after the remaining budget
        // is retired, total body work across both cores equals both
        // jobs' budgets, with no instruction lost in the move.
        m.run_for(30.0, 0.01);
        let total = m.core(0).stats().body_instructions + m.core(1).stats().body_instructions;
        assert!(
            (total - 1.2e9).abs() < 1.0,
            "total {total}, done0 was {done0}"
        );
    }

    #[test]
    fn swap_penalty_delays_both_cores() {
        let run = |penalty: f64| -> f64 {
            let mut m = MachineBuilder::p630()
                .workload(0, WorkloadSpec::synthetic(100.0, 5.0e8))
                .workload(1, WorkloadSpec::synthetic(100.0, 5.0e8))
                .build();
            m.run_for(0.1, 0.01);
            m.swap_workloads(0, 1, penalty);
            for _ in 0..100_000 {
                if m.core(0).is_finished() && m.core(1).is_finished() {
                    break;
                }
                m.step(0.01);
            }
            m.core(0)
                .stats()
                .completed_at_s
                .unwrap()
                .max(m.core(1).stats().completed_at_s.unwrap())
        };
        let free = run(0.0);
        let costly = run(0.05);
        assert!(costly > free + 0.03, "{costly} vs {free}");
    }

    #[test]
    fn throttled_machine_quantises_frequencies() {
        let mut m = MachineBuilder::p630()
            .throttling(ThrottlePowerModel::AsDvfs)
            .build();
        m.set_all_frequencies(FreqMhz(700));
        assert_eq!(m.effective_frequency(0), FreqMhz(687));
    }

    #[test]
    fn reference_and_batched_agree() {
        // A quick in-module smoke of the full differential proptest in
        // tests/batch_parity.rs: mixed workloads, a settling actuator, a
        // mid-run frequency change and a steal must leave discrete state
        // identical and every accumulator within 1e-12 relative.
        let build = |reference: bool| {
            let mut b = MachineBuilder::p630()
                .cores(6)
                .dvfs_settling(0.003)
                .noise(NoiseModel::NONE)
                .workload(0, WorkloadSpec::synthetic(100.0, 1.0e8))
                .workload(1, WorkloadSpec::synthetic(25.0, 5.0e7))
                .workload(
                    2,
                    SyntheticConfig::single(50.0, 1.0e6)
                        .body_only()
                        .looping()
                        .build(),
                )
                .workload(3, WorkloadSpec::hot_idle());
            if reference {
                b = b.reference_stepping();
            }
            b.build()
        };
        let mut batched = build(false);
        let mut reference = build(true);
        for (m_index, m) in [&mut batched, &mut reference].into_iter().enumerate() {
            for k in 0..400 {
                if k == 37 {
                    m.set_all_frequencies(FreqMhz(650));
                }
                if k == 120 {
                    m.set_frequency(2, FreqMhz(1000));
                    m.core_mut(1).steal(0.004);
                }
                m.step(0.01);
            }
            let _ = m_index;
        }
        // Deferred windows commit `k` equal additions in closed form, so
        // end-of-run accumulators may differ from the per-tick reference
        // by a few ulp (bounded well under 1e-12 relative); everything a
        // scheduler samples every tick stays bit-identical (k = 1).
        let rel = |a: f64, b: f64| (a - b).abs() <= 1.0e-12 * a.abs().max(b.abs()).max(1.0);
        for i in 0..6 {
            let a = batched.core(i).counters();
            let b = reference.core(i).counters();
            assert!(rel(a.instructions, b.instructions), "core {i} instructions");
            assert!(rel(a.cycles, b.cycles), "core {i} cycles");
            assert!(rel(a.l2_accesses, b.l2_accesses), "core {i} l2");
            assert!(rel(a.l3_accesses, b.l3_accesses), "core {i} l3");
            assert!(rel(a.mem_accesses, b.mem_accesses), "core {i} mem");
            let sa = batched.core(i).stats();
            let sb = reference.core(i).stats();
            assert!(rel(sa.total_instructions, sb.total_instructions));
            assert!(rel(sa.body_instructions, sb.body_instructions));
            assert!(rel(sa.busy_s, sb.busy_s));
            match (sa.completed_at_s, sb.completed_at_s) {
                (None, None) => {}
                (Some(x), Some(y)) => assert!(rel(x, y), "core {i} completion"),
                _ => panic!("core {i} completion presence diverged"),
            }
            let ca = batched.core(i).cursor();
            let cb = reference.core(i).cursor();
            assert_eq!(ca.phase, cb.phase, "core {i} phase index diverged");
            assert!(rel(ca.done_in_phase, cb.done_in_phase));
            assert_eq!(
                batched.effective_frequency(i),
                reference.effective_frequency(i)
            );
            let ra = batched.residency(i);
            let rb = reference.residency(i);
            assert!(
                (ra.mean_mhz() - rb.mean_mhz()).abs() < 1e-9,
                "core {i} residency diverged"
            );
            assert!((ra.total() - rb.total()).abs() < 1e-9);
            assert!(rel(
                batched.energy(i).joules(),
                reference.energy(i).joules()
            ));
            assert_eq!(
                batched.energy(i).peak_watts(),
                reference.energy(i).peak_watts()
            );
        }
    }
}
