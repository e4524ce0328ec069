//! The stateful fvsst scheduler daemon: counter windows, rounds when its
//! [`RoundClock`] says, and the policy implementation.

use crate::algorithm::{
    CacheStats, FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache, ScheduleDecision,
};
use crate::policy::{Decision, OverheadModel, Policy, TickContext};
use crate::predictor::{ErrorStats, PredictionTracker, Predictor};
use crate::round_clock::RoundClock;
use fvs_power::BudgetSchedule;
use fvs_telemetry::{
    BudgetDeadlineTracker, Counter, Gauge, Histogram, SchedEvent, Telemetry, Tracer, TriggerKind,
};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the fvsst daemon.
///
/// [`FvsstScheduler::new`] refuses (panics on) what it cannot run: an
/// `n` of 0, an ε that is NaN, infinite or negative, and a `deadline_s`
/// that is NaN or negative (`+∞`, no deadline, is legal).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// The scheduling algorithm (frequency set, tables, ε, idle
    /// detection).
    pub algorithm: FvsstAlgorithm,
    /// Dispatch period `t` in seconds (counter sampling interval). The
    /// paper uses 10 ms — the Linux scheduler makes shorter intervals
    /// unreliable.
    pub t_s: f64,
    /// Scheduling period multiplier `n` (`T = n·t`); the paper uses 10.
    pub n: u32,
    /// Global power budget over time.
    pub budget: BudgetSchedule,
    /// Memory-latency constants the predictor inverts the CPI equation
    /// with (measured once per platform, paper §7.1).
    pub latencies: fvs_model::MemoryLatencies,
    /// Telemetry pipeline: structured round events, metrics, and the
    /// budget-deadline journal all flow through this handle. Disabled by
    /// default — the disabled handle costs one branch per emission point
    /// and keeps the zero-allocation steady state intact.
    pub telemetry: Telemetry,
    /// Causal span tracer: each scheduling round records a
    /// `sched.round` span with `sched.pass1` / `sched.cache_probe` /
    /// `sched.pass2` children. Disabled by default — the disabled
    /// tracer costs one branch per span site and allocates nothing.
    pub tracer: Tracer,
    /// The budget-drop compliance deadline `ΔT` (s) used by the
    /// telemetry deadline accounting. The paper's section-2 scenario
    /// gives the survivors 1 s of overload tolerance.
    pub deadline_s: f64,
    /// Failed actuation verifications tolerated (with exponential
    /// backoff between re-issues) before a processor is pinned at the
    /// fail-safe minimum frequency and excluded from Pass 1.
    pub max_actuation_retries: u32,
}

impl SchedulerConfig {
    /// The paper's configuration: P630 platform, the default ε of
    /// [`FvsstAlgorithm::p630`], t = 10 ms, T = 100 ms, prototype
    /// overhead, effectively-unlimited budget.
    pub fn p630() -> Self {
        SchedulerConfig {
            algorithm: FvsstAlgorithm::p630(),
            t_s: 0.010,
            n: 10,
            budget: BudgetSchedule::constant(f64::INFINITY),
            latencies: fvs_model::MemoryLatencies::P630,
            telemetry: Telemetry::disabled(),
            tracer: Tracer::disabled(),
            deadline_s: 1.0,
            max_actuation_retries: 3,
        }
    }

    /// Override the dispatch period `t` (s).
    pub fn with_t_s(mut self, t_s: f64) -> Self {
        self.t_s = t_s;
        self
    }

    /// Override the scheduling-period multiplier `n` (`T = n·t`).
    pub fn with_n(mut self, n: u32) -> Self {
        self.n = n;
        self
    }

    /// Attach a telemetry pipeline (journal sink + metrics registry).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attach a causal span tracer (round → pass1/cache-probe/pass2).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Set the budget-drop compliance deadline `ΔT` (s).
    pub fn with_deadline_s(mut self, deadline_s: f64) -> Self {
        self.deadline_s = deadline_s;
        self
    }

    /// Set ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.algorithm.epsilon = epsilon;
        self
    }

    /// Set the budget schedule.
    pub fn with_budget(mut self, budget: BudgetSchedule) -> Self {
        self.budget = budget;
        self
    }

    /// Enable/disable idle detection (both the pinning and the edge
    /// trigger).
    pub fn with_idle_detection(mut self, enabled: bool) -> Self {
        self.algorithm.idle_detection = enabled;
        self
    }

    /// Set how many failed actuation verifications are retried before
    /// the fail-safe pin engages.
    pub fn with_max_actuation_retries(mut self, retries: u32) -> Self {
        self.max_actuation_retries = retries;
        self
    }
}

/// Metric handles the daemon keeps warm (created once at construction
/// so the hot path never touches the registry's mutex).
#[derive(Debug)]
struct SchedMetrics {
    rounds: Arc<Counter>,
    demotions: Arc<Counter>,
    cache_full_hits: Arc<Counter>,
    budget_headroom_watts: Arc<Gauge>,
    budget_violations: Arc<Counter>,
    budget_compliances: Arc<Counter>,
    round_wall_s: Arc<Histogram>,
    samples_quarantined: Arc<Counter>,
    actuation_retries: Arc<Counter>,
    failsafe_pins: Arc<Counter>,
}

impl SchedMetrics {
    fn from_telemetry(telemetry: &Telemetry) -> Option<Self> {
        let scope = telemetry.registry()?.scoped("sched");
        Some(SchedMetrics {
            rounds: scope.counter("rounds"),
            demotions: scope.counter("demotions"),
            cache_full_hits: scope.counter("cache_full_hits"),
            budget_headroom_watts: scope.gauge("budget_headroom_watts"),
            budget_violations: scope.counter("budget_violations"),
            budget_compliances: scope.counter("budget_compliances"),
            round_wall_s: scope.histogram("round_wall_s", &Histogram::latency_bounds()),
            samples_quarantined: scope.counter("samples_quarantined"),
            actuation_retries: scope.counter("actuation_retries"),
            failsafe_pins: scope.counter("failsafe_pins"),
        })
    }
}

/// Per-processor actuation verify-retry state (degradation-ladder rungs
/// 2 and 3: retry with backoff, then pin at the fail-safe minimum).
#[derive(Debug, Clone, Copy, Default)]
struct FailsafeState {
    retries: u32,
    next_retry_tick: u64,
    pinned: bool,
}

/// The fvsst scheduling daemon, as a [`Policy`].
#[derive(Debug)]
pub struct FvsstScheduler {
    config: SchedulerConfig,
    predictor: Predictor,
    tracker: PredictionTracker,
    clock: RoundClock,
    /// The command in force: the last round's frequencies with the
    /// fail-safe pins folded in. Everything else about the round is read
    /// from `cache`.
    command: Decision,
    schedules_run: u64,
    cache: ScheduleCache,
    proc_buf: Vec<ProcInput>,
    budget_tracker: BudgetDeadlineTracker,
    metrics: Option<SchedMetrics>,
    /// Counter samples the predictor refused.
    quarantined: u64,
    failsafe: Vec<FailsafeState>,
    /// No processor is pinned or mid-retry (every [`FailsafeState`] has
    /// zero `retries` and no pin), as the last verify walk left it.
    failsafe_quiet: bool,
    actuation_retries: u64,
}

impl FvsstScheduler {
    /// Daemon for `n_cores` cores. Panics on a configuration it cannot
    /// run (see [`SchedulerConfig`]).
    pub fn new(n_cores: usize, config: SchedulerConfig) -> Self {
        let clock = RoundClock::new(&config);
        config.algorithm.assert_valid_epsilon();
        assert!(config.deadline_s >= 0.0, "deadline_s must be non-negative");
        let cache = ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT);
        let budget_tracker = BudgetDeadlineTracker::new(config.deadline_s);
        let metrics = SchedMetrics::from_telemetry(&config.telemetry);
        FvsstScheduler {
            predictor: Predictor::new(n_cores, config.latencies),
            tracker: PredictionTracker::new(n_cores),
            config,
            clock,
            command: Decision::default(),
            schedules_run: 0,
            cache,
            proc_buf: Vec::with_capacity(n_cores),
            budget_tracker,
            metrics,
            quarantined: 0,
            failsafe: vec![FailsafeState::default(); n_cores],
            failsafe_quiet: true,
            actuation_retries: 0,
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Scheduling computations performed so far.
    pub fn schedules_run(&self) -> u64 {
        self.schedules_run
    }

    /// All-samples prediction-error stats for core `i`.
    pub fn error_stats(&self, i: usize) -> &ErrorStats {
        self.tracker.stats(i)
    }

    /// Steady-state prediction-error stats for core `i` (excludes
    /// init/exit windows — Table 2's starred column).
    pub fn steady_error_stats(&self, i: usize) -> &ErrorStats {
        self.tracker.steady_stats(i)
    }

    /// The most recent round's decision, as the schedule cache computed
    /// it: the fail-safe pins are not folded in (the host is commanded
    /// `f_min` for every processor [`failsafe_pinned`](Self::failsafe_pinned)
    /// says is pinned). `None` before the first round.
    pub fn last_decision(&self) -> Option<&ScheduleDecision> {
        (self.schedules_run > 0).then(|| self.cache.decision())
    }

    /// Hit/rebuild counters of the incremental scheduling cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Budget-drop deadline accounting (rounds/wall-time to compliance,
    /// violation counts).
    pub fn budget_deadline(&self) -> &BudgetDeadlineTracker {
        &self.budget_tracker
    }

    /// Counter samples the predictor refused so far.
    pub fn quarantined_samples(&self) -> u64 {
        self.quarantined
    }

    /// Actuation re-issues performed so far (degradation-ladder rung 2).
    pub fn actuation_retries(&self) -> u64 {
        self.actuation_retries
    }

    /// Whether processor `i` is pinned at the fail-safe minimum.
    pub fn failsafe_pinned(&self, i: usize) -> bool {
        self.failsafe[i].pinned
    }

    /// Processors currently pinned at the fail-safe minimum.
    pub fn failsafe_pins(&self) -> usize {
        self.failsafe.iter().filter(|f| f.pinned).count()
    }

    /// Release every fail-safe pin (e.g. after the platform's actuator
    /// was repaired); retry accounting restarts from zero.
    pub fn clear_failsafe_pins(&mut self) {
        for f in &mut self.failsafe {
            *f = FailsafeState::default();
        }
        self.failsafe_quiet = true;
    }

    /// Verify the command in force (set by the bootstrap round, which
    /// `decide` runs first) actually took effect on the hardware;
    /// re-issue with exponential backoff, and after the configured
    /// retries pin the offender at the fail-safe minimum
    /// (degradation-ladder rungs 2 and 3). Returns `true` when `out`
    /// carries a re-issued assignment the host must apply. With healthy
    /// actuation this is one slice comparison.
    fn verify_actuation(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        // Every command landed and nothing is pinned or mid-retry: the
        // walk would reset retry counts that are already zero.
        let command = &self.command;
        if self.failsafe_quiet && ctx.current == command.freqs {
            return false;
        }
        let f_min = self.config.algorithm.freq_set.min();
        let mut reissue = false;
        let mut quiet = true;
        for i in 0..ctx.current.len() {
            let fs = &mut self.failsafe[i];
            quiet &= !fs.pinned;
            let target = if fs.pinned { f_min } else { command.freqs[i] };
            if ctx.current[i] == target {
                if !fs.pinned {
                    fs.retries = 0;
                }
                continue;
            }
            quiet = false;
            if fs.pinned {
                // Already at the bottom of the ladder: keep nudging the
                // pin until it lands, without further retry accounting.
                reissue = true;
                continue;
            }
            if fs.retries >= self.config.max_actuation_retries {
                fs.pinned = true;
                let retries = fs.retries;
                self.config.telemetry.emit(SchedEvent::FailsafePin {
                    t_s: ctx.now_s,
                    proc: i as u32,
                    pinned_mhz: f_min.0,
                    retries,
                });
                if let Some(m) = &self.metrics {
                    m.failsafe_pins.inc();
                }
                reissue = true;
                continue;
            }
            if ctx.tick >= fs.next_retry_tick {
                fs.retries += 1;
                // Exponential backoff: 2, 4, 8… ticks between attempts.
                fs.next_retry_tick = ctx.tick + (1u64 << fs.retries.min(16));
                let attempt = fs.retries;
                self.actuation_retries += 1;
                self.config.telemetry.emit(SchedEvent::ActuationRetry {
                    t_s: ctx.now_s,
                    proc: i as u32,
                    attempt,
                    requested_mhz: target.0,
                    actual_mhz: ctx.current[i].0,
                });
                if let Some(m) = &self.metrics {
                    m.actuation_retries.inc();
                }
                reissue = true;
            }
        }
        self.failsafe_quiet = quiet;
        if reissue {
            self.command_in_force(out);
        }
        reissue
    }

    /// Fold the fail-safe pins into the command in force and hand it to
    /// `out`, field by field so warm buffers are reused. The command keeps
    /// the pins, so the verify walk compares against what was commanded.
    fn command_in_force(&mut self, out: &mut Decision) {
        let f_min = self.config.algorithm.freq_set.min();
        let command = &mut self.command;
        for (i, fs) in self.failsafe.iter().enumerate() {
            if fs.pinned {
                command.freqs[i] = f_min;
                command.desired[i] = f_min;
            }
        }
        out.freqs.clone_from(&command.freqs);
        out.desired.clone_from(&command.desired);
        out.powered_on.clone_from(&command.powered_on);
    }

    fn run_schedule(&mut self, ctx: &TickContext<'_>, trigger: TriggerKind, out: &mut Decision) {
        let _round_span = self.config.tracer.span("sched.round");
        let round = self.schedules_run;
        self.schedules_run += 1;
        self.budget_tracker.on_round();
        let telemetry_on = self.config.telemetry.enabled();
        let started = telemetry_on.then(Instant::now);
        let stats_before = self.cache.stats();
        if telemetry_on {
            self.config.telemetry.emit(SchedEvent::RoundStart {
                round,
                t_s: ctx.now_s,
                trigger,
                budget_w: ctx.budget_w,
            });
        }
        let n = ctx.samples.len();
        // Score the predictions made at the previous schedule against the
        // window that just closed (before refit drains it).
        for i in 0..n {
            if let Some(observed) = self.predictor.window_ipc(i) {
                self.tracker.observe(i, observed, ctx.transitional[i]);
            }
        }
        self.proc_buf.clear();
        for i in 0..n {
            // The window only ever held validated samples, so a fresh
            // fit is trustworthy by construction; a window that
            // quarantine left empty keeps the predictor's last fit.
            // Pinned processors (exhausted actuation retries) are fed
            // through the idle-pin path: excluded from Pass 1, assigned
            // the fail-safe minimum.
            let model = self.predictor.refit(i, ctx.current[i]);
            let pinned = self.failsafe[i].pinned;
            self.proc_buf.push(ProcInput {
                model: if pinned { None } else { model },
                idle: ctx.idle[i] || pinned,
                current: ctx.current[i],
            });
        }
        // Steady-state path: the cache skips pass 1 for every processor
        // whose fitted model stayed inside the fingerprint tolerance, and
        // skips the round entirely when nothing (and no budget) changed;
        // either way the computation allocates nothing after warm-up.
        let d = self.config.algorithm.schedule_cached_traced(
            &mut self.cache,
            &self.proc_buf,
            ctx.budget_w,
            &self.config.tracer,
        );
        for i in 0..n {
            self.tracker.predict(i, d.predicted_ipc[i]);
        }
        let command = &mut self.command;
        command.freqs.clone_from(&d.freqs);
        command.desired.clone_from(&d.desired);
        command.powered_on.clear();
        command.powered_on.resize(n, true);
        // Fail-safe pins override whatever the round produced (the
        // idle-pin path already yields f_min when idle detection is on;
        // this keeps the pin binding when it is off).
        self.command_in_force(out);
        if telemetry_on {
            // Journal the round: what was desired from the command in
            // force, the rest from the cache's decision and demotion log
            // (which always describes that decision, full hits included).
            let telemetry = &self.config.telemetry;
            for (i, f) in self.command.desired.iter().enumerate() {
                telemetry.emit(SchedEvent::Desired {
                    round,
                    proc: i as u32,
                    desired_mhz: f.0,
                    idle: ctx.idle[i],
                });
            }
            for r in self.cache.demotion_log() {
                telemetry.emit(SchedEvent::Demotion {
                    round,
                    proc: r.proc as u32,
                    from_mhz: r.from.0,
                    to_mhz: r.to.0,
                    predicted_loss: r.predicted_loss,
                    power_delta_w: r.power_delta_w,
                });
            }
            let d = self.cache.decision();
            let stats = self.cache.stats();
            let full_hit = stats.full_hits > stats_before.full_hits;
            telemetry.emit(SchedEvent::CacheOutcome {
                round,
                full_hit,
                proc_hits: (stats.proc_hits - stats_before.proc_hits) as u32,
                proc_rebuilds: (stats.proc_rebuilds - stats_before.proc_rebuilds) as u32,
            });
            let wall = started.map(|t| t.elapsed()).unwrap_or_default();
            telemetry.emit(SchedEvent::RoundEnd {
                round,
                feasible: d.feasible,
                demotions: d.demotions as u32,
                predicted_power_w: d.predicted_power_w,
                budget_w: ctx.budget_w,
                headroom_w: ctx.budget_w - d.predicted_power_w,
                wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            });
            if let Some(m) = &self.metrics {
                m.rounds.inc();
                m.demotions.add(d.demotions as u64);
                if full_hit {
                    m.cache_full_hits.inc();
                }
                m.round_wall_s.observe(wall.as_secs_f64());
            }
        }
    }
}

impl Policy for FvsstScheduler {
    fn name(&self) -> &str {
        "fvsst"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        // Degradation-ladder rung 1: impossible counter samples are
        // quarantined before they can reach the model-fitting window.
        self.predictor.push_all(ctx.samples, |i| {
            self.quarantined += 1;
            self.config.telemetry.emit(SchedEvent::SampleQuarantined {
                t_s: ctx.now_s,
                proc: i as u32,
                value: ctx.samples[i].observed_ipc(),
            });
            if let Some(m) = &self.metrics {
                m.samples_quarantined.inc();
            }
        });
        let tick = self.clock.tick(ctx.budget_w, ctx.idle);

        // Budget-deadline accounting: stamp drops, then judge this
        // tick's *measured* power against any open episode. Pure scalar
        // bookkeeping; the emits are no-ops when telemetry is disabled.
        if let Some(prev_budget_w) = tick.replaced_budget_w {
            let tracker = &mut self.budget_tracker;
            if let Some(ev) = tracker.on_budget_change(ctx.now_s, prev_budget_w, ctx.budget_w) {
                self.config.telemetry.emit(ev);
            }
        }
        let violations_before = self.budget_tracker.violations();
        if let Some(ev) = self
            .budget_tracker
            .on_power_sample(ctx.now_s, ctx.measured_power_w)
        {
            if let Some(m) = &self.metrics {
                if let SchedEvent::BudgetCompliance { .. } = ev {
                    m.budget_compliances.inc();
                }
                m.budget_violations
                    .add(self.budget_tracker.violations() - violations_before);
            }
            self.config.telemetry.emit(ev);
        }
        if let Some(m) = &self.metrics {
            m.budget_headroom_watts
                .set(ctx.budget_w - ctx.measured_power_w);
        }

        if let Some(trigger) = tick.round {
            self.run_schedule(ctx, trigger, out);
            return true;
        }
        // No round fired: verify the standing command actually took
        // effect (rungs 2–3 of the degradation ladder).
        self.verify_actuation(ctx, out)
    }

    fn overhead(&self) -> OverheadModel {
        OverheadModel::PROTOTYPE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlatformView;
    use fvs_model::counters::synthesize_delta;
    use fvs_model::CpiModel;
    use fvs_model::FreqMhz;

    fn ctx<'a>(
        now_s: f64,
        tick: u64,
        budget: f64,
        samples: &'a [fvs_model::CounterDelta],
        idle: &'a [bool],
        current: &'a [FreqMhz],
        platform: &'a PlatformView,
    ) -> TickContext<'a> {
        const NOT_TRANSITIONAL: [bool; 8] = [false; 8];
        const GROUND_TRUTH: [CpiModel; 8] = [CpiModel {
            cpi0: 1.0,
            mem_time_per_instr: 0.0,
        }; 8];
        TickContext {
            now_s,
            tick,
            budget_w: budget,
            measured_power_w: 0.0,
            samples,
            idle,
            transitional: &NOT_TRANSITIONAL[..samples.len()],
            current,
            ground_truth: &GROUND_TRUTH[..samples.len()],
            platform,
        }
    }

    fn sample_for(model: &CpiModel, mem_rate: f64, f: FreqMhz, dt: f64) -> fvs_model::CounterDelta {
        let instr = model.perf_at(f) * dt;
        synthesize_delta(model, 0.0, 0.0, mem_rate, instr, f)
    }

    /// What fired each round `telemetry` journaled, in order.
    fn triggers(telemetry: &Telemetry) -> Vec<TriggerKind> {
        (telemetry.events().iter())
            .filter_map(|e| match *e {
                SchedEvent::RoundStart { trigger, .. } => Some(trigger),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn timer_fires_every_n_ticks() {
        let platform = PlatformView::p630();
        let telemetry = Telemetry::memory(64);
        let cfg = SchedulerConfig::p630().with_telemetry(telemetry.clone());
        let mut s = FvsstScheduler::new(1, cfg);
        let model = CpiModel::from_components(1.0, 4.0e-9);
        // Apply each command like a real host, so actuation verification
        // sees its decisions honored.
        let mut current = [FreqMhz(1000)];
        let idle = [false];
        let mut decisions = 0;
        for tick in 0..30u64 {
            let samples = [sample_for(&model, 4.0e-9 / 393.0e-9, current[0], 0.01)];
            let c = ctx(
                tick as f64 * 0.01,
                tick,
                f64::INFINITY,
                &samples,
                &idle,
                &current,
                &platform,
            );
            if let Some(d) = s.on_tick(&c) {
                decisions += 1;
                current = [d.freqs[0]];
            }
        }
        assert_eq!(decisions, 3, "30 ticks / n=10");
        assert_eq!(triggers(&telemetry), [TriggerKind::Timer; 3]);
    }

    #[test]
    fn budget_change_triggers_immediately() {
        let platform = PlatformView::p630();
        let telemetry = Telemetry::memory(64);
        let cfg = SchedulerConfig::p630().with_telemetry(telemetry.clone());
        let mut s = FvsstScheduler::new(1, cfg);
        let model = CpiModel::from_components(1.0, 0.0);
        let current = [FreqMhz(1000)];
        let idle = [false];
        // Tick 0 establishes the budget (bootstrap decision); tick 1
        // changes it.
        let samples = [sample_for(&model, 0.0, FreqMhz(1000), 0.01)];
        let c0 = ctx(0.01, 0, 560.0, &samples, &idle, &current, &platform);
        assert!(s.on_tick(&c0).is_some(), "bootstrap decision");
        let samples = [sample_for(&model, 0.0, FreqMhz(1000), 0.01)];
        let c1 = ctx(0.02, 1, 75.0, &samples, &idle, &current, &platform);
        let d = s.on_tick(&c1).expect("budget change must trigger");
        assert_eq!(
            triggers(&telemetry),
            [TriggerKind::Timer, TriggerKind::BudgetChange]
        );
        // 75 W cap on one CPU-bound core: 750 MHz.
        assert_eq!(d.freqs[0], FreqMhz(750));
        assert!(s.last_decision().expect("a round ran").feasible);
    }

    #[test]
    fn idle_edge_triggers_and_pins_to_min() {
        let platform = PlatformView::p630();
        let telemetry = Telemetry::memory(64);
        let cfg = SchedulerConfig::p630().with_telemetry(telemetry.clone());
        let mut s = FvsstScheduler::new(1, cfg);
        let model = CpiModel::from_components(1.0 / 1.3, 0.0);
        let current = [FreqMhz(1000)];
        let samples = [sample_for(&model, 0.0, FreqMhz(1000), 0.01)];
        let c0 = ctx(
            0.01,
            0,
            f64::INFINITY,
            &samples,
            &[false],
            &current,
            &platform,
        );
        assert!(s.on_tick(&c0).is_some(), "bootstrap decision");
        // The edge arrives one tick after the bootstrap: deferred by the
        // rate limiter (min spacing 2)…
        let samples = [sample_for(&model, 0.0, FreqMhz(1000), 0.01)];
        let c1 = ctx(
            0.02,
            1,
            f64::INFINITY,
            &samples,
            &[true],
            &current,
            &platform,
        );
        assert!(s.on_tick(&c1).is_none(), "edge deferred inside the window");
        // …and served on the next tick, not dropped.
        let samples = [sample_for(&model, 0.0, FreqMhz(1000), 0.01)];
        let c2 = ctx(
            0.03,
            2,
            f64::INFINITY,
            &samples,
            &[true],
            &current,
            &platform,
        );
        let d = s.on_tick(&c2).expect("idle edge must trigger");
        assert_eq!(d.freqs[0], FreqMhz(250));
        assert_eq!(
            triggers(&telemetry),
            [TriggerKind::Timer, TriggerKind::IdleEdge]
        );
    }

    #[test]
    fn flapping_idle_signal_is_rate_limited() {
        let platform = PlatformView::p630();
        let mut s = FvsstScheduler::new(1, SchedulerConfig::p630());
        let model = CpiModel::from_components(1.0, 0.0);
        let mut current = [FreqMhz(1000)];
        let mut decisions = 0u32;
        // The idle signal flips EVERY tick for 40 ticks; each command is
        // applied so actuation verification sees it honored.
        for tick in 0..40u64 {
            let samples = [sample_for(&model, 0.0, current[0], 0.01)];
            let idle = [tick % 2 == 0];
            let c = ctx(
                (tick + 1) as f64 * 0.01,
                tick,
                f64::INFINITY,
                &samples,
                &idle,
                &current,
                &platform,
            );
            if let Some(d) = s.on_tick(&c) {
                decisions += 1;
                current = [d.freqs[0]];
            }
        }
        // Unlimited, this would be ~40 decisions; the 2-tick spacing
        // caps it at ~20, and edges are never silently lost (each
        // deferred edge is served).
        assert!(
            decisions <= 21,
            "rate limiter failed: {decisions} decisions in 40 ticks"
        );
        assert!(decisions >= 15, "edges must still be served: {decisions}");
    }

    #[test]
    fn memory_bound_core_gets_low_frequency_on_timer() {
        let platform = PlatformView::p630();
        let mut s = FvsstScheduler::new(1, SchedulerConfig::p630());
        // Heavily memory-bound: β = 10 at cpi0 = 1.
        let model = CpiModel::from_components(1.0, 10.0e-9);
        let mem_rate = 10.0e-9 / 393.0e-9;
        let current = [FreqMhz(1000)];
        let idle = [false];
        let mut last = None;
        for tick in 0..10u64 {
            let samples = [sample_for(&model, mem_rate, FreqMhz(1000), 0.01)];
            let c = ctx(
                (tick + 1) as f64 * 0.01,
                tick,
                f64::INFINITY,
                &samples,
                &idle,
                &current,
                &platform,
            );
            if let Some(d) = s.on_tick(&c) {
                last = Some(d);
            }
        }
        let d = last.expect("timer fired");
        assert!(
            d.freqs[0] <= FreqMhz(700),
            "memory-bound desired {}",
            d.freqs[0]
        );
        assert_eq!(d.desired[0], d.freqs[0], "no budget pressure");
    }

    /// The verify walk, tick by tick, on two processors with the timer
    /// out of the way: what it re-issues, counts, pins and journals, and
    /// when it is skipped. Processor 0's commands always land; whether
    /// processor 1's do is the table's input.
    #[test]
    fn verify_walk_table() {
        let platform = PlatformView::p630();
        let telemetry = Telemetry::memory(64);
        let cfg = SchedulerConfig::p630()
            .with_n(1_000)
            .with_telemetry(telemetry.clone());
        let mut s = FvsstScheduler::new(2, cfg);
        let f_min = s.config.algorithm.freq_set.min();
        let compute = CpiModel::from_components(1.0, 0.0);
        let membound = CpiModel::from_components(1.0, 10.0e-9);
        let mut current = [FreqMhz(1000); 2];
        let mut tick = 0u64;
        // One tick: decide, then apply what was commanded — processor 1
        // only when `lands`. Returns whether anything was commanded.
        let mut step = |s: &mut FvsstScheduler, current: &mut [FreqMhz; 2], lands: bool| {
            let samples = [
                sample_for(&compute, 0.0, current[0], 0.01),
                sample_for(&membound, 10.0e-9 / 393.0e-9, current[1], 0.01),
            ];
            let c = ctx(
                (tick + 1) as f64 * 0.01,
                tick,
                f64::INFINITY,
                &samples,
                &[false, false],
                &current[..],
                &platform,
            );
            tick += 1;
            let commanded = s.on_tick(&c);
            if let Some(d) = &commanded {
                current[0] = d.freqs[0];
                if lands {
                    current[1] = d.freqs[1];
                }
            }
            commanded
        };
        // The ladder's events so far: (kind, processor, attempt / retries).
        let ladder_events = |telemetry: &Telemetry| -> Vec<(&str, u32, u32)> {
            (telemetry.events().iter())
                .filter_map(|e| match *e {
                    SchedEvent::ActuationRetry { proc, attempt, .. } => {
                        Some(("retry", proc, attempt))
                    }
                    SchedEvent::FailsafePin { proc, retries, .. } => Some(("pin", proc, retries)),
                    _ => None,
                })
                .collect()
        };
        let retry = |attempt| ("retry", 1, attempt);

        // Tick 0, the bootstrap round: the memory-bound processor is
        // sent below f_max, and the command lands.
        let d0 = step(&mut s, &mut current, true).expect("bootstrap round");
        assert!(d0.freqs[1] < FreqMhz(1000) && d0.freqs[1] > f_min);
        // Command landed: nothing happens and nothing is stored.
        for _ in 1..4 {
            assert!(step(&mut s, &mut current, true).is_none());
            assert!(s.failsafe_quiet && s.failsafe.iter().all(|f| f.retries == 0));
        }
        assert_eq!((s.actuation_retries(), s.failsafe_pins()), (0, 0));
        assert_eq!(ladder_events(&telemetry), []);

        // Tick 4: processor 1 falls back to f_max on its own. The walk
        // re-issues at once, then two and four ticks later (ticks 4, 6
        // and 10); the third re-issue lands.
        current[1] = FreqMhz(1000);
        let reissued: Vec<bool> = (4..12)
            .map(|t| step(&mut s, &mut current, t == 10).is_some_and(|d| d.freqs == d0.freqs))
            .collect();
        assert_eq!(
            reissued,
            [true, false, true, false, false, false, true, false]
        );
        assert_eq!(current[1], d0.freqs[1]);
        assert_eq!(ladder_events(&telemetry), [retry(1), retry(2), retry(3)]);
        assert_eq!((s.actuation_retries(), s.failsafe_pins()), (3, 0));
        // Landed: the count is back at zero (tick 11 found the match),
        // so the next walk is skipped and a later fault starts over.
        assert!(s.failsafe_quiet && s.failsafe[1].retries == 0);
        assert!(step(&mut s, &mut current, true).is_none());

        // Tick 13 on: the same fault, and now nothing lands. The backoff
        // deadline the last re-issue set (tick 18) still stands, so
        // attempts 1-3 come at ticks 18, 20 and 24; the pin on the tick
        // after the third, and from then on the pin is re-issued every
        // tick while processor 0 matches throughout.
        current[1] = FreqMhz(1000);
        let commanded: Vec<Option<FreqMhz>> = (13..29)
            .map(|_| step(&mut s, &mut current, false).map(|d| d.freqs[1]))
            .collect();
        let (reissue, pin) = (Some(d0.freqs[1]), Some(f_min));
        let mut expected = [None; 16];
        (expected[5], expected[7], expected[11]) = (reissue, reissue, reissue);
        expected[12..].fill(pin);
        assert_eq!(commanded, expected);
        assert_eq!(
            ladder_events(&telemetry)[3..],
            [retry(1), retry(2), retry(3), ("pin", 1, 3)]
        );
        assert_eq!((s.actuation_retries(), s.failsafe_pins()), (6, 1));
        assert!(s.failsafe_pinned(1) && !s.failsafe_pinned(0));
        // The pin lands: nothing more is commanded, but a pinned
        // processor keeps the walk on.
        assert_eq!(
            step(&mut s, &mut current, true).map(|d| d.freqs[1]),
            Some(f_min)
        );
        assert!(step(&mut s, &mut current, true).is_none());
        assert!(!s.failsafe_quiet);
        // Released: quiet again, with the pinned frequency still the
        // command in force.
        s.clear_failsafe_pins();
        assert!(s.failsafe_quiet && s.failsafe_pins() == 0);
        assert!(step(&mut s, &mut current, true).is_none());
        assert_eq!(current[1], f_min);
        assert_eq!(ladder_events(&telemetry).len(), 7);
        assert_eq!(s.actuation_retries(), 6);
    }

    /// A sample can pass `is_sane` and still be impossible. The
    /// predictor's rule is the only check between a sample and the
    /// fitting window, so such a sample must stop there: quarantined,
    /// counted once, the window as it was.
    #[test]
    fn sane_but_implausible_samples_stay_out_of_the_window() {
        let platform = PlatformView::p630();
        let mut s = FvsstScheduler::new(1, SchedulerConfig::p630().with_n(1_000));
        let model = CpiModel::from_components(1.0, 4.0e-9);
        let good = sample_for(&model, 4.0e-9 / 393.0e-9, FreqMhz(1000), 0.01);
        let too_fast = fvs_model::CounterDelta {
            instructions: good.cycles * 8.5,
            ..good
        };
        let no_cycles = fvs_model::CounterDelta {
            cycles: 0.0,
            ..good
        };
        assert!(too_fast.is_sane() && no_cycles.is_sane());
        let mut current = [FreqMhz(1000)];
        let mut window_ipc = None;
        for (tick, sample) in [good, good, too_fast, no_cycles, good]
            .into_iter()
            .enumerate()
        {
            let samples = [sample];
            let c = ctx(
                (tick + 1) as f64 * 0.01,
                tick as u64,
                f64::INFINITY,
                &samples,
                &[false],
                &current,
                &platform,
            );
            if let Some(d) = s.on_tick(&c) {
                current = [d.freqs[0]];
            }
            match tick {
                // Tick 0's bootstrap round drained the window.
                1 => window_ipc = s.predictor.window_ipc(0),
                2 | 3 => {
                    assert_eq!(s.quarantined_samples(), tick as u64 - 1);
                    assert_eq!(s.predictor.window_ipc(0), window_ipc);
                }
                _ => {}
            }
        }
        assert!(window_ipc.is_some());
        assert_eq!(s.quarantined_samples(), 2);
    }

    /// Quarantine recovery must invalidate the schedule cache: while
    /// core 0's counters are corrupted it coasts on the last trusted
    /// fingerprint (stable decisions, cheap rounds), but the first
    /// post-recovery refit changes the fingerprint and the cache must
    /// rebuild that processor's pass-1 entry — a stale hit would keep
    /// scheduling the old workload.
    #[test]
    fn quarantine_recovery_invalidates_the_cached_schedule() {
        let platform = PlatformView::p630();
        let mut s = FvsstScheduler::new(2, SchedulerConfig::p630());
        let compute = CpiModel::from_components(1.0, 0.0);
        // Memory-bound enough that demoting core 0 becomes the cheap
        // way to meet the budget once its true model is known.
        let membound = CpiModel::from_components(1.0, 10.0e-9);
        let mem_rate = 10.0e-9 / 393.0e-9;
        let budget = 200.0; // forces pass-2 demotion on two cores
        let idle = [false, false];
        let mut current = [FreqMhz(1000), FreqMhz(1000)];
        let mut tick = 0u64;
        let mut last: Option<Decision> = None;
        let run = |s: &mut FvsstScheduler,
                   current: &mut [FreqMhz; 2],
                   tick: &mut u64,
                   last: &mut Option<Decision>,
                   ticks: u64,
                   sample0: &dyn Fn(FreqMhz) -> fvs_model::CounterDelta| {
            for _ in 0..ticks {
                let samples = [
                    sample0(current[0]),
                    sample_for(&compute, 0.0, current[1], 0.01),
                ];
                let c = ctx(
                    (*tick + 1) as f64 * 0.01,
                    *tick,
                    budget,
                    &samples,
                    &idle,
                    &current[..],
                    &platform,
                );
                if let Some(d) = s.on_tick(&c) {
                    current[0] = d.freqs[0];
                    current[1] = d.freqs[1];
                    *last = Some(d);
                }
                *tick += 1;
            }
        };

        // Warm-up: both cores compute-bound and symmetric.
        run(&mut s, &mut current, &mut tick, &mut last, 30, &|f| {
            sample_for(&compute, 0.0, f, 0.01)
        });
        let warm = last.clone().expect("warm-up decided");
        assert_eq!(warm.freqs[0], warm.freqs[1], "symmetric load");
        assert_eq!(s.quarantined_samples(), 0);

        // Corruption: core 0's counters go NaN. Every one is
        // quarantined, the schedule coasts on the trusted fingerprint,
        // and the rounds stay full cache hits.
        let hits_before = s.cache_stats().full_hits;
        run(&mut s, &mut current, &mut tick, &mut last, 20, &|f| {
            let mut d = sample_for(&compute, 0.0, f, 0.01);
            d.cycles = f64::NAN;
            d
        });
        assert_eq!(s.quarantined_samples(), 20);
        let quarantined = last.clone().expect("decision in force");
        assert_eq!(quarantined.freqs, warm.freqs, "coasts on trusted model");
        assert!(
            s.cache_stats().full_hits > hits_before,
            "quarantined rounds should be full cache hits"
        );

        // Recovery: core 0 reports healthy counters again — but for a
        // memory-bound phase. The refit must displace the stale
        // fingerprint (a pass-1 rebuild, not a hit) and the schedule
        // must shift: core 0 absorbs the demotion, core 1 climbs.
        let rebuilds_before = s.cache_stats().proc_rebuilds;
        run(&mut s, &mut current, &mut tick, &mut last, 20, &|f| {
            sample_for(&membound, mem_rate, f, 0.01)
        });
        assert_eq!(s.quarantined_samples(), 20, "healthy samples trusted");
        assert!(
            s.cache_stats().proc_rebuilds > rebuilds_before,
            "recovery must rebuild the cached pass-1 entry"
        );
        let recovered = last.expect("post-recovery decision");
        assert!(
            recovered.freqs[0] < recovered.freqs[1],
            "stale cache: core 0 still scheduled as compute-bound ({} vs {})",
            recovered.freqs[0],
            recovered.freqs[1]
        );
        assert!(recovered.freqs.iter().all(|f| f.0 > 0));
    }
}
