//! The ablation comparators: fvsst with one of the paper's rules swapped
//! for the alternative the ablation experiment measures it against.
//!
//! Both run the daemon's rounds — pass 1 of [`FvsstAlgorithm`] on
//! counter-fitted models, when the daemon's [`RoundClock`] says — and
//! replace what follows it:
//!
//! - [`RoundRobinDemotion`] — pass 2 demotes by rotation instead of by
//!   least predicted loss (Figure 3, step 2).
//! - [`ContinuousIdeal`] — pass 1's ε scan gives way to the continuous
//!   `f_ideal` closed form snapped up to a setting (the §5 extension).

use fvs_model::{ideal_frequency, FreqMhz};
use fvs_power::PowerVoltageIndex;
use fvs_sched::{
    Decision, FvsstAlgorithm, ModelTolerance, OverheadModel, Policy, Predictor, ProcInput,
    RoundClock, ScheduleCache, SchedulerConfig, TickContext,
};

/// The daemon's round loop: a round when its [`RoundClock`] says, which
/// refits every core and runs pass 1 under an unbounded budget, so the
/// cache's decision holds the desired frequencies.
#[derive(Debug)]
struct Rounds {
    algorithm: FvsstAlgorithm,
    clock: RoundClock,
    predictor: Predictor,
    cache: ScheduleCache,
    procs: Vec<ProcInput>,
}

impl Rounds {
    fn new(n_cores: usize, config: &SchedulerConfig) -> Self {
        let clock = RoundClock::new(config);
        config.algorithm.assert_valid_epsilon();
        Rounds {
            algorithm: config.algorithm.clone(),
            clock,
            predictor: Predictor::new(n_cores, config.latencies),
            cache: ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT),
            procs: Vec::with_capacity(n_cores),
        }
    }

    /// Take one tick's samples; returns whether a round ran.
    fn tick(&mut self, ctx: &TickContext<'_>) -> bool {
        self.predictor.push_all(ctx.samples, |_| {});
        if self.clock.tick(ctx.budget_w, ctx.idle).round.is_none() {
            return false;
        }
        self.procs.clear();
        for i in 0..ctx.samples.len() {
            self.procs.push(ProcInput {
                model: self.predictor.refit(i, ctx.current[i]),
                idle: ctx.idle[i],
                current: ctx.current[i],
            });
        }
        // No budget: the decision is pass 1's, every processor desired.
        self.algorithm
            .schedule_cached(&mut self.cache, &self.procs, f64::INFINITY);
        true
    }
}

/// fvsst with round-robin demotion: over budget, the next demotable
/// processor after the last one demoted steps down, whatever its
/// predicted loss, until the desired frequencies fit.
#[derive(Debug)]
pub struct RoundRobinDemotion {
    rounds: Rounds,
    index: PowerVoltageIndex,
    slots: Vec<Option<usize>>,
}

impl RoundRobinDemotion {
    /// Comparator for `n_cores` cores with the daemon's algorithm, period
    /// `n` and latencies from `config` (the host supplies the budget).
    pub fn new(n_cores: usize, config: &SchedulerConfig) -> Self {
        let alg = &config.algorithm;
        RoundRobinDemotion {
            index: PowerVoltageIndex::build(&alg.power_table, &alg.voltage_table, &alg.freq_set),
            rounds: Rounds::new(n_cores, config),
            slots: Vec::with_capacity(n_cores),
        }
    }
}

/// Demote `desired` under `budget_w` by rotation, leaving each
/// processor's set index in `slots` (`None` off the grid: a fixed load).
/// Power is the index's sum in processor order plus per-step deltas, as
/// pass 2 keeps it.
fn rotate(
    alg: &FvsstAlgorithm,
    index: &PowerVoltageIndex,
    desired: &[FreqMhz],
    budget_w: f64,
    slots: &mut Vec<Option<usize>>,
) {
    slots.clear();
    slots.extend(desired.iter().map(|&f| alg.freq_set.index_of(f)));
    let mut power = 0.0;
    for (slot, &f) in slots.iter().zip(desired) {
        power += slot.map_or_else(
            || alg.power_table.power_interpolated(f),
            |k| index.power_w(k),
        );
    }
    let n = desired.len();
    let mut cursor = 0;
    while power > budget_w {
        let next = (cursor..n)
            .chain(0..cursor)
            .find_map(|i| slots[i].filter(|&k| k > 0).map(|k| (i, k)));
        let Some((i, k)) = next else {
            break;
        };
        power += index.power_w(k - 1) - index.power_w(k);
        slots[i] = Some(k - 1);
        cursor = (i + 1) % n;
    }
}

impl Policy for RoundRobinDemotion {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        if !self.rounds.tick(ctx) {
            return false;
        }
        let (alg, desired) = (
            &self.rounds.algorithm,
            &self.rounds.cache.decision().desired,
        );
        rotate(alg, &self.index, desired, ctx.budget_w, &mut self.slots);
        let slots = self.slots.iter().zip(desired);
        out.freqs.clear();
        out.freqs
            .extend(slots.map(|(k, &f)| k.map_or(f, |k| alg.freq_set.at(k))));
        out.desired.clone_from(desired);
        out.powered_on.clear();
        out.powered_on.resize(desired.len(), true);
        true
    }

    fn overhead(&self) -> OverheadModel {
        OverheadModel::PROTOTYPE
    }
}

/// fvsst with the continuous `f_ideal` in place of the ε scan: every
/// modelled processor that is not idle-pinned wants [`ideal_frequency`]
/// snapped up to a setting, the rest where pass 1 puts them, and runs
/// where it wants. Unbudgeted, like [`crate::NoDvfs`]: there is no
/// pass 2.
#[derive(Debug)]
pub struct ContinuousIdeal {
    rounds: Rounds,
}

impl ContinuousIdeal {
    /// Comparator for `n_cores` cores with the daemon's algorithm, period
    /// `n` and latencies from `config`.
    pub fn new(n_cores: usize, config: &SchedulerConfig) -> Self {
        ContinuousIdeal {
            rounds: Rounds::new(n_cores, config),
        }
    }
}

/// Where [`ContinuousIdeal`] runs `p`, which pass 1 wants at `desired`.
fn snap_ideal(alg: &FvsstAlgorithm, p: &ProcInput, desired: FreqMhz) -> FreqMhz {
    let set = &alg.freq_set;
    match &p.model {
        Some(m) if !(p.idle && alg.idle_detection) => {
            set.snap_up(ideal_frequency(m, set.max(), alg.epsilon))
        }
        _ => desired,
    }
}

impl Policy for ContinuousIdeal {
    fn name(&self) -> &str {
        "continuous-ideal"
    }

    fn decide(&mut self, ctx: &TickContext<'_>, out: &mut Decision) -> bool {
        if !self.rounds.tick(ctx) {
            return false;
        }
        let (alg, pass1) = (
            &self.rounds.algorithm,
            &self.rounds.cache.decision().desired,
        );
        let procs = self.rounds.procs.iter().zip(pass1);
        out.freqs.clear();
        out.freqs.extend(procs.map(|(p, &f)| snap_ideal(alg, p, f)));
        out.desired.clone_from(&out.freqs);
        out.powered_on.clear();
        out.powered_on.resize(pass1.len(), true);
        true
    }

    fn overhead(&self) -> OverheadModel {
        OverheadModel::PROTOTYPE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_model::{CpiModel, MemoryLatencies, PerfLossTable};
    use fvs_power::{BudgetEvent, BudgetSchedule};
    use fvs_sched::{PlatformView, ScheduledSimulation};
    use fvs_sim::{Machine, MachineBuilder};
    use fvs_workloads::{intensity_profile, WorkloadSpec};

    fn busy(c: f64) -> ProcInput {
        let model = CpiModel::from_profile(&intensity_profile(c), &MemoryLatencies::P630);
        ProcInput {
            model: Some(model),
            idle: false,
            current: FreqMhz(1000),
        }
    }

    /// The ablation experiment's machine: four looping workloads from
    /// CPU-bound to memory-bound.
    fn diverse_machine() -> Machine {
        let builder = MachineBuilder::p630();
        [100.0, 60.0, 30.0, 5.0]
            .into_iter()
            .enumerate()
            .fold(builder, |b, (i, c)| {
                b.workload(i, WorkloadSpec::synthetic(c, 1.0e13).looping())
            })
            .seed(3845)
            .build()
    }

    /// Under a budget that never binds there is nothing to demote, so
    /// round-robin is the daemon, round for round: the bootstrap, the
    /// timer and the budget change fire on the same ticks.
    #[test]
    fn round_robin_without_pressure_is_the_daemon() {
        let change = BudgetEvent {
            at_s: 1.055,
            budget_w: 560.0,
        };
        let budget = BudgetSchedule::with_events(f64::INFINITY, vec![change]);
        let config = SchedulerConfig::p630().with_budget(budget.clone());
        let policy = RoundRobinDemotion::new(4, &config);
        let mut ours = ScheduledSimulation::with_policy(diverse_machine(), policy, budget, 0.01);
        let mut daemon = ScheduledSimulation::new(diverse_machine(), config);
        let (mut ours, daemon) = (ours.run_for(3.0), daemon.run_for(3.0));
        assert_eq!(
            (ours.policy.as_str(), daemon.decisions),
            ("round-robin", 31)
        );
        ours.policy = daemon.policy.clone();
        assert_eq!(format!("{ours:?}"), format!("{daemon:?}"));
    }

    /// Below the 9 W/processor floor the rotation walks every core to
    /// `f_min` and stops.
    #[test]
    fn below_the_floor_every_core_ends_at_f_min() {
        let config = SchedulerConfig::p630();
        let policy = RoundRobinDemotion::new(4, &config);
        let budget = BudgetSchedule::constant(4.0 * 9.0 - 1.0);
        let mut sim = ScheduledSimulation::with_policy(diverse_machine(), policy, budget, 0.01);
        let report = sim.run_for(0.5);
        for i in 0..4 {
            assert_eq!(sim.machine().effective_frequency(i), FreqMhz(250));
        }
        assert_eq!(report.final_power_w, 36.0);
    }

    #[test]
    fn an_empty_machine_is_commanded_nothing() {
        let config = SchedulerConfig::p630();
        let platform = PlatformView::p630();
        let policies: [Box<dyn Policy>; 2] = [
            Box::new(RoundRobinDemotion::new(0, &config)),
            Box::new(ContinuousIdeal::new(0, &config)),
        ];
        for mut policy in policies {
            // The bootstrap round, then a budget change below nothing.
            for (tick, budget_w) in [(0, 0.0), (1, -1.0)] {
                let ctx = TickContext {
                    now_s: 0.01 * (tick + 1) as f64,
                    tick,
                    budget_w,
                    measured_power_w: 0.0,
                    samples: &[],
                    idle: &[],
                    transitional: &[],
                    current: &[],
                    ground_truth: &[],
                    platform: &platform,
                };
                let d = policy.on_tick(&ctx).expect("a round");
                assert_eq!(d, Decision::default(), "{}", policy.name());
            }
        }
    }

    #[test]
    fn round_robin_demotion_meets_budget_but_costs_more() {
        let alg = FvsstAlgorithm::p630();
        let set = &alg.freq_set;
        let index = PowerVoltageIndex::build(&alg.power_table, &alg.voltage_table, set);
        let procs = vec![busy(100.0), busy(10.0), busy(10.0), busy(10.0)];
        let budget = 250.0;
        let desired = alg.schedule(&procs, f64::INFINITY).desired;
        let mut slots = Vec::new();
        rotate(&alg, &index, &desired, budget, &mut slots);
        let rr: Vec<FreqMhz> = slots.iter().map(|k| set.at(k.unwrap())).collect();
        let ll = alg.schedule(&procs, budget);
        let power: f64 = rr
            .iter()
            .map(|&f| alg.power_table.power_interpolated(f))
            .sum();
        assert!(power <= budget);
        assert!(ll.predicted_power_w <= budget);
        // Least-loss protects the CPU-bound processor at least as well.
        assert!(ll.freqs[0] >= rr[0]);
        let loss = |freqs: &[FreqMhz]| -> f64 {
            let tables = procs
                .iter()
                .map(|p| PerfLossTable::build(&p.model.unwrap(), set));
            (tables.zip(freqs))
                .map(|(t, &f)| t.entries[set.index_of(f).unwrap()].loss_vs_ref)
                .sum()
        };
        assert!(loss(&ll.freqs) <= loss(&rr) + 1e-12);
    }

    #[test]
    fn continuous_mode_matches_discrete_within_one_step() {
        let alg = FvsstAlgorithm::p630();
        for c in [0.0, 20.0, 40.0, 60.0, 80.0, 100.0] {
            let p = busy(c);
            let discrete = alg.schedule(&[p], f64::INFINITY).freqs[0];
            let continuous = snap_ideal(&alg, &p, discrete);
            let diff = (discrete.0 as i64 - continuous.0 as i64).abs();
            assert!(
                diff <= 50,
                "intensity {c}: discrete {discrete} vs continuous {continuous}"
            );
        }
        // An idle-pinned processor stays where pass 1 pins it.
        let idle = ProcInput {
            idle: true,
            ..busy(100.0)
        };
        assert_eq!(snap_ideal(&alg, &idle, FreqMhz(250)), FreqMhz(250));
    }
}
