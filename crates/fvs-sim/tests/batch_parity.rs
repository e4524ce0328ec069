//! Differential proptest: the batched SoA tick path (`Machine::step`)
//! must agree with the scalar reference stepper
//! (`MachineBuilder::reference_stepping`) — across random workloads,
//! frequencies, tick sizes (changed mid-run too), actuator settling,
//! steals, swaps and power gating, on machines from one core to several
//! 128-row blocks with a ragged last one, read and sampled mid-run.
//!
//! A third machine rides along: `twin`, batched like the first, same
//! seed, same actions, noise on. It differs only in *how it is sampled*
//! — one core at a time where `batched` is sampled in one pass — so the
//! two must agree with `==`, values and RNG stream alike.
//!
//! The agreement contract: everything a scheduler observes every tick
//! (samples, effective frequencies, power, decisions) is bit-identical,
//! because a deferred window of one tick commits with exactly the
//! per-tick arithmetic. Accumulators read across a longer window may
//! instead have been committed in closed form (`x += k·d` in place of
//! `k` separate adds), which agrees with the per-tick reference to a
//! few ulp — asserted here at ≤1e-12 relative. Discrete state (phase
//! indices, completion times, finished flags, frequencies, peak power)
//! stays exactly equal: safety margins in the window sizing keep ulp
//! noise away from every phase boundary.
//!
//! The reference machine runs every row through the scalar definition
//! of a core's tick (`CoreBank::step_row_core`) and nothing else — no
//! phase cache, no fast path, no deferred window — so any divergence
//! here means the batched pass changed semantics, not just speed.

use fvs_model::{CounterDelta, FreqMhz};
use fvs_sim::{CoreStats, Machine, MachineBuilder, ThrottlePowerModel};
use fvs_workloads::{PhaseKind, SyntheticConfig};
use proptest::prelude::*;

/// One randomly-placed action, applied at the same tick index to both
/// machines. The first five change machine state. `SetDt` changes the
/// tick length from there on (every window still open at the old length
/// has to be committed with it); `Read` compares one core *through* its
/// block's open window, without committing it; `Sample` samples one
/// core, which commits its block while the neighbours stay deferred;
/// `SampleAll` samples every core — `sample_all_into` on `batched`, a
/// `sample(i)` loop on `twin` — and `Reissue` commands, on the batched
/// machines only, the frequency every core already has requested and the
/// power state it is already in: a no-op the reference never sees.
#[derive(Debug, Clone)]
enum Action {
    SetFreq { core: usize, mhz: u32 },
    SetAll { mhz: u32 },
    Steal { core: usize, ms: u32 },
    Swap { a: usize, b: usize },
    Power { core: usize, on: bool },
    SetDt { tick_us: u32 },
    Read { core: usize },
    Sample { core: usize },
    SampleAll,
    Reissue,
}

/// Which actuator every core of a case gets.
#[derive(Debug, Clone, Copy)]
enum Actuation {
    Instant,
    Settling(f64),
    Throttle(ThrottlePowerModel),
}

/// Most cores any case builds; action targets are drawn below it and
/// reduced modulo the case's core count.
const MAX_CORES: usize = 300;

#[derive(Debug, Clone)]
struct CorePlan {
    intensity: f64,
    /// Small budgets finish mid-run (exercising phase boundaries and
    /// the finished→idle transition); huge ones never do.
    budget: f64,
    looping: bool,
    drift: f64,
    /// An init phase the run gets through in a few ticks (so the core
    /// reaches its body, and with a small budget its exit and the idle
    /// loop) or one it spends the whole run in.
    init: f64,
}

fn core_plan() -> impl Strategy<Value = CorePlan> {
    (
        0.0f64..100.0,
        prop::sample::select(vec![2.0e6, 5.0e7, 1.0e15]),
        any::<bool>(),
        prop::sample::select(vec![0.0f64, 0.02]),
        prop::sample::select(vec![3.0e6, 3.0e6, 1.0e10]),
    )
        .prop_map(|(intensity, budget, looping, drift, init)| CorePlan {
            intensity,
            budget,
            looping,
            drift,
            init,
        })
}

fn tick_us() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![500u32, 1_000, 5_000, 10_000, 13_000])
}

fn action() -> impl Strategy<Value = Action> {
    let mhz = || prop::sample::select(vec![250u32, 450, 650, 850, 1000]);
    let core = || 0..MAX_CORES;
    prop_oneof![
        (core(), mhz()).prop_map(|(core, mhz)| Action::SetFreq { core, mhz }),
        mhz().prop_map(|mhz| Action::SetAll { mhz }),
        (core(), 1u32..8).prop_map(|(core, ms)| Action::Steal { core, ms }),
        (core(), core()).prop_map(|(a, b)| Action::Swap { a, b }),
        (core(), any::<bool>()).prop_map(|(core, on)| Action::Power { core, on }),
        tick_us().prop_map(|tick_us| Action::SetDt { tick_us }),
        core().prop_map(|core| Action::Read { core }),
        core().prop_map(|core| Action::Sample { core }),
        Just(Action::SampleAll),
        Just(Action::Reissue),
    ]
}

/// ≤1e-12 relative (or absolute near zero) — the accumulator-agreement
/// bound for closed-form window commits.
fn rel_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1.0e-12 * a.abs().max(b.abs()).max(1.0)
}

fn counters_agree(a: &CounterDelta, b: &CounterDelta) -> bool {
    rel_eq(a.instructions, b.instructions)
        && rel_eq(a.cycles, b.cycles)
        && rel_eq(a.l2_accesses, b.l2_accesses)
        && rel_eq(a.l3_accesses, b.l3_accesses)
        && rel_eq(a.mem_accesses, b.mem_accesses)
}

/// A sample is the difference of two accumulator readings, so it
/// carries their absolute error: agreement is judged at the scale of
/// the running totals, not of the (possibly one-tick) delta.
fn samples_agree(a: &CounterDelta, b: &CounterDelta, totals: &CounterDelta) -> bool {
    let close = |x: f64, y: f64, scale: f64| (x - y).abs() <= 1.0e-12 * scale.max(1.0);
    close(a.instructions, b.instructions, totals.instructions)
        && close(a.cycles, b.cycles, totals.cycles)
        && close(a.l2_accesses, b.l2_accesses, totals.l2_accesses)
        && close(a.l3_accesses, b.l3_accesses, totals.l3_accesses)
        && close(a.mem_accesses, b.mem_accesses, totals.mem_accesses)
}

fn stats_agree(a: &CoreStats, b: &CoreStats) -> bool {
    rel_eq(a.total_instructions, b.total_instructions)
        && rel_eq(a.body_instructions, b.body_instructions)
        && rel_eq(a.busy_s, b.busy_s)
        // Sub-tick completion times are interpolated from `done_in_phase`,
        // so they carry the same ulp bound; which tick a workload finishes
        // in never shifts (the window sizing keeps a 4-tick safety margin
        // from every phase boundary).
        && match (a.completed_at_s, b.completed_at_s) {
            (None, None) => true,
            (Some(x), Some(y)) => rel_eq(x, y),
            _ => false,
        }
}

/// The batched machine, its reference-stepped oracle, and the batched
/// twin: same plans, same actuators, same seed, default sampling noise.
fn build_trio(plans: &[CorePlan], actuation: Actuation) -> [Machine; 3] {
    let build = |reference: bool| {
        let mut b = MachineBuilder::p630().cores(plans.len()).seed(7);
        b = match actuation {
            Actuation::Instant => b,
            Actuation::Settling(settle_s) => b.dvfs_settling(settle_s),
            Actuation::Throttle(power_model) => b.throttling(power_model),
        };
        for (i, p) in plans.iter().enumerate() {
            let mut cfg = SyntheticConfig::single(p.intensity, p.budget);
            // The full synthetic benchmark's 1e8-instruction exit would
            // keep a core that reaches it there for the rest of the run.
            cfg.init_instructions = p.init;
            cfg.exit_instructions = 1.0e6;
            if p.looping {
                cfg = cfg.looping();
            }
            let mut spec = cfg.build();
            if p.drift > 0.0 {
                spec = spec.with_drift(p.drift);
            }
            b = b.workload(i, spec);
        }
        if reference {
            b = b.reference_stepping();
        }
        b.build()
    };
    [build(false), build(true), build(false)]
}

/// Run `f` on every machine given.
fn each<const N: usize>(machines: [&mut Machine; N], f: impl Fn(&mut Machine)) {
    for m in machines {
        f(m);
    }
}

/// Sample every core of `batched` in one pass and of `twin` one core at
/// a time: the same values from the same RNG stream, so `==` — a
/// powered-off core's five skipped draws included. Returns the samples.
fn sample_all_agrees(
    batched: &mut Machine,
    twin: &mut Machine,
) -> Result<Vec<CounterDelta>, TestCaseError> {
    let mut one_pass = Vec::new();
    batched.sample_all_into(&mut one_pass);
    let per_core: Vec<CounterDelta> = (0..twin.num_cores()).map(|i| twin.sample(i)).collect();
    prop_assert_eq!(&one_pass, &per_core);
    Ok(one_pass)
}

/// Everything observable about core `i` agrees between the two
/// machines right now. Takes `&Machine`: on the batched side every
/// accessor reads through the block's open window without closing it.
fn core_agrees(batched: &Machine, reference: &Machine, i: usize) -> Result<(), TestCaseError> {
    let (ca, cb) = (batched.core(i).counters(), reference.core(i).counters());
    prop_assert!(
        counters_agree(&ca, &cb),
        "core {} counters: {:?} vs {:?}",
        i,
        ca,
        cb
    );
    let (sa, sb) = (batched.core(i).stats(), reference.core(i).stats());
    prop_assert!(
        stats_agree(&sa, &sb),
        "core {} stats: {:?} vs {:?}",
        i,
        sa,
        sb
    );
    let (pa, pb) = (batched.core(i).cursor(), reference.core(i).cursor());
    prop_assert_eq!(pa.phase, pb.phase, "core {} phase index diverged", i);
    prop_assert!(rel_eq(pa.done_in_phase, pb.done_in_phase));
    prop_assert_eq!(
        batched.core(i).is_finished(),
        reference.core(i).is_finished()
    );
    prop_assert_eq!(
        batched.effective_frequency(i),
        reference.effective_frequency(i)
    );
    prop_assert!(rel_eq(
        batched.energy(i).joules(),
        reference.energy(i).joules()
    ));
    prop_assert_eq!(
        batched.energy(i).peak_watts(),
        reference.energy(i).peak_watts()
    );
    let (ra, rb) = (batched.residency(i), reference.residency(i));
    prop_assert!((ra.total() - rb.total()).abs() < 1e-9);
    prop_assert!((ra.mean_mhz() - rb.mean_mhz()).abs() < 1e-9);
    // The columns a scheduled tick reads say what the per-core view
    // says, under both steppers.
    for m in [batched, reference] {
        prop_assert_eq!(
            m.transitional_flags()[i],
            matches!(
                m.core(i).current_phase_kind(),
                PhaseKind::Init | PhaseKind::Exit
            ),
            "core {} transitional flag",
            i
        );
        prop_assert_eq!(m.requested_mhz()[i], m.core(i).requested_frequency().0);
        prop_assert_eq!(m.finished_flags()[i], m.core(i).is_finished());
        prop_assert_eq!(
            m.finished_flags()[i] || m.idle_loop_flags()[i],
            m.idle_signal(i)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline differential: random plan in, agreement out —
    /// exact for discrete state, ≤1e-12 relative for accumulators, at
    /// every mid-run read and at the end.
    #[test]
    fn batched_matches_reference(
        palette in prop::collection::vec(core_plan(), 1..6),
        // 0: one core per plan (1–5 cores, every row its own plan).
        // Otherwise the plans are laid out in runs of 64 rows, so the
        // 128-row blocks hold different mixes, reach their boundaries at
        // different ticks, and the ragged last block is a third state.
        cores in prop::sample::select(vec![0usize, 1, 127, 128, 129, 200, 256, 257, MAX_CORES]),
        actuation in prop::sample::select(vec![
            Actuation::Instant,
            Actuation::Settling(0.003),
            Actuation::Throttle(ThrottlePowerModel::AsDvfs),
            Actuation::Throttle(ThrottlePowerModel::DynamicOnly),
        ]),
        tick_us in tick_us(),
        ticks in 40usize..160,
        actions in prop::collection::vec((0usize..160, action()), 0..12),
    ) {
        let plans: Vec<CorePlan> = match cores {
            0 => palette,
            n => (0..n).map(|i| palette[(i / 64) % palette.len()].clone()).collect(),
        };
        let n = plans.len();
        let [mut batched, mut reference, mut twin] = build_trio(&plans, actuation);
        let mut dt = f64::from(tick_us) * 1e-6;
        for k in 0..ticks {
            for (_, a) in actions.iter().filter(|(at, _)| *at == k) {
                let (b, r, t) = (&mut batched, &mut reference, &mut twin);
                // The cores the action names; they are compared once it
                // has been applied.
                let touched: Vec<usize> = match *a {
                    Action::SetFreq { core, .. }
                    | Action::Steal { core, .. }
                    | Action::Power { core, .. }
                    | Action::Read { core } => vec![core % n],
                    Action::Swap { a, b } => vec![a % n, b % n],
                    Action::SetAll { .. } | Action::Reissue => (0..n).collect(),
                    Action::SetDt { .. } | Action::Sample { .. } | Action::SampleAll => vec![],
                };
                match *a {
                    Action::SetFreq { core, mhz } => {
                        each([b, r, t], |m| m.set_frequency(core % n, FreqMhz(mhz)))
                    }
                    Action::SetAll { mhz } => {
                        each([b, r, t], |m| m.set_all_frequencies(FreqMhz(mhz)))
                    }
                    Action::Steal { core, ms } => {
                        each([b, r, t], |m| m.core_mut(core % n).steal(f64::from(ms) * 1e-3))
                    }
                    Action::Swap { a, b: other } => {
                        if a % n != other % n {
                            each([b, r, t], |m| m.swap_workloads(a % n, other % n, 1e-4));
                        }
                    }
                    Action::Power { core, on } => each([b, r, t], |m| m.set_powered(core % n, on)),
                    Action::SetDt { tick_us } => dt = f64::from(tick_us) * 1e-6,
                    Action::Read { .. } => {}
                    Action::Sample { core } => {
                        let i = core % n;
                        let (da, db) = (b.sample(i), r.sample(i));
                        let totals = r.core(i).counters();
                        prop_assert!(
                            samples_agree(&da, &db, &totals),
                            "tick {} core {} sample: {:?} vs {:?}", k, i, da, db
                        );
                        prop_assert_eq!(da, t.sample(i));
                    }
                    Action::SampleAll => {
                        let one_pass = sample_all_agrees(b, t)?;
                        for (i, da) in one_pass.iter().enumerate() {
                            let db = r.sample(i);
                            prop_assert!(
                                samples_agree(da, &db, &r.core(i).counters()),
                                "tick {} core {} sample: {:?} vs {:?}", k, i, da, db
                            );
                        }
                    }
                    Action::Reissue => {
                        each([b, t], |m| {
                            for i in 0..n {
                                m.set_frequency(i, m.core(i).requested_frequency());
                                m.set_powered(i, m.core(i).is_powered());
                            }
                        });
                    }
                }
                for i in touched {
                    core_agrees(&batched, &reference, i)?;
                }
            }
            each([&mut batched, &mut reference, &mut twin], |m| m.step(dt));
        }
        for i in 0..n {
            core_agrees(&batched, &reference, i)?;
        }
        prop_assert_eq!(batched.total_power_w(), reference.total_power_w());
        sample_all_agrees(&mut batched, &mut twin)?;
    }

    /// Sampling parity under every-tick observation: with identical
    /// seeds and call order, even the perturbed sample stream is
    /// identical.
    #[test]
    fn sampling_stream_matches_reference(
        plans in prop::collection::vec(core_plan(), 1..4),
        tick_us in prop::sample::select(vec![1_000u32, 10_000]),
    ) {
        let [mut batched, mut reference, _] = build_trio(&plans, Actuation::Instant);
        let dt = f64::from(tick_us) * 1e-6;
        for _ in 0..30 {
            batched.step(dt);
            reference.step(dt);
            prop_assert_eq!(batched.sample_all(), reference.sample_all());
        }
    }
}

/// Finished workloads park on the hot-idle profile identically in both
/// steppers — the boundary the compacted crosser list must respect.
#[test]
fn finish_boundary_parity() {
    let plans = vec![
        CorePlan {
            intensity: 80.0,
            budget: 1.0e6,
            looping: false,
            drift: 0.0,
            init: 3.0e6,
        },
        CorePlan {
            intensity: 20.0,
            budget: 2.0e6,
            looping: false,
            drift: 0.02,
            init: 3.0e6,
        },
    ];
    let [mut batched, mut reference, _] = build_trio(&plans, Actuation::Settling(0.003));
    for m in [&mut batched, &mut reference] {
        // Coarse ticks guarantee the finish lands mid-tick.
        m.run_for(0.2, 0.013);
    }
    for i in 0..2 {
        assert!(batched.core(i).is_finished());
        let (sa, sb) = (batched.core(i).stats(), reference.core(i).stats());
        assert!(stats_agree(&sa, &sb), "core {i}: {sa:?} vs {sb:?}");
        let (ca, cb) = (batched.core(i).counters(), reference.core(i).counters());
        assert!(counters_agree(&ca, &cb), "core {i}: {ca:?} vs {cb:?}");
    }
    let spec = SyntheticConfig::single(60.0, 1.0e15).build();
    batched.core_mut(0).assign(spec.clone());
    reference.core_mut(0).assign(spec);
    // The new job starts in its init phase, and the column says so.
    assert!(batched.transitional_flags()[0]);
    core_agrees(&batched, &reference, 0).unwrap();
    for m in [&mut batched, &mut reference] {
        m.run_for(0.1, 0.01);
    }
    core_agrees(&batched, &reference, 0).unwrap();
    let (ca, cb) = (batched.core(0).counters(), reference.core(0).counters());
    assert!(counters_agree(&ca, &cb), "{ca:?} vs {cb:?}");
}
