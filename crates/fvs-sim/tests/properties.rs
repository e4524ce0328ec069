//! Property-based tests of the simulation substrate's conservation and
//! consistency invariants.

use fvs_model::{CounterDelta, CpiModel, FreqMhz, MemoryLatencies};
use fvs_sim::{MachineBuilder, NoiseModel};
use fvs_workloads::{intensity_profile, SyntheticConfig, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counter consistency: on a noiseless machine, the sampled window's
    /// observed CPI equals the analytic CPI of the executing profile at
    /// the running frequency.
    #[test]
    fn sampled_cpi_matches_analytic_model(
        intensity in 0.0f64..100.0,
        mhz in prop::sample::select(vec![250u32, 500, 750, 1000]),
    ) {
        let spec = SyntheticConfig::single(intensity, 1.0e15)
            .body_only()
            .looping()
            .build();
        let mut m = MachineBuilder::p630()
            .cores(1)
            .workload(0, spec)
            .noise(NoiseModel::NONE)
            .initial_frequency(FreqMhz(mhz))
            .build();
        m.run_for(0.1, 0.01);
        let d = m.sample(0);
        let truth = CpiModel::from_profile(&intensity_profile(intensity), &MemoryLatencies::P630);
        let observed_cpi = d.cycles / d.instructions;
        let expected = truth.cpi_at(FreqMhz(mhz));
        prop_assert!((observed_cpi - expected).abs() / expected < 1e-9);
    }

    /// Instruction conservation: a fixed-budget workload retires exactly
    /// its budget, no matter the tick size or frequency.
    #[test]
    fn instruction_budget_is_conserved(
        intensity in 0.0f64..100.0,
        mhz in prop::sample::select(vec![250u32, 650, 1000]),
        tick_ms in 1u32..20,
    ) {
        let budget = 5.0e7;
        let spec = SyntheticConfig::single(intensity, budget).body_only().build();
        let mut m = MachineBuilder::p630()
            .cores(1)
            .workload(0, spec)
            .initial_frequency(FreqMhz(mhz))
            .build();
        let tick = f64::from(tick_ms) * 1e-3;
        for _ in 0..100_000 {
            if m.core(0).is_finished() {
                break;
            }
            m.step(tick);
        }
        prop_assert!(m.core(0).is_finished());
        let done = m.core(0).stats().body_instructions;
        prop_assert!((done - budget).abs() < 1.0, "retired {done}");
    }

    /// Tick-size invariance: total instructions over a fixed horizon are
    /// the same whether stepped coarsely or finely.
    #[test]
    fn stepping_granularity_does_not_change_execution(
        intensity in 0.0f64..100.0,
    ) {
        let mk = || {
            MachineBuilder::p630()
                .cores(1)
                .workload(
                    0,
                    SyntheticConfig::single(intensity, 1.0e15).body_only().looping().build(),
                )
                .noise(NoiseModel::NONE)
                .build()
        };
        let mut coarse = mk();
        coarse.run_for(0.4, 0.1);
        let mut fine = mk();
        fine.run_for(0.4, 0.001);
        let a = coarse.core(0).counters().instructions;
        let b = fine.core(0).counters().instructions;
        prop_assert!((a - b).abs() / b < 1e-9, "{a} vs {b}");
    }

    /// Residency conservation: per-core residency weights sum to the
    /// machine's elapsed time.
    #[test]
    fn residency_sums_to_elapsed_time(
        switches in prop::collection::vec(prop::sample::select(vec![250u32, 500, 750, 1000]), 1..8),
    ) {
        let mut m = MachineBuilder::p630().build();
        for f in &switches {
            m.set_all_frequencies(FreqMhz(*f));
            m.run_for(0.05, 0.01);
        }
        let elapsed = m.now_s();
        for i in 0..m.num_cores() {
            prop_assert!((m.residency(i).total() - elapsed).abs() < 1e-9);
        }
    }

    /// Energy equals the integral of the per-tick power: switching
    /// frequencies mid-run never loses or invents joules.
    #[test]
    fn energy_matches_power_integral(
        freqs in prop::collection::vec(prop::sample::select(vec![250u32, 600, 1000]), 1..6),
    ) {
        let mut m = MachineBuilder::p630().cores(1).build();
        let mut expected = 0.0;
        for f in &freqs {
            m.set_frequency(0, FreqMhz(*f));
            let p = m.core_power_w(0);
            m.run_for(0.1, 0.01);
            expected += p * 0.1;
        }
        prop_assert!((m.energy(0).joules() - expected).abs() < 1e-6);
    }

    /// Noise never changes ground truth: the core's own counters are
    /// identical across noise seeds; only samples differ.
    #[test]
    fn noise_affects_samples_not_truth(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let mk = |seed| {
            let mut m = MachineBuilder::p630()
                .cores(1)
                .workload(0, WorkloadSpec::synthetic(37.0, 1.0e12).looping())
                .seed(seed)
                .build();
            m.run_for(0.1, 0.01);
            (m.core(0).counters().instructions, m.sample(0).instructions)
        };
        let (truth_a, _) = mk(seed_a);
        let (truth_b, _) = mk(seed_b);
        prop_assert_eq!(truth_a, truth_b);
    }
}

/// The sampled stream is a contract, not only its distribution: one draw
/// per non-zero counter, core by core, field by field, from
/// `StdRng::seed_from_u64(seed)`. A counter that reads zero (all five of
/// a powered-off core) draws nothing.
#[test]
fn zero_counters_draw_nothing_from_the_sample_stream() {
    let machine = |noise| {
        let mut m = MachineBuilder::p630()
            .workload(1, WorkloadSpec::synthetic(100.0, 1.0e12))
            .workload(2, WorkloadSpec::synthetic(30.0, 1.0e12))
            .noise(noise)
            .seed(41)
            .build();
        m.set_powered(0, false);
        m.run_for(0.05, 0.01);
        m.sample_all()
    };
    let a = NoiseModel::DEFAULT.relative_amplitude;
    let mut rng = StdRng::seed_from_u64(41);
    let mut draw = |x: f64| {
        if x == 0.0 {
            0.0
        } else {
            x * rng.gen_range(1.0 - a..=1.0 + a)
        }
    };
    let truth = machine(NoiseModel::NONE);
    assert_eq!(truth[0], CounterDelta::default());
    assert!(truth[1].instructions > 0.0);
    let by_hand: Vec<CounterDelta> = (truth.iter())
        .map(|d| CounterDelta {
            instructions: draw(d.instructions),
            cycles: draw(d.cycles),
            l2_accesses: draw(d.l2_accesses),
            l3_accesses: draw(d.l3_accesses),
            mem_accesses: draw(d.mem_accesses),
        })
        .collect();
    assert_eq!(machine(NoiseModel::DEFAULT), by_hand);
}

/// `set_powered` with the state a core is already in changes nothing but
/// where its accrual window closes — and that is visible: three windows
/// of ten ticks do not round like one of thirty.
#[test]
fn reissued_power_state_still_closes_the_accrual_window() {
    let mut m = MachineBuilder::p630()
        .noise(NoiseModel::NONE)
        .initial_frequency(FreqMhz(400))
        .build();
    for _ in 0..3 {
        m.run_for(0.1, 0.01);
        m.set_powered(0, true);
    }
    let ten_ticks = (22.0 * 0.01) * 10.0;
    assert_eq!(m.energy(0).joules(), ten_ticks + ten_ticks + ten_ticks);
    assert_eq!(m.energy(1).joules(), (22.0 * 0.01) * 30.0);
    assert_ne!(m.energy(0).joules(), m.energy(1).joules());
}

#[test]
fn settled_transition_shows_in_total_power_before_the_next_step() {
    let mut m = MachineBuilder::p630().dvfs_settling(0.003).build();
    m.set_all_frequencies(FreqMhz(600));
    assert_eq!(m.total_power_w(), 560.0, "still settling");
    // The transitions settled inside this tick; the next step is what
    // retires them, and until then the power cache still holds 140 W.
    m.step(0.01);
    assert_eq!(m.total_power_w(), 4.0 * 48.0);
    m.step(0.01);
    assert_eq!(m.total_power_w(), 4.0 * 48.0);
}

/// A counter reading for the noise pass: zero, a count, or garbage.
fn arb_counter() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 1.0f64..1.0e10, Just(f64::NAN), Just(-1.0e3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `NoiseModel::perturb` over a buffer draws and scales exactly what
    /// `gen_range(1 − amp..=1 + amp)` per non-zero counter, delta by
    /// delta and field by field, would: the same bits, and the stream
    /// left in the same place.
    #[test]
    fn the_noise_pass_equals_per_counter_gen_range_draws(
        amp in 0.0f64..1.0,
        seed in any::<u64>(),
        fields in prop::collection::vec(
            (arb_counter(), arb_counter(), arb_counter(), arb_counter(), arb_counter()),
            0..40,
        ),
    ) {
        let deltas: Vec<CounterDelta> = (fields.iter())
            .map(|&(instructions, cycles, l2_accesses, l3_accesses, mem_accesses)| CounterDelta {
                instructions,
                cycles,
                l2_accesses,
                l3_accesses,
                mem_accesses,
            })
            .collect();
        let bits = |d: &CounterDelta| {
            [d.instructions, d.cycles, d.l2_accesses, d.l3_accesses, d.mem_accesses]
                .map(f64::to_bits)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let by_hand: Vec<_> = (deltas.iter())
            .map(|d| {
                let mut d = *d;
                for x in [
                    &mut d.instructions,
                    &mut d.cycles,
                    &mut d.l2_accesses,
                    &mut d.l3_accesses,
                    &mut d.mem_accesses,
                ] {
                    if *x != 0.0 {
                        *x *= rng.gen_range(1.0 - amp..=1.0 + amp);
                    }
                }
                bits(&d)
            })
            .collect();
        let mut pass = deltas;
        let mut pass_rng = StdRng::seed_from_u64(seed);
        NoiseModel::uniform(amp).perturb(&mut pass, &mut pass_rng);
        prop_assert_eq!(pass.iter().map(bits).collect::<Vec<_>>(), by_hand);
        prop_assert_eq!(pass_rng.gen_range(0u64..u64::MAX), rng.gen_range(0u64..u64::MAX));
    }
}
