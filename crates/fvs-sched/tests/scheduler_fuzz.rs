//! Fuzz-style robustness tests: the scheduler must produce valid
//! decisions (or decline) for arbitrary tick streams — garbage counters,
//! flapping idle signals, wild budget swings — and never panic.

use fvs_model::{CounterDelta, FreqMhz};
use fvs_sched::{FvsstScheduler, PlatformView, Policy, SchedulerConfig, TickContext};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FuzzTick {
    instructions: f64,
    cycles: f64,
    l2: f64,
    l3: f64,
    mem: f64,
    idle: bool,
    budget_w: f64,
    current_mhz: u32,
}

fn arb_tick() -> impl Strategy<Value = FuzzTick> {
    (
        prop_oneof![
            Just(0.0),
            1.0f64..1.0e10,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-1.0e6),
        ],
        prop_oneof![Just(0.0), 1.0f64..1.0e10, Just(f64::NAN)],
        0.0f64..1.0e8,
        0.0f64..1.0e8,
        0.0f64..1.0e8,
        any::<bool>(),
        prop_oneof![Just(f64::INFINITY), 0.0f64..2000.0],
        prop::sample::select(vec![250u32, 500, 650, 800, 1000]),
    )
        .prop_map(
            |(instructions, cycles, l2, l3, mem, idle, budget_w, current_mhz)| FuzzTick {
                instructions,
                cycles,
                l2,
                l3,
                mem,
                idle,
                budget_w,
                current_mhz,
            },
        )
}

/// Feed `ticks` to a one-core scheduler: every decision it emits is
/// well-formed and the error statistics stay finite.
fn check_tick_stream(ticks: &[FuzzTick]) -> Result<(), TestCaseError> {
    let platform = PlatformView::p630();
    let set = platform.freq_set.clone();
    let mut s = FvsstScheduler::new(1, SchedulerConfig::p630());
    for (i, t) in ticks.iter().enumerate() {
        let samples = [CounterDelta {
            instructions: t.instructions,
            cycles: t.cycles,
            l2_accesses: t.l2,
            l3_accesses: t.l3,
            mem_accesses: t.mem,
        }];
        let idle = [t.idle];
        let transitional = [false];
        let current = [FreqMhz(t.current_mhz)];
        let ground_truth = [fvs_model::CpiModel::from_components(1.0, 0.0)];
        let ctx = TickContext {
            now_s: (i + 1) as f64 * 0.01,
            tick: i as u64,
            budget_w: t.budget_w,
            measured_power_w: 0.0,
            samples: &samples,
            idle: &idle,
            transitional: &transitional,
            current: &current,
            ground_truth: &ground_truth,
            platform: &platform,
        };
        if let Some(d) = s.on_tick(&ctx) {
            prop_assert_eq!(d.freqs.len(), 1);
            prop_assert!(set.contains(d.freqs[0]), "freq {} not in set", d.freqs[0]);
            prop_assert!(set.contains(d.desired[0]));
            prop_assert!(d.freqs[0] <= d.desired[0] || t.idle);
        }
    }
    // Error statistics must stay finite regardless of input garbage.
    prop_assert!(s.error_stats(0).mean_abs().is_finite());
    Ok(())
}

/// The one case proptest ever shrank for this file (an IPC of 8.9e9
/// under a 0 W budget, then NaN instructions as the budget lifts). The
/// vendored proptest seeds from the test name and reads no regression
/// file, so the case is pinned here.
#[test]
fn absurd_ipc_then_nan_under_a_lifted_budget() {
    let tick = |instructions, budget_w| FuzzTick {
        instructions,
        cycles: 1.0,
        l2: 0.0,
        l3: 0.0,
        mem: 0.0,
        idle: false,
        budget_w,
        current_mhz: 250,
    };
    let ticks = [tick(8892414197.425999, 0.0), tick(f64::NAN, f64::INFINITY)];
    check_tick_stream(&ticks).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary (including corrupt) tick streams never panic the
    /// scheduler, and every decision it does emit is well-formed.
    #[test]
    fn scheduler_survives_arbitrary_tick_streams(
        ticks in prop::collection::vec(arb_tick(), 1..60),
    ) {
        check_tick_stream(&ticks)?;
    }

    /// A multi-core scheduler under random budgets always produces
    /// table-compliant power or the f_min floor.
    #[test]
    fn decisions_always_fit_budget_or_floor(
        budgets in prop::collection::vec(20.0f64..800.0, 1..20),
        mem_rates in prop::collection::vec(0.0f64..0.1, 4),
    ) {
        let platform = PlatformView::p630();
        let table = fvs_power::FreqPowerTable::p630_table1();
        let mut s = FvsstScheduler::new(4, SchedulerConfig::p630());
        let mut current = vec![FreqMhz(1000); 4];
        for (i, budget) in budgets.iter().enumerate() {
            let samples: Vec<CounterDelta> = mem_rates
                .iter()
                .zip(&current)
                .map(|(rate, f)| {
                    let model = fvs_model::CpiModel::from_components(
                        1.0,
                        rate * 393.0e-9,
                    );
                    let instr = model.perf_at(*f) * 0.01;
                    fvs_model::counters::synthesize_delta(
                        &model, 0.0, 0.0, *rate, instr, *f,
                    )
                })
                .collect();
            let idle = [false; 4];
            let transitional = [false; 4];
            let ground_truth = [fvs_model::CpiModel::from_components(1.0, 0.0); 4];
            let ctx = TickContext {
                now_s: (i + 1) as f64 * 0.01,
                tick: i as u64,
                budget_w: *budget,
                measured_power_w: 0.0,
                samples: &samples,
                idle: &idle,
                transitional: &transitional,
                current: &current,
                ground_truth: &ground_truth,
                platform: &platform,
            };
            if let Some(d) = s.on_tick(&ctx) {
                let power: f64 = d
                    .freqs
                    .iter()
                    .map(|f| table.power_interpolated(*f))
                    .sum();
                if s.last_decision().expect("a round ran").feasible {
                    prop_assert!(power <= budget + 1e-9, "power {power} > {budget}");
                } else {
                    prop_assert!(d.freqs.iter().all(|f| *f == FreqMhz(250)));
                }
                current = d.freqs.clone();
            }
        }
    }
}
