//! Property-based integration tests: scheduler invariants over random
//! workloads, budgets and platform states.

use fvsst::model::{CpiModel, FreqMhz, PerfLossTable};
use fvsst::power::{FreqPowerTable, VoltageTable};
use fvsst::sched::{
    DemotionOrder, FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache, ScheduleScratch,
};
use proptest::prelude::*;

fn arb_proc() -> impl Strategy<Value = ProcInput> {
    (
        0.3f64..4.0,     // cpi0
        0.0f64..40.0e-9, // M
        any::<bool>(),   // idle
        prop::sample::select(vec![250u32, 500, 650, 800, 1000]),
        any::<bool>(), // has model
    )
        .prop_map(|(cpi0, m, idle, cur, has_model)| ProcInput {
            model: has_model.then(|| CpiModel::from_components(cpi0, m)),
            idle,
            current: FreqMhz(cur),
        })
}

/// Like [`arb_proc`] but the current frequency may fall *between* the
/// schedulable settings (an unmodelled processor then acts as a fixed,
/// undemotable load) — the differential tests must cover that path too.
fn arb_proc_offgrid() -> impl Strategy<Value = ProcInput> {
    (
        0.3f64..4.0,
        0.0f64..40.0e-9,
        any::<bool>(),
        prop::sample::select(vec![250u32, 500, 675, 800, 990, 1000]),
        any::<bool>(),
    )
        .prop_map(|(cpi0, m, idle, cur, has_model)| ProcInput {
            model: has_model.then(|| CpiModel::from_components(cpi0, m)),
            idle,
            current: FreqMhz(cur),
        })
}

fn table_power(freqs: &[FreqMhz]) -> f64 {
    let t = FreqPowerTable::p630_table1();
    freqs.iter().map(|f| t.power_interpolated(*f)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Feasible decisions always respect the budget; infeasible ones pin
    /// everything at f_min.
    #[test]
    fn budget_respected_or_floored(
        procs in prop::collection::vec(arb_proc(), 1..12),
        budget in 5.0f64..2000.0,
    ) {
        let alg = FvsstAlgorithm::p630();
        let d = alg.schedule(&procs, budget);
        prop_assert!((d.predicted_power_w - table_power(&d.freqs)).abs() < 1e-9);
        if d.feasible {
            prop_assert!(d.predicted_power_w <= budget + 1e-9);
        } else {
            prop_assert!(d.freqs.iter().all(|f| *f == FreqMhz(250)));
            prop_assert!(d.predicted_power_w > budget);
        }
    }

    /// Every assigned frequency is schedulable and every voltage is the
    /// table minimum for it.
    #[test]
    fn frequencies_in_set_and_voltages_minimal(
        procs in prop::collection::vec(arb_proc(), 1..12),
        budget in 5.0f64..2000.0,
    ) {
        let alg = FvsstAlgorithm::p630();
        let set = alg.freq_set.clone();
        let volts = VoltageTable::p630();
        let d = alg.schedule(&procs, budget);
        for (f, v) in d.freqs.iter().zip(&d.voltages) {
            prop_assert!(set.contains(*f));
            prop_assert!((v - volts.min_voltage(*f)).abs() < 1e-12);
        }
    }

    /// Final frequencies never exceed the ε-desired ones (pass 2 only
    /// demotes), and with an infinite budget they are exactly equal.
    #[test]
    fn budget_pass_only_demotes(
        procs in prop::collection::vec(arb_proc(), 1..12),
        budget in 5.0f64..2000.0,
    ) {
        let alg = FvsstAlgorithm::p630();
        let constrained = alg.schedule(&procs, budget);
        for (f, want) in constrained.freqs.iter().zip(&constrained.desired) {
            prop_assert!(f <= want);
        }
        let free = alg.schedule(&procs, f64::INFINITY);
        prop_assert_eq!(free.freqs, free.desired);
        prop_assert_eq!(free.demotions, 0);
    }

    /// Monotonicity: a smaller budget never yields more predicted power.
    #[test]
    fn power_monotone_in_budget(
        procs in prop::collection::vec(arb_proc(), 1..10),
        b1 in 5.0f64..2000.0,
        b2 in 5.0f64..2000.0,
    ) {
        let alg = FvsstAlgorithm::p630();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let d_lo = alg.schedule(&procs, lo);
        let d_hi = alg.schedule(&procs, hi);
        prop_assert!(d_lo.predicted_power_w <= d_hi.predicted_power_w + 1e-9);
    }

    /// Determinism: the same inputs give the same decision.
    #[test]
    fn scheduling_is_deterministic(
        procs in prop::collection::vec(arb_proc(), 1..10),
        budget in 5.0f64..2000.0,
    ) {
        let alg = FvsstAlgorithm::p630();
        prop_assert_eq!(alg.schedule(&procs, budget), alg.schedule(&procs, budget));
    }

    /// Idle processors are pinned at f_min whenever idle detection is on,
    /// regardless of what their (stale) model claims.
    #[test]
    fn idle_always_pinned(
        cpi0 in 0.3f64..4.0,
        budget in 100.0f64..2000.0,
    ) {
        let alg = FvsstAlgorithm::p630();
        let p = ProcInput {
            model: Some(CpiModel::from_components(cpi0, 0.0)),
            idle: true,
            current: FreqMhz(1000),
        };
        let d = alg.schedule(&[p], budget);
        prop_assert_eq!(d.freqs[0], FreqMhz(250));
    }

    /// The ε-pass result is per-processor independent: scheduling
    /// processors together (unconstrained) equals scheduling them alone.
    #[test]
    fn pass1_is_per_processor(
        procs in prop::collection::vec(arb_proc(), 2..8),
    ) {
        let alg = FvsstAlgorithm::p630();
        let joint = alg.schedule(&procs, f64::INFINITY);
        for (i, p) in procs.iter().enumerate() {
            let solo = alg.schedule(std::slice::from_ref(p), f64::INFINITY);
            prop_assert_eq!(joint.freqs[i], solo.freqs[0]);
        }
    }

    /// Differential: the heap-based incremental pass 2 produces decisions
    /// bit-identical to the naive O(d·n) reference loop — every field,
    /// across random mixes (including off-grid currents and empty
    /// processor lists), random budgets, and both demotion orders.
    #[test]
    fn heap_pass2_matches_naive_reference(
        procs in prop::collection::vec(arb_proc_offgrid(), 0..16),
        budget in 5.0f64..2000.0,
        round_robin in any::<bool>(),
    ) {
        let mut alg = FvsstAlgorithm::p630();
        if round_robin {
            alg.demotion_order = DemotionOrder::RoundRobin;
        }
        let fast = alg.schedule(&procs, budget);
        let naive = alg.schedule_reference(&procs, budget);
        prop_assert_eq!(fast, naive);
    }

    /// Differential: the fingerprint cache (bit-exact tolerance) is a
    /// pure memoisation layer. Across random sequences of phase changes
    /// (model drift), idle flips, budget drops, repeated identical
    /// rounds (the full-hit short circuit) and explicit invalidations,
    /// every cached decision equals a fresh naive reference run — every
    /// field, including the floating-point predictions.
    #[test]
    fn cached_schedule_matches_reference_across_sequences(
        procs in prop::collection::vec(arb_proc_offgrid(), 1..12),
        rounds in prop::collection::vec(
            (
                0.0f64..0.4,   // cpi0 drift (applied when > 0.2)
                any::<bool>(), // flip one processor's idle bit
                any::<usize>(),// which processor to mutate
                5.0f64..2000.0,
                any::<bool>(), // invalidate the cache first
            ),
            1..10,
        ),
        round_robin in any::<bool>(),
    ) {
        let mut alg = FvsstAlgorithm::p630();
        if round_robin {
            alg.demotion_order = DemotionOrder::RoundRobin;
        }
        let mut cache = ScheduleCache::new();
        let mut procs = procs;
        let mut feasible_repeats = 0u32;
        for (drift, flip, which, budget, invalidate) in rounds {
            let i = which % procs.len();
            if flip {
                procs[i].idle = !procs[i].idle;
            }
            if drift > 0.2 {
                procs[i].model = procs[i].model.map(|m| {
                    CpiModel::from_components(m.cpi0 + drift, m.mem_time_per_instr)
                });
            }
            if invalidate {
                cache.invalidate();
            }
            let fresh = alg.schedule_reference(&procs, budget);
            prop_assert_eq!(alg.schedule_cached(&mut cache, &procs, budget), &fresh);
            // Same inputs again: the full-hit path returns the cached
            // decision, which must still be the reference decision.
            prop_assert_eq!(alg.schedule_cached(&mut cache, &procs, budget), &fresh);
            if fresh.feasible {
                feasible_repeats += 1;
            }
        }
        // Each feasible repeated round must have taken the short
        // circuit, not silently rebuilt (infeasible decisions are never
        // served from cache, so those rounds don't count).
        prop_assert!(cache.stats().full_hits >= u64::from(feasible_repeats));
    }

    /// The same, under `PHASE_DEFAULT`, where a model may move without
    /// its row being rebuilt. Coefficients move by fractions and
    /// multiples of a quantum, so some moves stay in their bucket (and
    /// accumulate) and some leave it. A shadow keys each processor the
    /// slow way — variant and `quantize`d coefficients — and keeps the
    /// model its row was built from; every round the cache must count
    /// the shadow's hits and rebuilds and decide what the reference
    /// decides over the shadow's models.
    #[test]
    fn cached_schedule_within_tolerance_matches_shadow(
        procs in prop::collection::vec(arb_proc_offgrid(), 1..12),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(
                    (
                        any::<usize>(), // which processor to move
                        prop_oneof![
                            prop::sample::select(vec![0.3, 0.49, 0.51, 0.9, 1.0, 1.6, 2.5]),
                            -3.0f64..3.0,
                        ],              // the move, in quanta
                        any::<bool>(),  // cpi0 (else M)
                    ),
                    0..6,
                ),
                any::<bool>(),  // flip one processor's idle bit
                any::<usize>(), // which processor to flip
                prop::sample::select(vec![100.0, 400.0, 2000.0]),
                0u8..8,         // invalidate the cache first (when 0)
            ),
            1..12,
        ),
    ) {
        let tol = ModelTolerance::PHASE_DEFAULT;
        let alg = FvsstAlgorithm::p630();
        let shadow_key = |p: &ProcInput| {
            let q = |m: &CpiModel| {
                (
                    ModelTolerance::quantize(m.cpi0, tol.cpi0_step),
                    ModelTolerance::quantize(m.mem_time_per_instr, tol.mem_step_s),
                )
            };
            let pinned = p.idle && alg.idle_detection;
            (pinned, p.model.as_ref().map(q), (p.model.is_none() && !pinned).then_some(p.current))
        };
        let mut cache = ScheduleCache::with_tolerance(tol);
        let mut procs = procs;
        let mut shadow: Vec<Option<_>> = vec![None; procs.len()];
        let mut built_from = vec![None; procs.len()];
        for (moves, flip, which, budget, invalidate) in rounds {
            for (i, quanta, cpi0) in moves {
                let i = i % procs.len();
                procs[i].model = procs[i].model.map(|m| {
                    if cpi0 {
                        CpiModel::from_components(m.cpi0 + quanta * tol.cpi0_step, m.mem_time_per_instr)
                    } else {
                        let mem = (m.mem_time_per_instr + quanta * tol.mem_step_s).max(0.0);
                        CpiModel::from_components(m.cpi0, mem)
                    }
                });
            }
            if flip {
                let i = which % procs.len();
                procs[i].idle = !procs[i].idle;
            }
            if invalidate == 0 {
                cache.invalidate();
                shadow.fill(None);
            }
            let (mut hits, mut rebuilds) = (0, 0);
            for (i, p) in procs.iter().enumerate() {
                let key = shadow_key(p);
                if shadow[i] == Some(key) {
                    hits += 1;
                } else {
                    rebuilds += 1;
                    shadow[i] = Some(key);
                    built_from[i] = p.model;
                }
            }
            let effective: Vec<ProcInput> = procs
                .iter()
                .zip(&built_from)
                .map(|(p, m)| ProcInput { model: *m, ..*p })
                .collect();
            let before = cache.stats();
            let cached = alg.schedule_cached(&mut cache, &procs, budget).clone();
            let after = cache.stats();
            prop_assert_eq!(
                (after.proc_hits - before.proc_hits, after.proc_rebuilds - before.proc_rebuilds),
                (hits, rebuilds)
            );
            prop_assert_eq!(cached, alg.schedule_reference(&effective, budget));
        }
    }

    /// Every loss the cache hands out is `PerfLossTable`'s, bit for bit:
    /// each demotion record's `predicted_loss`, each
    /// `decision.predicted_loss` and each `for_each_demotion` rung (0
    /// without a model), under both demotion orders, across sequences of
    /// drift, idle flips, lost models, off-grid currents, invalidations,
    /// resizes, ε changes and a budget sweep that includes NaN.
    #[test]
    fn cached_losses_are_the_tables_bit_for_bit(
        procs in prop::collection::vec(arb_proc_offgrid(), 1..12),
        moves in prop::collection::vec(
            (
                0u8..8,        // which move
                any::<usize>(),// which processor (or the new count)
                0.01f64..0.4,  // the drift, or the new ε
            ),
            1..10,
        ),
        round_robin in any::<bool>(),
    ) {
        let mut alg = FvsstAlgorithm::p630();
        if round_robin {
            alg.demotion_order = DemotionOrder::RoundRobin;
        }
        let mut cache = ScheduleCache::new();
        let mut procs = procs;
        for (kind, which, x) in moves {
            let i = which % procs.len();
            match kind {
                0 => {
                    procs[i].model = procs[i].model.map(|m| {
                        CpiModel::from_components(m.cpi0 + x, m.mem_time_per_instr)
                    })
                }
                1 => procs[i].idle = !procs[i].idle,
                2 => procs[i].model = None,
                3 => procs[i].current = FreqMhz(675),
                4 => cache.invalidate(),
                5 => {
                    let p = procs[i];
                    procs.resize(1 + which % 12, p);
                }
                6 => alg.epsilon = x,
                _ => {}
            }
            let set = &alg.freq_set;
            let tables: Vec<Option<PerfLossTable>> = procs
                .iter()
                .map(|p| p.model.map(|m| PerfLossTable::build(&m, set)))
                .collect();
            let loss = |i: usize, k: usize| {
                tables[i].as_ref().map_or(0.0, |t| t.entries[k].loss_vs_ref).to_bits()
            };
            let top = alg.schedule(&procs, f64::INFINITY).predicted_power_w;
            for budget in [f64::INFINITY, 0.9 * top, 0.6 * top, f64::NAN, 0.3 * top, 0.0] {
                let d = alg.schedule_cached(&mut cache, &procs, budget).clone();
                for (i, (&f, &got)) in d.freqs.iter().zip(&d.predicted_loss).enumerate() {
                    // Off the grid only without a model: loss 0.
                    let want = set.index_of(f).map_or(0.0f64.to_bits(), |k| loss(i, k));
                    prop_assert_eq!(got.to_bits(), want, "decision, processor {}", i);
                }
                for rec in cache.demotion_log() {
                    let k = set.index_of(rec.to).unwrap();
                    prop_assert_eq!(rec.predicted_loss.to_bits(), loss(rec.proc, k), "{:?}", rec);
                }
                let mut rungs = Vec::new();
                cache.for_each_demotion(|l, _| rungs.push(l.to_bits()));
                let mut want = Vec::new();
                for (i, &f) in d.desired.iter().enumerate() {
                    if let Some(k) = set.index_of(f) {
                        want.extend((1..=k).rev().map(|at| loss(i, at - 1)));
                    }
                }
                prop_assert_eq!(rungs, want);
            }
        }
    }

    /// A reused scratch gives the reference's decision, demotion log
    /// included, for any interleaving of processor counts, budgets, ε,
    /// demotion orders and frequency sets: what the scratch keeps from
    /// one round (it is a cache that forgets) never reaches the next.
    #[test]
    fn scratch_reuse_matches_one_shot(
        rounds in prop::collection::vec(
            (
                prop::collection::vec(arb_proc_offgrid(), 0..12),
                5.0f64..2000.0,
                0.01f64..0.3,   // ε
                any::<bool>(),  // round-robin demotion
                any::<bool>(),  // the 5-setting section-5 table
            ),
            1..6,
        ),
    ) {
        let mut scratch = ScheduleScratch::new();
        for (procs, budget, epsilon, round_robin, small_set) in &rounds {
            let mut alg = FvsstAlgorithm::p630();
            alg.epsilon = *epsilon;
            if *round_robin {
                alg.demotion_order = DemotionOrder::RoundRobin;
            }
            if *small_set {
                alg.power_table = FreqPowerTable::section5_example();
                alg.freq_set = alg.power_table.frequency_set();
            }
            let reused = alg.schedule_with_scratch(&mut scratch, procs, *budget).clone();
            prop_assert_eq!(&reused, &alg.schedule_reference(procs, *budget));
            demotion_queue::assert_log_replays(&alg, procs, &reused, scratch.demotion_log());
        }
    }
}

/// Adversarial key distributions for pass 2's bucketed demotion queue.
/// Every case is differential against `schedule_reference` — the whole
/// decision bit for bit, on both production paths — and against the
/// naive selection rule replayed over the demotion log.
mod demotion_queue {
    use super::*;
    use fvsst::sched::{DemotionRecord, ScheduleDecision};

    /// The queue's bucket count for `n` processors (white box: the cases
    /// below aim at its boundaries and steps).
    fn buckets(n: usize) -> usize {
        (n / 8).next_power_of_two().min(2048)
    }

    /// Every field of a decision with floats as bit patterns, so that a
    /// NaN prediction compares equal to itself and −0.0 differs from 0.0.
    fn bits(d: &ScheduleDecision) -> impl PartialEq + std::fmt::Debug {
        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            d.freqs.clone(),
            d.desired.clone(),
            f(&d.voltages),
            d.predicted_ipc
                .iter()
                .map(|x| x.map(f64::to_bits))
                .collect::<Vec<_>>(),
            f(&d.predicted_loss),
            d.predicted_power_w.to_bits(),
            d.feasible,
            d.demotions,
        )
    }

    /// Replay `log` from the desired frequencies: each step must take
    /// the victim the paper's rule names — smallest loss after the step
    /// by `total_cmp`, then lowest index, found by a full scan — one
    /// rung down, and the steps must end at the decision's frequencies.
    pub(super) fn assert_log_replays(
        alg: &FvsstAlgorithm,
        procs: &[ProcInput],
        d: &ScheduleDecision,
        log: &[DemotionRecord],
    ) {
        let set = &alg.freq_set;
        let tables: Vec<Option<PerfLossTable>> = procs
            .iter()
            .map(|p| p.model.map(|m| PerfLossTable::build(&m, set)))
            .collect();
        let key = |i: usize, k: usize| {
            tables[i]
                .as_ref()
                .map_or(0.0, |t| t.entries[k - 1].loss_vs_ref)
        };
        let mut freqs = d.desired.clone();
        assert_eq!(log.len(), d.demotions);
        for step in log {
            if alg.demotion_order == DemotionOrder::LeastPredictedLoss {
                let (loss, victim) = (0..procs.len())
                    .filter_map(|i| match set.index_of(freqs[i]) {
                        Some(k) if k > 0 => Some((key(i, k), i)),
                        _ => None,
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .expect("a step was logged, so a victim exists");
                assert_eq!(step.proc, victim);
                assert_eq!(step.predicted_loss.to_bits(), loss.to_bits());
            }
            assert_eq!(freqs[step.proc], step.from);
            assert_eq!(set.step_down(step.from), Some(step.to));
            freqs[step.proc] = step.to;
        }
        assert_eq!(freqs, d.freqs);
    }

    fn assert_matches_reference(alg: &FvsstAlgorithm, procs: &[ProcInput], budget_w: f64) {
        let naive = alg.schedule_reference(procs, budget_w);
        let mut scratch = ScheduleScratch::new();
        alg.schedule_with_scratch(&mut scratch, procs, budget_w);
        assert_eq!(bits(scratch.decision()), bits(&naive));
        assert_log_replays(alg, procs, scratch.decision(), scratch.demotion_log());
        let mut cache = ScheduleCache::new();
        alg.schedule_cached(&mut cache, procs, budget_w);
        assert_eq!(bits(cache.decision()), bits(&naive));
        assert_log_replays(alg, procs, cache.decision(), cache.demotion_log());
    }

    /// Both demotion orders, at budgets that force a few steps, about
    /// half of them, and all of them (infeasible: every bucket empties).
    fn assert_matches_reference_across_budgets(procs: &[ProcInput]) {
        for order in [DemotionOrder::LeastPredictedLoss, DemotionOrder::RoundRobin] {
            let mut alg = FvsstAlgorithm::p630();
            alg.demotion_order = order;
            let top = alg.schedule(procs, f64::INFINITY).predicted_power_w;
            for budget_w in [top - 1.0, 0.5 * top, 0.0] {
                assert_matches_reference(&alg, procs, budget_w);
            }
        }
    }

    fn modelled(cpi0: f64, mem: f64) -> ProcInput {
        ProcInput {
            model: Some(CpiModel::from_components(cpi0, mem)),
            idle: false,
            current: FreqMhz(1000),
        }
    }

    /// One key for everybody: a single bucket, and nothing but the
    /// processor index to order the victims by.
    #[test]
    fn all_losses_equal() {
        let unmodelled = ProcInput {
            model: None,
            idle: false,
            current: FreqMhz(1000),
        };
        assert_matches_reference_across_budgets(&[unmodelled; 40]);
        assert_matches_reference_across_budgets(&[modelled(1.0, 0.0); 40]);
    }

    /// Losses placed a hair below, on and a hair above every bucket
    /// boundary a sane model can reach (loss at `f_min` ≤ 1 − f_min/f_max).
    #[test]
    fn losses_straddle_every_bucket_boundary() {
        let alg = FvsstAlgorithm::p630();
        let set = &alg.freq_set;
        let (f_min, f_max) = (set.min().hz(), set.max().hz());
        let n = 768;
        let reachable: Vec<usize> = (1..buckets(n))
            .filter(|&b| (b as f64 / buckets(n) as f64) < 0.99 * (1.0 - f_min / f_max))
            .collect();
        let mut procs = Vec::new();
        for &b in &reachable {
            let boundary = b as f64 / buckets(n) as f64;
            let mut sides = Vec::new();
            for nudge in [1.0 - 1e-12, 1.0, 1.0 + 1e-12] {
                // Solve loss(f_min) = boundary · nudge for M, with CPI₀ = 1.
                let loss = boundary * nudge;
                let mem = (1.0 - loss - f_min / f_max) / (f_min * loss);
                procs.push(modelled(1.0, mem));
                let table = PerfLossTable::build(&procs.last().unwrap().model.unwrap(), set);
                sides.push(table.entries[0].loss_vs_ref);
            }
            assert!(
                sides[0] < boundary && sides[2] >= boundary,
                "bucket {b} is not straddled: {sides:?}"
            );
        }
        // Pad to the processor count the boundaries were computed for.
        assert!(procs.len() <= n);
        procs.resize(n, modelled(1.0, 0.0));
        assert_matches_reference_across_budgets(&procs);
    }

    /// Models no estimator would hand over, whose losses are −NaN, −∞,
    /// negative, above 1, +∞ and +NaN: the bucket map clamps them, the
    /// order stays `total_cmp`'s.
    #[test]
    fn degenerate_losses_keep_total_order() {
        let weird = [
            modelled(f64::NAN, 0.0),      // +NaN on every rung
            modelled(-f64::NAN, 0.0),     // −NaN on every rung
            modelled(0.0, 0.0),           // ∞ − ∞
            modelled(-1.0, 2.0e-9),       // negative, −∞ at 500 MHz, then above 1
            modelled(-1.0e308, 3.0e299),  // p_ref = 0: −∞ and +∞
            modelled(1.0, -0.5e-9),       // CPI falling with frequency
            modelled(1.0, f64::INFINITY), // 0 / 0
            modelled(f64::NEG_INFINITY, 1.0e-9),
        ];
        let seen: Vec<f64> = weird
            .iter()
            .flat_map(|p| {
                PerfLossTable::build(&p.model.unwrap(), &FvsstAlgorithm::p630().freq_set).entries
            })
            .map(|e| e.loss_vs_ref)
            .collect();
        for (what, found) in [
            (
                "+NaN",
                seen.iter().any(|l| l.is_nan() && l.is_sign_positive()),
            ),
            (
                "-NaN",
                seen.iter().any(|l| l.is_nan() && l.is_sign_negative()),
            ),
            ("+inf", seen.contains(&f64::INFINITY)),
            ("-inf", seen.contains(&f64::NEG_INFINITY)),
            ("negative", seen.iter().any(|l| l.is_finite() && *l < 0.0)),
            ("above 1", seen.iter().any(|l| l.is_finite() && *l > 1.0)),
        ] {
            assert!(found, "no {what} loss among the degenerate models");
        }
        // Alone, then scattered among ordinary processors.
        assert_matches_reference_across_budgets(&weird);
        let mut procs: Vec<ProcInput> = (0..120)
            .map(|i| modelled(0.5 + 0.01 * i as f64, 0.3e-9 * (i % 13) as f64))
            .collect();
        for (at, w) in weird.iter().enumerate() {
            procs.insert(at * 15, *w);
        }
        assert_matches_reference_across_budgets(&procs);
    }

    /// Processor counts on both sides of the bucket-count steps (one
    /// bucket up to 15, two from 16, the 2 048 cap from 16 384).
    #[test]
    fn sizes_around_the_bucket_count_steps() {
        assert_eq!(
            [0, 1, 7, 8, 9, 15, 16, 16_385].map(buckets),
            [1, 1, 1, 1, 1, 1, 2, 2048]
        );
        let mixed = |n: usize| -> Vec<ProcInput> {
            (0..n)
                .map(|i| match i % 11 {
                    0 => ProcInput {
                        model: None,
                        idle: false,
                        current: FreqMhz([800, 675][i % 2]),
                    },
                    1 => ProcInput {
                        idle: true,
                        ..modelled(1.0, 0.0)
                    },
                    k => modelled(0.4 + 0.07 * k as f64, 1.0e-9 * ((i * 7) % 23) as f64),
                })
                .collect()
        };
        for n in [0, 1, 7, 8, 9, 15, 16, 17] {
            assert_matches_reference_across_budgets(&mixed(n));
        }
        // The reference is O(d·n): keep d to a few hundred steps here.
        let procs = mixed(16_385);
        let alg = FvsstAlgorithm::p630();
        let top = alg.schedule(&procs, f64::INFINITY).predicted_power_w;
        assert_matches_reference(&alg, &procs, top - 2_000.0);
        assert!(alg.schedule(&procs, top - 2_000.0).demotions > 100);
    }
}

/// End-to-end property: random diverse machines under random budgets
/// always end up compliant (or floored) after a second of simulation.
mod end_to_end {
    use super::*;
    use fvsst::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn random_machines_converge_to_compliance(
            intensities in prop::collection::vec(0.0f64..100.0, 4),
            budget in 40.0f64..560.0,
            seed in any::<u64>(),
        ) {
            let mut b = MachineBuilder::p630().seed(seed);
            for (i, c) in intensities.iter().enumerate() {
                b = b.workload(i, WorkloadSpec::synthetic(*c, 1.0e12).looping());
            }
            let config = SchedulerConfig::p630()
                .with_budget(BudgetSchedule::constant(budget));
            let mut sim = ScheduledSimulation::new(b.build(), config).without_trace();
            let report = sim.run_for(1.0);
            prop_assert!(
                report.final_power_w <= budget + 1e-9,
                "power {} over budget {budget}",
                report.final_power_w
            );
        }
    }
}

/// Pass 2's objective, checked against an exact solver: the largest
/// per-processor loss of `schedule`'s decision is the smallest largest
/// loss of any assignment that keeps every processor at or below its
/// desired level and fits the budget (DESIGN §7: min-max, not min-Σ).
mod min_max {
    use super::*;

    /// The smallest largest loss over every assignment of a level at or
    /// below `desired[i]` to each row `i` whose power, summed in
    /// processor order as pass 2 sums it, is within `budget_w` (`+∞` when
    /// none is). Every assignment is visited; none is cut.
    fn min_max(
        rows: &[Vec<f64>],
        desired: &[usize],
        power_w: &[f64],
        budget_w: f64,
        (sum_w, worst): (f64, f64),
    ) -> f64 {
        let Some((row, rest)) = rows.split_first() else {
            return if sum_w <= budget_w {
                worst
            } else {
                f64::INFINITY
            };
        };
        (0..=desired[0])
            .map(|k| {
                let next = (sum_w + power_w[k], worst.max(row[k]));
                min_max(rest, &desired[1..], power_w, budget_w, next)
            })
            .fold(f64::INFINITY, f64::min)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `(cpi0, M)` rows on Table 1's sixteen levels, at the
        /// paper's ε and at a random one, under a budget drawn between
        /// the `f_min` floor and what pass 1 asks for.
        #[test]
        fn pass2_largest_loss_is_the_exhaustive_min_max(
            models in prop::collection::vec((0.5f64..2.0, 0.0f64..3.0e-9), 1..=5),
            (paper_epsilon, epsilon) in (any::<bool>(), 0.01f64..0.3),
            at in 0.0f64..1.0,
        ) {
            let mut alg = FvsstAlgorithm::p630();
            if !paper_epsilon {
                alg.epsilon = epsilon;
            }
            let set = &alg.freq_set;
            let power_w: Vec<f64> =
                set.iter().map(|f| alg.power_table.power_interpolated(f)).collect();
            let procs: Vec<ProcInput> = models
                .iter()
                .map(|&(cpi0, m)| ProcInput {
                    model: Some(CpiModel::from_components(cpi0, m)),
                    idle: false,
                    current: set.max(),
                })
                .collect();
            let rows: Vec<Vec<f64>> = procs
                .iter()
                .map(|p| {
                    let table = PerfLossTable::build(&p.model.unwrap(), set);
                    table.entries.iter().map(|e| e.loss_vs_ref).collect()
                })
                .collect();
            let asked = alg.schedule(&procs, f64::INFINITY);
            let desired: Vec<usize> =
                asked.desired.iter().map(|&f| set.index_of(f).unwrap()).collect();
            let floor_w = power_w[0] * procs.len() as f64;
            let budget_w = floor_w + at * (asked.predicted_power_w - floor_w);

            let d = alg.schedule(&procs, budget_w);
            prop_assert!(d.feasible);
            let largest = d.predicted_loss.iter().fold(f64::NEG_INFINITY, |a, &l| a.max(l));
            let start = (0.0, f64::NEG_INFINITY);
            prop_assert_eq!(largest, min_max(&rows, &desired, &power_w, budget_w, start));
        }
    }
}
