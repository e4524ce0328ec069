//! `coord_steady` and `coord_churn`: in-process coordination.
//!
//! Same layer, opposite uses. `coord_steady` is the telemetry-noise
//! steady state a big cluster sits in: every node re-reports every
//! round, four drifters jitter by 1 ps, nothing else moves — the sweep /
//! fingerprint / skip paths of `fvs-cluster` and the cache-hit path of
//! `fvs-sched` dominate. `coord_churn` moves every processor's model to
//! another class every round and alternates the budget, so every cache
//! entry misses and every other round is a demotion-heavy pass 2: a
//! caching change must predict *no change* here.

use super::{time_median_ns, Pass, Size, Watchdog};
use crate::spans::Recorder;
use crate::stats::{median, Fnv1a, SplitMix64};
use fvs_cluster::{DelegationTree, FrequencyCommand, GlobalCoordinator, HierTopology, NodeSummary};
use fvs_model::{CpiModel, FreqMhz, FrequencySet, PerfLossTable};
use fvs_power::FreqPowerTable;
use fvs_sched::{
    CacheStats, FvsstAlgorithm, ModelTolerance, ProcInput, ScheduleCache, ScheduleScratch,
};
use std::hint::black_box;
use std::time::Instant;

pub const PROCS_PER_NODE: usize = 4;
/// Nodes whose raw counters jitter each round in `coord_steady`.
const DRIFTERS: usize = 4;
/// Every coordinator call sees this time; with the heartbeat timeout
/// off, as in `crates/bench/benches/hierarchy.rs`, liveness never moves.
const NOW_S: f64 = 1.0;

/// Rounds a timed stretch runs at least, however slow the host.
const MIN_ROUNDS: usize = 20;
/// Share of a `coord_steady` stretch the flat coordinator gets; the
/// tree, whose rounds are a third as long, gets the rest.
const FLAT_SHARE: f64 = 0.6;

fn summary(node: usize, mems: [f64; PROCS_PER_NODE]) -> NodeSummary {
    NodeSummary {
        node,
        sent_at_s: NOW_S,
        models: mems
            .iter()
            .map(|m| Some(CpiModel::from_components(1.0, *m)))
            .collect(),
        idle: vec![false; PROCS_PER_NODE],
        current: vec![FreqMhz(1000); PROCS_PER_NODE],
        power_w: 140.0 * PROCS_PER_NODE as f64,
    }
}

/// Five model classes, 0–20 ns of memory time per instruction, as in
/// the hierarchy bench; `offset` comes from the seed.
pub fn steady_summary(node: usize, offset: usize, jitter: bool) -> NodeSummary {
    let mut mems = [0.0; PROCS_PER_NODE];
    for (p, m) in mems.iter_mut().enumerate() {
        *m = ((node * 7 + p * 3 + offset) % 5) as f64 * 5.0e-9;
    }
    if jitter {
        // 1 ps: far past the model-tolerance quantum, so the cache must
        // refit the processor, and four orders of magnitude below
        // anything that moves a frequency decision.
        mems[0] += 1.0e-12;
    }
    summary(node, mems)
}

/// Nine classes 2.5 ns apart; every processor changes class every round.
fn churn_summary(node: usize, offset: usize, round: usize) -> NodeSummary {
    let mut mems = [0.0; PROCS_PER_NODE];
    for (p, m) in mems.iter_mut().enumerate() {
        *m = ((node * 7 + p * 3 + round * 11 + offset) % 9) as f64 * 2.5e-9;
    }
    summary(node, mems)
}

fn digest_summaries(digest: &mut Fnv1a, summaries: &[NodeSummary]) {
    for s in summaries {
        digest.u64(s.node as u64);
        for m in s.models.iter().flatten() {
            digest.f64(m.mem_time_per_instr);
        }
    }
}

fn flatten(summaries: &[NodeSummary]) -> Vec<ProcInput> {
    summaries
        .iter()
        .flat_map(|s| {
            (0..s.models.len()).map(|p| ProcInput {
                model: s.models[p],
                idle: s.idle[p],
                current: s.current[p],
            })
        })
        .collect()
}

/// At set-up, on a 64-node replica of the same generator, the scratch
/// path must equal the naive reference implementation.
fn replica_check(pass: &mut Pass, summaries: &[NodeSummary], budget_per_proc_w: f64) {
    let alg = FvsstAlgorithm::p630();
    let procs = flatten(&summaries[..summaries.len().min(64)]);
    let budget_w = procs.len() as f64 * budget_per_proc_w;
    let mut scratch = ScheduleScratch::new();
    let fast = alg.schedule_with_scratch(&mut scratch, &procs, budget_w);
    let reference = alg.schedule_reference(&procs, budget_w);
    pass.check(*fast == reference, || {
        format!("schedule_with_scratch differs from schedule_reference on the 64-node replica at {budget_per_proc_w} W/processor")
    });
}

/// What the two coordinators share, so one round loop drives both.
trait Coordinator {
    fn ingest(&mut self, summary: NodeSummary) -> bool;
    fn schedule(&mut self, budget_w: f64) -> Vec<FrequencyCommand>;
    fn feasible(&self) -> bool;
}

impl Coordinator for GlobalCoordinator {
    fn ingest(&mut self, summary: NodeSummary) -> bool {
        GlobalCoordinator::ingest(self, summary)
    }
    fn schedule(&mut self, budget_w: f64) -> Vec<FrequencyCommand> {
        GlobalCoordinator::schedule(self, budget_w, NOW_S)
    }
    fn feasible(&self) -> bool {
        self.schedule_cache().decision().feasible
    }
}

impl Coordinator for DelegationTree {
    fn ingest(&mut self, summary: NodeSummary) -> bool {
        DelegationTree::ingest(self, summary)
    }
    fn schedule(&mut self, budget_w: f64) -> Vec<FrequencyCommand> {
        DelegationTree::schedule(self, budget_w, NOW_S)
    }
    fn feasible(&self) -> bool {
        DelegationTree::feasible(self)
    }
}

/// Span names of one coordinator's rounds.
struct Spans {
    round: &'static str,
    ingest: &'static str,
    schedule: &'static str,
}

static FLAT: Spans = Spans {
    round: "flat_round",
    ingest: "fvs-cluster.ingest",
    schedule: "fvs-cluster.schedule",
};
static TREE: Spans = Spans {
    round: "tree_round",
    ingest: "fvs-cluster.tree_ingest",
    schedule: "fvs-cluster.tree_schedule",
};

/// The last command each node received and the power it allows; the
/// tree re-commands only racks where something changed.
struct Commanded {
    power_w: Vec<f64>,
    total_w: f64,
    table: FreqPowerTable,
}

impl Commanded {
    fn new(nodes: usize) -> Self {
        Commanded {
            power_w: vec![f64::NAN; nodes],
            total_w: 0.0,
            table: FreqPowerTable::p630_table1(),
        }
    }

    fn apply(&mut self, commands: &[FrequencyCommand]) {
        for cmd in commands {
            self.power_w[cmd.node] = cmd
                .freqs
                .iter()
                .map(|f| self.table.power_interpolated(*f))
                .sum();
        }
        self.total_w = self.power_w.iter().sum();
    }
}

/// A coordinator under test, with what its rounds are checked against.
struct Driven<C> {
    c: C,
    spans: &'static Spans,
    commanded: Commanded,
    /// `GlobalCoordinator` commands every live node every round; the
    /// tree only the racks where something changed.
    commands_everyone: bool,
}

fn flat(nodes: usize) -> Driven<GlobalCoordinator> {
    Driven {
        c: GlobalCoordinator::new(FvsstAlgorithm::p630(), nodes)
            .with_heartbeat_timeout(f64::INFINITY),
        spans: &FLAT,
        commanded: Commanded::new(nodes),
        commands_everyone: true,
    }
}

fn tree(nodes: usize) -> Driven<DelegationTree> {
    Driven {
        c: DelegationTree::new(FvsstAlgorithm::p630(), nodes, HierTopology::default())
            .with_heartbeat_timeout(f64::INFINITY),
        spans: &TREE,
        commanded: Commanded::new(nodes),
        commands_everyone: false,
    }
}

impl<C: Coordinator> Driven<C> {
    /// One round: every summary ingested, then `schedule`, timed
    /// together; the checks run after the clock stops. Returns the
    /// round's time (ms).
    fn round(
        &mut self,
        summaries: Vec<NodeSummary>,
        budget_w: f64,
        rec: &mut Recorder,
        pass: &mut Pass,
    ) -> f64 {
        let nodes = summaries.len();
        let r = rec.enter(self.spans.round);
        let t = Instant::now();
        let s = rec.enter(self.spans.ingest);
        let mut accepted = 0;
        for summary in summaries {
            accepted += usize::from(self.c.ingest(summary));
        }
        rec.exit(s);
        let s = rec.enter(self.spans.schedule);
        let commands = self.c.schedule(budget_w);
        rec.exit(s);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rec.exit(r);

        pass.attempted += 1;
        self.commanded.apply(&commands);
        let commands_ok = if self.commands_everyone {
            commands.len() == nodes
        } else {
            commands.len() <= nodes
        };
        // NaN while any node has never been commanded, which fails `<=`.
        let power_ok = !self.c.feasible() || self.commanded.total_w <= budget_w;
        if accepted != nodes || !commands_ok || !power_ok {
            pass.failed += 1;
            if pass.check_failures.len() < 8 {
                pass.check_failures.push(format!(
                    "{}: {accepted}/{nodes} summaries accepted, {} commands, commanded {} W under a {budget_w} W budget",
                    self.spans.round,
                    commands.len(),
                    self.commanded.total_w
                ));
            }
        }
        ms
    }

    /// Rounds `0, 1, 2 …` on `inputs(round)` (built immediately before
    /// the round, clock stopped) until `seconds` of wall time are up: at
    /// least `MIN_ROUNDS` and a whole number of `period`s, unless the
    /// watchdog ends it. Returns each round's time (ms).
    fn rounds_for(
        &mut self,
        seconds: f64,
        period: usize,
        mut inputs: impl FnMut(usize) -> (Vec<NodeSummary>, f64),
        rec: &mut Recorder,
        pass: &mut Pass,
        dog: &Watchdog,
    ) -> Vec<f64> {
        let started = Instant::now();
        let mut ms = Vec::new();
        loop {
            let whole = ms.len() % period == 0;
            let enough = ms.len() >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds;
            if dog.expired() || (whole && enough) {
                break;
            }
            let (summaries, budget_w) = inputs(ms.len());
            ms.push(self.round(summaries, budget_w, rec, pass));
        }
        // Only the watchdog ends a stretch short of its minimum.
        let missed = MIN_ROUNDS.saturating_sub(ms.len()) as u64;
        pass.attempted += missed;
        pass.failed += missed;
        pass.timed_out |= missed > 0;
        ms
    }
}

/// Share of the cache's chances it took between two readings: each round
/// is one chance at a full hit and one per processor at a fingerprint hit.
fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let proc_hits = after.proc_hits - before.proc_hits;
    let hits = (after.full_hits - before.full_hits) + proc_hits;
    let chances =
        (after.rounds - before.rounds) + proc_hits + (after.proc_rebuilds - before.proc_rebuilds);
    hits as f64 / chances as f64
}

/// `schedule_cached` and `schedule_with_scratch` on the same flattened
/// processors, fed the alternation the flat coordinator sees (µs/call).
fn schedule_timings(
    quiet: &[NodeSummary],
    jittered: &[NodeSummary],
    budget_w: f64,
    pass: &mut Pass,
) {
    let alg = FvsstAlgorithm::p630();
    let inputs = [flatten(quiet), flatten(jittered)];
    let mut cache = ScheduleCache::with_tolerance(ModelTolerance::PHASE_DEFAULT);
    let mut scratch = ScheduleScratch::new();
    for procs in &inputs {
        alg.schedule_cached(&mut cache, procs, budget_w);
        alg.schedule_with_scratch(&mut scratch, procs, budget_w);
    }
    let mut i = 0;
    let cached_ns = time_median_ns(21, 1, || {
        i += 1;
        black_box(
            alg.schedule_cached(&mut cache, &inputs[i % 2], budget_w)
                .demotions,
        );
    });
    let scratch_ns = time_median_ns(21, 1, || {
        i += 1;
        black_box(
            alg.schedule_with_scratch(&mut scratch, &inputs[i % 2], budget_w)
                .demotions,
        );
    });
    pass.set("fvs-sched.schedule_cached_us", cached_ns / 1e3);
    pass.set("fvs-sched.schedule_scratch_us", scratch_ns / 1e3);
}

pub fn steady(seed: u64, size: &Size, rec: &mut Recorder, dog: &Watchdog) -> Pass {
    let started = Instant::now();
    let mut pass = Pass::default();
    let nodes = size.nodes();
    let budget_w = (nodes * PROCS_PER_NODE) as f64 * 70.0;
    let mut rng = SplitMix64::new(seed ^ 0x636f_6f72_645f_7374);
    let offset = (rng.next_u64() % 5) as usize;
    // One drifter per quarter of the cluster, so each lands in its own
    // rack (and row, at full size).
    let stride = nodes / DRIFTERS;
    let drifters: Vec<usize> = (0..DRIFTERS)
        .map(|d| d * stride + (rng.next_u64() as usize) % stride)
        .collect();
    let quiet: Vec<NodeSummary> = (0..nodes)
        .map(|n| steady_summary(n, offset, false))
        .collect();
    let mut jittered = quiet.clone();
    for d in &drifters {
        jittered[*d] = steady_summary(*d, offset, true);
    }
    let mut digest = Fnv1a::default();
    digest_summaries(&mut digest, &quiet);
    digest_summaries(&mut digest, &jittered);
    pass.digest = digest.0;
    replica_check(&mut pass, &quiet, 70.0);

    let mut flat = flat(nodes);
    let mut tree = tree(nodes);
    let mut warm = Pass::default();
    let mut off = Recorder::off();
    for _ in 0..2 {
        flat.round(quiet.clone(), budget_w, &mut off, &mut warm);
        tree.round(quiet.clone(), budget_w, &mut off, &mut warm);
    }
    pass.check_failures.append(&mut warm.check_failures);
    let flat_stats = flat.c.cache_stats();
    let tree_stats = tree.c.stats();
    pass.setup_s = started.elapsed().as_secs_f64();

    // The drifters jitter on alternate rounds, from the first: a quiet
    // round straight after the quiet warm rounds would be a full cache
    // hit, another kind of operation.
    let inputs = |i: usize| {
        let summaries = if i % 2 == 1 { &quiet } else { &jittered };
        (summaries.clone(), budget_w)
    };
    let flat_ms = flat.rounds_for(FLAT_SHARE * size.seconds, 2, inputs, rec, &mut pass, dog);
    let tree_s = (1.0 - FLAT_SHARE) * size.seconds;
    let tree_ms = tree.rounds_for(tree_s, 2, inputs, rec, &mut pass, dog);

    pass.set_quietest_and_tail("flat_round_p50_ms", "flat_round_tail_ms", &flat_ms);
    pass.set_quietest_and_tail("tree_round_p50_ms", "tree_round_tail_ms", &tree_ms);
    pass.set(
        "fvs-sched.cache_hit_ratio",
        hit_ratio(flat_stats, flat.c.cache_stats()),
    );
    let h = tree.c.stats();
    let (runs, skips) = (
        h.rack_runs - tree_stats.rack_runs,
        h.rack_skips - tree_stats.rack_skips,
    );
    pass.set(
        "fvs-cluster.tree_rack_skip_ratio",
        skips as f64 / (runs + skips) as f64,
    );

    if rec.enabled() {
        let n = nodes as f64;
        pass.set_self_median("fvs-cluster.ingest_ns_per_summary", rec, FLAT.ingest, n);
        pass.set_self_median(
            "fvs-cluster.tree_ingest_ns_per_summary",
            rec,
            TREE.ingest,
            n,
        );
        pass.set_self_median("fvs-cluster.flat_schedule_us", rec, FLAT.schedule, 1e3);
        pass.set_self_median("fvs-cluster.tree_schedule_us", rec, TREE.schedule, 1e3);
        schedule_timings(&quiet, &jittered, budget_w, &mut pass);
        let overhead = pass.get("fvs-cluster.flat_schedule_us").unwrap_or(f64::NAN)
            - pass.get("fvs-sched.schedule_cached_us").unwrap_or(f64::NAN);
        pass.set("fvs-cluster.overhead_us", overhead);
    }
    pass
}

/// `PerfLossTable::rebuild` over the nine churn classes (ns/table).
fn perf_loss_table_ns() -> f64 {
    let set = FrequencySet::p630();
    let models: Vec<CpiModel> = (0..1024)
        .map(|i| CpiModel::from_components(1.0, (i % 9) as f64 * 2.5e-9))
        .collect();
    let mut table = PerfLossTable::placeholder();
    time_median_ns(101, models.len(), || {
        for m in &models {
            table.rebuild(black_box(m), &set);
        }
        black_box(table.entries.len());
    })
}

/// `FreqPowerTable::power_interpolated`, the lookup behind every
/// commanded-power sum (ns/lookup).
fn power_lookup_ns() -> f64 {
    let table = FreqPowerTable::p630_table1();
    let freqs: Vec<FreqMhz> = (0..1024).map(|i| FreqMhz(250 + (i * 37) % 751)).collect();
    time_median_ns(101, freqs.len(), || {
        let mut sum = 0.0;
        for f in &freqs {
            sum += table.power_interpolated(black_box(*f));
        }
        black_box(sum);
    })
}

pub fn churn(seed: u64, size: &Size, rec: &mut Recorder, dog: &Watchdog) -> Pass {
    let started = Instant::now();
    let mut pass = Pass::default();
    let nodes = size.nodes();
    let procs = (nodes * PROCS_PER_NODE) as f64;
    let (low_w, high_w) = (procs * 60.0, procs * 110.0);
    let mut rng = SplitMix64::new(seed ^ 0x636f_6f72_645f_6368);
    let offset = (rng.next_u64() % 9) as usize;
    let build = |r: usize| -> Vec<NodeSummary> {
        (0..nodes).map(|n| churn_summary(n, offset, r)).collect()
    };
    let warm_inputs = [build(0), build(1)];
    // Round `r` of every pass is the same function of the seed; how many
    // rounds a stretch fits is the host's doing. The digest covers the
    // generator's parameters and its first two rounds.
    let mut digest = Fnv1a::default();
    digest.u64(offset as u64);
    digest_summaries(&mut digest, &warm_inputs[0]);
    digest_summaries(&mut digest, &warm_inputs[1]);
    pass.digest = digest.0;
    replica_check(&mut pass, &warm_inputs[0], 60.0);
    replica_check(&mut pass, &warm_inputs[0], 110.0);

    let mut flat = flat(nodes);
    let mut warm = Pass::default();
    let mut off = Recorder::off();
    for (i, summaries) in warm_inputs.into_iter().enumerate() {
        let budget_w = if i == 0 { low_w } else { high_w };
        flat.round(summaries, budget_w, &mut off, &mut warm);
    }
    pass.check_failures.append(&mut warm.check_failures);
    let stats = flat.c.cache_stats();
    pass.setup_s = started.elapsed().as_secs_f64();

    // The warm rounds ended on the high budget: even rounds drop. Drops
    // and raises alternate, so a stretch runs whole pairs.
    let ms = flat.rounds_for(
        size.seconds,
        2,
        |r| (build(r + 2), if r % 2 == 0 { low_w } else { high_w }),
        rec,
        &mut pass,
        dog,
    );
    // Never one median over two kinds of operation: drops and raises
    // cost differently, and a pooled p50 sits on the boundary.
    let drop_ms: Vec<f64> = ms.iter().copied().step_by(2).collect();
    let raise_ms: Vec<f64> = ms.iter().copied().skip(1).step_by(2).collect();
    pass.set_quietest_and_tail("drop_round_p50_ms", "drop_round_tail_ms", &drop_ms);
    pass.set_quietest_and_tail("raise_round_p50_ms", "raise_round_tail_ms", &raise_ms);
    pass.set(
        "fvs-sched.cache_hit_ratio_churn",
        hit_ratio(stats, flat.c.cache_stats()),
    );

    if rec.enabled() {
        // The tree on the same input, for the record: every rack is
        // dirty every round, so delegation is pure overhead here.
        let mut tree = tree(nodes);
        let mut scratch = Pass::default();
        let mut tree_ms = Vec::new();
        for r in 0..12 {
            if dog.expired() {
                break;
            }
            let budget_w = if r % 2 == 0 { low_w } else { high_w };
            let ms = tree.round(build(r + 2), budget_w, &mut off, &mut scratch);
            if r >= 2 {
                tree_ms.push(ms);
            }
        }
        pass.check_failures.append(&mut scratch.check_failures);
        pass.set("fvs-cluster.tree_churn_round_ms", median(&mut tree_ms));
        pass.set("fvs-model.perf_loss_table_ns", perf_loss_table_ns());
        pass.set("fvs-power.power_lookup_ns", power_lookup_ns());
    }
    pass
}
