//! Struct-of-arrays core bank: the one place a simulated core is stepped.
//!
//! [`CoreBank::step_row_core`] is the scalar definition of a core's tick:
//! consume stolen daemon time, then retire instructions at the effective
//! frequency across phase boundaries, body loops, drift and completion.
//! A machine built with [`crate::MachineBuilder::reference_stepping`]
//! runs nothing else, which makes it the differential oracle. Every other
//! machine goes through [`CoreBank::tick_batch`], which keeps the same
//! ground-truth model but lays every per-core field out as its own
//! contiguous array so one pass advances all cores with streaming,
//! branch-light, SIMD-friendly arithmetic.
//!
//! Four ideas make the fast path cheap while preserving the scalar
//! semantics — bit-identical under every-tick observation, and within a
//! few ulp (≤1e-12 relative) for accumulators left unobserved across
//! multi-tick windows (see the differential proptests in
//! `tests/batch_parity.rs`):
//!
//! 1. **Actuators as columns.** A core's actuator is a step function
//!    `(current, target, settle_at)` ([`CoreBank::effective_at`]), so the
//!    effective frequency lives in a flat `eff_hz` array that only
//!    changes when a request lands or a pending transition settles —
//!    never inside the tick loop.
//! 2. **Cached phase coefficients.** The CPI model of the current phase
//!    (`cpi0`, memory seconds/instruction, access rates, drift scaling)
//!    is refreshed only at phase boundaries and stored per core, so the
//!    hot loop is pure array arithmetic: `cpi = cpi0 + m·hz`,
//!    `rate = hz/cpi`, five fused multiply-adds to retire counters.
//! 3. **Boundary-crossers compaction.** Cores that would cross a phase
//!    boundary this tick (or owe stolen daemon time) are *rare*; their
//!    indices are compacted into a small per-block list and replayed
//!    through `step_row_core` while the common case stays branch-free.
//! 4. **Deferred uniform windows.** A 128-core block that provably stays
//!    on the fast path for the next `t` ticks (`block_safe_ticks`: no
//!    phase boundary within a 4-tick margin, no steal, no actuation)
//!    advances by a counter bump alone; the pending window of `k` ticks
//!    commits in closed form (`x += k·d`, [`CoreBank::materialize_block`])
//!    at the next observation or perturbation. A `k = 1` window commits
//!    with exactly the per-tick arithmetic, so every-tick sampling is
//!    bitwise unchanged. The count is taken at the start of the tick
//!    after a checked pass, and only for a block nothing touched since.
//!
//! A scheduled tick reads whole columns, not per-core views: `finished`,
//! `idle_loop_flag`, `transitional` and `req_mhz` are each kept where
//! their inputs change, and [`CoreBank::sample_all_into`] differences
//! every row a counter column at a time, then jitters the whole buffer.
//!
//! A tick allocates nothing (the crossers list is a fixed stack array
//! per 128-core block), which is what the zero-alloc-per-tick proofs in
//! `fvs-sched` measure.

use crate::core::{CoreStats, PhaseCursor};
use crate::noise::NoiseModel;
use fvs_model::{CounterDelta, ExecutionProfile, FreqMhz, MemoryLatencies};
use fvs_workloads::{PhaseKind, WorkloadSpec};
use rand::RngCore;

/// The golden angle (rad): successive multiples never repeat, so loop
/// drift is deterministic, aperiodic and has mean ≈ 1.
const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;

/// Cores per serial sub-block; bounds the stack-allocated crossers list.
const BLOCK: usize = 128;

/// `block_fast_ticks` of a block untouched since its checked pass ended:
/// the count is owed, not yet computed (real counts stop at 1e9).
const COUNT_OWED: u32 = u32::MAX;

/// The factor applied to a body phase's off-core rates in loop
/// iteration `k`: `1 + amp·sin(k·φ)`.
#[inline]
fn drift_factor(amp: f64, loop_count: u64) -> f64 {
    1.0 + amp * (loop_count as f64 * GOLDEN_ANGLE).sin()
}

/// Per-core cached coefficients of the currently-executing phase.
struct PhaseCache {
    cpi0: f64,
    mem_s_per_instr: f64,
    l2_per_instr: f64,
    l3_per_instr: f64,
    mem_per_instr: f64,
    /// Instruction budget of the phase (`+inf` once finished, so the
    /// time-to-boundary test never fires for idle-spinning cores).
    phase_instr: f64,
    /// 1.0 while executing the assigned workload, 0.0 in the idle loop.
    in_workload: f64,
    /// 1.0 while in a workload *body* phase.
    in_body: f64,
    /// 1.0 when the core accrues busy time (not idle).
    busy: f64,
}

/// Compute the phase cache for one core. Mirrors the per-iteration
/// profile selection in `step_row_core` (including drift scaling), so
/// cached values equal what the scalar path would recompute.
fn phase_cache(
    workload: &WorkloadSpec,
    idle_profile: &ExecutionProfile,
    finished: bool,
    phase_idx: usize,
    loop_count: u64,
    lat: &MemoryLatencies,
) -> PhaseCache {
    if finished {
        return PhaseCache {
            cpi0: idle_profile.cpi0(),
            mem_s_per_instr: idle_profile.rates.stall_time_per_instr(lat),
            l2_per_instr: idle_profile.rates.l2_per_instr,
            l3_per_instr: idle_profile.rates.l3_per_instr,
            mem_per_instr: idle_profile.rates.mem_per_instr,
            phase_instr: f64::INFINITY,
            in_workload: 0.0,
            in_body: 0.0,
            busy: 0.0,
        };
    }
    let phase = &workload.phases[phase_idx];
    let mut profile = phase.profile;
    if workload.loop_drift_amplitude > 0.0 && phase.kind == PhaseKind::Body {
        profile.rates = profile
            .rates
            .scaled(drift_factor(workload.loop_drift_amplitude, loop_count));
    }
    PhaseCache {
        cpi0: profile.cpi0(),
        mem_s_per_instr: profile.rates.stall_time_per_instr(lat),
        l2_per_instr: profile.rates.l2_per_instr,
        l3_per_instr: profile.rates.l3_per_instr,
        mem_per_instr: profile.rates.mem_per_instr,
        phase_instr: phase.instructions,
        in_workload: 1.0,
        in_body: if phase.kind == PhaseKind::Body {
            1.0
        } else {
            0.0
        },
        busy: if workload.is_idle_loop { 0.0 } else { 1.0 },
    }
}

/// Contiguous per-field state for every core of a machine.
///
/// The bank is the authoritative simulation state; [`crate::Machine`]
/// wraps it together with the cold per-core state (workload specs,
/// energy meters) and exposes the familiar per-core view API on top.
#[derive(Debug)]
pub(crate) struct CoreBank {
    n: usize,
    // --- cumulative ground-truth counters (one array per PMC) ---
    pub(crate) instructions: Vec<f64>,
    pub(crate) cycles: Vec<f64>,
    pub(crate) l2_accesses: Vec<f64>,
    pub(crate) l3_accesses: Vec<f64>,
    pub(crate) mem_accesses: Vec<f64>,
    // --- snapshot at the last sample, for delta computation ---
    ls_instructions: Vec<f64>,
    ls_cycles: Vec<f64>,
    ls_l2: Vec<f64>,
    ls_l3: Vec<f64>,
    ls_mem: Vec<f64>,
    // --- workload cursor + stats ---
    pub(crate) phase_idx: Vec<u32>,
    pub(crate) done_in_phase: Vec<f64>,
    pub(crate) loop_count: Vec<u64>,
    pub(crate) finished: Vec<bool>,
    /// Whether the row is in an init or exit phase of its workload
    /// ([`CoreBank::sync_transitional`], wherever a cursor moves).
    pub(crate) transitional: Vec<bool>,
    pub(crate) body_instructions: Vec<f64>,
    pub(crate) busy_s: Vec<f64>,
    /// Completion time of a non-looping workload; NaN while running.
    pub(crate) completed_at_s: Vec<f64>,
    pub(crate) pending_steal_s: Vec<f64>,
    pub(crate) powered: Vec<bool>,
    pub(crate) idle_loop_flag: Vec<bool>,
    // --- actuator state + effective-frequency cache ---
    /// The most recently requested frequency (MHz).
    pub(crate) req_mhz: Vec<u32>,
    pub(crate) lin_cur_mhz: Vec<u32>,
    pub(crate) lin_tgt_mhz: Vec<u32>,
    pub(crate) lin_settle_at_s: Vec<f64>,
    pub(crate) eff_mhz: Vec<u32>,
    pub(crate) eff_hz: Vec<f64>,
    /// Cached per-core power (W), valid while the effective frequency and
    /// power state are unchanged; zero for powered-off cores.
    pub(crate) power_w: Vec<f64>,
    /// Rows with an in-flight actuator transition (`settle_at` in the
    /// future). Kept compact so a machine with no transitions pays
    /// nothing to check.
    pub(crate) settling: Vec<u32>,
    pub(crate) settling_flag: Vec<bool>,
    /// Seconds accumulated at the current effective frequency since the
    /// last residency flush (flushed into the histogram on change).
    pub(crate) stint_s: Vec<f64>,
    // --- cached coefficients of the current phase ---
    cur_cpi0: Vec<f64>,
    cur_m: Vec<f64>,
    cur_l2r: Vec<f64>,
    cur_l3r: Vec<f64>,
    cur_memr: Vec<f64>,
    cur_phase_instr: Vec<f64>,
    cur_in_wl: Vec<f64>,
    cur_in_body: Vec<f64>,
    cur_busy: Vec<f64>,
    /// Cached `cpi0 + m·hz` at the current effective frequency.
    /// `step_row_core` recomputes this every tick from the same operands,
    /// so caching it at refresh points is bit-identical.
    cur_cpi: Vec<f64>,
    /// Cached `hz / cur_cpi` — the instruction retire rate. Same
    /// bit-identity argument; removes both divisions from the fast path.
    cur_rate: Vec<f64>,
    /// Per-128-row-block count of ticks the whole block is *provably*
    /// uniform-fast for (every row powered, no pending steal, far from
    /// any phase boundary). While positive, a tick only extends the
    /// block's deferred window (`pending_ticks`) — no per-row work.
    /// Zeroed by any event that could perturb a row (frequency change,
    /// steal, power toggle, phase refresh, dt change). A checked pass
    /// leaves [`COUNT_OWED`]: the count is taken at the start of the next
    /// tick, if nothing zeroed the entry first — a scheduled run steals
    /// on its host core every tick and never needs block 0's.
    block_fast_ticks: Vec<u32>,
    /// Per-block count of uniform ticks accrued but not yet applied to
    /// the accumulator arrays. While a block is provably uniform, a tick
    /// costs one counter increment; the `k` pending ticks are committed
    /// in closed form (`x += k·d`, a single rounding instead of `k`) at
    /// the next observation or perturbation. A window of `k = 1` commits
    /// bit-identically to the per-tick fast path, so every-tick sampling
    /// — the paper's scheduler loop — sees unchanged bits; longer
    /// unobserved windows agree with the reference to ~`k·2⁻⁵²` relative
    /// (well inside the 1e-12 differential-test envelope) and are
    /// strictly *more* accurate.
    pub(crate) pending_ticks: Vec<u32>,
    /// The dt the block counters were computed for; counters are only
    /// trusted while dt is unchanged.
    fast_dt: f64,
    /// The platform idle-loop profile shared by all finished cores.
    pub(crate) idle_profile: ExecutionProfile,
}

impl CoreBank {
    /// A bank for `n` cores that have run nothing yet, each settled at a
    /// request for `req` that runs at `eff` and draws `power_w`. Rows still
    /// need their idle flags and phase caches (the machine builder does
    /// this).
    pub(crate) fn new(n: usize, req: FreqMhz, eff: FreqMhz, power_w: f64) -> Self {
        CoreBank {
            n,
            instructions: vec![0.0; n],
            cycles: vec![0.0; n],
            l2_accesses: vec![0.0; n],
            l3_accesses: vec![0.0; n],
            mem_accesses: vec![0.0; n],
            ls_instructions: vec![0.0; n],
            ls_cycles: vec![0.0; n],
            ls_l2: vec![0.0; n],
            ls_l3: vec![0.0; n],
            ls_mem: vec![0.0; n],
            phase_idx: vec![0; n],
            done_in_phase: vec![0.0; n],
            loop_count: vec![0; n],
            finished: vec![false; n],
            transitional: vec![false; n],
            body_instructions: vec![0.0; n],
            busy_s: vec![0.0; n],
            completed_at_s: vec![f64::NAN; n],
            pending_steal_s: vec![0.0; n],
            powered: vec![true; n],
            idle_loop_flag: vec![false; n],
            req_mhz: vec![req.0; n],
            lin_cur_mhz: vec![eff.0; n],
            lin_tgt_mhz: vec![eff.0; n],
            lin_settle_at_s: vec![0.0; n],
            eff_mhz: vec![eff.0; n],
            eff_hz: vec![eff.hz(); n],
            power_w: vec![power_w; n],
            settling: Vec::with_capacity(n),
            settling_flag: vec![false; n],
            stint_s: vec![0.0; n],
            cur_cpi0: vec![0.0; n],
            cur_m: vec![0.0; n],
            cur_l2r: vec![0.0; n],
            cur_l3r: vec![0.0; n],
            cur_memr: vec![0.0; n],
            cur_phase_instr: vec![0.0; n],
            cur_in_wl: vec![0.0; n],
            cur_in_body: vec![0.0; n],
            cur_busy: vec![0.0; n],
            cur_cpi: vec![0.0; n],
            cur_rate: vec![0.0; n],
            block_fast_ticks: vec![0; n.div_ceil(BLOCK)],
            pending_ticks: vec![0; n.div_ceil(BLOCK)],
            fast_dt: 0.0,
            idle_profile: WorkloadSpec::hot_idle().phases[0].profile,
        }
    }

    /// Number of cores in the bank.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The effective frequency of row `i` at `now_s`.
    pub(crate) fn effective_at(&self, i: usize, now_s: f64) -> FreqMhz {
        if now_s >= self.lin_settle_at_s[i] {
            FreqMhz(self.lin_tgt_mhz[i])
        } else {
            FreqMhz(self.lin_cur_mhz[i])
        }
    }

    /// Kind of the phase row `i` is executing (idle counts as `Body` of
    /// the idle loop).
    pub(crate) fn phase_kind(&self, i: usize, workload: &WorkloadSpec) -> PhaseKind {
        if self.finished[i] {
            PhaseKind::Body
        } else {
            workload.phases[self.phase_idx[i] as usize].kind
        }
    }

    /// Re-evaluate row `i`'s `transitional` flag: the one init/exit test,
    /// owed after every move of its cursor.
    pub(crate) fn sync_transitional(&mut self, i: usize, workload: &WorkloadSpec) {
        self.transitional[i] = matches!(
            self.phase_kind(i, workload),
            PhaseKind::Init | PhaseKind::Exit
        );
    }

    /// Recompute the cached phase coefficients of row `i`.
    pub(crate) fn refresh_row(&mut self, i: usize, workload: &WorkloadSpec, lat: &MemoryLatencies) {
        let c = phase_cache(
            workload,
            &self.idle_profile,
            self.finished[i],
            self.phase_idx[i] as usize,
            self.loop_count[i],
            lat,
        );
        self.cur_cpi0[i] = c.cpi0;
        self.cur_m[i] = c.mem_s_per_instr;
        self.cur_l2r[i] = c.l2_per_instr;
        self.cur_l3r[i] = c.l3_per_instr;
        self.cur_memr[i] = c.mem_per_instr;
        self.cur_phase_instr[i] = c.phase_instr;
        self.cur_in_wl[i] = c.in_workload;
        self.cur_in_body[i] = c.in_body;
        self.cur_busy[i] = c.busy;
        self.recompute_rate_row(i);
    }

    /// Refresh the cached CPI and retire rate of row `i` from its phase
    /// coefficients and effective frequency. Must be called whenever
    /// either changes (phase refresh, frequency taking effect).
    pub(crate) fn recompute_rate_row(&mut self, i: usize) {
        // A pending window at the old rate must be committed before the
        // rate changes (callers go through `perturb_row` first).
        debug_assert_eq!(self.pending_ticks[i / BLOCK], 0);
        let hz = self.eff_hz[i];
        let cpi = self.cur_cpi0[i] + self.cur_m[i] * hz;
        self.cur_cpi[i] = cpi;
        self.cur_rate[i] = hz / cpi;
        self.block_fast_ticks[i / BLOCK] = 0;
    }

    /// Close the deferred window of the block containing row `i` and
    /// drop its uniform-fast guarantee. Must precede every mutation that
    /// could make a row unsafe for the branch-free pass or change its
    /// rate/phase coefficients (steal, power toggle, frequency change,
    /// workload reassignment/swap).
    pub(crate) fn perturb_row(&mut self, i: usize) {
        let blk = i / BLOCK;
        self.materialize_block(blk);
        self.block_fast_ticks[blk] = 0;
    }

    /// Commit the pending uniform ticks of every block.
    pub(crate) fn materialize_all(&mut self) {
        for blk in 0..self.pending_ticks.len() {
            self.materialize_block(blk);
        }
    }

    /// Commit block `blk`'s pending uniform ticks into the accumulator
    /// arrays in closed form. For a window of one tick this is exactly
    /// the per-tick fast-path arithmetic (`y·1.0 ≡ y`), hence
    /// bit-identical; longer windows collapse `k` equal additions into
    /// one `+ k·d`.
    fn materialize_block(&mut self, blk: usize) {
        let k = self.pending_ticks[blk];
        if k == 0 {
            return;
        }
        self.pending_ticks[blk] = 0;
        let kf = k as f64;
        let dt = self.fast_dt;
        let start = blk * BLOCK;
        let end = (start + BLOCK).min(self.n);
        let len = end - start;
        let cur_rate = &self.cur_rate[start..end];
        let cur_cpi = &self.cur_cpi[start..end];
        let cur_l2r = &self.cur_l2r[start..end];
        let cur_l3r = &self.cur_l3r[start..end];
        let cur_memr = &self.cur_memr[start..end];
        let cur_in_wl = &self.cur_in_wl[start..end];
        let cur_in_body = &self.cur_in_body[start..end];
        let cur_busy = &self.cur_busy[start..end];
        let done_in_phase = &mut self.done_in_phase[start..end];
        let busy_s = &mut self.busy_s[start..end];
        let instructions = &mut self.instructions[start..end];
        let cycles = &mut self.cycles[start..end];
        let l2 = &mut self.l2_accesses[start..end];
        let l3 = &mut self.l3_accesses[start..end];
        let mem = &mut self.mem_accesses[start..end];
        let body = &mut self.body_instructions[start..end];
        for j in 0..len {
            let instr = cur_rate[j] * dt;
            let s = instr * kf;
            busy_s[j] += (dt * cur_busy[j]) * kf;
            instructions[j] += s;
            cycles[j] += cur_cpi[j] * s;
            l2[j] += cur_l2r[j] * s;
            l3[j] += cur_l3r[j] * s;
            mem[j] += cur_memr[j] * s;
            done_in_phase[j] += s * cur_in_wl[j];
            body[j] += s * cur_in_body[j];
        }
    }

    /// Pending uniform ticks of the block containing row `i`, with the
    /// per-tick retirement of the row — the read-through adjustment for
    /// accessors that must not mutate the bank.
    fn pending_row(&self, i: usize) -> (f64, f64) {
        let k = self.pending_ticks[i / BLOCK];
        if k == 0 {
            (0.0, 0.0)
        } else {
            let kf = k as f64;
            (kf, (self.cur_rate[i] * self.fast_dt) * kf)
        }
    }

    /// Ground-truth cumulative counters of row `i`, deferred window
    /// included (read-through; the same arithmetic a commit would apply).
    pub(crate) fn counters(&self, i: usize) -> CounterDelta {
        let (_, s) = self.pending_row(i);
        CounterDelta {
            instructions: self.instructions[i] + s,
            cycles: self.cycles[i] + self.cur_cpi[i] * s,
            l2_accesses: self.l2_accesses[i] + self.cur_l2r[i] * s,
            l3_accesses: self.l3_accesses[i] + self.cur_l3r[i] * s,
            mem_accesses: self.mem_accesses[i] + self.cur_memr[i] * s,
        }
    }

    /// Statistics snapshot of row `i`, deferred window included.
    pub(crate) fn stats(&self, i: usize) -> CoreStats {
        let (kf, s) = self.pending_row(i);
        CoreStats {
            total_instructions: self.instructions[i] + s,
            body_instructions: self.body_instructions[i] + s * self.cur_in_body[i],
            completed_at_s: if self.completed_at_s[i].is_nan() {
                None
            } else {
                Some(self.completed_at_s[i])
            },
            busy_s: self.busy_s[i] + (self.fast_dt * self.cur_busy[i]) * kf,
        }
    }

    /// Workload cursor of row `i`.
    pub(crate) fn cursor(&self, i: usize) -> PhaseCursor {
        let (_, s) = self.pending_row(i);
        PhaseCursor {
            phase: self.phase_idx[i] as usize,
            done_in_phase: self.done_in_phase[i] + s * self.cur_in_wl[i],
        }
    }

    /// Sample row `i`: [`CoreBank::sample_all_into`]'s two steps on a
    /// one-row slice, committing only the row's own block.
    pub(crate) fn sample_row<R: RngCore + Clone>(
        &mut self,
        i: usize,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> CounterDelta {
        self.materialize_block(i / BLOCK);
        let mut row = [CounterDelta::default()];
        self.take_deltas(i, &mut row);
        noise.perturb(&mut row, rng);
        row[0]
    }

    /// Sample every row into `out`: every row's delta first, then one
    /// [`NoiseModel::perturb`] pass over the buffer — the values and the
    /// RNG draws of a [`CoreBank::sample_row`] loop over rows.
    pub(crate) fn sample_all_into<R: RngCore + Clone>(
        &mut self,
        noise: &NoiseModel,
        rng: &mut R,
        out: &mut Vec<CounterDelta>,
    ) {
        self.materialize_all();
        // Every field of every row is overwritten below.
        out.resize(self.n, CounterDelta::default());
        self.take_deltas(0, out);
        noise.perturb(out, rng);
    }

    /// Write the deltas of rows `first..first + out.len()` since their
    /// previous sample into `out` and snapshot the rows, a counter column
    /// at a time. The rows' blocks must hold no window.
    #[inline]
    fn take_deltas(&mut self, first: usize, out: &mut [CounterDelta]) {
        let rows = first..first + out.len();
        type Field = fn(&mut CounterDelta) -> &mut f64;
        let columns: [(_, _, Field); 5] = [
            (&self.instructions, &mut self.ls_instructions, |d| {
                &mut d.instructions
            }),
            (&self.cycles, &mut self.ls_cycles, |d| &mut d.cycles),
            (&self.l2_accesses, &mut self.ls_l2, |d| &mut d.l2_accesses),
            (&self.l3_accesses, &mut self.ls_l3, |d| &mut d.l3_accesses),
            (&self.mem_accesses, &mut self.ls_mem, |d| {
                &mut d.mem_accesses
            }),
        ];
        for (now, last, field) in columns {
            let (now, last) = (&now[rows.clone()], &mut last[rows.clone()]);
            for ((d, now), last) in out.iter_mut().zip(now).zip(last) {
                *field(d) = now - std::mem::replace(last, *now);
            }
        }
    }

    /// Advance every core by `dt` seconds starting at `now_s`: every
    /// powered row ends where [`CoreBank::step_row_core`] would leave it
    /// — bit-identical under every-tick observation, ≤1e-12 relative for
    /// accumulators committed as deferred multi-tick windows, with all
    /// discrete state (phase boundaries, finishes) exactly preserved.
    pub(crate) fn tick_batch(
        &mut self,
        now_s: f64,
        dt: f64,
        lat: &MemoryLatencies,
        workloads: &[WorkloadSpec],
    ) {
        // A dt at or below the scalar loop's epsilon retires nothing in
        // `step_row_core`; route every row through it.
        let force_slow = dt <= 1e-15;
        if dt != self.fast_dt || force_slow {
            // Windows deferred at the old dt must be committed with it,
            // and the block counters are only trusted for the dt they
            // were computed for.
            self.materialize_all();
            self.fast_dt = dt;
            self.block_fast_ticks.fill(0);
        }
        self.tick_serial(now_s, dt, lat, workloads, force_slow);
    }

    /// Advance every powered row through [`CoreBank::step_row_core`]
    /// alone — no fast path, no phase cache, no deferred windows: the
    /// differential oracle. A machine is stepped this way or batched for
    /// its whole life ([`crate::MachineBuilder::reference_stepping`]), so
    /// no window is ever open here and the phase cache is never read
    /// afterwards.
    pub(crate) fn step_rows_reference(
        &mut self,
        now_s: f64,
        dt: f64,
        lat: &MemoryLatencies,
        workloads: &[WorkloadSpec],
    ) {
        for i in 0..self.n {
            if self.powered[i] {
                self.step_row_core(i, now_s, dt, lat, workloads);
            }
        }
    }

    /// One batched tick: streaming fast path over 128-core blocks,
    /// crossers compacted into a stack list and replayed through
    /// [`CoreBank::step_row_core`].
    fn tick_serial(
        &mut self,
        now_s: f64,
        dt: f64,
        lat: &MemoryLatencies,
        workloads: &[WorkloadSpec],
        force_slow: bool,
    ) {
        // Division-free boundary guard: `remaining_instr > 2·dt·rate`
        // guarantees `time_to_boundary > dt` with ulp margin to spare,
        // so the row provably stays inside its phase for this tick. Rows
        // within two ticks of a boundary (or with a pending steal) take
        // the exact scalar path, which is bit-identical by construction.
        let guard_dt = 2.0 * dt;
        for blk in 0..self.pending_ticks.len() {
            let start = blk * BLOCK;
            let end = (start + BLOCK).min(self.n);
            // Nothing touched the block since its checked pass ended, so
            // this is the count that pass would have taken: same rows,
            // same `dt` (a dt change zeroes every entry first).
            if self.block_fast_ticks[blk] == COUNT_OWED {
                self.block_fast_ticks[blk] = self.block_safe_ticks(start, end, dt);
            }
            // Uniform-fast block: a positive counter proves every row
            // takes the fast path this tick, so just extend the block's
            // deferred window — the tick costs one increment. The window
            // is committed in closed form at the next observation,
            // perturbation or checked pass.
            if self.block_fast_ticks[blk] > 0 {
                self.block_fast_ticks[blk] -= 1;
                self.pending_ticks[blk] += 1;
                continue;
            }
            // Checked pass: first commit the block's deferred window so
            // the per-row state is current.
            self.materialize_block(blk);
            let mut crossers = [0u32; BLOCK];
            let mut n_cross = 0usize;
            {
                // Reslice every array to the block so the compiler can
                // hoist the bounds checks out of the row loop.
                let len = end - start;
                let powered = &self.powered[start..end];
                let pending_steal = &self.pending_steal_s[start..end];
                let cur_rate = &self.cur_rate[start..end];
                let cur_cpi = &self.cur_cpi[start..end];
                let cur_phase_instr = &self.cur_phase_instr[start..end];
                let cur_l2r = &self.cur_l2r[start..end];
                let cur_l3r = &self.cur_l3r[start..end];
                let cur_memr = &self.cur_memr[start..end];
                let cur_in_wl = &self.cur_in_wl[start..end];
                let cur_in_body = &self.cur_in_body[start..end];
                let cur_busy = &self.cur_busy[start..end];
                let done_in_phase = &mut self.done_in_phase[start..end];
                let busy_s = &mut self.busy_s[start..end];
                let instructions = &mut self.instructions[start..end];
                let cycles = &mut self.cycles[start..end];
                let l2 = &mut self.l2_accesses[start..end];
                let l3 = &mut self.l3_accesses[start..end];
                let mem = &mut self.mem_accesses[start..end];
                let body = &mut self.body_instructions[start..end];
                for j in 0..len {
                    if !powered[j] {
                        continue;
                    }
                    let rate = cur_rate[j];
                    let remaining_instr = cur_phase_instr[j] - done_in_phase[j];
                    if force_slow || pending_steal[j] > 0.0 || remaining_instr <= guard_dt * rate {
                        crossers[n_cross] = (start + j) as u32;
                        n_cross += 1;
                        continue;
                    }
                    // Common case: the whole tick stays inside one phase.
                    // Exactly the arithmetic of `step_row_core`'s single
                    // loop iteration with run == dt (the cached rate and
                    // CPI are the same operands it recomputes), so
                    // results are bit-identical.
                    let instr = rate * dt;
                    busy_s[j] += dt * cur_busy[j];
                    instructions[j] += instr;
                    cycles[j] += cur_cpi[j] * instr;
                    l2[j] += cur_l2r[j] * instr;
                    l3[j] += cur_l3r[j] * instr;
                    mem[j] += cur_memr[j] * instr;
                    done_in_phase[j] += instr * cur_in_wl[j];
                    body[j] += instr * cur_in_body[j];
                }
            }
            for &i in &crossers[..n_cross] {
                // The scalar definition, then the phase cache so later
                // fast-path ticks see the phase the row landed in.
                let i = i as usize;
                self.step_row_core(i, now_s, dt, lat, workloads);
                self.refresh_row(i, &workloads[i], lat);
            }
            // With the block freshly advanced (and crossers refreshed),
            // how many future ticks it is provably uniform for can be
            // re-established: next tick, if the block is still untouched.
            // Skipped on forced-slow ticks: their fast arithmetic would
            // diverge from the scalar epsilon cutoff.
            if !force_slow {
                self.block_fast_ticks[blk] = COUNT_OWED;
            }
        }
    }

    /// Number of consecutive future ticks of `dt` for which *every* row
    /// in `[start, end)` provably stays on the fast path: powered, no
    /// pending steal, and far enough from its phase boundary that the
    /// per-row guard (`remaining > 2·dt·rate`) cannot trip. The margin
    /// of four ticks plus a 1e-12 per-tick relative slack dwarfs the
    /// ~2⁻⁵² rounding each fast tick can add to `done_in_phase`, so the
    /// count is conservative.
    fn block_safe_ticks(&self, start: usize, end: usize, dt: f64) -> u32 {
        const CAP: f64 = 1.0e9;
        let mut min_ticks = CAP;
        for j in start..end {
            let t = if !self.powered[j] || self.pending_steal_s[j] > 0.0 {
                0.0
            } else if self.cur_in_wl[j] == 0.0 {
                // Idle/finished rows never advance toward a boundary.
                CAP
            } else {
                let d = self.cur_rate[j] * dt;
                let budget = self.cur_phase_instr[j] - self.done_in_phase[j];
                let t = (budget - 4.0 * d) / (d * (1.0 + 1.0e-12));
                if t.is_finite() && t > 0.0 {
                    t
                } else {
                    0.0
                }
            };
            if t < min_ticks {
                min_ticks = t;
            }
        }
        min_ticks.clamp(0.0, CAP) as u32
    }

    /// The scalar definition of one core's tick — what every other path
    /// in this file must agree with: consumes stolen daemon time, walks
    /// phase boundaries, handles body looping, completion and drift,
    /// rebuilding the CPI model from the phase profile as it goes. Does
    /// *not* touch the phase cache, so the reference stepper's per-tick
    /// cost is that of a plain scalar loop.
    fn step_row_core(
        &mut self,
        i: usize,
        now_s: f64,
        dt: f64,
        lat: &MemoryLatencies,
        workloads: &[WorkloadSpec],
    ) {
        debug_assert!(self.powered[i]);
        let hz = self.eff_hz[i];
        let workload = &workloads[i];
        let mut remaining = dt;
        if !(self.finished[i] || workload.is_idle_loop) {
            self.busy_s[i] += dt;
        }
        // Management-software time runs first, displacing the workload.
        if self.pending_steal_s[i] > 0.0 {
            let steal = self.pending_steal_s[i].min(remaining);
            let daemon = ExecutionProfile {
                alpha: 1.0,
                l1_stall_cycles_per_instr: 0.3,
                rates: fvs_model::AccessRates {
                    l2_per_instr: 0.01,
                    l3_per_instr: 0.002,
                    mem_per_instr: 0.002,
                },
            };
            let cpi0 = daemon.cpi0();
            let m = daemon.rates.stall_time_per_instr(lat);
            let cpi = cpi0 + m * hz;
            let rate = hz / cpi;
            let instr = rate * steal;
            self.instructions[i] += instr;
            self.cycles[i] += cpi * instr;
            self.l2_accesses[i] += daemon.rates.l2_per_instr * instr;
            self.l3_accesses[i] += daemon.rates.l3_per_instr * instr;
            self.mem_accesses[i] += daemon.rates.mem_per_instr * instr;
            self.pending_steal_s[i] -= steal;
            remaining -= steal;
        }
        // Execute across phase boundaries until the tick is used up.
        while remaining > 1e-15 {
            let (mut profile, budget_left, in_workload) = if self.finished[i] {
                (self.idle_profile, f64::INFINITY, false)
            } else {
                let phase = &workload.phases[self.phase_idx[i] as usize];
                (
                    phase.profile,
                    phase.instructions - self.done_in_phase[i],
                    true,
                )
            };
            // Iteration drift: scale the off-core behaviour of body
            // phases by this loop's factor.
            if in_workload
                && workload.loop_drift_amplitude > 0.0
                && workload.phases[self.phase_idx[i] as usize].kind == PhaseKind::Body
            {
                profile.rates = profile.rates.scaled(drift_factor(
                    workload.loop_drift_amplitude,
                    self.loop_count[i],
                ));
            }
            let cpi0 = profile.cpi0();
            let m = profile.rates.stall_time_per_instr(lat);
            let cpi = cpi0 + m * hz;
            let rate = hz / cpi;
            let time_to_boundary = budget_left / rate;
            let run = remaining.min(time_to_boundary);
            let instr = rate * run;
            self.instructions[i] += instr;
            self.cycles[i] += cpi * instr;
            self.l2_accesses[i] += profile.rates.l2_per_instr * instr;
            self.l3_accesses[i] += profile.rates.l3_per_instr * instr;
            self.mem_accesses[i] += profile.rates.mem_per_instr * instr;
            if in_workload {
                self.done_in_phase[i] += instr;
                if workload.phases[self.phase_idx[i] as usize].kind == PhaseKind::Body {
                    self.body_instructions[i] += instr;
                }
                if time_to_boundary <= remaining {
                    self.advance_phase_row(
                        i,
                        workload,
                        now_s + (dt - remaining) + time_to_boundary,
                    );
                }
            }
            remaining -= run;
        }
    }

    /// Move row `i` past the end of its current phase at time `at_s`:
    /// next phase, next body-loop iteration, or completion.
    fn advance_phase_row(&mut self, i: usize, workload: &WorkloadSpec, at_s: f64) {
        self.done_in_phase[i] = 0.0;
        let next = self.phase_idx[i] as usize + 1;
        if next < workload.phases.len() {
            self.phase_idx[i] = next as u32;
        } else if workload.loop_body {
            // Restart at the first body phase; init runs once.
            let first_body = workload
                .phases
                .iter()
                .position(|p| p.kind == PhaseKind::Body)
                .unwrap_or(0);
            self.phase_idx[i] = first_body as u32;
            self.loop_count[i] += 1;
        } else {
            self.finished[i] = true;
            if self.completed_at_s[i].is_nan() {
                self.completed_at_s[i] = at_s;
            }
        }
        self.sync_transitional(i, workload);
    }
}
