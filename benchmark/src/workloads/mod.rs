//! The five workloads. Each is a function from a seed and a size to one
//! *pass*: set-up with the clock stopped, a timed stretch, the checks on
//! what the product produced, and one statistic per metric.

pub mod coord;
pub mod smp;
pub mod wire;

use crate::spans::Recorder;
use crate::stats::{median, percentile, quietest_window, sorted, supported_tail, WINDOW};
use std::time::{Duration, Instant};

/// The workloads, in the order a pass interleaves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmpPhases,
    CoordSteady,
    CoordChurn,
    WireSteps,
    WireBurst,
}

pub const ALL: [Workload; 5] = [
    Workload::SmpPhases,
    Workload::CoordSteady,
    Workload::CoordChurn,
    Workload::WireSteps,
    Workload::WireBurst,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmpPhases => "smp_phases",
            Workload::CoordSteady => "coord_steady",
            Workload::CoordChurn => "coord_churn",
            Workload::WireSteps => "wire_steps",
            Workload::WireBurst => "wire_burst",
        }
    }

    /// What one operation is, for `ops_attempted` / `ops_failed`.
    pub fn op(self) -> &'static str {
        match self {
            Workload::SmpPhases => "ticks",
            Workload::CoordSteady | Workload::CoordChurn => "rounds",
            Workload::WireSteps => "node-steps",
            Workload::WireBurst => "frames",
        }
    }
}

/// The size a whole run has: what `--workload` names. The driver wants
/// every end-to-end metric from every run, so its unit of choice is not
/// one of the five workloads above but the size all five run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSize {
    Full,
    Half,
    Quarter,
}

impl RunSize {
    pub const ALL: [RunSize; 3] = [RunSize::Full, RunSize::Half, RunSize::Quarter];
    /// The sizes `BENCHMARK.json` lists as the driver's workloads. Not
    /// `Full`: its `coord_churn` round, 50 MB of working set, follows
    /// the host's memory system (13.3 to 19.7 ms for minutes at a time
    /// with the simulator unmoved), which no bound up to the contract's
    /// 25 % holds; see "Steadiness" in the README.
    pub const GATED: [RunSize; 2] = [RunSize::Half, RunSize::Quarter];

    pub fn name(self) -> &'static str {
        match self {
            RunSize::Full => "full_size",
            RunSize::Half => "half_size",
            RunSize::Quarter => "quarter_size",
        }
    }

    pub fn from_name(name: &str) -> Option<RunSize> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    pub fn scale(self) -> f64 {
        match self {
            RunSize::Full => 1.0,
            RunSize::Half => 0.5,
            RunSize::Quarter => 0.25,
        }
    }

    /// Why it is run (one line of `BENCHMARK.json` for the gated ones).
    pub fn why(self) -> &'static str {
        match self {
            RunSize::Full => "All five workloads (smp_phases, coord_steady, coord_churn, wire_steps, wire_burst) at ISSUE 11's sizes: 64 cores, 10 000 nodes x 4, 1 024 connections.",
            RunSize::Half => "All five workloads (smp_phases, coord_steady, coord_churn, wire_steps, wire_burst) at half ISSUE 11's sizes: 32 cores, 5 000 nodes x 4 processors, 512 connections.",
            RunSize::Quarter => "The same five at 16 cores, 2 500 nodes, 256 connections: a cost that grows faster than the cluster, or a gain that only shows at scale, reads differently here.",
        }
    }
}

/// How big one pass of a workload is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Input size as a share of the size ISSUE 11 fixes (64 cores,
    /// 10 000 nodes, 1 024 connections): 1, 1/2, 1/4, or 1/10 under `--quick`.
    pub scale: f64,
    /// Wall time the timed stretch of the pass takes. The simulated
    /// length of `smp_phases` is derived from it with a fixed nominal
    /// cost (its simulated outcome must not depend on the host); the
    /// other workloads run operations until it is up, so a slow host
    /// gets fewer samples, not a longer run.
    pub seconds: f64,
}

impl Size {
    pub fn nodes(&self) -> usize {
        ((10_000.0 * self.scale).round() as usize).max(64)
    }

    pub fn conns(&self) -> usize {
        ((1_024.0 * self.scale).round() as usize).max(16)
    }

    /// Whole groups of eight: seven graded mixes and one idle core.
    pub fn cores(&self) -> usize {
        (((64.0 * self.scale) / 8.0).round() as usize).max(1) * 8
    }
}

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall from the start of the pass to its first timed operation.
    pub setup_s: f64,
    /// One statistic per metric this pass measured.
    pub values: Vec<(&'static str, f64)>,
    /// Simulated outcomes: deterministic for a seed, so they must repeat
    /// bit for bit in every pass of a run, traced or not.
    pub exact: Vec<(&'static str, f64)>,
    /// Sample counts and the like, printed beside a metric.
    pub notes: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of the inputs generated for the pass.
    pub digest: u64,
    /// Correctness checks that failed.
    pub check_failures: Vec<String>,
    /// The watchdog cut the pass short.
    pub timed_out: bool,
}

impl Pass {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// No check failed, no operation failed, the watchdog stayed quiet.
    pub fn ok(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0 && !self.timed_out
    }

    /// One line on why the pass is not `ok`.
    pub fn failure_summary(&self) -> String {
        let mut parts = self.check_failures.clone();
        if self.failed > 0 {
            parts.push(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        if self.timed_out {
            parts.push("the watchdog cut it short".into());
        }
        parts.join("; ")
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Under `p50` the quietest window of `samples` (times of
    /// consecutive operations of one kind); under `tail` the highest
    /// percentile of all of them that the count supports (none below 100
    /// samples). The notes carry the counts and the median of them all.
    pub fn set_quietest_and_tail(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        samples: &[f64],
    ) {
        let s = sorted(samples);
        self.set(p50, quietest_window(samples));
        self.notes.push((
            p50,
            format!(
                "quietest {WINDOW} in a row of n={}; p50 of all {:.4}",
                s.len(),
                percentile(&s, 0.5)
            ),
        ));
        match supported_tail(&s) {
            Some((label, value)) => {
                self.set(tail, value);
                self.notes.push((tail, format!("{label}, n={}", s.len())));
            }
            None => {
                self.set(tail, s.last().copied().unwrap_or(f64::NAN));
                self.notes.push((tail, format!("max, n={}", s.len())));
            }
        }
    }

    /// Median of a recorder's self times for `span`, divided by `per`.
    pub fn set_self_median(&mut self, name: &'static str, rec: &Recorder, span: &str, per: f64) {
        self.set(name, median(&mut rec.self_ns_of(span)) / per);
    }
}

/// The wall-clock limit every pass runs under: three times its expected
/// length. A pass that reaches it stops, counts what it had not done as
/// failed operations, and the run goes on to exit non-zero.
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    deadline: Instant,
}

impl Watchdog {
    pub fn for_pass(expected_s: f64) -> Self {
        Watchdog {
            deadline: Instant::now() + Duration::from_secs_f64(3.0 * expected_s.max(1.0)),
        }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }
}

/// Median time of `f` over `reps` calls, in nanoseconds per call of the
/// `batch` it runs.
pub fn time_median_ns(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut samples)
}
