//! The repository benchmark.
//!
//! `run` drives five workloads through the public functions of the
//! crates, prints every metric by name with its unit, checks what the
//! product produced, writes `out/result.json` and exits non-zero on any
//! failed check. Every run drives all five, at the size `--workload`
//! names. `compare` applies each metric's bound to two result
//! files. `manifest` prints `BENCHMARK.json`. See `README.md`.

mod affinity;
mod compare;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{Outcome, RunInfo};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{coord, smp, wire, Pass, RunSize, Size, Watchdog, Workload, ALL};

/// Share of `--seconds` the timed stretches of each workload get, in the
/// order of `ALL`. The wire workloads need wall time, not processor
/// time: a drop step can only come three times a second and a burst once
/// a coordinator round, so they get the most.
const SHARE: [f64; 5] = [0.08, 0.12, 0.12, 0.45, 0.23];
/// Input scale under `--quick`.
const QUICK_SCALE: f64 = 0.10;
/// Times a pass is run before a failure in it fails the run, and how
/// many repeats a whole run may spend. What the wire workloads check is
/// partly *when* things happen (no node presumed dead, no ΔT violation,
/// a fan-out every period); on a shared host a stall of a second breaks
/// that without the product being wrong. A pass that failed is therefore
/// measured again, said so on standard error and in `result.json`; a
/// failure that repeats is the product's and fails the run.
const ATTEMPTS: usize = 3;
const REPEATS_PER_RUN: usize = 4;
/// Spans the traced pass of a workload may record.
const SPAN_CAPACITY: usize = 1_000_000;

const USAGE: &str = "usage:
  fvs-benchmark run [--workload full_size|half_size|quarter_size] [--seed <n>]
                    [--seconds <s>] [--trace [0|1]] [--passes <n>] [--quick] [--out <dir>]
  fvs-benchmark compare <a/result.json> <b/result.json>
  fvs-benchmark manifest
  fvs-benchmark flood [<connections> [<seconds>]]

run: every run drives all five workloads (smp_phases, coord_steady, coord_churn,
wire_steps, wire_burst); --workload names the size they run at: full_size (64 cores,
10 000 nodes, 1 024 connections; the default), half_size or quarter_size.
--trace 0 measures end-to-end metrics only, --trace 1 (or --trace) per-layer metrics
only, neither flag both. --quick is one pass at one-tenth size for a smoke job.
flood: reproduces the unbounded-ingest finding recorded in README.md.";

#[derive(Debug)]
struct RunArgs {
    size: RunSize,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: untraced passes, then a traced one.
    trace: Option<bool>,
    passes: Option<usize>,
    quick: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        size: RunSize::Full,
        seed: 3845,
        seconds: None,
        trace: None,
        passes: None,
        quick: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a size")?;
                run.size = RunSize::from_name(&name).ok_or(format!("unknown size `{name}`"))?;
            }
            "--seed" => {
                run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                run.seconds = Some(s);
            }
            "--passes" => {
                run.passes = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--passes: {e}"))?,
                )
            }
            "--trace" => {
                run.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            "--quick" => run.quick = true,
            "--out" => run.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if run.passes.is_some_and(|p| p < 3) && !run.quick {
        return Err(
            "--passes must be at least 3: a run looks for a quiet stretch of the host in each"
                .into(),
        );
    }
    Ok(run)
}

/// How a run spends its time: how many untraced passes, whether a traced
/// one follows, and the size of one pass of each workload.
#[derive(Debug)]
struct Plan {
    untraced: usize,
    traced: bool,
    sizes: [Size; 5],
}

fn plan(args: &RunArgs) -> Plan {
    let (untraced, traced) = match (args.quick, args.trace) {
        (true, _) => (1, args.trace != Some(false)),
        // A traced run still needs one untraced pass: tracing overhead
        // is the difference between the two.
        (false, Some(true)) => (1, true),
        (false, trace) => (args.passes.unwrap_or(5), trace.is_none()),
    };
    let passes = (untraced + usize::from(traced)) as f64;
    let seconds = args.seconds.unwrap_or(if args.quick { 5.0 } else { 75.0 });
    let scale = if args.quick {
        QUICK_SCALE
    } else {
        args.size.scale()
    };
    let sizes = SHARE.map(|share| Size {
        scale,
        seconds: seconds * share / passes,
    });
    Plan {
        untraced,
        traced,
        sizes,
    }
}

fn run_pass(workload: Workload, seed: u64, size: &Size, rec: &mut Recorder) -> Pass {
    // Set-up is not in `size.seconds`; allow for a few seconds of it.
    let dog = Watchdog::for_pass(size.seconds + 3.0);
    let started = std::time::Instant::now();
    let pass = match workload {
        Workload::SmpPhases => smp::pass(seed, size, rec, &dog),
        Workload::CoordSteady => coord::steady(seed, size, rec, &dog),
        Workload::CoordChurn => coord::churn(seed, size, rec, &dog),
        Workload::WireSteps => wire::steps(seed, size, rec, &dog),
        Workload::WireBurst => wire::burst(seed, size, rec, &dog),
    };
    eprintln!(
        "  {:<13} scale {:<5} planned {:>6.2} s, took {:>6.2} s of which set-up {:>5.2} s{}",
        workload.name(),
        size.scale,
        size.seconds,
        started.elapsed().as_secs_f64(),
        pass.setup_s,
        if rec.enabled() { " (traced)" } else { "" }
    );
    pass
}

/// Passes that were measured again, and why (see `ATTEMPTS`).
#[derive(Debug, Default)]
struct Repeats {
    left: usize,
    reasons: [Vec<String>; 5],
}

/// `run_pass`, again while the pass fails and repeats are left. The
/// recorder is cleared before each attempt.
fn run_pass_repeating(
    i: usize,
    seed: u64,
    size: &Size,
    rec: &mut Recorder,
    repeats: &mut Repeats,
) -> Pass {
    for attempt in 1.. {
        rec.clear();
        let pass = run_pass(ALL[i], seed, size, rec);
        if pass.ok() || attempt == ATTEMPTS || repeats.left == 0 {
            return pass;
        }
        repeats.left -= 1;
        let why = pass.failure_summary();
        eprintln!(
            "  {} pass failed ({why}); measuring it again",
            ALL[i].name()
        );
        repeats.reasons[i].push(why);
    }
    unreachable!("the loop returns")
}

fn run(args: RunArgs) -> ExitCode {
    let plan = plan(&args);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        eprintln!(
            "warning: the wire workloads keep two threads busy (generator + fvs-coordinator) and this host has {nproc}; their timings will not compare"
        );
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let jiffies = report::cpu_jiffies();
    // Passes interleave the workloads (A1 B1 C1 D1 E1 A2 …): host
    // contention arrives in bursts that slow one whole pass.
    let mut repeats = Repeats {
        left: REPEATS_PER_RUN,
        ..Repeats::default()
    };
    let mut untraced: [Vec<Pass>; 5] = Default::default();
    for pass in 0..plan.untraced {
        eprintln!("pass {}/{}", pass + 1, plan.untraced);
        for (i, passes) in untraced.iter_mut().enumerate() {
            passes.push(run_pass_repeating(
                i,
                args.seed,
                &plan.sizes[i],
                &mut Recorder::off(),
                &mut repeats,
            ));
        }
    }
    let mut traced: [Option<Pass>; 5] = Default::default();
    if plan.traced {
        for (i, w) in ALL.into_iter().enumerate() {
            let mut rec = Recorder::with_capacity(SPAN_CAPACITY);
            let mut pass = run_pass_repeating(i, args.seed, &plan.sizes[i], &mut rec, &mut repeats);
            if let Err(e) = rec.check_self_times() {
                pass.check_failures.push(format!("trace: {e}"));
            }
            pass.check(rec.dropped() == 0, || {
                format!("trace: {} spans did not fit the recorder", rec.dropped())
            });
            let path = args.out.join(format!("trace-{}.json", w.name()));
            if let Err(e) = std::fs::write(&path, rec.chrome_json()) {
                pass.check_failures
                    .push(format!("writing {}: {e}", path.display()));
            }
            pass.notes.push(("spans", rec.spans().len().to_string()));
            traced[i] = Some(pass);
        }
    }

    let info = RunInfo {
        seed: args.seed,
        size: args.size,
        quick: args.quick,
        seconds: plan.sizes.iter().map(|s| s.seconds).sum::<f64>()
            * (plan.untraced + usize::from(plan.traced)) as f64,
        sizes: plan.sizes,
        nproc,
        steal_share: jiffies
            .zip(report::cpu_jiffies())
            .map(|((all0, steal0), (all1, steal1))| (steal1 - steal0) / (all1 - all0).max(1.0)),
    };
    let outcome = Outcome::from_passes(info, &untraced, &traced, repeats.reasons);
    print!("{}", outcome.table());
    let path = args.out.join("result.json");
    if let Err(e) = std::fs::write(&path, outcome.result_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    // The last line of standard output is the driver's: end-to-end
    // metrics from the untraced passes, or per-layer ones from the
    // traced pass.
    println!("{}", outcome.driver_line(args.trace == Some(true)));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run_args) => run(run_args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("flood") => {
            let conns = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
            let seconds = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3.0);
            print!("{}", wire::flood(conns, seconds));
            ExitCode::SUCCESS
        }
        Some("manifest") => {
            println!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
