//! `fvsst-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! fvsst-exp <experiment>... [--fast] [--seed N] [--json DIR] [--telemetry DIR] [--jobs N] [--faults PLAN]
//! fvsst-exp all [--fast]
//! fvsst-exp list
//! ```
//!
//! Experiments run in parallel (one rayon task each; `--jobs N` caps the
//! worker count, `--jobs 1` forces sequential execution). Reports are
//! printed in the order the experiments were requested, regardless of
//! completion order, each with its wall time; a total harness wall time
//! closes the run. `--json DIR` additionally writes
//! `<DIR>/<experiment>.json` with the structured result, and
//! `--telemetry DIR` writes `<DIR>/<experiment>.telemetry.jsonl`
//! scheduling traces for the instrumented experiments (fig9, cluster,
//! chaos). `--faults PLAN` sets the fault plan for the chaos experiment
//! (`none`, `chaos`, or `counters=R,actuation=R,wire=R,wdup=R,delay=R:S,`
//! `drop=F@T,node=I@DOWN:UP`); injectors are seeded from `--seed`, so a
//! chaos run replays from its command line. Every artifact written is
//! listed on stdout when the run succeeds.
//!
//! Experiments: table1 fig1 table2 fig4 fig5 fig6 fig7 table3 fig8 fig9
//! example5 ablation predictors migration cluster chaos.

use fvs_harness::experiments::{run_by_name, ALL_EXPERIMENTS};
use fvs_harness::runs::RunSettings;
use rayon::prelude::*;
use std::process::ExitCode;
use std::time::Instant;

enum Outcome {
    /// Rendered report + wall seconds.
    Report(String, f64),
    Unknown,
    Empty,
    JsonError(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut settings = RunSettings::full();
    let mut targets: Vec<String> = Vec::new();
    let mut json_dir: Option<std::path::PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => settings.fast = true,
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => json_dir = Some(dir.into()),
                    None => {
                        eprintln!("--json requires a directory");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--telemetry" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => settings.telemetry_dir = Some(dir.clone()),
                    None => {
                        eprintln!("--telemetry requires a directory");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(seed) => settings.seed = seed,
                    None => {
                        eprintln!("--seed requires an integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--faults" => {
                i += 1;
                match args.get(i) {
                    // Validate eagerly so a typo fails the run instead of
                    // silently degrading to the chaos preset mid-flight.
                    Some(spec) => match fvs_faults::FaultPlan::parse(spec) {
                        Ok(_) => settings.faults = Some(spec.clone()),
                        Err(e) => {
                            eprintln!("bad --faults spec: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("--faults requires a plan spec (try 'chaos' or 'none')");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs requires an integer >= 1");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "list" => {
                for e in ALL_EXPERIMENTS {
                    println!("{e}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => targets.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        eprintln!(
            "usage: fvsst-exp <experiment>... [--fast] [--seed N] [--json DIR] [--telemetry DIR] [--jobs N] [--faults PLAN]\n       fvsst-exp all | list\nexperiments: {}",
            ALL_EXPERIMENTS.join(" ")
        );
        return ExitCode::FAILURE;
    }
    if let Some(n) = jobs {
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
    // Create the output directories once, up front, instead of racing
    // per-experiment create_dir_all calls.
    for dir in json_dir
        .iter()
        .cloned()
        .chain(settings.telemetry_dir.iter().map(std::path::PathBuf::from))
    {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let total_timer = Instant::now();
    // One rayon task per experiment; collect preserves request order, so
    // the rendered output is deterministic however the tasks interleave.
    let outcomes: Vec<Outcome> = targets
        .par_iter()
        .map(|t| {
            let timer = Instant::now();
            let outcome = match &json_dir {
                Some(dir) => match fvs_harness::export::run_and_write_json(t, &settings, dir) {
                    Ok(rendered) => Some(rendered),
                    // An unknown id is a validation error; everything
                    // else (serialization, filesystem) is a JSON failure.
                    Err(e) if e.category() == "validation" => None,
                    Err(e) => return Outcome::JsonError(e.to_string()),
                },
                None => run_by_name(t, &settings),
            };
            match outcome {
                Some(report) if report.trim().is_empty() => Outcome::Empty,
                Some(report) => Outcome::Report(report, timer.elapsed().as_secs_f64()),
                None => Outcome::Unknown,
            }
        })
        .collect();
    let total_s = total_timer.elapsed().as_secs_f64();

    let mut failed = false;
    for (t, outcome) in targets.iter().zip(&outcomes) {
        match outcome {
            Outcome::Report(report, secs) => {
                println!("{report}");
                println!("[{t}: {secs:.2}s]");
                // List the artifacts this experiment actually produced,
                // so scripted callers don't have to reconstruct paths.
                if let Some(dir) = &json_dir {
                    let json = dir.join(format!("{t}.json"));
                    if json.is_file() {
                        println!("[{t}: wrote {}]", json.display());
                    }
                }
                if let Some(trace) = settings.telemetry_path(t) {
                    if trace.is_file() {
                        println!("[{t}: wrote {}]", trace.display());
                    }
                }
                println!();
            }
            Outcome::Unknown => {
                eprintln!("unknown experiment '{t}' (try: fvsst-exp list)");
                failed = true;
            }
            Outcome::Empty => {
                eprintln!("experiment '{t}' produced an empty report");
                failed = true;
            }
            Outcome::JsonError(e) => {
                eprintln!("failed to write JSON for '{t}': {e}");
                failed = true;
            }
        }
    }
    println!("[{} experiment(s) in {total_s:.2}s wall]", targets.len());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
