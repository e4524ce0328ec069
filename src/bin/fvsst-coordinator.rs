//! `fvsst-coordinator` — run the global power-budget coordinator on a
//! real TCP socket.
//!
//! ```text
//! fvsst-coordinator [--listen ADDR] [--nodes N] [--budget W] [--period S]
//!                   [--heartbeat S] [--deadline S] [--drop W@T]
//!                   [--run S] [--telemetry FILE] [--obs-addr ADDR]
//!                   [--snapshot FILE] [--snapshot-every S] [--resume]
//!                   [--grace S] [--chaos PLAN] [--chaos-seed N]
//!                   [--max-conns N]
//! ```
//!
//! Listens for `fvsst-node` agents, runs the paper's global scheduling
//! pass every `--period` seconds over whatever summaries arrived, and
//! pushes per-node frequency ceilings back down the same sockets. Nodes
//! that go silent past `--heartbeat` are charged at the worst-case node
//! power and sent blind f_min commands — the conservative accounting of
//! §6 of the paper. `--drop W@T` lowers the budget to `W` watts `T`
//! seconds into the run, so a budget-drop drill can be scripted from the
//! command line; `--telemetry FILE` journals every scheduling event
//! (rounds, deaths, compliance) as JSONL. `--run 0` serves forever.
//!
//! `--obs-addr ADDR` mounts the observability plane on a second
//! listener: `GET /metrics` (Prometheus-style exposition with quantile
//! estimates), `GET /healthz` (JSON health, `503` when degraded),
//! `GET /journal?n=K` (event tail as JSONL) and `GET /trace`
//! (chrome://tracing span export; `?fmt=flame` for text). The once-a-
//! second status line printed here renders the *same* status that
//! `/healthz` serves, read the same way — two consumers, one reading.
//!
//! Durability: `--snapshot FILE` persists checksummed crash-recovery
//! snapshots every `--snapshot-every` seconds (and write-ahead on every
//! budget change); `--resume` restores from that file, bumps the
//! fencing epoch, and charges every restored node its last-commanded
//! ceiling until fresh summaries arrive (`--grace` bounds how long
//! `/healthz` reports `resyncing`). `--chaos PLAN` injects wire faults
//! on every accepted socket — same grammar as the fault plans, e.g.
//! `wire=0.05,partition=2@5:9` — seeded by `--chaos-seed` for
//! deterministic drills.

use fvsst::net::args::parse_f64;
use fvsst::prelude::*;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    listen: String,
    nodes: usize,
    budget_w: f64,
    period_s: f64,
    heartbeat_s: f64,
    deadline_s: f64,
    drop: Option<(f64, f64)>, // (watts, at_seconds)
    run_s: f64,               // 0 = forever
    net: NetArgs,
}

fn usage() -> String {
    format!(
        "usage: fvsst-coordinator [--listen ADDR] [--nodes N] [--budget W] \
         [--period S] [--heartbeat S] [--deadline S] [--drop W@T] [--run S] {}",
        net_args().usage_fragment()
    )
}

/// The shared flag groups this binary supports.
fn net_args() -> NetArgs {
    NetArgs::new()
        .with_telemetry()
        .with_obs()
        .with_snapshots()
        .with_chaos()
        .with_max_conns()
}

fn parse_args(args: &[String]) -> Result<Args, FvsError> {
    let mut out = Args {
        listen: "127.0.0.1:4550".to_string(),
        nodes: 4,
        budget_w: f64::INFINITY,
        period_s: 0.1,
        heartbeat_s: 0.5,
        deadline_s: 1.0,
        drop: None,
        run_s: 0.0,
        net: net_args(),
    };
    let mut i = 0;
    while i < args.len() {
        if let Some(next) = out.net.accept(args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                out.listen = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| FvsError::config("--listen requires an address"))?;
            }
            "--nodes" => {
                i += 1;
                out.nodes = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| FvsError::config("--nodes requires an integer >= 1"))?;
            }
            "--budget" => {
                i += 1;
                out.budget_w = parse_f64("--budget", args.get(i))?;
            }
            "--period" => {
                i += 1;
                out.period_s = parse_f64("--period", args.get(i))?;
            }
            "--heartbeat" => {
                i += 1;
                out.heartbeat_s = parse_f64("--heartbeat", args.get(i))?;
            }
            "--deadline" => {
                i += 1;
                out.deadline_s = parse_f64("--deadline", args.get(i))?;
            }
            "--drop" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| FvsError::config("--drop requires W@T"))?;
                let (w, t) = spec
                    .split_once('@')
                    .ok_or_else(|| FvsError::config("--drop takes the form W@T, e.g. 1200@5"))?;
                out.drop = Some((
                    parse_f64("--drop watts", Some(&w.to_string()))?,
                    parse_f64("--drop time", Some(&t.to_string()))?,
                ));
            }
            "--run" => {
                i += 1;
                out.run_s = parse_f64("--run", args.get(i))?;
            }
            "--help" | "-h" => return Err(FvsError::config(usage())),
            other => {
                return Err(FvsError::config(format!(
                    "unknown argument '{other}'\n{}",
                    usage()
                )))
            }
        }
        i += 1;
    }
    Ok(out)
}

fn run(args: Args) -> Result<(), FvsError> {
    let mut config = CoordinatorConfig::default_lan()
        .with_period_s(args.period_s)
        .with_heartbeat_timeout_s(args.heartbeat_s)
        .with_deadline_s(args.deadline_s)
        .with_initial_budget_w(args.budget_w)
        .with_resync_grace_s(args.net.grace_s)
        .with_max_conns(args.net.max_conns)
        .with_telemetry(args.net.telemetry()?)
        .with_tracer(args.net.tracer())
        .with_chaos(args.net.wire_chaos(0)?);
    if let Some(path) = &args.net.snapshot_path {
        config = config.with_snapshots(path, args.net.snapshot_every_s);
    }
    if args.net.resume {
        config = config.with_resume(true);
    }
    let server = CoordinatorServer::bind(
        args.listen.as_str(),
        args.nodes,
        FvsstAlgorithm::p630(),
        config,
    )?;
    println!(
        "fvsst-coordinator listening on {} ({} node slots, budget {} W, period {} s, epoch {})",
        server.local_addr(),
        args.nodes,
        args.budget_w,
        args.period_s,
        server.epoch()
    );
    let obs = match &args.net.obs_addr {
        Some(addr) => {
            let obs = server.serve_obs(addr)?;
            println!(
                "observability on http://{} (/metrics /healthz /journal /trace)",
                obs.local_addr()
            );
            Some(obs)
        }
        None => None,
    };

    let start = Instant::now();
    let mut dropped = false;
    let mut last_print = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if let Some((watts, at_s)) = args.drop {
            if !dropped && elapsed >= at_s {
                println!("[{elapsed:7.2}s] budget drop -> {watts} W");
                server.set_budget(watts);
                dropped = true;
            }
        }
        if args.run_s > 0.0 && elapsed >= args.run_s {
            break;
        }
        if last_print.elapsed() >= Duration::from_secs(1) {
            // The status `/healthz` serves, rendered for the terminal —
            // the wire and the console cannot disagree.
            println!("{}", server.status_line());
            last_print = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(obs);
    let st = server.shutdown()?;
    println!(
        "final: rounds {} reporting {} dead {} power {:.0} W compliances {} violations {}",
        st.rounds,
        st.nodes_reporting,
        st.dead_nodes,
        st.conservative_power_w,
        st.compliances,
        st.violations
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fvsst-coordinator: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--drop W@T` takes what `--budget` takes in each half: a finite,
    /// non-negative number. A NaN budget would send every node to f_min
    /// while `/healthz` called it unlimited.
    #[test]
    fn drop_halves_are_finite_and_non_negative() {
        let parse_drop = |spec: &str| {
            let argv = ["--drop", spec].map(String::from);
            parse_args(&argv).map(|args| args.drop)
        };
        assert_eq!(parse_drop("1200@5").unwrap(), Some((1200.0, 5.0)));
        for bad in [
            "nan@5", "inf@5", "-1@5", "1200@nan", "1200@inf", "1200@-1", "x@5", "1200",
        ] {
            assert!(
                matches!(parse_drop(bad), Err(FvsError::Config(_))),
                "--drop {bad} was accepted"
            );
        }
    }
}
