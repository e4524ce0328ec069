//! `fvsst-node` — run one simulated node's measurement agent against a
//! coordinator socket.
//!
//! ```text
//! fvsst-node [--connect ADDR] [--node ID] [--workload cpu|mixed|mem]
//!            [--tick S] [--summary-every N] [--run S] [--timed]
//!            [--obs-addr ADDR] [--chaos PLAN] [--chaos-seed N]
//! ```
//!
//! Drives the paper's 4-way P630-like machine under a synthetic
//! workload, ships a `NodeSummary` upstream every `--summary-every`
//! ticks, and applies whatever frequency ceilings the coordinator sends
//! back. Until the first ceiling, and whenever the link drops, every
//! core runs at `f_min`; the agent climbs an exponential backoff ladder
//! until the coordinator returns, the machine mute but not stopped.
//! `--run 0` runs until killed. A coordinator that
//! refuses the hello (another schema version, or a `--node` outside its
//! `--nodes`) ends the node with an error.
//!
//! `--timed` switches to wall-clock real-time pacing: each `--tick`
//! seconds of simulation takes that many wall seconds, so the node can
//! stand in for live hardware on the paper's real `t = 10 ms` sampling
//! cadence during long coordinator soaks.
//!
//! `--obs-addr ADDR` mounts the node-side observability plane:
//! `GET /healthz` serves the agent's own counters — `status` (`ok`, or
//! `degraded` and a 503 while not connected to the coordinator),
//! `connected`, `summaries_sent`, `ceilings_applied`, `reconnects`,
//! `epochs_fenced` and `power_w` — and `GET /trace` serves the agent's
//! `node.apply` spans, one per ceiling actuated.
//!
//! `--chaos PLAN` wraps the agent's socket in deterministic wire-fault
//! injection (same grammar as the coordinator's flag, e.g.
//! `wire=0.05,delay=0.1`), seeded by `--chaos-seed` mixed with the node
//! id so a fleet launched from one script still diverges per node.

use fvsst::prelude::*;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    connect: String,
    node: usize,
    workload: String,
    tick_s: f64,
    summary_every: u32,
    run_s: f64, // 0 = forever
    timed: bool,
    net: NetArgs,
}

fn usage() -> String {
    format!(
        "usage: fvsst-node [--connect ADDR] [--node ID] \
         [--workload cpu|mixed|mem] [--tick S] [--summary-every N] [--run S] \
         [--timed] {}",
        net_args().usage_fragment()
    )
}

/// The shared flag groups this binary supports.
fn net_args() -> NetArgs {
    NetArgs::new().with_obs().with_chaos()
}

fn parse_args(args: &[String]) -> Result<Args, FvsError> {
    let mut out = Args {
        connect: "127.0.0.1:4550".to_string(),
        node: 0,
        workload: "mixed".to_string(),
        tick_s: 0.01,
        summary_every: 10,
        run_s: 0.0,
        timed: false,
        net: net_args(),
    };
    let mut i = 0;
    while i < args.len() {
        if let Some(next) = out.net.accept(args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--connect" => {
                i += 1;
                out.connect = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| FvsError::config("--connect requires an address"))?;
            }
            "--node" => {
                i += 1;
                out.node = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| FvsError::config("--node requires an integer id"))?;
            }
            "--workload" => {
                i += 1;
                let w = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| FvsError::config("--workload requires cpu, mixed or mem"))?;
                if !matches!(w.as_str(), "cpu" | "mixed" | "mem") {
                    return Err(FvsError::config(format!(
                        "unknown workload '{w}' (expected cpu, mixed or mem)"
                    )));
                }
                out.workload = w;
            }
            "--tick" => {
                i += 1;
                out.tick_s = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| FvsError::config("--tick requires a positive number"))?;
            }
            "--summary-every" => {
                i += 1;
                out.summary_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| FvsError::config("--summary-every requires an integer >= 1"))?;
            }
            "--run" => {
                i += 1;
                out.run_s = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| FvsError::config("--run requires a non-negative number"))?;
            }
            "--timed" => out.timed = true,
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

/// Build the paper's 4-way machine under the requested workload mix.
fn build_node(id: usize, workload: &str) -> ClusterNode {
    let intensities: [f64; 4] = match workload {
        "cpu" => [100.0, 100.0, 100.0, 100.0],
        "mem" => [25.0, 25.0, 25.0, 25.0],
        _ => [100.0, 75.0, 50.0, 25.0],
    };
    let mut b = MachineBuilder::p630();
    for (core, intensity) in intensities.iter().enumerate() {
        b = b.workload(core, WorkloadSpec::synthetic(*intensity, 1.0e18));
    }
    ClusterNode::new(id, b.build(), None)
}

fn run(args: Args) -> Result<(), FvsError> {
    let node = build_node(args.node, &args.workload);
    let tracer = args.net.tracer();
    // Mix the node id into the chaos seed so a fleet sharing one
    // --chaos-seed still draws distinct fault sequences per node.
    let chaos = args
        .net
        .wire_chaos((args.node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))?;
    let mut config = AgentConfig::default_lan()
        .with_tick_s(args.tick_s)
        .with_summary_every(args.summary_every)
        .with_jitter_seed(args.net.chaos_seed)
        .with_chaos(chaos)
        .with_tracer(tracer.clone());
    if args.timed {
        // Real time: a tick takes as long on the wall as it simulates.
        config.pace = Duration::from_secs_f64(args.tick_s);
    }
    println!(
        "fvsst-node {} ({} workload) -> {}",
        args.node, args.workload, args.connect
    );
    // A fleet of one.
    let agent = AgentFleet::launch(vec![node], args.connect.as_str(), config, Duration::ZERO)?;

    let start = Instant::now();
    let obs = match &args.net.obs_addr {
        Some(addr) => {
            // Node-side health: the fleet's own counters; degraded
            // simply means "not connected to the coordinator right now".
            let stats = agent.stats();
            let obs = ObsServer::bind(
                addr,
                ObsHandles {
                    registry: None,
                    journal: Telemetry::disabled(),
                    tracer,
                    health: Some(std::sync::Arc::new(move || {
                        let connected = stats.connected();
                        let body = format!(
                            "{{\"status\":\"{}\",\"connected\":{connected},\
                             \"summaries_sent\":{},\"ceilings_applied\":{},\
                             \"reconnects\":{},\"epochs_fenced\":{},\"power_w\":{}}}",
                            if connected > 0 { "ok" } else { "degraded" },
                            stats.summaries_sent(),
                            stats.ceilings_applied(),
                            stats.reconnects(),
                            stats.epochs_fenced(),
                            stats.power_w(),
                        );
                        (connected > 0, body)
                    })),
                },
            )?;
            println!(
                "observability on http://{} (/healthz /trace)",
                obs.local_addr()
            );
            Some(obs)
        }
        None => None,
    };
    loop {
        if agent.is_finished() {
            // A refused hello is the one self-terminating path.
            break;
        }
        if args.run_s > 0.0 && start.elapsed().as_secs_f64() >= args.run_s {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(obs);
    let stats = agent.stop();
    println!(
        "node {}: {} summaries, {} ceilings applied, {} reconnects, {} epoch fences, \
         final power {:.1} W",
        args.node,
        stats.summaries_sent(),
        stats.ceilings_applied(),
        stats.reconnects(),
        stats.epochs_fenced(),
        stats.power_w()
    );
    if stats.version_rejects() > 0 {
        return Err(FvsError::wire(
            "coordinator refused the hello: another schema version, \
             or a node id outside its cluster"
                .to_string(),
        ));
    }
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
            eprintln!("fvsst-node: {e}");
            ExitCode::FAILURE
        }
    }
}
