//! `fvsst-hier-drill` — a fixed-seed, wall-clock-bounded drill of the
//! budget-delegation tree at datacenter scale.
//!
//! ```text
//! fvsst-hier-drill [--nodes N] [--rounds R] [--seed S] [--max-wall-s S]
//!                  [--obs-addr ADDR] [--trace-out FILE]
//! ```
//!
//! Builds a delegation tree over `--nodes` simulated nodes (default
//! 10 000: 313 racks of 32 in 10 rows), feeds it deterministic
//! summaries, and runs `--rounds` scheduling rounds through a scripted
//! gauntlet:
//!
//! - steady state with a handful of drifting nodes (raw counters
//!   jitter, decisions don't — clean subtrees must skip),
//! - a root budget drop at one-third of the run (every rack must
//!   receive a new sub-budget that round),
//! - a dead rack coordinator at two-thirds (its last commanded ceiling
//!   is charged and the survivors squeezed; it recovers five rounds
//!   later).
//!
//! Prints a single JSON object on stdout for CI to `jq` and exits
//! non-zero if the tree ever over-commits a feasible budget, stalls,
//! fails to charge the dead rack, skips less than half its rack
//! refreshes, or blows the `--max-wall-s` bound.
//!
//! `--obs-addr ADDR` mounts `/metrics` (the `hier.*` tier histograms
//! and the `subtree_cache_hit_ratio` gauge), `/healthz` and `/trace`
//! on the drill while it runs. `--trace-out FILE` writes the span ring
//! as chrome://tracing JSON at exit — each round is one `drill.round`
//! root whose children run the causal chain root budget decision →
//! tier phases → per-rack refresh → two-pass schedule → `node.apply`.

use fvsst::model::{CpiModel, FreqMhz};
use fvsst::prelude::*;
use fvsst::sched::FvsstAlgorithm;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    nodes: usize,
    rounds: u64,
    seed: u64,
    max_wall_s: f64,
    trace_out: Option<String>,
    net: NetArgs,
}

fn usage() -> String {
    format!(
        "usage: fvsst-hier-drill [--nodes N] [--rounds R] [--seed S] \
         [--max-wall-s S] [--trace-out FILE] {}",
        net_args().usage_fragment()
    )
}

/// The shared flag groups this binary supports.
fn net_args() -> NetArgs {
    NetArgs::new().with_obs()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        nodes: 10_000,
        rounds: 50,
        seed: 3845,
        max_wall_s: 60.0,
        trace_out: None,
        net: net_args(),
    };
    let mut i = 0;
    while i < args.len() {
        match out.net.accept(args, i) {
            Ok(Some(next)) => {
                i = next;
                continue;
            }
            Ok(None) => {}
            Err(e) => return Err(e.to_string()),
        }
        let key = args[i].as_str();
        i += 1;
        let val = args.get(i).ok_or_else(|| format!("{key} needs a value"))?;
        match key {
            "--nodes" => out.nodes = val.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--rounds" => out.rounds = val.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--seed" => out.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--max-wall-s" => {
                out.max_wall_s = val.parse().map_err(|e| format!("--max-wall-s: {e}"))?
            }
            "--trace-out" => out.trace_out = Some(val.clone()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
        i += 1;
    }
    if out.nodes == 0 || out.rounds == 0 {
        return Err("--nodes and --rounds must be positive".to_string());
    }
    Ok(out)
}

const PROCS_PER_NODE: usize = 4;
const DRIFTERS: usize = 4;
const DT_S: f64 = 0.1;

/// Deterministic node summary: five model classes spread by node and
/// seed; drifters jitter one processor's memory time by 1 ps each odd
/// round (past the cache quantum, far below any decision boundary).
fn summary(node: usize, at: f64, seed: u64, jitter: bool) -> NodeSummary {
    let mems: Vec<f64> = (0..PROCS_PER_NODE)
        .map(|p| {
            let class = (node as u64)
                .wrapping_mul(7)
                .wrapping_add(p as u64 * 3)
                .wrapping_add(seed)
                % 5;
            let base = class as f64 * 5.0e-9;
            if jitter && p == 0 {
                base + 1.0e-12
            } else {
                base
            }
        })
        .collect();
    NodeSummary {
        node,
        sent_at_s: at,
        models: mems
            .iter()
            .map(|m| Some(CpiModel::from_components(1.0, *m)))
            .collect(),
        idle: vec![false; PROCS_PER_NODE],
        current: vec![FreqMhz(1000); PROCS_PER_NODE],
        power_w: 140.0 * PROCS_PER_NODE as f64,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let total_procs = args.nodes * PROCS_PER_NODE;
    let budget_full_w = total_procs as f64 * 70.0;
    let budget_dropped_w = total_procs as f64 * 55.0;
    let drop_round = args.rounds / 3;
    let dead_round = 2 * args.rounds / 3;
    let revive_round = (dead_round + 5).min(args.rounds);
    let stride = (args.nodes / DRIFTERS).max(1);

    let observing = args.net.obs_addr.is_some() || args.trace_out.is_some();
    let telemetry = if observing {
        Telemetry::memory(1024)
    } else {
        Telemetry::disabled()
    };
    let tracer = if observing {
        // Room for every span of a full default drill: ~12 spans per
        // rack round across 313 racks times 50 rounds.
        Tracer::ring(1 << 18)
    } else {
        Tracer::disabled()
    };

    let timer = Instant::now();
    let mut tree = DelegationTree::with_telemetry(
        FvsstAlgorithm::p630(),
        args.nodes,
        HierTopology::default(),
        telemetry.clone(),
    )
    .with_heartbeat_timeout(f64::INFINITY)
    .with_tracer(tracer.clone());
    for node in 0..args.nodes {
        tree.ingest(summary(node, 0.0, args.seed, false));
    }

    // Live health while the drill runs, `(healthy, body)`: round
    // progress and budget compliance so far, rendered every round and
    // shared with the obs thread through a mutex.
    let health = std::sync::Arc::new(std::sync::Mutex::new((true, "{\"rounds\":0}".to_string())));
    let obs = match &args.net.obs_addr {
        Some(addr) => {
            let health = std::sync::Arc::clone(&health);
            let obs = ObsServer::bind(
                addr,
                ObsHandles {
                    registry: telemetry.registry().cloned(),
                    journal: telemetry.clone(),
                    tracer: tracer.clone(),
                    health: Some(std::sync::Arc::new(move || {
                        health.lock().expect("health poisoned").clone()
                    })),
                },
            )
            .map_err(|e| {
                eprintln!("fvsst-hier-drill: --obs-addr: {e}");
            })
            .ok();
            if obs.is_none() {
                return ExitCode::FAILURE;
            }
            obs
        }
        None => None,
    };
    eprintln!(
        "hier drill: {} nodes -> {} racks -> {} rows, {} rounds, seed {}",
        args.nodes,
        tree.num_racks(),
        tree.num_rows(),
        args.rounds,
        args.seed
    );

    let mut over_budget_rounds = 0u64;
    let mut infeasible_rounds = 0u64;
    let mut dead_rack_charged = false;
    let mut ceilings_commanded = 0u64;
    for round in 0..args.rounds {
        // One root span per round: the full causal chain — budget
        // decision, tier phases, rack refreshes, node actuation — hangs
        // off this parent in the chrome export.
        let round_span = tracer.span("drill.round");
        let now = round as f64 * DT_S;
        if round == dead_round {
            tree.set_rack_online(0, false);
        }
        if round == revive_round {
            tree.set_rack_online(0, true);
        }
        for d in 0..DRIFTERS {
            tree.ingest(summary(d * stride, now, args.seed, round % 2 == 1));
        }
        let budget_w = if round >= drop_round {
            budget_dropped_w
        } else {
            budget_full_w
        };
        let commands = tree.schedule(budget_w, now);
        {
            // The drill's stand-in for per-node actuation: apply means
            // "accept the ceiling", counted under its own span.
            let _apply = tracer.span("node.apply");
            ceilings_commanded += commands.len() as u64;
        }
        drop(round_span);
        if tree.feasible() {
            if tree.predicted_power_w() > budget_w + 1e-6 {
                over_budget_rounds += 1;
            }
        } else {
            infeasible_rounds += 1;
        }
        if !tree.rack_online(0) && tree.reserved_w() > 0.0 {
            dead_rack_charged = true;
        }
        let healthy = tree.rack_online(0) && over_budget_rounds == 0;
        let body = format!(
            "{{\"status\":\"{}\",\"rounds\":{},\"budget_w\":{budget_w},\
             \"predicted_power_w\":{},\"reserved_w\":{},\"rack_0_online\":{},\
             \"over_budget_rounds\":{over_budget_rounds}}}",
            if healthy { "ok" } else { "degraded" },
            tree.rounds(),
            tree.predicted_power_w(),
            tree.reserved_w(),
            tree.rack_online(0),
        );
        *health.lock().expect("health poisoned") = (healthy, body);
    }
    let wall_s = timer.elapsed().as_secs_f64();
    drop(obs);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, tracer.export_chrome_json()) {
            eprintln!("fvsst-hier-drill: --trace-out: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} spans ({} ceilings commanded) to {path}",
            tracer.spans_recorded(),
            ceilings_commanded
        );
    }

    let stats = tree.stats();
    let rack_rate = |runs: u64, skips: u64| {
        let total = runs + skips;
        if total == 0 {
            0.0
        } else {
            skips as f64 / total as f64
        }
    };
    let rack_skip_rate = rack_rate(stats.rack_runs, stats.rack_skips);
    let row_skip_rate = rack_rate(stats.row_merges, stats.row_skips);
    let root_skip_rate = rack_rate(stats.root_runs, stats.root_skips);
    let stalled = tree.rounds() != args.rounds;
    let wall_ok = wall_s <= args.max_wall_s;
    let ok = over_budget_rounds == 0
        && infeasible_rounds == 0
        && dead_rack_charged
        && !stalled
        && rack_skip_rate >= 0.5
        && wall_ok;

    println!(
        "{{\"nodes\": {}, \"racks\": {}, \"rows\": {}, \"rounds\": {}, \"seed\": {}, \
         \"wall_s\": {:.3}, \"rack_skip_rate\": {:.4}, \"row_skip_rate\": {:.4}, \
         \"root_skip_rate\": {:.4}, \"subbudget_changes\": {}, \"over_budget_rounds\": {}, \
         \"infeasible_rounds\": {}, \"dead_rack_charged\": {}, \"budget_compliant\": {}, \
         \"stalled\": {}, \"wall_within_bound\": {}, \"ok\": {}}}",
        args.nodes,
        tree.num_racks(),
        tree.num_rows(),
        tree.rounds(),
        args.seed,
        wall_s,
        rack_skip_rate,
        row_skip_rate,
        root_skip_rate,
        stats.subbudget_changes,
        over_budget_rounds,
        infeasible_rounds,
        dead_rack_charged,
        over_budget_rounds == 0 && infeasible_rounds == 0,
        stalled,
        wall_ok,
        ok
    );
    if !ok {
        eprintln!(
            "hier drill FAILED: over_budget={over_budget_rounds} infeasible={infeasible_rounds} \
             dead_rack_charged={dead_rack_charged} stalled={stalled} \
             rack_skip_rate={rack_skip_rate:.3} wall={wall_s:.2}s (bound {:.2}s)",
            args.max_wall_s
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "hier drill OK in {wall_s:.2}s wall ({:.1}% rack refreshes skipped)",
        rack_skip_rate * 100.0
    );
    ExitCode::SUCCESS
}
