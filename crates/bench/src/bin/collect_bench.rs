//! Collect criterion medians into `BENCH_scheduler.json`.
//!
//! Run after the scheduler micro-benchmarks:
//!
//! ```text
//! cargo bench -p fvs-bench --bench scheduler_micro
//! cargo bench -p fvs-bench --bench sim_tick
//! cargo run -p fvs-bench --bin collect_bench
//! ```
//!
//! Reads `target/criterion/<group>/<id>/estimates.json` for the
//! `schedule_two_pass`, `schedule_cached_steady` and
//! `schedule_reference` groups plus `cluster_tick` and the four
//! `sim_tick_*` groups, times the harness fast suite (every experiment,
//! run in parallel), and writes a flat summary (median ns/iter, the
//! naive/production speedup, the cache-hit speedup per size, and
//! core-tick throughput of the batched SoA simulator pass vs the scalar
//! reference, with the sampled and the scheduled tick beside it) to
//! `BENCH_scheduler.json` in the workspace root, stamped with the commit
//! and the core count it was recorded on. The production column keeps
//! its historical name, `heap_median_ns`; the file's `scenario` string
//! says what it times.
//!
//! `collect_bench --check` instead validates an existing
//! `BENCH_scheduler.json`: it must parse as JSON and carry the expected
//! shape. Exit status is non-zero on failure, so CI can gate on it
//! without having run the benchmarks.

use fvs_harness::experiments::{run_by_name, ALL_EXPERIMENTS};
use fvs_harness::runs::RunSettings;
use fvs_telemetry::RoundTimer;
use rayon::prelude::*;
use std::path::{Path, PathBuf};

const SIZES: &[usize] = &[4, 16, 64, 256, 1024];
const CLUSTER_SIZES: &[usize] = &[8, 32, 128, 512, 1024, 10_000, 100_000];
const SIM_CORES: &[usize] = &[4, 64, 256, 1024];
const HIER_SIZES: &[usize] = &[10_000, 100_000];

fn workspace_root() -> PathBuf {
    // The binary runs from anywhere inside the workspace; walk upward to
    // the directory holding the workspace Cargo.lock.
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            eprintln!("workspace root with Cargo.lock not found — run from inside the workspace");
            std::process::exit(1);
        }
    }
}

fn median_ns(criterion_dir: &Path, group: &str, id: &str) -> Option<f64> {
    let path = criterion_dir.join(group).join(id).join("estimates.json");
    let text = std::fs::read_to_string(path).ok()?;
    let v = serde_json::from_str(&text).ok()?;
    v.get("median")?.get("point_estimate")?.as_f64()
}

/// One row of the per-size table.
struct SizeEntry {
    n: usize,
    heap: f64,
    naive: Option<f64>,
    speedup: Option<f64>,
    cached: Option<f64>,
    cache_speedup: Option<f64>,
}

/// One row of the simulator core-tick throughput table.
struct SimEntry {
    cores: usize,
    batched: f64,
    /// Core-ticks per wall second through the batched pass.
    throughput: f64,
    /// The every-tick-sampled loop (`step` + `sample_all_into`) — the
    /// simulator's share of a scheduled tick, with no window deferral.
    sampled: Option<f64>,
    /// The whole scheduled tick (`ScheduledSimulation::step_tick`, noise
    /// on, cycling budget): what the repo benchmark's
    /// `sim_core_ticks_per_s` times.
    scheduled: Option<f64>,
    scalar: Option<f64>,
    speedup: Option<f64>,
}

/// One row of the steady-state hierarchy-vs-flat table: median ns of a
/// round in which only the drifters re-ingest, and of one in which
/// every node does (`reingest_all`).
struct HierEntry {
    nodes: usize,
    flat: f64,
    hier: f64,
    speedup: f64,
    flat_reingest: f64,
    hier_reingest: f64,
}

/// Validate an existing `BENCH_scheduler.json`: parseable, and shaped
/// the way the README/DESIGN tables and downstream tooling expect.
fn check(root: &Path) -> i32 {
    let path = root.join("BENCH_scheduler.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let v: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{} is not valid JSON: {e}", path.display());
            return 1;
        }
    };
    let mut errors = Vec::new();
    for field in ["benchmark", "scenario", "commit"] {
        if v.get(field).and_then(|b| b.as_str()).is_none() {
            errors.push(format!("missing string field '{field}'"));
        }
    }
    if v.get("nproc").and_then(|n| n.as_u64()).is_none() {
        errors.push("missing integer field 'nproc'".to_string());
    }
    match v.get("sizes").and_then(|s| s.as_array()) {
        None => errors.push("missing array field 'sizes'".to_string()),
        Some(sizes) if sizes.is_empty() => errors.push("'sizes' is empty".to_string()),
        Some(sizes) => {
            for (i, row) in sizes.iter().enumerate() {
                if row.get("n_procs").and_then(|n| n.as_u64()).is_none() {
                    errors.push(format!("sizes[{i}] missing integer 'n_procs'"));
                }
                if row.get("heap_median_ns").and_then(|n| n.as_f64()).is_none() {
                    errors.push(format!("sizes[{i}] missing number 'heap_median_ns'"));
                }
            }
        }
    }
    if v.get("cluster_tick").and_then(|s| s.as_array()).is_none() {
        errors.push("missing array field 'cluster_tick'".to_string());
    }
    match v.get("sim_core_ticks_per_sec").and_then(|s| s.as_array()) {
        None => errors.push("missing array field 'sim_core_ticks_per_sec'".to_string()),
        Some(rows) if rows.is_empty() => {
            errors.push("'sim_core_ticks_per_sec' is empty".to_string())
        }
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("cores").and_then(|n| n.as_u64()).is_none() {
                    errors.push(format!(
                        "sim_core_ticks_per_sec[{i}] missing integer 'cores'"
                    ));
                }
                for field in ["batched_median_ns", "core_ticks_per_sec"] {
                    if row.get(field).and_then(|n| n.as_f64()).is_none() {
                        errors.push(format!(
                            "sim_core_ticks_per_sec[{i}] missing number '{field}'"
                        ));
                    }
                }
            }
        }
    }
    match v.get("hier_steady_state").and_then(|s| s.as_array()) {
        None => errors.push("missing array field 'hier_steady_state'".to_string()),
        Some(rows) if rows.is_empty() => errors.push("'hier_steady_state' is empty".to_string()),
        Some(rows) => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("nodes").and_then(|n| n.as_u64()).is_none() {
                    errors.push(format!("hier_steady_state[{i}] missing integer 'nodes'"));
                }
                for field in ["flat_median_ns", "hier_median_ns", "hier_vs_flat_speedup"] {
                    if row.get(field).and_then(|n| n.as_f64()).is_none() {
                        errors.push(format!("hier_steady_state[{i}] missing number '{field}'"));
                    }
                }
                for field in ["flat_round_us", "tree_round_us", "tree_vs_flat"] {
                    let value = row.get("reingest_all").and_then(|r| r.get(field));
                    if value.and_then(|n| n.as_f64()).is_none() {
                        errors.push(format!(
                            "hier_steady_state[{i}] missing number 'reingest_all.{field}'"
                        ));
                    }
                }
            }
        }
    }
    if errors.is_empty() {
        println!("{} OK", path.display());
        0
    } else {
        for e in &errors {
            eprintln!("{}: {e}", path.display());
        }
        1
    }
}

/// The commit the numbers belong to: `git rev-parse --short HEAD`, with
/// `-dirty` appended when the work tree differs from it (a recording
/// made before its own commit exists names the parent that way).
fn recorded_commit(root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if git(&["status", "--porcelain"]).is_some_and(|s| s.is_empty()) => head,
        Some(head) => format!("{head}-dirty"),
        None => "unknown".to_string(),
    }
}

/// Run every experiment once with fast settings, in parallel, and
/// return the wall time. This is the number the README quotes for "how
/// long does regenerating everything take".
fn time_fast_suite() -> (usize, f64) {
    let settings = RunSettings::fast();
    let timer = RoundTimer::start();
    let reports: Vec<Option<String>> = ALL_EXPERIMENTS
        .par_iter()
        .map(|name| run_by_name(name, &settings))
        .collect();
    let wall_s = timer.elapsed_s();
    let ran = reports
        .iter()
        .flatten()
        .filter(|r| !r.trim().is_empty())
        .count();
    if ran != ALL_EXPERIMENTS.len() {
        eprintln!(
            "warning: fast suite produced {ran}/{} non-empty reports",
            ALL_EXPERIMENTS.len()
        );
    }
    (ran, wall_s)
}

fn main() {
    let root = workspace_root();
    if std::env::args().skip(1).any(|a| a == "--check") {
        std::process::exit(check(&root));
    }
    let criterion_dir = root.join("target").join("criterion");
    let mut entries = Vec::new();
    let mut missing = Vec::new();
    for &n in SIZES {
        let id = n.to_string();
        let heap = median_ns(&criterion_dir, "schedule_two_pass", &id);
        let naive = median_ns(&criterion_dir, "schedule_reference", &id);
        let cached = median_ns(&criterion_dir, "schedule_cached_steady", &id);
        match heap {
            Some(h) => entries.push(SizeEntry {
                n,
                heap: h,
                naive,
                speedup: naive.map(|r| r / h),
                cached,
                cache_speedup: cached.map(|cc| h / cc),
            }),
            None => missing.push(format!("schedule_two_pass/{n}")),
        }
    }
    let mut cluster = Vec::new();
    for &n in CLUSTER_SIZES {
        if let Some(ns) = median_ns(&criterion_dir, "cluster_tick", &n.to_string()) {
            cluster.push((n, ns));
        }
    }
    let mut sim = Vec::new();
    for &cores in SIM_CORES {
        let id = cores.to_string();
        let batched = median_ns(&criterion_dir, "sim_tick_batched", &id);
        let sampled = median_ns(&criterion_dir, "sim_tick_batched_sampled", &id);
        let scheduled = median_ns(&criterion_dir, "sim_tick_scheduled", &id);
        let scalar = median_ns(&criterion_dir, "sim_tick_scalar", &id);
        match batched {
            Some(b) => sim.push(SimEntry {
                cores,
                batched: b,
                throughput: cores as f64 / (b * 1e-9),
                sampled,
                scheduled,
                scalar,
                speedup: scalar.map(|s| s / b),
            }),
            None => missing.push(format!("sim_tick_batched/{cores}")),
        }
    }
    let mut hier = Vec::new();
    for &nodes in HIER_SIZES {
        let id = nodes.to_string();
        let flat = median_ns(&criterion_dir, "hier_steady_state", &format!("flat/{id}"));
        let h = median_ns(&criterion_dir, "hier_steady_state", &format!("hier/{id}"));
        let flat_reingest = median_ns(
            &criterion_dir,
            "hier_steady_state",
            &format!("flat_reingest/{id}"),
        );
        let hier_reingest = median_ns(
            &criterion_dir,
            "hier_steady_state",
            &format!("hier_reingest/{id}"),
        );
        match (flat, h, flat_reingest, hier_reingest) {
            (Some(flat), Some(h), Some(flat_reingest), Some(hier_reingest)) => {
                hier.push(HierEntry {
                    nodes,
                    flat,
                    hier: h,
                    speedup: flat / h,
                    flat_reingest,
                    hier_reingest,
                })
            }
            _ => missing.push(format!("hier_steady_state/{nodes}")),
        }
    }
    if entries.is_empty() {
        eprintln!(
            "no criterion estimates found under {} — run \
             `cargo bench -p fvs-bench --bench scheduler_micro` first",
            criterion_dir.display()
        );
        std::process::exit(1);
    }
    if !missing.is_empty() {
        eprintln!("warning: missing benchmark results: {missing:?}");
    }

    println!(
        "timing harness fast suite ({} experiments, {} workers)...",
        ALL_EXPERIMENTS.len(),
        rayon::current_num_threads()
    );
    let (suite_ran, suite_wall_s) = time_fast_suite();

    // Hand-assemble the JSON so the report shape is stable regardless of
    // serializer behaviour for optional fields.
    let mut out = String::from("{\n  \"benchmark\": \"schedule_two_pass\",\n");
    out.push_str("  \"units\": \"ns/iter (median)\",\n");
    out.push_str(
        "  \"scenario\": \"demotion-heavy budget drop (10 W/processor); heap_median_ns times \
         schedule_with_scratch: flat loss rows and the bucketed demotion queue (the column \
         keeps the name it had when pass 2 drew victims from a binary heap)\",\n",
    );
    out.push_str(&format!("  \"commit\": \"{}\",\n", recorded_commit(&root)));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("  \"nproc\": {nproc},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n_procs\": {}, \"heap_median_ns\": {:.1}",
            e.n, e.heap
        ));
        if let Some(r) = e.naive {
            out.push_str(&format!(", \"naive_median_ns\": {r:.1}"));
        }
        if let Some(s) = e.speedup {
            out.push_str(&format!(", \"speedup\": {s:.2}"));
        }
        if let Some(cc) = e.cached {
            out.push_str(&format!(", \"cached_median_ns\": {cc:.1}"));
        }
        if let Some(s) = e.cache_speedup {
            out.push_str(&format!(", \"cache_speedup\": {s:.2}"));
        }
        out.push('}');
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"cluster_tick\": [\n");
    for (i, (n, ns)) in cluster.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {n}, \"median_ns\": {ns:.1}}}{}\n",
            if i + 1 < cluster.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"sim_core_ticks_per_sec\": [\n");
    for (i, e) in sim.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cores\": {}, \"batched_median_ns\": {:.1}, \"core_ticks_per_sec\": {:.3e}",
            e.cores, e.batched, e.throughput
        ));
        if let Some(s) = e.sampled {
            out.push_str(&format!(", \"sampled_median_ns\": {s:.1}"));
        }
        if let Some(s) = e.scheduled {
            out.push_str(&format!(", \"scheduled_median_ns\": {s:.1}"));
        }
        if let Some(s) = e.scalar {
            out.push_str(&format!(", \"scalar_median_ns\": {s:.1}"));
        }
        if let Some(s) = e.speedup {
            out.push_str(&format!(", \"speedup\": {s:.2}"));
        }
        out.push('}');
        if i + 1 < sim.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"hier_steady_state\": [\n");
    for (i, e) in hier.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"flat_median_ns\": {:.1}, \"hier_median_ns\": {:.1}, \
             \"hier_vs_flat_speedup\": {:.2}, \"reingest_all\": {{\"flat_round_us\": {:.1}, \
             \"tree_round_us\": {:.1}, \"tree_vs_flat\": {:.3}}}}}{}\n",
            e.nodes,
            e.flat,
            e.hier,
            e.speedup,
            e.flat_reingest / 1e3,
            e.hier_reingest / 1e3,
            e.hier_reingest / e.flat_reingest,
            if i + 1 < hier.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"harness_fast_suite\": {\n");
    out.push_str(&format!("    \"experiments\": {suite_ran},\n"));
    out.push_str(&format!(
        "    \"jobs\": {},\n",
        rayon::current_num_threads()
    ));
    out.push_str(&format!("    \"wall_s\": {suite_wall_s:.2}\n"));
    out.push_str("  }\n}\n");

    let out_path = root.join("BENCH_scheduler.json");
    std::fs::write(&out_path, &out).expect("write BENCH_scheduler.json");
    println!("wrote {}", out_path.display());
    for e in &entries {
        let mut line = format!("n={:<5} heap {:>12.1} ns", e.n, e.heap);
        if let (Some(r), Some(s)) = (e.naive, e.speedup) {
            line.push_str(&format!("  naive {r:>14.1} ns  speedup {s:.2}x"));
        }
        if let (Some(cc), Some(s)) = (e.cached, e.cache_speedup) {
            line.push_str(&format!("  cached {cc:>10.1} ns  cache-hit {s:.2}x"));
        }
        println!("{line}");
    }
    for e in &sim {
        let mut line = format!(
            "cores={:<5} batched {:>12.1} ns  {:>10.3e} core-ticks/s",
            e.cores, e.batched, e.throughput
        );
        if let Some(s) = e.sampled {
            line.push_str(&format!("  sampled {s:>10.1} ns"));
        }
        if let Some(s) = e.scheduled {
            line.push_str(&format!("  scheduled {s:>10.1} ns"));
        }
        if let (Some(s), Some(x)) = (e.scalar, e.speedup) {
            line.push_str(&format!("  scalar {s:>14.1} ns  speedup {x:.2}x"));
        }
        println!("{line}");
    }
    for e in &hier {
        println!(
            "hier nodes={:<7} flat {:>14.1} ns  hier {:>12.1} ns  speedup {:.2}x  \
             all re-ingest: flat {:.1} us  tree {:.1} us",
            e.nodes,
            e.flat,
            e.hier,
            e.speedup,
            e.flat_reingest / 1e3,
            e.hier_reingest / 1e3
        );
    }
    println!("harness fast suite: {suite_ran} experiments in {suite_wall_s:.2}s wall");
    // The steady-state cache target: a round with an unchanged model
    // set must be at least 5x cheaper than rebuilding at n=256.
    if let Some(e) = entries.iter().find(|e| e.n == 256) {
        if let Some(s) = e.cache_speedup {
            if s < 5.0 {
                eprintln!("warning: cache-hit speedup at n=256 is {s:.2}x (< 5x target)");
            }
        }
    }
    // The SoA tentpole target: the batched pass must clear 10x the
    // scalar reference at the 1024-core rack aggregate.
    if let Some(e) = sim.iter().find(|e| e.cores == 1024) {
        if let Some(s) = e.speedup {
            if s < 10.0 {
                eprintln!("warning: batched speedup at 1024 cores is {s:.2}x (< 10x target)");
            }
        }
    }
    // The delegation-tree target: a steady-state round with a few
    // drifting nodes must be at least 10x cheaper through the tree
    // than through the flat coordinator at 10k nodes.
    if let Some(e) = hier.iter().find(|e| e.nodes == 10_000) {
        if e.speedup < 10.0 {
            eprintln!(
                "warning: hier steady-state speedup at 10k nodes is {:.2}x (< 10x target)",
                e.speedup
            );
        }
        // ...and when every node re-reports, no dearer than flat.
        if e.hier_reingest > e.flat_reingest {
            eprintln!("warning: an all-re-ingest round at 10k nodes is slower through the tree");
        }
    }
}
