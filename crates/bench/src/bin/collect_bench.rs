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
//! `schedule_two_pass`, `schedule_cached_steady`,
//! `schedule_cached_moved` and `schedule_reference` groups plus
//! `cluster_tick` and the four `sim_tick_*` groups, times the harness
//! fast suite (every experiment, run in parallel), and writes a flat
//! summary (median ns/iter, the
//! naive/production speedup, the cache-hit speedup per size, and
//! core-tick throughput of the batched SoA simulator pass vs the scalar
//! reference, with the sampled and the scheduled tick beside it) to
//! `BENCH_scheduler.json` in the workspace root, stamped with the commit
//! and the core count it was recorded on. The production column,
//! `scratch_median_ns`, times `schedule_with_scratch`.
//!
//! `collect_bench --section <name>` re-records one section — `sizes`,
//! `schedule_cached_moved`, `cluster_tick`, `sim_core_ticks_per_sec`,
//! `hier_steady_state`, or `reingest_all` (that entry of every
//! `hier_steady_state` row, nothing else of it) — and leaves every other
//! byte of the file as it is: the hand-written `note`, and sections whose
//! gates were recorded on another host. Say in the `note` what was
//! re-recorded, on which commit and core count.
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
const MOVED_SIZES: &[usize] = &[256, 1024, 20_000];
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
    scratch: f64,
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

/// The rows of array section `name`, none when it is absent.
fn rows_of<'a>(v: &'a serde_json::Value, name: &str) -> &'a [serde_json::Value] {
    v.get(name)
        .and_then(|s| s.as_array())
        .map_or(&[], |rows| rows)
}

/// `section` must be a non-empty array whose rows carry the integer
/// `key` and every number of `numbers`.
fn check_rows(
    v: &serde_json::Value,
    errors: &mut Vec<String>,
    section: &str,
    key: &str,
    numbers: &[&str],
) {
    if v.get(section).and_then(|s| s.as_array()).is_none() {
        return errors.push(format!("missing array field '{section}'"));
    }
    if rows_of(v, section).is_empty() {
        errors.push(format!("'{section}' is empty"));
    }
    for (i, row) in rows_of(v, section).iter().enumerate() {
        if row.get(key).and_then(|n| n.as_u64()).is_none() {
            errors.push(format!("{section}[{i}] missing integer '{key}'"));
        }
        for field in numbers {
            if row.get(field).and_then(|n| n.as_f64()).is_none() {
                errors.push(format!("{section}[{i}] missing number '{field}'"));
            }
        }
    }
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
    let sections: [(&str, &str, &[&str]); 4] = [
        ("sizes", "n_procs", &["scratch_median_ns"]),
        (
            "schedule_cached_moved",
            "n_procs",
            &["loose_median_ns", "binding_median_ns"],
        ),
        (
            "sim_core_ticks_per_sec",
            "cores",
            &["batched_median_ns", "core_ticks_per_sec"],
        ),
        (
            "hier_steady_state",
            "nodes",
            &["flat_median_ns", "hier_median_ns", "hier_vs_flat_speedup"],
        ),
    ];
    for (section, key, numbers) in sections {
        check_rows(&v, &mut errors, section, key, numbers);
    }
    if v.get("cluster_tick").and_then(|s| s.as_array()).is_none() {
        errors.push("missing array field 'cluster_tick'".to_string());
    }
    for (i, row) in rows_of(&v, "hier_steady_state").iter().enumerate() {
        for field in ["flat_round_us", "tree_round_us", "tree_vs_flat"] {
            let value = row.get("reingest_all").and_then(|r| r.get(field));
            if value.and_then(|n| n.as_f64()).is_none() {
                errors.push(format!(
                    "hier_steady_state[{i}] missing number 'reingest_all.{field}'"
                ));
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

/// Rows of the `sizes` section, and the benchmarks it lacked.
fn size_entries(dir: &Path, missing: &mut Vec<String>) -> Vec<SizeEntry> {
    let mut entries = Vec::new();
    for &n in SIZES {
        let id = n.to_string();
        let naive = median_ns(dir, "schedule_reference", &id);
        let cached = median_ns(dir, "schedule_cached_steady", &id);
        match median_ns(dir, "schedule_two_pass", &id) {
            Some(h) => entries.push(SizeEntry {
                n,
                scratch: h,
                naive,
                speedup: naive.map(|r| r / h),
                cached,
                cache_speedup: cached.map(|cc| h / cc),
            }),
            None => missing.push(format!("schedule_two_pass/{n}")),
        }
    }
    entries
}

fn sim_entries(dir: &Path, missing: &mut Vec<String>) -> Vec<SimEntry> {
    let mut sim = Vec::new();
    for &cores in SIM_CORES {
        let id = cores.to_string();
        let scalar = median_ns(dir, "sim_tick_scalar", &id);
        match median_ns(dir, "sim_tick_batched", &id) {
            Some(b) => sim.push(SimEntry {
                cores,
                batched: b,
                throughput: cores as f64 / (b * 1e-9),
                sampled: median_ns(dir, "sim_tick_batched_sampled", &id),
                scheduled: median_ns(dir, "sim_tick_scheduled", &id),
                scalar,
                speedup: scalar.map(|s| s / b),
            }),
            None => missing.push(format!("sim_tick_batched/{cores}")),
        }
    }
    sim
}

/// Median ns of an all-re-ingest round at `nodes`: `(flat, tree)`.
fn reingest_medians(dir: &Path, nodes: usize) -> Option<(f64, f64)> {
    let flat = median_ns(dir, "hier_steady_state", &format!("flat_reingest/{nodes}"))?;
    let tree = median_ns(dir, "hier_steady_state", &format!("hier_reingest/{nodes}"))?;
    Some((flat, tree))
}

fn hier_entries(dir: &Path, missing: &mut Vec<String>) -> Vec<HierEntry> {
    let mut hier = Vec::new();
    for &nodes in HIER_SIZES {
        let flat = median_ns(dir, "hier_steady_state", &format!("flat/{nodes}"));
        let h = median_ns(dir, "hier_steady_state", &format!("hier/{nodes}"));
        match (flat, h, reingest_medians(dir, nodes)) {
            (Some(flat), Some(h), Some((flat_reingest, hier_reingest))) => hier.push(HierEntry {
                nodes,
                flat,
                hier: h,
                speedup: flat / h,
                flat_reingest,
                hier_reingest,
            }),
            _ => missing.push(format!("hier_steady_state/{nodes}")),
        }
    }
    hier
}

fn size_rows(entries: &[SizeEntry]) -> Vec<String> {
    let mut rows = Vec::new();
    for e in entries {
        let mut row = format!(
            "{{\"n_procs\": {}, \"scratch_median_ns\": {:.1}",
            e.n, e.scratch
        );
        if let Some(r) = e.naive {
            row.push_str(&format!(", \"naive_median_ns\": {r:.1}"));
        }
        if let Some(s) = e.speedup {
            row.push_str(&format!(", \"speedup\": {s:.2}"));
        }
        if let Some(cc) = e.cached {
            row.push_str(&format!(", \"cached_median_ns\": {cc:.1}"));
        }
        if let Some(s) = e.cache_speedup {
            row.push_str(&format!(", \"cache_speedup\": {s:.2}"));
        }
        rows.push(row + "}");
    }
    rows
}

/// `schedule_cached_moved`: every model moved, under a budget that
/// leaves pass 2 nothing to do (`loose`) and one that binds.
fn moved_rows(dir: &Path, missing: &mut Vec<String>) -> Vec<String> {
    let mut rows = Vec::new();
    for &n in MOVED_SIZES {
        let at = |name: &str| median_ns(dir, "schedule_cached_moved", &format!("{name}/{n}"));
        match (at("loose"), at("binding")) {
            (Some(loose), Some(binding)) => rows.push(format!(
                "{{\"n_procs\": {n}, \"loose_median_ns\": {loose:.1}, \
                 \"binding_median_ns\": {binding:.1}}}"
            )),
            _ => missing.push(format!("schedule_cached_moved/{n}")),
        }
    }
    rows
}

fn cluster_rows(dir: &Path) -> Vec<String> {
    let mut rows = Vec::new();
    for &n in CLUSTER_SIZES {
        if let Some(ns) = median_ns(dir, "cluster_tick", &n.to_string()) {
            rows.push(format!("{{\"nodes\": {n}, \"median_ns\": {ns:.1}}}"));
        }
    }
    rows
}

fn sim_rows(sim: &[SimEntry]) -> Vec<String> {
    let mut rows = Vec::new();
    for e in sim {
        let mut row = format!(
            "{{\"cores\": {}, \"batched_median_ns\": {:.1}, \"core_ticks_per_sec\": {:.3e}",
            e.cores, e.batched, e.throughput
        );
        if let Some(s) = e.sampled {
            row.push_str(&format!(", \"sampled_median_ns\": {s:.1}"));
        }
        if let Some(s) = e.scheduled {
            row.push_str(&format!(", \"scheduled_median_ns\": {s:.1}"));
        }
        if let Some(s) = e.scalar {
            row.push_str(&format!(", \"scalar_median_ns\": {s:.1}"));
        }
        if let Some(s) = e.speedup {
            row.push_str(&format!(", \"speedup\": {s:.2}"));
        }
        rows.push(row + "}");
    }
    rows
}

/// The `reingest_all` entry of a `hier_steady_state` row.
fn reingest_object(flat_ns: f64, tree_ns: f64) -> String {
    format!(
        "\"reingest_all\": {{\"flat_round_us\": {:.1}, \"tree_round_us\": {:.1}, \
         \"tree_vs_flat\": {:.3}}}",
        flat_ns / 1e3,
        tree_ns / 1e3,
        tree_ns / flat_ns
    )
}

fn hier_rows(hier: &[HierEntry]) -> Vec<String> {
    let row = |e: &HierEntry| {
        format!(
            "{{\"nodes\": {}, \"flat_median_ns\": {:.1}, \"hier_median_ns\": {:.1}, \
             \"hier_vs_flat_speedup\": {:.2}, {}}}",
            e.nodes,
            e.flat,
            e.hier,
            e.speedup,
            reingest_object(e.flat_reingest, e.hier_reingest)
        )
    };
    hier.iter().map(row).collect()
}

/// An array section as the file spells it: one row a line.
fn array_section(name: &str, rows: &[String]) -> String {
    let rows: String = rows
        .iter()
        .map(|r| format!("    {r}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let newline = if rows.is_empty() { "" } else { "\n" };
    format!("  \"{name}\": [\n{rows}{newline}  ]")
}

/// `text` with its array section `name` replaced by `section`; a section
/// the file does not have yet goes in before `harness_fast_suite`.
fn splice_section(text: &str, name: &str, section: &str) -> Option<String> {
    match text.find(&format!("  \"{name}\": [\n")) {
        Some(start) => {
            let end = start + text[start..].find("\n  ]")? + "\n  ]".len();
            Some(format!("{}{section}{}", &text[..start], &text[end..]))
        }
        None => {
            let at = text.find("  \"harness_fast_suite\"")?;
            Some(format!("{}{section},\n{}", &text[..at], &text[at..]))
        }
    }
}

/// `text` with the `reingest_all` entry of the `hier_steady_state` row
/// for `nodes` replaced, the rest of the row as it was.
fn splice_reingest(text: &str, nodes: usize, (flat_ns, tree_ns): (f64, f64)) -> Option<String> {
    let row = text.find(&format!("{{\"nodes\": {nodes}, \"flat_median_ns\""))?;
    let start = row + text[row..].find("\"reingest_all\": {")?;
    let end = start + text[start..].find('}')? + 1;
    let entry = reingest_object(flat_ns, tree_ns);
    Some(format!("{}{entry}{}", &text[..start], &text[end..]))
}

/// `--section <name>`: re-record that section of the existing file.
fn record_section(root: &Path, dir: &Path, name: &str) -> Result<(), String> {
    let path = root.join("BENCH_scheduler.json");
    let mut text =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut missing = Vec::new();
    let rows = match name {
        "sizes" => size_rows(&size_entries(dir, &mut missing)),
        "schedule_cached_moved" => moved_rows(dir, &mut missing),
        "cluster_tick" => cluster_rows(dir),
        "sim_core_ticks_per_sec" => sim_rows(&sim_entries(dir, &mut missing)),
        "hier_steady_state" => hier_rows(&hier_entries(dir, &mut missing)),
        "reingest_all" => {
            for &nodes in HIER_SIZES {
                let medians = reingest_medians(dir, nodes)
                    .ok_or(format!("no hier_steady_state/*_reingest/{nodes} estimates"))?;
                text = splice_reingest(&text, nodes, medians)
                    .ok_or(format!("no hier_steady_state row for {nodes} nodes"))?;
            }
            return std::fs::write(&path, text).map_err(|e| e.to_string());
        }
        _ => return Err(format!("no section '{name}'")),
    };
    if rows.is_empty() || !missing.is_empty() {
        return Err(format!(
            "missing benchmark results for '{name}': {missing:?}"
        ));
    }
    let text = splice_section(&text, name, &array_section(name, &rows))
        .ok_or(format!("{} has no place for '{name}'", path.display()))?;
    std::fs::write(&path, text).map_err(|e| e.to_string())
}

fn main() {
    let root = workspace_root();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        std::process::exit(check(&root));
    }
    let criterion_dir = root.join("target").join("criterion");
    if let Some(at) = args.iter().position(|a| a == "--section") {
        let name = args.get(at + 1).map_or("", |s| s.as_str());
        match record_section(&root, &criterion_dir, name) {
            Ok(()) => println!("re-recorded '{name}' in BENCH_scheduler.json"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut missing = Vec::new();
    let entries = size_entries(&criterion_dir, &mut missing);
    let moved = moved_rows(&criterion_dir, &mut missing);
    let sim = sim_entries(&criterion_dir, &mut missing);
    let hier = hier_entries(&criterion_dir, &mut missing);
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
        "  \"scenario\": \"demotion-heavy budget drop (10 W/processor); scratch_median_ns times \
         schedule_with_scratch: every processor rebuilt through schedule_cached's pass 1, \
         flat loss rows and the bucketed demotion queue\",\n",
    );
    out.push_str(&format!("  \"commit\": \"{}\",\n", recorded_commit(&root)));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("  \"nproc\": {nproc},\n"));
    for (name, rows) in [
        ("sizes", size_rows(&entries)),
        ("cluster_tick", cluster_rows(&criterion_dir)),
        ("sim_core_ticks_per_sec", sim_rows(&sim)),
        ("hier_steady_state", hier_rows(&hier)),
        ("schedule_cached_moved", moved),
    ] {
        out.push_str(&array_section(name, &rows));
        out.push_str(",\n");
    }
    out.push_str("  \"harness_fast_suite\": {\n");
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
        let mut line = format!("n={:<5} scratch {:>9.1} ns", e.n, e.scratch);
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

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "{\n  \"note\": \"by hand\",\n  \"sizes\": [\n    {\"n_procs\": 4}\n  ],\n  \
        \"cluster_tick\": [\n    {\"nodes\": 10000, \"median_ns\": 1.0}\n  ],\n  \
        \"hier_steady_state\": [\n    {\"nodes\": 10000, \"flat_median_ns\": 2.0, \
        \"reingest_all\": {\"flat_round_us\": 3.0, \"tree_round_us\": 1.0, \"tree_vs_flat\": 0.333}},\n    \
        {\"nodes\": 100000, \"flat_median_ns\": 4.0, \
        \"reingest_all\": {\"flat_round_us\": 9.0, \"tree_round_us\": 1.0, \"tree_vs_flat\": 0.111}}\n  ],\n  \
        \"harness_fast_suite\": {\n    \"wall_s\": 0.08\n  }\n}\n";

    /// A re-recorded section changes its own bytes and no others; one
    /// the file lacks goes in before the last section.
    #[test]
    fn a_section_is_spliced_and_the_rest_kept_byte_for_byte() {
        let rows = [
            "{\"n_procs\": 4}".to_string(),
            "{\"n_procs\": 16}".to_string(),
        ];
        let spliced = splice_section(FILE, "sizes", &array_section("sizes", &rows)).unwrap();
        let expected = FILE.replace(
            "    {\"n_procs\": 4}\n",
            "    {\"n_procs\": 4},\n    {\"n_procs\": 16}\n",
        );
        assert_eq!(spliced, expected);
        let same = splice_section(&spliced, "sizes", &array_section("sizes", &rows[..1]));
        assert_eq!(same.unwrap(), FILE);

        let added = splice_section(FILE, "moved", &array_section("moved", &rows[..1])).unwrap();
        let at = "  \"harness_fast_suite\"";
        let section = "  \"moved\": [\n    {\"n_procs\": 4}\n  ],\n";
        assert_eq!(added, FILE.replace(at, &format!("{section}{at}")));
        assert_eq!(array_section("none", &[]), "  \"none\": [\n  ]");
    }

    #[test]
    fn reingest_all_is_replaced_inside_its_row_only() {
        let spliced = splice_reingest(FILE, 100_000, (8000.0, 2000.0)).unwrap();
        let expected = FILE.replace(
            "{\"flat_round_us\": 9.0, \"tree_round_us\": 1.0, \"tree_vs_flat\": 0.111}",
            "{\"flat_round_us\": 8.0, \"tree_round_us\": 2.0, \"tree_vs_flat\": 0.250}",
        );
        assert_eq!(spliced, expected);
        assert!(splice_reingest(FILE, 7, (1.0, 1.0)).is_none());
    }
}
