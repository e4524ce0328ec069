//! From passes to what a run reports: the best pass per host-timed
//! metric, the checks that span passes, the table, `result.json`, the
//! driver's line and `BENCHMARK.json`.

use crate::metrics::{self, Better, Bound, END_TO_END, PER_LAYER};
use crate::stats::{best_of_passes, median};
use crate::workloads::{Pass, RunSize, Size, Workload, ALL};
use serde::Value;
use std::fmt::Write as _;
use std::process::Command;

/// Said wherever latencies are printed.
pub const LINK_NOTE: &str = "everything crosses the host loopback interface, no injected delay: latencies are processor time on this host, not a network's";

/// What the run was asked to do.
#[derive(Debug)]
pub struct RunInfo {
    pub seed: u64,
    /// The size `--workload` named.
    pub size: RunSize,
    pub quick: bool,
    /// Wall time the timed stretches of all passes aim at together.
    pub seconds: f64,
    pub sizes: [Size; 5],
    pub nproc: usize,
    /// Share of the run's CPU time the hypervisor gave to someone else
    /// (`steal` in `/proc/stat`); `None` where that cannot be read.
    pub steal_share: Option<f64>,
}

/// `(all, steal)` jiffies of every CPU since boot.
pub fn cpu_jiffies() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

#[derive(Debug)]
struct PerWorkload {
    workload: Workload,
    scale: f64,
    digest: u64,
    attempted: u64,
    failed: u64,
    timed_out_passes: usize,
    failures: Vec<String>,
    /// Why passes of it were measured again (one entry a repeat).
    repeated: Vec<String>,
}

#[derive(Debug)]
struct Measured {
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: Option<Workload>,
    value: f64,
    per_pass: Vec<f64>,
    note: Option<String>,
}

#[derive(Debug)]
pub struct Outcome {
    info: RunInfo,
    untraced_passes: usize,
    traced: bool,
    workloads: Vec<PerWorkload>,
    end_to_end: Vec<Measured>,
    per_layer: Vec<Measured>,
    /// Values that were never measured.
    missing: Vec<String>,
}

fn note_for(passes: &[&Pass], name: &str) -> Option<String> {
    passes.iter().rev().find_map(|p| {
        p.notes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.clone())
    })
}

impl Outcome {
    pub fn from_passes(
        info: RunInfo,
        untraced: &[Vec<Pass>; 5],
        traced: &[Option<Pass>; 5],
        mut repeated: [Vec<String>; 5],
    ) -> Outcome {
        let untraced_passes = untraced[0].len();
        let has_trace = traced[0].is_some();
        let mut missing = Vec::new();

        let mut workloads = Vec::new();
        for (i, w) in ALL.into_iter().enumerate() {
            let all: Vec<&Pass> = untraced[i].iter().chain(traced[i].as_ref()).collect();
            let first = all[0];
            let mut failures: Vec<String> =
                all.iter().flat_map(|p| p.check_failures.clone()).collect();
            // The same seed must generate the same inputs in every pass,
            // and a deterministic simulation the same outcome, bit for
            // bit — the traced loop included.
            if all.iter().any(|p| p.digest != first.digest) {
                failures.push("input_digest differs between passes".into());
            }
            for p in &all[1..] {
                for ((name, a), (_, b)) in first.exact.iter().zip(&p.exact) {
                    if a.to_bits() != b.to_bits() {
                        failures.push(format!("{name} differs between passes: {a} vs {b}"));
                    }
                }
            }
            workloads.push(PerWorkload {
                workload: w,
                scale: info.sizes[i].scale,
                digest: first.digest,
                attempted: all.iter().map(|p| p.attempted).sum(),
                failed: all.iter().map(|p| p.failed).sum(),
                timed_out_passes: all.iter().filter(|p| p.timed_out).count(),
                failures,
                repeated: std::mem::take(&mut repeated[i]),
            });
        }

        let index = |w: Workload| ALL.iter().position(|x| *x == w).expect("a listed workload");
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let (per_pass, passes): (Vec<f64>, Vec<&Pass>) = match m.workload {
                // Set-up of a pass: every workload's, summed.
                None => (
                    (0..untraced_passes)
                        .map(|k| untraced.iter().map(|w| w[k].setup_s).sum())
                        .collect(),
                    Vec::new(),
                ),
                Some(w) => {
                    let passes: Vec<&Pass> = untraced[index(w)].iter().collect();
                    (
                        passes
                            .iter()
                            .map(|p| p.get(m.name).unwrap_or(f64::NAN))
                            .collect(),
                        passes,
                    )
                }
            };
            // Set-up is a median; what the host times, the best pass;
            // what is simulated is the same in every pass.
            let value = if m.workload.is_none() {
                median(&mut per_pass.clone())
            } else {
                best_of_passes(&per_pass, m.better == Better::Higher)
            };
            if !value.is_finite() {
                missing.push(m.name.to_string());
            }
            end_to_end.push(Measured {
                name: m.name,
                unit: m.unit,
                better: m.better,
                workload: m.workload,
                value,
                note: note_for(&passes, m.name),
                per_pass,
            });
        }

        let mut per_layer = Vec::new();
        if has_trace {
            for m in &PER_LAYER {
                let i = index(m.workload);
                let pass = traced[i]
                    .as_ref()
                    .expect("every workload has a traced pass");
                let (overhead_name, gated) = metrics::overhead(m.workload);
                let value = if m.name == overhead_name {
                    let plain = end_to_end
                        .iter()
                        .find(|e| e.name == gated.name)
                        .map_or(f64::NAN, |e| e.value);
                    let with_trace = pass.get(gated.name).unwrap_or(f64::NAN);
                    match gated.better {
                        Better::Lower => 100.0 * (with_trace / plain - 1.0),
                        Better::Higher => 100.0 * (plain / with_trace - 1.0),
                    }
                } else {
                    pass.get(m.name).unwrap_or(f64::NAN)
                };
                if !value.is_finite() {
                    missing.push(m.name.to_string());
                }
                per_layer.push(Measured {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    workload: Some(m.workload),
                    value,
                    per_pass: vec![value],
                    note: note_for(&[pass], m.name),
                });
            }
        }

        Outcome {
            info,
            untraced_passes,
            traced: has_trace,
            workloads,
            end_to_end,
            per_layer,
            missing,
        }
    }

    fn attempted(&self) -> u64 {
        self.workloads
            .iter()
            .map(|w| w.attempted)
            .sum::<u64>()
            .max(1)
    }

    fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    fn checks_passed(&self) -> bool {
        self.missing.is_empty() && self.workloads.iter().all(|w| w.failures.is_empty())
    }

    /// Every check passed and no operation failed or timed out.
    pub fn correct(&self) -> bool {
        self.checks_passed() && self.failed() == 0
    }

    /// The line the driver reads: one JSON object, last on stdout.
    pub fn driver_line(&self, per_layer: bool) -> String {
        let measured = if per_layer {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = measured
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", text(m.unit)),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.checks_passed())),
            ("attempted", Value::UInt(self.attempted())),
            ("failed", Value::UInt(self.failed())),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree renders")
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fvs-benchmark: seed {}, all five workloads at {}, {} untraced passes{}{}",
            self.info.seed,
            self.info.size.name(),
            self.untraced_passes,
            if self.traced { " + 1 traced" } else { "" },
            if self.info.quick {
                ", QUICK: sizes cut to a tenth, numbers not comparable"
            } else {
                ""
            },
        );
        let _ = writeln!(out, "note: {LINK_NOTE}");
        if let Some(steal) = self.info.steal_share.filter(|s| *s > 0.01) {
            let _ = writeln!(
                out,
                "warning: the hypervisor took {:.1} % of this run's CPU time for other guests; timings are inflated",
                100.0 * steal
            );
        }
        let _ = writeln!(
            out,
            "\n{:<14}{:>6}  {:<18}{:>14}{:>10}  op",
            "workload", "scale", "input_digest", "ops_attempted", "ops_failed"
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "{:<14}{:>6}  {:016x}  {:>14}{:>10}  {}",
                w.workload.name(),
                w.scale,
                w.digest,
                w.attempted,
                w.failed,
                w.workload.op()
            );
        }
        let mut section = |title: &str, rows: &[Measured]| {
            if rows.is_empty() {
                return;
            }
            let _ = writeln!(out, "\n{title}");
            for m in rows {
                let arrow = if m.better == Better::Higher { "^" } else { " " };
                let _ = write!(
                    out,
                    "  {:<42}{arrow}{:>18.6} {:<6} {:<13}",
                    m.name,
                    m.value,
                    m.unit,
                    m.workload.map_or("all", |w| w.name())
                );
                if let Some(e) = metrics::end_to_end(m.name) {
                    let _ = write!(out, " bound {}", describe(e.bound));
                    if m.per_pass.len() > 1 {
                        let passes: Vec<String> =
                            m.per_pass.iter().map(|v| format!("{v:.4}")).collect();
                        let _ = write!(out, "  passes [{}]", passes.join(" "));
                    }
                }
                if let Some(note) = &m.note {
                    let _ = write!(out, "  ({note})");
                }
                let _ = writeln!(out);
            }
        };
        section(
            "end-to-end metrics (best untraced pass, set-up the median; ^ = higher is better)",
            &self.end_to_end,
        );
        section(
            "per-layer metrics (traced pass; not gated)",
            &self.per_layer,
        );
        let _ = writeln!(out);
        for w in &self.workloads {
            for why in &w.repeated {
                let _ = writeln!(
                    out,
                    "MEASURED AGAIN [{}] a pass that failed: {why}",
                    w.workload.name()
                );
            }
        }
        if self.correct() {
            let _ = writeln!(out, "checks: all passed, no operation failed");
        } else {
            for w in &self.workloads {
                for f in &w.failures {
                    let _ = writeln!(out, "CHECK FAILED [{}] {f}", w.workload.name());
                }
                if w.failed > 0 {
                    let _ = writeln!(
                        out,
                        "FAILED OPERATIONS [{}] {} of {} {} ({} passes hit the watchdog)",
                        w.workload.name(),
                        w.failed,
                        w.attempted,
                        w.workload.op(),
                        w.timed_out_passes
                    );
                }
            }
            for name in &self.missing {
                let _ = writeln!(out, "NOT MEASURED {name}");
            }
        }
        out
    }

    /// `out/result.json`: the environment, every workload and metric,
    /// and no claim — this is a baseline, not a comparison.
    pub fn result_json(&self) -> String {
        let measured = |rows: &[Measured]| -> Value {
            Value::Object(
                rows.iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("value", Value::Float(m.value)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("workload", text(m.workload.map_or("all", |w| w.name()))),
                            (
                                "per_pass",
                                Value::Array(m.per_pass.iter().map(|v| Value::Float(*v)).collect()),
                            ),
                        ];
                        if let Some(e) = metrics::end_to_end(m.name) {
                            fields.push(("bound", text(&describe(e.bound))));
                            fields.push(("definition", text(e.definition)));
                        }
                        if let Some(l) = PER_LAYER.iter().find(|l| l.name == m.name) {
                            fields.push(("should_move", text(l.moves)));
                        }
                        if let Some(note) = &m.note {
                            fields.push(("note", text(note)));
                        }
                        (m.name.to_string(), obj(fields))
                    })
                    .collect(),
            )
        };
        let workloads = Value::Object(
            self.workloads
                .iter()
                .map(|w| {
                    (
                        w.workload.name().to_string(),
                        obj(vec![
                            ("scale", Value::Float(w.scale)),
                            ("input_digest", text(&format!("{:016x}", w.digest))),
                            ("op", text(w.workload.op())),
                            ("ops_attempted", Value::UInt(w.attempted)),
                            ("ops_failed", Value::UInt(w.failed)),
                            ("passes_timed_out", Value::UInt(w.timed_out_passes as u64)),
                            (
                                "passes_measured_again",
                                Value::Array(w.repeated.iter().map(|f| text(f)).collect()),
                            ),
                            (
                                "check_failures",
                                Value::Array(w.failures.iter().map(|f| text(f)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let environment = obj(vec![
            (
                "git_commit",
                text(&command_line(
                    "git",
                    &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
                )),
            ),
            ("nproc", Value::UInt(self.info.nproc as u64)),
            ("rustc", text(&command_line("rustc", &["-V"]))),
            (
                "kernel",
                text(
                    std::fs::read_to_string("/proc/sys/kernel/osrelease")
                        .unwrap_or_default()
                        .trim(),
                ),
            ),
            ("seed", Value::UInt(self.info.seed)),
            ("workload", text(self.info.size.name())),
            ("untraced_passes", Value::UInt(self.untraced_passes as u64)),
            ("traced_pass", Value::Bool(self.traced)),
            ("timed_seconds_planned", Value::Float(self.info.seconds)),
            ("quick", Value::Bool(self.info.quick)),
            // A quick run's sizes are cut to a tenth: `compare` refuses it.
            ("comparable", Value::Bool(!self.info.quick)),
            ("link", text(LINK_NOTE)),
            (
                "steal_pct",
                self.info
                    .steal_share
                    .map_or(Value::Null, |s| Value::Float(100.0 * s)),
            ),
        ]);
        let doc = obj(vec![
            ("environment", environment),
            ("workloads", workloads),
            ("end_to_end", measured(&self.end_to_end)),
            ("per_layer", measured(&self.per_layer)),
            (
                "not_measured",
                Value::Array(self.missing.iter().map(|m| text(m)).collect()),
            ),
            ("correct", Value::Bool(self.correct())),
            ("claim", Value::Null),
        ]);
        let mut json = serde_json::to_string_pretty(&doc).expect("a value tree renders");
        json.push('\n');
        json
    }
}

pub fn describe(bound: Bound) -> String {
    match bound {
        Bound::Relative(share) => format!("{:.0}%", share * 100.0),
        Bound::Exact { .. } => "exact".to_string(),
        Bound::Setup { share, floor_s } => {
            format!("{:.0}% and > {:.0} ms", share * 100.0, floor_s * 1e3)
        }
    }
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// First line of a command's output, or `unknown` (the driver's
/// checkout is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 40;

/// `BENCHMARK.json`, rendered from the metric tables.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let doc = obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                RunSize::GATED
                    .iter()
                    .map(|s| obj(vec![("name", text(s.name())), ("why", text(s.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound.share())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk.trim_end(),
            manifest(),
            "regenerate with `fvs-benchmark manifest > BENCHMARK.json`"
        );
        assert!(RunSize::ALL
            .iter()
            .all(|s| s.why().len() <= 200 && !s.why().contains('\n')));
        assert_eq!(metrics::SETUP_S, END_TO_END[0].name);
    }
}
