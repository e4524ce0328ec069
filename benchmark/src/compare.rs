//! `compare A.json B.json`: each end-to-end metric of B against A under
//! the metric's own bound, one row per metric and workload.

use crate::metrics::{Better, Bound, EndToEnd, END_TO_END};
use crate::report::describe;
use crate::stats::interquartile;
use serde::Value;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The passes of a side spread wider than the bound and the two
    /// sides overlap: the runs cannot tell, which is not "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reported value and the per-pass statistics behind it.
#[derive(Debug, Clone)]
pub struct Side {
    pub value: f64,
    pub per_pass: Vec<f64>,
}

pub fn verdict(metric: &EndToEnd, a: &Side, b: &Side, same_seed: bool) -> Verdict {
    // How much worse B is, in the metric's unit (negative: better).
    let worse_by = match metric.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let allowance = match metric.bound {
        // Deterministic for a seed: any difference is a change of
        // behaviour, in whichever direction.
        Bound::Exact { .. } if same_seed => {
            return match (a.value.to_bits() == b.value.to_bits(), worse_by > 0.0) {
                (true, _) => Verdict::WithinBound,
                (false, true) => Verdict::Worse,
                (false, false) => Verdict::Better,
            };
        }
        Bound::Exact {
            across_seeds: share,
        }
        | Bound::Relative(share) => share * a.value.abs(),
        Bound::Setup { share, floor_s } => (share * a.value.abs()).max(floor_s),
    };
    // Spread as the driver measures it: between the quartiles of a
    // side's passes.
    if interquartile(&a.per_pass).max(interquartile(&b.per_pass)) > allowance {
        let worse = |x: f64, y: f64| match metric.better {
            Better::Lower => y > x,
            Better::Higher => y < x,
        };
        let every = |f: &dyn Fn(f64, f64) -> bool| {
            a.per_pass
                .iter()
                .all(|x| b.per_pass.iter().all(|y| f(*x, *y)))
        };
        return if every(&|x, y| worse(y, x)) {
            Verdict::Better
        } else if every(&worse) && worse_by > allowance {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowance {
        Verdict::Worse
    } else if worse_by < -allowance {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

struct ResultFile {
    seed: u64,
    workload: String,
    comparable: bool,
    doc: Value,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let env = doc
        .get("environment")
        .ok_or(format!("{path}: no `environment`"))?;
    Ok(ResultFile {
        seed: env
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or(format!("{path}: no seed"))?,
        workload: env
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}: no workload"))?
            .to_string(),
        comparable: env
            .get("comparable")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        doc,
    })
}

fn side(file: &ResultFile, name: &str) -> Option<Side> {
    let m = file.doc.get("end_to_end")?.get(name)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        per_pass: m
            .get("per_pass")?
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !(a.comparable && b.comparable) {
        eprintln!("a --quick run measures one-tenth sizes; its numbers are not comparable");
        return ExitCode::from(2);
    }
    if a.workload != b.workload {
        eprintln!(
            "A ran `{}` and B ran `{}`: sizes differ, nothing to compare",
            a.workload, b.workload
        );
        return ExitCode::from(2);
    }
    let same_seed = a.seed == b.seed;
    println!(
        "A = {path_a} (seed {})\nB = {path_b} (seed {})\nworkload: {}{}\n",
        a.seed,
        b.seed,
        a.workload,
        if same_seed {
            ""
        } else {
            "; seeds differ, so exact metrics are held to their cross-seed share"
        }
    );
    println!(
        "{:<14}{:<28}{:>16}{:>16}{:>9}  {:<18}verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut counts = [0usize; 4];
    for m in &END_TO_END {
        let workload = m.workload.map_or("all", |w| w.name());
        let (Some(sa), Some(sb)) = (side(&a, m.name), side(&b, m.name)) else {
            println!("{workload:<14}{:<28} missing from a result file", m.name);
            counts[Verdict::Unresolved as usize] += 1;
            continue;
        };
        let v = verdict(m, &sa, &sb, same_seed);
        counts[v as usize] += 1;
        println!(
            "{workload:<14}{:<28}{:>16.6}{:>16.6}{:>+8.2}%  {:<18}{}",
            m.name,
            sa.value,
            sb.value,
            100.0 * (sb.value - sa.value) / sa.value,
            describe(m.bound),
            v.as_str()
        );
    }
    println!(
        "\n{} better, {} worse, {} within-bound, {} unresolved",
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::WithinBound as usize],
        counts[Verdict::Unresolved as usize]
    );
    if counts[Verdict::Worse as usize] > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// A metric with the bound under test, whatever the table says today.
    fn metric(better: Better, bound: Bound) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound,
            workload: Some(Workload::CoordSteady),
            definition: "",
        }
    }

    fn side(value: f64, per_pass: &[f64]) -> Side {
        Side {
            value,
            per_pass: per_pass.to_vec(),
        }
    }

    #[test]
    fn relative_bound_by_direction() {
        let lower = &metric(Better::Lower, Bound::Relative(0.10));
        let a = side(10.0, &[9.9, 10.0, 10.1]);
        assert_eq!(
            verdict(lower, &a, &side(10.9, &[10.8, 10.9, 11.0]), true),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(lower, &a, &side(11.2, &[11.1, 11.2, 11.3]), true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lower, &a, &side(8.5, &[8.4, 8.5, 8.6]), true),
            Verdict::Better
        );
        let higher = &metric(Better::Higher, Bound::Relative(0.10));
        let a = side(1.0e6, &[1.0e6; 3]);
        assert_eq!(
            verdict(higher, &a, &side(0.85e6, &[0.85e6; 3]), true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(higher, &a, &side(1.2e6, &[1.2e6; 3]), true),
            Verdict::Better
        );
        assert_eq!(
            verdict(higher, &a, &side(0.95e6, &[0.95e6; 3]), true),
            Verdict::WithinBound
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_pass_agrees() {
        let m = &metric(Better::Lower, Bound::Relative(0.10));
        let a = side(3.0, &[2.9, 3.0, 3.9]);
        // Medians within the bound, but the passes cannot back that up.
        assert_eq!(
            verdict(m, &a, &side(3.1, &[3.0, 3.1, 3.2]), true),
            Verdict::Unresolved
        );
        // Every pass of B beats every pass of A.
        assert_eq!(
            verdict(m, &a, &side(2.0, &[1.9, 2.0, 2.1]), true),
            Verdict::Better
        );
        // Every pass of B is worse than every pass of A, beyond the bound.
        assert_eq!(
            verdict(m, &a, &side(5.0, &[4.9, 5.0, 5.1]), true),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit_on_one_seed() {
        let m = &metric(Better::Lower, Bound::Exact { across_seeds: 0.05 });
        let a = side(12.5, &[12.5; 3]);
        assert_eq!(
            verdict(m, &a, &side(12.5, &[12.5; 3]), true),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(m, &a, &side(12.500001, &[12.500001; 3]), true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m, &a, &side(12.499999, &[12.499999; 3]), true),
            Verdict::Better
        );
        // Another seed is another input: held to the cross-seed share.
        assert_eq!(
            verdict(m, &a, &side(12.6, &[12.6; 3]), false),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(m, &a, &side(14.0, &[14.0; 3]), false),
            Verdict::Worse
        );
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let m = &metric(
            Better::Lower,
            Bound::Setup {
                share: 0.25,
                floor_s: 0.050,
            },
        );
        // 40 % worse, but only 40 ms: under the 50 ms floor.
        assert_eq!(
            verdict(
                m,
                &side(0.100, &[0.100; 3]),
                &side(0.140, &[0.140; 3]),
                true
            ),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(
                m,
                &side(0.100, &[0.100; 3]),
                &side(0.160, &[0.160; 3]),
                true
            ),
            Verdict::Worse
        );
        // On a 2 s set-up the 25 % share is what counts.
        assert_eq!(
            verdict(m, &side(2.0, &[2.0; 3]), &side(2.4, &[2.4; 3]), true),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(m, &side(2.0, &[2.0; 3]), &side(2.6, &[2.6; 3]), true),
            Verdict::Worse
        );
    }
}
