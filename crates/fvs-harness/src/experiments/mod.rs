//! One module per paper table/figure, plus the ablation suite.
//!
//! | id        | paper artifact                                   |
//! |-----------|--------------------------------------------------|
//! | `table1`  | Table 1 — frequency/power table + model fit      |
//! | `fig1`    | Figure 1 — performance saturation                |
//! | `table2`  | Table 2 — predictor IPC deviation                |
//! | `fig4`    | Figure 4 — fvsst overhead on throughput          |
//! | `fig5`    | Figure 5 — phase tracking time series            |
//! | `fig6`    | Figure 6 — performance vs power limit            |
//! | `fig7`    | Figure 7 — residency under power constraints     |
//! | `table3`  | Table 3 — app performance & energy under budgets |
//! | `fig8`    | Figure 8 — % time at each frequency per app      |
//! | `fig9`    | Figures 9/10 — actual vs desired frequency (gap) |
//! | `example5`| Section 5 worked example                         |
//! | `ablation`| baselines / cascade / idle / actuator / demotion |
//! | `predictors` | footnote-1 predictor-variant study |
//! | `migration` | frequency vs work scheduling comparator |
//! | `cluster` | budget response vs cluster size and latency |
//! | `chaos`   | fault injection: budget held under corruption |

pub mod ablations;
pub mod chaos;
pub mod cluster_scale;
pub mod example5;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod migration;
pub mod predictors;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::export::{run_exported, EXPERIMENTS};
use crate::runs::RunSettings;

/// Experiment ids accepted by the `fvsst-exp` binary, in paper order.
pub const ALL_EXPERIMENTS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Run one experiment by id and return its rendered report.
pub fn run_by_name(name: &str, settings: &RunSettings) -> Option<String> {
    run_exported(name, settings).ok().map(|r| r.rendered)
}
