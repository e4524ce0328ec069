//! Experiment harness: regenerates every table and figure of Kotla et
//! al. (2005) on the simulated substrate, plus the ablations DESIGN.md
//! calls out.
//!
//! Each experiment lives in [`experiments`] as a `run(settings) ->
//! XxxResult` function returning structured data, with a `render()`
//! producing the same rows/series the paper prints. The `fvsst-exp`
//! binary dispatches by experiment id (`table1`, `fig6`, `ablation`,
//! `all`, …).
//!
//! Large parameter sweeps fan out with rayon — every point is an
//! independent simulation, which is exactly the shape `par_iter` wants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod export;
pub mod render;
pub mod runs;

pub use export::{run_and_write_json, ExportedResult};
pub use render::{Series, TableBuilder};
pub use runs::{run_capped_app, CappedRun, RunSettings};
