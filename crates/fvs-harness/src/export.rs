//! Structured (JSON) export of experiment results.
//!
//! Every experiment result type is `Serialize`, so downstream analysis
//! (plotting the figures, regression-tracking the tables) can consume
//! machine-readable output instead of scraping the rendered text:
//!
//! ```sh
//! fvsst-exp table3 --json out/
//! ```
//!
//! writes `out/table3.json` alongside the text report on stdout.

use crate::experiments::{
    ablations, chaos, cluster_scale, example5, fig1, fig4, fig5, fig6, fig7, fig8, fig9, migration,
    predictors, table1, table2, table3,
};
use crate::runs::RunSettings;
use fvs_net::FvsError;
use serde::Serialize;
use std::path::Path;

/// A rendered report plus its JSON form.
#[derive(Debug)]
pub struct ExportedResult {
    /// Human-readable report (same as the non-JSON path prints).
    pub rendered: String,
    /// JSON document of the result struct.
    pub json: String,
}

fn pack<T: Serialize>(rendered: String, value: &T) -> Result<ExportedResult, FvsError> {
    Ok(ExportedResult {
        rendered,
        json: serde_json::to_string_pretty(value)?,
    })
}

/// Runs one experiment and packs both renderings.
type Runner = fn(&RunSettings) -> Result<ExportedResult, FvsError>;

macro_rules! experiments {
    ($($id:literal => |$settings:pat_param| $run:expr),* $(,)?) => {
        [$(($id, (|$settings| {
            let r = $run;
            pack(r.render(), &r)
        }) as Runner)),*]
    };
}

/// Every experiment the harness can run, in paper order: the one list
/// [`ALL_EXPERIMENTS`](crate::experiments::ALL_EXPERIMENTS),
/// [`run_by_name`](crate::experiments::run_by_name) and [`run_exported`]
/// read, so an id cannot be listed and not runnable.
pub(crate) const EXPERIMENTS: &[(&str, Runner)] = &experiments! {
    "table1" => |_| table1::run(),
    "fig1" => |s| fig1::run(s),
    "table2" => |s| table2::run(s),
    "fig4" => |s| fig4::run(s),
    "fig5" => |s| fig5::run(s),
    "fig6" => |s| fig6::run(s),
    "fig7" => |s| fig7::run(s),
    "table3" => |s| table3::run(s),
    "fig8" => |s| fig8::run(s),
    "fig9" => |s| fig9::run(s),
    "example5" => |_| example5::run(),
    "ablation" => |s| ablations::run(s),
    "predictors" => |s| predictors::run(s),
    "migration" => |s| migration::run(s),
    "cluster" => |s| cluster_scale::run(s),
    "chaos" => |s| chaos::run(s),
};

/// Run one experiment by id, returning both renderings.
///
/// An unknown id is a [`FvsError::Validation`]; a serialization failure
/// surfaces as [`FvsError::Wire`].
pub fn run_exported(name: &str, settings: &RunSettings) -> Result<ExportedResult, FvsError> {
    match EXPERIMENTS.iter().find(|(id, _)| *id == name) {
        Some((_, run)) => run(settings),
        None => Err(FvsError::validation(format!("unknown experiment '{name}'"))),
    }
}

/// Run an experiment and write `<dir>/<name>.json`; returns the rendered
/// text for stdout. Filesystem failures surface as [`FvsError::Io`].
pub fn run_and_write_json(
    name: &str,
    settings: &RunSettings,
    dir: &Path,
) -> Result<String, FvsError> {
    let result = run_exported(name, settings)?;
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.json")), &result.json)?;
    Ok(result.rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_exports_valid_json() {
        let settings = RunSettings::fast();
        // Keep the cheap ones in the unit test; the expensive ones are
        // covered by their own experiment tests and the integration run.
        for name in ["table1", "example5"] {
            let r = run_exported(name, &settings).expect("known id serializes");
            let parsed: serde_json::Value = serde_json::from_str(&r.json).unwrap();
            assert!(parsed.is_object() || parsed.is_array());
            assert!(!r.rendered.is_empty());
        }
        let err = run_exported("nope", &settings).unwrap_err();
        assert_eq!(err.category(), "validation");
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn json_files_land_on_disk() {
        let dir = std::env::temp_dir().join("fvsst-export-test");
        let _ = std::fs::remove_dir_all(&dir);
        let rendered = run_and_write_json("table1", &RunSettings::fast(), &dir).unwrap();
        assert!(rendered.contains("Table 1"));
        let json = std::fs::read_to_string(dir.join("table1.json")).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["rows"].as_array().unwrap().len(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
