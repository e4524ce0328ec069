//! The package's library target is empty: `fvs-bench` is its three
//! Criterion benches (`benches/`), the micro-benchmarks a developer
//! iterates on — `scheduler_micro`, `sim_tick` and `net_read_path`.
//! Each prints its medians and leaves them under
//! `target/criterion/<group>/<id>/estimates.json`. Numbers of record
//! come from the repo benchmark (`BENCHMARK.json`); a paper table is
//! regenerated with `fvsst-exp <id>`.
