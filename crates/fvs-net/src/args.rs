//! The flags the net binaries share: `--obs-addr`, `--telemetry`, the
//! `--chaos` pair, the snapshot group and `--max-conns`. A binary enables
//! the groups it takes, offers each token its own parse loop does not
//! know to [`NetArgs::accept`], and splices [`NetArgs::usage_fragment`]
//! into its usage text. [`NetArgs`] also builds what the flags describe:
//! the telemetry sink, the span tracer and the [`WireChaos`].

use crate::chaos::WireChaos;
use crate::error::FvsError;
use fvs_faults::WireFaultPlan;
use fvs_telemetry::{Telemetry, Tracer};

/// Parse a non-negative finite float flag value.
pub fn parse_f64(flag: &str, value: Option<&String>) -> Result<f64, FvsError> {
    value
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| FvsError::config(format!("{flag} requires a non-negative number")))
}

/// Parse an integer flag value with a lower bound.
pub fn parse_usize(flag: &str, value: Option<&String>, min: usize) -> Result<usize, FvsError> {
    value
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|n| *n >= min)
        .ok_or_else(|| FvsError::config(format!("{flag} requires an integer >= {min}")))
}

/// The shared flag groups of the net binaries. See the module docs.
#[derive(Debug, Clone)]
pub struct NetArgs {
    obs_enabled: bool,
    telemetry_enabled: bool,
    chaos_enabled: bool,
    snapshots_enabled: bool,
    max_conns_enabled: bool,

    /// `--obs-addr ADDR`: observability listener address.
    pub obs_addr: Option<String>,
    /// `--telemetry FILE`: JSONL journal path.
    pub telemetry_path: Option<String>,
    /// `--chaos PLAN`: wire-fault plan spec (unparsed; see
    /// [`NetArgs::wire_chaos`]).
    pub chaos_plan: Option<String>,
    /// `--chaos-seed N`: base seed for the fault streams.
    pub chaos_seed: u64,
    /// `--snapshot FILE`: crash-recovery snapshot path.
    pub snapshot_path: Option<String>,
    /// `--snapshot-every S`: snapshot cadence.
    pub snapshot_every_s: f64,
    /// `--resume`: restore from the snapshot file on startup.
    pub resume: bool,
    /// `--grace S`: resync grace window after a resume.
    pub grace_s: f64,
    /// `--max-conns N`: accept limit (connections beyond it are
    /// refused at accept time).
    pub max_conns: usize,
}

impl Default for NetArgs {
    fn default() -> Self {
        NetArgs::new()
    }
}

impl NetArgs {
    /// No groups enabled; chain `with_*` calls for the ones the binary
    /// supports.
    pub fn new() -> Self {
        NetArgs {
            obs_enabled: false,
            telemetry_enabled: false,
            chaos_enabled: false,
            snapshots_enabled: false,
            max_conns_enabled: false,
            obs_addr: None,
            telemetry_path: None,
            chaos_plan: None,
            chaos_seed: 0,
            snapshot_path: None,
            snapshot_every_s: 1.0,
            resume: false,
            grace_s: 2.0,
            max_conns: usize::MAX,
        }
    }

    /// Enable `--obs-addr`.
    pub fn with_obs(mut self) -> Self {
        self.obs_enabled = true;
        self
    }

    /// Enable `--telemetry`.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry_enabled = true;
        self
    }

    /// Enable `--chaos` / `--chaos-seed`.
    pub fn with_chaos(mut self) -> Self {
        self.chaos_enabled = true;
        self
    }

    /// Enable `--snapshot` / `--snapshot-every` / `--resume` /
    /// `--grace`.
    pub fn with_snapshots(mut self) -> Self {
        self.snapshots_enabled = true;
        self
    }

    /// Enable `--max-conns`.
    pub fn with_max_conns(mut self) -> Self {
        self.max_conns_enabled = true;
        self
    }

    /// Offer one token from the binary's parse loop. Returns
    /// `Ok(Some(next_i))` when the token (and any value it takes) was
    /// consumed, `Ok(None)` when it belongs to the binary.
    pub fn accept(&mut self, args: &[String], i: usize) -> Result<Option<usize>, FvsError> {
        let flag = args[i].as_str();
        match flag {
            "--obs-addr" if self.obs_enabled => {
                self.obs_addr = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| FvsError::config("--obs-addr requires an address"))?,
                );
                Ok(Some(i + 2))
            }
            "--telemetry" if self.telemetry_enabled => {
                self.telemetry_path = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| FvsError::config("--telemetry requires a file path"))?,
                );
                Ok(Some(i + 2))
            }
            "--chaos" if self.chaos_enabled => {
                self.chaos_plan = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| FvsError::config("--chaos requires a wire-fault plan"))?,
                );
                Ok(Some(i + 2))
            }
            "--chaos-seed" if self.chaos_enabled => {
                self.chaos_seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| FvsError::config("--chaos-seed requires an integer"))?;
                Ok(Some(i + 2))
            }
            "--snapshot" if self.snapshots_enabled => {
                self.snapshot_path = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| FvsError::config("--snapshot requires a file path"))?,
                );
                Ok(Some(i + 2))
            }
            "--snapshot-every" if self.snapshots_enabled => {
                self.snapshot_every_s = parse_f64("--snapshot-every", args.get(i + 1))?;
                Ok(Some(i + 2))
            }
            "--resume" if self.snapshots_enabled => {
                self.resume = true;
                Ok(Some(i + 1))
            }
            "--grace" if self.snapshots_enabled => {
                self.grace_s = parse_f64("--grace", args.get(i + 1))?;
                Ok(Some(i + 2))
            }
            "--max-conns" if self.max_conns_enabled => {
                self.max_conns = parse_usize("--max-conns", args.get(i + 1), 1)?;
                Ok(Some(i + 2))
            }
            _ => Ok(None),
        }
    }

    /// Usage text for the enabled groups, in flag order, for the
    /// binary to splice into its own usage string.
    pub fn usage_fragment(&self) -> String {
        let mut parts = Vec::new();
        if self.telemetry_enabled {
            parts.push("[--telemetry FILE]");
        }
        if self.obs_enabled {
            parts.push("[--obs-addr ADDR]");
        }
        if self.snapshots_enabled {
            parts.push("[--snapshot FILE] [--snapshot-every S] [--resume] [--grace S]");
        }
        if self.chaos_enabled {
            parts.push("[--chaos PLAN] [--chaos-seed N]");
        }
        if self.max_conns_enabled {
            parts.push("[--max-conns N]");
        }
        parts.join(" ")
    }

    /// The parsed chaos configuration. `seed_mix` is xor-mixed into the
    /// base seed (agents mix their node id so each gets a distinct but
    /// reproducible fault stream; the coordinator passes 0).
    pub fn wire_chaos(&self, seed_mix: u64) -> Result<WireChaos, FvsError> {
        match &self.chaos_plan {
            None => Ok(WireChaos::none()),
            Some(spec) => {
                let plan = WireFaultPlan::parse(spec)
                    .map_err(|e| FvsError::config(format!("--chaos: {e}")))?;
                Ok(WireChaos::new(plan, self.chaos_seed ^ seed_mix))
            }
        }
    }

    /// The telemetry sink these flags describe: a JSONL file, an
    /// in-memory ring for `/journal` when an observability listener is
    /// mounted, both (fanout), or disabled.
    pub fn telemetry(&self) -> Result<Telemetry, FvsError> {
        Ok(match (&self.telemetry_path, &self.obs_addr) {
            (Some(path), Some(_)) => {
                Telemetry::fanout(vec![Telemetry::jsonl(path)?, Telemetry::memory(1024)])
            }
            (Some(path), None) => Telemetry::jsonl(path)?,
            (None, Some(_)) => Telemetry::memory(1024),
            (None, None) => Telemetry::disabled(),
        })
    }

    /// A span tracer when an observability listener will serve
    /// `/trace`, disabled otherwise.
    pub fn tracer(&self) -> Tracer {
        if self.obs_addr.is_some() {
            Tracer::ring(4096)
        } else {
            Tracer::disabled()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn accepts_only_enabled_groups() {
        let mut net = NetArgs::new().with_chaos().with_max_conns();
        let args = argv(&["--chaos", "wire=0.1", "--obs-addr", "x", "--max-conns", "8"]);
        assert_eq!(net.accept(&args, 0).unwrap(), Some(2));
        assert_eq!(net.accept(&args, 2).unwrap(), None, "obs group is off");
        assert_eq!(net.accept(&args, 4).unwrap(), Some(6));
        assert_eq!(net.chaos_plan.as_deref(), Some("wire=0.1"));
        assert_eq!(net.max_conns, 8);
    }

    #[test]
    fn full_surface_parses_and_derives() {
        let mut net = NetArgs::new()
            .with_obs()
            .with_telemetry()
            .with_chaos()
            .with_snapshots()
            .with_max_conns();
        let args = argv(&[
            "--obs-addr",
            "127.0.0.1:0",
            "--chaos",
            "wire=0.05",
            "--chaos-seed",
            "42",
            "--snapshot",
            "/tmp/snap",
            "--snapshot-every",
            "2.5",
            "--resume",
            "--grace",
            "3",
            "--max-conns",
            "512",
        ]);
        let mut i = 0;
        while i < args.len() {
            i = net.accept(&args, i).unwrap().expect("all flags enabled");
        }
        assert_eq!(net.chaos_seed, 42);
        assert!(net.resume);
        assert_eq!(net.snapshot_every_s, 2.5);
        assert_eq!(net.max_conns, 512);
        let chaos = net.wire_chaos(7).unwrap();
        assert!(!chaos.is_quiet());
        assert_eq!(chaos.seed, 42 ^ 7);
        assert!(net.telemetry().unwrap().enabled());
        assert!(net.tracer().enabled());
        assert!(net.usage_fragment().contains("--max-conns"));
    }

    #[test]
    fn flag_errors_are_config_errors() {
        let mut net = NetArgs::new().with_max_conns();
        let too_few = argv(&["--max-conns", "0"]);
        assert!(matches!(net.accept(&too_few, 0), Err(FvsError::Config(_))));
        let no_value = argv(&["--max-conns"]);
        assert!(matches!(net.accept(&no_value, 0), Err(FvsError::Config(_))));
    }
}
