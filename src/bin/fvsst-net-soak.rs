//! `fvsst-net-soak` — a loopback scale soak of the transport: thousands
//! of node agents against one coordinator.
//!
//! ```text
//! fvsst-net-soak [--agents N] [--run S] [--tick S] [--summary-every N]
//!                [--period S] [--deadline S] [--ramp S] [--seed N]
//!                [--max-conns N]
//! ```
//!
//! Binds a [`CoordinatorServer`] (one reactor thread, however many
//! connections), then re-executes itself as a child process running an
//! [`AgentFleet`] of `--agents` simulated 4-way nodes (one reactor
//! thread, however many agents). Two processes because each side of a
//! connection costs a file descriptor: at 10k agents one process would
//! need 20k+ descriptors, which common `RLIMIT_NOFILE` hard caps (this
//! container's included) refuse — split, each side fits comfortably.
//! The split also makes the O(1)-threads claim crisp: each process is
//! measured on its own.
//!
//! Once the whole fleet has handshaken the soak measures `--run`
//! seconds of steady state, dropping the global budget from full power
//! to roughly half at the midpoint: the paper's ΔT guarantee must hold
//! under full connection load — the conservative power estimate back
//! under the new budget within `--deadline` seconds, zero violations.
//!
//! Prints one JSON object (`"schema": "fvsst-net-soak/1"`) for CI to
//! `jq`, and exits non-zero if the fleet never fully connects, the
//! budget drop misses its deadline, or either process needed more than
//! O(1) threads.

use fvsst::net::args::{parse_f64, parse_usize};
use fvsst::prelude::*;
use fvsst::telemetry::Histogram;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

struct Args {
    agents: usize,
    run_s: f64,
    tick_s: f64,
    summary_every: u32,
    period_s: f64,
    deadline_s: f64,
    ramp_s: f64,
    seed: u64,
    net: NetArgs,
    /// Internal: run the fleet half against `--connect ADDR` (set when
    /// the driver re-executes itself; not part of the public surface).
    fleet_connect: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: fvsst-net-soak [--agents N] [--run S] [--tick S] \
         [--summary-every N] [--period S] [--deadline S] [--ramp S] [--seed N] {}",
        net_args().usage_fragment()
    )
}

/// The shared flag groups this binary supports.
fn net_args() -> NetArgs {
    NetArgs::new().with_max_conns()
}

fn parse_args(args: &[String]) -> Result<Args, FvsError> {
    let mut out = Args {
        agents: 10_000,
        run_s: 30.0,
        tick_s: 0.5,
        summary_every: 2,
        period_s: 1.0,
        deadline_s: 10.0,
        ramp_s: 10.0,
        seed: 3845,
        net: net_args(),
        fleet_connect: None,
    };
    let mut i = 0;
    while i < args.len() {
        if let Some(next) = out.net.accept(args, i)? {
            i = next;
            continue;
        }
        match args[i].as_str() {
            "--agents" => {
                i += 1;
                out.agents = parse_usize("--agents", args.get(i), 1)?;
            }
            "--run" => {
                i += 1;
                out.run_s = parse_f64("--run", args.get(i))?;
            }
            "--tick" => {
                i += 1;
                out.tick_s = parse_f64("--tick", args.get(i))?;
            }
            "--summary-every" => {
                i += 1;
                out.summary_every = parse_usize("--summary-every", args.get(i), 1)? as u32;
            }
            "--period" => {
                i += 1;
                out.period_s = parse_f64("--period", args.get(i))?;
            }
            "--deadline" => {
                i += 1;
                out.deadline_s = parse_f64("--deadline", args.get(i))?;
            }
            "--ramp" => {
                i += 1;
                out.ramp_s = parse_f64("--ramp", args.get(i))?;
            }
            "--seed" => {
                i += 1;
                out.seed = args
                    .get(i)
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| FvsError::config("--seed requires an integer"))?;
            }
            "--fleet-connect" => {
                i += 1;
                out.fleet_connect = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| FvsError::config("--fleet-connect requires an address"))?,
                );
            }
            "--help" | "-h" => return Err(FvsError::config(usage())),
            other => {
                return Err(FvsError::config(format!(
                    "unknown argument '{other}'\n{}",
                    usage()
                )))
            }
        }
        i += 1;
    }
    Ok(out)
}

/// Live threads of a process, from procfs. Returns 0 where procfs is
/// unavailable (the O(1)-threads gate is skipped for that side).
fn thread_count(pid: Option<u32>) -> u64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn build_fleet(agents: usize, seed: u64) -> Vec<ClusterNode> {
    (0..agents)
        .map(|id| {
            let mut b = MachineBuilder::p630();
            for core in 0..4 {
                // Spread intensities deterministically so the scheduler
                // sees a heterogeneous cluster, like the paper's mix.
                let class = (id as u64)
                    .wrapping_mul(7)
                    .wrapping_add(core as u64 * 3)
                    .wrapping_add(seed)
                    % 5;
                let intensity = 20.0 * class as f64 + 20.0;
                b = b.workload(core, WorkloadSpec::synthetic(intensity, 1.0e18));
            }
            ClusterNode::new(id, b.build(), None)
        })
        .collect()
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// The child half: run the fleet against the parent's coordinator until
/// stdin closes (or says anything), then report final counters as one
/// JSON line on stdout.
fn run_fleet_child(args: Args) -> Result<(), FvsError> {
    let connect = args.fleet_connect.expect("child mode requires an address");
    let want_fds = (args.agents as u64) * 2 + 512;
    if let Err(e) = raise_nofile_limit(want_fds) {
        eprintln!("fleet: setrlimit failed ({e}); continuing with current limit");
    }
    let heartbeat_s = (args.tick_s * args.summary_every as f64 * 6.0).max(10.0);
    let fleet = AgentFleet::launch(
        build_fleet(args.agents, args.seed),
        connect.as_str(),
        AgentConfig::default_lan()
            .with_tick_s(args.tick_s)
            // Real time: a tick takes as long on the wall as it simulates.
            .with_pace(Duration::from_secs_f64(args.tick_s))
            .with_summary_every(args.summary_every)
            .with_jitter_seed(args.seed)
            .with_link_timeout(Duration::from_secs_f64(heartbeat_s * 2.0)),
        Duration::from_secs_f64(args.ramp_s),
    )?;
    // Block until the driver is done with us.
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    let threads = thread_count(None);
    let stats = fleet.stop();
    println!(
        "{{\"connected\": {}, \"summaries_sent\": {}, \"ceilings_applied\": {}, \
         \"reconnects\": {}, \"version_rejects\": {}, \"threads\": {}}}",
        stats.connected(),
        stats.summaries_sent(),
        stats.ceilings_applied(),
        stats.reconnects(),
        stats.version_rejects(),
        threads
    );
    Ok(())
}

/// Pull `"key": <number>` out of the child's flat JSON stats line.
fn json_u64(line: &str, key: &str) -> u64 {
    line.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// What one soak measured: the fields of the line CI reads with `jq`.
struct Report<'a> {
    agents: usize,
    run_s: f64,
    connected: usize,
    connected_end: usize,
    /// The fleet child's own stats line; its counters are copied over.
    fleet_line: &'a str,
    ingest_per_s: f64,
    fanout_p50_ms: f64,
    fanout_p99_ms: f64,
    round_p99_ms: f64,
    staleness_p50_ms: f64,
    budget_full_w: f64,
    budget_drop_w: f64,
    drop_complied: bool,
    compliance_wall_s: f64,
    compliances: u64,
    violations: u64,
    final_power_w: f64,
    threads_coordinator: u64,
    threads_fleet: u64,
    ok: bool,
}

impl Report<'_> {
    /// The one JSON object the soak prints.
    fn line(&self) -> String {
        format!(
            "{{\"schema\": \"fvsst-net-soak/1\", \"agents\": {}, \"run_s\": {:.1}, \
             \"connected\": {}, \"connected_end\": {}, \"summaries_sent\": {}, \
             \"ceilings_applied\": {}, \"reconnects\": {}, \"ingest_per_s\": {:.1}, \
             \"fanout_p50_ms\": {:.3}, \"fanout_p99_ms\": {:.3}, \"round_p99_ms\": {:.3}, \
             \"staleness_p50_ms\": {:.3}, \"budget_full_w\": {:.0}, \"budget_drop_w\": {:.0}, \
             \"drop_complied\": {}, \"compliance_wall_s\": {:.3}, \"compliances\": {}, \
             \"violations\": {}, \"final_power_w\": {:.0}, \"threads_coordinator\": {}, \
             \"threads_fleet\": {}, \"ok\": {}}}",
            self.agents,
            self.run_s,
            self.connected,
            self.connected_end,
            json_u64(self.fleet_line, "summaries_sent"),
            json_u64(self.fleet_line, "ceilings_applied"),
            json_u64(self.fleet_line, "reconnects"),
            self.ingest_per_s,
            self.fanout_p50_ms,
            self.fanout_p99_ms,
            self.round_p99_ms,
            self.staleness_p50_ms,
            self.budget_full_w,
            self.budget_drop_w,
            self.drop_complied,
            self.compliance_wall_s,
            self.compliances,
            self.violations,
            self.final_power_w,
            self.threads_coordinator,
            self.threads_fleet,
            self.ok
        )
    }
}

fn run(args: Args) -> Result<bool, FvsError> {
    // One descriptor per accepted agent plus the listener, epoll and
    // slack; the fleet's sockets live in the child process.
    let want_fds = (args.agents as u64) * 2 + 512;
    match raise_nofile_limit(want_fds) {
        Ok(limit) => eprintln!("fd limit: {limit} (wanted {want_fds})"),
        Err(e) => eprintln!("fd limit: setrlimit failed ({e}); continuing with current limit"),
    }

    let telemetry = Telemetry::memory(1024);
    let registry = telemetry.registry().expect("memory telemetry").clone();
    let budget_full_w = args.agents as f64 * 560.0;
    let budget_drop_w = args.agents as f64 * 300.0;
    let heartbeat_s = (args.tick_s * args.summary_every as f64 * 6.0).max(10.0);

    let server = CoordinatorServer::bind(
        "127.0.0.1:0",
        args.agents,
        FvsstAlgorithm::p630(),
        CoordinatorConfig::default_lan()
            .with_period_s(args.period_s)
            .with_heartbeat_timeout_s(heartbeat_s)
            .with_deadline_s(args.deadline_s)
            .with_initial_budget_w(budget_full_w)
            .with_read_deadline_s(heartbeat_s * 2.0)
            .with_max_conns(args.net.max_conns)
            .with_telemetry(telemetry.clone()),
    )?;
    eprintln!(
        "coordinator on {} ({} agents, budget {:.0} W)",
        server.local_addr(),
        args.agents,
        budget_full_w
    );

    let exe = std::env::current_exe().map_err(FvsError::Io)?;
    let mut child = Command::new(exe)
        .args([
            "--fleet-connect",
            &server.local_addr().to_string(),
            "--agents",
            &args.agents.to_string(),
            "--tick",
            &args.tick_s.to_string(),
            "--summary-every",
            &args.summary_every.to_string(),
            "--ramp",
            &args.ramp_s.to_string(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(FvsError::Io)?;
    let child_pid = child.id();

    // Phase 0: ramp. The coordinator's own connection count is ground
    // truth for "the whole fleet is in".
    let connect_deadline = Duration::from_secs_f64(args.ramp_s + 60.0);
    let all_connected = wait_until(connect_deadline, || {
        server.status().connections == args.agents
    });
    let connected_peak = server.status().connections;
    eprintln!("connected {}/{} after ramp", connected_peak, args.agents);

    // The coordinator's instruments, fetched by name from the shared
    // registry (registration interns, so these are the live Arcs).
    let net = registry.scoped("net");
    let staleness = net.histogram("summary_staleness_s", &Histogram::latency_bounds());
    let fanout = net.histogram("fanout_wall_s", &Histogram::latency_bounds());
    let round = net.histogram("round_wall_s", &Histogram::latency_bounds());

    // Phase 1: steady state for half the run.
    let measure_start = Instant::now();
    let ingested_at_start = staleness.count();
    std::thread::sleep(Duration::from_secs_f64(args.run_s / 2.0));

    // Phase 2: budget drop under full load; ΔT starts now.
    eprintln!("budget drop -> {budget_drop_w:.0} W");
    server.set_budget(budget_drop_w);
    std::thread::sleep(Duration::from_secs_f64(args.run_s / 2.0));

    let measured_s = measure_start.elapsed().as_secs_f64();
    let ingested = staleness.count() - ingested_at_start;
    let ingest_per_s = ingested as f64 / measured_s;
    let threads_coord = thread_count(None);
    let threads_fleet = thread_count(Some(child_pid));
    let connected_end = server.status().connections;

    // Wind the child down and collect its stats line.
    let mut child_stdin = child.stdin.take().expect("child stdin piped");
    let _ = child_stdin.write_all(b"stop\n");
    drop(child_stdin);
    let mut fleet_line = String::new();
    if let Some(out) = child.stdout.take() {
        let _ = BufReader::new(out).read_line(&mut fleet_line);
    }
    let _ = child.wait();
    let status = server.shutdown()?;

    // The transport claim: thread count is O(1) in agent count — each
    // process runs main + one reactor (+ a couple of runtime helpers at
    // most) whether there are 8 agents or 10k. Generous fixed bound,
    // zero tolerance for per-connection threads. procfs failure (count
    // 0) skips the gate rather than failing it.
    let threads_ok = threads_coord <= 16 && threads_fleet <= 16;
    let drop_complied = status
        .last_compliance
        .map(|c| c.within_deadline)
        .unwrap_or(false)
        && status.violations == 0;
    let ok = all_connected && drop_complied && threads_ok;

    println!(
        "{}",
        Report {
            agents: args.agents,
            run_s: args.run_s,
            connected: connected_peak,
            connected_end,
            fleet_line: &fleet_line,
            ingest_per_s,
            fanout_p50_ms: fanout.quantile(0.5) * 1e3,
            fanout_p99_ms: fanout.quantile(0.99) * 1e3,
            round_p99_ms: round.quantile(0.99) * 1e3,
            staleness_p50_ms: staleness.quantile(0.5) * 1e3,
            budget_full_w,
            budget_drop_w,
            drop_complied,
            compliance_wall_s: status.last_compliance.map(|c| c.wall_s).unwrap_or(f64::NAN),
            compliances: status.compliances,
            violations: status.violations,
            final_power_w: status.conservative_power_w,
            threads_coordinator: threads_coord,
            threads_fleet,
            ok,
        }
        .line()
    );
    if !ok {
        eprintln!(
            "soak FAILED: all_connected={all_connected} drop_complied={drop_complied} \
             threads=({threads_coord}, {threads_fleet})"
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.fleet_connect.is_some() {
        return match run_fleet_child(parsed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fvsst-net-soak (fleet): {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fvsst-net-soak: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key Net soak smoke's two `jq` filters read is in the line,
    /// with the type the filter compares it as.
    #[test]
    fn report_line_carries_every_key_ci_reads() {
        let line = Report {
            agents: 512,
            run_s: 10.0,
            connected: 512,
            connected_end: 512,
            fleet_line: "{\"connected\": 512, \"summaries_sent\": 9000}",
            ingest_per_s: 511.9,
            fanout_p50_ms: 3.2,
            fanout_p99_ms: 5.6,
            round_p99_ms: 10.0,
            staleness_p50_ms: 1.0,
            budget_full_w: 286_720.0,
            budget_drop_w: 153_600.0,
            drop_complied: true,
            compliance_wall_s: 0.5,
            compliances: 1,
            violations: 0,
            final_power_w: 150_000.0,
            threads_coordinator: 2,
            threads_fleet: 2,
            ok: true,
        }
        .line();
        let json = serde_json::from_str(&line).expect("the report line is one JSON object");
        for key in ["ok", "drop_complied"] {
            assert_eq!(json[key].as_bool(), Some(true), "{key} in {line}");
        }
        for (key, want) in [
            ("connected", 512),
            ("summaries_sent", 9000),
            ("violations", 0),
            ("threads_coordinator", 2),
            ("threads_fleet", 2),
        ] {
            assert_eq!(json[key].as_u64(), Some(want), "{key} in {line}");
        }
        for key in ["ingest_per_s", "fanout_p99_ms"] {
            assert!(json[key].as_f64().is_some(), "{key} in {line}");
        }
    }
}
