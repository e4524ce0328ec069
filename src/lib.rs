//! # fvsst — frequency and voltage scheduling for servers and clusters
//!
//! A full reproduction of Kotla, Ghiasi, Keller and Rawson, *Scheduling
//! Processor Voltage and Frequency in Server and Cluster Systems* (IBM
//! Research Report / IPPS 2005), as a Rust workspace:
//!
//! - [`model`] — the analytic IPC/CPI prediction model, `PerfLoss`, the
//!   continuous `f_ideal` closed form, and the counter-based estimator.
//! - [`power`] — paper Table 1, voltage tables, the `C·V²·f + B·V²`
//!   analytic power model, energy meters, power supplies and the cascade
//!   failure scenario.
//! - [`workloads`] — the adjustable synthetic benchmark of the paper plus
//!   phase-profile models of gzip, gap, mcf and health.
//! - [`sim`] — the machine substrate: cores, counters, DVFS and
//!   fetch-throttle actuators, the discrete-time engine and trace
//!   recording.
//! - [`sched`] — the contribution: the two-pass `fvsst` scheduler, its
//!   triggers, idle handling and the daemon loop.
//! - [`baselines`] — comparator policies (no-DVFS, uniform scaling, node
//!   power-down, utilization-driven, oracle).
//! - [`cluster`] — multi-node coordination under a global budget: the
//!   paper's global coordinator.
//! - [`telemetry`] — metrics registry, event journal and budget-deadline
//!   accounting.
//! - [`faults`] — fault plans and injectors (corrupt counters, failed
//!   actuations, node outages) with graceful degradation.
//! - [`net`] — the wire protocol and TCP coordinator/agent endpoints
//!   (`fvsst-coordinator`, `fvsst-node`), and `ClusterSim`, which runs
//!   the same protocol over a simulated wire.
//! - [`harness`] — the experiment harness that regenerates every table
//!   and figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use fvsst::prelude::*;
//!
//! // Build the paper's 4-way P630-like machine running a mixed workload.
//! let machine = MachineBuilder::p630()
//!     .workload(0, WorkloadSpec::synthetic(100.0, 2.0e9)) // CPU-bound
//!     .workload(1, WorkloadSpec::synthetic(25.0, 2.0e9))  // memory-bound
//!     .workload(2, WorkloadSpec::synthetic(50.0, 2.0e9))
//!     .workload(3, WorkloadSpec::synthetic(75.0, 2.0e9))
//!     .build();
//!
//! // Attach the fvsst scheduler with a 294 W budget and ε = 5 %.
//! let config = SchedulerConfig::p630()
//!     .with_epsilon(0.05)
//!     .with_budget(BudgetSchedule::constant(294.0));
//! let mut sim = ScheduledSimulation::new(machine, config);
//!
//! // Run one second of simulated time and inspect the outcome.
//! let report = sim.run_for(1.0);
//! assert!(report.final_power_w <= 294.0);
//! ```

pub use fvs_baselines as baselines;
pub use fvs_cluster as cluster;
pub use fvs_faults as faults;
pub use fvs_harness as harness;
pub use fvs_model as model;
pub use fvs_net as net;
pub use fvs_power as power;
pub use fvs_sched as sched;
pub use fvs_sim as sim;
pub use fvs_telemetry as telemetry;
pub use fvs_workloads as workloads;

/// The most common imports in one place: enough to build a machine,
/// schedule it, simulate a cluster, inject faults, watch the telemetry,
/// and run a coordinator/agent pair over real sockets.
pub mod prelude {
    pub use fvs_baselines::NoDvfs;
    pub use fvs_cluster::{ClusterNode, FrequencyCommand, GlobalCoordinator, NodeSummary};
    pub use fvs_faults::{FaultInjector, FaultPlan, WireFaultPlan};
    pub use fvs_harness::{run_capped_app, RunSettings};
    pub use fvs_model::{
        CounterDelta, CpiModel, Estimator, FreqMhz, FrequencySet, MemoryLatencies, PerfLossTable,
    };
    pub use fvs_net::netpoll::{raise_nofile_limit, Poller};
    pub use fvs_net::{
        http_get, AgentConfig, AgentFleet, ClusterConfig, ClusterReport, ClusterSim,
        CoordinatorConfig, CoordinatorServer, CoordinatorStatus, FillStatus, FleetHandle,
        FleetStats, FvsError, NetArgs, ObsHandles, ObsServer, Reactor, ReconnectLadder, Snapshot,
        Transport, WireChaos, WireCodec, WireMsg, LISTENER_TOKEN, SCHEMA_VERSION,
    };
    pub use fvs_power::{
        BudgetEvent, BudgetSchedule, EnergyMeter, FreqPowerTable, PowerSupply, SupplyBank,
        VoltageTable,
    };
    pub use fvs_sched::{FvsstAlgorithm, FvsstScheduler, ScheduledSimulation, SchedulerConfig};
    pub use fvs_sim::{Machine, MachineBuilder};
    pub use fvs_telemetry::{
        BudgetDeadlineTracker, MetricsRegistry, SchedEvent, Telemetry, Tracer,
    };
    pub use fvs_workloads::{AppBenchmark, PhaseSpec, WorkloadSpec};
}
