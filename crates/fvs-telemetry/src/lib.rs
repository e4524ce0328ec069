//! Telemetry for the fvsst scheduler stack.
//!
//! The paper's operational claims — the budget pass honors a dropped
//! `P_max` within the deadline `ΔT`, per-processor predicted loss stays
//! under ε — are only claims until they are observable. This crate turns
//! them into signals, in four pieces:
//!
//! - [`metrics`] — a lock-light registry of named counters, gauges and
//!   fixed-bucket histograms. Updates are plain atomics (no locks, no
//!   allocation); registration and snapshotting take a mutex on the
//!   cold path only. Per-scheduler scoped views come from
//!   [`MetricsRegistry::scoped`].
//! - [`event`] + [`sink`] — the structured [`SchedEvent`] journal: every
//!   scheduling round records its trigger, pass-1 ε choices, each pass-2
//!   demotion (processor, frequency step, predicted loss, power delta),
//!   the cache outcome, budget headroom and wall time, through a
//!   [`Telemetry`] handle feeding one of two sinks (preallocated
//!   in-memory ring, JSONL file) or a fan-out over several. Each event is
//!   declared once, and its JSONL line is generated from the declaration
//!   (non-finite numbers are written as `null`). The disabled
//!   handle costs one branch per emit and allocates nothing — the
//!   counting-allocator proofs in `fvs-sched` run against both the
//!   disabled handle and an enabled preallocated ring.
//! - [`trace`] — causal span tracing: nested RAII spans (cluster round
//!   → tier round → rack refresh → node apply) recorded into a
//!   preallocated ring, exportable as chrome://tracing JSON or a text
//!   flame summary. The disabled [`Tracer`] costs one branch per span.
//! - [`deadline`] — [`BudgetDeadlineTracker`]: stamps budget drops,
//!   measures rounds-to-compliance and wall-time-to-compliance against a
//!   configurable `ΔT`, and counts violations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deadline;
pub mod event;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use deadline::{BudgetDeadlineTracker, ComplianceRecord, OpenEpisode};
pub use event::{FaultDomain, SchedEvent, TriggerKind, WireFaultKind};
pub use metrics::{
    quantile_from_buckets, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, MetricsRegistry,
    ScopedMetrics,
};
pub use sink::Telemetry;
pub use trace::{SpanGuard, SpanId, SpanRecord, Tracer};
