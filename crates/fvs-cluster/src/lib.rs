//! Cluster-scale frequency/voltage scheduling.
//!
//! The paper prototypes on a single SMP and leaves the cluster
//! implementation as future work, while claiming the algorithm carries
//! over unchanged: Figure 3 already iterates `for n in Nodes, for p in
//! Procs(n)` under one *global* power limit. This crate implements that
//! claim and the parts the paper says make clusters interesting:
//!
//! - work cannot migrate between nodes (the premise motivating frequency
//!   scheduling over work scheduling),
//! - tiered placement (web / app / db) creates *stable* workload
//!   diversity across nodes (§4.2),
//! - the coordinator knows only what the nodes' summaries tell it, so
//!   it must charge the silent conservatively.
//!
//! Structure: each [`node::ClusterNode`] owns a machine and a local
//! measurement agent that ships per-processor model summaries to the
//! [`coordinator::GlobalCoordinator`] every scheduling period; the
//! coordinator runs the same two-pass algorithm over *all* processors of
//! *all* nodes against the global budget and ships frequency vectors
//! back. How they travel — the protocol, its latency and its faults —
//! is fvs-net's: its `ClusterSim` runs these nodes and this coordinator
//! over a simulated wire, and its sockets over a real one. The
//! [`hierarchy`] budget-delegation tree is a library beside the flat
//! coordinator, compared against it by `hierarchy_differential`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod hierarchy;
pub mod node;

pub use coordinator::{
    FrequencyCommand, GlobalCoordinator, NodeRestore, NodeSummary, DEFAULT_HEARTBEAT_TIMEOUT_S,
    DEFAULT_WORST_CASE_NODE_W,
};
pub use hierarchy::{DelegationTree, HierStats, HierTopology, RackCoordinator, SubtreeAggregate};
pub use node::ClusterNode;
