//! The networked control plane: the paper's node/coordinator split over
//! real sockets, and over a simulated wire.
//!
//! [`fvs_cluster::NodeSummary`] and [`fvs_cluster::FrequencyCommand`]
//! travel a length-prefixed, versioned wire protocol ([`wire`]: the
//! handshake in JSON `FVS1`, every later frame in binary `FVS2`) between
//! a TCP
//! [`coordinator::CoordinatorServer`] wrapping the real
//! [`fvs_cluster::GlobalCoordinator`] and node agents, so heartbeat
//! timeouts, silent-node charging and blind f_min commands run against
//! genuine socket liveness. Each role is one readiness-driven
//! [`reactor`] thread (epoll via the vendored `netpoll` crate — thread
//! count is O(1) in connection count): the coordinator's loop serves
//! every connection, the agent's ([`fleet`]) runs every agent —
//! [`AgentFleet::launch`] is the one way an agent runs, for thousands as
//! for one, a tick taking [`AgentConfig::pace`] of wall time.
//! Each role's rules are kept apart from its loop, with no socket and
//! no clock in them, as a state machine driven by plain calls carrying
//! `now_s`, one of which takes every frame from the peer and says what
//! to write back and whether the link stays open: the node's are
//! [`AgentCore`] ([`AgentCore::frame`]), the coordinator's — and all its
//! scheduling and protocol state — [`CoordinatorCore`]
//! ([`CoordinatorCore::frame`]). The loops drive them, and so does
//! [`sim`]'s [`ClusterSim`], over a virtual-time wire; none keeps a rule.
//! Each connection end's fault, framing and queueing state lives
//! in a [`transport::Transport`], which owns no socket and reads no
//! clock: the same type beside a socket in either loop and at either
//! end of the simulated wire, and no other code writes a control-plane
//! socket. Built entirely on `std::net` TCP — the vendored, offline
//! dependency set has no async runtime, and needs none.
//!
//! The crate also hosts [`FvsError`], the unified error type of the
//! public API surface (wire / I/O / config / validation), and
//! [`args::NetArgs`], the shared CLI flag surface of the net binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod agent_core;
pub mod args;
pub mod chaos;
pub mod coordinator;
pub mod coordinator_core;
pub mod error;
pub mod fleet;
pub mod obs;
pub mod reactor;
pub mod sim;
pub mod snapshot;
pub mod transport;
pub mod wire;

pub use agent::{AgentConfig, ReconnectLadder};
pub use agent_core::{AgentCore, Heard, Phase, Tick};
pub use args::NetArgs;
pub use chaos::{ChaosSide, WireChaos, WriteFault};
pub use coordinator::{CoordinatorConfig, CoordinatorServer, CoordinatorStatus};
pub use coordinator_core::{CoordinatorCore, Ingest, Received, Refusal, RoundSink};
pub use error::FvsError;
pub use fleet::{AgentFleet, FleetHandle, FleetStats};
pub use obs::{http_get, ObsHandles, ObsServer};
pub use reactor::{Reactor, LISTENER_TOKEN};
pub use sim::{ClusterConfig, ClusterReport, ClusterSim, DropResponse};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use transport::{FillStatus, Transport};
pub use wire::{
    decode_payload, decode_payload_binary, encode, encode_binary, encode_with, Frame, FrameReader,
    WireCodec, WireMsg, CODEC_ALL, CODEC_BINARY_BIT, CODEC_JSON_BIT, HEADER_LEN, MAGIC, MAGIC_V2,
    MAX_FRAME_LEN, SCHEMA_VERSION,
};

// The vendored readiness-polling layer, re-exported whole so embedders
// can reach the raw `Poller` (and `raise_nofile_limit`) without adding
// a dependency on the vendor crate themselves.
pub use netpoll;
