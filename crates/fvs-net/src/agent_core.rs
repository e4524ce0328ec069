//! The node role's rules, without its sockets.
//!
//! [`AgentCore`] is one agent as a state machine: its [`ClusterNode`],
//! where it is in the life of its connection ([`Phase`]), its
//! [`ReconnectLadder`] and when its next connect is due, the fence (the
//! highest coordinator epoch it has acknowledged, and it serves none
//! below it), when a frame last decoded, how many ticks the open
//! measurement window holds, and the protocol fields of its
//! [`AgentConfig`]. It is driven by plain calls that carry the time as
//! `now_s`, seconds on whatever clock the caller keeps:
//! [`connected`](AgentCore::connected) when a socket has opened,
//! [`tick`](AgentCore::tick) once per dispatch period,
//! [`frame`](AgentCore::frame) for every frame that decodes and
//! [`lost`](AgentCore::lost) when the link is gone. It alone says when to
//! reconnect: a driver ticks every agent, linked or not, and opens a link
//! when a tick says [`Tick::Connect`]. A node it holds no ceiling for
//! runs at `f_min`: from construction, and after a lost link or a refusal.
//!
//! It opens no socket, reads no clock and never sleeps, so the node
//! side of the paper's ΔT can be asked as a table of calls
//! (`tests/agent_core.rs`) and a virtual-time replay can pass frames
//! between it and a [`CoordinatorCore`](crate::CoordinatorCore)
//! (`tests/sans_io_loop.rs`). The loop in [`crate::fleet`] is the one
//! production caller: it owns the sockets, the poller and the timers,
//! and turns readiness and due timers into these calls.

use crate::agent::{AgentConfig, ReconnectLadder};
use crate::wire::{WireCodec, WireMsg, CODEC_ALL};
use fvs_cluster::{ClusterNode, NodeSummary};
use fvs_telemetry::{SchedEvent, Telemetry, Tracer, WireFaultKind};

/// Where an agent is in the life of its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No socket: waiting out a backoff rung, or not yet connected.
    Backoff,
    /// Hello sent, ack awaited.
    Handshaking,
    /// Ticking and shipping summaries.
    Running,
    /// Version-refused: permanently out of the game.
    Dead,
}

/// What one dispatch period asks of the link.
#[derive(Debug, Clone, PartialEq)]
pub enum Tick {
    /// Nothing new to say: flush what is queued.
    Flush,
    /// The measurement window closed: send this, then flush.
    Summary(NodeSummary),
    /// No frame has decoded for `link_timeout`: drop the link.
    Silent,
    /// No link, and the wait is over: open one and send
    /// [`connected`](AgentCore::connected)'s hello.
    Connect,
}

/// What a decoded frame meant to the agent that received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heard {
    /// Not for this agent or not for this phase, or a sign of life from
    /// the current coordinator and no more.
    Nothing,
    /// The hello was accepted. `reconnect` is false for this agent's
    /// first accepted handshake and true for every later one.
    Accepted {
        /// This agent had been accepted before.
        reconnect: bool,
    },
    /// A ceiling for this node, now applied to its machine (one it
    /// cannot run is journaled as a `wire_fault` and heard as nothing).
    Applied,
    /// The sender's epoch is below the fence — a stale survivor, or an
    /// old build that knows no epochs. Drop the link and retry through
    /// the ladder: the current coordinator may come back on this
    /// address.
    Fenced,
    /// Refused over another schema version, or over a node id outside
    /// the coordinator's cluster. Retrying as the same node on the same
    /// schema can never succeed, so the agent is [`Phase::Dead`] for good
    /// instead of storming. Drop the link.
    Refused,
}

/// One agent as a state machine. See the module docs.
#[derive(Debug)]
pub struct AgentCore {
    node: ClusterNode,
    phase: Phase,
    ladder: ReconnectLadder,
    /// When a [`Phase::Backoff`] agent connects next.
    connect_at_s: f64,
    /// Highest coordinator epoch ever acknowledged: the fence.
    last_epoch: u64,
    /// When a frame last decoded, or the hello left
    /// (see [`AgentConfig::link_timeout`]).
    last_rx_s: f64,
    /// Ticks in the open measurement window.
    ticks: u32,
    ever_accepted: bool,
    tick_s: f64,
    summary_every: u32,
    link_timeout_s: f64,
    version: u32,
    tracer: Tracer,
    telemetry: Telemetry,
}

impl AgentCore {
    /// An agent for `node`, not yet connected, its every core at `f_min`.
    /// The ladder's jitter is seeded from the config's seed mixed with the
    /// node id, so agents sharing one config still spread out.
    pub fn new(node: ClusterNode, config: &AgentConfig) -> Self {
        let id = node.id as u64;
        let mut core = AgentCore {
            node,
            phase: Phase::Backoff,
            ladder: ReconnectLadder::new(
                config.backoff_base,
                config.backoff_max,
                config.jitter_seed ^ id.wrapping_mul(0x517C_C1B7_2722_0A95),
            ),
            connect_at_s: 0.0,
            last_epoch: 0,
            last_rx_s: 0.0,
            ticks: 0,
            ever_accepted: false,
            tick_s: config.tick_s,
            summary_every: config.summary_every,
            link_timeout_s: config.link_timeout.as_secs_f64(),
            version: config.version,
            tracer: config.tracer.clone(),
            telemetry: config.telemetry.clone(),
        };
        core.floor();
        core
    }

    /// Every core to `f_min`, closing each changed window as a ceiling would.
    fn floor(&mut self) {
        let machine = self.node.machine();
        self.node
            .apply(&vec![machine.frequency_set().min(); machine.num_cores()]);
    }

    /// The node this agent drives.
    pub fn node(&self) -> &ClusterNode {
        &self.node
    }

    /// The node, for a simulator to power its machine down and up.
    pub fn node_mut(&mut self) -> &mut ClusterNode {
        &mut self.node
    }

    /// Where the agent is in the life of its connection.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// A socket opened at `now_s`. Returns the hello to send on it; the
    /// silence that `link_timeout` bounds starts here. The hello
    /// advertises both codecs: it travels as `FVS1`, and every frame
    /// after it as `FVS2`.
    pub fn connected(&mut self, now_s: f64) -> WireMsg {
        self.phase = Phase::Handshaking;
        self.last_rx_s = now_s;
        WireMsg::Hello {
            node: self.node.id,
            procs: self.node.machine().num_cores(),
            version: self.version,
            last_epoch: self.last_epoch,
            codecs: CODEC_ALL,
        }
    }

    /// One dispatch period has passed. A machine does not stop because
    /// its link did: it advances in every phase but [`Phase::Dead`]. An
    /// agent without a link connects once its wait is over. A running
    /// agent owes a summary every `summary_every`-th tick; any other
    /// only flushes (a delayed hello moves on the flush that finds it
    /// due). Only an open link can be silent.
    pub fn tick(&mut self, now_s: f64) -> Tick {
        if self.phase == Phase::Dead {
            return Tick::Flush;
        }
        self.node.tick(self.tick_s);
        let window_closed = self.phase == Phase::Running && {
            self.ticks += 1;
            self.ticks.is_multiple_of(self.summary_every)
        };
        let linked = self.phase != Phase::Backoff;
        if !linked && now_s >= self.connect_at_s {
            Tick::Connect
        } else if linked && now_s - self.last_rx_s > self.link_timeout_s {
            Tick::Silent
        } else if window_closed {
            Tick::Summary(self.node.summarize())
        } else {
            Tick::Flush
        }
    }

    /// A frame decoded at `now_s`. Any frame refreshes a running link —
    /// an ack, a heartbeat, a ceiling, one addressed to another node;
    /// bytes that do not parse never get here. A hello waits for its ack
    /// alone. Acks and heartbeats carry their sender's epoch and count
    /// only if that is no lower than the fence.
    pub fn frame(&mut self, msg: &WireMsg, now_s: f64) -> Heard {
        if self.phase != Phase::Handshaking || matches!(msg, WireMsg::HelloAck { .. }) {
            self.last_rx_s = now_s;
        }
        let (epoch, accepted) = match *msg {
            // The ack's codec byte is not read: every coordinator reads
            // both magics.
            WireMsg::HelloAck {
                accepted,
                version,
                epoch,
                ..
            } if self.phase == Phase::Handshaking => {
                if !accepted && version != self.version {
                    // Another schema: its epoch says nothing about ours.
                    return self.refused();
                }
                (epoch, Some(accepted))
            }
            WireMsg::Heartbeat { epoch } => (epoch, None),
            WireMsg::Ceiling(ref cmd)
                if self.phase == Phase::Running && cmd.node == self.node.id =>
            {
                let _apply = self.tracer.span("node.apply");
                if self.node.apply(&cmd.freqs) {
                    return Heard::Applied;
                }
                // A frame that decoded into a ceiling this node cannot run.
                self.telemetry.emit(SchedEvent::WireFault {
                    t_s: now_s,
                    node: self.node.id as u32,
                    fault: WireFaultKind::Decode,
                    injected: false,
                    frame_len: 0,
                    codec: WireCodec::Binary.id(),
                });
                return Heard::Nothing;
            }
            _ => return Heard::Nothing,
        };
        if epoch < self.last_epoch {
            return Heard::Fenced;
        }
        match accepted {
            // A heartbeat: the current coordinator is alive.
            None => {
                self.last_epoch = epoch;
                Heard::Nothing
            }
            Some(false) => self.refused(),
            Some(true) => {
                self.last_epoch = epoch;
                self.ladder.reset();
                self.phase = Phase::Running;
                self.ticks = 0;
                let reconnect = std::mem::replace(&mut self.ever_accepted, true);
                Heard::Accepted { reconnect }
            }
        }
    }

    fn refused(&mut self) -> Heard {
        self.phase = Phase::Dead;
        self.floor();
        Heard::Refused
    }

    /// The link is gone at `now_s` (it failed, it never opened, or
    /// [`tick`] or [`frame`] said to drop it), and with it the ceiling:
    /// every core drops to `f_min`. Returns when [`tick`] will say
    /// [`Tick::Connect`], one rung further up the ladder; `None` for an
    /// agent that was refused for good.
    ///
    /// [`tick`]: AgentCore::tick
    /// [`frame`]: AgentCore::frame
    pub fn lost(&mut self, now_s: f64) -> Option<f64> {
        self.floor();
        if self.phase == Phase::Dead {
            return None;
        }
        self.phase = Phase::Backoff;
        self.connect_at_s = now_s + self.ladder.next_delay().as_secs_f64();
        Some(self.connect_at_s)
    }

    /// The wait is over early — a simulator powered the machine back on:
    /// an agent without a link is told to connect on its next tick.
    pub fn connect_now(&mut self) {
        self.connect_at_s = f64::NEG_INFINITY;
    }
}
