//! The structured scheduling-event stream.
//!
//! Every event is a plain-old-data `Copy` value so the ring-buffer sink
//! can record it without allocating. The JSONL encoding is flat —
//! `{"kind":"demotion",...}` — so traces can be filtered with nothing
//! fancier than `grep '"kind":"demotion"'` or `jq 'select(.kind==…)'`.

use core::fmt::Write;

/// Why a scheduling round ran (mirror of the daemon's trigger enum,
/// kept dependency-free here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// The periodic timer (`T = n·t`).
    Timer,
    /// The global power limit changed.
    BudgetChange,
    /// A processor entered or left the idle loop.
    IdleEdge,
}

impl TriggerKind {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerKind::Timer => "timer",
            TriggerKind::BudgetChange => "budget_change",
            TriggerKind::IdleEdge => "idle_edge",
        }
    }
}

/// Which layer an injected fault targeted (mirror of the fault
/// taxonomy in fvs-faults, kept dependency-free here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDomain {
    /// A performance-counter sample was corrupted.
    Counter,
    /// A frequency command was dropped, truncated or delayed.
    Actuation,
}

impl FaultDomain {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultDomain::Counter => "counter",
            FaultDomain::Actuation => "actuation",
        }
    }
}

/// What went wrong on the wire (mirror of the fvs-net frame-fault and
/// chaos-injection taxonomy, kept dependency-free here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFaultKind {
    /// A frame was dropped (never written, or never delivered).
    Drop,
    /// A frame was held back and delivered late.
    Delay,
    /// A frame was delivered twice.
    Duplicate,
    /// A frame was truncated or bit-flipped in flight.
    Corrupt,
    /// The connection was reset mid-stream.
    Reset,
    /// Traffic toward the coordinator was blackholed (uplink partition).
    PartitionUp,
    /// Traffic toward the agent was blackholed (downlink partition).
    PartitionDown,
    /// A received length prefix exceeded the frame cap.
    Oversize,
    /// A received frame header had the wrong magic.
    BadMagic,
    /// A received payload failed to decode.
    Decode,
}

impl WireFaultKind {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            WireFaultKind::Drop => "drop",
            WireFaultKind::Delay => "delay",
            WireFaultKind::Duplicate => "duplicate",
            WireFaultKind::Corrupt => "corrupt",
            WireFaultKind::Reset => "reset",
            WireFaultKind::PartitionUp => "partition_up",
            WireFaultKind::PartitionDown => "partition_down",
            WireFaultKind::Oversize => "oversize",
            WireFaultKind::BadMagic => "bad_magic",
            WireFaultKind::Decode => "decode",
        }
    }
}

/// One structured scheduling event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedEvent {
    /// A scheduling round began.
    RoundStart {
        /// Round sequence number (the daemon's `schedules_run`).
        round: u64,
        /// Simulation/wall time of the round (s).
        t_s: f64,
        /// What fired the round.
        trigger: TriggerKind,
        /// Budget in force (W).
        budget_w: f64,
    },
    /// Pass 1's ε choice for one processor.
    Desired {
        /// Round sequence number.
        round: u64,
        /// Processor index.
        proc: u32,
        /// The ε-constrained desired frequency (MHz).
        desired_mhz: u32,
        /// Whether the processor was idle-pinned.
        idle: bool,
    },
    /// One pass-2 single-step demotion.
    Demotion {
        /// Round sequence number.
        round: u64,
        /// Demoted processor.
        proc: u32,
        /// Frequency before the step (MHz).
        from_mhz: u32,
        /// Frequency after the step (MHz).
        to_mhz: u32,
        /// Predicted loss vs `f_max` *after* the step.
        predicted_loss: f64,
        /// Power change of the step (W, negative).
        power_delta_w: f64,
    },
    /// Cache outcome of the round.
    CacheOutcome {
        /// Round sequence number.
        round: u64,
        /// The round was answered entirely from the cached decision.
        full_hit: bool,
        /// Per-processor pass-1 evaluations skipped this round.
        proc_hits: u32,
        /// Per-processor pass-1 evaluations performed this round.
        proc_rebuilds: u32,
    },
    /// A scheduling round completed.
    RoundEnd {
        /// Round sequence number.
        round: u64,
        /// Whether the budget could be met.
        feasible: bool,
        /// Demotions pass 2 performed.
        demotions: u32,
        /// Σ table power of the final assignment (W).
        predicted_power_w: f64,
        /// Budget in force (W).
        budget_w: f64,
        /// `budget_w - predicted_power_w`.
        headroom_w: f64,
        /// Wall time of the round (ns).
        wall_ns: u64,
    },
    /// The budget dropped (e.g. a supply failed).
    BudgetDrop {
        /// When the drop was observed (s).
        t_s: f64,
        /// Budget before (W).
        from_w: f64,
        /// Budget after (W).
        to_w: f64,
        /// The compliance deadline `ΔT` in force (s).
        deadline_s: f64,
    },
    /// Measured power first came back under the dropped budget.
    BudgetCompliance {
        /// When compliance was observed (s).
        t_s: f64,
        /// Scheduling rounds between the drop and compliance.
        rounds: u32,
        /// Wall time between the drop and compliance (s).
        wall_s: f64,
        /// Whether compliance arrived within `ΔT`.
        within_deadline: bool,
    },
    /// `ΔT` expired with measured power still over the dropped budget.
    BudgetViolation {
        /// When the deadline expired (s).
        t_s: f64,
        /// The deadline that was missed (s).
        deadline_s: f64,
    },
    /// The feedback guard grew its safety margin.
    FeedbackClamp {
        /// When the clamp fired (s).
        t_s: f64,
        /// The new margin (W).
        margin_w: f64,
        /// The measured overshoot that triggered it (W).
        overshoot_w: f64,
    },
    /// One global (cluster-coordinator) scheduling round.
    ClusterRound {
        /// Coordinator round sequence number.
        round: u64,
        /// Nodes that have reported at least once.
        nodes: u32,
        /// Processors scheduled in this round.
        procs: u32,
        /// Global budget (W).
        budget_w: f64,
        /// Σ table power of the global assignment (W).
        predicted_power_w: f64,
        /// Whether the global budget could be met.
        feasible: bool,
    },
    /// The fault injector fired.
    FaultInjected {
        /// When the fault fired (s).
        t_s: f64,
        /// Which layer it targeted.
        domain: FaultDomain,
        /// Processor or node index it hit.
        target: u32,
    },
    /// The sample validator refused an impossible counter sample.
    SampleQuarantined {
        /// When the sample was refused (s).
        t_s: f64,
        /// Processor (or, cluster-side, node) whose sample was refused.
        proc: u32,
        /// The offending value (observed IPC, or the corrupt summary
        /// power); non-finite values encode as `null`.
        value: f64,
    },
    /// A commanded frequency did not take effect; the scheduler
    /// re-issued it.
    ActuationRetry {
        /// When the retry fired (s).
        t_s: f64,
        /// Processor being retried.
        proc: u32,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// The frequency that was commanded (MHz).
        requested_mhz: u32,
        /// The frequency actually observed (MHz).
        actual_mhz: u32,
    },
    /// A cluster node went silent past the heartbeat timeout; the
    /// coordinator now charges it conservatively.
    NodeDeclaredDead {
        /// When the node was declared dead (s).
        t_s: f64,
        /// The silent node.
        node: u32,
        /// When it last reported (s); `null` if it never did.
        last_seen_s: f64,
        /// Power conservatively charged against the global budget (W).
        charged_w: f64,
    },
    /// Actuation retries were exhausted; the processor is pinned at its
    /// fail-safe minimum frequency and excluded from Pass 1.
    FailsafePin {
        /// When the pin was applied (s).
        t_s: f64,
        /// The pinned processor.
        proc: u32,
        /// The fail-safe frequency (MHz).
        pinned_mhz: u32,
        /// Failed retries that led here.
        retries: u32,
    },
    /// One tier of the budget-delegation tree ran (or skipped) a
    /// delegation round.
    TierRound {
        /// When the round ran (s).
        t_s: f64,
        /// Tier code: 1 = rack, 2 = row, 3 = datacenter root.
        tier: u8,
        /// Subtrees at this tier that recomputed.
        ran: u32,
        /// Subtrees at this tier skipped via unchanged fingerprints.
        skipped: u32,
    },
    /// A parent tier handed a child a *different* sub-budget.
    SubbudgetAssigned {
        /// When the assignment was made (s).
        t_s: f64,
        /// Tier code of the *assigning* parent (2 = row, 3 = root).
        tier: u8,
        /// Child index within the parent (rack or row number).
        child: u32,
        /// The new sub-budget (W); non-finite encodes as `null`.
        subbudget_w: f64,
    },
    /// Per-tier fingerprint-cache outcome for one delegation round.
    SubtreeCache {
        /// When the round ran (s).
        t_s: f64,
        /// Tier code: 1 = rack, 2 = row, 3 = datacenter root.
        tier: u8,
        /// Subtree fingerprints that matched (work skipped).
        hits: u32,
        /// Subtree fingerprints that drifted (work done).
        misses: u32,
    },
    /// Something went wrong on the wire — a chaos-injected fault (at the
    /// injection site) or an organic frame fault (at the detection site).
    WireFault {
        /// When the fault happened (s).
        t_s: f64,
        /// Node the connection belongs to (`u32::MAX` before the hello
        /// names it).
        node: u32,
        /// What went wrong.
        kind: WireFaultKind,
        /// `true` when a `ChaosStream` injected it on purpose; `false`
        /// for organic corruption detected at the frame decoder.
        injected: bool,
        /// Observed frame length (payload bytes): the length prefix of
        /// a faulting frame at the decoder, or the written frame size
        /// at an injection site. 0 when unknowable (bad magic makes
        /// the header garbage).
        frame_len: u32,
        /// Wire codec of the faulting frame: 1 = `FVS1` JSON, 2 =
        /// `FVS2` binary, 0 = unknown.
        codec: u8,
    },
    /// The coordinator persisted a recovery snapshot.
    SnapshotWritten {
        /// When the snapshot was taken (s, coordinator clock).
        t_s: f64,
        /// The coordinator epoch recorded in the snapshot.
        epoch: u64,
        /// The budget recorded in the snapshot (W); non-finite encodes
        /// as `null`.
        budget_w: f64,
        /// Node records carried by the snapshot.
        nodes: u32,
    },
    /// A coordinator restarted from a recovery snapshot (`--resume`).
    CoordinatorResumed {
        /// When the resumed coordinator came up (s, its own clock).
        t_s: f64,
        /// The new (post-bump) coordinator epoch.
        epoch: u64,
        /// The restored budget (W); non-finite encodes as `null`.
        budget_w: f64,
        /// Node charges restored from the snapshot.
        restored_nodes: u32,
        /// Length of the resync grace window (s).
        grace_s: f64,
    },
    /// A stale-epoch peer was fenced (split-brain guard).
    EpochFenced {
        /// When the fencing happened (s).
        t_s: f64,
        /// The node whose connection carried the stale epoch.
        node: u32,
        /// The peer's claimed epoch.
        peer_epoch: u64,
        /// The local epoch that won.
        local_epoch: u64,
    },
    /// The post-resume resync window closed: restored charges are now
    /// either refreshed by live summaries or conservatively retained.
    ResyncComplete {
        /// When resync closed (s, coordinator clock).
        t_s: f64,
        /// Wall time the resync took (s).
        wall_s: f64,
        /// Restored nodes that sent a fresh summary inside the window.
        fresh_nodes: u32,
        /// Restored nodes still silent (their conservative charge
        /// stands).
        charged_nodes: u32,
    },
}

/// Write `x` as a JSON number, mapping non-finite values (an unlimited
/// budget is `+∞`) to `null`.
fn jnum(buf: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(buf, "{x}");
    } else {
        buf.push_str("null");
    }
}

impl SchedEvent {
    /// Stable lowercase event-kind name (the JSONL `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            SchedEvent::RoundStart { .. } => "round_start",
            SchedEvent::Desired { .. } => "desired",
            SchedEvent::Demotion { .. } => "demotion",
            SchedEvent::CacheOutcome { .. } => "cache",
            SchedEvent::RoundEnd { .. } => "round_end",
            SchedEvent::BudgetDrop { .. } => "budget_drop",
            SchedEvent::BudgetCompliance { .. } => "budget_compliance",
            SchedEvent::BudgetViolation { .. } => "budget_violation",
            SchedEvent::FeedbackClamp { .. } => "feedback_clamp",
            SchedEvent::ClusterRound { .. } => "cluster_round",
            SchedEvent::FaultInjected { .. } => "fault_injected",
            SchedEvent::SampleQuarantined { .. } => "sample_quarantined",
            SchedEvent::ActuationRetry { .. } => "actuation_retry",
            SchedEvent::NodeDeclaredDead { .. } => "node_declared_dead",
            SchedEvent::FailsafePin { .. } => "failsafe_pin",
            SchedEvent::TierRound { .. } => "tier_round",
            SchedEvent::SubbudgetAssigned { .. } => "subbudget_assigned",
            SchedEvent::SubtreeCache { .. } => "subtree_cache",
            SchedEvent::WireFault { .. } => "wire_fault",
            SchedEvent::SnapshotWritten { .. } => "snapshot_written",
            SchedEvent::CoordinatorResumed { .. } => "coordinator_resumed",
            SchedEvent::EpochFenced { .. } => "epoch_fenced",
            SchedEvent::ResyncComplete { .. } => "resync_complete",
        }
    }

    /// Append the event as one JSON object (no trailing newline) to
    /// `buf`. Reuses the caller's buffer so the JSONL sink formats
    /// without allocating in steady state.
    pub fn write_jsonl(&self, buf: &mut String) {
        let _ = write!(buf, "{{\"kind\":\"{}\"", self.kind());
        match *self {
            SchedEvent::RoundStart {
                round,
                t_s,
                trigger,
                budget_w,
            } => {
                let _ = write!(
                    buf,
                    ",\"round\":{round},\"t_s\":{t_s},\"trigger\":\"{}\"",
                    trigger.as_str()
                );
                buf.push_str(",\"budget_w\":");
                jnum(buf, budget_w);
            }
            SchedEvent::Desired {
                round,
                proc,
                desired_mhz,
                idle,
            } => {
                let _ = write!(
                    buf,
                    ",\"round\":{round},\"proc\":{proc},\"desired_mhz\":{desired_mhz},\"idle\":{idle}"
                );
            }
            SchedEvent::Demotion {
                round,
                proc,
                from_mhz,
                to_mhz,
                predicted_loss,
                power_delta_w,
            } => {
                let _ = write!(
                    buf,
                    ",\"round\":{round},\"proc\":{proc},\"from_mhz\":{from_mhz},\"to_mhz\":{to_mhz}"
                );
                buf.push_str(",\"predicted_loss\":");
                jnum(buf, predicted_loss);
                buf.push_str(",\"power_delta_w\":");
                jnum(buf, power_delta_w);
            }
            SchedEvent::CacheOutcome {
                round,
                full_hit,
                proc_hits,
                proc_rebuilds,
            } => {
                let _ = write!(
                    buf,
                    ",\"round\":{round},\"full_hit\":{full_hit},\"proc_hits\":{proc_hits},\"proc_rebuilds\":{proc_rebuilds}"
                );
            }
            SchedEvent::RoundEnd {
                round,
                feasible,
                demotions,
                predicted_power_w,
                budget_w,
                headroom_w,
                wall_ns,
            } => {
                let _ = write!(
                    buf,
                    ",\"round\":{round},\"feasible\":{feasible},\"demotions\":{demotions}"
                );
                buf.push_str(",\"predicted_power_w\":");
                jnum(buf, predicted_power_w);
                buf.push_str(",\"budget_w\":");
                jnum(buf, budget_w);
                buf.push_str(",\"headroom_w\":");
                jnum(buf, headroom_w);
                let _ = write!(buf, ",\"wall_ns\":{wall_ns}");
            }
            SchedEvent::BudgetDrop {
                t_s,
                from_w,
                to_w,
                deadline_s,
            } => {
                let _ = write!(buf, ",\"t_s\":{t_s}");
                buf.push_str(",\"from_w\":");
                jnum(buf, from_w);
                buf.push_str(",\"to_w\":");
                jnum(buf, to_w);
                let _ = write!(buf, ",\"deadline_s\":{deadline_s}");
            }
            SchedEvent::BudgetCompliance {
                t_s,
                rounds,
                wall_s,
                within_deadline,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"rounds\":{rounds},\"wall_s\":{wall_s},\"within_deadline\":{within_deadline}"
                );
            }
            SchedEvent::BudgetViolation { t_s, deadline_s } => {
                let _ = write!(buf, ",\"t_s\":{t_s},\"deadline_s\":{deadline_s}");
            }
            SchedEvent::FeedbackClamp {
                t_s,
                margin_w,
                overshoot_w,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"margin_w\":{margin_w},\"overshoot_w\":{overshoot_w}"
                );
            }
            SchedEvent::ClusterRound {
                round,
                nodes,
                procs,
                budget_w,
                predicted_power_w,
                feasible,
            } => {
                let _ = write!(
                    buf,
                    ",\"round\":{round},\"nodes\":{nodes},\"procs\":{procs}"
                );
                buf.push_str(",\"budget_w\":");
                jnum(buf, budget_w);
                buf.push_str(",\"predicted_power_w\":");
                jnum(buf, predicted_power_w);
                let _ = write!(buf, ",\"feasible\":{feasible}");
            }
            SchedEvent::FaultInjected {
                t_s,
                domain,
                target,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"domain\":\"{}\",\"target\":{target}",
                    domain.as_str()
                );
            }
            SchedEvent::SampleQuarantined { t_s, proc, value } => {
                let _ = write!(buf, ",\"t_s\":{t_s},\"proc\":{proc}");
                buf.push_str(",\"value\":");
                jnum(buf, value);
            }
            SchedEvent::ActuationRetry {
                t_s,
                proc,
                attempt,
                requested_mhz,
                actual_mhz,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"proc\":{proc},\"attempt\":{attempt},\"requested_mhz\":{requested_mhz},\"actual_mhz\":{actual_mhz}"
                );
            }
            SchedEvent::NodeDeclaredDead {
                t_s,
                node,
                last_seen_s,
                charged_w,
            } => {
                let _ = write!(buf, ",\"t_s\":{t_s},\"node\":{node}");
                buf.push_str(",\"last_seen_s\":");
                jnum(buf, last_seen_s);
                buf.push_str(",\"charged_w\":");
                jnum(buf, charged_w);
            }
            SchedEvent::FailsafePin {
                t_s,
                proc,
                pinned_mhz,
                retries,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"proc\":{proc},\"pinned_mhz\":{pinned_mhz},\"retries\":{retries}"
                );
            }
            SchedEvent::TierRound {
                t_s,
                tier,
                ran,
                skipped,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"tier\":{tier},\"ran\":{ran},\"skipped\":{skipped}"
                );
            }
            SchedEvent::SubbudgetAssigned {
                t_s,
                tier,
                child,
                subbudget_w,
            } => {
                let _ = write!(buf, ",\"t_s\":{t_s},\"tier\":{tier},\"child\":{child}");
                buf.push_str(",\"subbudget_w\":");
                jnum(buf, subbudget_w);
            }
            SchedEvent::SubtreeCache {
                t_s,
                tier,
                hits,
                misses,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"tier\":{tier},\"hits\":{hits},\"misses\":{misses}"
                );
            }
            SchedEvent::WireFault {
                t_s,
                node,
                kind,
                injected,
                frame_len,
                codec,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"node\":{node},\"fault\":\"{}\",\"injected\":{injected},\"frame_len\":{frame_len},\"codec\":{codec}",
                    kind.as_str()
                );
            }
            SchedEvent::SnapshotWritten {
                t_s,
                epoch,
                budget_w,
                nodes,
            } => {
                let _ = write!(buf, ",\"t_s\":{t_s},\"epoch\":{epoch}");
                buf.push_str(",\"budget_w\":");
                jnum(buf, budget_w);
                let _ = write!(buf, ",\"nodes\":{nodes}");
            }
            SchedEvent::CoordinatorResumed {
                t_s,
                epoch,
                budget_w,
                restored_nodes,
                grace_s,
            } => {
                let _ = write!(buf, ",\"t_s\":{t_s},\"epoch\":{epoch}");
                buf.push_str(",\"budget_w\":");
                jnum(buf, budget_w);
                let _ = write!(
                    buf,
                    ",\"restored_nodes\":{restored_nodes},\"grace_s\":{grace_s}"
                );
            }
            SchedEvent::EpochFenced {
                t_s,
                node,
                peer_epoch,
                local_epoch,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"node\":{node},\"peer_epoch\":{peer_epoch},\"local_epoch\":{local_epoch}"
                );
            }
            SchedEvent::ResyncComplete {
                t_s,
                wall_s,
                fresh_nodes,
                charged_nodes,
            } => {
                let _ = write!(
                    buf,
                    ",\"t_s\":{t_s},\"wall_s\":{wall_s},\"fresh_nodes\":{fresh_nodes},\"charged_nodes\":{charged_nodes}"
                );
            }
        }
        buf.push('}');
    }

    /// The event as one JSON line (fresh allocation; tests/tools).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<SchedEvent> {
        vec![
            SchedEvent::RoundStart {
                round: 1,
                t_s: 0.1,
                trigger: TriggerKind::Timer,
                budget_w: 294.0,
            },
            SchedEvent::Desired {
                round: 1,
                proc: 0,
                desired_mhz: 950,
                idle: false,
            },
            SchedEvent::Demotion {
                round: 1,
                proc: 2,
                from_mhz: 1000,
                to_mhz: 950,
                predicted_loss: 0.05,
                power_delta_w: -13.4,
            },
            SchedEvent::CacheOutcome {
                round: 1,
                full_hit: false,
                proc_hits: 3,
                proc_rebuilds: 1,
            },
            SchedEvent::RoundEnd {
                round: 1,
                feasible: true,
                demotions: 2,
                predicted_power_w: 280.0,
                budget_w: 294.0,
                headroom_w: 14.0,
                wall_ns: 12345,
            },
            SchedEvent::BudgetDrop {
                t_s: 0.5,
                from_w: 560.0,
                to_w: 294.0,
                deadline_s: 1.0,
            },
            SchedEvent::BudgetCompliance {
                t_s: 0.52,
                rounds: 1,
                wall_s: 0.02,
                within_deadline: true,
            },
            SchedEvent::BudgetViolation {
                t_s: 0.51,
                deadline_s: 1e-6,
            },
            SchedEvent::FeedbackClamp {
                t_s: 1.0,
                margin_w: 10.0,
                overshoot_w: 4.2,
            },
            SchedEvent::ClusterRound {
                round: 3,
                nodes: 4,
                procs: 16,
                budget_w: 1000.0,
                predicted_power_w: 950.0,
                feasible: true,
            },
            SchedEvent::FaultInjected {
                t_s: 1.1,
                domain: FaultDomain::Actuation,
                target: 2,
            },
            SchedEvent::SampleQuarantined {
                t_s: 1.2,
                proc: 0,
                value: f64::NAN,
            },
            SchedEvent::ActuationRetry {
                t_s: 1.3,
                proc: 2,
                attempt: 1,
                requested_mhz: 600,
                actual_mhz: 1000,
            },
            SchedEvent::NodeDeclaredDead {
                t_s: 1.4,
                node: 3,
                last_seen_s: 0.9,
                charged_w: 412.0,
            },
            SchedEvent::FailsafePin {
                t_s: 1.5,
                proc: 2,
                pinned_mhz: 250,
                retries: 3,
            },
            SchedEvent::TierRound {
                t_s: 1.6,
                tier: 2,
                ran: 1,
                skipped: 31,
            },
            SchedEvent::SubbudgetAssigned {
                t_s: 1.6,
                tier: 3,
                child: 4,
                subbudget_w: f64::INFINITY,
            },
            SchedEvent::SubtreeCache {
                t_s: 1.6,
                tier: 1,
                hits: 300,
                misses: 12,
            },
            SchedEvent::WireFault {
                t_s: 1.7,
                node: u32::MAX,
                kind: WireFaultKind::Oversize,
                injected: false,
                frame_len: 2048,
                codec: 2,
            },
            SchedEvent::SnapshotWritten {
                t_s: 1.8,
                epoch: 2,
                budget_w: f64::INFINITY,
                nodes: 4,
            },
            SchedEvent::CoordinatorResumed {
                t_s: 0.0,
                epoch: 3,
                budget_w: 1200.0,
                restored_nodes: 4,
                grace_s: 1.0,
            },
            SchedEvent::EpochFenced {
                t_s: 1.9,
                node: 2,
                peer_epoch: 1,
                local_epoch: 3,
            },
            SchedEvent::ResyncComplete {
                t_s: 2.0,
                wall_s: 0.4,
                fresh_nodes: 3,
                charged_nodes: 1,
            },
        ]
    }

    #[test]
    fn every_variant_serializes_to_parseable_json_with_kind() {
        for ev in all_variants() {
            let line = ev.to_jsonl();
            let v: serde_json::Value = serde_json::from_str(&line)
                .unwrap_or_else(|e| panic!("bad JSON for {ev:?}: {e}\n{line}"));
            assert_eq!(
                v.get("kind").and_then(|k| k.as_str()),
                Some(ev.kind()),
                "{line}"
            );
        }
    }

    #[test]
    fn infinite_budget_encodes_as_null() {
        let ev = SchedEvent::RoundStart {
            round: 0,
            t_s: 0.0,
            trigger: TriggerKind::BudgetChange,
            budget_w: f64::INFINITY,
        };
        let line = ev.to_jsonl();
        assert!(line.contains("\"budget_w\":null"), "{line}");
        let _: serde_json::Value = serde_json::from_str(&line).unwrap();
    }

    #[test]
    fn writer_reuses_buffer_without_clearing() {
        let mut buf = String::new();
        SchedEvent::BudgetViolation {
            t_s: 1.0,
            deadline_s: 0.5,
        }
        .write_jsonl(&mut buf);
        let first = buf.len();
        buf.clear();
        SchedEvent::BudgetViolation {
            t_s: 1.0,
            deadline_s: 0.5,
        }
        .write_jsonl(&mut buf);
        assert_eq!(buf.len(), first);
    }
}
