//! The structured scheduling-event stream.
//!
//! Every event is a plain-old-data `Copy` value so the ring-buffer sink
//! can record it without allocating. The JSONL encoding is flat —
//! `{"kind":"demotion",...}` — so traces can be filtered with nothing
//! fancier than `grep '"kind":"demotion"'` or `jq 'select(.kind==…)'`.
//!
//! Each variant is declared once, in the `sched_events!` table below:
//! its name, its `kind` string and its fields. The enum,
//! [`SchedEvent::kind`] and [`SchedEvent::write_jsonl`] all come from
//! that table, so a field cannot be declared and not journaled, and
//! every field is written under its own name by its type's one rule: an
//! `f64` is a number, or `null` when non-finite (an unlimited budget is
//! `+∞`); an integer or `bool` is itself; a [`TriggerKind`],
//! [`FaultDomain`] or [`WireFaultKind`] is its quoted `as_str` name.

use core::fmt::Write;

/// How a field's value is written into its event's JSONL line: one rule
/// per field type (see the module docs).
trait JsonValue {
    fn write_json(self, buf: &mut String);
}

impl JsonValue for f64 {
    fn write_json(self, buf: &mut String) {
        if self.is_finite() {
            let _ = write!(buf, "{self}");
        } else {
            buf.push_str("null");
        }
    }
}

/// Integers and booleans: their `Display` form is their JSON form.
macro_rules! display_json {
    ($($ty:ty),*) => {$(
        impl JsonValue for $ty {
            fn write_json(self, buf: &mut String) {
                let _ = write!(buf, "{self}");
            }
        }
    )*};
}

display_json!(u8, u32, u64, bool);

/// Declares a fieldless enum the journal writes by name: each variant
/// with its stable lowercase name, `as_str`, and its `JsonValue` rule
/// (the name, quoted).
macro_rules! names {
    (
        $(#[$doc:meta])*
        $name:ident {
            $($(#[$variant_doc:meta])* $variant:ident = $str:literal),* $(,)?
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$variant_doc])* $variant),*
        }

        impl $name {
            /// Stable lowercase name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $str),*
                }
            }
        }

        impl JsonValue for $name {
            fn write_json(self, buf: &mut String) {
                buf.push('"');
                buf.push_str(self.as_str());
                buf.push('"');
            }
        }
    };
}

names! {
    /// Why a scheduling round ran.
    TriggerKind {
        /// The periodic timer (`T = n·t`).
        Timer = "timer",
        /// The global power limit changed (e.g. a supply failed).
        BudgetChange = "budget_change",
        /// A processor entered or left the idle loop.
        IdleEdge = "idle_edge",
    }
}

names! {
    /// Which layer an injected fault targeted (mirror of the fault
    /// taxonomy in fvs-faults, kept dependency-free here).
    FaultDomain {
        /// A performance-counter sample was corrupted.
        Counter = "counter",
        /// A frequency command was dropped, truncated or delayed.
        Actuation = "actuation",
    }
}

names! {
    /// What went wrong on the wire: a fault a wire-chaos plan injected, or
    /// one the frame decoder classified (`FrameReader::last_fault`).
    WireFaultKind {
        /// A frame was dropped (never written, or never delivered).
        Drop = "drop",
        /// A frame was held back and delivered late.
        Delay = "delay",
        /// A frame was delivered twice.
        Duplicate = "duplicate",
        /// A frame was truncated or bit-flipped in flight.
        Corrupt = "corrupt",
        /// The connection was reset mid-stream.
        Reset = "reset",
        /// Traffic toward the coordinator was blackholed (uplink partition).
        PartitionUp = "partition_up",
        /// Traffic toward the agent was blackholed (downlink partition).
        PartitionDown = "partition_down",
        /// A received length prefix exceeded the frame cap.
        Oversize = "oversize",
        /// A received frame header had the wrong magic.
        BadMagic = "bad_magic",
        /// A received payload failed to decode.
        Decode = "decode",
    }
}

/// Declares [`SchedEvent`] from one table of `Variant = "kind" { field:
/// Type, … }` entries, and generates [`SchedEvent::kind`] and
/// [`SchedEvent::write_jsonl`] from the same table.
macro_rules! sched_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty),* $(,)?
        }
    ),* $(,)?) => {
        /// One structured scheduling event.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum SchedEvent {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty),* }),*
        }

        impl SchedEvent {
            /// Stable lowercase event-kind name (the JSONL `kind` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(SchedEvent::$variant { .. } => $kind),*
                }
            }

            /// Append the event as one JSON object (no trailing newline)
            /// to `buf`: its `kind`, then each field under its own name
            /// in declaration order. Reuses the caller's buffer so the
            /// JSONL sink formats without allocating in steady state.
            pub fn write_jsonl(&self, buf: &mut String) {
                buf.push_str("{\"kind\":\"");
                buf.push_str(self.kind());
                buf.push('"');
                match *self {
                    $(SchedEvent::$variant { $($field),* } => {
                        $(
                            buf.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write_json(buf);
                        )*
                    })*
                }
                buf.push('}');
            }
        }
    };
}

sched_events! {
    /// A scheduling round began.
    RoundStart = "round_start" {
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
    Desired = "desired" {
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
    Demotion = "demotion" {
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
    CacheOutcome = "cache" {
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
    RoundEnd = "round_end" {
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
    BudgetDrop = "budget_drop" {
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
    BudgetCompliance = "budget_compliance" {
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
    BudgetViolation = "budget_violation" {
        /// When the deadline expired (s).
        t_s: f64,
        /// The deadline that was missed (s).
        deadline_s: f64,
    },
    /// One global (cluster-coordinator) scheduling round.
    ClusterRound = "cluster_round" {
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
    FaultInjected = "fault_injected" {
        /// When the fault fired (s).
        t_s: f64,
        /// Which layer it targeted.
        domain: FaultDomain,
        /// Processor or node index it hit.
        target: u32,
    },
    /// The sample validator refused an impossible counter sample.
    SampleQuarantined = "sample_quarantined" {
        /// When the sample was refused (s).
        t_s: f64,
        /// Processor (or, cluster-side, node) whose sample was refused.
        proc: u32,
        /// The offending value (observed IPC, or the corrupt summary
        /// power).
        value: f64,
    },
    /// A commanded frequency did not take effect; the scheduler
    /// re-issued it.
    ActuationRetry = "actuation_retry" {
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
    NodeDeclaredDead = "node_declared_dead" {
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
    FailsafePin = "failsafe_pin" {
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
    TierRound = "tier_round" {
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
    SubbudgetAssigned = "subbudget_assigned" {
        /// When the assignment was made (s).
        t_s: f64,
        /// Tier code of the *assigning* parent (2 = row, 3 = root).
        tier: u8,
        /// Child index within the parent (rack or row number).
        child: u32,
        /// The new sub-budget (W).
        subbudget_w: f64,
    },
    /// Per-tier fingerprint-cache outcome for one delegation round.
    SubtreeCache = "subtree_cache" {
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
    WireFault = "wire_fault" {
        /// When the fault happened (s).
        t_s: f64,
        /// Node the connection belongs to (`u32::MAX` before the hello
        /// names it).
        node: u32,
        /// What went wrong.
        fault: WireFaultKind,
        /// `true` when a wire-chaos plan injected it on purpose; `false`
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
    SnapshotWritten = "snapshot_written" {
        /// When the snapshot was taken (s, coordinator clock).
        t_s: f64,
        /// The coordinator epoch recorded in the snapshot.
        epoch: u64,
        /// The budget recorded in the snapshot (W).
        budget_w: f64,
        /// Node records carried by the snapshot.
        nodes: u32,
    },
    /// A coordinator restarted from a recovery snapshot (`--resume`).
    CoordinatorResumed = "coordinator_resumed" {
        /// When the resumed coordinator came up (s, its own clock).
        t_s: f64,
        /// The new (post-bump) coordinator epoch.
        epoch: u64,
        /// The restored budget (W).
        budget_w: f64,
        /// Node charges restored from the snapshot.
        restored_nodes: u32,
        /// Length of the resync grace window (s).
        grace_s: f64,
    },
    /// A stale-epoch peer was fenced (split-brain guard).
    EpochFenced = "epoch_fenced" {
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
    ResyncComplete = "resync_complete" {
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

impl SchedEvent {
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
                fault: WireFaultKind::Oversize,
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
