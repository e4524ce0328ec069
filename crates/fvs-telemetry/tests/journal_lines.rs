//! Every `SchedEvent` variant's JSONL line, pinned byte for byte, and
//! the journal's one rule for numbers JSON cannot carry: a non-finite
//! `f64` field, whichever it is, is written as `null`.

use fvs_telemetry::{FaultDomain, SchedEvent, TriggerKind, WireFaultKind};
use serde_json::Value;

/// One event of every variant. Each `f64` field holds `f` of the finite
/// value written here, so the same table yields the golden lines (`f`
/// the identity) and the non-finite ones (`f` a constant).
fn every_variant(f: &mut dyn FnMut(f64) -> f64) -> Vec<SchedEvent> {
    vec![
        SchedEvent::RoundStart {
            round: 7,
            t_s: f(0.1),
            trigger: TriggerKind::Timer,
            budget_w: f(294.0),
        },
        SchedEvent::Desired {
            round: 7,
            proc: 3,
            desired_mhz: 950,
            idle: false,
        },
        SchedEvent::Demotion {
            round: 7,
            proc: 2,
            from_mhz: 1000,
            to_mhz: 950,
            predicted_loss: f(0.05),
            power_delta_w: f(-13.4),
        },
        SchedEvent::CacheOutcome {
            round: 7,
            full_hit: true,
            proc_hits: 3,
            proc_rebuilds: 1,
        },
        SchedEvent::RoundEnd {
            round: u64::MAX,
            feasible: false,
            demotions: 2,
            predicted_power_w: f(280.125),
            budget_w: f(1e21),
            headroom_w: f(-0.0),
            wall_ns: 12_345,
        },
        SchedEvent::BudgetDrop {
            t_s: f(0.5),
            from_w: f(560.0),
            to_w: f(294.0),
            deadline_s: f(1.0),
        },
        SchedEvent::BudgetCompliance {
            t_s: f(0.52),
            rounds: 1,
            wall_s: f(1e-7),
            within_deadline: true,
        },
        SchedEvent::BudgetViolation {
            t_s: f(1.5),
            deadline_s: f(1e-6),
        },
        SchedEvent::ClusterRound {
            round: 3,
            nodes: 4,
            procs: 16,
            budget_w: f(1000.0),
            predicted_power_w: f(950.5),
            feasible: true,
        },
        SchedEvent::FaultInjected {
            t_s: f(1.1),
            domain: FaultDomain::Counter,
            target: 2,
        },
        SchedEvent::SampleQuarantined {
            t_s: f(1.2),
            proc: 0,
            value: f(8.5),
        },
        SchedEvent::ActuationRetry {
            t_s: f(1.3),
            proc: 2,
            attempt: 1,
            requested_mhz: 600,
            actual_mhz: 1000,
        },
        SchedEvent::NodeDeclaredDead {
            t_s: f(1.4),
            node: 3,
            last_seen_s: f(0.9),
            charged_w: f(412.0),
        },
        SchedEvent::FailsafePin {
            t_s: f(1.5),
            proc: 2,
            pinned_mhz: 250,
            retries: 3,
        },
        SchedEvent::TierRound {
            t_s: f(1.6),
            tier: 2,
            ran: 1,
            skipped: 31,
        },
        SchedEvent::SubbudgetAssigned {
            t_s: f(1.6),
            tier: 3,
            child: 4,
            subbudget_w: f(3000.0),
        },
        SchedEvent::SubtreeCache {
            t_s: f(1.6),
            tier: 1,
            hits: 300,
            misses: 12,
        },
        SchedEvent::WireFault {
            t_s: f(1.7),
            node: u32::MAX,
            fault: WireFaultKind::Oversize,
            injected: false,
            frame_len: 2048,
            codec: 2,
        },
        SchedEvent::SnapshotWritten {
            t_s: f(1.8),
            epoch: 2,
            budget_w: f(1200.0),
            nodes: 4,
        },
        SchedEvent::CoordinatorResumed {
            t_s: f(0.0),
            epoch: 3,
            budget_w: f(1200.0),
            restored_nodes: 4,
            grace_s: f(1.0),
        },
        SchedEvent::EpochFenced {
            t_s: f(1.9),
            node: 2,
            peer_epoch: 1,
            local_epoch: 3,
        },
        SchedEvent::ResyncComplete {
            t_s: f(2.0),
            wall_s: f(0.4),
            fresh_nodes: 3,
            charged_nodes: 1,
        },
    ]
}

/// The lines [`every_variant`] is journaled as, one per variant in
/// declaration order.
const GOLDEN: [&str; 22] = [
    r#"{"kind":"round_start","round":7,"t_s":0.1,"trigger":"timer","budget_w":294}"#,
    r#"{"kind":"desired","round":7,"proc":3,"desired_mhz":950,"idle":false}"#,
    r#"{"kind":"demotion","round":7,"proc":2,"from_mhz":1000,"to_mhz":950,"predicted_loss":0.05,"power_delta_w":-13.4}"#,
    r#"{"kind":"cache","round":7,"full_hit":true,"proc_hits":3,"proc_rebuilds":1}"#,
    r#"{"kind":"round_end","round":18446744073709551615,"feasible":false,"demotions":2,"predicted_power_w":280.125,"budget_w":1000000000000000000000,"headroom_w":-0,"wall_ns":12345}"#,
    r#"{"kind":"budget_drop","t_s":0.5,"from_w":560,"to_w":294,"deadline_s":1}"#,
    r#"{"kind":"budget_compliance","t_s":0.52,"rounds":1,"wall_s":0.0000001,"within_deadline":true}"#,
    r#"{"kind":"budget_violation","t_s":1.5,"deadline_s":0.000001}"#,
    r#"{"kind":"cluster_round","round":3,"nodes":4,"procs":16,"budget_w":1000,"predicted_power_w":950.5,"feasible":true}"#,
    r#"{"kind":"fault_injected","t_s":1.1,"domain":"counter","target":2}"#,
    r#"{"kind":"sample_quarantined","t_s":1.2,"proc":0,"value":8.5}"#,
    r#"{"kind":"actuation_retry","t_s":1.3,"proc":2,"attempt":1,"requested_mhz":600,"actual_mhz":1000}"#,
    r#"{"kind":"node_declared_dead","t_s":1.4,"node":3,"last_seen_s":0.9,"charged_w":412}"#,
    r#"{"kind":"failsafe_pin","t_s":1.5,"proc":2,"pinned_mhz":250,"retries":3}"#,
    r#"{"kind":"tier_round","t_s":1.6,"tier":2,"ran":1,"skipped":31}"#,
    r#"{"kind":"subbudget_assigned","t_s":1.6,"tier":3,"child":4,"subbudget_w":3000}"#,
    r#"{"kind":"subtree_cache","t_s":1.6,"tier":1,"hits":300,"misses":12}"#,
    r#"{"kind":"wire_fault","t_s":1.7,"node":4294967295,"fault":"oversize","injected":false,"frame_len":2048,"codec":2}"#,
    r#"{"kind":"snapshot_written","t_s":1.8,"epoch":2,"budget_w":1200,"nodes":4}"#,
    r#"{"kind":"coordinator_resumed","t_s":0,"epoch":3,"budget_w":1200,"restored_nodes":4,"grace_s":1}"#,
    r#"{"kind":"epoch_fenced","t_s":1.9,"node":2,"peer_epoch":1,"local_epoch":3}"#,
    r#"{"kind":"resync_complete","t_s":2,"wall_s":0.4,"fresh_nodes":3,"charged_nodes":1}"#,
];

#[test]
fn every_variant_writes_its_golden_line() {
    let events = every_variant(&mut |x| x);
    assert_eq!(events.len(), GOLDEN.len());
    let mut buf = String::new();
    for (ev, golden) in events.iter().zip(GOLDEN) {
        buf.clear();
        ev.write_jsonl(&mut buf);
        assert_eq!(buf, golden, "{ev:?}");
    }
}

/// Every key of `line`, in order, with its value.
fn fields(line: &str) -> Vec<(String, Value)> {
    let v = serde_json::from_str(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
    v.as_object().expect("one object per line").clone()
}

#[test]
fn non_finite_numbers_are_written_as_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut f64_fields = 0;
        let events = every_variant(&mut |_| {
            f64_fields += 1;
            x
        });
        let mut nulls = 0;
        for (ev, golden) in events.iter().zip(GOLDEN) {
            let (line, golden) = (fields(&ev.to_jsonl()), fields(golden));
            assert_eq!(line.len(), golden.len(), "{ev:?}");
            for ((key, value), (golden_key, golden_value)) in line.iter().zip(&golden) {
                assert_eq!(key, golden_key);
                if value.is_null() {
                    assert!(golden_value.as_f64().is_some(), "{key} of {ev:?}");
                    nulls += 1;
                } else {
                    assert_eq!(value, golden_value, "{key} of {ev:?}");
                }
            }
        }
        assert_eq!(nulls, f64_fields, "every f64 field is null at {x}");
    }
}
