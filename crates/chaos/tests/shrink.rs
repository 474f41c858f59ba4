//! Shrinking acceptance: a deliberately-stalling schedule shrinks to a
//! minimal reproducer that still trips the same invariant, and the
//! committed `chaos-repro.json` fixture replays to a byte-for-byte
//! identical violation report.

use qd_chaos::{
    shrink, ChaosSchedule, FaultSpec, FrontDoor, Harness, InjectedFault, Repro, Workload,
};
use qd_core::CrashPoint;

/// A schedule that cannot complete: every allowed lifetime (initial
/// deployment plus the single resume) is killed at an early syscall,
/// so the run stalls — a liveness violation by construction.
fn stalling_schedule() -> ChaosSchedule {
    let workload = Workload {
        train_seed: 5,
        samples: 60,
        clients: 2,
        rounds: 1,
        byzantine_frac: 0.0,
        net_drop: 0.2,
        ascent_spike: 1.0,
        tenants: 2,
        requests: 3,
        serve_seed: 9,
        breaker_trip: 0,
        breaker_cooldown: 2,
        relearn: true,
        front_door: FrontDoor::Service,
    };
    let faults = (0..2)
        .map(|attempt| InjectedFault {
            attempt,
            spec: FaultSpec::Crash(CrashPoint::VfsOp(5)),
        })
        .collect();
    ChaosSchedule {
        seed: 5,
        workload,
        faults,
        max_resumes: 1,
    }
}

#[test]
fn stalling_schedule_shrinks_to_a_minimal_reproducer() {
    let mut harness = Harness::new();
    let schedule = stalling_schedule();
    let report = harness.run(&schedule).expect("schedule executes");
    assert!(!report.completed, "the schedule must stall");
    let violation = report
        .violations
        .iter()
        .find(|v| v.invariant == "run-completes")
        .expect("a stall is a run-completes violation")
        .clone();

    let repro = shrink(&mut harness, &schedule, &violation).expect("shrinking succeeds");

    // Minimality: both kills are load-bearing (dropping either lets
    // the run complete), and every workload dimension shrank to its
    // floor.
    assert_eq!(repro.schedule.faults.len(), 2, "both kills are needed");
    for fault in &repro.schedule.faults {
        match fault.spec {
            FaultSpec::Crash(CrashPoint::VfsOp(op)) => {
                assert_eq!(op, 0, "kill op indices shrink to the first syscall")
            }
            other => panic!("unexpected shrunk fault {other:?}"),
        }
    }
    let w = &repro.schedule.workload;
    assert_eq!(w.tenants, 1);
    assert_eq!(w.requests, 1);
    assert!(!w.relearn);
    assert_eq!(w.net_drop, 0.0);

    // The shrunk schedule still trips the same invariant, and the
    // stored violation is exactly what a replay reproduces.
    let replay = harness.run(&repro.schedule).expect("replay executes");
    let replayed = replay
        .violations
        .iter()
        .find(|v| v.invariant == "run-completes")
        .expect("the reproducer still stalls");
    assert_eq!(replayed, &repro.violation, "replay must be byte-for-byte");
}

/// Regenerates the committed fixture. Run manually after an intentional
/// format or harness change:
/// `cargo test -p qd-chaos --test shrink -- --ignored regen`.
#[test]
#[ignore = "fixture generator, run on intentional format changes"]
fn regen_fixture() {
    let mut harness = Harness::new();
    let schedule = stalling_schedule();
    let report = harness.run(&schedule).expect("schedule executes");
    let violation = report
        .violations
        .iter()
        .find(|v| v.invariant == "run-completes")
        .expect("a stall is a run-completes violation")
        .clone();
    let repro = shrink(&mut harness, &schedule, &violation).expect("shrinking succeeds");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/chaos-repro.json"
    );
    std::fs::write(path, repro.to_json().expect("repros encode")).expect("fixture writes");
}

#[test]
fn committed_fixture_replays_byte_for_byte() {
    let fixture = include_str!("fixtures/chaos-repro.json");
    let repro = Repro::from_json(fixture).expect("fixture parses");
    // The fixture is the canonical serialization of itself.
    assert_eq!(
        repro.to_json().expect("repros encode"),
        fixture,
        "fixture serialization drifted"
    );
    let mut harness = Harness::new();
    let replay = harness
        .run(&repro.schedule)
        .expect("fixture schedule executes");
    let replayed = replay
        .violations
        .iter()
        .find(|v| v.invariant == repro.violation.invariant)
        .expect("fixture schedule still trips its invariant");
    assert_eq!(
        replayed, &repro.violation,
        "replayed violation must match the committed one byte-for-byte"
    );
}
