//! The crash gate: every kill-and-resume test of the workspace is a
//! `qd-chaos` schedule here. Four named workloads — the per-request
//! stream, a clean multi-tenant service, a spiked service under the
//! retry ladder + bisection, and the same with tenant breakers — are
//! each killed at **every** `Vfs` operation and at **every** journal
//! boundary their units reach ([`Harness::exhaustive`]); every kill
//! must fire, resume within one more lifetime and pass all six
//! invariants, and a failure prints its shrunk `chaos-repro.json`.
//! The tests at the end are about the enumerator itself.

use qd_chaos::scenario::serve_config;
use qd_chaos::{
    shrink, ChaosSchedule, FaultSpec, FrontDoor, Harness, InjectedFault, Repro, Terminal, Workload,
};
use qd_core::{BatchPreempt, CrashPoint, RequestState};
use qd_fed::FaultPlan;
use qd_serve::{build_plan, Plan};
use qd_unlearn::UnlearnRequest;

/// Two tenants, three requests each, a tight class universe: the plan
/// is a singleton, a coalesced unit of three and another singleton.
fn clean_service() -> Workload {
    Workload {
        train_seed: 42,
        samples: 120,
        clients: 3,
        rounds: 3,
        byzantine_frac: 0.0,
        net_drop: 0.0,
        ascent_spike: 1.0,
        tenants: 2,
        requests: 3,
        serve_seed: 11,
        breaker_trip: 0,
        breaker_cooldown: 2,
        relearn: true,
        front_door: FrontDoor::Service,
    }
}

/// The same deployment and plan, served the way `quickdrop-cli unlearn`
/// and `relearn --journal` do: single → coalesced batch → single →
/// relearn, one journaled call each.
fn per_request_stream() -> Workload {
    Workload {
        front_door: FrontDoor::PerRequest,
        ..clean_service()
    }
}

/// One of three clients spikes every ascent it joins by 10^6, under
/// all-client-request traffic: ladder + bisection quarantine exactly
/// its request out of a clean unit, a mixed unit and another mixed one.
fn spiked_service() -> Workload {
    Workload {
        byzantine_frac: 0.34,
        ascent_spike: 1.0e6,
        requests: 6,
        serve_seed: 1,
        ..clean_service()
    }
}

/// The spiked service with tenant breakers: the first quarantine trips
/// the owner's breaker and the last unit sheds that tenant's member.
fn breaker_service() -> Workload {
    Workload {
        breaker_trip: 1,
        ..spiked_service()
    }
}

fn plan_of(w: &Workload) -> Plan {
    build_plan(&serve_config(w)).expect("the workload plans")
}

fn kill_of(schedule: &ChaosSchedule) -> CrashPoint {
    match schedule.faults[..] {
        [InjectedFault {
            attempt: 0,
            spec: FaultSpec::Crash(point),
        }] => point,
        _ => panic!("not a single-death schedule: {schedule:?}"),
    }
}

/// The `(unit, boundary)` kills among `schedules`, in order.
fn boundaries(schedules: &[ChaosSchedule]) -> Vec<(usize, BatchPreempt)> {
    (schedules.iter().map(kill_of))
        .filter_map(|point| match point {
            CrashPoint::Boundary { unit, boundary } => Some((unit, boundary)),
            CrashPoint::VfsOp(_) => None,
        })
        .collect()
}

/// Runs `schedule`, demanding that its one kill fired, that one resume
/// finished the run, and that all six invariants hold — or panics with
/// the shrunk reproducer. Returns the fault-free reference terminal.
fn assert_resumes(harness: &mut Harness, schedule: &ChaosSchedule) -> Terminal {
    let outcome = harness.execute(schedule).expect("schedule executes");
    let report = outcome.report();
    assert_eq!(report.invariants_checked, 6);
    if let Some(violation) = report.violations.first() {
        let repro = shrink(harness, schedule, violation).expect("violation reproduces");
        let json = repro.to_json().expect("repros encode");
        panic!(
            "{:?} broke resume; chaos-repro.json:\n{json}",
            kill_of(schedule)
        );
    }
    assert_eq!(
        (report.faults_fired, report.attempts),
        (1, 2),
        "{:?}: the kill must fire, and one resume must finish",
        kill_of(schedule)
    );
    outcome.reference
}

/// Kills `w` at every enumerated crash point — the four workloads
/// enumerate 45 + 48 + 54 + 54 = 201 schedules.
fn assert_every_kill_resumes(w: &Workload) -> (Vec<ChaosSchedule>, Terminal) {
    let mut harness = Harness::new();
    let schedules = harness.exhaustive(w).expect("the workload enumerates");
    let mut reference = None;
    for schedule in &schedules {
        reference = Some(assert_resumes(&mut harness, schedule));
    }
    (schedules, reference.expect("a workload has crash points"))
}

/// Every unit of a clean plan reaches every boundary of the unit engine.
fn clean_boundaries(plan: &Plan) -> Vec<(usize, BatchPreempt)> {
    let mut all = Vec::new();
    for (unit, batch) in plan.batches.iter().enumerate() {
        all.push((unit, BatchPreempt::Received));
        all.extend((1..=batch.members.len()).map(|k| (unit, BatchPreempt::Unlearned(k))));
        all.push((unit, BatchPreempt::Recovered));
    }
    all
}

/// A clean workload: the plan has several units, a coalesced one to
/// kill mid-batch and a singleton for the unbatched engine path, every
/// unit is killed at every boundary,
/// and the run every kill is compared against served everyone without
/// a rollback — so no resumed run rolled back either.
fn assert_clean_workload_resumes(w: &Workload) -> (Vec<ChaosSchedule>, Plan, Terminal) {
    let plan = plan_of(w);
    assert!(plan.batches.len() >= 2, "need a multi-unit plan");
    assert!(plan.batches.iter().any(|u| u.members.len() > 1));
    assert!(plan.batches.iter().any(|u| u.members.len() == 1));
    let (schedules, reference) = assert_every_kill_resumes(w);
    assert_eq!(boundaries(&schedules), clean_boundaries(&plan));
    let recovered = (reference.records.iter()).filter(|r| r.state == RequestState::Recovered);
    assert_eq!(
        recovered.count(),
        plan.batches.iter().map(|u| u.members.len()).sum::<usize>(),
        "every planned member reaches RECOVERED"
    );
    let mut guards = reference.records.iter().filter_map(|r| r.guard);
    assert!(guards.all(|g| g.rollbacks == 0), "a clean run rolled back");
    (schedules, plan, reference)
}

#[test]
fn per_request_stream_resumes_from_every_crash_point() {
    let (schedules, plan, reference) = assert_clean_workload_resumes(&per_request_stream());
    assert_eq!(
        reference.records.last().map(|r| r.state),
        Some(RequestState::Relearned),
        "the stream ends with the relearn"
    );
    assert!(reference.stats.is_none(), "no stats behind this door");

    // Rule 2 of `qd_core::lifecycle`: a request served alone is its
    // unit's one member, so `Unlearned(2)` — which the enumerator never
    // yields for a unit of one — names its UNLEARNED record and fires.
    let mut schedule = schedules[0].clone();
    schedule.faults[0].spec = FaultSpec::Crash(CrashPoint::Boundary {
        unit: (plan.batches.iter())
            .position(|u| u.members.len() == 1)
            .expect("shape asserted above"),
        boundary: BatchPreempt::Unlearned(2),
    });
    assert_resumes(&mut Harness::new(), &schedule);
}

#[test]
fn clean_service_resumes_from_every_crash_point() {
    let (_, _, reference) = assert_clean_workload_resumes(&clean_service());
    let stats = reference.stats.expect("the service reports");
    assert_eq!(stats.served, stats.admitted);
    assert!(stats.coalesce_ratio > 1.0, "the mix must actually coalesce");
}

/// A spiked workload: the plan mixes the Byzantine client's request
/// with honest ones in one unit (bisection) and has a clean unit, and
/// the enumerated boundaries include a kill right after a dead-letter
/// write, one mid-survivors of the bisected unit, a clean unit's
/// RECOVERED (the resumed run must re-probe and take rung 0 again) and,
/// with breakers, the FAILED set.
fn assert_isolated_service_resumes(w: &Workload, sheds: bool) {
    let spike = FaultPlan::serving_spike(w.train_seed, w.byzantine_frac, w.ascent_spike);
    let byzantine: Vec<usize> = (0..w.clients)
        .filter(|&c| spike.fault_of(w.clients, c).is_some())
        .collect();
    let [byzantine] = byzantine[..] else {
        panic!("exactly one Byzantine client, got {byzantine:?}");
    };
    let poison = UnlearnRequest::Client(byzantine);
    let plan = plan_of(w);
    let mut poisoned = plan.batches.iter().filter(|u| u.members.contains(&poison));
    assert!(poisoned.any(|u| u.members.iter().any(|&m| m != poison)));
    assert!(plan.batches.iter().any(|u| !u.members.contains(&poison)));

    let (schedules, reference) = assert_every_kill_resumes(w);
    let kills = boundaries(&schedules);
    let units_at = |boundary| -> Vec<usize> {
        let at = kills.iter().filter(|k| k.1 == boundary);
        at.map(|k| k.0).collect()
    };
    let quarantining = units_at(BatchPreempt::Quarantined);
    assert!(!quarantining.is_empty(), "a unit must quarantine");
    assert!(
        (quarantining.iter()).any(|&u| kills.contains(&(u, BatchPreempt::Unlearned(1)))),
        "a quarantining unit must still serve its survivors"
    );
    assert!(
        (units_at(BatchPreempt::Recovered).iter()).any(|u| !quarantining.contains(u)),
        "a clean unit must be served whole"
    );
    assert_eq!(!units_at(BatchPreempt::Failed).is_empty(), sheds);
    let stats = reference.stats.expect("the service reports");
    assert!(stats.quarantined > 0 && stats.bisected_units > 0);
    assert_eq!(stats.shed > 0, sheds);
    assert_eq!(stats.breaker.iter().any(|label| label != "closed"), sheds);
}

#[test]
fn spiked_service_resumes_from_every_crash_point() {
    assert_isolated_service_resumes(&spiked_service(), false);
}

#[test]
fn breaker_service_resumes_from_every_crash_point() {
    assert_isolated_service_resumes(&breaker_service(), true);
}

#[test]
fn the_enumeration_is_exactly_the_reference_runs_crash_points() {
    let w = per_request_stream();
    let mut harness = Harness::new();
    let schedules = harness.exhaustive(&w).expect("the workload enumerates");
    assert_eq!(
        Harness::new().exhaustive(&w).expect("enumerates again"),
        schedules,
        "the enumeration is a function of the workload alone"
    );
    for schedule in &schedules {
        schedule.validate().expect("enumerated schedules validate");
        let json = schedule.to_json().expect("schedules encode");
        assert!(json.contains("\"front_door\":\"PerRequest\""), "{json}");
        let back = ChaosSchedule::from_json(&json).expect("round trip parses");
        assert_eq!(&back, schedule);
        assert_eq!(back.to_json().expect("schedules encode"), json);
    }

    // `op_count + Σ_units boundaries(unit)`: the boundary half is the
    // plan's, and the Vfs half is 0..n with n the first index past the
    // fault-free lifetime — kill n-1 fires, kill n has nothing to kill.
    let ops: Vec<u64> = (schedules.iter().map(kill_of))
        .filter_map(|point| match point {
            CrashPoint::VfsOp(op) => Some(op),
            CrashPoint::Boundary { .. } => None,
        })
        .collect();
    let n = ops.len() as u64;
    assert!(n > 20, "the stream must exercise a real op stream, got {n}");
    assert_eq!(ops, (0..n).collect::<Vec<_>>());
    let plan = plan_of(&w);
    assert_eq!(
        schedules.len(),
        ops.len() + clean_boundaries(&plan).len(),
        "exactly one schedule per crash point"
    );
    let mut past_the_end = schedules[ops.len() - 1].clone();
    assert_eq!(kill_of(&past_the_end), CrashPoint::VfsOp(n - 1));
    past_the_end.faults[0].spec = FaultSpec::Crash(CrashPoint::VfsOp(n));
    let report = harness.run(&past_the_end).expect("schedule executes");
    assert_eq!((report.faults_fired, report.attempts), (0, 1));

    // A service workload's JSON never names the front door.
    let service = harness
        .exhaustive(&clean_service())
        .expect("the service workload enumerates");
    assert!(!service[0]
        .to_json()
        .expect("encodes")
        .contains("front_door"));
}

#[test]
fn an_enumerated_kill_without_its_resume_shrinks_and_replays_byte_for_byte() {
    let mut harness = Harness::new();
    let schedules = harness
        .exhaustive(&per_request_stream())
        .expect("the workload enumerates");
    // Take the one resume away and a single death is a stall.
    let mut stalled = schedules.last().expect("non-empty").clone();
    stalled.max_resumes = 0;
    let report = harness.run(&stalled).expect("schedule executes");
    let violation = (report.violations.iter())
        .find(|v| v.invariant == "run-completes")
        .expect("a death with no resume left is a stall");

    let repro = shrink(&mut harness, &stalled, violation).expect("shrinking succeeds");
    assert_eq!(repro.schedule.faults.len(), 1, "the kill is load-bearing");
    assert_eq!(repro.schedule.workload.requests, 1);
    assert_eq!(
        repro.schedule.workload.front_door,
        FrontDoor::PerRequest,
        "shrinking keeps the front door"
    );
    let json = repro.to_json().expect("repros encode");
    let parsed = Repro::from_json(&json).expect("repro parses");
    assert_eq!(parsed.to_json().expect("repros encode"), json);
    let replay = Harness::new()
        .run(&parsed.schedule)
        .expect("repro schedule executes");
    assert_eq!(
        replay.violations.first(),
        Some(&repro.violation),
        "a fresh harness replays the stored violation byte-for-byte"
    );
}
