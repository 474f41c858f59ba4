//! The crash gate: every kill-and-resume test of the workspace is a
//! `qd-chaos` schedule here. Five named workloads — the per-request
//! stream, a clean multi-tenant service, a spiked service under the
//! retry ladder + bisection, the same with tenant breakers, and the
//! deployment's checkpointed training behind the train door — each get
//! **every** `qd_core::Fault` at **every** `Vfs` operation it applies
//! to, and a kill at **every** journal boundary their units reach
//! ([`Harness::exhaustive`]); every fault must fire, the run must finish
//! within one resume and pass all six invariants, and a failure prints
//! its `chaos-repro.json`. The tests at the end are about the
//! enumerator itself.

use qd_chaos::scenario::{serve_config, training};
use qd_chaos::{
    ChaosSchedule, FaultSpec, FrontDoor, Harness, InjectedFault, Repro, StorageFault, Terminal,
    Workload,
};
use qd_core::{
    BatchPreempt, Checkpoint, CrashPoint, Fault, FaultFs, QuickDrop, RequestState, VfsOp,
};
use qd_fed::FaultPlan;
use qd_serve::{build_plan, Plan};
use qd_unlearn::UnlearnRequest;
use std::mem::discriminant;
use std::path::Path;
use std::sync::Arc;

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

/// The deployment's own training, behind the train door: a checkpoint
/// after each of six rounds and the trained deployment last. One of three
/// clients is Byzantine, and at this seed it crashes in rounds 2, 3 and
/// 4, so its breaker is open from the fourth round's checkpoint on.
fn train_door() -> Workload {
    Workload {
        train_seed: 18,
        rounds: 6,
        byzantine_frac: 0.34,
        front_door: FrontDoor::Train,
        ..clean_service()
    }
}

fn plan_of(w: &Workload) -> Plan {
    build_plan(&serve_config(w)).expect("the workload plans")
}

/// The one failure of a single-fault schedule.
fn fault_of(schedule: &ChaosSchedule) -> FaultSpec {
    match schedule.faults[..] {
        [InjectedFault { attempt: 0, spec }] => spec,
        _ => panic!("not a single-fault schedule: {schedule:?}"),
    }
}

/// The `Vfs` operation a schedule's fault strikes and the
/// `qd_core::Fault` it injects there; `None` for a boundary kill.
fn op_fault(schedule: &ChaosSchedule) -> Option<(u64, Fault)> {
    match fault_of(schedule) {
        FaultSpec::Crash(CrashPoint::VfsOp(op)) => Some((op, Fault::Kill)),
        FaultSpec::Storage { op, fault } => Some((op, fault.to_fault())),
        FaultSpec::Crash(CrashPoint::Boundary { .. }) => None,
    }
}

/// The `(unit, boundary)` kills among `schedules`, in order.
fn boundaries(schedules: &[ChaosSchedule]) -> Vec<(usize, BatchPreempt)> {
    (schedules.iter().map(fault_of))
        .filter_map(|spec| match spec {
            FaultSpec::Crash(CrashPoint::Boundary { unit, boundary }) => Some((unit, boundary)),
            _ => None,
        })
        .collect()
}

/// The operation kinds each `qd_core::Fault` is injected at — a match
/// with no wildcard, so a variant cannot be added to `Fault` without
/// saying where the crash gate injects it.
fn kinds_of(fault: Fault) -> &'static [VfsOp] {
    match fault {
        Fault::Kill => &[
            VfsOp::Read,
            VfsOp::Write,
            VfsOp::Append,
            VfsOp::Fsync,
            VfsOp::Rename,
            VfsOp::Remove,
            VfsOp::Exists,
            VfsOp::List,
        ],
        Fault::TornWrite(_) | Fault::DiskFull => &[VfsOp::Write, VfsOp::Append],
        Fault::FsyncFail => &[VfsOp::Fsync],
        Fault::BitFlip(_) | Fault::ShortRead(_) => &[VfsOp::Read],
    }
}

/// Every `qd_core::Fault` variant, with the size the enumerator gives it
/// at an operation that moved `len` bytes: half of a torn write, the
/// last bit of a read, half of a short one.
fn sized(len: usize) -> [Fault; 6] {
    [
        Fault::Kill,
        Fault::TornWrite(len / 2),
        Fault::FsyncFail,
        Fault::DiskFull,
        Fault::BitFlip((len * 8).saturating_sub(1)),
        Fault::ShortRead(len / 2),
    ]
}

/// Whether `fault` damages what a read returns: it fires only at a read
/// that returns at least one byte.
fn damages_a_read(fault: Fault) -> bool {
    matches!(fault, Fault::BitFlip(_) | Fault::ShortRead(_))
}

/// `schedules` inject each `Fault` variant at exactly the operations of
/// the reference lifetime `ops` it applies to ([`kinds_of`]), sized from
/// the bytes the operation moved, once each — a read fault only at a
/// read that returned a byte, as nowhere else could it fire.
fn assert_every_fault_is_enumerated(schedules: &[ChaosSchedule], ops: &[(VfsOp, usize)]) {
    let enumerated: Vec<(u64, Fault)> = schedules.iter().filter_map(op_fault).collect();
    for &(op, fault) in enumerated.iter().filter(|(_, f)| damages_a_read(*f)) {
        let (kind, len) = ops[op as usize];
        assert!(
            kind == VfsOp::Read && len > 0,
            "{fault:?} at op {op}: {kind:?} of {len} bytes"
        );
    }
    let mut expected = Vec::new();
    for variant in 0..sized(0).len() {
        for (op, &(kind, len)) in (0..).zip(ops) {
            let fault = sized(len)[variant];
            if kinds_of(fault).contains(&kind) && (len > 0 || !damages_a_read(fault)) {
                expected.push((op, fault));
            }
        }
    }
    // A lifetime that reads nothing (the train door's) has no read to
    // fault; every other fault applies somewhere in each workload.
    let reads = ops
        .iter()
        .any(|&(kind, len)| kind == VfsOp::Read && len > 0);
    for variant in sized(0)
        .into_iter()
        .filter(|&f| reads || !damages_a_read(f))
    {
        assert!(
            (enumerated.iter()).any(|(_, f)| discriminant(f) == discriminant(&variant)),
            "{variant:?} is never injected"
        );
    }
    assert_eq!(enumerated, expected);
}

/// The journal in `terminal`'s files, opened as it lies: the open decodes
/// no snapshot, and each one read afterwards is bit for bit the eager
/// decode of the same bytes, for every record the run made durable. The
/// train door journals nothing.
fn assert_lazy_matches_eager(w: &Workload, terminal: &Terminal) {
    if w.front_door == FrontDoor::Train {
        return;
    }
    let journal = (terminal.files.keys())
        .find(|p| p.extension().is_some_and(|e| e == "journal"))
        .expect("a journaled run leaves its marker");
    let fs = Arc::new(FaultFs::new());
    fs.reset_to(terminal.files.clone());
    let compared = qd_core::check_lazy_snapshots(fs, journal)
        .unwrap_or_else(|e| panic!("{}: {e}", journal.display()));
    assert_eq!(compared, terminal.records.len());
}

/// Runs `schedule`, demanding that its one fault fired, that the run
/// finished within its one resume — a kill or a torn write always needs
/// it — and that all six invariants hold, or panics with the
/// schedule's `chaos-repro.json`; and that the faulted run's journal
/// decodes lazily as it does eagerly. Returns the fault-free reference
/// terminal and the faulted run's last death.
fn assert_resumes(harness: &mut Harness, schedule: &ChaosSchedule) -> (Terminal, String) {
    let outcome = harness.execute(schedule).expect("schedule executes");
    let report = outcome.report();
    assert_eq!(report.invariants_checked, 6);
    let spec = fault_of(schedule);
    if let Some(violation) = report.violations.first() {
        let repro = Repro {
            schedule: schedule.clone(),
            violation: violation.clone(),
        };
        let json = repro.to_json().expect("repros encode");
        panic!("{spec:?} broke resume; chaos-repro.json:\n{json}");
    }
    let dies = matches!(
        spec,
        FaultSpec::Crash(_)
            | FaultSpec::Storage {
                fault: StorageFault::TornWrite(_),
                ..
            }
    );
    assert_eq!(report.faults_fired, 1, "{spec:?}: the fault must fire");
    assert!(
        report.attempts == 2 || (report.attempts == 1 && !dies),
        "{spec:?}: {} lifetimes",
        report.attempts
    );
    let faulted = outcome.faulted.as_ref().expect("the run completed");
    assert_lazy_matches_eager(&schedule.workload, faulted);
    (outcome.reference, outcome.last_error)
}

/// Runs every enumerated schedule of `w`, of which there must be
/// `count` — the five workloads enumerate 162 + 127 + 139 + 139 + 55 =
/// 622 schedules — and checks that each `Fault` is injected wherever it
/// applies. Every save that rotated the primary to `.prev` is killed
/// between that rename and the one that puts its tmp file in place, and
/// a service lifetime is killed inside its stats write.
fn assert_every_kill_resumes(w: &Workload, count: usize) -> (Vec<ChaosSchedule>, Terminal) {
    let mut harness = Harness::new();
    let schedules = harness.exhaustive(w).expect("the workload enumerates");
    assert_eq!(schedules.len(), count, "{w:?}");
    let mut reference = None;
    let mut deaths = Vec::new();
    for schedule in &schedules {
        let (terminal, death) = assert_resumes(&mut harness, schedule);
        reference = Some(terminal);
        deaths.push(death);
    }
    let reference = reference.expect("a workload has crash points");
    assert_lazy_matches_eager(w, &reference);
    assert_every_fault_is_enumerated(&schedules, &reference.ops);
    let died_at = |what: &str| deaths.iter().filter(|d| d.contains(what)).count();
    let rotations = died_at("renaming chaos.ckpt.json: ");
    assert!(
        rotations >= 2,
        "a save after serving and one after the relearn, or after a round"
    );
    assert_eq!(
        died_at("renaming chaos.ckpt.json.tmp: "),
        rotations + 1,
        "the deploy's save, and each save that rotated"
    );
    let service = w.front_door == FrontDoor::Service;
    assert_eq!(
        died_at("chaos.stats.json.tmp: ") >= 3,
        service,
        "write, fsync, rename"
    );
    (schedules, reference)
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
fn assert_clean_workload_resumes(
    w: &Workload,
    count: usize,
) -> (Vec<ChaosSchedule>, Plan, Terminal) {
    let plan = plan_of(w);
    assert!(plan.batches.len() >= 2, "need a multi-unit plan");
    assert!(plan.batches.iter().any(|u| u.members.len() > 1));
    assert!(plan.batches.iter().any(|u| u.members.len() == 1));
    let (schedules, reference) = assert_every_kill_resumes(w, count);
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
    let (schedules, plan, reference) = assert_clean_workload_resumes(&per_request_stream(), 162);
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
    let (_, _, reference) = assert_clean_workload_resumes(&clean_service(), 127);
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
fn assert_isolated_service_resumes(w: &Workload, count: usize, sheds: bool) {
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

    let (schedules, reference) = assert_every_kill_resumes(w, count);
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
    assert_isolated_service_resumes(&spiked_service(), 139, false);
}

#[test]
fn breaker_service_resumes_from_every_crash_point() {
    assert_isolated_service_resumes(&breaker_service(), 139, true);
}

#[test]
fn train_door_resumes_from_every_crash_point() {
    let (_, reference) = assert_every_kill_resumes(&train_door(), 55);
    assert_eq!(
        reference.saved.len(),
        train_door().rounds + 1,
        "a checkpoint per round, and the trained deployment"
    );
}

/// The train door's fault-free lifetime is training as it runs in
/// memory: the same model and RNG stream, and its deployment checkpoint
/// is the one `QuickDrop::train`'s system captures, byte for byte —
/// saving a checkpoint every round changes nothing it trains.
#[test]
fn the_train_doors_terminal_is_in_memory_training() {
    let w = train_door();
    let mut harness = Harness::new();
    let schedules = harness.exhaustive(&w).expect("the workload enumerates");
    let reference = harness.execute(&schedules[0]).expect("executes").reference;

    let (mut fed, config, mut rng) = training(&w);
    let (qd, _) = QuickDrop::train(&mut fed, config, &mut rng);
    let bits = |ts: &[qd_tensor::Tensor]| -> Vec<u32> {
        (ts.iter())
            .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
            .collect()
    };
    assert_eq!(bits(&reference.global), bits(fed.global()));
    assert_eq!(reference.rng, rng.state());
    let (fs, ckpt) = (FaultFs::new(), Path::new("chaos.ckpt.json"));
    Checkpoint::capture(fed.global(), &qd)
        .save_on(&fs, ckpt)
        .expect("saves");
    assert!(reference.files.get(ckpt) == fs.file(ckpt).as_ref());
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

    // The kills come first, one per operation: 0..n with n the first
    // index past the fault-free lifetime — kill n-1 fires, kill n has
    // nothing to kill. Storage faults strike only those n operations,
    // and the boundary kills are the plan's.
    let ops: Vec<u64> = (schedules.iter())
        .map_while(|s| match fault_of(s) {
            FaultSpec::Crash(CrashPoint::VfsOp(op)) => Some(op),
            _ => None,
        })
        .collect();
    let n = ops.len() as u64;
    assert!(n > 20, "the stream must exercise a real op stream, got {n}");
    assert_eq!(ops, (0..n).collect::<Vec<_>>());
    let faulted_ops = schedules.iter().filter_map(op_fault);
    assert_eq!(faulted_ops.filter(|&(op, _)| op >= n).count(), 0);
    let plan = plan_of(&w);
    assert_eq!(boundaries(&schedules), clean_boundaries(&plan));
    let mut past_the_end = schedules[ops.len() - 1].clone();
    assert_eq!(
        fault_of(&past_the_end),
        FaultSpec::Crash(CrashPoint::VfsOp(n - 1))
    );
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

    // Training only saves: its reference writes, syncs, looks and
    // renames, and reads nothing, so it gets kills, torn writes, full
    // disks and failed fsyncs, no read fault, and — journaling nothing —
    // no boundary kill.
    let w = train_door();
    let lossy = Workload {
        net_drop: 0.2,
        ..w.clone()
    };
    assert!(
        harness.exhaustive(&lossy).is_err(),
        "a resume is bit for bit on loopback only"
    );
    let train = harness.exhaustive(&w).expect("the train door enumerates");
    assert!(train[0]
        .to_json()
        .expect("encodes")
        .contains("\"front_door\":\"Train\""));
    let reference = harness.execute(&train[0]).expect("executes").reference;
    let saves = [VfsOp::Write, VfsOp::Fsync, VfsOp::Exists, VfsOp::Rename];
    assert!(reference.ops.iter().all(|(kind, _)| saves.contains(kind)));
    let faults: Vec<Fault> = train.iter().filter_map(op_fault).map(|(_, f)| f).collect();
    for variant in sized(0) {
        let injected = faults
            .iter()
            .any(|f| discriminant(f) == discriminant(&variant));
        assert_eq!(injected, !damages_a_read(variant), "{variant:?}");
    }
    assert_eq!(boundaries(&train), []);

    // The premise of a resume that must carry the client breaker: a
    // generation the reference saved before its last round has a client
    // cooling down. Every enumerated kill from its rename to the next
    // save's leaves it on disk, and the resume from it re-runs rounds
    // that client sits out.
    let cooling = (reference.saved.iter()).any(|bytes| {
        let fs = FaultFs::new();
        let path = Path::new("generation");
        fs.reset_to([(path.to_path_buf(), bytes.clone())].into());
        let ckpt = Checkpoint::read_on(&fs, path).expect("a saved generation loads");
        ckpt.mid_phase().is_some_and(|mid| {
            mid.cursor.next_round < w.rounds && mid.cursor.health.cooldown.iter().any(|&c| c > 0)
        })
    });
    assert!(cooling, "test premise: a checkpoint with an open breaker");
}

/// A schedule holds one fault, so a violating one is its own minimal
/// reproducer: written with its violation, it replays byte-for-byte.
#[test]
fn an_enumerated_kill_without_its_resume_replays_byte_for_byte() {
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

    let repro = Repro {
        schedule: stalled.clone(),
        violation: violation.clone(),
    };
    let json = repro.to_json().expect("repros encode");
    let parsed = Repro::from_json(&json).expect("repro parses");
    assert_eq!(parsed, repro);
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

/// A short read of the tail journal segment is no torn tail. These
/// operations are that read in each workload's reference lifetime; while
/// a repairing open trusted one read, it cut the segment to the short
/// read's prefix, lost acknowledged records, and every one of these
/// schedules ended in `kill-resume-equivalence: global model: tensor 0
/// element 0 diverged`.
#[test]
fn a_short_read_of_the_tail_segment_loses_no_record() {
    let mut harness = Harness::new();
    for (w, at) in [
        (per_request_stream(), 51),
        (per_request_stream(), 69),
        (clean_service(), 49),
        (spiked_service(), 53),
        (breaker_service(), 53),
    ] {
        let schedules = harness.exhaustive(&w).expect("the workload enumerates");
        let short_read = (schedules.iter())
            .find(|s| {
                let spec = fault_of(s);
                matches!(spec, FaultSpec::Storage { op, fault: StorageFault::ShortRead(_) } if op == at)
            })
            .unwrap_or_else(|| panic!("{w:?} reads at op {at}"));
        assert_resumes(&mut harness, short_read);
    }
}
