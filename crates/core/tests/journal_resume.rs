//! Journal acceptance: what a served request stream leaves in the
//! journal, and how the journal refuses what it cannot read. A request
//! served alone and a coalesced batch go through the same unit engine;
//! the tests at the end pin the two places they are allowed to differ
//! (the batch id on disk, and what `Unlearned(k)` names). Killing a
//! stream at every boundary and resuming it is tested in
//! `crates/chaos/tests/exhaustive.rs` (the per-request workload); the
//! last test here kills a unit whose guard rolled an ascent back, and
//! pins the replay of its derived UNLEARNED records and the typed
//! refusal of a replay that leaves the journaled path.

#![allow(
    clippy::disallowed_methods,
    reason = "the test corrupts and removes its own files"
)]

use qd_core::{
    frame, segment_path, BatchId, BatchOutcome, BatchPreempt, Checkpoint, Fault, FaultFs,
    JournalError, JournalRecord, JournaledRun, QuickDrop, QuickDropConfig, ReplayMismatch,
    RequestJournal, RequestState, ServeError, Snapshot, Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, MethodOutcome, UnlearnRequest};
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_fed() -> (Federation, Rng) {
    let mut rng = Rng::seed_from(42);
    let data = SyntheticDataset::Digits.generate(240, &mut rng);
    let parts = partition_iid(data.len(), 3, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let fed = Federation::new(model(), clients, &mut rng);
    (fed, rng)
}

fn model() -> Arc<dyn Module> {
    Arc::new(Mlp::new(&[256, 16, 10]))
}

fn config() -> QuickDropConfig {
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(6, 3, 16, 0.1);
    cfg
}

fn policy() -> GuardPolicy {
    // QuickDrop's adaptive multi-round ascent drifts ~0.6 on this tiny
    // model — above the 0.5 default meant for single-round SGA — so give
    // the clean run headroom while keeping a real budget in force.
    GuardPolicy {
        drift_budget: 1.0,
        ..GuardPolicy::default()
    }
}

const REQUESTS: [UnlearnRequest; 2] = [UnlearnRequest::Class(3), UnlearnRequest::Class(7)];

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

fn assert_same_records(reference: &[JournalRecord<Snapshot>], resumed: &[JournalRecord<Snapshot>]) {
    assert_eq!(reference.len(), resumed.len(), "journal length diverged");
    for (a, b) in reference.iter().zip(resumed) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.request, b.request);
        assert_eq!(a.state, b.state);
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.rng, b.rng, "RNG stream diverged at {} {}", a.seq, a.state);
        assert_eq!(
            a.guard, b.guard,
            "guard stats diverged at {} {}",
            a.seq, a.state
        );
        assert_bit_identical(&a.global, &b.global);
    }
}

/// The journal survives a reopen byte-for-byte.
fn assert_reopens_identically(fs: &Arc<FaultFs>, journal: &RequestJournal) {
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let reopened = RequestJournal::open_on(vfs, PathBuf::from("d.json.journal")).unwrap();
    assert_same_records(journal.records(), reopened.records());
}

/// Each model snapshot is on disk at most once: every UNLEARNED record is
/// derived (a digest, no model), and among the stored records the
/// (single) segment holds one inline snapshot per model change — the
/// first stored record's counts as one — and a back-reference for every
/// record that repeats the last stored one. Returns the number of inline
/// snapshots.
fn assert_each_snapshot_stored_once(fs: &FaultFs, journal: &RequestJournal) -> usize {
    let path = PathBuf::from("d.json.journal");
    assert!(fs.file(&segment_path(&path, 1)).is_none(), "one segment");
    let seg = fs.file(&segment_path(&path, 0)).expect("segment 0");
    let count = |pattern: &[u8]| seg.windows(pattern.len()).filter(|w| w == &pattern).count();
    let same = |a: &[Tensor], b: &[Tensor]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.dims() == y.dims()
                    && x.data()
                        .iter()
                        .zip(y.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
    };
    let (derived, stored): (Vec<_>, Vec<_>) =
        (journal.records().iter().enumerate()).partition(|(_, r)| r.state.is_derived());
    for (i, record) in &derived {
        assert!(record.global.is_empty() && journal.digest(*i).is_some());
    }
    let changes = 1 + stored
        .windows(2)
        .filter(|w| !same(&w[0].1.global, &w[1].1.global))
        .count();
    assert_eq!(count(b"\"global\":{\"crc32\":"), derived.len(), "digests");
    assert_eq!(count(b"\"global\":["), changes, "inline snapshots");
    assert_eq!(
        count(b"\"global\":null"),
        stored.len() - changes,
        "back-references"
    );
    changes
}

#[test]
fn a_request_stream_journals_the_full_state_machine() {
    // Serve both requests journaled, relearn the first.
    let fs = Arc::new(FaultFs::new());
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&fs);
    for request in REQUESTS {
        let run = qd
            .serve_journaled(
                &mut fed,
                &mut journal,
                request,
                Some(&policy()),
                &mut rng,
                None,
            )
            .unwrap();
        let outcome = run.into_complete().expect("no preemption configured");
        let stats = outcome.guard.expect("guarded serving attaches stats");
        assert_eq!(stats.steps, 1, "clean serving needs one attempt");
        assert_eq!(stats.rollbacks, 0);
        assert!(stats.final_drift > 0.0);
    }
    let relearn_phase = qd.config().relearn_phase;
    qd.relearn_journaled(
        &mut fed,
        &mut journal,
        REQUESTS[0],
        &relearn_phase,
        &mut rng,
    )
    .unwrap();
    assert_eq!(
        journal
            .records()
            .iter()
            .map(|r| (r.seq, r.state))
            .collect::<Vec<_>>(),
        vec![
            (0, RequestState::Received),
            (0, RequestState::Unlearned),
            (0, RequestState::Recovered),
            (1, RequestState::Received),
            (1, RequestState::Unlearned),
            (1, RequestState::Recovered),
            (0, RequestState::Relearned),
        ],
        "journal must trace the full state machine"
    );
    assert_reopens_identically(&fs, &journal);
    // Both UNLEARNED snapshots are derived, and only the second RECEIVED
    // repeats a stored model (the first RECOVERED's): one inline
    // snapshot per served request, plus the first RECEIVED and the
    // RELEARNED.
    assert_eq!(assert_each_snapshot_stored_once(&fs, &journal), 4);
}

#[test]
fn journal_rejects_corrupt_and_foreign_files() {
    let dir = std::env::temp_dir().join("qd_journal_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("garbage.journal", "not json", "not a journal marker"),
        (
            "no_version.journal",
            "{\"records\": []}",
            "not a journal marker",
        ),
    ];
    for (name, contents, needle) in cases {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = RequestJournal::open(&path).expect_err("bad journal must not open");
        assert!(
            matches!(err, JournalError::Format { .. }),
            "{name}: {err:?} should be a Format error"
        );
        let msg = err.to_string();
        assert!(msg.contains(needle), "{name}: {msg:?}");
        assert!(msg.contains(name), "{name}: {msg:?} should name the file");
        // The io::Error conversion keeps the InvalidData classification
        // older callers matched on.
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn journals_of_another_version_are_refused_by_number() {
    let dir = std::env::temp_dir().join("qd_journal_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, contents, expected) in [
        ("v1_empty.journal", "{\"version\": 1, \"records\": []}", 1),
        ("future.journal", "QDJ99\n", 99),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = RequestJournal::open(&path).expect_err("only version 6 opens");
        assert!(
            matches!(err, JournalError::UnsupportedVersion { version, .. } if version == expected),
            "{name}: {err:?}"
        );
        assert!(err.to_string().contains(name), "{err} should name the file");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            contents,
            "a refused journal is left as it was"
        );
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{name}");
        std::fs::remove_file(&path).ok();
    }
}

/// Coalesced members run ascent back-to-back with no recovery in
/// between, so the second member's drift (measured against the state
/// after the first ascent) lands above the sequential budget; give the
/// clean batch run headroom while keeping a real budget in force.
fn batch_policy() -> GuardPolicy {
    GuardPolicy {
        drift_budget: 2.0,
        ..GuardPolicy::default()
    }
}

#[test]
fn a_batch_journals_atomic_sets_around_per_member_records() {
    // One coalesced batch of both requests: one RECEIVED set, two
    // UNLEARNED records, one shared recovery, one RECOVERED set.
    let fs = Arc::new(FaultFs::new());
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&fs);
    let run = qd
        .serve_batch_journaled(
            &mut fed,
            &mut journal,
            &REQUESTS,
            Some(&batch_policy()),
            &mut rng,
            None,
        )
        .unwrap();
    let outcome = run.into_complete().expect("no preemption configured");
    assert_eq!(outcome.unlearn.len(), REQUESTS.len());
    let stats = outcome.guard.expect("guarded serving attaches stats");
    assert_eq!(
        stats.steps as usize,
        REQUESTS.len(),
        "one attempt per member"
    );
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(
        journal
            .records()
            .iter()
            .map(|r| (r.seq, r.state, r.batch.map(|b| b.0)))
            .collect::<Vec<_>>(),
        vec![
            (0, RequestState::Received, Some(0)),
            (1, RequestState::Received, Some(0)),
            (0, RequestState::Unlearned, Some(0)),
            (1, RequestState::Unlearned, Some(0)),
            (0, RequestState::Recovered, Some(0)),
            (1, RequestState::Recovered, Some(0)),
        ],
        "batch journal: atomic RECEIVED set, per-member UNLEARNED, atomic RECOVERED set"
    );
    assert_reopens_identically(&fs, &journal);
    // The second member of each atomic set repeats the first's model, and
    // both UNLEARNED snapshots are derived: RECEIVED and RECOVERED inline.
    assert_eq!(assert_each_snapshot_stored_once(&fs, &journal), 2);
}

#[test]
fn relearn_of_an_unserved_request_is_rejected() {
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&Arc::new(FaultFs::new()));
    let phase = qd.config().relearn_phase;
    let err = qd
        .relearn_journaled(&mut fed, &mut journal, REQUESTS[0], &phase, &mut rng)
        .expect_err("nothing recovered yet");
    assert!(err.to_string().contains("no recovered request"), "{err}");
}

/// A relearn the journal already holds is refused with nothing written:
/// the marks restored from the journal tail no longer hold the target
/// as forgotten, though its member still counts as served.
#[test]
fn a_second_relearn_of_a_relearned_request_is_rejected() {
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&Arc::new(FaultFs::new()));
    let phase = qd.config().relearn_phase;
    qd.serve_journaled(&mut fed, &mut journal, REQUESTS[0], None, &mut rng, None)
        .unwrap();
    qd.relearn_journaled(&mut fed, &mut journal, REQUESTS[0], &phase, &mut rng)
        .unwrap();
    let (records, model) = (journal.records().len(), fed.global().to_vec());
    qd.restore_tail(&mut fed, &journal, &mut rng);
    let err = qd
        .relearn_journaled(&mut fed, &mut journal, REQUESTS[0], &phase, &mut rng)
        .expect_err("relearned already");
    assert_eq!(
        err.to_string(),
        format!(
            "the deployment has not forgotten {}: nothing to relearn",
            REQUESTS[0]
        )
    );
    assert_eq!(
        journal.records().len(),
        records,
        "no second RELEARNED record"
    );
    assert!(fed
        .global()
        .iter()
        .zip(&model)
        .all(|(a, b)| a.data() == b.data()));
}

/// Trains once and returns a served-nothing deployment on an in-memory
/// filesystem: the journal is empty and bound to `fs`.
/// A failed journal append says so: `journal I/O: …`, naming the file.
#[test]
fn a_failed_append_names_the_journal() {
    let fs = Arc::new(FaultFs::new());
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&fs);
    fs.schedule_fault(fs.op_count(), Fault::DiskFull);
    let err = qd
        .serve_journaled(&mut fed, &mut journal, REQUESTS[0], None, &mut rng, None)
        .expect_err("the RECEIVED append fails");
    assert!(matches!(err, ServeError::Journal(_)), "{err:?}");
    assert_eq!(
        err.to_string(),
        "journal I/O: writing d.json.journal.tmp: no space left on device"
    );
}

fn deployment_on(fs: &Arc<FaultFs>) -> (Federation, QuickDrop, Rng, RequestJournal) {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let journal = RequestJournal::open_on(vfs, PathBuf::from("d.json.journal")).unwrap();
    (fed, qd, rng, journal)
}

#[test]
fn unlearned_count_names_a_member_only_inside_a_batch() {
    // The same single request, written batch-form (`batch: Some`): now
    // `Unlearned(2)` names a second member that does not exist, so the
    // unit runs to completion; `Unlearned(1)` still stops it.
    for (kill, stops) in [
        (BatchPreempt::Unlearned(2), false),
        (BatchPreempt::Unlearned(1), true),
    ] {
        let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&Arc::new(FaultFs::new()));
        let run = qd
            .serve_batch_journaled(
                &mut fed,
                &mut journal,
                &REQUESTS[..1],
                Some(&policy()),
                &mut rng,
                Some(kill),
            )
            .unwrap();
        assert_eq!(
            matches!(run, JournaledRun::Preempted { .. }),
            stops,
            "{kill:?}"
        );
        let last = journal.last().unwrap();
        assert_eq!(last.batch, Some(BatchId(0)));
        let landed = if stops {
            RequestState::Unlearned
        } else {
            RequestState::Recovered
        };
        assert_eq!(last.state, landed, "{kill:?}");
    }

    // Served alone (`batch: None`) the request *is* its unit's one
    // member: any count names its UNLEARNED record, lands there, and is
    // reported back as `Unlearned(1)`.
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&Arc::new(FaultFs::new()));
    let run = qd
        .serve_journaled(
            &mut fed,
            &mut journal,
            REQUESTS[0],
            Some(&policy()),
            &mut rng,
            Some(BatchPreempt::Unlearned(2)),
        )
        .unwrap();
    let JournaledRun::Preempted { boundary } = run else {
        panic!("serving must stop at the UNLEARNED record");
    };
    assert_eq!(boundary, BatchPreempt::Unlearned(1));
    assert_eq!(journal.last().unwrap().state, RequestState::Unlearned);
    assert_eq!(journal.last().unwrap().batch, None);
}

/// There is one journaled path: serving a unit is appending its RECEIVED
/// set and finishing the journal's tail. Spelled as one call
/// (`serve_journaled`, `serve_batch_journaled`) or as the service
/// executor's two (`receive_unit`, then the resume protocol), a request
/// served alone and a batch leave the same bytes on disk and the same
/// model bits — at any commit where a fresh unit ran from live state and
/// a resumed one from the journal, this is where a difference showed.
#[test]
fn a_fresh_unit_and_a_received_then_resumed_one_are_byte_identical() {
    let policy = batch_policy();
    for requests in [&REQUESTS[..1], &REQUESTS[..]] {
        let served = Arc::new(FaultFs::new());
        let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&served);
        let (fed_, journal_, rng_) = (&mut fed, &mut journal, &mut rng);
        let ascent_rounds: usize = match requests {
            &[alone] => {
                let run = qd.serve_journaled(fed_, journal_, alone, Some(&policy), rng_, None);
                let outcome = run.unwrap().into_complete();
                outcome.expect("no preemption configured").unlearn.rounds
            }
            members => {
                let run =
                    qd.serve_batch_journaled(fed_, journal_, members, Some(&policy), rng_, None);
                let outcome = run.unwrap().into_complete();
                let ascents = outcome.expect("no preemption configured").unlearn;
                ascents.iter().map(|member| member.rounds).sum()
            }
        };
        assert!(
            ascent_rounds > 0,
            "a fresh unit reports its members' real ascent accounting"
        );
        let served_model = fed.global().to_vec();
        let resumed = qd
            .resume_requests(&mut fed, &mut journal, Some(&policy), &mut rng)
            .unwrap();
        assert!(resumed.is_none(), "nothing was in flight");
        assert_bit_identical(&served_model, fed.global());

        let built = Arc::new(FaultFs::new());
        let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&built);
        let batch = (requests.len() > 1).then_some(BatchId(0));
        QuickDrop::receive_unit(&fed, &mut journal, requests, batch, &rng).unwrap();
        let run = qd
            .resume_requests_until(&mut fed, &mut journal, Some(&policy), &mut rng, None)
            .unwrap();
        assert!(run.into_complete().flatten().is_some());

        assert_bit_identical(&served_model, fed.global());
        assert!(journal.records().iter().all(|r| r.batch == batch));
        assert_eq!(
            served.files(),
            built.files(),
            "journal marker and segments must be byte-identical"
        );
    }
}

#[test]
fn probe_unit_touches_nothing_whatever_the_verdict() {
    let fs = Arc::new(FaultFs::new());
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&fs);
    // Some history, so there are marks and records to disturb.
    qd.serve_journaled(
        &mut fed,
        &mut journal,
        REQUESTS[0],
        Some(&policy()),
        &mut rng,
        None,
    )
    .unwrap();
    let snapshot = |qd: &QuickDrop, fed: &Federation, name: &str| {
        // Model bits and both mark sets, as the checkpoint serializes them.
        let path = PathBuf::from(name);
        Checkpoint::capture(fed.global(), qd)
            .save_on(fs.as_ref(), &path)
            .unwrap();
        fs.file(&path).unwrap()
    };
    let before = snapshot(&qd, &fed, "before.json");
    let (rng_before, records_before) = (rng.state(), journal.records().len());

    let unit = [REQUESTS[1], UnlearnRequest::Client(1)];
    let strict = GuardPolicy {
        drift_budget: 1e-6,
        ascent_retries: 1,
        ..GuardPolicy::default()
    };
    for (policy, verdict) in [(batch_policy(), true), (strict, false)] {
        assert_eq!(qd.probe_unit(&mut fed, &unit, &policy, &rng), verdict);
        assert_eq!(before, snapshot(&qd, &fed, "after.json"), "{verdict}");
        assert_eq!(rng.state(), rng_before, "{verdict}");
        assert_eq!(journal.records().len(), records_before, "{verdict}");
    }
}

/// A coalesced unit whose second member the default guard accepts only
/// after one rollback, at half the ascent LR; the first and third pass
/// their first attempt.
const ROLLED_BACK: [UnlearnRequest; 3] = [
    UnlearnRequest::Client(0),
    UnlearnRequest::Class(3),
    UnlearnRequest::Class(7),
];

/// Serves [`ROLLED_BACK`] on a fresh deployment over `fs` under the
/// default guard, stopping after `kill`.
fn serve_rolled_back(fs: &Arc<FaultFs>, kill: Option<BatchPreempt>) -> JournaledRun<BatchOutcome> {
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(fs);
    let policy = GuardPolicy::default();
    let run = qd.serve_batch_journaled(
        &mut fed,
        &mut journal,
        &ROLLED_BACK,
        Some(&policy),
        &mut rng,
        kill,
    );
    run.unwrap()
}

/// A journal's records, as [`RequestJournal::records`] holds them.
type Records = Vec<JournalRecord<Snapshot>>;

/// What a restarted process holds after resuming the journal on `fs`
/// under `policy`: the resume's verdict, the model, the RNG stream and
/// the journal's records.
fn resume_on(
    fs: &Arc<FaultFs>,
    policy: &GuardPolicy,
) -> (
    Result<Option<MethodOutcome>, ServeError>,
    Vec<Tensor>,
    RngState,
    Records,
) {
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(fs);
    let resumed = qd.resume_requests(&mut fed, &mut journal, Some(policy), &mut rng);
    (
        resumed,
        fed.global().to_vec(),
        rng.state(),
        journal.records().to_vec(),
    )
}

/// The [`ReplayMismatch`] a resume failed with.
fn replay_mismatch(resumed: Result<Option<MethodOutcome>, ServeError>) -> ReplayMismatch {
    let err = resumed.expect_err("the replay must be refused");
    let ServeError::Io(io) = &err else {
        panic!("a replay mismatch is an I/O-class serve error, got {err}");
    };
    assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    *io.get_ref()
        .and_then(|e| e.downcast_ref::<ReplayMismatch>())
        .unwrap_or_else(|| panic!("expected a ReplayMismatch, got {err}"))
}

/// Every UNLEARNED record is derived, so a unit killed after k accepted
/// ascents resumes by replaying all k from its RECEIVED record — here
/// through a rollback and a halved LR — and must land where the
/// uninterrupted run did: the same journal bytes, model, RNG stream and
/// guard stats. A replay that does not match its record is refused with
/// a typed error, and nothing is written.
#[test]
fn a_resume_replays_the_accepted_ascents_through_a_rollback() {
    let served = Arc::new(FaultFs::new());
    assert!(matches!(
        serve_rolled_back(&served, None),
        JournaledRun::Complete(_)
    ));
    let (none, model, rng, records) = resume_on(&served, &GuardPolicy::default());
    assert!(none.unwrap().is_none(), "nothing was in flight");
    let rollbacks: Vec<(u32, u32)> = (records.iter())
        .filter(|r| r.state.is_derived())
        .map(|r| {
            r.guard
                .map(|g| (g.rollbacks, g.lr_halvings))
                .expect("guarded")
        })
        .collect();
    assert_eq!(
        rollbacks,
        [(0, 0), (1, 1), (1, 1)],
        "member 2 rolled back once"
    );

    let mut killed_after_two = None;
    for k in 1..=3 {
        let fs = Arc::new(FaultFs::new());
        let kill = BatchPreempt::Unlearned(k);
        let stopped = serve_rolled_back(&fs, Some(kill));
        assert!(matches!(stopped, JournaledRun::Preempted { boundary } if boundary == kill));
        if k == 2 {
            killed_after_two = Some(fs.files());
        }
        let (resumed, resumed_model, resumed_rng, resumed_records) =
            resume_on(&fs, &GuardPolicy::default());
        let outcome = resumed.unwrap().expect("the unit was in flight");
        assert_eq!(
            outcome.guard,
            records.last().unwrap().guard,
            "Unlearned({k})"
        );
        assert!(
            served.files() == fs.files(),
            "Unlearned({k}): journal bytes"
        );
        assert_bit_identical(&model, &resumed_model);
        assert_eq!(rng, resumed_rng, "Unlearned({k}): RNG stream");
        assert_same_records(&records, &resumed_records);
    }

    // Killed after member 2's accepted ascent: the segment's last commit is
    // its derived record. Refused without a write in every case: a digest
    // that no longer matches, a policy under which member 2 passes its
    // first attempt, and one under which member 1 never passes.
    let killed = killed_after_two.expect("killed at Unlearned(2)");
    let seg = segment_path(&PathBuf::from("d.json.journal"), 0);
    let tampered = {
        let mut files = killed.clone();
        let bytes = files.get_mut(&seg).expect("segment 0");
        let mut last = 0;
        while let Some(len) = bytes.get(last..last + 4) {
            let next = last + 8 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
            if next == bytes.len() {
                break;
            }
            last = next;
        }
        let mut body = bytes[last + 8..].to_vec();
        let key = b"\"crc32\":";
        let at = body.windows(key.len()).position(|w| w == key).unwrap() + key.len();
        let end = at + body[at..].iter().take_while(|b| b.is_ascii_digit()).count() - 1;
        body[end] = if body[end] == b'0' {
            b'1'
        } else {
            body[end] - 1
        };
        bytes.truncate(last);
        bytes.extend(frame::seal(&body).unwrap());
        files
    };
    let lenient = GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    };
    let strict = GuardPolicy {
        drift_budget: 1e-6,
        ..GuardPolicy::default()
    };
    for (files, policy, seq, what) in [
        (tampered, GuardPolicy::default(), 1, "snapshot digest"),
        (killed.clone(), lenient, 1, "guard stats"),
        // Member 1's replay now exhausts its retries: not a divergence
        // of the unit, a replay that left the journaled path.
        (killed, strict, 0, "accepted ascent"),
    ] {
        let fs = Arc::new(FaultFs::new());
        fs.reset_to(files.clone());
        let (resumed, model, rng, records) = resume_on(&fs, &policy);
        assert_eq!(replay_mismatch(resumed), ReplayMismatch { seq, what });
        assert!(
            fs.files() == files,
            "{what}: the refused resume wrote something"
        );
        // Left at the unit's RECEIVED boundary, not at a different model.
        assert_bit_identical(&records[0].global, &model);
        assert_eq!(records[0].rng, rng, "{what}");
    }
}
