//! Journal acceptance: what a served request stream leaves in the
//! journal, and how the journal refuses what it cannot read. A request
//! served alone and a coalesced batch go through the same unit engine;
//! the tests at the end pin the two places they are allowed to differ
//! (the batch id on disk, and what `Unlearned(k)` names). Killing a
//! stream at every boundary and resuming it is tested in
//! `crates/chaos/tests/exhaustive.rs` (the per-request workload).

use qd_core::{
    segment_path, BatchId, BatchPreempt, Checkpoint, FaultFs, JournalError, JournalRecord,
    JournaledRun, QuickDrop, QuickDropConfig, RequestJournal, RequestState, Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, UnlearnRequest};
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

fn assert_same_records(reference: &[JournalRecord], resumed: &[JournalRecord]) {
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

/// Each model snapshot is on disk once: the (single) segment holds one
/// inline snapshot per model change — the first record's counts as one —
/// and a back-reference for every record that repeats the one before it.
/// Returns the number of changes.
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
    let records = journal.records();
    let changes = 1 + records
        .windows(2)
        .filter(|w| !same(&w[0].global, &w[1].global))
        .count();
    assert_eq!(count(b"\"global\":["), changes, "inline snapshots");
    assert_eq!(
        count(b"\"global\":null"),
        records.len() - changes,
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
    // Only the second RECEIVED repeats a model (the first RECOVERED's).
    assert_eq!(assert_each_snapshot_stored_once(&fs, &journal), 6);
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
        let err = RequestJournal::open(&path).expect_err("only version 5 opens");
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
    // The second member of each atomic set repeats the first's model.
    assert_eq!(assert_each_snapshot_stored_once(&fs, &journal), 4);
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

/// Trains once and returns a served-nothing deployment on an in-memory
/// filesystem: the journal is empty and bound to `fs`.
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
