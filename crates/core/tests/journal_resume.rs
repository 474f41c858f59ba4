//! Journal acceptance: a request stream killed at every journal state
//! boundary (after RECEIVED, after UNLEARNED, after RECOVERED) resumes
//! from the deployment checkpoint + journal and reproduces the
//! uninterrupted run bit-for-bit — final model bits, RNG stream, and the
//! persisted `GuardStats` counters. A request served alone and a
//! coalesced batch go through the same unit engine; the tests at the
//! end pin the two places they are allowed to differ (the batch id on
//! disk, and what `Unlearned(k)` names).

use qd_core::{
    BatchId, BatchPreempt, BatchRun, Checkpoint, FaultFs, JournalError, JournalRecord, QuickDrop,
    QuickDropConfig, RequestJournal, RequestState, ResumeRun, ServeRun, StdFs, Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::Rng;
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

struct Paths {
    ckpt: PathBuf,
    journal: PathBuf,
}

fn paths(name: &str) -> Paths {
    let dir = std::env::temp_dir().join("qd_journal_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join(format!("{name}.json"));
    let journal = RequestJournal::path_for_checkpoint(&ckpt);
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&journal).ok();
    Paths { ckpt, journal }
}

/// A fresh process after a kill, as `quickdrop-cli unlearn --journal`
/// starts: open the deployment, finish the journal's in-flight unit.
fn recover(
    paths: &Paths,
    policy: &GuardPolicy,
) -> (
    QuickDrop,
    Federation,
    RequestJournal,
    Rng,
    Option<MethodOutcome>,
) {
    let (mut qd, mut fed, mut journal, fell_back) =
        QuickDrop::open_deployment(Arc::new(StdFs), &paths.ckpt, &paths.journal, model()).unwrap();
    assert!(fell_back.is_none(), "the primary checkpoint is intact");
    let mut rng = Rng::seed_from(0); // restored from the journal tail
    let finished = qd
        .resume_requests(&mut fed, &mut journal, Some(policy), &mut rng)
        .unwrap();
    (qd, fed, journal, rng, finished)
}

/// The uninterrupted run: train, serve both requests journaled, relearn
/// the first. Returns the final global parameters and the journal.
fn uninterrupted(paths: &Paths) -> (Vec<Tensor>, RequestJournal) {
    let (mut fed, mut rng) = fresh_fed();
    let (mut qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    Checkpoint::capture(fed.global(), &qd)
        .save(&paths.ckpt)
        .unwrap();
    let mut journal = RequestJournal::open(&paths.journal).unwrap();
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
    (fed.global().to_vec(), journal)
}

/// Kill at `kill` while serving the first request — which must stop
/// the run with `landed` as the last durable state and report
/// `reported` — then resume in a "fresh process" and finish the stream
/// identically.
fn kill_and_resume(
    kill: BatchPreempt,
    landed: RequestState,
    reported: BatchPreempt,
    reference: &(Vec<Tensor>, RequestJournal),
) {
    let paths = paths(&format!("kill_{kill:?}"));

    // Process A: train, checkpoint, die right after `boundary` is durable.
    {
        let (mut fed, mut rng) = fresh_fed();
        let (mut qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
        Checkpoint::capture(fed.global(), &qd)
            .save(&paths.ckpt)
            .unwrap();
        let mut journal = RequestJournal::open(&paths.journal).unwrap();
        let run = qd
            .serve_journaled(
                &mut fed,
                &mut journal,
                REQUESTS[0],
                Some(&policy()),
                &mut rng,
                Some(kill),
            )
            .unwrap();
        let ServeRun::Preempted { boundary } = run else {
            panic!("serving must stop at the {kill:?} boundary");
        };
        assert_eq!(boundary, reported);
        assert_eq!(journal.last().unwrap().state, landed);
    }

    // Process B: model, RNG and request progress all come from the
    // checkpoint + journal.
    let (mut qd, mut fed, mut journal, mut rng, finished) = recover(&paths, &policy());
    match landed {
        RequestState::Recovered => assert!(finished.is_none(), "nothing was in flight"),
        _ => {
            let outcome = finished.expect("resume finishes the in-flight request");
            assert_eq!(
                outcome
                    .guard
                    .expect("stats persisted across the kill")
                    .rollbacks,
                0
            );
        }
    }
    assert_eq!(journal.last().unwrap().state, RequestState::Recovered);

    // Finish the stream exactly as the uninterrupted run did.
    qd.serve_journaled(
        &mut fed,
        &mut journal,
        REQUESTS[1],
        Some(&policy()),
        &mut rng,
        None,
    )
    .unwrap();
    let relearn_phase = qd.config().relearn_phase;
    qd.relearn_journaled(
        &mut fed,
        &mut journal,
        REQUESTS[0],
        &relearn_phase,
        &mut rng,
    )
    .unwrap();

    assert_bit_identical(&reference.0, fed.global());
    assert_same_records(reference.1.records(), journal.records());

    std::fs::remove_file(&paths.ckpt).ok();
    std::fs::remove_file(&paths.journal).ok();
}

#[test]
fn killed_request_stream_resumes_bit_for_bit_at_every_boundary() {
    let ref_paths = paths("reference");
    let reference = uninterrupted(&ref_paths);
    assert_eq!(
        reference
            .1
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
    // The journal survives a reopen byte-for-byte.
    let reopened = RequestJournal::open(ref_paths.journal.clone()).unwrap();
    assert_same_records(reference.1.records(), reopened.records());

    // A request served alone is its unit's one member, so any
    // `Unlearned(k)` names its UNLEARNED record and reports `Unlearned(1)`.
    for (kill, landed, reported) in [
        (
            BatchPreempt::Received,
            RequestState::Received,
            BatchPreempt::Received,
        ),
        (
            BatchPreempt::Unlearned(1),
            RequestState::Unlearned,
            BatchPreempt::Unlearned(1),
        ),
        (
            BatchPreempt::Unlearned(2),
            RequestState::Unlearned,
            BatchPreempt::Unlearned(1),
        ),
        (
            BatchPreempt::Recovered,
            RequestState::Recovered,
            BatchPreempt::Recovered,
        ),
    ] {
        kill_and_resume(kill, landed, reported, &reference);
    }

    std::fs::remove_file(&ref_paths.ckpt).ok();
    std::fs::remove_file(&ref_paths.journal).ok();
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
        let err = RequestJournal::open(&path).expect_err("only version 4 opens");
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

/// Uninterrupted coalesced batch of both requests: one RECEIVED set,
/// two UNLEARNED records, one shared recovery, one RECOVERED set.
fn uninterrupted_batch(paths: &Paths) -> (Vec<Tensor>, RequestJournal) {
    let (mut fed, mut rng) = fresh_fed();
    let (mut qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    Checkpoint::capture(fed.global(), &qd)
        .save(&paths.ckpt)
        .unwrap();
    let mut journal = RequestJournal::open(&paths.journal).unwrap();
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
    (fed.global().to_vec(), journal)
}

/// Kill mid-batch at `boundary`, resume in a fresh process, and the
/// model, journal and per-request terminal states must all match the
/// unfailed batch run bit-for-bit.
fn kill_and_resume_batch(
    boundary: BatchPreempt,
    name: &str,
    reference: &(Vec<Tensor>, RequestJournal),
) {
    let paths = paths(name);

    // Process A: train, checkpoint, die right after `boundary` is durable.
    {
        let (mut fed, mut rng) = fresh_fed();
        let (mut qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
        Checkpoint::capture(fed.global(), &qd)
            .save(&paths.ckpt)
            .unwrap();
        let mut journal = RequestJournal::open(&paths.journal).unwrap();
        let run = qd
            .serve_batch_journaled(
                &mut fed,
                &mut journal,
                &REQUESTS,
                Some(&batch_policy()),
                &mut rng,
                Some(boundary),
            )
            .unwrap();
        let BatchRun::Preempted { boundary: stopped } = run else {
            panic!("batch serving must stop at {boundary:?}");
        };
        assert_eq!(stopped, boundary);
    }

    // Process B: batch membership and progress come entirely from the
    // checkpoint + journal.
    let (_qd, fed, journal, _rng, finished) = recover(&paths, &batch_policy());
    match boundary {
        BatchPreempt::Recovered => assert!(finished.is_none(), "nothing was in flight"),
        _ => assert!(finished.is_some(), "resume finishes the in-flight batch"),
    }

    assert_bit_identical(&reference.0, fed.global());
    assert_same_records(reference.1.records(), journal.records());
    // Every member ends fully served.
    for request in REQUESTS {
        let terminal = journal
            .records()
            .iter()
            .rev()
            .find(|r| r.request == request)
            .expect("member has records");
        assert_eq!(terminal.state, RequestState::Recovered, "{request}");
    }

    std::fs::remove_file(&paths.ckpt).ok();
    std::fs::remove_file(&paths.journal).ok();
}

#[test]
fn killed_batch_resumes_bit_for_bit_at_every_boundary() {
    let ref_paths = paths("batch_reference");
    let reference = uninterrupted_batch(&ref_paths);
    assert_eq!(
        reference
            .1
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
    // The batch journal survives a reopen byte-for-byte (version 2 with
    // batch ids round-trips).
    let reopened = RequestJournal::open(ref_paths.journal.clone()).unwrap();
    assert_same_records(reference.1.records(), reopened.records());
    assert_eq!(reopened.records()[0].batch, reference.1.records()[0].batch);

    for (boundary, name) in [
        (BatchPreempt::Received, "batch_kill_received"),
        (BatchPreempt::Unlearned(1), "batch_kill_unlearned_1"),
        (BatchPreempt::Unlearned(2), "batch_kill_unlearned_2"),
        (BatchPreempt::Recovered, "batch_kill_recovered"),
    ] {
        kill_and_resume_batch(boundary, name, &reference);
    }

    std::fs::remove_file(&ref_paths.ckpt).ok();
    std::fs::remove_file(&ref_paths.journal).ok();
}

#[test]
fn relearn_of_an_unserved_request_is_rejected() {
    let paths = paths("unserved_relearn");
    let (mut fed, mut rng) = fresh_fed();
    let (mut qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    let mut journal = RequestJournal::open(&paths.journal).unwrap();
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
        assert_eq!(matches!(run, BatchRun::Preempted { .. }), stops, "{kill:?}");
        let last = journal.last().unwrap();
        assert_eq!(last.batch, Some(BatchId(0)));
        let landed = if stops {
            RequestState::Unlearned
        } else {
            RequestState::Recovered
        };
        assert_eq!(last.state, landed, "{kill:?}");
    }
}

#[test]
fn a_single_request_is_an_unbatched_unit_of_one_byte_for_byte() {
    // `serve_journaled`...
    let served = Arc::new(FaultFs::new());
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&served);
    let outcome = qd
        .serve_journaled(
            &mut fed,
            &mut journal,
            REQUESTS[0],
            Some(&policy()),
            &mut rng,
            None,
        )
        .unwrap()
        .into_complete()
        .expect("no preemption configured");
    assert!(
        outcome.unlearn.rounds > 0,
        "a fresh unit reports its member's real ascent accounting"
    );
    let served_model = fed.global().to_vec();

    // ...and the service executor's spelling of the same unit: a
    // hand-appended one-member RECEIVED set with `batch: None`, driven
    // through the resume protocol.
    let built = Arc::new(FaultFs::new());
    let (mut fed, mut qd, mut rng, mut journal) = deployment_on(&built);
    let members = QuickDrop::receive_unit(&fed, &mut journal, &REQUESTS[..1], None, &rng).unwrap();
    assert_eq!(members, vec![(0, REQUESTS[0])]);
    let run = qd
        .resume_requests_until(&mut fed, &mut journal, Some(&policy()), &mut rng, None)
        .unwrap();
    assert!(matches!(run, ResumeRun::Complete(Some(_))));

    assert_bit_identical(&served_model, fed.global());
    assert!(journal.records().iter().all(|r| r.batch.is_none()));
    assert_eq!(
        served.files(),
        built.files(),
        "journal marker and segments must be byte-identical"
    );
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
