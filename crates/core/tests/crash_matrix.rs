//! Crash-point matrix: a full serve run on the fault-injecting
//! [`FaultFs`], killed at **every** Vfs operation in turn. After each
//! kill the "machine" crashes (volatile bytes vanish), a fresh
//! "process" recovers via checkpoint + journal, finishes the remaining
//! work, and the terminal state must be bit-for-bit identical to the
//! unfailed run — model parameters, RNG stream, journal records, and
//! every byte of every file on disk.
//!
//! In debug builds the matrix is stride-sampled to keep the suite
//! fast; `scripts/check.sh` runs it in release at stride 1.

use qd_core::{
    Checkpoint, FaultFs, JournalRecord, QuickDrop, QuickDropConfig, RequestJournal, RequestState,
    Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, UnlearnRequest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const SINGLE: UnlearnRequest = UnlearnRequest::Class(3);
const BATCH: [UnlearnRequest; 2] = [UnlearnRequest::Class(7), UnlearnRequest::Class(1)];

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

/// Generous budget: the stream mixes single, coalesced-batch and
/// relearn units, whose drifts stack; the guard still runs and its
/// stats land in the journal, which is what the matrix compares.
fn policy() -> GuardPolicy {
    GuardPolicy {
        drift_budget: 5.0,
        ..GuardPolicy::default()
    }
}

fn ckpt_path() -> PathBuf {
    PathBuf::from("deploy.json")
}

fn journal_path() -> PathBuf {
    RequestJournal::path_for_checkpoint("deploy.json")
}

/// The expensive, filesystem-free prefix of every run: train once,
/// snapshot the deployment. Each matrix iteration redeploys from this
/// snapshot instead of retraining, which keeps the matrix fast without
/// changing a single bit (capture/restore is the checkpoint's own
/// round-trip guarantee).
struct Seed {
    ckpt: Checkpoint,
    rng: RngState,
}

fn trained_seed() -> Seed {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    Seed {
        ckpt: Checkpoint::capture(fed.global(), &qd),
        rng: rng.state(),
    }
}

fn deploy(seed: &Seed) -> (Federation, QuickDrop, Rng) {
    let (mut fed, _) = fresh_fed();
    let (global, qd) = seed.ckpt.clone().restore().expect("snapshot restores");
    fed.set_global(global);
    (fed, qd, Rng::from_state(&seed.rng))
}

/// Everything the matrix compares at the end of a run.
struct Terminal {
    global: Vec<Tensor>,
    rng: RngState,
    records: Vec<JournalRecord>,
    files: BTreeMap<PathBuf, Vec<u8>>,
}

/// Runs (or finishes) the three-unit request stream, skipping units the
/// journal already shows as done — the idempotent "application logic"
/// both the first process and every resumed process execute.
fn run_units(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    rng: &mut Rng,
) -> Result<(), String> {
    fn done(journal: &RequestJournal, request: UnlearnRequest, state: RequestState) -> bool {
        journal
            .records()
            .iter()
            .any(|r| r.request == request && r.state == state)
    }
    if !done(journal, SINGLE, RequestState::Recovered) {
        qd.serve_journaled(fed, journal, SINGLE, Some(&policy()), rng, None)
            .map_err(|e| e.to_string())?;
    }
    if !BATCH
        .iter()
        .all(|&r| done(journal, r, RequestState::Recovered))
    {
        qd.serve_batch_journaled(fed, journal, &BATCH, Some(&policy()), rng, None)
            .map_err(|e| e.to_string())?;
    }
    if !done(journal, SINGLE, RequestState::Relearned) {
        let phase = qd.config().relearn_phase;
        qd.relearn_journaled(fed, journal, SINGLE, &phase, rng)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One full deployment on `fs`: save the checkpoint, open the journal,
/// serve the stream. Any injected fault aborts with an error, modelling
/// the process dying at that syscall.
fn scenario(seed: &Seed, fs: &Arc<FaultFs>) -> Result<Terminal, String> {
    let (mut fed, mut qd, mut rng) = deploy(seed);
    seed.ckpt
        .save_on(fs.as_ref(), &ckpt_path())
        .map_err(|e| e.to_string())?;
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let mut journal = RequestJournal::open_on(vfs, journal_path()).map_err(|e| e.to_string())?;
    run_units(&mut qd, &mut fed, &mut journal, &mut rng)?;
    Ok(Terminal {
        global: fed.global().to_vec(),
        rng: rng.state(),
        records: journal.records().to_vec(),
        files: fs.files(),
    })
}

/// The "fresh process after the machine restarts": recover whatever is
/// durable and finish the stream.
fn resume(seed: &Seed, fs: &Arc<FaultFs>) -> Terminal {
    if fs.file(&ckpt_path()).is_none() {
        // The checkpoint never became durable, and the save strictly
        // precedes every journal write, so nothing else did either:
        // the operator redeploys from the seed.
        return scenario(seed, fs).expect("fault-free redeploy succeeds");
    }
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let (mut qd, mut fed, mut journal, _) =
        QuickDrop::open_deployment(vfs, &ckpt_path(), &journal_path(), model())
            .expect("recovery after a crash succeeds");
    let mut rng = Rng::seed_from(0); // restored from the journal tail
    qd.resume_requests(&mut fed, &mut journal, Some(&policy()), &mut rng)
        .expect("finishing the in-flight unit succeeds");
    if journal.records().is_empty() {
        // Died before the first record became durable: the pre-request
        // RNG stream is not on disk, so rebuild model + RNG from the
        // deterministic seed and serve the whole stream.
        let (mut fed, mut qd, mut rng) = deploy(seed);
        run_units(&mut qd, &mut fed, &mut journal, &mut rng).expect("fault-free rerun succeeds");
        return Terminal {
            global: fed.global().to_vec(),
            rng: rng.state(),
            records: journal.records().to_vec(),
            files: fs.files(),
        };
    }
    // resume_requests already finished the in-flight unit (restoring
    // model + RNG from the last durable record); run whatever units the
    // journal says are still missing.
    run_units(&mut qd, &mut fed, &mut journal, &mut rng).expect("resumed units succeed");
    Terminal {
        global: fed.global().to_vec(),
        rng: rng.state(),
        records: journal.records().to_vec(),
        files: fs.files(),
    }
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: tensor count diverged");
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "{ctx}: parameters diverged");
        }
    }
}

fn assert_terminal_eq(reference: &Terminal, resumed: &Terminal, ctx: &str) {
    assert_bit_identical(&reference.global, &resumed.global, ctx);
    assert_eq!(reference.rng, resumed.rng, "{ctx}: RNG stream diverged");
    assert_eq!(
        reference.records.len(),
        resumed.records.len(),
        "{ctx}: journal length diverged"
    );
    for (a, b) in reference.records.iter().zip(&resumed.records) {
        assert_eq!(a.seq, b.seq, "{ctx}");
        assert_eq!(a.request, b.request, "{ctx}");
        assert_eq!(a.state, b.state, "{ctx}");
        assert_eq!(a.batch, b.batch, "{ctx}");
        assert_eq!(a.rng, b.rng, "{ctx}: RNG diverged at {} {}", a.seq, a.state);
        assert_eq!(a.guard, b.guard, "{ctx}: guard stats diverged");
        assert_bit_identical(&a.global, &b.global, ctx);
    }
    let ref_names: Vec<_> = reference.files.keys().collect();
    let got_names: Vec<_> = resumed.files.keys().collect();
    assert_eq!(ref_names, got_names, "{ctx}: on-disk file set diverged");
    for (path, bytes) in &reference.files {
        assert!(
            resumed.files.get(path).is_some_and(|b| b == bytes),
            "{ctx}: bytes of {} diverged",
            path.display()
        );
    }
}

#[test]
fn every_crash_point_resumes_to_the_identical_terminal_state() {
    let seed = trained_seed();
    let baseline_fs = Arc::new(FaultFs::new());
    let baseline = scenario(&seed, &baseline_fs).expect("unfailed run succeeds");
    let total_ops = baseline_fs.op_count();
    assert!(
        total_ops > 20,
        "scenario must exercise a real op stream, got {total_ops}"
    );
    assert_eq!(
        baseline
            .records
            .iter()
            .filter(|r| r.state == RequestState::Recovered)
            .count(),
        3,
        "all three requests fully served"
    );

    // Debug builds sample the matrix; release (the check.sh gate) runs
    // every operation index.
    let stride = if cfg!(debug_assertions) { 5 } else { 1 };
    let mut kill_points: Vec<u64> = (0..total_ops).step_by(stride).collect();
    if kill_points.last() != Some(&(total_ops - 1)) {
        kill_points.push(total_ops - 1); // always include the final op
    }

    for k in kill_points {
        let fs = Arc::new(FaultFs::new());
        fs.kill_at(k);
        let died = scenario(&seed, &fs);
        assert!(died.is_err(), "kill at op {k} must abort the run");
        fs.crash();
        let resumed = resume(&seed, &fs);
        assert_terminal_eq(&baseline, &resumed, &format!("kill at op {k}"));
    }
}
