//! `Deployment` on a fault-injecting filesystem: a run that
//! changes nothing writes nothing, and every run that changes something
//! still writes — counted by `FaultFs`, the `Vfs` the chaos harness
//! kills, so the checkpoint and stats compares run where faults do.

use qd_core::{Checkpoint, Fault, FaultFs, QuickDrop, QuickDropConfig, RequestJournal, Vfs, VfsOp};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_serve::{
    run_service_isolated, Closed, Deployment, IsolationConfig, ServeConfig, ServeStats,
};
use qd_tensor::rng::Rng;
use std::path::Path;
use std::sync::Arc;

const CKPT: &str = "d.ckpt";
const STATS: &str = "d.stats";
const SEGMENT: &str = "d.ckpt.journal.seg-000000";

fn model() -> Arc<dyn Module> {
    Arc::new(Mlp::new(&[256, 16, 10]))
}

/// The trained federation — its clients hold the real data — and system.
fn trained() -> (Federation, QuickDrop) {
    let mut rng = Rng::seed_from(42);
    let data = SyntheticDataset::Digits.generate(120, &mut rng);
    let parts = partition_iid(data.len(), 2, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let mut fed = Federation::new(model(), clients, &mut rng);
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(2, 2, 16, 0.1);
    let (qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
    (fed, qd)
}

/// A trained deployment saved on a fresh filesystem, and its bytes.
fn deployed() -> (Arc<FaultFs>, Vec<u8>) {
    let (fed, qd) = trained();
    let fs = Arc::new(FaultFs::new());
    let ckpt = Checkpoint::capture(fed.global(), &qd);
    ckpt.save_on(fs.as_ref(), Path::new(CKPT)).unwrap();
    let trained = fs.file(Path::new(CKPT)).unwrap();
    (fs, trained)
}

fn open(fs: &Arc<FaultFs>) -> Deployment {
    let vfs = Arc::clone(fs) as Arc<dyn Vfs>;
    let journal = RequestJournal::path_for_checkpoint(CKPT);
    Deployment::open(vfs, Path::new(CKPT), &journal, (1, 16, 10), model()).unwrap()
}

/// Writes, appends, fsyncs, renames and removes `fs` has done so far.
fn writes(fs: &FaultFs) -> [u64; 5] {
    [
        VfsOp::Write,
        VfsOp::Append,
        VfsOp::Fsync,
        VfsOp::Rename,
        VfsOp::Remove,
    ]
    .map(|op| fs.op_count_of(op))
}

/// What `serve --out <out> --stats-out` does: open, run the planned
/// service (finishing whatever a killed run left), close with the
/// stats. Returns what the close wrote and the run's write counts.
fn serve(fs: &Arc<FaultFs>, out: &str) -> (Closed, [u64; 5]) {
    let before = writes(fs);
    let mut d = open(fs);
    let stats = run(&mut d);
    let closed = d.close(Path::new(out), Some((Path::new(STATS), &stats)));
    let after = writes(fs);
    (
        closed.unwrap(),
        std::array::from_fn(|i| after[i] - before[i]),
    )
}

/// The planned service over `d`, finishing whatever a killed run left.
fn run(d: &mut Deployment) -> ServeStats {
    let cfg = ServeConfig {
        tenants: 1,
        arrival_requests: 2,
        classes: 10,
        clients: 2,
        ..ServeConfig::default()
    };
    let (iso, mut rng) = (IsolationConfig::default(), Rng::seed_from(5));
    let (qd, fed, journal) = (&mut d.qd, &mut d.fed, &mut d.journal);
    let run = run_service_isolated(qd, fed, journal, &cfg, None, &iso, &mut rng, None);
    run.unwrap().stats
}

fn closed(ckpt_written: bool, stats_written: bool) -> Closed {
    Closed {
        ckpt_written,
        stats_written,
    }
}

#[test]
fn a_run_that_changes_nothing_writes_nothing() {
    let (fs, _) = deployed();
    let (first, wrote) = serve(&fs, CKPT);
    assert_eq!(first, closed(true, true));
    assert!(wrote[..4].iter().all(|&n| n > 0), "{wrote:?}");
    let files = fs.files();

    // Opened and closed as it lies, and served again over a finished plan.
    // The close compares the sets by identity, so "unchanged" also says
    // the open left the live system holding the primary's own sets.
    let before = writes(&fs);
    assert_eq!(
        open(&fs).close(Path::new(CKPT), None).unwrap(),
        closed(false, false)
    );
    assert_eq!(writes(&fs), before, "an open and a close wrote");
    assert_eq!(serve(&fs, CKPT), (closed(false, false), [0; 5]));
    assert!(fs.files() == files);
}

#[test]
fn every_run_that_changes_something_writes() {
    let (fs, trained) = deployed();
    serve(&fs, CKPT);
    let served = fs.files();
    let primary = fs.file(Path::new(CKPT)).unwrap();

    // A killed run: the checkpoint is the one it started from, and the
    // journal's last commit is torn. The open repairs the tail, the
    // service finishes the unit, and the close saves what it reached.
    fs.reset_to(served.clone());
    fs.write(Path::new(CKPT), &trained).unwrap();
    let segment = fs.file(Path::new(SEGMENT)).unwrap();
    fs.truncate(Path::new(SEGMENT), segment.len() - 3);
    let (done, wrote) = serve(&fs, CKPT);
    assert_eq!(done, closed(true, false));
    assert!(
        wrote[1] > 0 && wrote[3] > 0,
        "appends and renames: {wrote:?}"
    );
    assert_eq!(fs.file(Path::new(SEGMENT)).unwrap(), segment);
    assert_eq!(fs.file(Path::new(CKPT)).unwrap(), primary);

    // The primary unreadable: `.prev` stands in, and the run saves.
    fs.reset_to(served.clone());
    fs.truncate(Path::new(CKPT), primary.len() / 2);
    let mut d = open(&fs);
    assert!(d.fell_back.is_some());
    d.qd.restore_tail(&mut d.fed, &d.journal, &mut Rng::seed_from(0));
    assert_eq!(d.close(Path::new(CKPT), None).unwrap(), closed(true, false));
    assert_eq!(fs.file(Path::new(CKPT)).unwrap(), primary);

    // Another `--out`: written there, the deployment's own untouched.
    fs.reset_to(served.clone());
    assert_eq!(serve(&fs, "other.ckpt").0, closed(true, false));
    assert_eq!(fs.file(Path::new("other.ckpt")).unwrap(), primary);
    assert_eq!(fs.file(Path::new(CKPT)).unwrap(), primary);

    // Stats that changed are written through the Vfs; the checkpoint not.
    fs.reset_to(served.clone());
    fs.write(Path::new(STATS), b"{}\n").unwrap();
    let (done, wrote) = serve(&fs, CKPT);
    assert_eq!(done, closed(false, true));
    assert_eq!(
        wrote,
        [1, 0, 1, 1, 0],
        "the stats' tmp write, fsync and rename"
    );
    assert_eq!(
        fs.file(Path::new(STATS)),
        served.get(Path::new(STATS)).cloned()
    );
}

/// `finetune_more` replaces the sets the primary shares: the close finds
/// new allocations and saves, and the file is the live system's capture,
/// byte for byte, which loads back to the new sets.
#[test]
fn a_reopen_that_replaced_the_sets_saves_them() {
    let (fs, trained_bytes) = deployed();
    let (fed, _) = trained();
    let mut d = open(&fs);
    let old = d.qd.synthetic_sets().as_ptr();
    let ft = qd_distill::FinetuneConfig {
        outer_steps: 1,
        inner_steps: 1,
        model_steps: 1,
        ..qd_distill::FinetuneConfig::default()
    };
    d.qd.finetune_more(&fed, &ft, &mut Rng::seed_from(9));
    assert_ne!(d.qd.synthetic_sets().as_ptr(), old);
    assert_eq!(d.close(Path::new(CKPT), None).unwrap(), closed(true, false));

    let saved = fs.file(Path::new(CKPT)).unwrap();
    assert_ne!(saved, trained_bytes, "the fine-tuning changed the sets");
    let live = Path::new("live.ckpt");
    let capture = Checkpoint::capture(d.fed.global(), &d.qd);
    capture.save_on(fs.as_ref(), live).unwrap();
    assert_eq!(fs.file(live).unwrap(), saved);
    let back = Checkpoint::load_on(fs.as_ref(), Path::new(CKPT)).unwrap();
    assert_eq!(back.synthetic_sets(), d.qd.synthetic_sets());
}

/// A failed close says which file failed: a checkpoint save's error
/// reads `checkpoint I/O: …`, and a stats write's names the stats file
/// with neither a checkpoint nor a journal prefix.
#[test]
fn a_failed_close_names_the_file_that_failed() {
    let (fs, _) = deployed();
    let d = open(&fs);
    fs.schedule_fault(fs.op_count(), Fault::DiskFull);
    let err = d.close(Path::new("other.ckpt"), None).unwrap_err();
    assert_eq!(
        err.to_string(),
        "checkpoint I/O: writing other.ckpt.tmp: no space left on device"
    );

    serve(&fs, CKPT);
    fs.remove(Path::new(STATS)).unwrap();
    let mut d = open(&fs);
    let stats = run(&mut d);
    // The close reads the (missing) stats file, then writes its tmp.
    fs.schedule_fault(fs.op_count() + 1, Fault::DiskFull);
    let err = (d.close(Path::new(CKPT), Some((Path::new(STATS), &stats)))).unwrap_err();
    assert_eq!(
        err.to_string(),
        "writing d.stats.tmp: no space left on device"
    );
}
