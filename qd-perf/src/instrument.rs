//! Measuring seams the layers already expose: a [`Vfs`] that counts and
//! times every storage call, and a [`ClientTrainer`] that times every
//! local round. Both record spans when given a [`Tracer`].

use crate::trace::{now, Tracer};
use qd_core::{StorageError, Vfs};
use qd_data::Dataset;
use qd_fed::{ClientTrainer, LocalOutcome, Phase};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a [`CountingFs`] has seen so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VfsCounts {
    /// Every call, whatever its kind (the unit `FaultFs::op_count` uses).
    pub ops: u64,
    pub fsyncs: u64,
    /// Bytes handed to `write`/`append`.
    pub bytes_written: u64,
    /// Bytes `read` returned.
    pub bytes_read: u64,
    /// Time spent inside the wrapped filesystem.
    pub busy: Duration,
    /// Length of each `fsync`, in call order.
    pub fsync_times: Vec<Duration>,
}

/// A [`Vfs`] that forwards to `inner`, counting calls, bytes and time,
/// and — with a tracer — recording each call as a `core.vfs` span under
/// whatever called it.
#[derive(Debug)]
pub struct CountingFs<F> {
    inner: F,
    tracer: Option<Arc<Tracer>>,
    counts: Mutex<VfsCounts>,
}

impl<F: Vfs> CountingFs<F> {
    /// Wraps `inner`.
    pub fn new(inner: F, tracer: Option<Arc<Tracer>>) -> Self {
        CountingFs {
            inner,
            tracer,
            counts: Mutex::new(VfsCounts::default()),
        }
    }

    /// The wrapped filesystem.
    #[cfg(test)]
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// A copy of the counters.
    pub fn counts(&self) -> VfsCounts {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VfsCounts> {
        self.counts
            .lock()
            .expect("counter updates cannot panic while holding the lock")
    }

    /// Times `call`, charges it as one op and lets `tally` add its bytes.
    fn charge<T>(
        &self,
        verb: &'static str,
        call: impl FnOnce(&F) -> Result<T, StorageError>,
        tally: impl FnOnce(&mut VfsCounts, &T),
    ) -> Result<T, StorageError> {
        let start = now();
        let result = call(&self.inner);
        let end = now();
        let mut c = self.lock();
        c.ops += 1;
        c.busy += end - start;
        if verb == "fsync" {
            c.fsyncs += 1;
            c.fsync_times.push(end - start);
        }
        if let Ok(value) = &result {
            tally(&mut c, value);
        }
        drop(c);
        if let Some(tracer) = &self.tracer {
            tracer.leaf(verb, "core.vfs", start, end);
        }
        result
    }
}

impl<F: Vfs> Vfs for CountingFs<F> {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.charge(
            "read",
            |fs| fs.read(path),
            |c, bytes| c.bytes_read += bytes.len() as u64,
        )
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let n = bytes.len() as u64;
        self.charge(
            "write",
            |fs| fs.write(path, bytes),
            |c, ()| c.bytes_written += n,
        )
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let n = bytes.len() as u64;
        self.charge(
            "append",
            |fs| fs.append(path, bytes),
            |c, ()| c.bytes_written += n,
        )
    }

    fn fsync(&self, path: &Path) -> Result<(), StorageError> {
        self.charge("fsync", |fs| fs.fsync(path), |_, ()| {})
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.charge("rename", |fs| fs.rename(from, to), |_, ()| {})
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        self.charge("remove", |fs| fs.remove(path), |_, ()| {})
    }

    fn exists(&self, path: &Path) -> Result<bool, StorageError> {
        self.charge("exists", |fs| fs.exists(path), |_, _| {})
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        self.charge("list", |fs| fs.list(dir), |_, _| {})
    }
}

/// A [`ClientTrainer`] that forwards to `inner` and records every local
/// round as a `compute` span (the client's SGD steps: tensor, autograd
/// and nn work, inseparable from outside), with the part `split` reports
/// — a distilling trainer's matching time — as a `distill` child.
pub struct Timed<T> {
    pub inner: T,
    tracer: Arc<Tracer>,
    /// Cumulative time `inner` attributes to distillation.
    split: fn(&T) -> Duration,
}

impl<T> Timed<T> {
    /// Wraps `inner`; `split` reads its cumulative distillation clock
    /// (`|_| Duration::ZERO` for a trainer without one).
    pub fn new(inner: T, tracer: Arc<Tracer>, split: fn(&T) -> Duration) -> Self {
        Timed {
            inner,
            tracer,
            split,
        }
    }
}

impl<T: ClientTrainer> ClientTrainer for Timed<T> {
    fn local_round(
        &mut self,
        params: Vec<Tensor>,
        data: &Dataset,
        phase: &Phase,
        rng: &mut Rng,
    ) -> LocalOutcome {
        let dd_before = (self.split)(&self.inner);
        let start = now();
        let outcome = self.inner.local_round(params, data, phase, rng);
        let end = now();
        let dd = (self.split)(&self.inner).saturating_sub(dd_before);
        let round = self.tracer.leaf("fed.local_round", "compute", start, end);
        if !dd.is_zero() {
            // The matching steps interleave with the SGD steps; the span
            // carries their total, placed at the end of the round.
            let dd_start = end.checked_sub(dd).map_or(start, |s| s.max(start));
            self.tracer
                .leaf_under(round, "distill.match", "distill", dd_start, end);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_core::{FaultFs, JournalRecord, RequestJournal, RequestState};
    use qd_data::{partition_iid, SyntheticDataset};
    use qd_distill::{distilling_trainers, DistillConfig, DistillingTrainer};
    use qd_fed::Federation;
    use qd_nn::{Mlp, Module};
    use qd_unlearn::UnlearnRequest;

    /// The record the `storage` bench appends (crates/bench/benches/storage.rs).
    fn record(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            request: UnlearnRequest::Class(seq as usize % 10),
            state: RequestState::Received,
            rng: Rng::seed_from(7).state(),
            global: vec![Tensor::from_vec(vec![1.5, -1.25, 3.0], &[3])],
            guard: None,
            batch: None,
            reason: None,
        }
    }

    #[test]
    fn counting_fs_agrees_with_fault_fs_on_the_storage_bench_sequence() {
        let fs = Arc::new(CountingFs::new(FaultFs::new(), None));
        let mut journal =
            RequestJournal::open_on(Arc::clone(&fs) as Arc<dyn Vfs>, "bench.journal").unwrap();
        for seq in 0..32 {
            journal.append(record(100 + seq)).unwrap();
        }
        drop(journal);
        let reopened =
            RequestJournal::open_on(Arc::clone(&fs) as Arc<dyn Vfs>, "bench.journal").unwrap();
        assert_eq!(reopened.records().len(), 32);
        let counts = fs.counts();
        assert_eq!(counts.ops, fs.inner().op_count());
        assert_eq!(counts.bytes_written, fs.inner().bytes_written());
        assert_eq!(counts.fsyncs as usize, counts.fsync_times.len());
        assert!(counts.fsyncs >= 32, "one fsync per append");
        assert!(counts.bytes_read > 0, "the reopen read the segments back");
    }

    #[test]
    fn counting_fs_records_vfs_spans_under_the_open_scope() {
        let tracer = Arc::new(Tracer::new());
        let fs = CountingFs::new(FaultFs::new(), Some(Arc::clone(&tracer)));
        tracer.scope("save", "core.ckpt", || {
            fs.write(Path::new("a"), b"xyz").unwrap();
            fs.fsync(Path::new("a")).unwrap();
        });
        assert!(fs.read(Path::new("missing")).is_err());
        let spans = tracer.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.layer, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("save", "core.ckpt", None),
                ("write", "core.vfs", Some(0)),
                ("fsync", "core.vfs", Some(0)),
                ("read", "core.vfs", None),
            ]
        );
        let counts = fs.counts();
        assert_eq!(
            (counts.ops, counts.bytes_written, counts.bytes_read),
            (3, 3, 0)
        );
    }

    fn federation(rng: &mut Rng) -> (Arc<dyn Module>, Federation) {
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
        let data = SyntheticDataset::Digits.generate(120, rng);
        let parts = partition_iid(data.len(), 3, rng);
        let clients = parts.iter().map(|p| data.subset(p)).collect();
        let fed = Federation::new(Arc::clone(&model), clients, rng);
        (model, fed)
    }

    #[test]
    fn timed_trainers_leave_the_phase_bit_identical() {
        let phase = Phase::training(2, 3, 16, 0.05);
        let cfg = DistillConfig {
            scale: 20,
            classes_per_step: 2,
            ..DistillConfig::default()
        };

        let mut rng = Rng::seed_from(5);
        let (model, mut plain_fed) = federation(&mut rng);
        let mut plain = distilling_trainers(model, cfg, 3);
        let plain_stats = plain_fed.run_phase(&mut plain, None, &phase, &mut rng);

        let mut rng = Rng::seed_from(5);
        let (model, mut timed_fed) = federation(&mut rng);
        let tracer = Arc::new(Tracer::new());
        let mut timed: Vec<_> = distilling_trainers(model, cfg, 3)
            .into_iter()
            .map(|t| Timed::new(t, Arc::clone(&tracer), DistillingTrainer::dd_time))
            .collect();
        let timed_stats = tracer.scope("phase", "fed", || {
            timed_fed.run_phase(&mut timed, None, &phase, &mut rng)
        });

        assert_eq!(plain_stats.rounds, timed_stats.rounds);
        assert_eq!(plain_stats.samples_processed, timed_stats.samples_processed);
        for (a, b) in plain_fed.global().iter().zip(timed_fed.global()) {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "wrapping the trainers changed the model");
        }
        for (p, t) in plain.iter().zip(&timed) {
            assert_eq!(p.synthetic(), t.inner.synthetic(), "or the synthetic sets");
        }

        let spans = tracer.spans();
        let rounds = spans.iter().filter(|s| s.name == "fed.local_round").count();
        assert_eq!(rounds, 2 * 3, "one span per client per round");
        let matches: Vec<_> = spans.iter().filter(|s| s.name == "distill.match").collect();
        assert_eq!(matches.len(), 2 * 3);
        for m in matches {
            let parent = &spans[m.parent.expect("a match span hangs under its round")];
            assert_eq!(parent.name, "fed.local_round");
            assert!(m.start_ns >= parent.start_ns && m.end_ns <= parent.end_ns);
        }
    }
}
