//! The traced run's in-process replicas of the CLI subcommands.
//!
//! Each function makes the calls the matching `quickdrop-cli` subcommand
//! makes (crates/cli/src/commands.rs) with the same seeds, from the layers'
//! public functions — in the CLI's order wherever order reaches the model
//! or the RNG stream — with a span around every call and a [`CountingFs`]
//! under every storage call. `--smoke` checks
//! the replica's model digest against the CLI's, so a replica that drifts
//! from the shipped behaviour fails loudly.

use crate::alloc::AllocCount;
use crate::checks::{self, DATASET};
use crate::instrument::{CountingFs, Timed};
use crate::trace::{now, Tracer};
use crate::workload::{Scale, Stream};
use qd_core::{Checkpoint, QuickDrop, QuickDropConfig, RequestJournal, StdFs, Vfs};
use qd_data::{partition_iid, Dataset};
use qd_distill::{augment_with_real, distilling_trainers, DistillingTrainer, SyntheticSet};
use qd_eval::split_accuracy;
use qd_fed::{Federation, Phase, PhaseStats, ResumeState};
use qd_nn::{ConvNet, Module};
use qd_serve::{IsolationConfig, ServeConfig, ServiceRun};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::UnlearnRequest;
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

/// The learning rate `quickdrop-cli train` defaults to.
const CLI_LR: f32 = 0.08;

/// The configuration `quickdrop-cli train` builds from its flags.
pub fn cli_config(scale: &Scale) -> QuickDropConfig {
    let mut config = QuickDropConfig::paper_shaped(scale.rounds, scale.steps, scale.batch, CLI_LR);
    config.distill.scale = scale.distill_scale;
    config.distill.classes_per_step = 2;
    config.distill.lr_syn = 0.5;
    config.unlearn_phase = Phase::unlearning(1, scale.steps.min(6), scale.batch, CLI_LR / 2.0);
    config.max_unlearn_rounds = 4;
    config
}

/// What the replicas share: where spans go, the counted filesystem, the
/// architecture.
pub struct Rig {
    pub tracer: Arc<Tracer>,
    pub fs: Arc<CountingFs<StdFs>>,
    pub model: Arc<ConvNet>,
    pub scale: Scale,
    /// Checkpoint saves made and the bytes they handed to the filesystem.
    pub saves: Cell<(u64, u64)>,
}

impl Rig {
    /// A rig recording into a fresh tracer.
    pub fn new(scale: Scale) -> Rig {
        let tracer = Arc::new(Tracer::new());
        Rig {
            fs: Arc::new(CountingFs::new(StdFs, Some(Arc::clone(&tracer)))),
            tracer,
            model: Arc::new(checks::model()),
            scale,
            saves: Cell::new((0, 0)),
        }
    }

    /// The checkpoint save every mutating subcommand ends with.
    pub fn save(&self, fed: &Federation, qd: &QuickDrop, ckpt: &Path) -> Result<(), String> {
        let before = self.fs.counts().bytes_written;
        self.tracer
            .scope("core.ckpt.save", "core.ckpt", || {
                Checkpoint::capture(fed.global(), qd).save_on(&*self.fs, ckpt)
            })
            .map_err(|e| e.to_string())?;
        let (saves, bytes) = self.saves.get();
        self.saves
            .set((saves + 1, bytes + self.fs.counts().bytes_written - before));
        Ok(())
    }

    fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.fs) as Arc<dyn Vfs>
    }

    /// The federation `train` starts from: generated data, IID split.
    fn federation(&self, rng: &mut Rng) -> Federation {
        let t = &self.tracer;
        let data = t.scope("data.generate", "data", || {
            DATASET.generate(self.scale.samples, rng)
        });
        let client_data: Vec<Dataset> = t.scope("data.partition", "data", || {
            partition_iid(data.len(), self.scale.clients, rng)
                .iter()
                .map(|p| data.subset(p))
                .collect()
        });
        t.scope("fed.new", "fed", || {
            Federation::new(Arc::clone(&self.model) as Arc<dyn Module>, client_data, rng)
        })
    }

    /// `quickdrop-cli train --out ckpt --seed seed`: the trained
    /// federation (real client data) and deployment, checkpoint written.
    pub fn train(&self, ckpt: &Path, seed: u64) -> Result<(Federation, QuickDrop), String> {
        let t = &self.tracer;
        let mut rng = Rng::seed_from(seed);
        let mut fed = self.federation(&mut rng);
        let config = cli_config(&self.scale);
        let (qd, _report) = t.scope("core.train", "core", || {
            QuickDrop::train(&mut fed, config, &mut rng)
        });
        self.save(&fed, &qd, ckpt)?;
        Ok((fed, qd))
    }

    /// The training phase of `train`, taken apart: the same federation
    /// and trainers `QuickDrop::train` builds, but with every client's
    /// local round timed and every round enclosed in a span, followed by
    /// the synthetic-set collection and augmentation that end training.
    pub fn train_decomposed(&self, seed: u64) -> Decomposed {
        let t = &self.tracer;
        let mut rng = Rng::seed_from(seed);
        let mut fed = self.federation(&mut rng);
        let config = cli_config(&self.scale);
        let mut trainers: Vec<Timed<DistillingTrainer>> =
            distilling_trainers(fed.model().clone(), config.distill, fed.n_clients())
                .into_iter()
                .map(|tr| Timed::new(tr, Arc::clone(t), DistillingTrainer::dd_time))
                .collect();
        let boundary = Cell::new(now());
        let mut observer = |_: &ResumeState, _: &[Tensor], _: &[Timed<DistillingTrainer>]| {
            let end = now();
            t.enclose("fed.round", "fed", boundary.get(), end);
            boundary.set(end);
            true
        };
        let before = AllocCount::now();
        let stats = t.scope("fed.run_phase", "fed", || {
            boundary.set(now());
            fed.run_phase_resumable(
                &mut trainers,
                None,
                &config.train_phase,
                &mut rng,
                None,
                Some(&mut observer),
            )
        });
        let allocs = AllocCount::now().since(before);
        t.scope("distill.finish", "distill", || {
            for (i, trainer) in trainers.iter_mut().enumerate() {
                let syn = trainer.inner.take_synthetic().unwrap_or_else(|| {
                    SyntheticSet::init_from_real(fed.client_data(i), config.distill.scale, &mut rng)
                });
                std::hint::black_box(augment_with_real(&syn, fed.client_data(i), &mut rng));
            }
        });
        Decomposed {
            model_digest: checks::params_digest(fed.global()),
            stats,
            allocs,
        }
    }

    /// What every serving subcommand starts with: load and restore the
    /// checkpoint, build the stub federation, seed the serving RNG, open
    /// the journal next to the checkpoint and finish any request it
    /// holds in flight.
    fn open_deployment(&self, ckpt: &Path, seed: u64) -> Result<Opened, String> {
        let t = &self.tracer;
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let loaded = t
            .scope("core.ckpt.load", "core.ckpt", || {
                Checkpoint::load_on(&*self.fs, ckpt)
            })
            .map_err(|x| e(&x))?;
        let (params, mut qd) = t
            .scope("core.ckpt.restore", "core.ckpt", || loaded.restore())
            .map_err(|x| e(&x))?;
        let mut fed = t.scope("fed.stub", "fed", || self.stub_federation(&qd, params));
        let mut rng = Rng::seed_from(seed ^ 0x5EED);
        let journal_path = RequestJournal::path_for_checkpoint(ckpt);
        let mut journal = t
            .scope("core.journal.open", "core.journal", || {
                RequestJournal::open_on(self.vfs(), &journal_path)
            })
            .map_err(|x| e(&x))?;
        let history_records = journal.records().len();
        t.scope("core.journal.resume", "core.journal", || {
            qd.resume_requests(&mut fed, &mut journal, None, &mut rng)
        })
        .map_err(|x| e(&x))?;
        Ok(Opened {
            qd,
            fed,
            journal,
            rng,
            history_records,
        })
    }

    /// `quickdrop-cli unlearn|relearn --ckpt ckpt --journal --seed seed`
    /// for one target.
    pub fn request(
        &self,
        ckpt: &Path,
        relearn: bool,
        target: UnlearnRequest,
        seed: u64,
    ) -> Result<RequestCost, String> {
        let t = &self.tracer;
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let test = t.scope("data.generate", "data", || {
            checks::test_set(self.scale.test_samples, seed)
        });
        let (f_set, r_set) = match target {
            UnlearnRequest::Class(c) => (test.only_class(c), test.without_class(c)),
            UnlearnRequest::Client(_) => (test.clone(), test.clone()),
        };
        let Opened {
            mut qd,
            mut fed,
            mut journal,
            mut rng,
            history_records,
        } = self.open_deployment(ckpt, seed)?;
        let mut cost = RequestCost {
            history_records,
            ..RequestCost::default()
        };
        if relearn {
            let phase = qd.config().relearn_phase;
            let stats = t
                .scope("unlearn.relearn_journaled", "unlearn", || {
                    qd.relearn_journaled(&mut fed, &mut journal, target, &phase, &mut rng)
                })
                .map_err(|x| e(&x))?;
            cost.relearn = Some(stats);
        } else {
            let outcome = t
                .scope("unlearn.serve_journaled", "unlearn", || {
                    qd.serve_journaled(&mut fed, &mut journal, target, None, &mut rng, None)
                })
                .map_err(|x| e(&x))?
                .into_complete()
                .ok_or("serve_journaled preempted without a preemption point")?;
            cost.unlearn = Some((outcome.unlearn, outcome.recovery));
        }
        cost.records_appended = journal.records().len() - history_records;
        let (fa, ra) = t.scope("eval.split_accuracy", "eval", || {
            split_accuracy(&*self.model, fed.global(), &f_set, &r_set)
        });
        if let (UnlearnRequest::Class(_), false) = (target, relearn) {
            cost.accuracy = Some((f64::from(fa), f64::from(ra)));
        }
        self.save(&fed, &qd, ckpt)?;
        if qd_nn::params_have_non_finite(fed.global()) {
            return Err("non-finite parameters".to_string());
        }
        cost.model_digest = checks::params_digest(fed.global());
        Ok(cost)
    }

    /// `quickdrop-cli serve --ckpt ckpt --stats-out ... --seed seed` over
    /// `stream`.
    pub fn service(&self, ckpt: &Path, stream: &Stream, seed: u64) -> Result<Served, String> {
        let t = &self.tracer;
        let e = |e: &dyn std::fmt::Display| e.to_string();
        let Opened {
            mut qd,
            mut fed,
            mut journal,
            mut rng,
            history_records,
        } = self.open_deployment(ckpt, seed)?;
        let cfg = self.serve_config(&qd, stream, seed);
        let run = t
            .scope("serve.run_service", "serve", || {
                qd_serve::run_service_isolated(
                    &mut qd,
                    &mut fed,
                    &mut journal,
                    &cfg,
                    None,
                    &IsolationConfig::default(),
                    &mut rng,
                    None,
                )
            })
            .map_err(|x| e(&x))?;
        self.save(&fed, &qd, ckpt)?;
        t.scope("serve.stats_save", "serve", || {
            run.stats
                .save_json_on(&*self.fs, &ckpt.with_file_name("stats.json"))
        })
        .map_err(|x| e(&x))?;
        if qd_nn::params_have_non_finite(fed.global()) {
            return Err("non-finite parameters".to_string());
        }
        Ok(Served {
            history_records,
            records_appended: journal.records().len() - history_records,
            model_digest: checks::params_digest(fed.global()),
            config: cfg,
            run,
        })
    }

    /// The serve configuration the CLI reads from `stream`'s flags.
    pub fn serve_config(&self, qd: &QuickDrop, stream: &Stream, seed: u64) -> ServeConfig {
        ServeConfig {
            tenants: stream.tenants,
            arrival_requests: stream.arrival_requests,
            arrival_gap_us: stream.arrival_gap_us,
            queue_cap: stream.queue_cap,
            coalesce: stream.coalesce.is_some(),
            max_batch: stream.coalesce.unwrap_or(4),
            weights: vec![1],
            classes: qd.synthetic_sets()[0].classes(),
            clients: qd.synthetic_sets().len(),
            class_share: 0.8,
            seed,
            ..ServeConfig::default()
        }
    }

    /// The CLI's serving federation: the checkpoint's model over clients
    /// that hold no real data.
    pub fn stub_federation(&self, qd: &QuickDrop, params: Vec<Tensor>) -> Federation {
        let sets = qd.synthetic_sets();
        let (c, h, w) = sets[0].sample_dims();
        let empty = Dataset::new(Vec::new(), Vec::new(), sets[0].classes(), c, h, w);
        Federation::with_params(
            Arc::clone(&self.model) as Arc<dyn Module>,
            vec![empty; sets.len().max(1)],
            params,
        )
    }
}

/// A deployment opened for serving.
struct Opened {
    qd: QuickDrop,
    fed: Federation,
    journal: RequestJournal,
    rng: Rng,
    /// Records the journal held when it was opened.
    history_records: usize,
}

/// What [`Rig::train_decomposed`] measured beyond its spans.
pub struct Decomposed {
    pub model_digest: u64,
    pub stats: PhaseStats,
    /// Allocations made while the phase ran, worker threads included.
    pub allocs: AllocCount,
}

/// What one replica request did.
#[derive(Debug, Default)]
pub struct RequestCost {
    /// Records the journal held when the request opened it.
    pub history_records: usize,
    pub records_appended: usize,
    /// Ascent and recovery stage statistics of an `unlearn`.
    pub unlearn: Option<(PhaseStats, PhaseStats)>,
    pub relearn: Option<PhaseStats>,
    /// F-Set / R-Set accuracy after a class `unlearn`.
    pub accuracy: Option<(f64, f64)>,
    pub model_digest: u64,
}

/// What one replica `serve` process did.
pub struct Served {
    pub history_records: usize,
    pub records_appended: usize,
    pub model_digest: u64,
    pub config: ServeConfig,
    pub run: ServiceRun,
}
