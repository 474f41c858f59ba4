//! The QuickDrop system: training-time synthesis and request serving.

use crate::checkpoint::MidPhase;
use crate::{Checkpoint, CheckpointError, QuickDropConfig, Vfs};
use qd_data::Dataset;
use qd_distill::{
    augment_with_real, distilling_trainers, finetune, DistillingTrainer, SyntheticSet,
};
use qd_fed::{sgd_trainers, Federation, Phase, PhaseStats, ResumeState};
use qd_nn::Module;
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::{
    Capabilities, Efficiency, GuardPolicy, MethodOutcome, UnlearnRequest, UnlearningMethod,
};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Costs and artifacts of QuickDrop's training stage (steps 1–2 of
/// Figure 1), feeding Table 6 (distillation overhead) and the storage
/// discussion of Section 5.1.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// FedAvg statistics of the FL training run.
    pub fl_stats: PhaseStats,
    /// Total client compute (training + distillation), summed over
    /// clients.
    pub total_compute: Duration,
    /// Portion of [`TrainReport::total_compute`] spent on distillation.
    pub dd_compute: Duration,
    /// Real-data gradient evaluations spent on optional fine-tuning.
    pub finetune_real_grads: usize,
    /// Total synthetic samples across clients.
    pub synthetic_samples: usize,
    /// Total real samples across clients.
    pub real_samples: usize,
}

/// When and where [`QuickDrop::train_with_checkpoints`] and
/// [`QuickDrop::resume_train`] persist training state.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Write a mid-phase [`Checkpoint`] after every `every`-th completed
    /// round (`0` disables periodic writes). Each write atomically
    /// replaces the file at [`CheckpointPolicy::path`], and the trained
    /// deployment replaces the last one.
    pub every: usize,
    /// Where the checkpoint lives on disk.
    pub path: PathBuf,
}

impl TrainReport {
    /// Distillation overhead as a fraction of total compute (Table 6's
    /// last column).
    pub fn dd_overhead(&self) -> f64 {
        if self.total_compute.is_zero() {
            0.0
        } else {
            self.dd_compute.as_secs_f64() / self.total_compute.as_secs_f64()
        }
    }

    /// Storage overhead: synthetic volume relative to the original data
    /// (`1/s` by construction, ~1% at `s = 100`).
    pub fn storage_fraction(&self) -> f64 {
        if self.real_samples == 0 {
            0.0
        } else {
            self.synthetic_samples as f64 / self.real_samples as f64
        }
    }
}

/// A trained QuickDrop deployment: per-client synthetic datasets plus the
/// phase schedules for serving unlearning, recovery and relearning
/// requests.
///
/// Implements [`UnlearningMethod`], so harnesses treat it exactly like
/// the baselines. Unlike them, it keeps *state across requests*
/// (which classes/clients are currently forgotten), supporting the
/// paper's sequential-request evaluation (Figure 4) and relearning
/// (Section 4.7).
///
/// The synthetic and recovery sets are shared, never mutated: a
/// [`Checkpoint`] captured from or restored into a system holds the same
/// allocations, and [`QuickDrop::finetune_more`] replaces them.
#[derive(Clone)]
pub struct QuickDrop {
    pub(crate) config: QuickDropConfig,
    pub(crate) synthetic: Arc<Vec<SyntheticSet>>,
    /// The real half of each client's recovery set (see
    /// [`QuickDrop::recovery_set`]); empty sets when `augment` is off.
    pub(crate) recovery_real: Arc<Vec<Dataset>>,
    pub(crate) unlearned_classes: BTreeSet<usize>,
    pub(crate) unlearned_clients: BTreeSet<usize>,
}

impl std::fmt::Debug for QuickDrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QuickDrop({} clients, {} synthetic samples, {} classes unlearned)",
            self.synthetic.len(),
            self.synthetic.iter().map(SyntheticSet::len).sum::<usize>(),
            self.unlearned_classes.len()
        )
    }
}

/// The `# Panics` contract every guard-taking entry point shares: a
/// policy that fails [`GuardPolicy::validate`] is a caller bug.
pub(crate) fn validated(policy: Option<&GuardPolicy>) -> Option<&GuardPolicy> {
    if let Some(Err(msg)) = policy.map(GuardPolicy::validate) {
        // qd-lint: allow(panic-safety) -- policy validation failure is a
        // documented caller bug (`# Panics`), not a runtime condition
        panic!("invalid guard policy: {msg}");
    }
    policy
}

/// Step 2b of the workflow: the real half of each client's recovery set
/// — the client's original samples mixed 1:1 into its synthetic set when
/// `augment` is on, none when it is off.
fn recovery_reals(
    synthetic: &[SyntheticSet],
    fed: &Federation,
    augment: bool,
    rng: &mut Rng,
) -> Vec<Dataset> {
    (synthetic.iter().enumerate())
        .map(|(i, syn)| {
            if augment {
                augment_with_real(syn, fed.client_data(i), rng)
            } else {
                fed.client_data(i).empty_like()
            }
        })
        .collect()
}

impl QuickDrop {
    /// Step 1 + 2 of the workflow: runs FL training with in-situ
    /// distillation on `fed`, then (optionally) fine-tunes and augments
    /// the synthetic sets. Returns the ready-to-serve system and a cost
    /// report.
    pub fn train(
        fed: &mut Federation,
        config: QuickDropConfig,
        rng: &mut Rng,
    ) -> (QuickDrop, TrainReport) {
        let Ok(trained) = Self::train_core(fed, config, rng, None, 0, |_| Ok::<_, Infallible>(()));
        trained
    }

    /// [`QuickDrop::train`] with crash-consistent round checkpointing on
    /// `fs`: after every [`CheckpointPolicy::every`]-th round a
    /// [`Checkpoint`] holding the partial global model and the
    /// [`MidPhase`] cursor is atomically saved to
    /// [`CheckpointPolicy::path`], and the trained deployment is saved
    /// there last. If the process dies at any point,
    /// [`QuickDrop::resume_train`] on what survives continues the run,
    /// and the final parameters are bit-for-bit those of the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// The first error a save raises (training stops at that round
    /// boundary).
    pub fn train_with_checkpoints(
        fed: &mut Federation,
        config: QuickDropConfig,
        rng: &mut Rng,
        fs: &dyn Vfs,
        policy: &CheckpointPolicy,
    ) -> Result<(QuickDrop, TrainReport), CheckpointError> {
        Self::train_saving(fed, config, rng, None, fs, policy)
    }

    /// Continues the training run whose mid-phase [`Checkpoint`]
    /// [`QuickDrop::train_with_checkpoints`] saved at
    /// [`CheckpointPolicy::path`] on `fs`, or at its `.prev` generation
    /// when the primary is unreadable (a death between a save's two
    /// renames leaves none): the primary's error then comes back beside
    /// the result. Saves as [`QuickDrop::train_with_checkpoints`] does,
    /// the trained deployment last.
    ///
    /// `fed` must be built over the same model architecture, client
    /// datasets and seed-derived state as the original run; the global
    /// parameters are overwritten from the checkpoint and `rng` from the
    /// stored cursor. The continuation is bit-for-bit identical to never
    /// having stopped (on the loopback transport every federation starts
    /// with; a `SimNet` a caller installs restarts its random trace). The
    /// compute-time columns of the final report cover
    /// only the rounds executed after the resume.
    ///
    /// # Errors
    ///
    /// The primary's [`CheckpointError`] when neither generation loads,
    /// a [`CheckpointError::Format`] when the one loaded holds no
    /// mid-phase state or was written for another client count, and any
    /// error a save raises.
    pub fn resume_train(
        fed: &mut Federation,
        rng: &mut Rng,
        fs: &dyn Vfs,
        policy: &CheckpointPolicy,
    ) -> Result<((QuickDrop, TrainReport), Option<CheckpointError>), CheckpointError> {
        let (checkpoint, fell_back) = Checkpoint::load_with_fallback_on(fs, &policy.path)?;
        let refused = |detail: &str| CheckpointError::Format {
            path: policy.path.clone(),
            detail: detail.to_string(),
        };
        let Some(mid) = checkpoint.mid_phase else {
            return Err(refused("deployment checkpoint carries no mid-phase state"));
        };
        if mid.trainer_synthetic.len() != fed.n_clients()
            || mid.trainer_round_robin.len() != fed.n_clients()
        {
            return Err(refused("checkpoint written for another number of clients"));
        }
        fed.set_global(checkpoint.global);
        let trained = Self::train_saving(fed, checkpoint.config, rng, Some(mid), fs, policy)?;
        Ok((trained, fell_back))
    }

    /// [`QuickDrop::train_core`] saving to `policy` on `fs`, then the
    /// trained deployment.
    fn train_saving(
        fed: &mut Federation,
        config: QuickDropConfig,
        rng: &mut Rng,
        resume: Option<MidPhase>,
        fs: &dyn Vfs,
        policy: &CheckpointPolicy,
    ) -> Result<(QuickDrop, TrainReport), CheckpointError> {
        let save = |ckpt: Checkpoint| ckpt.save_on(fs, &policy.path);
        let (qd, report) = Self::train_core(fed, config, rng, resume, policy.every, save)?;
        Checkpoint::capture(fed.global(), &qd).save_on(fs, &policy.path)?;
        Ok((qd, report))
    }

    /// Shared core of [`QuickDrop::train`],
    /// [`QuickDrop::train_with_checkpoints`] and
    /// [`QuickDrop::resume_train`]: the training phase from `resume`'s
    /// cursor (the start when `None`), handing `save` a mid-phase
    /// [`Checkpoint`] after every `every`-th round, then the synthetic
    /// and recovery sets.
    fn train_core<E>(
        fed: &mut Federation,
        config: QuickDropConfig,
        rng: &mut Rng,
        resume: Option<MidPhase>,
        every: usize,
        mut save: impl FnMut(Checkpoint) -> Result<(), E>,
    ) -> Result<(QuickDrop, TrainReport), E> {
        let model = fed.model().clone();
        let n = fed.n_clients();
        let mut trainers = distilling_trainers(model.clone(), config.distill, n);
        let cursor = resume.map(|mid| {
            let robins = mid.trainer_round_robin;
            for ((trainer, syn), robin) in
                trainers.iter_mut().zip(mid.trainer_synthetic).zip(robins)
            {
                trainer.restore(syn, robin);
            }
            mid.cursor
        });

        let mut save_error = None;
        let mut observer =
            |cursor: &ResumeState, global: &[Tensor], trainers: &[DistillingTrainer]| -> bool {
                if every == 0 || !cursor.next_round.is_multiple_of(every) {
                    return true;
                }
                let (trainer_synthetic, trainer_round_robin) =
                    trainers.iter().map(DistillingTrainer::snapshot).unzip();
                let mid = MidPhase {
                    phase: config.train_phase,
                    cursor: cursor.clone(),
                    trainer_synthetic,
                    trainer_round_robin,
                };
                save_error = save(Checkpoint::capture_mid_train(global, &config, mid)).err();
                save_error.is_none()
            };
        let fl_stats = fed.run_phase_resumable(
            &mut trainers,
            None,
            &config.train_phase,
            rng,
            cursor.as_ref(),
            Some(&mut observer),
        );
        if let Some(e) = save_error {
            return Err(e);
        }

        let mut total_compute = Duration::ZERO;
        let mut dd_compute = Duration::ZERO;
        let mut synthetic = Vec::with_capacity(n);
        for (i, trainer) in trainers.iter_mut().enumerate() {
            total_compute += trainer.total_time();
            dd_compute += trainer.dd_time();
            let syn = trainer.take_synthetic().unwrap_or_else(|| {
                SyntheticSet::init_from_real(fed.client_data(i), config.distill.scale, rng)
            });
            synthetic.push(syn);
        }

        // Step 2a: optional fine-tuning for recovery quality (Fig. 5).
        let mut finetune_real_grads = 0usize;
        if let Some(ft) = &config.finetune {
            for (i, syn) in synthetic.iter_mut().enumerate() {
                finetune_real_grads += finetune(model.as_ref(), syn, fed.client_data(i), ft, rng);
            }
        }

        let recovery_real = recovery_reals(&synthetic, fed, config.augment, rng);

        let synthetic_samples = synthetic.iter().map(SyntheticSet::len).sum();
        let real_samples = fed.clients().iter().map(Dataset::len).sum();
        let report = TrainReport {
            fl_stats,
            total_compute,
            dd_compute,
            finetune_real_grads,
            synthetic_samples,
            real_samples,
        };
        let system = QuickDrop {
            config,
            synthetic: Arc::new(synthetic),
            recovery_real: Arc::new(recovery_real),
            unlearned_classes: BTreeSet::new(),
            unlearned_clients: BTreeSet::new(),
        };
        Ok((system, report))
    }

    /// The per-client synthetic sets.
    pub fn synthetic_sets(&self) -> &[SyntheticSet] {
        &self.synthetic
    }

    /// The federation a restored deployment serves on: `model` at
    /// `global` over one client per synthetic set, none holding real
    /// data. Every serving phase trains on the synthetic sets, so their
    /// geometry is all the (empty) client datasets need to carry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoSyntheticSets`] when the deployment holds no
    /// synthetic set to take the geometry from — a checkpoint file is
    /// outside input.
    pub fn serving_federation(
        &self,
        model: Arc<dyn Module>,
        global: Vec<Tensor>,
    ) -> Result<Federation, CheckpointError> {
        let first = self
            .synthetic
            .first()
            .ok_or(CheckpointError::NoSyntheticSets)?;
        let (c, h, w) = first.sample_dims();
        let empty = Dataset::new(Vec::new(), Vec::new(), first.classes(), c, h, w);
        let clients = vec![empty; self.synthetic.len()];
        Ok(Federation::with_params(model, clients, global))
    }

    /// Classes currently in the forgotten state.
    pub fn unlearned_classes(&self) -> impl Iterator<Item = usize> + '_ {
        self.unlearned_classes.iter().copied()
    }

    /// Whether `request`'s class or client is in the forgotten state:
    /// unlearned, and not relearned since.
    pub fn is_forgotten(&self, request: UnlearnRequest) -> bool {
        match request {
            UnlearnRequest::Class(c) => self.unlearned_classes.contains(&c),
            UnlearnRequest::Client(t) => self.unlearned_clients.contains(&t),
        }
    }

    /// The configuration this system was trained with.
    pub fn config(&self) -> &QuickDropConfig {
        &self.config
    }

    /// Snapshot of the forgotten-state marks, for side-effect-free
    /// trials ([`QuickDrop::probe_unit`]) that must restore them.
    pub(crate) fn marks_snapshot(&self) -> (BTreeSet<usize>, BTreeSet<usize>) {
        (
            self.unlearned_classes.clone(),
            self.unlearned_clients.clone(),
        )
    }

    /// Restores a [`QuickDrop::marks_snapshot`].
    pub(crate) fn marks_restore(&mut self, marks: (BTreeSet<usize>, BTreeSet<usize>)) {
        self.unlearned_classes = marks.0;
        self.unlearned_clients = marks.1;
    }

    /// Step 4 of the workflow: recovery descent on the synthetic retain
    /// set (everything not currently forgotten) under `phase`. The unit
    /// engine and relearning's consolidation pass run it with the
    /// configured recovery phase; harnesses call it for extra rounds to
    /// observe the model round by round (Figure 2).
    pub fn recover(&self, fed: &mut Federation, phase: &Phase, rng: &mut Rng) -> PhaseStats {
        let retain = self.synthetic_retain();
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        fed.run_phase(&mut trainers, Some(&retain), phase, rng)
    }

    /// Applies additional fine-tuning steps to the synthetic sets
    /// (Section 3.3.2) and rebuilds the recovery datasets, replacing both
    /// (a checkpoint sharing the old ones keeps them). Returns the number
    /// of real-data gradient evaluations spent (Figure 5's cost axis).
    pub fn finetune_more(
        &mut self,
        fed: &Federation,
        cfg: &qd_distill::FinetuneConfig,
        rng: &mut Rng,
    ) -> usize {
        let model = fed.model().clone();
        let mut real_grads = 0usize;
        let mut synthetic = self.synthetic.to_vec();
        for (i, syn) in synthetic.iter_mut().enumerate() {
            real_grads += finetune(model.as_ref(), syn, fed.client_data(i), cfg, rng);
        }
        let recovery_real = recovery_reals(&synthetic, fed, self.config.augment, rng);
        self.synthetic = Arc::new(synthetic);
        self.recovery_real = Arc::new(recovery_real);
        real_grads
    }

    /// Per-client synthetic forget sets for a request (`S_f`).
    fn synthetic_forget(&self, request: UnlearnRequest) -> Vec<Option<Dataset>> {
        self.synthetic
            .iter()
            .enumerate()
            .map(|(i, syn)| match request {
                UnlearnRequest::Class(c) => {
                    let d = syn.class_dataset(c);
                    (!d.is_empty()).then_some(d)
                }
                UnlearnRequest::Client(t) => (i == t && !syn.is_empty()).then(|| syn.to_dataset()),
            })
            .collect()
    }

    /// Step 3 of the workflow as a standalone stage: adaptive SGA rounds
    /// on the synthetic forget set. Returns the stage statistics and the
    /// post-ascent parameters.
    ///
    /// Deliberately does **not** mark the request as forgotten — marking
    /// is a separate step ([`Self::mark_unlearned`]) so a guarded engine
    /// can roll a rejected ascent back without leaving stale
    /// forgotten-state bookkeeping behind.
    ///
    /// `lr_scale` multiplies the configured ascent LR (the guarded path
    /// passes `0.5^k` during backoff); `1.0` leaves the phase untouched
    /// so unguarded serving stays bit-for-bit on the configured schedule.
    pub(crate) fn ascent_stage(
        &self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
        lr_scale: f32,
    ) -> (PhaseStats, Vec<Tensor>) {
        // The paper's regime needs exactly one round; under long
        // sequential-request streams the target's logit margin can exceed
        // what one round reverses, so repeat (up to the configured cap)
        // until the synthetic forget set is actually forgotten.
        let forget = self.synthetic_forget(request);
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        let mut one_round = Phase {
            rounds: 1,
            ..self.config.unlearn_phase
        };
        if lr_scale != 1.0 {
            one_round.lr *= lr_scale;
        }
        // Stop-criterion probe: the *augmented* forget data (synthetic
        // plus the 1:1 real samples stored for recovery). Pure synthetic
        // samples can be misclassified long before the real class is
        // forgotten, so they alone are a poor stopping proxy.
        let forget_eval: Dataset = {
            let mut all: Option<Dataset> = None;
            let mut add = |d: &Dataset| match &mut all {
                Some(acc) => acc.extend(d),
                None => all = Some(d.clone()),
            };
            match request {
                UnlearnRequest::Class(c) => {
                    for i in 0..self.synthetic.len() {
                        let part = self.recovery_set(i).only_class(c);
                        if !part.is_empty() {
                            add(&part);
                        }
                    }
                }
                UnlearnRequest::Client(t) => {
                    if t < self.synthetic.len() {
                        add(&self.recovery_set(t));
                    }
                }
            }
            for d in forget.iter().flatten() {
                add(d);
            }
            all.unwrap_or_else(|| {
                self.recovery_real
                    .first()
                    .map(Dataset::empty_like)
                    // qd-lint: allow(panic-safety) -- Federation construction
                    // guarantees at least one client with recovery data
                    .expect("at least one client")
            })
        };
        // Adaptive rounds apply to class-level requests only: a class's
        // test accuracy is *supposed* to collapse. A forgotten client's
        // data stays partially recognizable through shared features
        // (Section 4.6) — especially under IID — so driving its accuracy
        // to zero would destroy the model rather than unlearn.
        let round_cap = match request {
            UnlearnRequest::Class(_) => self.config.max_unlearn_rounds.max(1),
            UnlearnRequest::Client(_) => 1,
        };
        let mut unlearn = PhaseStats::default();
        for round in 1..=round_cap {
            let stats = fed.run_phase(&mut trainers, Some(&forget), &one_round, rng);
            unlearn.merge(&stats);
            // The probe only decides whether another round runs, so after
            // the last permitted one (always, for a client request) its
            // answer could change nothing; it draws no randomness.
            if round == round_cap || stats.rounds == 0 || forget_eval.is_empty() {
                break;
            }
            let acc = qd_eval::accuracy(fed.model().as_ref(), fed.global(), &forget_eval);
            if acc <= self.config.unlearn_stop_accuracy {
                break;
            }
        }
        let post_unlearn_params = fed.global().to_vec();
        (unlearn, post_unlearn_params)
    }

    /// Records `request` as forgotten, shaping every later
    /// [`Self::synthetic_retain`] view.
    pub(crate) fn mark_unlearned(&mut self, request: UnlearnRequest) {
        match request {
            UnlearnRequest::Class(c) => {
                self.unlearned_classes.insert(c);
            }
            UnlearnRequest::Client(t) => {
                self.unlearned_clients.insert(t);
            }
        }
    }

    /// Reverts [`Self::mark_unlearned`] (guarded rollback of a rejected
    /// attempt, and relearning).
    pub(crate) fn unmark_unlearned(&mut self, request: UnlearnRequest) {
        match request {
            UnlearnRequest::Class(c) => {
                self.unlearned_classes.remove(&c);
            }
            UnlearnRequest::Client(t) => {
                self.unlearned_clients.remove(&t);
            }
        }
    }

    /// Client `i`'s recovery set: its synthetic set, followed by the real
    /// samples mixed into it (none when `augment` is off). The synthetic
    /// half is built from [`QuickDrop::synthetic_sets`] on each call, so
    /// a deployment stores every synthetic sample once.
    fn recovery_set(&self, i: usize) -> Dataset {
        let mut set = self.synthetic[i].to_dataset();
        set.extend(&self.recovery_real[i]);
        set
    }

    /// Per-client recovery sets: the (augmented) synthetic data minus
    /// everything currently forgotten (`S \ S_f`).
    pub(crate) fn synthetic_retain(&self) -> Vec<Option<Dataset>> {
        (0..self.synthetic.len())
            .map(|i| {
                if self.unlearned_clients.contains(&i) {
                    return None;
                }
                let mut d = self.recovery_set(i);
                for &c in &self.unlearned_classes {
                    d = d.without_class(c);
                }
                (!d.is_empty()).then_some(d)
            })
            .collect()
    }
}

impl UnlearningMethod for QuickDrop {
    fn name(&self) -> &'static str {
        "QuickDrop"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            class_level: true,
            client_level: true,
            relearn: true,
            storage_efficient: true, // ~1/s of the dataset (s = 100 ⇒ 1%)
            computation: Efficiency::High,
        }
    }

    fn unlearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
    ) -> MethodOutcome {
        // Steps 3 and 4 — SGA on the synthetic forget set, recovery on
        // the synthetic retain set — are the unit engine on a unit of
        // one. Without a guard policy nothing can reject the request;
        // were it rejected, it cost nothing and the model is unchanged.
        let served = self.run_unjournaled(fed, &[request], None, rng);
        served.map_or_else(
            |_rejected| MethodOutcome {
                unlearn: PhaseStats::default(),
                recovery: PhaseStats::default(),
                post_unlearn_params: fed.global().to_vec(),
                guard: None,
            },
            crate::BatchOutcome::merged,
        )
    }

    fn relearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        phase: &Phase,
        rng: &mut Rng,
    ) -> Option<PhaseStats> {
        // Step 5: SGD on the synthetic forget set (QuickDrop never needs
        // the original data back), followed by a consolidation pass over
        // the full synthetic retain set so relearning one class does not
        // drift the others — still synthetic-scale work.
        let forget = self.synthetic_forget(request);
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        let mut stats = fed.run_phase(&mut trainers, Some(&forget), phase, rng);
        self.unmark_unlearned(request);
        stats.merge(&self.recover(fed, &self.config.recover_phase, rng));
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::{partition_dirichlet, SyntheticDataset};
    use qd_eval::split_accuracy;
    use qd_nn::{Mlp, Module};
    use qd_unlearn::{fr_eval_sets, UnlearnError};
    use std::sync::Arc;

    fn trained_system() -> (Federation, QuickDrop, Dataset, Rng, Arc<dyn Module>) {
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let data = SyntheticDataset::Digits.generate(600, &mut rng);
        let test = SyntheticDataset::Digits.generate(300, &mut rng);
        let parts = partition_dirichlet(data.labels(), 10, 4, 0.5, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let mut cfg = QuickDropConfig::scaled_test();
        cfg.train_phase = Phase::training(8, 8, 32, 0.1);
        cfg.unlearn_phase = Phase::unlearning(1, 4, 32, 0.05);
        cfg.recover_phase = Phase::training(2, 6, 32, 0.1);
        cfg.relearn_phase = Phase::training(3, 6, 32, 0.1);
        let (qd, report) = QuickDrop::train(&mut fed, cfg, &mut rng);
        assert!(report.dd_compute > Duration::ZERO);
        assert!(report.dd_overhead() > 0.0 && report.dd_overhead() < 1.0);
        assert!(report.storage_fraction() < 0.2);
        (fed, qd, test, rng, model)
    }

    /// A deployment checkpoint has no round to resume from, and a
    /// mid-phase one fits only a federation of the client count it was
    /// written for: `resume_train` refuses both and names the file.
    #[test]
    fn deployment_checkpoints_and_client_mismatches_are_rejected() {
        let (mut fed, qd, _, mut rng, _) = trained_system();
        let fs = crate::FaultFs::new();
        let policy = CheckpointPolicy {
            every: 1,
            path: PathBuf::from("train.ckpt"),
        };
        let refused = |fed: &mut Federation, rng: &mut Rng, ckpt: Checkpoint| {
            ckpt.save_on(&fs, &policy.path).unwrap();
            let err = QuickDrop::resume_train(fed, rng, &fs, &policy).unwrap_err();
            assert!(matches!(err, CheckpointError::Format { .. }), "{err}");
            err.to_string()
        };

        let deployment = Checkpoint::capture(fed.global(), &qd);
        let err = refused(&mut fed, &mut rng, deployment);
        assert!(err.starts_with("checkpoint train.ckpt: "), "{err}");
        assert!(err.contains("no mid-phase state"), "{err}");

        let mid = MidPhase {
            phase: qd.config().train_phase,
            cursor: ResumeState {
                next_round: 1,
                rng: rng.state(),
                guard: qd_fed::GuardState::default(),
                health: qd_fed::HealthState::default(),
            },
            trainer_synthetic: vec![None; fed.n_clients() + 1],
            trainer_round_robin: vec![0; fed.n_clients() + 1],
        };
        let other_clients = Checkpoint::capture_mid_train(fed.global(), qd.config(), mid);
        let err = refused(&mut fed, &mut rng, other_clients);
        assert!(err.contains("another number of clients"), "{err}");
    }

    #[test]
    fn quickdrop_unlearns_class_with_tiny_data() {
        let (mut fed, mut qd, test, mut rng, model) = trained_system();
        let request = UnlearnRequest::Class(4);
        let (f, r) = fr_eval_sets(&fed, request, &test);
        let (fa0, ra0) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa0 > 0.4, "class 4 learned before unlearning ({fa0})");

        let real_total: usize = fed.clients().iter().map(Dataset::len).sum();
        let outcome = qd.unlearn(&mut fed, request, &mut rng);
        assert!(
            outcome.unlearn.data_size < real_total / 5,
            "unlearning must touch only synthetic volumes ({} vs {real_total})",
            outcome.unlearn.data_size
        );

        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa < 0.15, "forget accuracy after unlearning {fa}");
        assert!(ra > ra0 - 0.2, "retain accuracy {ra0} -> {ra}");
    }

    #[test]
    fn quickdrop_supports_relearning() {
        let (mut fed, mut qd, test, mut rng, model) = trained_system();
        let request = UnlearnRequest::Class(2);
        let (f, r) = fr_eval_sets(&fed, request, &test);
        qd.unlearn(&mut fed, request, &mut rng);
        let (fa_unlearned, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa_unlearned < 0.2);

        let phase = qd.config().relearn_phase;
        qd.relearn(&mut fed, request, &phase, &mut rng)
            .expect("QuickDrop supports relearning");
        let (fa_back, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(
            fa_back > 0.4,
            "relearning should restore class 2: {fa_unlearned} -> {fa_back}"
        );
        assert_eq!(qd.unlearned_classes().count(), 0);
    }

    #[test]
    fn unlearn_guarded_starts_from_the_policys_ascent_lr_scale() {
        let (mut fed, mut qd, _, mut rng, _) = trained_system();
        let request = UnlearnRequest::Class(4);
        let (reference, rng_mark) = (fed.global().to_vec(), rng.state());
        let mut ascent_at = |scale: f32| {
            let (_, post) = qd.ascent_stage(&mut fed, request, &mut rng, scale);
            fed.set_global(reference.clone());
            rng = Rng::from_state(&rng_mark);
            post
        };
        let (half, full) = (ascent_at(0.5), ascent_at(1.0));
        let policy = GuardPolicy {
            drift_budget: 64.0,
            ascent_retries: 0,
            ascent_lr_scale: 0.5,
            ..GuardPolicy::default()
        };
        let outcome = qd
            .unlearn_guarded(&mut fed, request, &policy, &mut rng)
            .expect("a generous budget accepts the first attempt");
        let bits = |params: &[Tensor]| -> Vec<u32> {
            params
                .iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&outcome.post_unlearn_params), bits(&half));
        assert_ne!(bits(&outcome.post_unlearn_params), bits(&full));
    }

    /// What one `unlearn_guarded` call leaves behind, as CRC32s: model
    /// bits, RNG stream, both mark sets, and the guard's verdict (its
    /// stats; for an accepted request also the post-ascent parameters
    /// and the round counts).
    fn guarded_digests(
        fed: &Federation,
        qd: &QuickDrop,
        rng: &Rng,
        result: &Result<MethodOutcome, UnlearnError>,
    ) -> [u32; 4] {
        use crate::vfs::crc32;
        let param_bytes = |params: &[Tensor]| -> Vec<u8> {
            params
                .iter()
                .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
                .collect()
        };
        let state = rng.state();
        let mut rng_bytes: Vec<u8> = state.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        rng_bytes.extend(
            state
                .spare_normal
                .map_or(u32::MAX, f32::to_bits)
                .to_le_bytes(),
        );
        let mut mark_bytes = Vec::new();
        for set in [&qd.unlearned_classes, &qd.unlearned_clients] {
            mark_bytes.extend((set.len() as u64).to_le_bytes());
            mark_bytes.extend(set.iter().flat_map(|&m| (m as u64).to_le_bytes()));
        }
        let mut verdict = Vec::new();
        let stats = match result {
            Ok(outcome) => {
                verdict.extend(param_bytes(&outcome.post_unlearn_params));
                verdict.extend((outcome.unlearn.rounds as u64).to_le_bytes());
                verdict.extend((outcome.recovery.rounds as u64).to_le_bytes());
                outcome.guard.expect("guarded serving attaches stats")
            }
            Err(UnlearnError::Diverged { violation, stats }) => {
                verdict.extend(violation.to_string().as_bytes());
                *stats
            }
        };
        for field in [
            stats.steps,
            stats.rollbacks,
            stats.lr_halvings,
            stats.final_drift.to_bits(),
        ] {
            verdict.extend(field.to_le_bytes());
        }
        [
            crc32(&param_bytes(fed.global())),
            crc32(&rng_bytes),
            crc32(&mark_bytes),
            crc32(&verdict),
        ]
    }

    /// Digests captured at the parent of PR 13, when `unlearn_guarded`
    /// still carried its own retry loop. With the retain probe off (the
    /// default) the unit engine must reproduce every one: zero re-pins.
    const GUARDED_ORACLE: &[(&str, [u32; 4])] = &[
        (
            "default/class 4",
            [0x1e3f4e22, 0x9ac99339, 0xf6d5e380, 0xf54550f5],
        ),
        (
            "default/client 1",
            [0x14ceadb8, 0x4758c822, 0xc1035b2f, 0x121d7db7],
        ),
        (
            "generous/class 4",
            [0xaed32d72, 0x9ac99339, 0xf6d5e380, 0xafca2e31],
        ),
        (
            "generous/client 1",
            [0x14ceadb8, 0x4758c822, 0xc1035b2f, 0x121d7db7],
        ),
        (
            "half-lr/class 4",
            [0x1e3f4e22, 0x9ac99339, 0xf6d5e380, 0x8b82a8f6],
        ),
        (
            "half-lr/client 1",
            [0xbfafe223, 0x4758c822, 0xc1035b2f, 0x3dd16c32],
        ),
        (
            "hostile/class 4",
            [0xbdff1682, 0x6d241036, 0xecbb4b55, 0xac85ac89],
        ),
        (
            "hostile/client 1",
            [0xbdff1682, 0x6d241036, 0xecbb4b55, 0x4930afea],
        ),
    ];

    #[test]
    fn unlearn_guarded_reproduces_the_parent_digests() {
        let (mut fed, trained, _, trained_rng, _) = trained_system();
        let (reference, rng_mark) = (fed.global().to_vec(), trained_rng.state());
        let default = GuardPolicy::default();
        let generous = GuardPolicy {
            drift_budget: 64.0,
            ..default
        };
        let half_lr = GuardPolicy {
            ascent_lr_scale: 0.5,
            ..generous
        };
        // `hostile` multiplies the configured ascent LR: no amount of
        // halving inside the retry budget brings it under the drift gate.
        let cases: [(&str, GuardPolicy, f32); 4] = [
            ("default", default, 1.0),
            ("generous", generous, 1.0),
            ("half-lr", half_lr, 1.0),
            ("hostile", default, 4096.0),
        ];
        let mut actual: Vec<(String, [u32; 4])> = Vec::new();
        for (name, policy, hostile) in cases {
            for request in [UnlearnRequest::Class(4), UnlearnRequest::Client(1)] {
                let mut qd = trained.clone();
                qd.config.unlearn_phase.lr *= hostile;
                fed.set_global(reference.clone());
                let mut rng = Rng::from_state(&rng_mark);
                let result = qd.unlearn_guarded(&mut fed, request, &policy, &mut rng);
                if hostile > 1.0 {
                    // The error path: model, RNG and marks are back at
                    // the pre-request state.
                    assert!(result.is_err(), "{name}/{request} must exhaust backoff");
                    assert_eq!(rng.state(), rng_mark);
                    assert_eq!(qd.unlearned_classes.len() + qd.unlearned_clients.len(), 0);
                    for (a, b) in fed.global().iter().zip(&reference) {
                        assert_eq!(a.data(), b.data(), "{name}/{request}: model not restored");
                    }
                }
                actual.push((
                    format!("{name}/{request}"),
                    guarded_digests(&fed, &qd, &rng, &result),
                ));
            }
        }
        let expected: Vec<(String, [u32; 4])> = GUARDED_ORACLE
            .iter()
            .map(|&(n, d)| (n.to_string(), d))
            .collect();
        if actual != expected {
            for (name, d) in &actual {
                println!(
                    "        (\"{name}\", [{:#010x}, {:#010x}, {:#010x}, {:#010x}]),",
                    d[0], d[1], d[2], d[3]
                );
            }
            panic!("digests moved from the parent-captured oracle (actual table printed above)");
        }
    }

    /// The stop probe only decides whether another ascent round runs, so
    /// it is skipped after the last permitted one — and since it draws no
    /// randomness, the stage is exactly its rounds: the model, the RNG
    /// stream and the counted work of `round_cap` bare `run_phase` calls.
    /// A client request is always one round; a class request that never
    /// reaches the stop accuracy uses every permitted round.
    #[test]
    fn the_ascent_stage_is_exactly_its_permitted_rounds() {
        let (mut fed, trained, _, trained_rng, _) = trained_system();
        let (reference, rng_mark) = (fed.global().to_vec(), trained_rng.state());
        for (request, max_rounds, rounds) in [
            (UnlearnRequest::Client(1), 3, 1),
            (UnlearnRequest::Class(4), 1, 1),
            (UnlearnRequest::Class(4), 3, 3),
        ] {
            let mut qd = trained.clone();
            qd.config.max_unlearn_rounds = max_rounds;
            qd.config.unlearn_stop_accuracy = -1.0; // never reached

            fed.set_global(reference.clone());
            let mut rng = Rng::from_state(&rng_mark);
            let (stats, post) = qd.ascent_stage(&mut fed, request, &mut rng, 1.0);
            assert_eq!(stats.rounds, rounds, "{request}: rounds run");

            fed.set_global(reference.clone());
            let mut bare_rng = Rng::from_state(&rng_mark);
            let forget = qd.synthetic_forget(request);
            let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
            let one_round = Phase {
                rounds: 1,
                ..qd.config.unlearn_phase
            };
            let mut bare = PhaseStats::default();
            for _ in 0..rounds {
                bare.merge(&fed.run_phase(&mut trainers, Some(&forget), &one_round, &mut bare_rng));
            }
            assert_eq!(rng.state(), bare_rng.state(), "{request}: RNG stream");
            assert_eq!(
                (
                    stats.samples_processed,
                    stats.data_size,
                    stats.upload_scalars
                ),
                (bare.samples_processed, bare.data_size, bare.upload_scalars),
                "{request}: counted work"
            );
            for (a, b) in post.iter().zip(fed.global()) {
                assert_eq!(a.data(), b.data(), "{request}: model bits");
            }
        }
    }

    /// With the retain probe on, the journal-less front door and the
    /// journaled one are the same engine: same probe (drawn after the
    /// request is marked), same verdict — a post-recovery violation is
    /// surfaced after one attempt, not retried — same model, same marks.
    #[test]
    fn guarded_and_journaled_serving_reach_the_same_probe_verdict() {
        use crate::{FaultFs, RequestJournal, ServeError, Vfs};
        let (mut fed, trained, _, trained_rng, _) = trained_system();
        let (reference, rng_mark) = (fed.global().to_vec(), trained_rng.state());
        let request = UnlearnRequest::Class(4);
        for (limit, accepts) in [(1.0e6, true), (1.0e-6, false)] {
            let policy = GuardPolicy {
                drift_budget: 64.0,
                retain_probe: limit,
                ..GuardPolicy::default()
            };
            let mut qd = trained.clone();
            fed.set_global(reference.clone());
            let mut rng = Rng::from_state(&rng_mark);
            let guarded = qd.unlearn_guarded(&mut fed, request, &policy, &mut rng);
            let guarded_model = fed.global().to_vec();
            assert_eq!(guarded.is_ok(), accepts, "probe limit {limit}");

            let mut qd_journaled = trained.clone();
            fed.set_global(reference.clone());
            let mut rng = Rng::from_state(&rng_mark);
            let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new());
            let mut journal = RequestJournal::open_on(fs, "probe.journal").unwrap();
            let journaled = qd_journaled
                .serve_journaled(
                    &mut fed,
                    &mut journal,
                    request,
                    Some(&policy),
                    &mut rng,
                    None,
                )
                .map(|run| run.into_complete().expect("no preemption configured"));
            match (guarded, journaled) {
                (Ok(a), Ok(b)) => assert_eq!(a.guard, b.guard),
                (Err(a), Err(ServeError::Diverged(b))) => {
                    assert_eq!(a, b);
                    let UnlearnError::Diverged { stats, .. } = a;
                    assert_eq!(
                        (stats.steps, stats.rollbacks),
                        (1, 1),
                        "surfaced, not retried"
                    );
                }
                (a, b) => panic!("verdicts differ at probe limit {limit}: {a:?} vs {b:?}"),
            }
            for (a, b) in guarded_model.iter().zip(fed.global()) {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "model bits differ at probe limit {limit}"
                );
            }
            assert_eq!(qd.marks_snapshot(), qd_journaled.marks_snapshot());
        }
    }

    /// The recovery sets as the parent built and stored them, kept as the
    /// oracle: each synthetic set's samples, then `min(m, |Dᶜ|)` real
    /// samples per owned class drawn from `rng`.
    fn stored_recovery_sets(qd: &QuickDrop, fed: &Federation, rng: &mut Rng) -> Vec<Dataset> {
        (qd.synthetic.iter().enumerate())
            .map(|(i, syn)| {
                let mut mixed = syn.to_dataset();
                let real = fed.client_data(i);
                for class in syn
                    .owned_classes()
                    .into_iter()
                    .filter(|_| qd.config.augment)
                {
                    let m = syn.class_samples(class).map_or(0, |t| t.dims()[0]);
                    let members = real.indices_of_class(class);
                    if members.is_empty() || m == 0 {
                        continue;
                    }
                    for p in rng.choose_indices(members.len(), m.min(members.len())) {
                        mixed.push(real.image(members[p]), class);
                    }
                }
                mixed
            })
            .collect()
    }

    /// Every recovery set is the bytes it was when the whole set was
    /// stored: same samples, same order, same RNG draws — after training
    /// with augmentation on and off, and after `finetune_more` rebuilds
    /// the real halves.
    #[test]
    fn recovery_sets_are_the_stored_ones_to_the_byte() {
        use serde::Serialize;
        let same = |qd: &QuickDrop, oracle: &[Dataset], what: &str| {
            assert_eq!(qd.recovery_real.len(), oracle.len(), "{what}");
            for (i, want) in oracle.iter().enumerate() {
                let got = qd.recovery_set(i);
                assert_eq!(&got, want, "{what}: client {i}");
                assert_eq!(
                    crate::frame::encode(&got.to_value()),
                    crate::frame::encode(&want.to_value()),
                    "{what}: client {i}'s bytes"
                );
            }
        };
        let deployment = |augment: bool| {
            let mut rng = Rng::seed_from(4);
            let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
            let data = SyntheticDataset::Digits.generate(240, &mut rng);
            let parts = partition_dirichlet(data.labels(), 10, 3, 0.5, &mut rng);
            let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
            let mut fed = Federation::new(model, clients, &mut rng);
            let mut cfg = QuickDropConfig::scaled_test();
            cfg.train_phase = Phase::training(2, 2, 16, 0.1);
            cfg.distill.scale = 10;
            cfg.augment = augment;
            let (qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
            (fed, qd, rng)
        };
        // Nothing before step 2b reads `augment`, and without it step 2b
        // draws nothing: the plain run ends where the augmented one drew.
        let (plain_fed, plain, drawn_from) = deployment(false);
        let mut oracle_rng = Rng::from_state(&drawn_from.state());
        let oracle = stored_recovery_sets(&plain, &plain_fed, &mut oracle_rng);
        assert_eq!(
            oracle_rng.state(),
            drawn_from.state(),
            "augment off draws nothing"
        );
        same(&plain, &oracle, "augment off");
        let (fed, mut qd, mut rng) = deployment(true);
        let oracle = stored_recovery_sets(&qd, &fed, &mut oracle_rng);
        assert_eq!(rng.state(), oracle_rng.state(), "augment on: RNG draws");
        assert!(qd.recovery_real.iter().all(|real| !real.is_empty()));
        same(&qd, &oracle, "augment on");

        let ft = qd_distill::FinetuneConfig {
            outer_steps: 1,
            inner_steps: 1,
            model_steps: 1,
            ..qd_distill::FinetuneConfig::default()
        };
        let mut parent = qd.clone();
        let mut oracle_rng = Rng::from_state(&rng.state());
        qd.finetune_more(&fed, &ft, &mut rng);
        for (i, syn) in Arc::make_mut(&mut parent.synthetic).iter_mut().enumerate() {
            finetune(
                fed.model().as_ref(),
                syn,
                fed.client_data(i),
                &ft,
                &mut oracle_rng,
            );
        }
        let oracle = stored_recovery_sets(&parent, &fed, &mut oracle_rng);
        assert_eq!(rng.state(), oracle_rng.state(), "finetune_more: RNG draws");
        same(&qd, &oracle, "finetune_more");
    }

    #[test]
    fn quickdrop_client_level_unlearning() {
        let (mut fed, mut qd, test, mut rng, model) = trained_system();
        let request = UnlearnRequest::Client(1);
        let (f, r) = fr_eval_sets(&fed, request, &test);
        let (fa0, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        let outcome = qd.unlearn(&mut fed, request, &mut rng);
        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        // Client influence drops (not to zero: shared features remain,
        // Section 4.6), retained data stays usable.
        assert!(fa < fa0, "client influence should drop: {fa0} -> {fa}");
        assert!(ra > 0.3, "retain accuracy {ra}");
        assert!(outcome.recovery.rounds == 2);
    }

    #[test]
    fn sequential_requests_keep_prior_classes_forgotten() {
        let (mut fed, mut qd, test, mut rng, model) = trained_system();
        qd.unlearn(&mut fed, UnlearnRequest::Class(1), &mut rng);
        qd.unlearn(&mut fed, UnlearnRequest::Class(6), &mut rng);
        let (f1, _) = fr_eval_sets(&fed, UnlearnRequest::Class(1), &test);
        let (f6, _) = fr_eval_sets(&fed, UnlearnRequest::Class(6), &test);
        let a1 = qd_eval::accuracy(model.as_ref(), fed.global(), &f1);
        let a6 = qd_eval::accuracy(model.as_ref(), fed.global(), &f6);
        assert!(
            a1 < 0.25,
            "class 1 stays forgotten after second request ({a1})"
        );
        assert!(a6 < 0.25, "class 6 forgotten ({a6})");
        assert_eq!(qd.unlearned_classes().count(), 2);
    }
}
