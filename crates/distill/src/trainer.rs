//! The in-situ distilling client trainer (Algorithm 2 of the paper).

use crate::{distribution_match_step, match_class_step, reference_gradients, SyntheticSet};
use qd_data::Dataset;
use qd_fed::{ClientTrainer, LocalOutcome, Phase};
use qd_nn::{Module, Sgd};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which condensation objective drives the synthetic updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum MatchObjective {
    /// Gradient matching (Zhao et al. ICLR'21) — the paper's choice:
    /// synthetic data compresses *gradient* information, which is what
    /// SGA unlearning replays.
    #[default]
    Gradient,
    /// Distribution matching (Zhao & Bilen WACV'23) — ablation baseline:
    /// aligns embedding means; cheaper but not targeted at unlearning.
    Distribution,
}

/// Hyper-parameters of in-situ synthetic data generation.
///
/// Defaults follow Section 4.1: scale `s = 100`, `ς_S = 1` matching step
/// with learning rate `η_S = 0.1`, SGD as the synthetic optimizer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DistillConfig {
    /// Scale parameter `s`: `|Sᵢᶜ| = ⌈|Dᵢᶜ| / s⌉`.
    pub scale: usize,
    /// Synthetic-sample learning rate `η_S`.
    pub lr_syn: f32,
    /// Synthetic update steps per matching invocation `ς_S`.
    pub steps_syn: usize,
    /// How many owned classes to match per local step (round-robin).
    /// `usize::MAX` matches every owned class each step, as in the paper;
    /// smaller values trade distillation quality for speed.
    pub classes_per_step: usize,
    /// Mini-batch cap for the per-class real reference batch.
    pub real_batch_per_class: usize,
    /// Initialize synthetic samples from real data (`true`, paper
    /// default) or Gaussian noise (`false`, ablation).
    pub init_from_real: bool,
    /// Condensation objective (gradient matching by default).
    pub objective: MatchObjective,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            scale: 100,
            lr_syn: 0.1,
            steps_syn: 1,
            classes_per_step: usize::MAX,
            real_batch_per_class: 32,
            init_from_real: true,
            objective: MatchObjective::Gradient,
        }
    }
}

/// A [`ClientTrainer`] that performs standard local SGD **and**, at every
/// local step, refines a per-class synthetic dataset by gradient matching
/// against the same model iterate (Algorithm 2).
///
/// The model update itself uses only the real-data gradient, exactly as in
/// plain FedAvg — distillation is a passenger on the training trajectory,
/// which is why the FL result is unchanged and the extra cost is only the
/// matching work (reported by [`DistillingTrainer::dd_time`], Table 6).
pub struct DistillingTrainer {
    model: Arc<dyn Module>,
    config: DistillConfig,
    synthetic: Option<SyntheticSet>,
    round_robin: usize,
    dd_time: Duration,
    total_time: Duration,
}

impl DistillingTrainer {
    /// Creates a distilling trainer; the synthetic set is initialized
    /// lazily on the first round (it needs the client dataset).
    pub fn new(model: Arc<dyn Module>, config: DistillConfig) -> Self {
        DistillingTrainer {
            model,
            config,
            synthetic: None,
            round_robin: 0,
            dd_time: Duration::ZERO,
            total_time: Duration::ZERO,
        }
    }

    /// The synthetic set generated so far (`None` before the first
    /// round).
    pub fn synthetic(&self) -> Option<&SyntheticSet> {
        self.synthetic.as_ref()
    }

    /// Takes ownership of the synthetic set, leaving `None`.
    pub fn take_synthetic(&mut self) -> Option<SyntheticSet> {
        self.synthetic.take()
    }

    /// Wall-clock time spent in distillation (matching) work.
    pub fn dd_time(&self) -> Duration {
        self.dd_time
    }

    /// Total wall-clock time spent in local training rounds, including
    /// distillation.
    pub fn total_time(&self) -> Duration {
        self.total_time
    }

    /// The distillation configuration.
    pub fn config(&self) -> &DistillConfig {
        &self.config
    }

    /// The round-to-round state a checkpoint must persist to resume this
    /// trainer mid-phase: the synthetic set built so far and the
    /// round-robin matching cursor. The timing counters are advisory
    /// (they only feed overhead reports) and deliberately excluded.
    pub fn snapshot(&self) -> (Option<SyntheticSet>, usize) {
        (self.synthetic.clone(), self.round_robin)
    }

    /// Restores state captured by [`DistillingTrainer::snapshot`],
    /// resetting the timing counters.
    pub fn restore(&mut self, synthetic: Option<SyntheticSet>, round_robin: usize) {
        self.synthetic = synthetic;
        self.round_robin = round_robin;
        self.dd_time = Duration::ZERO;
        self.total_time = Duration::ZERO;
    }
}

impl std::fmt::Debug for DistillingTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DistillingTrainer(scale {}, {} synthetic samples)",
            self.config.scale,
            self.synthetic.as_ref().map_or(0, SyntheticSet::len)
        )
    }
}

impl ClientTrainer for DistillingTrainer {
    fn local_round(
        &mut self,
        mut params: Vec<Tensor>,
        data: &Dataset,
        phase: &Phase,
        rng: &mut Rng,
    ) -> LocalOutcome {
        // Feeds the compute-time stats, never control flow.
        #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
        let round_start = Instant::now();
        // Mirror SgdClientTrainer's stream split: stream 0 drives FL batch
        // sampling (so model updates are bit-identical to plain SGD for
        // the same seed), stream 1 drives all distillation randomness.
        let mut batch_rng = rng.fork(0);
        let mut dd_rng = rng.fork(1);
        if self.synthetic.is_none() && !data.is_empty() {
            self.synthetic = Some(if self.config.init_from_real {
                SyntheticSet::init_from_real(data, self.config.scale, &mut dd_rng)
            } else {
                SyntheticSet::init_gaussian(data, self.config.scale, &mut dd_rng)
            });
        }
        let mut samples = 0usize;
        let opt = Sgd::new(phase.lr, phase.direction);
        for _ in 0..phase.local_steps {
            if data.is_empty() {
                break;
            }
            // FL update on real data (Algorithm 2, lines 12-13, 17).
            let (x, y) = data.sample_batch(phase.batch_size, &mut batch_rng);
            samples += y.len();
            let grads = reference_gradients(self.model.as_ref(), &params, &x, &y, data.classes());

            // Class-wise gradient matching (lines 14-15), timed as DD
            // overhead.
            // Feeds the compute-time stats, never control flow.
            #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
            let dd_start = Instant::now();
            let owned = self
                .synthetic
                .as_ref()
                .map(SyntheticSet::owned_classes)
                .unwrap_or_default();
            if !owned.is_empty() {
                let k = self.config.classes_per_step.min(owned.len());
                for j in 0..k {
                    let class = owned[(self.round_robin + j) % owned.len()];
                    self.match_one_class(&params, data, class, &mut dd_rng);
                }
                self.round_robin = (self.round_robin + k) % owned.len();
            }
            self.dd_time += dd_start.elapsed();

            opt.step(&mut params, &grads);
        }
        self.total_time += round_start.elapsed();
        LocalOutcome {
            params,
            samples_processed: samples,
        }
    }
}

impl DistillingTrainer {
    fn match_one_class(&mut self, params: &[Tensor], data: &Dataset, class: usize, rng: &mut Rng) {
        let members = data.indices_of_class(class);
        if members.is_empty() {
            return;
        }
        let take = self.config.real_batch_per_class.min(members.len());
        let picks = rng.choose_indices(members.len(), take);
        let idx: Vec<usize> = picks.into_iter().map(|p| members[p]).collect();
        let (x, y) = data.batch(&idx);
        let syn = self
            .synthetic
            .as_ref()
            .and_then(|s| s.class_samples(class))
            .cloned();
        if let Some(syn) = syn {
            let updated = match self.config.objective {
                MatchObjective::Gradient => {
                    let refs =
                        reference_gradients(self.model.as_ref(), params, &x, &y, data.classes());
                    match_class_step(
                        self.model.as_ref(),
                        params,
                        &refs,
                        syn,
                        class,
                        data.classes(),
                        self.config.lr_syn,
                        self.config.steps_syn,
                    )
                    .0
                }
                MatchObjective::Distribution => {
                    distribution_match_step(
                        self.model.as_ref(),
                        params,
                        &x,
                        syn,
                        self.config.lr_syn,
                        self.config.steps_syn,
                    )
                    .0
                }
            };
            // `syn` above came out of this very Option, so it is Some here.
            if let Some(set) = self.synthetic.as_mut() {
                set.set_class_samples(class, updated);
            }
        }
    }
}

/// Builds one [`DistillingTrainer`] per client.
pub fn distilling_trainers(
    model: Arc<dyn Module>,
    config: DistillConfig,
    n_clients: usize,
) -> Vec<DistillingTrainer> {
    (0..n_clients)
        .map(|_| DistillingTrainer::new(model.clone(), config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;

    #[test]
    fn trainer_builds_synthetic_set_and_counts_time() {
        let mut rng = Rng::seed_from(0);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(200, &mut rng);
        let cfg = DistillConfig {
            scale: 50,
            classes_per_step: 2,
            ..DistillConfig::default()
        };
        let mut trainer = DistillingTrainer::new(model, cfg);
        let phase = Phase::training(1, 4, 32, 0.05);
        let out = trainer.local_round(params, &data, &phase, &mut rng);
        assert!(out.samples_processed > 0);
        let syn = trainer.synthetic().expect("synthetic set built");
        assert!(!syn.is_empty());
        assert!(trainer.dd_time() > Duration::ZERO);
        assert!(trainer.total_time() >= trainer.dd_time());
    }

    #[test]
    fn distillation_does_not_change_model_update_semantics() {
        // With the same seed, the model parameters produced by the
        // distilling trainer equal those of plain SGD to the bit, with
        // matching on: distillation is a passenger. Both draw the FL
        // batches from `rng.fork(0)`, and matching draws only from
        // `rng.fork(1)`. A ConvNet, so every step runs the fused
        // convolution and norm·ReLU·pool nodes.
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(qd_nn::ConvNet::scaled_default(3, 10));
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Cifar.generate(100, &mut rng);
        let phase = Phase::training(1, 3, 16, 0.05);

        let mut plain = qd_fed::SgdClientTrainer::new(model.clone());
        let a = plain.local_round(params.clone(), &data, &phase, &mut Rng::seed_from(9));

        let cfg = DistillConfig {
            scale: 20,
            classes_per_step: 2,
            ..DistillConfig::default()
        };
        let mut distilling = DistillingTrainer::new(model, cfg);
        let b = distilling.local_round(params, &data, &phase, &mut Rng::seed_from(9));
        assert!(distilling.dd_time() > Duration::ZERO, "matching ran");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (x, y) in a.params.iter().zip(&b.params) {
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn gaussian_init_option_is_respected() {
        let mut rng = Rng::seed_from(2);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(100, &mut rng);
        let cfg = DistillConfig {
            init_from_real: false,
            classes_per_step: 0,
            ..DistillConfig::default()
        };
        let mut trainer = DistillingTrainer::new(model, cfg);
        trainer.local_round(params, &data, &Phase::training(1, 1, 8, 0.05), &mut rng);
        let syn = trainer.take_synthetic().unwrap();
        // A Gaussian sample will essentially never equal a real image.
        let class = syn.owned_classes()[0];
        let t = syn.class_samples(class).unwrap();
        let first = &t.data()[..data.sample_len()];
        let copied = data
            .indices_of_class(class)
            .iter()
            .any(|&i| data.image(i) == first);
        assert!(!copied);
    }
}
