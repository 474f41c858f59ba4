//! Client-side local training: the [`ClientTrainer`] trait and its plain
//! SGD/SGA implementation.

use crate::Phase;
use qd_data::Dataset;
use qd_nn::{loss_gradients, Module, Sgd};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::sync::Arc;

/// What a client returns after one round of local work.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// The client's updated parameters.
    pub params: Vec<Tensor>,
    /// Number of training samples processed (gradient evaluations on
    /// original or synthetic data), for the paper's cost accounting.
    pub samples_processed: usize,
}

/// Per-client local training logic, stateful across rounds.
///
/// Implementations receive the current global parameters and their local
/// dataset and return updated parameters. The trainer object persists
/// across rounds, which lets `qd-distill`'s in-situ distilling trainer
/// carry its synthetic dataset between rounds.
pub trait ClientTrainer: Send {
    /// Runs `phase.local_steps` local steps starting from `params`.
    fn local_round(
        &mut self,
        params: Vec<Tensor>,
        data: &Dataset,
        phase: &Phase,
        rng: &mut Rng,
    ) -> LocalOutcome;
}

impl<T: ClientTrainer + ?Sized> ClientTrainer for Box<T> {
    fn local_round(
        &mut self,
        params: Vec<Tensor>,
        data: &Dataset,
        phase: &Phase,
        rng: &mut Rng,
    ) -> LocalOutcome {
        (**self).local_round(params, data, phase, rng)
    }
}

/// Plain local SGD (descent) or SGA (ascent) on mini-batches of the
/// client's data — the local step of FedAvg and of Algorithm 1.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qd_data::SyntheticDataset;
/// use qd_fed::{ClientTrainer, Phase, SgdClientTrainer};
/// use qd_nn::{Mlp, Module};
/// use qd_tensor::rng::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let model = Arc::new(Mlp::new(&[256, 16, 10]));
/// let params = model.init(&mut rng);
/// let data = SyntheticDataset::Digits.generate(32, &mut rng);
/// let mut trainer = SgdClientTrainer::new(model);
/// let out = trainer.local_round(params, &data, &Phase::training(1, 2, 8, 0.05), &mut rng);
/// assert_eq!(out.samples_processed, 16);
/// ```
pub struct SgdClientTrainer {
    model: Arc<dyn Module>,
}

impl SgdClientTrainer {
    /// Creates a trainer for the given architecture.
    pub fn new(model: Arc<dyn Module>) -> Self {
        SgdClientTrainer { model }
    }

    /// The architecture this trainer drives.
    pub fn model(&self) -> &Arc<dyn Module> {
        &self.model
    }
}

impl std::fmt::Debug for SgdClientTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SgdClientTrainer")
    }
}

impl ClientTrainer for SgdClientTrainer {
    fn local_round(
        &mut self,
        mut params: Vec<Tensor>,
        data: &Dataset,
        phase: &Phase,
        rng: &mut Rng,
    ) -> LocalOutcome {
        // Batch sampling uses a dedicated stream so that trainers which
        // consume extra randomness (e.g. in-situ distillation) still draw
        // identical FL batches for the same seed.
        let mut batch_rng = rng.fork(0);
        let mut samples = 0usize;
        let opt = Sgd::new(phase.lr, phase.direction);
        for _ in 0..phase.local_steps {
            if data.is_empty() {
                break;
            }
            let (x, y) = data.sample_batch(phase.batch_size, &mut batch_rng);
            samples += y.len();
            let grads = loss_gradients(self.model.as_ref(), &params, &x, &y, data.classes());
            opt.step(&mut params, &grads);
        }
        LocalOutcome {
            params,
            samples_processed: samples,
        }
    }
}

/// Builds one [`SgdClientTrainer`] per client, boxed for
/// [`crate::Federation::run_phase`].
pub fn sgd_trainers(model: Arc<dyn Module>, n_clients: usize) -> Vec<Box<dyn ClientTrainer>> {
    (0..n_clients)
        .map(|_| Box::new(SgdClientTrainer::new(model.clone())) as Box<dyn ClientTrainer>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::{forward_inference, Mlp};

    fn loss_on(model: &dyn Module, params: &[Tensor], data: &Dataset) -> f32 {
        let (x, y) = data.all();
        let logits = forward_inference(model, params, &x);
        let ls = logits.log_softmax_rows();
        let n = y.len();
        -y.iter()
            .enumerate()
            .map(|(i, &c)| ls.data()[i * data.classes() + c])
            .sum::<f32>()
            / n as f32
    }

    #[test]
    fn descent_reduces_loss_ascent_raises_it() {
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(64, &mut rng);
        let before = loss_on(model.as_ref(), &params, &data);

        let mut trainer = SgdClientTrainer::new(model.clone());
        let down = trainer
            .local_round(
                params.clone(),
                &data,
                &Phase::training(1, 10, 32, 0.1),
                &mut rng,
            )
            .params;
        let after_down = loss_on(model.as_ref(), &down, &data);
        assert!(after_down < before, "descent: {after_down} !< {before}");

        let up = trainer
            .local_round(
                params.clone(),
                &data,
                &Phase::unlearning(1, 10, 32, 0.1),
                &mut rng,
            )
            .params;
        let after_up = loss_on(model.as_ref(), &up, &data);
        assert!(after_up > before, "ascent: {after_up} !> {before}");
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let mut rng = Rng::seed_from(2);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 8, 10]));
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(4, &mut rng).subset(&[]);
        let mut trainer = SgdClientTrainer::new(model);
        let out = trainer.local_round(
            params.clone(),
            &data,
            &Phase::training(1, 3, 8, 0.1),
            &mut rng,
        );
        assert_eq!(out.samples_processed, 0);
        for (a, b) in out.params.iter().zip(&params) {
            assert_eq!(a.data(), b.data());
        }
    }
}
