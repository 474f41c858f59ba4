//! S2U: unlearning a client by scaling its updates down and the remaining
//! clients' updates up (Gao et al., VeriFi 2022).

use crate::{Capabilities, Efficiency, MethodOutcome, UnlearnRequest, UnlearningMethod};
use qd_fed::ClientTrainer as _;
use qd_fed::{Federation, Phase, PhaseStats, SgdClientTrainer};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::time::Instant;

/// S2U ("scale-to-unlearn") continues federated training for a few rounds
/// while **down-scaling** the forgetting client's aggregation weight and
/// **up-scaling** the remaining clients', so the target's influence decays
/// out of the model. Unlearning and recovery are integrated in the single
/// continued-training stage, like retraining.
///
/// By construction the method only addresses *client-level* requests
/// (Table 1).
///
/// # Examples
///
/// ```
/// use qd_fed::Phase;
/// use qd_unlearn::{S2U, UnlearningMethod};
///
/// let m = S2U::new(Phase::training(4, 10, 64, 0.01), 0.05);
/// assert!(m.capabilities().client_level);
/// assert!(!m.capabilities().class_level);
/// ```
#[derive(Debug, Clone)]
pub struct S2U {
    phase: Phase,
    down_scale: f32,
}

impl S2U {
    /// Creates S2U with the continued-training schedule and the factor by
    /// which the target client's FedAvg weight is multiplied (the
    /// remaining weights are renormalized upward so weights still sum
    /// to one).
    ///
    /// # Panics
    ///
    /// Panics if `down_scale` is not in `[0, 1)`.
    pub fn new(phase: Phase, down_scale: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&down_scale),
            "down scale must be in [0, 1)"
        );
        S2U { phase, down_scale }
    }
}

impl UnlearningMethod for S2U {
    fn name(&self) -> &'static str {
        "S2U"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            class_level: false,
            client_level: true,
            relearn: true,
            storage_efficient: true,
            computation: Efficiency::Low,
        }
    }

    fn unlearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
    ) -> MethodOutcome {
        let UnlearnRequest::Client(target) = request else {
            // qd-lint: allow(panic-safety) -- unsupported request kind is a
            // documented caller bug (`# Panics`)
            panic!("S2U only supports client-level unlearning");
        };
        assert!(target < fed.n_clients(), "target client out of range");
        // Feeds MethodOutcome's compute time, never control flow.
        #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
        let start = Instant::now();
        let sizes: Vec<usize> = fed.clients().iter().map(qd_data::Dataset::len).collect();
        let total: usize = sizes.iter().sum();
        // Scaled FedAvg weights: target down, others renormalized up.
        let base: Vec<f32> = sizes.iter().map(|&s| s as f32 / total as f32).collect();
        let target_w = base[target] * self.down_scale;
        let others: f32 = 1.0 - base[target];
        let up = if others > 0.0 {
            (1.0 - target_w) / others
        } else {
            0.0
        };
        let weights: Vec<f32> = base
            .iter()
            .enumerate()
            .map(|(i, &w)| if i == target { target_w } else { w * up })
            .collect();

        let mut samples = 0usize;
        for _ in 0..self.phase.rounds {
            let global = fed.global().to_vec();
            let mut new_global: Vec<Tensor> =
                global.iter().map(|t| Tensor::zeros(t.dims())).collect();
            for (i, &weight) in weights.iter().enumerate() {
                if fed.client_data(i).is_empty() {
                    continue;
                }
                let mut trainer = SgdClientTrainer::new(fed.model().clone());
                let mut crng = rng.fork(i as u64);
                let outcome =
                    trainer.local_round(global.clone(), fed.client_data(i), &self.phase, &mut crng);
                samples += outcome.samples_processed;
                for (g, p) in new_global.iter_mut().zip(&outcome.params) {
                    g.axpy(weight, p);
                }
            }
            fed.set_global(new_global);
        }
        let model_scalars: usize = fed.global().iter().map(Tensor::len).sum();
        let exchanged = self.phase.rounds * fed.n_clients() * model_scalars;
        let unlearn = PhaseStats {
            rounds: self.phase.rounds,
            samples_processed: samples,
            data_size: total,
            wall: start.elapsed(),
            download_scalars: exchanged,
            upload_scalars: exchanged,
            ..PhaseStats::default()
        };
        MethodOutcome {
            unlearn,
            recovery: PhaseStats::default(),
            post_unlearn_params: fed.global().to_vec(),
            guard: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_eval::split_accuracy;
    use qd_fed::sgd_trainers;
    use qd_nn::{Mlp, Module};
    use std::sync::Arc;

    #[test]
    fn s2u_reduces_target_client_influence() {
        // Client 0 exclusively owns classes 0-4; the others own 5-9.
        // After S2U, accuracy on client 0's data should drop toward the
        // level of a model that never saw it, while other data stays
        // accurate.
        let mut rng = Rng::seed_from(0);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let all = SyntheticDataset::Digits.generate(500, &mut rng);
        let zero_to_four: Vec<usize> = (0..all.len()).filter(|&i| all.label(i) < 5).collect();
        let five_to_nine: Vec<usize> = (0..all.len()).filter(|&i| all.label(i) >= 5).collect();
        let target_data = all.subset(&zero_to_four);
        let rest = all.subset(&five_to_nine);
        let (r1, r2) = rest.split(0.5, &mut rng);
        let clients = vec![target_data, r1, r2];
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let mut trainers = sgd_trainers(model.clone(), 3);
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(6, 8, 32, 0.1),
            &mut rng,
        );

        let (f, r) = crate::fr_eval_sets(&fed, UnlearnRequest::Client(0), &all);
        let (fa0, ra0) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa0 > 0.5, "target client data learned ({fa0})");

        let mut m = S2U::new(Phase::training(4, 8, 32, 0.1), 0.0);
        m.unlearn(&mut fed, UnlearnRequest::Client(0), &mut rng);
        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(
            fa < fa0 * 0.5,
            "target influence should shrink: {fa0} -> {fa}"
        );
        assert!(ra >= ra0 - 0.1, "others keep accuracy: {ra0} -> {ra}");
    }

    #[test]
    #[should_panic(expected = "client-level")]
    fn s2u_rejects_class_requests() {
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let data = SyntheticDataset::Digits.generate(20, &mut rng);
        let mut fed = Federation::new(model, vec![data], &mut rng);
        let mut m = S2U::new(Phase::training(1, 1, 8, 0.1), 0.1);
        let _ = m.unlearn(&mut fed, UnlearnRequest::Class(0), &mut rng);
    }
}
