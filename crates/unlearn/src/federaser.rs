//! FedEraser: unlearning by calibrated replay of stored round updates
//! (Liu et al., IWQoS 2021).

use crate::{
    retain_override, Capabilities, Efficiency, MethodOutcome, UnlearnRequest, UnlearningMethod,
};
use qd_data::Dataset;
use qd_fed::ClientTrainer as _;
use qd_fed::{Federation, Phase, PhaseStats, RoundRecord, SgdClientTrainer};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::time::Instant;

/// FedEraser trades *storage* (per-round client updates recorded during
/// the original training; see [`Federation::set_record_history`]) for
/// unlearning time: it replays the training trajectory, at each retained
/// round asking the remaining clients for a **short** local update whose
/// *direction* calibrates the stored update's *magnitude*:
///
/// `Ũ_j = ‖U_j^stored‖ · U_j^new / ‖U_j^new‖`  (per parameter tensor)
///
/// Contributions of the forgotten data are simply excluded from the
/// replay. A short standard recovery phase follows, as in the paper's
/// Table 2.
///
/// # Examples
///
/// ```
/// use qd_fed::Phase;
/// use qd_unlearn::FedEraser;
///
/// let m = FedEraser::new(2, 8, 0.01, Phase::training(1, 4, 32, 0.01));
/// assert_eq!(m.calibration_steps(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FedEraser {
    calibration_steps: usize,
    batch_size: usize,
    lr: f32,
    recover_phase: Phase,
}

impl FedEraser {
    /// Creates a FedEraser with `calibration_steps` local steps per
    /// retained round (far fewer than the original `T` — this is where the
    /// speedup over retraining comes from) and a final recovery phase.
    pub fn new(calibration_steps: usize, batch_size: usize, lr: f32, recover_phase: Phase) -> Self {
        FedEraser {
            calibration_steps,
            batch_size,
            lr,
            recover_phase,
        }
    }

    /// Local steps used to estimate each calibration direction.
    pub fn calibration_steps(&self) -> usize {
        self.calibration_steps
    }

    fn calibrate_round(
        &self,
        fed: &Federation,
        record: &RoundRecord,
        retain: &[Option<Dataset>],
        current: &[Tensor],
        rng: &mut Rng,
    ) -> (Vec<Tensor>, usize) {
        // Ask each retained participant of the recorded round for a short
        // update from the *current* calibrated model.
        let mut aggregated: Vec<Tensor> = current.iter().map(|t| Tensor::zeros(t.dims())).collect();
        let mut samples = 0usize;
        let mut total_weight = 0.0f32;
        let phase = Phase::training(1, self.calibration_steps, self.batch_size, self.lr);
        for (slot, &client) in record.participants.iter().enumerate() {
            let Some(data) = retain[client].as_ref() else {
                continue; // this client's contribution is being forgotten
            };
            let mut trainer = SgdClientTrainer::new(fed.model().clone());
            let mut crng = rng.fork(client as u64);
            let outcome = trainer.local_round(current.to_vec(), data, &phase, &mut crng);
            samples += outcome.samples_processed;
            let weight = data.len() as f32;
            total_weight += weight;
            for (j, (new_p, cur_p)) in outcome.params.iter().zip(current).enumerate() {
                let new_update = new_p.sub(cur_p);
                let stored_norm = record.updates[slot][j].norm();
                let new_norm = new_update.norm();
                let calibrated = if new_norm > 1e-12 {
                    new_update.scale(stored_norm / new_norm)
                } else {
                    new_update
                };
                aggregated[j].axpy(weight, &calibrated);
            }
        }
        if total_weight > 0.0 {
            for t in &mut aggregated {
                *t = t.scale(1.0 / total_weight);
            }
        }
        (aggregated, samples)
    }
}

impl UnlearningMethod for FedEraser {
    fn name(&self) -> &'static str {
        "FedEraser"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            class_level: true,
            client_level: true,
            relearn: true,
            storage_efficient: false, // linear-in-rounds update storage
            computation: Efficiency::Low,
        }
    }

    fn unlearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
    ) -> MethodOutcome {
        assert!(
            !fed.history().is_empty(),
            "FedEraser requires recorded update history; call \
             Federation::set_record_history(true) before training"
        );
        let retain = retain_override(fed, request);
        // Feeds MethodOutcome's compute time, never control flow.
        #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
        let start = Instant::now();
        let history: Vec<RoundRecord> = fed.history().to_vec();
        // qd-lint: allow(panic-safety) -- non-empty history is asserted at
        // entry; history[0] cannot be out of bounds
        let mut params = history[0].global_before.clone();
        let mut samples = 0usize;
        for record in &history {
            let (delta, s) = self.calibrate_round(fed, record, &retain, &params, rng);
            samples += s;
            for (p, d) in params.iter_mut().zip(&delta) {
                p.axpy(1.0, d);
            }
        }
        fed.set_global(params);
        let data_size: usize = retain.iter().flatten().map(Dataset::len).sum();
        let model_scalars: usize = fed.global().iter().map(qd_tensor::Tensor::len).sum();
        let retained_exchanges: usize = history
            .iter()
            .map(|r| {
                r.participants
                    .iter()
                    .filter(|&&i| retain[i].is_some())
                    .count()
            })
            .sum();
        let unlearn = PhaseStats {
            rounds: history.len(),
            samples_processed: samples,
            data_size,
            wall: start.elapsed(),
            download_scalars: retained_exchanges * model_scalars,
            upload_scalars: retained_exchanges * model_scalars,
            ..PhaseStats::default()
        };
        let post_unlearn_params = fed.global().to_vec();

        let mut trainers = qd_fed::sgd_trainers(fed.model().clone(), fed.n_clients());
        let recovery = fed.run_phase(&mut trainers, Some(&retain), &self.recover_phase, rng);
        MethodOutcome {
            unlearn,
            recovery,
            post_unlearn_params,
            guard: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::{partition_iid, SyntheticDataset};
    use qd_eval::split_accuracy;
    use qd_fed::sgd_trainers;
    use qd_nn::{Mlp, Module};
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "recorded update history")]
    fn requires_history() {
        let mut rng = Rng::seed_from(0);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let data = SyntheticDataset::Digits.generate(40, &mut rng);
        let mut fed = Federation::new(model, vec![data], &mut rng);
        let mut m = FedEraser::new(2, 8, 0.05, Phase::training(1, 2, 8, 0.05));
        let _ = m.unlearn(&mut fed, UnlearnRequest::Class(0), &mut rng);
    }

    #[test]
    fn history_storage_grows_linearly_with_rounds() {
        let mut rng = Rng::seed_from(5);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let data = SyntheticDataset::Digits.generate(60, &mut rng);
        let parts = partition_iid(data.len(), 3, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_record_history(true);
        let mut trainers = sgd_trainers(model, 3);
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(2, 1, 8, 0.05),
            &mut rng,
        );
        let after_two = fed.history_storage_scalars();
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(2, 1, 8, 0.05),
            &mut rng,
        );
        let after_four = fed.history_storage_scalars();
        assert_eq!(
            after_four,
            2 * after_two,
            "storage should scale with rounds"
        );
        // Per round: global model + 3 client updates = 4 model-sizes.
        let model_scalars = 256 * 10 + 10;
        assert_eq!(after_two, 2 * 4 * model_scalars);
    }

    #[test]
    fn federaser_unlearns_with_fewer_samples_than_retraining() {
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let data = SyntheticDataset::Digits.generate(400, &mut rng);
        let test = SyntheticDataset::Digits.generate(200, &mut rng);
        let parts = partition_iid(data.len(), 4, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_record_history(true);
        let train_phase = Phase::training(6, 8, 32, 0.1);
        let mut trainers = sgd_trainers(model.clone(), 4);
        let train_stats = fed.run_phase(&mut trainers, None, &train_phase, &mut rng);
        fed.set_record_history(false);

        let mut m = FedEraser::new(2, 32, 0.1, Phase::training(2, 8, 32, 0.05));
        let outcome = m.unlearn(&mut fed, UnlearnRequest::Class(7), &mut rng);
        // Calibration is much cheaper than the original training.
        assert!(outcome.unlearn.samples_processed < train_stats.samples_processed / 2);

        let (f, r) = crate::fr_eval_sets(&fed, UnlearnRequest::Class(7), &test);
        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa < 0.25, "forget accuracy {fa}");
        assert!(ra > 0.5, "retain accuracy {ra}");
    }
}
