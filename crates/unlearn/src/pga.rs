//! PGA: projected gradient ascent unlearning (Halimi et al., 2022).
//!
//! The paper's related-work section cites this as the other SGA-family
//! approach: the *forgetting client itself* maximizes its local loss, but
//! the ascent is **projected** onto an ℓ₂-ball around the reference model
//! so the parameters cannot run off to a degenerate region (the failure
//! mode plain SGA mitigates with recovery rounds). A standard recovery
//! phase on the retain data follows.

use crate::{
    forget_override, retain_override, Capabilities, Efficiency, MethodOutcome, UnlearnRequest,
    UnlearningMethod,
};
use qd_fed::{sgd_trainers, Federation, Phase, PhaseStats};
use qd_nn::Sgd;
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::time::Instant;

/// Projected-gradient-ascent unlearning of a client (or class): local
/// ascent steps on the forget data, each followed by projection onto the
/// ball `‖θ − θ_ref‖₂ ≤ radius · ‖θ_ref‖₂` around the trained model.
///
/// # Examples
///
/// ```
/// use qd_fed::Phase;
/// use qd_unlearn::{PgaHalimi, UnlearningMethod};
///
/// let m = PgaHalimi::new(10, 32, 0.05, 0.2, Phase::training(2, 8, 32, 0.05));
/// assert!(m.capabilities().client_level);
/// assert!(m.capabilities().class_level);
/// ```
#[derive(Debug, Clone)]
pub struct PgaHalimi {
    ascent_steps: usize,
    batch_size: usize,
    lr: f32,
    radius: f32,
    recover_phase: Phase,
}

impl PgaHalimi {
    /// Creates the baseline.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite.
    pub fn new(
        ascent_steps: usize,
        batch_size: usize,
        lr: f32,
        radius: f32,
        recover_phase: Phase,
    ) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "projection radius must be positive"
        );
        PgaHalimi {
            ascent_steps,
            batch_size,
            lr,
            radius,
            recover_phase,
        }
    }

    /// The relative projection radius.
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// Projects `params` onto the ball of relative radius
    /// `self.radius` centred at `reference` (global ℓ₂ over all tensors).
    fn project(&self, params: &mut [Tensor], reference: &[Tensor]) {
        let mut dist_sq = 0.0f32;
        let mut ref_sq = 0.0f32;
        for (p, r) in params.iter().zip(reference) {
            let d = p.sub(r);
            dist_sq += d.dot(&d);
            ref_sq += r.dot(r);
        }
        let limit = self.radius * ref_sq.sqrt();
        let dist = dist_sq.sqrt();
        if dist > limit && dist > 0.0 {
            let shrink = limit / dist;
            for (p, r) in params.iter_mut().zip(reference) {
                let d = p.sub(r);
                *p = r.clone();
                p.axpy(shrink, &d);
            }
        }
    }
}

impl UnlearningMethod for PgaHalimi {
    fn name(&self) -> &'static str {
        "PGA"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            class_level: true,
            client_level: true,
            relearn: true,
            storage_efficient: true,
            computation: Efficiency::Medium,
        }
    }

    fn unlearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
    ) -> MethodOutcome {
        // Feeds MethodOutcome's compute time, never control flow.
        #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
        let start = Instant::now();
        let reference = fed.global().to_vec();
        let forget = forget_override(fed, request);
        let mut params = reference.clone();
        let opt = Sgd::ascent(self.lr);
        let mut samples = 0usize;
        let mut data_size = 0usize;
        // Each holder of forget data runs local projected ascent from the
        // current model; holders are processed sequentially and their
        // results averaged with data-size weights (one "round").
        let holders: Vec<usize> = (0..fed.n_clients())
            .filter(|&i| forget[i].as_ref().is_some_and(|d| !d.is_empty()))
            .collect();
        if !holders.is_empty() {
            data_size = holders
                .iter()
                // qd-lint: allow(panic-safety) -- holders are filtered to
                // clients whose forget split is Some and non-empty
                .map(|&i| forget[i].as_ref().unwrap().len())
                .sum();
            let mut survivors: Vec<(usize, Vec<Tensor>)> = Vec::with_capacity(holders.len());
            for &i in &holders {
                // qd-lint: allow(panic-safety) -- holders are filtered to
                // clients whose forget split is Some and non-empty
                let data = forget[i].as_ref().unwrap();
                let mut local = reference.clone();
                let mut crng = rng.fork(i as u64);
                for _ in 0..self.ascent_steps {
                    let (x, y) = data.sample_batch(self.batch_size, &mut crng);
                    samples += y.len();
                    let grads =
                        qd_nn::loss_gradients(fed.model().as_ref(), &local, &x, &y, data.classes());
                    opt.step(&mut local, &grads);
                    self.project(&mut local, &reference);
                }
                // Ascent results bypass round ingestion (this method
                // installs the aggregate via `set_global`), so screen
                // each holder's delta through the same update guard a
                // round upload would face: one NaN-emitting holder must
                // not poison the aggregate.
                if fed.screen_update(i, &reference, &local).is_err() {
                    continue;
                }
                survivors.push((data.len(), local));
            }
            if !survivors.is_empty() {
                let total: usize = survivors.iter().map(|(n, _)| n).sum();
                let mut aggregated: Vec<Tensor> =
                    reference.iter().map(|t| Tensor::zeros(t.dims())).collect();
                for (n, local) in &survivors {
                    let weight = *n as f32 / total as f32;
                    for (a, p) in aggregated.iter_mut().zip(local) {
                        a.axpy(weight, p);
                    }
                }
                params = aggregated;
            }
        }
        fed.set_global(params);
        let model_scalars: usize = reference.iter().map(Tensor::len).sum();
        let unlearn = PhaseStats {
            rounds: 1,
            samples_processed: samples,
            data_size,
            wall: start.elapsed(),
            download_scalars: holders.len() * model_scalars,
            upload_scalars: holders.len() * model_scalars,
            ..PhaseStats::default()
        };
        let post_unlearn_params = fed.global().to_vec();

        let retain = retain_override(fed, request);
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
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
    use qd_data::{partition_iid, Dataset, SyntheticDataset};
    use qd_eval::split_accuracy;
    use qd_nn::{Mlp, Module};
    use std::sync::Arc;

    #[test]
    fn projection_keeps_parameters_near_reference() {
        let m = PgaHalimi::new(1, 8, 0.1, 0.1, Phase::training(1, 1, 8, 0.1));
        let reference = vec![Tensor::from_vec(vec![3.0, 4.0], &[2])]; // norm 5
        let mut params = vec![Tensor::from_vec(vec![13.0, 4.0], &[2])]; // dist 10
        m.project(&mut params, &reference);
        let d = params[0].sub(&reference[0]);
        assert!(
            (d.norm() - 0.5).abs() < 1e-4,
            "projected distance {}",
            d.norm()
        );
        // Inside the ball: untouched.
        let mut near = vec![Tensor::from_vec(vec![3.1, 4.0], &[2])];
        m.project(&mut near, &reference);
        assert!((near[0].data()[0] - 3.1).abs() < 1e-6);
    }

    #[test]
    fn pga_forgets_class_and_recovers() {
        let mut rng = Rng::seed_from(3);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let data = SyntheticDataset::Digits.generate(400, &mut rng);
        let test = SyntheticDataset::Digits.generate(200, &mut rng);
        let parts = partition_iid(data.len(), 4, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let mut trainers = sgd_trainers(model.clone(), 4);
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(8, 10, 32, 0.1),
            &mut rng,
        );

        let request = UnlearnRequest::Class(3);
        let (f, r) = crate::fr_eval_sets(&fed, request, &test);
        let (f0, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(f0 > 0.4, "class known before ({f0})");

        let mut m = PgaHalimi::new(15, 32, 0.1, 0.5, Phase::training(2, 8, 32, 0.1));
        m.unlearn(&mut fed, request, &mut rng);
        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa < 0.25, "forget accuracy {fa}");
        assert!(ra > 0.5, "retain accuracy {ra}");
    }

    #[test]
    fn nan_emitting_unlearn_client_is_screened_not_aggregated() {
        let mut rng = Rng::seed_from(5);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let clean = SyntheticDataset::Digits.generate(200, &mut rng);
        // Client 1's forget data carries NaN features: its local ascent
        // produces non-finite parameters — the unlearn-phase analogue of
        // a NanEmitter fault, which round ingestion would catch but the
        // direct `set_global` path historically did not.
        let poisoned = {
            let (c, h, w) = clean.sample_dims();
            let n = 40usize;
            let labels: Vec<usize> = (0..n).map(|i| i % clean.classes()).collect();
            Dataset::new(
                vec![f32::NAN; n * c * h * w],
                labels,
                clean.classes(),
                c,
                h,
                w,
            )
        };
        let clients = vec![clean, poisoned];
        let mut fed = Federation::new(model, clients, &mut rng);

        let mut m = PgaHalimi::new(5, 32, 0.1, 0.5, Phase::training(1, 4, 32, 0.1));
        // Class-level request: both clients hold forget data, and only
        // the poisoned holder's ascent result must be dropped.
        let outcome = m.unlearn(&mut fed, UnlearnRequest::Class(3), &mut rng);
        assert!(
            !qd_nn::params_have_non_finite(&outcome.post_unlearn_params),
            "NaN holder reached the aggregate"
        );
        assert!(
            !qd_nn::params_have_non_finite(fed.global()),
            "recovered model must be finite"
        );
        // The screen charged the violation to the poisoned client only.
        assert!(fed.guard().state().violations[1] >= 1);
        assert_eq!(fed.guard().state().violations[0], 0);
    }

    #[test]
    fn ascent_stays_within_the_ball_before_recovery() {
        let mut rng = Rng::seed_from(4);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let data = SyntheticDataset::Digits.generate(100, &mut rng);
        let mut fed = Federation::new(model.clone(), vec![data], &mut rng);
        let reference = fed.global().to_vec();
        let radius = 0.05;
        let mut m = PgaHalimi::new(20, 16, 0.5, radius, Phase::training(0, 1, 8, 0.1));
        let outcome = m.unlearn(&mut fed, UnlearnRequest::Client(0), &mut rng);
        let mut dist_sq = 0.0f32;
        let mut ref_sq = 0.0f32;
        for (p, r) in outcome.post_unlearn_params.iter().zip(&reference) {
            let d = p.sub(r);
            dist_sq += d.dot(&d);
            ref_sq += r.dot(r);
        }
        assert!(
            dist_sq.sqrt() <= radius * ref_sq.sqrt() * 1.001,
            "ascent escaped the projection ball"
        );
    }
}
