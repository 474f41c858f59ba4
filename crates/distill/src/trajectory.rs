//! Trajectory-matching distillation (Cazenavette et al., CVPR 2022 —
//! "Dataset Distillation by Matching Training Trajectories"), the third
//! condensation objective the paper's related work surveys.
//!
//! Where gradient matching aligns single-step gradients and distribution
//! matching aligns embeddings, trajectory matching asks more: *training on
//! the synthetic data for `n` steps, starting from a checkpoint `θ_t` of
//! an expert trajectory, should land near the expert's later checkpoint
//! `θ_{t+k}`*. The objective
//!
//! `L(S) = ‖ θ_n(S; θ_t) − θ_{t+k} ‖² / ‖ θ_t − θ_{t+k} ‖²`
//!
//! differentiates **through `n` unrolled SGD steps** — an n-step-deep
//! higher-order derivative, which this workspace's tape supports exactly
//! (every inner gradient is emitted as differentiable nodes).

use crate::SyntheticSet;
use qd_autograd::{Tape, Var};
use qd_nn::{cross_entropy, Module, Sgd};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

/// A recorded expert trajectory: model checkpoints taken every
/// `snapshot_every` SGD steps of training on real data.
#[derive(Debug, Clone)]
pub struct ExpertTrajectory {
    checkpoints: Vec<Vec<Tensor>>,
}

impl ExpertTrajectory {
    /// Trains `model` on `data` for `steps` SGD steps, recording a
    /// checkpoint every `snapshot_every` steps (including the
    /// initialization).
    ///
    /// # Panics
    ///
    /// Panics if `snapshot_every == 0`.
    pub fn record(
        model: &dyn Module,
        data: &qd_data::Dataset,
        steps: usize,
        snapshot_every: usize,
        batch: usize,
        lr: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(snapshot_every > 0, "snapshot interval must be positive");
        let mut params = model.init(rng);
        let mut checkpoints = vec![params.clone()];
        let opt = Sgd::descent(lr);
        for step in 1..=steps {
            let (x, y) = data.sample_batch(batch, rng);
            let grads = crate::reference_gradients(model, &params, &x, &y, data.classes());
            opt.step(&mut params, &grads);
            if step % snapshot_every == 0 {
                checkpoints.push(params.clone());
            }
        }
        ExpertTrajectory { checkpoints }
    }

    /// Number of recorded checkpoints.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Returns `true` if no checkpoints were recorded.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Checkpoint `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn checkpoint(&self, i: usize) -> &[Tensor] {
        &self.checkpoints[i]
    }
}

/// One trajectory-matching update of a whole [`SyntheticSet`]: starting
/// from expert checkpoint `start`, unrolls `inner_steps` SGD steps on the
/// synthetic data inside the tape, measures the normalized distance to
/// expert checkpoint `target`, and descends the synthetic pixels.
///
/// Returns the objective value before the update.
///
/// # Panics
///
/// Panics if the checkpoint indices are out of range or not increasing,
/// or the synthetic set is empty.
#[allow(clippy::too_many_arguments)]
pub fn trajectory_match_step(
    model: &dyn Module,
    expert: &ExpertTrajectory,
    start: usize,
    target: usize,
    syn: &mut SyntheticSet,
    classes: usize,
    inner_steps: usize,
    inner_lr: f32,
    syn_lr: f32,
) -> f32 {
    assert!(
        start < target && target < expert.len(),
        "bad checkpoint span"
    );
    assert!(!syn.is_empty(), "synthetic set is empty");
    let theta_start = expert.checkpoint(start);
    let theta_target = expert.checkpoint(target);

    let mut tape = Tape::new();
    // Synthetic samples are the differentiable leaves; one per class.
    let owned = syn.owned_classes();
    let mut leaves: Vec<(usize, Var)> = Vec::new();
    for &c in &owned {
        let samples = syn.class_samples(c).expect("owned class").clone();
        leaves.push((c, tape.leaf(samples)));
    }
    // Labels for the concatenated synthetic batch, class-major.
    let labels: Vec<usize> = owned
        .iter()
        .flat_map(|&c| {
            let m = syn.class_samples(c).unwrap().dims()[0];
            std::iter::repeat_n(c, m)
        })
        .collect();

    // θ lives on the tape as differentiable leaves so the inner
    // ∇θ L(S) exists; after the first unrolled step θ becomes a function
    // of the synthetic leaves, which is what the outer derivative needs.
    let mut theta: Vec<Var> = theta_start.iter().map(|t| tape.leaf(t.clone())).collect();

    for _ in 0..inner_steps {
        // Assemble the synthetic batch: per-class forward passes summed
        // into one loss (equivalent to a full-batch pass, and keeps each
        // class tensor a single leaf).
        let mut class_losses: Vec<Var> = Vec::new();
        for &(c, leaf) in &leaves {
            let m = syn.class_samples(c).unwrap().dims()[0];
            let logits = model.forward(&mut tape, &theta, leaf);
            let loss = cross_entropy(&mut tape, logits, &vec![c; m], classes);
            let weighted = tape.scale(loss, m as f32 / labels.len() as f32);
            class_losses.push(weighted);
        }
        let mut total = class_losses[0];
        for &l in &class_losses[1..] {
            total = tape.add(total, l);
        }
        // One differentiable SGD step: θ ← θ − lr ∇θ L (grads are tape
        // nodes, so θ stays a function of the synthetic leaves).
        let grads = tape.grad(total, &theta);
        theta = theta
            .iter()
            .zip(&grads)
            .map(|(&p, &g)| {
                let scaled = tape.scale(g, inner_lr);
                tape.sub(p, scaled)
            })
            .collect();
    }

    // Normalized endpoint distance to the expert's later checkpoint.
    let mut num: Option<Var> = None;
    let mut denom = 0.0f32;
    for ((p, t_target), t_start) in theta.iter().zip(theta_target).zip(theta_start) {
        let target_c = tape.constant(t_target.clone());
        let d = tape.sub(*p, target_c);
        let sq = tape.mul(d, d);
        let s = tape.sum_all(sq);
        num = Some(match num {
            Some(acc) => tape.add(acc, s),
            None => s,
        });
        let gap = t_start.sub(t_target);
        denom += gap.dot(&gap);
    }
    let num = num.expect("at least one parameter tensor");
    let objective = tape.scale(num, 1.0 / denom.max(1e-12));
    let value = tape.value(objective).item();

    // Descend the synthetic pixels through the unrolled trajectory.
    let leaf_vars: Vec<Var> = leaves.iter().map(|&(_, v)| v).collect();
    let grads = tape.into_grads(objective, &leaf_vars);
    for (&(c, _), g) in leaves.iter().zip(&grads) {
        let mut updated = syn.class_samples(c).unwrap().clone();
        updated.axpy(-syn_lr, g);
        syn.set_class_samples(c, updated);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;

    #[test]
    fn expert_trajectory_records_expected_checkpoints() {
        let mut rng = Rng::seed_from(0);
        let model = Mlp::new(&[256, 10]);
        let data = SyntheticDataset::Digits.generate(64, &mut rng);
        let expert = ExpertTrajectory::record(&model, &data, 10, 5, 16, 0.05, &mut rng);
        assert_eq!(expert.len(), 3); // init + steps 5 and 10
                                     // Checkpoints actually move.
        let d: f32 = expert.checkpoint(0)[0].max_abs_diff(&expert.checkpoint(2)[0]);
        assert!(d > 0.0);
    }

    #[test]
    fn trajectory_matching_reduces_endpoint_distance() {
        let mut rng = Rng::seed_from(1);
        let model = Mlp::new(&[256, 10]);
        let data = SyntheticDataset::Digits.generate(150, &mut rng);
        let expert = ExpertTrajectory::record(&model, &data, 12, 4, 32, 0.1, &mut rng);
        let mut syn = SyntheticSet::init_gaussian(&data, 30, &mut rng);
        let first = trajectory_match_step(&model, &expert, 0, 1, &mut syn, 10, 3, 0.1, 0.0001);
        let mut last = first;
        for _ in 0..25 {
            last = trajectory_match_step(&model, &expert, 0, 1, &mut syn, 10, 3, 0.1, 2.0);
        }
        assert!(
            last < first * 0.9,
            "trajectory objective should drop: {first} -> {last}"
        );
    }

    #[test]
    #[should_panic(expected = "bad checkpoint span")]
    fn rejects_reversed_span() {
        let mut rng = Rng::seed_from(2);
        let model = Mlp::new(&[256, 10]);
        let data = SyntheticDataset::Digits.generate(32, &mut rng);
        let expert = ExpertTrajectory::record(&model, &data, 4, 2, 8, 0.05, &mut rng);
        let mut syn = SyntheticSet::init_from_real(&data, 8, &mut rng);
        let _ = trajectory_match_step(&model, &expert, 1, 1, &mut syn, 10, 1, 0.1, 0.1);
    }
}
