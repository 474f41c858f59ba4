//! The gradient-matching objective and the class-wise synthetic update.

use qd_autograd::{Tape, Var};
use qd_nn::{cross_entropy, loss_gradients, Module};
use qd_tensor::Tensor;

/// Numerical floor for the cosine denominator.
const EPS: f32 = 1e-6;

/// Cross-entropy gradients of `model` at `params` on one labelled batch,
/// returned as plain tensors (the *detached* reference branch of Eq. 5):
/// [`qd_nn::loss_gradients`] under the name the distillation surface
/// pins.
pub fn reference_gradients(
    model: &dyn Module,
    params: &[Tensor],
    x: &Tensor,
    labels: &[usize],
    classes: usize,
) -> Vec<Tensor> {
    loss_gradients(model, params, x, labels, classes)
}

/// Builds the layerwise gradient-matching distance of Zhao et al. (2021)
/// on the tape:
///
/// `d(A, B) = Σ_layers Σ_rows (1 − ⟨a_r, b_r⟩ / max(‖a_r‖‖b_r‖, ε))`
///
/// where rows are per-output groups (first axis for matrices, the whole
/// tensor for vectors). `grads_s` must be differentiable tape variables
/// (the synthetic branch); `grads_d` are fixed reference tensors. Empty
/// gradient lists yield a zero distance (the empty sum).
///
/// # Panics
///
/// Panics if the slices differ in length or any pair differs in element
/// count.
pub fn matching_distance(tape: &mut Tape, grads_s: &[Var], grads_d: &[Tensor]) -> Var {
    assert_eq!(
        grads_s.len(),
        grads_d.len(),
        "gradient list length mismatch"
    );
    let mut total: Option<Var> = None;
    for (&gs, gd) in grads_s.iter().zip(grads_d) {
        let dims = tape.value(gs).dims().to_vec();
        assert_eq!(
            tape.value(gs).len(),
            gd.len(),
            "gradient element-count mismatch"
        );
        // Per-output-row grouping: matrices match row-wise, vectors as one
        // group.
        let (rows, cols) = match dims.split_first() {
            Some((&r, rest)) if !rest.is_empty() => (r, rest.iter().product::<usize>()),
            _ => (1, gd.len()),
        };
        let a = tape.reshape(gs, &[rows, cols]);
        let b = tape.constant(gd.reshape(&[rows, cols]));
        let ab = tape.mul(a, b);
        let num = tape.sum_cols(ab); // (rows,)
        let aa = tape.mul(a, a);
        let na2 = tape.sum_cols(aa);
        let bb = tape.mul(b, b);
        let nb2 = tape.sum_cols(bb);
        let prod = tape.mul(na2, nb2);
        let prod_eps = tape.add_scalar(prod, EPS);
        let denom = tape.sqrt(prod_eps);
        let cosine = tape.div(num, denom);
        let neg = tape.neg(cosine);
        let one_minus = tape.add_scalar(neg, 1.0);
        let layer = tape.sum_all(one_minus);
        total = Some(match total {
            Some(t) => tape.add(t, layer),
            None => layer,
        });
    }
    // Empty gradient lists reduce to the empty sum: a zero distance.
    total.unwrap_or_else(|| tape.constant(Tensor::zeros(&[1])))
}

/// Records the matching objective at `syn` on a fresh tape: the synthetic
/// samples as a leaf, the model gradients they induce (as differentiable
/// nodes: this gradient is differentiated again, hence [`Tape::grad`])
/// and their distance to `ref_grads`. Returns the tape, the synthetic
/// leaf and the distance node.
fn matching_objective(
    model: &dyn Module,
    params: &[Tensor],
    ref_grads: &[Tensor],
    syn: &Tensor,
    class: usize,
    classes: usize,
) -> (Tape, Var, Var) {
    let mut tape = Tape::new();
    let p: Vec<Var> = params.iter().map(|t| tape.leaf(t.clone())).collect();
    let sv = tape.leaf(syn.clone());
    let labels = vec![class; crate::synset::rows(syn)];
    let logits = model.forward(&mut tape, &p, sv);
    let loss = cross_entropy(&mut tape, logits, &labels, classes);
    let grads_s = tape.grad(loss, &p);
    let dist = matching_distance(&mut tape, &grads_s, ref_grads);
    (tape, sv, dist)
}

/// One class-wise synthetic update (Eq. 6): runs `steps` SGD steps on the
/// synthetic samples of one class, minimizing the matching distance
/// between the model gradients they induce and `ref_grads` (the gradients
/// of the same class's *real* samples at the same parameters).
///
/// Returns the updated synthetic tensor and the distance *before* the
/// first step (useful for monitoring convergence). With `steps == 0` the
/// distance is evaluated once and `syn` is returned unchanged.
///
/// # Panics
///
/// Panics if `lr` is not finite and positive.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Algorithm 2 signature
pub fn match_class_step(
    model: &dyn Module,
    params: &[Tensor],
    ref_grads: &[Tensor],
    syn: Tensor,
    class: usize,
    classes: usize,
    lr: f32,
    steps: usize,
) -> (Tensor, f32) {
    assert!(lr.is_finite() && lr > 0.0, "matching lr must be positive");
    if steps == 0 {
        let (tape, _, dist) = matching_objective(model, params, ref_grads, &syn, class, classes);
        return (syn, tape.value(dist).item());
    }
    let mut syn = syn;
    let mut first_distance = f32::NAN;
    for step in 0..steps {
        let (tape, sv, dist) = matching_objective(model, params, ref_grads, &syn, class, classes);
        if step == 0 {
            first_distance = tape.value(dist).item();
        }
        // The outer derivative is only read: the terminal sweep.
        for g in tape.into_grads(dist, &[sv]) {
            syn.axpy(-lr, &g);
        }
    }
    (syn, first_distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;
    use qd_tensor::rng::Rng;

    #[test]
    fn distance_of_identical_gradients_is_zero() {
        let mut rng = Rng::seed_from(0);
        let g = Tensor::randn(&[4, 6], &mut rng);
        let mut tape = Tape::new();
        let gs = tape.leaf(g.clone());
        let d = matching_distance(&mut tape, &[gs], &[g]);
        assert!(tape.value(d).item().abs() < 1e-4);
    }

    #[test]
    fn distance_of_opposite_gradients_is_two_per_row() {
        let mut rng = Rng::seed_from(1);
        let g = Tensor::randn(&[3, 5], &mut rng);
        let mut tape = Tape::new();
        let gs = tape.leaf(g.scale(-1.0));
        let d = matching_distance(&mut tape, &[gs], &[g]);
        assert!((tape.value(d).item() - 6.0).abs() < 1e-3); // 2 per row x 3 rows
    }

    #[test]
    fn distance_is_scale_invariant_per_row() {
        let mut rng = Rng::seed_from(2);
        let g = Tensor::randn(&[2, 8], &mut rng);
        let mut tape = Tape::new();
        let gs = tape.leaf(g.scale(3.7));
        let d = matching_distance(&mut tape, &[gs], &[g]);
        assert!(tape.value(d).item().abs() < 1e-4);
    }

    #[test]
    fn vector_gradients_match_as_single_group() {
        let mut rng = Rng::seed_from(3);
        let g = Tensor::randn(&[7], &mut rng);
        let mut tape = Tape::new();
        let gs = tape.leaf(g.clone());
        let d = matching_distance(&mut tape, &[gs], &[g]);
        assert!(tape.value(d).item().abs() < 1e-4);
    }

    #[test]
    fn match_step_reduces_distance() {
        // Synthetic samples initialized from noise should move toward
        // matching the real class gradients.
        let mut rng = Rng::seed_from(4);
        let model = Mlp::new(&[256, 10]);
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(120, &mut rng);
        let class = 3;
        let (real_x, real_y) = data.only_class(class).all();
        let refs = reference_gradients(&model, &params, &real_x, &real_y, 10);
        let syn0 = Tensor::randn(&[2, 1, 16, 16], &mut rng);

        let (_, d0) = match_class_step(&model, &params, &refs, syn0.clone(), class, 10, 1.0, 1);
        let mut syn = syn0;
        for _ in 0..100 {
            let (s, _) = match_class_step(&model, &params, &refs, syn, class, 10, 1.0, 1);
            syn = s;
        }
        let (_, d_after) = match_class_step(&model, &params, &refs, syn, class, 10, 1.0, 1);
        assert!(
            d_after < d0 * 0.3,
            "matching distance should drop: {d0} -> {d_after}"
        );
    }

    #[test]
    fn zero_steps_evaluates_the_distance_and_leaves_syn_untouched() {
        let mut rng = Rng::seed_from(8);
        let model = Mlp::new(&[256, 10]);
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(60, &mut rng);
        let class = 2;
        let (real_x, real_y) = data.only_class(class).all();
        let refs = reference_gradients(&model, &params, &real_x, &real_y, 10);
        let syn0 = Tensor::randn(&[2, 1, 16, 16], &mut rng);

        let (same, d) = match_class_step(&model, &params, &refs, syn0.clone(), class, 10, 1.0, 0);
        let (moved, d1) = match_class_step(&model, &params, &refs, syn0.clone(), class, 10, 1.0, 1);
        assert_eq!(same, syn0);
        assert_eq!(
            d.to_bits(),
            d1.to_bits(),
            "both report the starting distance"
        );
        assert!(d.is_finite() && d > 0.0);
        assert_ne!(moved, syn0);
    }

    #[test]
    fn reference_gradients_shapes_match_params() {
        let mut rng = Rng::seed_from(5);
        let model = Mlp::new(&[256, 8, 10]);
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(16, &mut rng);
        let (x, y) = data.all();
        let refs = reference_gradients(&model, &params, &x, &y, 10);
        assert_eq!(refs.len(), params.len());
        for (r, p) in refs.iter().zip(&params) {
            assert_eq!(r.dims(), p.dims());
        }
    }
}
