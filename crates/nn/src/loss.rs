//! Losses: cross-entropy over logits, one-hot helper.

use crate::Module;
use qd_autograd::{Tape, Var};
use qd_tensor::Tensor;

/// One-hot encodes integer labels into an `(n, classes)` tensor.
///
/// # Panics
///
/// Panics if any label is `>= classes`.
pub fn one_hot(labels: &[usize], classes: usize) -> Tensor {
    let mut t = Tensor::zeros(&[labels.len(), classes]);
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < classes, "label {y} out of range for {classes} classes");
        t.data_mut()[i * classes + y] = 1.0;
    }
    t
}

/// Mean cross-entropy of `(n, classes)` logits against integer labels.
///
/// Built from differentiable primitives (`log_softmax`, `mul`, `sum_all`),
/// so it participates in higher-order gradients — a requirement of the
/// gradient-matching distillation objective.
///
/// # Panics
///
/// Panics if the logits row count differs from `labels.len()`.
pub fn cross_entropy(tape: &mut Tape, logits: Var, labels: &[usize], classes: usize) -> Var {
    let dims = tape.value(logits).dims().to_vec();
    assert_eq!(dims.len(), 2, "cross_entropy expects (n, classes) logits");
    assert_eq!(dims[0], labels.len(), "cross_entropy batch mismatch");
    assert_eq!(dims[1], classes, "cross_entropy class-count mismatch");
    let targets = tape.constant(one_hot(labels, classes));
    let ls = tape.log_softmax(logits);
    let picked = tape.mul(ls, targets);
    let total = tape.sum_all(picked);
    let neg = tape.neg(total);
    tape.scale(neg, 1.0 / labels.len().max(1) as f32)
}

/// Cross-entropy gradients of `model` at `params` on one labelled batch,
/// one tensor per parameter: what every SGD/SGA step in this workspace
/// (training, ascent, recovery, relearning, the baselines) and gradient
/// matching's detached reference branch compute.
///
/// The result is only ever read, never differentiated again, so this is
/// the one place that opens a [`Tape::first_order`]: every caller gets the
/// fused nodes — `ConvNormReluPool` for a whole ConvNet block, `Relu` for
/// a ReLU on its own — and the terminal sweep ([`Tape::into_grads`]) without
/// choosing anything, and the gradients are `to_bits`-equal to what a
/// recording tape's `grad` would give (`tests/tape_modes.rs`).
pub fn loss_gradients(
    model: &dyn Module,
    params: &[Tensor],
    x: &Tensor,
    labels: &[usize],
    classes: usize,
) -> Vec<Tensor> {
    let mut tape = Tape::first_order();
    let p: Vec<Var> = params.iter().map(|t| tape.leaf(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let logits = model.forward(&mut tape, &p, xv);
    let loss = cross_entropy(&mut tape, logits, labels, classes);
    tape.into_grads(loss, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_autograd::check::assert_grads_close;
    use qd_tensor::rng::Rng;

    #[test]
    fn one_hot_places_ones() {
        let t = one_hot(&[2, 0], 3);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_bad_labels() {
        let _ = one_hot(&[3], 3);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let mut tape = Tape::new();
        // Very confident, correct logits.
        let logits = tape.constant(Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]));
        let loss = cross_entropy(&mut tape, logits, &[0], 3);
        assert!(tape.value(loss).item() < 1e-3);
    }

    #[test]
    fn cross_entropy_of_uniform_prediction_is_ln_classes() {
        let mut tape = Tape::new();
        let logits = tape.constant(Tensor::zeros(&[4, 10]));
        let loss = cross_entropy(&mut tape, logits, &[0, 3, 5, 9], 10);
        assert!((tape.value(loss).item() - 10.0f32.ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let mut tape = Tape::new();
        let raw = Tensor::from_vec(vec![1.0, 2.0, 0.5], &[1, 3]);
        let logits = tape.leaf(raw.clone());
        let loss = cross_entropy(&mut tape, logits, &[1], 3);
        let g = tape.grad(loss, &[logits])[0];
        let mut expected = raw.softmax_rows();
        expected.data_mut()[1] -= 1.0;
        assert!(tape.value(g).max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let logits = Tensor::randn(&[3, 4], &mut Rng::seed_from(2));
        assert_grads_close(
            move |t, vs| cross_entropy(t, vs[0], &[0, 2, 3], 4),
            &[logits],
            1e-2,
        );
    }
}
