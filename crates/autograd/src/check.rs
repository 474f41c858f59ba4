//! Finite-difference gradient checking used throughout the test-suite.

use crate::{Tape, Var};
use qd_tensor::Tensor;

/// Central-difference numerical gradient of a scalar function.
///
/// `f` maps a full set of input tensors to a scalar; the returned tensor
/// is `∂f/∂inputs[which]`, estimated with step `eps`.
pub fn numeric_grad(
    mut f: impl FnMut(&[Tensor]) -> f32,
    inputs: &[Tensor],
    which: usize,
    eps: f32,
) -> Tensor {
    let mut grad = Tensor::zeros(inputs[which].dims());
    let mut work: Vec<Tensor> = inputs.to_vec();
    for i in 0..inputs[which].len() {
        let orig = inputs[which].data()[i];
        work[which].data_mut()[i] = orig + eps;
        let up = f(&work);
        work[which].data_mut()[i] = orig - eps;
        let down = f(&work);
        work[which].data_mut()[i] = orig;
        grad.data_mut()[i] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Asserts that the tape gradients of `build` match central differences.
///
/// `build` receives a fresh recording tape and one leaf per input tensor
/// and must return a scalar variable. Differentiable behaviour is compared
/// at tolerance `tol` (absolute, against gradients of typical magnitude
/// ≤ 1; scale your function accordingly).
///
/// # Panics
///
/// Panics (with a diagnostic) if any analytic gradient entry deviates from
/// the numerical estimate by more than `tol`.
pub fn assert_grads_close(build: impl Fn(&mut Tape, &[Var]) -> Var, inputs: &[Tensor], tol: f32) {
    assert_grads_close_on(Tape::new, build, inputs, tol);
}

/// [`assert_grads_close`] on [`Tape::first_order`] tapes, forward passes
/// included: the check of a fused composite's kernels, which a recording
/// tape never runs.
///
/// # Panics
///
/// As [`assert_grads_close`].
pub fn assert_first_order_grads_close(
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    inputs: &[Tensor],
    tol: f32,
) {
    assert_grads_close_on(Tape::first_order, build, inputs, tol);
}

fn assert_grads_close_on(
    open: fn() -> Tape,
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    inputs: &[Tensor],
    tol: f32,
) {
    let record = |tensors: &[Tensor]| {
        let mut tape = open();
        let vars: Vec<Var> = tensors.iter().map(|t| tape.leaf(t.clone())).collect();
        let y = build(&mut tape, &vars);
        (tape, y, vars)
    };
    let (tape, y, vars) = record(inputs);
    for (which, analytic) in tape.into_grads(y, &vars).iter().enumerate() {
        let numeric = numeric_grad(
            |tensors| {
                let (tape, out, _) = record(tensors);
                tape.value(out).item()
            },
            inputs,
            which,
            1e-2,
        );
        let gap = analytic.max_abs_diff(&numeric);
        assert!(
            gap <= tol,
            "gradient {which} mismatch: max |analytic - numeric| = {gap} > {tol}\n\
             analytic: {analytic:?}\n numeric: {numeric:?}"
        );
    }
}
