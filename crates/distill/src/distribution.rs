//! Distribution-matching distillation (Zhao & Bilen, WACV 2023) — the
//! main alternative condensation objective, implemented for the ablation
//! called out in DESIGN.md.
//!
//! Where gradient matching aligns `∇θL(S)` with `∇θL(D)` (second-order in
//! `S`), distribution matching aligns the *embedding statistics* of the
//! synthetic and real samples: it minimizes `‖ mean φθ(S) − mean φθ(D) ‖²`
//! over random feature extractors `φθ`. It is cheaper (first-order in
//! `S`) but, as the QuickDrop paper argues, less targeted at unlearning
//! because it does not compress the *gradient* information that SGA
//! replays.

use qd_autograd::{Tape, Var};
use qd_nn::Module;
use qd_tensor::Tensor;

/// Mean embedding of a batch under `model`'s logits (used as the feature
/// map φ; for an MLP/ConvNet the logit layer is a linear probe of the
/// representation).
fn mean_embedding(tape: &mut Tape, model: &dyn Module, params: &[Var], x: Var) -> Var {
    let logits = model.forward(tape, params, x);
    let rows = crate::synset::rows(tape.value(logits)).max(1);
    let summed = tape.sum_rows(logits);
    tape.scale(summed, 1.0 / rows as f32)
}

/// One distribution-matching update of a class's synthetic samples:
/// `steps` SGD steps on `‖ mean φθ(S) − mean φθ(X_real) ‖²` with respect
/// to the synthetic pixels.
///
/// Returns the updated synthetic tensor and the objective value before
/// the first step.
///
/// # Panics
///
/// Panics if `lr` is not positive or `real_x` is empty.
pub fn distribution_match_step(
    model: &dyn Module,
    params: &[Tensor],
    real_x: &Tensor,
    syn: Tensor,
    lr: f32,
    steps: usize,
) -> (Tensor, f32) {
    assert!(lr.is_finite() && lr > 0.0, "matching lr must be positive");
    assert!(!real_x.is_empty(), "real batch must be non-empty");
    let mut syn = syn;
    let mut first = f32::NAN;
    for step in 0..steps.max(1) {
        let mut tape = Tape::first_order();
        let p: Vec<Var> = params.iter().map(|t| tape.constant(t.clone())).collect();
        let xv = tape.constant(real_x.clone());
        let real_mean = mean_embedding(&mut tape, model, &p, xv);
        let sv = tape.leaf(syn.clone());
        let syn_mean = mean_embedding(&mut tape, model, &p, sv);
        let diff = tape.sub(syn_mean, real_mean);
        let sq = tape.mul(diff, diff);
        let obj = tape.sum_all(sq);
        if step == 0 {
            first = tape.value(obj).item();
        }
        if steps == 0 {
            break;
        }
        for g in tape.into_grads(obj, &[sv]) {
            syn.axpy(-lr, &g);
        }
    }
    (syn, first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;
    use qd_tensor::rng::Rng;

    #[test]
    fn objective_decreases_under_updates() {
        let mut rng = Rng::seed_from(0);
        let model = Mlp::new(&[256, 10]);
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(80, &mut rng);
        let (real_x, _) = data.only_class(2).all();
        let syn0 = Tensor::randn(&[3, 1, 16, 16], &mut rng);
        let (_, d0) = distribution_match_step(&model, &params, &real_x, syn0.clone(), 0.5, 1);
        let mut syn = syn0;
        for _ in 0..60 {
            let (s, _) = distribution_match_step(&model, &params, &real_x, syn, 0.5, 1);
            syn = s;
        }
        let (_, d_after) = distribution_match_step(&model, &params, &real_x, syn, 0.5, 1);
        assert!(
            d_after < d0 * 0.2,
            "distribution objective should drop: {d0} -> {d_after}"
        );
    }

    #[test]
    fn matched_embedding_means_are_close() {
        let mut rng = Rng::seed_from(1);
        let model = Mlp::new(&[256, 10]);
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(60, &mut rng);
        let (real_x, _) = data.only_class(5).all();
        let mut syn = Tensor::randn(&[2, 1, 16, 16], &mut rng);
        for _ in 0..100 {
            let (s, _) = distribution_match_step(&model, &params, &real_x, syn, 0.5, 1);
            syn = s;
        }
        let (_, residual) = distribution_match_step(&model, &params, &real_x, syn, 0.5, 1);
        assert!(residual < 0.05, "residual {residual}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_lr() {
        let model = Mlp::new(&[4, 2]);
        let params = model.init(&mut Rng::seed_from(0));
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = distribution_match_step(&model, &params, &x, Tensor::zeros(&[1, 1, 2, 2]), 0.0, 1);
    }
}
