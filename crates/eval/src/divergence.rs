//! Model-to-model comparison metrics.
//!
//! The paper defines unlearning success as matching the retraining
//! oracle's *behaviour* (Section 2.1: the unlearned model should be
//! "equivalent in performance to a model trained only on `D \ D_f`").
//! Accuracy is a coarse proxy; this metric compares two models'
//! predictions directly and is used by the test-suite to check that
//! unlearned models move *toward* the oracle.

use crate::metrics::logits;
use qd_data::Dataset;
use qd_nn::Module;
use qd_tensor::Tensor;

/// Fraction of samples on which two parameterizations of `model` predict
/// the same class (1.0 = identical behaviour). Returns 1.0 for empty
/// datasets.
pub fn prediction_agreement(
    model: &dyn Module,
    params_a: &[Tensor],
    params_b: &[Tensor],
    data: &Dataset,
) -> f32 {
    if data.is_empty() {
        return 1.0;
    }
    let pa = logits(model, params_a, data).row_argmax();
    let pb = logits(model, params_b, data).row_argmax();
    pa.iter().zip(&pb).filter(|(a, b)| a == b).count() as f32 / pa.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;
    use qd_tensor::rng::Rng;

    fn setup() -> (Mlp, Vec<Tensor>, Vec<Tensor>, Dataset) {
        let mut rng = Rng::seed_from(0);
        let model = Mlp::new(&[256, 10]);
        let a = model.init(&mut rng);
        let b = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(50, &mut rng);
        (model, a, b, data)
    }

    #[test]
    fn identical_models_agree_perfectly() {
        let (model, a, _, data) = setup();
        assert_eq!(prediction_agreement(&model, &a, &a, &data), 1.0);
    }

    #[test]
    fn different_models_diverge() {
        let (model, a, b, data) = setup();
        let agree = prediction_agreement(&model, &a, &b, &data);
        assert!(agree < 1.0, "independent inits should disagree somewhere");
    }

    #[test]
    fn empty_dataset_conventions() {
        let (model, a, b, data) = setup();
        let empty = data.subset(&[]);
        assert_eq!(prediction_agreement(&model, &a, &b, &empty), 1.0);
    }
}
