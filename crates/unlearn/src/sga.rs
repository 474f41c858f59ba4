//! SGA-Or: stochastic gradient ascent on the original forget data
//! (Algorithm 1, Wu et al. 2022).

use crate::{
    forget_override, retain_override, Capabilities, Efficiency, MethodOutcome, UnlearnRequest,
    UnlearningMethod,
};
use qd_fed::{sgd_trainers, Federation, Phase};
use qd_tensor::rng::Rng;

/// SGA on the original datasets: clients holding forget data run local
/// gradient *ascent* rounds on `D_f`, then all remaining clients run
/// ordinary descent recovery rounds on `D \ D_f`.
///
/// Faster than retraining but still touches every original sample — the
/// inefficiency QuickDrop removes by substituting synthetic data.
///
/// # Examples
///
/// ```
/// use qd_fed::Phase;
/// use qd_unlearn::{SgaOriginal, UnlearningMethod};
///
/// let m = SgaOriginal::new(
///     Phase::unlearning(2, 50, 256, 0.02),
///     Phase::training(2, 50, 256, 0.01),
/// );
/// assert_eq!(m.name(), "SGA-Or");
/// ```
#[derive(Debug, Clone)]
pub struct SgaOriginal {
    unlearn_phase: Phase,
    recover_phase: Phase,
}

impl SgaOriginal {
    /// Creates the baseline from an ascent phase and a descent recovery
    /// phase.
    ///
    /// # Panics
    ///
    /// Panics if the phases' directions are inconsistent with their roles.
    pub fn new(unlearn_phase: Phase, recover_phase: Phase) -> Self {
        assert_eq!(
            unlearn_phase.direction,
            qd_nn::Direction::Ascent,
            "unlearning phase must ascend"
        );
        assert_eq!(
            recover_phase.direction,
            qd_nn::Direction::Descent,
            "recovery phase must descend"
        );
        SgaOriginal {
            unlearn_phase,
            recover_phase,
        }
    }
}

impl UnlearningMethod for SgaOriginal {
    fn name(&self) -> &'static str {
        "SGA-Or"
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
        let forget = forget_override(fed, request);
        let retain = retain_override(fed, request);
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        let unlearn = fed.run_phase(&mut trainers, Some(&forget), &self.unlearn_phase, rng);
        let post_unlearn_params = fed.global().to_vec();
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
    use qd_fed::Phase;
    use qd_nn::{Mlp, Module};
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "must ascend")]
    fn rejects_descending_unlearn_phase() {
        let _ = SgaOriginal::new(Phase::training(1, 1, 1, 0.1), Phase::training(1, 1, 1, 0.1));
    }

    #[test]
    fn sga_unlearns_class_then_recovers() {
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let data = SyntheticDataset::Digits.generate(400, &mut rng);
        let test = SyntheticDataset::Digits.generate(200, &mut rng);
        let parts = partition_iid(data.len(), 4, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);

        // Train first so there is something to forget.
        let mut trainers = sgd_trainers(model.clone(), 4);
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(10, 10, 32, 0.1),
            &mut rng,
        );
        let (f, r) = crate::fr_eval_sets(&fed, UnlearnRequest::Class(5), &test);
        let (fa0, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa0 > 0.4, "trained model should know class 5 ({fa0})");

        let mut method = SgaOriginal::new(
            Phase::unlearning(1, 6, 32, 0.05),
            Phase::training(2, 8, 32, 0.05),
        );
        let outcome = method.unlearn(&mut fed, UnlearnRequest::Class(5), &mut rng);

        // After the ascent stage alone the class is forgotten.
        let (fa_mid, _) = split_accuracy(model.as_ref(), &outcome.post_unlearn_params, &f, &r);
        assert!(fa_mid < 0.2, "post-unlearn forget accuracy {fa_mid}");

        // After recovery the retained classes are restored.
        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa < 0.2, "final forget accuracy {fa}");
        assert!(ra > 0.5, "final retain accuracy {ra}");

        // Relearning brings the class back.
        method
            .relearn(
                &mut fed,
                UnlearnRequest::Class(5),
                &Phase::training(2, 8, 32, 0.05),
                &mut rng,
            )
            .expect("SGA supports relearning");
        let (fa2, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa2 > 0.5, "relearned forget accuracy {fa2}");
    }
}
