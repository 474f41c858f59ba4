//! QuickDrop configuration.

use qd_distill::{DistillConfig, FinetuneConfig};
use qd_fed::Phase;

/// Full configuration of the QuickDrop pipeline (Figure 1).
///
/// The paper's settings (Section 4.1) are: `K = 200` rounds x `T = 50`
/// local steps, batch 256, training lr 0.01; unlearning lr 0.02 for 1
/// round; recovery lr 0.01 for 2 rounds; scale `s = 100`; augmentation on;
/// fine-tuning off by default. [`QuickDropConfig::paper_shaped`] mirrors
/// those ratios at a CPU-tractable scale; [`QuickDropConfig::scaled_test`]
/// is the miniature the test-suite uses.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QuickDropConfig {
    /// FL training schedule (step 1 of the workflow).
    pub train_phase: Phase,
    /// In-situ distillation hyper-parameters.
    pub distill: DistillConfig,
    /// SGA unlearning schedule (step 3).
    pub unlearn_phase: Phase,
    /// Recovery schedule (step 4).
    pub recover_phase: Phase,
    /// Relearning schedule (step 5).
    pub relearn_phase: Phase,
    /// Mix 1:1 real samples into the synthetic sets for recovery
    /// (Section 3.3.1).
    pub augment: bool,
    /// Optional fine-tuning of the synthetic sets after training
    /// (Section 3.3.2); `None` disables it, as in most paper experiments.
    pub finetune: Option<FinetuneConfig>,
    /// Upper bound on repeated unlearning rounds. The paper finds one
    /// round sufficient in its regime; under long sequential-request
    /// streams a class's logit margin can grow past what one round
    /// reverses, so QuickDrop repeats the ascent round (up to this cap)
    /// until the model's accuracy on the synthetic forget set falls below
    /// [`QuickDropConfig::unlearn_stop_accuracy`].
    pub max_unlearn_rounds: usize,
    /// Early-stop threshold for adaptive unlearning (see
    /// [`QuickDropConfig::max_unlearn_rounds`]).
    pub unlearn_stop_accuracy: f32,
}

impl QuickDropConfig {
    /// A configuration whose stage proportions mirror the paper's
    /// (1 unlearning round at 2x the training lr, 2 recovery rounds) at
    /// the given training scale.
    pub fn paper_shaped(rounds: usize, local_steps: usize, batch: usize, lr: f32) -> Self {
        QuickDropConfig {
            train_phase: Phase::training(rounds, local_steps, batch, lr),
            distill: DistillConfig::default(),
            unlearn_phase: Phase::unlearning(1, local_steps, batch, lr * 2.0),
            recover_phase: Phase::training(2, local_steps, batch, lr),
            relearn_phase: Phase::training(2, local_steps, batch, lr),
            augment: true,
            finetune: None,
            max_unlearn_rounds: 1,
            unlearn_stop_accuracy: 0.05,
        }
    }

    /// The miniature configuration used by unit/integration tests: tiny
    /// rounds, scale 20, aggressive synthetic learning rate.
    pub fn scaled_test() -> Self {
        let mut cfg = QuickDropConfig::paper_shaped(3, 4, 32, 0.05);
        cfg.distill = DistillConfig {
            scale: 20,
            lr_syn: 0.5,
            classes_per_step: 2,
            ..DistillConfig::default()
        };
        cfg.unlearn_phase = Phase::unlearning(1, 4, 32, 0.05);
        cfg.recover_phase = Phase::training(2, 4, 32, 0.05);
        cfg.relearn_phase = Phase::training(2, 4, 32, 0.05);
        cfg
    }

    /// Returns a copy with a different scale parameter `s` (Figure 6
    /// sweeps this).
    pub fn with_scale(mut self, scale: usize) -> Self {
        self.distill.scale = scale;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_nn::Direction;

    #[test]
    fn paper_shaped_ratios() {
        let c = QuickDropConfig::paper_shaped(200, 50, 256, 0.01);
        assert_eq!(c.unlearn_phase.rounds, 1);
        assert_eq!(c.recover_phase.rounds, 2);
        assert_eq!(c.unlearn_phase.direction, Direction::Ascent);
        assert!((c.unlearn_phase.lr - 0.02).abs() < 1e-6);
        assert_eq!(c.distill.scale, 100);
        assert!(c.augment);
        assert!(c.finetune.is_none());
    }

    #[test]
    fn builders_adjust() {
        let c = QuickDropConfig::scaled_test().with_scale(7);
        assert_eq!(c.distill.scale, 7);
    }
}
