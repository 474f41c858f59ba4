//! Dataset distillation by gradient matching, in situ with federated
//! training — the machinery behind QuickDrop's synthetic datasets.
//!
//! # What is generated
//!
//! Each client condenses its local dataset `Dᵢ` into a tiny per-class
//! synthetic counterpart `Sᵢ` (`|Sᵢᶜ| = ⌈|Dᵢᶜ| / s⌉` for scale parameter
//! `s`, 100 by default ⇒ 1% volume). The synthetic samples are optimized
//! so that the *gradients* the model sees on `Sᵢ` track the gradients it
//! saw on `Dᵢ` along the whole FL optimization trajectory (Eq. 5 of the
//! paper, following Zhao et al., ICLR 2021). They are, literally, a
//! compressed store of the training gradient information — which is why
//! gradient *ascent* on them later unlearns what those gradients taught.
//!
//! # How
//!
//! * [`matching_distance`] builds the layerwise per-output-row cosine
//!   distance `d(∇θL(S), ∇θL(D))` on a tape; since the tape supports
//!   higher-order gradients, `∂d/∂S` is exact.
//! * [`match_class_step`] performs one class-wise synthetic update
//!   (Eq. 6).
//! * [`DistillingTrainer`] is a drop-in [`qd_fed::ClientTrainer`] that
//!   runs ordinary local SGD **and** interleaves synthetic updates
//!   (Algorithm 2), timing the distillation overhead (Table 6).
//! * [`finetune`] optionally refines a finished synthetic set across
//!   fresh model initializations for better recovery accuracy
//!   (Section 3.3.2 / Figure 5).
//! * [`augment_with_real`] draws the real samples mixed 1:1 into the
//!   synthetic set for the recovery phase (Section 3.3.1).
//!
//! # Examples
//!
//! Condense a tiny dataset and check the synthetic set size:
//!
//! ```
//! use qd_data::SyntheticDataset;
//! use qd_distill::SyntheticSet;
//! use qd_tensor::rng::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let data = SyntheticDataset::Digits.generate(300, &mut rng);
//! let syn = SyntheticSet::init_from_real(&data, 100, &mut rng);
//! // ceil(count/100) per class: tiny.
//! assert!(syn.len() >= 10 && syn.len() <= 20);
//! ```

#![warn(missing_docs)]

mod augment;
mod distribution;
mod finetune;
mod matching;
mod synset;
mod trainer;

pub use augment::augment_with_real;
pub use distribution::distribution_match_step;
pub use finetune::{finetune, FinetuneConfig};
pub use matching::{match_class_step, matching_distance, reference_gradients};
pub use synset::SyntheticSet;
pub use trainer::{distilling_trainers, DistillConfig, DistillingTrainer, MatchObjective};
