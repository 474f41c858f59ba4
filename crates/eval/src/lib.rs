//! Evaluation metrics for federated unlearning: accuracy, forget/retain
//! splits, and a membership-inference attack (MIA).
//!
//! The paper reports three kinds of numbers, all provided here:
//!
//! * **Top-1 accuracy** on held-out test data ([`accuracy`],
//!   [`per_class_accuracy`]).
//! * **F-Set / R-Set accuracy** — accuracy on the forget dataset and its
//!   complement ([`split_accuracy`], or [`class_split`] for a class's
//!   samples and the rest of one dataset); a successful unlearning method
//!   drives the F-Set number to the retrain-oracle level while keeping the
//!   R-Set number high.
//! * **MIA accuracy** (Figure 3) — how often a loss-threshold membership
//!   attack (Yeom et al.; the setting of Golatkar et al. 2021) still
//!   classifies forgotten samples as training members ([`MiaAttack`]).
//!
//! # Examples
//!
//! ```
//! use qd_data::SyntheticDataset;
//! use qd_eval::accuracy;
//! use qd_nn::{Mlp, Module};
//! use qd_tensor::rng::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let model = Mlp::new(&[256, 16, 10]);
//! let params = model.init(&mut rng);
//! let test = SyntheticDataset::Digits.generate(50, &mut rng);
//! let acc = accuracy(&model, &params, &test);
//! assert!((0.0..=1.0).contains(&acc));
//! ```

#![warn(missing_docs)]

mod divergence;
mod metrics;
mod mia;

pub use divergence::prediction_agreement;
pub use metrics::{
    accuracy, class_hits, class_split, per_class_accuracy, sample_losses, split_accuracy, Hits,
};
pub use mia::MiaAttack;
