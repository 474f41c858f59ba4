//! **QuickDrop** — efficient federated unlearning via synthetic data
//! generation.
//!
//! A from-scratch Rust reproduction of *QuickDrop: Efficient Federated
//! Unlearning via Synthetic Data Generation* (Dhasade, Ding, Guo,
//! Kermarrec, de Vos, Wu — MIDDLEWARE 2024), including every substrate the
//! paper depends on:
//!
//! * [`tensor`] — dense `f32` kernels (matmul, im2col, pooling, seeded
//!   RNG with Gamma/Dirichlet sampling);
//! * [`autograd`] — tape-based reverse-mode AD with **exact higher-order
//!   gradients** on its recording tape, which gradient matching alone uses
//!   (it differentiates *through* gradients); every other step runs on a
//!   first-order or inference tape;
//! * [`nn`] — layers, the paper's ConvNet, cross-entropy, SGD with an
//!   explicit ascent mode;
//! * [`data`] — procedural stand-ins for MNIST/CIFAR-10/SVHN plus
//!   Dirichlet non-IID partitioning;
//! * [`fed`] — a deterministic FedAvg simulator with pluggable client
//!   trainers, partial participation and update-history recording;
//! * [`distill`] — gradient-matching dataset distillation, in situ with
//!   FL training (distribution matching as the ablation), plus fine-tuning
//!   and recovery augmentation;
//! * [`unlearn`] — the unlearning-method abstraction and all five
//!   baselines (Retrain-Or, SGA-Or, FedEraser, FU-MP, S2U);
//! * [`core`] — **QuickDrop itself**: train → distil → unlearn → recover
//!   → relearn;
//! * [`eval`] — accuracy / F-Set / R-Set metrics and a membership
//!   inference attack.
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use quickdrop::{
//!     Federation, Mlp, Module, QuickDrop, QuickDropConfig, Rng, SyntheticDataset,
//!     UnlearnRequest, UnlearningMethod,
//! };
//!
//! let mut rng = Rng::seed_from(7);
//! let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
//! let data = SyntheticDataset::Digits.generate(120, &mut rng);
//! let parts = quickdrop::partition_iid(data.len(), 2, &mut rng);
//! let clients = parts.iter().map(|p| data.subset(p)).collect();
//! let mut fed = Federation::new(model, clients, &mut rng);
//!
//! let (mut qd, report) = QuickDrop::train(&mut fed, QuickDropConfig::scaled_test(), &mut rng);
//! assert!(report.storage_fraction() < 0.2);
//! qd.unlearn(&mut fed, UnlearnRequest::Class(3), &mut rng);
//! ```
//!
//! See `examples/` for richer scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the experiment index.

#![warn(missing_docs)]

pub use qd_autograd as autograd;
pub use qd_core as core;
pub use qd_data as data;
pub use qd_distill as distill;
pub use qd_eval as eval;
pub use qd_fed as fed;
pub use qd_nn as nn;
pub use qd_tensor as tensor;
pub use qd_unlearn as unlearn;

pub use qd_core::{Checkpoint, QuickDrop, QuickDropConfig, TrainReport};
pub use qd_data::{
    ascii_image, ascii_samples, partition_dirichlet, partition_iid, Dataset, SyntheticDataset,
};
pub use qd_distill::{
    distribution_match_step, DistillConfig, FinetuneConfig, MatchObjective, SyntheticSet,
};
pub use qd_eval::{accuracy, per_class_accuracy, prediction_agreement, split_accuracy, MiaAttack};
pub use qd_fed::{
    Federation, LoopbackTransport, NetConfig, NetStats, Phase, PhaseStats, SimNet, Transport,
};
pub use qd_nn::{ConvNet, Direction, Mlp, Module, Sgd};
pub use qd_tensor::rng::Rng;
pub use qd_tensor::Tensor;
pub use qd_unlearn::{
    fr_eval_sets, FedEraser, FuMp, PgaHalimi, RetrainOracle, SgaOriginal, UnlearnRequest,
    UnlearningMethod, S2U,
};
