//! Datasets and federated partitioning for the QuickDrop reproduction.
//!
//! # Synthetic stand-ins for MNIST / CIFAR-10 / SVHN
//!
//! The paper evaluates on MNIST, CIFAR-10 and SVHN. Those archives are not
//! available in this offline environment, so this crate provides three
//! *procedural* image classification datasets with the properties the
//! algorithms actually exercise — ten visually-separable classes,
//! label-conditional structure, and intra-class variation:
//!
//! * [`SyntheticDataset::Digits`] — MNIST-like 1x16x16 glyph digits with
//!   affine jitter and noise.
//! * [`SyntheticDataset::Cifar`] — CIFAR-like 3x16x16 class textures
//!   (class-specific frequency/color signatures).
//! * [`SyntheticDataset::Svhn`] — SVHN-like 3x16x16 colored digits over
//!   cluttered backgrounds.
//!
//! # Federated splits
//!
//! [`partition_dirichlet`] reproduces the non-IID client splits of Hsu et
//! al. (2019) used by the paper (`alpha = 0.1` by default);
//! [`partition_iid`] provides the uniform control.
//!
//! # Examples
//!
//! ```
//! use qd_data::{partition_dirichlet, SyntheticDataset};
//! use qd_tensor::rng::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let data = SyntheticDataset::Digits.generate(200, &mut rng);
//! let parts = partition_dirichlet(data.labels(), 10, 4, 0.1, &mut rng);
//! assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 200);
//! ```

#![warn(missing_docs)]

mod dataset;
mod partition;
mod synth;
mod viz;

pub use dataset::Dataset;
pub use partition::{partition_dirichlet, partition_iid};
pub use synth::SyntheticDataset;
pub use viz::{ascii_image, ascii_samples};
