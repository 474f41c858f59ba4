//! Neural-network layers, models, losses and optimizers on top of
//! `qd-autograd`.
//!
//! # Functional parameters
//!
//! Parameters are **not** stored inside layers. A [`Module`] describes the
//! architecture; its parameters live outside as a `Vec<Tensor>` (one entry
//! per weight/bias) and are inserted into a fresh [`qd_autograd::Tape`]
//! each step. This is what makes federated learning trivial to express:
//! FedAvg is a weighted mean of `Vec<Tensor>`s, gradient *ascent*
//! (unlearning) is `axpy(+lr)`, and FedEraser's update calibration is
//! plain tensor arithmetic.
//!
//! The model zoo includes the paper's ConvNet backbone
//! (`[W filters, InstanceNorm, ReLU, AvgPool] × D` + linear classifier,
//! Gidaris & Komodakis 2018; each block a [`ConvBlock`]: a [`Conv2d`] and
//! a [`NormReluPool`] as one module) and an MLP for fast tests.
//!
//! # Examples
//!
//! Train one SGD step on random data:
//!
//! ```
//! use qd_autograd::Tape;
//! use qd_nn::{cross_entropy, Mlp, Module, Sgd};
//! use qd_tensor::{rng::Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let model = Mlp::new(&[4, 16, 3]);
//! let mut params = model.init(&mut rng);
//!
//! let x = Tensor::randn(&[8, 4], &mut rng);
//! let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let mut tape = Tape::new();
//! let p: Vec<_> = params.iter().map(|t| tape.leaf(t.clone())).collect();
//! let xv = tape.constant(x);
//! let logits = model.forward(&mut tape, &p, xv);
//! let loss = cross_entropy(&mut tape, logits, &labels, 3);
//! let grads = tape.into_grads(loss, &p); // or `qd_nn::loss_gradients`
//! Sgd::descent(0.1).step(&mut params, &grads);
//! ```

#![warn(missing_docs)]

mod layers;
mod loss;
mod models;
mod module;
mod optim;
mod params;

pub use layers::{Conv2d, ConvBlock, Flatten, Linear, NormReluPool, Relu};
pub use loss::{cross_entropy, loss_gradients, one_hot};
pub use models::{ConvNet, Mlp};
pub use module::{fan_out, forward_inference, worker_count, Module, Sequential};
pub use optim::{Direction, Sgd};
pub use params::{param_l2_distance, param_l2_norm, params_have_non_finite, relative_drift};
