//! Dense `f32` tensor kernels for the QuickDrop reproduction.
//!
//! This crate is the numerical substrate of the workspace: a row-major,
//! heap-allocated tensor type plus the handful of kernels the rest of the
//! system needs (elementwise arithmetic with limited broadcasting, matrix
//! multiplication, convolution — direct kernels, and `im2col`/`col2im` for
//! the convolution-as-matmul a gradient of a gradient needs — pooling,
//! reductions, and seeded random sampling including Gamma/Dirichlet draws
//! for non-IID federated partitioning).
//!
//! Everything is deliberately simple and deterministic: no SIMD intrinsics,
//! no unsafe, no global state. Higher layers (`qd-autograd`, `qd-nn`)
//! build differentiability and model structure on top of these kernels.
//!
//! # Examples
//!
//! ```
//! use qd_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]

mod conv;
mod linalg;
#[cfg(test)]
mod naive;
mod reduce;
pub mod rng;
mod shape;
mod tensor;

pub use conv::{
    avg_pool2d, avg_unpool2d, col2im, conv2d_input_grad, conv2d_rows, conv2d_weight_grad, im2col,
    lane_pitch, planes_to_rows, rows_to_planes, Conv2dGeometry, LANES,
};
pub use shape::Shape;
pub use tensor::Tensor;
