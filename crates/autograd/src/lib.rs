//! Tape-based reverse-mode automatic differentiation with exact
//! higher-order gradients.
//!
//! # Why higher-order?
//!
//! QuickDrop's dataset distillation minimizes, with respect to the
//! *synthetic samples* `S`, a distance between two gradients:
//! `d(∇θ L(S), ∇θ L(D))`. Computing `∂/∂S` of that objective requires
//! differentiating **through** the inner gradient — a second-order
//! derivative. This crate supports that the same way PyTorch's
//! `create_graph=True` does: [`Tape::grad`] does not merely *compute*
//! adjoint values, it *emits them as new differentiable nodes* on the same
//! tape, so `grad` can be applied to its own output.
//!
//! # Design
//!
//! * Eager evaluation: every op computes its value immediately and records
//!   a node on the tape.
//! * Values are plain [`qd_tensor::Tensor`]s; model parameters live
//!   *outside* the tape and are inserted per step as leaves, which keeps
//!   federated averaging and gradient ascent as plain tensor arithmetic.
//! * Convolution is a composite of the linear pair `im2col`/`col2im` plus
//!   a matrix product, so its double-backprop falls out of the vjp rules
//!   of those primitives — no special casing. Where nothing is
//!   differentiated twice, a whole ConvNet block is one node whose
//!   convolution runs on `qd-tensor`'s direct kernels, which never build
//!   the patch matrix.
//! * The three products `A·B`, `Aᵀ·B` and `A·Bᵀ` are ops of their own and
//!   closed under differentiation (each one's adjoints are products from
//!   the same three), so no transpose is recorded or materialised at any
//!   order; and a vjp rule builds no adjoint for an input that needs no
//!   gradient.
//! * A tape is opened for its caller. [`Tape::new`] records: [`Tape::grad`]
//!   keeps everything, for the one gradient that is differentiated again,
//!   and [`Tape::into_grads`] is the same sweep over the same rules, bit
//!   for bit, for a gradient that is only read, releasing every value as it
//!   passes. [`Tape::first_order`] allows only `into_grads`, and
//!   [`Tape::inference`] is a forward-only tape on which finished
//!   sub-computations are retired.
//! * The composites [`Tape::conv_norm_relu_pool`] (a whole ConvNet block)
//!   and [`Tape::relu`] have one entry point and two representations:
//!   chains of primitives on a recording tape, single fused nodes with
//!   direct backward kernels on the other two kinds, where no gradient can
//!   be differentiated again. The tape picks from its own kind and both
//!   give the same bits. The block's parts on their own,
//!   [`Tape::conv2d`] and [`Tape::norm_relu_pool`], are their chains on
//!   every tape.
//!
//! # Examples
//!
//! First- and second-order derivatives of `f(x) = x³` at `x = 2`:
//!
//! ```
//! use qd_autograd::Tape;
//! use qd_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::scalar(2.0));
//! let x2 = tape.mul(x, x);
//! let y = tape.mul(x2, x); // x^3
//! let dy = tape.grad(y, &[x])[0]; // 3x^2 = 12
//! let d2y = tape.grad(dy, &[x])[0]; // 6x = 12
//! assert_eq!(tape.value(dy).item(), 12.0);
//! assert_eq!(tape.value(d2y).item(), 12.0);
//! ```

#![warn(missing_docs)]

pub mod check;
mod composite;
mod kernels;
mod ops;
mod tape;

pub use tape::{Tape, Var};
