//! Composite layers: one entry point each, two representations.
//!
//! On a recording tape a composite expands to the chain of primitives
//! that is closed under differentiation — the only representation that
//! reproduces a gradient of a gradient bit for bit. On a first-order or
//! inference tape nothing is differentiated twice, so it is one node with
//! a fused forward kernel and a direct backward rule (`ops.rs`) — for a
//! convolution, kernels that never unfold the patch matrix the chain is
//! made of; for a ConvNet block's norm, ReLU and pool, one node whose only
//! kept value is the pooled map. The tape chooses from its own kind
//! ([`Tape::fuses`]); callers cannot. [`Tape::instance_norm`] on its own
//! is its chain on every tape: its fused form exists only inside
//! [`Tape::norm_relu_pool`].

use crate::kernels;
use crate::tape::{Op, Tape};
use crate::Var;
use qd_tensor::{conv2d, Conv2dGeometry, Tensor};

impl Tape {
    /// Instance normalization with affine parameters over an
    /// `(N, C, H, W)` variable: each `(n, c)` plane normalised by its own
    /// spatial mean and variance (`eps` added under the root), then scaled
    /// by `gamma[c]` and shifted by `beta[c]`.
    ///
    /// Records, on every tape, the 17 primitives (sums, broadcasts and
    /// elementwise ops) whose `vjp`s stay closed under second order. Its
    /// fused form exists only as the head of a ConvNet block's tail,
    /// [`Tape::norm_relu_pool`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or `gamma`/`beta` are not `(C,)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qd_autograd::Tape;
    /// use qd_tensor::Tensor;
    ///
    /// let mut tape = Tape::first_order();
    /// let x = tape.leaf(Tensor::from_vec(vec![1.0, 3.0, -2.0, 2.0], &[1, 2, 1, 2]));
    /// let gamma = tape.leaf(Tensor::ones(&[2]));
    /// let beta = tape.leaf(Tensor::zeros(&[2]));
    /// let y = tape.instance_norm(x, gamma, beta, 0.0);
    /// assert_eq!(tape.value(y).data(), &[-1.0, 1.0, -1.0, 1.0]);
    /// ```
    pub fn instance_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let &[n, c, h, w] = self.value(x).dims() else {
            panic!("instance norm expects (N, C, H, W)");
        };
        let hw = (h * w) as f32;
        let s = self.spatial_sum(x, c, h, w); // (N*C,)
        let mean = self.scale(s, 1.0 / hw);
        let mean_bc = self.spatial_broadcast(mean, c, h, w);
        let centered = self.sub(x, mean_bc);
        let sq = self.mul(centered, centered);
        let var_sum = self.spatial_sum(sq, c, h, w);
        let var = self.scale(var_sum, 1.0 / hw);
        let var_eps = self.add_scalar(var, eps);
        let std = self.sqrt(var_eps);
        let ones = self.constant(Tensor::ones(&[n * c]));
        let inv = self.div(ones, std);
        let inv_bc = self.spatial_broadcast(inv, c, h, w);
        let normed = self.mul(centered, inv_bc);
        let gamma = self.channel_broadcast(gamma, n, h, w);
        let beta = self.channel_broadcast(beta, n, h, w);
        let scaled = self.mul(normed, gamma);
        self.add(scaled, beta)
    }

    /// The tail of a ConvNet block: [`Tape::instance_norm`], then
    /// [`Tape::relu`], then a non-overlapping 2×2 [`Tape::avg_pool2d`],
    /// `(N, C, H, W) -> (N, C, H/2, W/2)`.
    ///
    /// A recording tape records exactly those three. A first-order or
    /// inference tape records the statistics and one node whose value is
    /// the pooled map: the forward kernel pools each group of normalised
    /// planes as it leaves them, and the backward kernel forms the norm's
    /// upstream `(u·¼)·1[y > 0]` inside the norm's adjoint, recomputing
    /// the mask from the statistics, so neither the norm's output nor the
    /// ReLU's is kept. Values and gradients are `to_bits`-equal between
    /// the two.
    ///
    /// # Panics
    ///
    /// Panics as [`Tape::instance_norm`] does, or if `H` or `W` is odd.
    ///
    /// # Examples
    ///
    /// ```
    /// use qd_autograd::Tape;
    /// use qd_tensor::Tensor;
    ///
    /// let mut tape = Tape::inference();
    /// let x = tape.leaf(Tensor::from_vec(vec![1.0, 3.0, -2.0, 2.0], &[1, 1, 2, 2]));
    /// let gamma = tape.leaf(Tensor::ones(&[1]));
    /// let beta = tape.leaf(Tensor::zeros(&[1]));
    /// let y = tape.norm_relu_pool(x, gamma, beta, 0.0);
    /// assert_eq!(tape.value(y).dims(), &[1, 1, 1, 1]);
    /// ```
    pub fn norm_relu_pool(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        if self.fuses() {
            let [xv, g, b] = [x, gamma, beta].map(|v| self.value(v));
            let (out, stats) = kernels::norm_relu_pool(xv, g, b, eps);
            let stats = self.constant(stats);
            let needs = [x, gamma, beta].iter().any(|v| self.needs_grad(*v));
            return self.push(out, Op::NormReluPool(x, gamma, beta, stats), needs);
        }
        let normed = self.instance_norm(x, gamma, beta, eps);
        let active = self.relu(normed);
        let dims = self.value(active).dims().to_vec();
        self.avg_pool2d(active, dims[1], dims[2], dims[3], kernels::POOL)
    }

    /// A 2-D convolution of the `(N, Cin, H, W)` variable `x` with the
    /// `(Cout, Cin·k·k)` weight matrix and `(Cout,)` bias:
    /// `rows_to_nchw(im2col(x) · Wᵀ + b)`.
    ///
    /// A recording tape records those four primitives, which makes the
    /// convolution valid inside a gradient of a gradient. A first-order
    /// or inference tape records one node, computed by
    /// [`qd_tensor::conv2d`] and differentiated by its two gradient
    /// kernels, which read and write the images in place: the patch
    /// matrix, nine times an activation for a 3×3 window, never exists.
    /// Same bits either way.
    ///
    /// # Panics
    ///
    /// Panics, naming `conv2d`, unless `x` is a whole number of
    /// `Cin×H×W` images, `bias` a vector and `weight`
    /// `(bias.len(), Cin·k·k)`.
    pub fn conv2d(&mut self, x: Var, weight: Var, bias: Var, geo: Conv2dGeometry) -> Var {
        let (xv, w, b) = (self.value(x), self.value(weight), self.value(bias));
        let [n, c, oh, ow] = geo.output_dims(xv, w, b);
        if self.fuses() {
            let out = conv2d(xv, w, b, &geo);
            let needs = [x, weight, bias].iter().any(|v| self.needs_grad(*v));
            return self.push(out, Op::Conv2d(x, weight, bias, geo), needs);
        }
        let cols = self.im2col(x, geo); // (N*OH*OW, Cin*k*k)
        let y = self.matmul_nt(cols, weight); // (N*OH*OW, Cout)
        let yb = self.add_row_bias(y, bias);
        self.rows_to_nchw(yb, n, c, oh, ow)
    }
}
