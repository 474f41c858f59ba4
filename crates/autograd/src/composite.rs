//! Composite layers: one entry point each, and a ConvNet block with two
//! representations.
//!
//! [`Tape::instance_norm`], [`Tape::norm_relu_pool`] and [`Tape::conv2d`]
//! record, on every tape, the chain of primitives that is closed under
//! differentiation — the only representation that reproduces a gradient
//! of a gradient bit for bit. A whole ConvNet block,
//! [`Tape::conv_norm_relu_pool`], records those chains on a recording
//! tape; on a first-order or inference tape nothing is differentiated
//! twice, so it is one node with fused forward kernels and a direct
//! backward rule (`ops.rs`): its convolution writes the pre-norm map
//! position-major (`qd_tensor::conv2d_rows`), its norm·ReLU·pool tail
//! reduces that map `LANES` planes per vector, and the map never leaves
//! the node. The tape chooses from its own kind ([`Tape::fuses`]); callers
//! cannot.

use crate::kernels::{self, Planes};
use crate::tape::{Op, Tape};
use crate::Var;
use qd_tensor::{conv2d_rows, Conv2dGeometry, Tensor};

impl Tape {
    /// Instance normalization with affine parameters over an
    /// `(N, C, H, W)` variable: each `(n, c)` plane normalised by its own
    /// spatial mean and variance (`eps` added under the root), then scaled
    /// by `gamma[c]` and shifted by `beta[c]`.
    ///
    /// Records, on every tape, the 17 primitives (sums, broadcasts and
    /// elementwise ops) whose `vjp`s stay closed under second order. Its
    /// fused form exists only inside a ConvNet block,
    /// [`Tape::conv_norm_relu_pool`].
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
    /// Records those three chains on every tape; only inside a whole
    /// block, [`Tape::conv_norm_relu_pool`], is the tail one node.
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
        let normed = self.instance_norm(x, gamma, beta, eps);
        let active = self.relu(normed);
        let dims = self.value(active).dims().to_vec();
        self.avg_pool2d(active, dims[1], dims[2], dims[3], kernels::POOL)
    }

    /// A ConvNet block over the `(N, Cin, H, W)` variable `x`:
    /// [`Tape::conv2d`] with `weight` and `bias` under `geo`, then
    /// [`Tape::norm_relu_pool`] with `gamma`, `beta` and `eps`,
    /// `-> (N, Cout, OH/2, OW/2)`.
    ///
    /// A recording tape records exactly those two chains, node for node.
    /// A first-order or inference tape records one node whose value is the
    /// pooled map. Inside it the pre-norm map is position-major,
    /// `(N·OH·OW, lane_pitch(Cout))`: the convolution writes it, the tail
    /// reduces it `LANES` planes per vector, and on a first-order tape two
    /// constant nodes keep it and the statistics for the backward rule,
    /// which reads the weight and bias gradients straight from its
    /// position-major adjoint (an inference tape keeps neither). Values and
    /// gradients are `to_bits`-equal between the two.
    ///
    /// # Panics
    ///
    /// Panics as [`Tape::conv2d`] and [`Tape::norm_relu_pool`] do.
    ///
    /// # Examples
    ///
    /// ```
    /// use qd_autograd::Tape;
    /// use qd_tensor::{Conv2dGeometry, Tensor};
    ///
    /// let mut tape = Tape::inference();
    /// let x = tape.constant(Tensor::ones(&[2, 3, 4, 4]));
    /// let w = tape.constant(Tensor::ones(&[5, 27]));
    /// let [b, beta] = [(); 2].map(|_| tape.constant(Tensor::zeros(&[5])));
    /// let gamma = tape.constant(Tensor::ones(&[5]));
    /// let geo = Conv2dGeometry::new(3, 4, 4, 3, 1, 1);
    /// let y = tape.conv_norm_relu_pool(x, [w, b, gamma, beta], geo, 1e-5);
    /// assert_eq!(tape.value(y).dims(), &[2, 5, 2, 2]);
    /// ```
    pub fn conv_norm_relu_pool(
        &mut self,
        x: Var,
        p: [Var; 4],
        geo: Conv2dGeometry,
        eps: f32,
    ) -> Var {
        let [weight, bias, gamma, beta] = p;
        if !self.fuses() {
            let y = self.conv2d(x, weight, bias, geo);
            return self.norm_relu_pool(y, gamma, beta, eps);
        }
        let inputs = [x, weight, bias, gamma, beta];
        let [xv, w, b, g, shift] = inputs.map(|v| self.value(v));
        let planes = Planes::new(&geo.output_dims(xv, w, b));
        let map = conv2d_rows(xv, w, b, &geo);
        let (out, stats) = kernels::norm_relu_pool(&map, planes, g, shift, eps);
        let needs = inputs.iter().any(|v| self.needs_grad(*v));
        let kept = needs.then(|| [self.constant(map), self.constant(stats)]);
        self.push(out, Op::ConvNormReluPool(inputs, geo, kept), needs)
    }

    /// A 2-D convolution of the `(N, Cin, H, W)` variable `x` with the
    /// `(Cout, Cin·k·k)` weight matrix and `(Cout,)` bias:
    /// `rows_to_nchw(im2col(x) · Wᵀ + b)`.
    ///
    /// Records those four primitives on every tape, which makes the
    /// convolution valid inside a gradient of a gradient; only inside a
    /// whole block, [`Tape::conv_norm_relu_pool`], is it one node on the
    /// direct kernels, which never build the patch matrix.
    ///
    /// # Panics
    ///
    /// Panics, naming `conv2d`, unless `x` is a whole number of
    /// `Cin×H×W` images, `bias` a vector and `weight`
    /// `(bias.len(), Cin·k·k)`.
    pub fn conv2d(&mut self, x: Var, weight: Var, bias: Var, geo: Conv2dGeometry) -> Var {
        let (xv, w, b) = (self.value(x), self.value(weight), self.value(bias));
        let [n, c, oh, ow] = geo.output_dims(xv, w, b);
        let cols = self.im2col(x, geo); // (N*OH*OW, Cin*k*k)
        let y = self.matmul_nt(cols, weight); // (N*OH*OW, Cout)
        let yb = self.add_row_bias(y, bias);
        self.rows_to_nchw(yb, n, c, oh, ow)
    }
}
