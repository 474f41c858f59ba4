//! Composite layers: one entry point each, two representations.
//!
//! On a recording tape a composite expands to the chain of primitives
//! that is closed under differentiation — the only representation that
//! reproduces a gradient of a gradient bit for bit. On a first-order or
//! inference tape nothing is differentiated twice, so it is one node with
//! a fused forward kernel and a direct backward rule (`ops.rs`). A whole
//! ConvNet block, [`Tape::conv_norm_relu_pool`], is one such node: its
//! convolution writes the pre-norm map position-major
//! (`qd_tensor::conv2d_rows`), its norm·ReLU·pool tail reduces that map
//! `LANES` planes per vector, and the map never leaves the node. The
//! tape chooses from its own kind ([`Tape::fuses`]); callers cannot.
//! [`Tape::conv2d`] and [`Tape::norm_relu_pool`] on their own run the
//! same kernels (the convolution storing planes, the tail behind a copy
//! of its input into rows); [`Tape::instance_norm`] on its own is its
//! chain on every tape.

use crate::kernels::{self, Planes};
use crate::tape::{Op, Tape};
use crate::Var;
use qd_tensor::{conv2d, conv2d_rows, planes_to_rows, Conv2dGeometry, Tensor};

impl Tape {
    /// Instance normalization with affine parameters over an
    /// `(N, C, H, W)` variable: each `(n, c)` plane normalised by its own
    /// spatial mean and variance (`eps` added under the root), then scaled
    /// by `gamma[c]` and shifted by `beta[c]`.
    ///
    /// Records, on every tape, the 17 primitives (sums, broadcasts and
    /// elementwise ops) whose `vjp`s stay closed under second order. Its
    /// fused form exists only as the head of a ConvNet block's tail,
    /// [`Tape::norm_relu_pool`] and [`Tape::conv_norm_relu_pool`].
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
    /// the pooled map: [`Tape::conv_norm_relu_pool`]'s tail kernels, run on
    /// a position-major copy of `x` (made again by the backward rule), so
    /// neither the norm's output nor the ReLU's is kept. Values and
    /// gradients are `to_bits`-equal between the two.
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
            let planes = Planes::new(xv.dims());
            let map = planes_to_rows(xv, planes.dims, planes.pitch());
            let (out, stats) = kernels::norm_relu_pool(&map, planes, g, b, eps);
            let stats = self.constant(stats);
            let needs = [x, gamma, beta].iter().any(|v| self.needs_grad(*v));
            return self.push(out, Op::NormReluPool(x, gamma, beta, stats), needs);
        }
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
    /// A recording tape records those four primitives, which makes the
    /// convolution valid inside a gradient of a gradient. A first-order
    /// or inference tape records one node, computed by
    /// [`qd_tensor::conv2d`] and differentiated by its two gradient
    /// kernels (the weight gradient's on a position-major copy of the
    /// upstream), which read and write the images in place: the patch
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
