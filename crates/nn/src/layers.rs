//! Individual layers: linear, convolution, a ConvNet block's instance
//! norm · ReLU · average-pool tail, a whole ConvNet block, ReLU, flatten.

use crate::Module;
use qd_autograd::{Tape, Var};
use qd_tensor::rng::Rng;
use qd_tensor::{Conv2dGeometry, Tensor};

/// Kaiming-normal initialization for ReLU networks: `std = sqrt(2/fan_in)`.
fn kaiming(shape: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(shape, rng).scale(std)
}

/// A fully-connected layer `y = x Wᵀ + b` over `(N, in) -> (N, out)`.
///
/// # Examples
///
/// ```
/// use qd_nn::{forward_inference, Linear, Module};
/// use qd_tensor::{rng::Rng, Tensor};
///
/// let layer = Linear::new(4, 2);
/// let params = layer.init(&mut Rng::seed_from(0));
/// let y = forward_inference(&layer, &params, &Tensor::ones(&[1, 4]));
/// assert_eq!(y.dims(), &[1, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a linear layer mapping `in_dim` features to `out_dim`.
    pub fn new(in_dim: usize, out_dim: usize) -> Self {
        Linear { in_dim, out_dim }
    }
}

impl Module for Linear {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        let y = tape.matmul_nt(x, params[0]);
        tape.add_row_bias(y, params[1])
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        vec![vec![self.out_dim, self.in_dim], vec![self.out_dim]]
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        vec![
            kaiming(&[self.out_dim, self.in_dim], self.in_dim, rng),
            Tensor::zeros(&[self.out_dim]),
        ]
    }
}

/// A 2-D convolution over `(N, Cin, H, W) -> (N, Cout, OH, OW)`.
///
/// [`Tape::conv2d`]: the composite `rows_to_nchw(im2col(x) · Wᵀ + b)`,
/// recorded as differentiable primitives on every tape; `Wᵀ` is never
/// built, forward or backward. Followed by its [`NormReluPool`] as one
/// [`ConvBlock`], it is part of one fused node where no gradient is
/// differentiated again, on direct kernels that skip the patch matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// A `kernel x kernel` convolution with explicit stride and padding.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
        }
    }

    /// A 3x3 stride-1 "same" convolution, the paper's default block conv.
    pub fn same3x3(in_channels: usize, out_channels: usize) -> Self {
        Conv2d::new(in_channels, out_channels, 3, 1, 1)
    }

    /// The geometry of this convolution over the `(N, C, H, W)` batch `x`.
    fn geometry(&self, x: &Tensor) -> Conv2dGeometry {
        let dims = x.dims();
        assert_eq!(
            dims.len(),
            4,
            "Conv2d expects (N, C, H, W), got rank {}",
            dims.len()
        );
        let (c, h, w) = (dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        Conv2dGeometry::new(c, h, w, self.kernel, self.stride, self.pad)
    }
}

impl Module for Conv2d {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        let geo = self.geometry(tape.value(x));
        tape.conv2d(x, params[0], params[1], geo)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        let fan = self.in_channels * self.kernel * self.kernel;
        vec![vec![self.out_channels, fan], vec![self.out_channels]]
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        let fan = self.in_channels * self.kernel * self.kernel;
        vec![
            kaiming(&[self.out_channels, fan], fan, rng),
            Tensor::zeros(&[self.out_channels]),
        ]
    }
}

/// The tail of a ConvNet block over `(N, C, H, W) -> (N, C, H/2, W/2)`:
/// instance normalization with affine parameters, ReLU, then non-overlapping
/// 2×2 average pooling — the `[N, A, P]` of the paper's `[W, N, A, P]`
/// block.
///
/// Each `(n, c)` plane is normalized by its own spatial mean/variance
/// (`eps = 1e-5`) and scaled by `γ[c]` and shifted by `β[c]`, matching the
/// `IN` module of the paper's ConvNet. The arithmetic is
/// [`Tape::norm_relu_pool`]: the three layers' chains of primitives on
/// every tape. Behind its [`Conv2d`] as one [`ConvBlock`] it is part of one
/// fused node where no gradient is differentiated again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormReluPool {
    channels: usize,
    eps: f32,
}

impl NormReluPool {
    /// Norm, ReLU and 2×2 pool over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        NormReluPool {
            channels,
            eps: 1e-5,
        }
    }
}

impl Module for NormReluPool {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        let dims = tape.value(x).dims().to_vec();
        assert_eq!(dims.len(), 4, "NormReluPool expects (N, C, H, W)");
        assert_eq!(dims[1], self.channels, "NormReluPool channel mismatch");
        tape.norm_relu_pool(x, params[0], params[1], self.eps)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        vec![vec![self.channels], vec![self.channels]]
    }

    fn init(&self, _rng: &mut Rng) -> Vec<Tensor> {
        vec![
            Tensor::ones(&[self.channels]),
            Tensor::zeros(&[self.channels]),
        ]
    }
}

/// One ConvNet block, `[W, N, A, P]`: a [`Conv2d`] and its
/// [`NormReluPool`] as one module over `(N, Cin, H, W) -> (N, Cout, OH/2,
/// OW/2)`, with their parameters in their order, `[W, b, γ, β]`, and
/// their initialisation.
///
/// The arithmetic is [`Tape::conv_norm_relu_pool`]: the two layers'
/// chains where a gradient may be differentiated again, one node
/// elsewhere, whose pre-norm map stays inside it position-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvBlock {
    conv: Conv2d,
    tail: NormReluPool,
}

impl ConvBlock {
    /// A block of `conv` followed by its norm·ReLU·pool tail.
    pub fn new(conv: Conv2d) -> Self {
        ConvBlock {
            conv,
            tail: NormReluPool::new(conv.out_channels),
        }
    }
}

impl Module for ConvBlock {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        let geo = self.conv.geometry(tape.value(x));
        let [w, b, gamma, beta] = params.try_into().expect("a block has four parameters");
        tape.conv_norm_relu_pool(x, [w, b, gamma, beta], geo, self.tail.eps)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        [self.conv.param_shapes(), self.tail.param_shapes()].concat()
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        [self.conv.init(rng), self.tail.init(rng)].concat()
    }
}

/// Elementwise rectified linear unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Relu;

impl Module for Relu {
    fn forward(&self, tape: &mut Tape, _params: &[Var], x: Var) -> Var {
        tape.relu(x)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        Vec::new()
    }

    fn init(&self, _rng: &mut Rng) -> Vec<Tensor> {
        Vec::new()
    }
}

/// Flattens `(N, C, H, W)` (or any rank ≥ 2) into `(N, rest)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flatten;

impl Module for Flatten {
    fn forward(&self, tape: &mut Tape, _params: &[Var], x: Var) -> Var {
        let dims = tape.value(x).dims().to_vec();
        assert!(dims.len() >= 2, "Flatten expects rank >= 2");
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        tape.reshape(x, &[n, rest])
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        Vec::new()
    }

    fn init(&self, _rng: &mut Rng) -> Vec<Tensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_inference;
    use qd_autograd::check::assert_grads_close;

    #[test]
    fn linear_matches_hand_computation() {
        let layer = Linear::new(2, 2);
        let params = vec![
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            Tensor::from_vec(vec![0.5, -0.5], &[2]),
        ];
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = forward_inference(&layer, &params, &x);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn conv_preserves_spatial_dims_with_same_padding() {
        let layer = Conv2d::same3x3(3, 8);
        let params = layer.init(&mut Rng::seed_from(1));
        let x = Tensor::randn(&[2, 3, 8, 8], &mut Rng::seed_from(2));
        let y = forward_inference(&layer, &params, &x);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn instance_norm_normalizes_each_plane() {
        // Ahead of the ReLU and the pool each (n, c) plane is ~zero-mean
        // and ~unit-variance; the layer's output is the mean of each 2x2
        // window of its positive part.
        let layer = NormReluPool::new(2);
        let params = layer.init(&mut Rng::seed_from(0));
        let x = Tensor::randn(&[3, 2, 4, 4], &mut Rng::seed_from(3)).scale(5.0);
        let y = forward_inference(&layer, &params, &x);
        let mut tape = Tape::inference();
        let [xv, gamma, beta] = [&x, &params[0], &params[1]].map(|t| tape.constant(t.clone()));
        let normed = tape.instance_norm(xv, gamma, beta, 1e-5);
        let normed = tape.value(normed);
        for p in 0..6 {
            let plane = &normed.data()[p * 16..(p + 1) * 16];
            let mean: f32 = plane.iter().sum::<f32>() / 16.0;
            let var: f32 = plane.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "plane {p} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "plane {p} var {var}");
            for (i, pooled) in y.data()[p * 4..(p + 1) * 4].iter().enumerate() {
                let corner = (i / 2) * 8 + (i % 2) * 2;
                let window = [0, 1, 4, 5].map(|d| plane[corner + d].max(0.0));
                let want = window.iter().fold(0.0f32, |acc, v| acc + v) * 0.25;
                assert_eq!(pooled.to_bits(), want.to_bits(), "plane {p} window {i}");
            }
        }
    }

    #[test]
    fn instance_norm_gradcheck() {
        let layer = NormReluPool::new(2);
        let x = Tensor::randn(&[1, 2, 2, 2], &mut Rng::seed_from(4));
        let gamma = Tensor::from_vec(vec![1.5, 0.5], &[2]);
        let beta = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        assert_grads_close(
            move |t, vs| {
                let y = layer.forward(t, &vs[1..3], vs[0]);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            &[x, gamma, beta],
            8e-2,
        );
    }

    #[test]
    fn conv_gradcheck() {
        let layer = Conv2d::new(1, 2, 3, 1, 1);
        let x = Tensor::randn(&[1, 1, 4, 4], &mut Rng::seed_from(5)).scale(0.5);
        let params = layer.init(&mut Rng::seed_from(6));
        assert_grads_close(
            move |t, vs| {
                let y = layer.forward(t, &vs[1..3], vs[0]);
                let sq = t.mul(y, y);
                t.sum_all(sq)
            },
            &[x, params[0].clone(), params[1].clone()],
            5e-2,
        );
    }

    /// A block's parameters are its convolution's and then its tail's,
    /// drawn as those two layers draw them, and its output is theirs.
    #[test]
    fn a_block_is_its_convolution_then_its_tail() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (conv, tail) = (Conv2d::same3x3(3, 5), NormReluPool::new(5));
        let block = ConvBlock::new(conv);
        assert_eq!(
            block.param_shapes(),
            [conv.param_shapes(), tail.param_shapes()].concat()
        );
        let params = block.init(&mut Rng::seed_from(8));
        let mut rng = Rng::seed_from(8);
        let apart = [conv.init(&mut rng), tail.init(&mut rng)].concat();
        assert_eq!(
            params.iter().map(bits).collect::<Vec<_>>(),
            apart.iter().map(bits).collect::<Vec<_>>()
        );
        let x = Tensor::randn(&[2, 3, 6, 6], &mut Rng::seed_from(9));
        let y = forward_inference(&block, &params, &x);
        let h = forward_inference(&conv, &params[..2], &x);
        assert_eq!(bits(&y), bits(&forward_inference(&tail, &params[2..], &h)));
        assert_eq!(y.dims(), &[2, 5, 3, 3]);
    }

    #[test]
    fn pooling_halves_dims() {
        let layer = NormReluPool::new(3);
        let params = layer.init(&mut Rng::seed_from(0));
        let x = Tensor::randn(&[1, 3, 8, 8], &mut Rng::seed_from(7));
        let y = forward_inference(&layer, &params, &x);
        assert_eq!(y.dims(), &[1, 3, 4, 4]);
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = forward_inference(&Flatten, &[], &x);
        assert_eq!(y.dims(), &[2, 48]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
        let y = forward_inference(&Relu, &[], &x);
        assert_eq!(y.data(), &[0.0, 2.0]);
    }
}
