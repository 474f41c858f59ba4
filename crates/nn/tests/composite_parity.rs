//! `Linear` and `Conv2d` record `x · Wᵀ` as one `matmul_nt` node. These
//! tests hold them to the composite they replaced — a recorded
//! `transpose2(W)` followed by `matmul`, kept here as a test helper — bit
//! for bit, at first and second order, and check their second-order
//! gradients against finite differences.

use qd_autograd::check::numeric_grad;
use qd_autograd::{Tape, Var};
use qd_nn::{cross_entropy, Conv2d, ConvNet, Flatten, Linear, Module, NormReluPool, Sequential};
use qd_tensor::rng::Rng;
use qd_tensor::{Conv2dGeometry, Tensor};

/// `Linear` as it was first written: `x · transpose2(W) + b`.
struct CompositeLinear(Linear);

impl Module for CompositeLinear {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        let batch = tape.value(x).dims()[0];
        let wt = tape.transpose2(params[0]);
        let y = tape.matmul(x, wt);
        let bb = tape.broadcast_rows(params[1], batch);
        tape.add(y, bb)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.0.param_shapes()
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        self.0.init(rng)
    }
}

/// A 3x3 "same" `Conv2d` as it was first written:
/// `rows_to_nchw(im2col(x) · transpose2(W) + b)`.
struct CompositeConv3x3 {
    inner: Conv2d,
    out_channels: usize,
}

impl Module for CompositeConv3x3 {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        let dims = tape.value(x).dims().to_vec();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geo = Conv2dGeometry::new(c, h, w, 3, 1, 1);
        let cols = tape.im2col(x, geo);
        let wt = tape.transpose2(params[0]);
        let y = tape.matmul(cols, wt);
        let bb = tape.broadcast_rows(params[1], geo.rows(n));
        let yb = tape.add(y, bb);
        tape.rows_to_nchw(yb, n, self.out_channels, geo.out_h, geo.out_w)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.inner.param_shapes()
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        self.inner.init(rng)
    }
}

/// `ConvNet::new(in_channels, hw, blocks, filters, classes)` rebuilt from
/// the composite layers.
fn composite_convnet(
    in_channels: usize,
    hw: usize,
    blocks: usize,
    filters: usize,
    classes: usize,
) -> Sequential {
    let mut children: Vec<Box<dyn Module>> = Vec::new();
    let mut c = in_channels;
    for _ in 0..blocks {
        children.push(Box::new(CompositeConv3x3 {
            inner: Conv2d::same3x3(c, filters),
            out_channels: filters,
        }));
        children.push(Box::new(NormReluPool::new(filters)));
        c = filters;
    }
    children.push(Box::new(Flatten));
    let final_hw = hw >> blocks;
    children.push(Box::new(CompositeLinear(Linear::new(
        filters * final_hw * final_hw,
        classes,
    ))));
    Sequential::new(children)
}

fn bits(tape: &Tape, vars: &[Var]) -> Vec<Vec<u32>> {
    vars.iter()
        .map(|v| tape.value(*v).data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// One training step's parameter gradients, then the distillation-shaped
/// second-order gradient `∂‖∂L/∂θ‖²/∂x`, as bits; plus the tape length.
fn step_bits(
    model: &dyn Module,
    params: &[Tensor],
    x: &Tensor,
    labels: &[usize],
) -> (Vec<Vec<u32>>, usize) {
    let mut tape = Tape::new();
    let p: Vec<Var> = params.iter().map(|t| tape.leaf(t.clone())).collect();
    let xv = tape.leaf(x.clone());
    let logits = model.forward(&mut tape, &p, xv);
    let loss = cross_entropy(&mut tape, logits, labels, 5);
    let grads = tape.grad(loss, &p);
    let mut out = bits(&tape, &[logits, loss]);
    out.extend(bits(&tape, &grads));
    let mut phi: Option<Var> = None;
    for g in grads {
        let gg = tape.mul(g, g);
        let s = tape.sum_all(gg);
        phi = Some(match phi {
            Some(acc) => tape.add(acc, s),
            None => s,
        });
    }
    let phi = phi.expect("the model has parameters");
    let second = tape.grad(phi, &[xv]);
    out.extend(bits(&tape, &second));
    (out, tape.len())
}

#[test]
fn convnet_step_is_bit_equal_to_the_transpose_matmul_composite() {
    let mut rng = Rng::seed_from(21);
    // 12x12 inputs and 5 filters: every product is ragged against the
    // kernel's 4x8 tile.
    let net = ConvNet::new(3, 12, 2, 5, 5);
    let composite = composite_convnet(3, 12, 2, 5, 5);
    assert_eq!(net.param_shapes(), composite.param_shapes());
    let params = net.init(&mut rng);
    let x = Tensor::randn(&[3, 3, 12, 12], &mut rng);
    let labels = [0, 3, 4];
    let (fused, fused_nodes) = step_bits(&net, &params, &x, &labels);
    let (reference, reference_nodes) = step_bits(&composite, &params, &x, &labels);
    assert_eq!(fused, reference);
    assert!(
        fused_nodes < reference_nodes,
        "the transposes should be off the tape: {fused_nodes} vs {reference_nodes} nodes"
    );
}

/// With `φ = Σ‖∂L/∂params‖²`, compares the tape's `∂φ/∂x` against central
/// differences of `φ`: a gradient through a gradient through `layer`.
fn assert_second_order_close(layer: &dyn Module, params: &[Tensor], x: &Tensor, tol: f32) {
    let phi = |t: &mut Tape, x: &Tensor| -> (Var, Var) {
        let p: Vec<Var> = params.iter().map(|w| t.leaf(w.clone())).collect();
        let xv = t.leaf(x.clone());
        let y = layer.forward(t, &p, xv);
        let act = t.tanh(y);
        let sq = t.mul(act, act);
        let loss = t.sum_all(sq);
        let g = t.grad(loss, &p[..1])[0];
        let gg = t.mul(g, g);
        (xv, t.sum_all(gg))
    };
    let numeric = numeric_grad(
        |xs| {
            let mut t = Tape::new();
            let (_, out) = phi(&mut t, &xs[0]);
            t.value(out).item()
        },
        std::slice::from_ref(x),
        0,
        1e-3,
    );
    let mut t = Tape::new();
    let (xv, out) = phi(&mut t, x);
    let analytic = t.grad(out, &[xv])[0];
    let gap = t.value(analytic).max_abs_diff(&numeric);
    assert!(gap < tol, "second-order gap {gap}");
}

#[test]
fn second_order_gradcheck_through_linear_and_conv2d() {
    let mut rng = Rng::seed_from(22);
    let linear = Linear::new(5, 3);
    let params = linear.init(&mut rng);
    let x = Tensor::randn(&[2, 5], &mut rng).scale(0.5);
    assert_second_order_close(&linear, &params, &x, 5e-2);

    let conv = Conv2d::new(2, 3, 3, 2, 1);
    let params: Vec<Tensor> = conv.init(&mut rng).iter().map(|w| w.scale(0.5)).collect();
    let x = Tensor::randn(&[1, 2, 5, 5], &mut rng).scale(0.5);
    assert_second_order_close(&conv, &params, &x, 5e-2);
}
