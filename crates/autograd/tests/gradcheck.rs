//! Finite-difference validation of every differentiable op, plus
//! second-order checks that mirror the gradient-matching pattern used by
//! QuickDrop's distillation.

use qd_autograd::check::{assert_grads_close, numeric_grad};
use qd_autograd::{Tape, Var};
use qd_tensor::rng::Rng;
use qd_tensor::{Conv2dGeometry, Tensor};

/// Random tensor with entries bounded away from ReLU/sqrt kinks.
fn smooth_randn(shape: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::randn(shape, rng).map(|v| {
        let v = v * 0.5;
        if v.abs() < 0.15 {
            v + 0.3 * v.signum() + if v == 0.0 { 0.3 } else { 0.0 }
        } else {
            v
        }
    })
}

#[test]
fn polynomial_first_and_second_derivative() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(3.0));
    let x2 = tape.mul(x, x);
    let y = tape.mul(x2, x);
    let dy = tape.grad(y, &[x])[0];
    assert!((tape.value(dy).item() - 27.0).abs() < 1e-4); // 3x² = 27
    let d2y = tape.grad(dy, &[x])[0];
    assert!((tape.value(d2y).item() - 18.0).abs() < 1e-4); // 6x = 18
    let d3y = tape.grad(d2y, &[x])[0];
    assert!((tape.value(d3y).item() - 6.0).abs() < 1e-4); // 6
}

#[test]
fn elementwise_ops_gradcheck() {
    let mut rng = Rng::seed_from(1);
    let a = smooth_randn(&[3, 4], &mut rng);
    let b = smooth_randn(&[3, 4], &mut rng).map(|v| v + 2.0f32.copysign(v)); // keep |b| large
    assert_grads_close(
        |t, vs| {
            let s = t.add(vs[0], vs[1]);
            let m = t.mul(s, vs[0]);
            let d = t.div(m, vs[1]);
            let n = t.neg(d);
            let sc = t.scale(n, 0.5);
            let sh = t.add_scalar(sc, 1.0);
            t.sum_all(sh)
        },
        &[a, b],
        1e-2,
    );
}

#[test]
fn sub_and_mean_gradcheck() {
    let mut rng = Rng::seed_from(2);
    let a = smooth_randn(&[5], &mut rng);
    let b = smooth_randn(&[5], &mut rng);
    assert_grads_close(
        |t, vs| {
            let d = t.sub(vs[0], vs[1]);
            let sq = t.mul(d, d);
            let total = t.sum_all(sq);
            t.scale(total, 1.0 / 5.0)
        },
        &[a, b],
        1e-2,
    );
}

#[test]
fn matmul_gradcheck() {
    let mut rng = Rng::seed_from(3);
    let a = smooth_randn(&[3, 4], &mut rng);
    let b = smooth_randn(&[4, 2], &mut rng);
    assert_grads_close(
        |t, vs| {
            let y = t.matmul(vs[0], vs[1]);
            let sq = t.mul(y, y);
            t.sum_all(sq)
        },
        &[a, b],
        2e-2,
    );
}

#[test]
fn matmul_tn_and_nt_gradcheck() {
    let mut rng = Rng::seed_from(33);
    // Ragged against the kernel's 4x8 tile on purpose.
    let a = smooth_randn(&[5, 3], &mut rng);
    let b = smooth_randn(&[5, 9], &mut rng);
    assert_grads_close(
        |t, vs| {
            let y = t.matmul_tn(vs[0], vs[1]); // (3, 9)
            let sq = t.mul(y, y);
            t.sum_all(sq)
        },
        &[a, b],
        5e-2,
    );
    let a = smooth_randn(&[5, 3], &mut rng);
    let b = smooth_randn(&[9, 3], &mut rng);
    assert_grads_close(
        |t, vs| {
            let y = t.matmul_nt(vs[0], vs[1]); // (5, 9)
            let sq = t.mul(y, y);
            t.sum_all(sq)
        },
        &[a, b],
        5e-2,
    );
}

#[test]
fn gemm_family_matches_the_transpose_composites_bit_for_bit() {
    // Values, first-order gradients and gradient-of-gradient of Aᵀ·B and
    // A·Bᵀ against the recorded transpose2 + matmul they replace: the
    // family is closed under vjp, so equality must hold at every order.
    let mut rng = Rng::seed_from(34);
    let a = Tensor::randn(&[6, 5], &mut rng);
    let b = Tensor::randn(&[6, 11], &mut rng);
    let c = Tensor::randn(&[11, 5], &mut rng);
    let run = |fused: bool| -> Vec<Vec<u32>> {
        let mut t = Tape::new();
        let (av, bv, cv) = (t.leaf(a.clone()), t.leaf(b.clone()), t.leaf(c.clone()));
        // tn: (5, 11); nt: (6, 11); mixed = nt · tnᵀ: (6, 5), so every
        // input receives more than one contribution.
        let (tn, nt, mixed) = if fused {
            let tn = t.matmul_tn(av, bv);
            let nt = t.matmul_nt(av, cv);
            (tn, nt, t.matmul_nt(nt, tn))
        } else {
            let at = t.transpose2(av);
            let tn = t.matmul(at, bv);
            let ct = t.transpose2(cv);
            let nt = t.matmul(av, ct);
            let tnt = t.transpose2(tn);
            (tn, nt, t.matmul(nt, tnt))
        };
        let sq = t.mul(mixed, mixed);
        let loss = t.sum_all(sq);
        let first = t.grad(loss, &[av, bv, cv]);
        let gg = t.mul(first[0], first[0]);
        let phi = t.sum_all(gg);
        let second = t.grad(phi, &[av, bv, cv]);
        [tn, nt]
            .iter()
            .chain(&first)
            .chain(&second)
            .map(|v| t.value(*v).data().iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(run(true), run(false));
}

/// The gradient-matching shape of a second-order check: with
/// `φ = ‖∂L/∂inputs[inner]‖²`, compares the tape's `∂φ/∂inputs[outer]`
/// (a gradient of a gradient) against central differences of `φ`.
fn assert_second_order_close(
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    inputs: &[Tensor],
    (inner, outer): (usize, usize),
    tol: f32,
) {
    let phi = |t: &mut Tape, tensors: &[Tensor]| -> (Vec<Var>, Var) {
        let vs: Vec<Var> = tensors.iter().map(|x| t.leaf(x.clone())).collect();
        let loss = build(t, &vs);
        let g = t.grad(loss, &[vs[inner]])[0];
        let gg = t.mul(g, g);
        (vs, t.sum_all(gg))
    };
    let numeric = numeric_grad(
        |tensors| {
            let mut t = Tape::new();
            let (_, out) = phi(&mut t, tensors);
            t.value(out).item()
        },
        inputs,
        outer,
        1e-3,
    );
    let mut t = Tape::new();
    let (vs, out) = phi(&mut t, inputs);
    let analytic = t.grad(out, &[vs[outer]])[0];
    let gap = t.value(analytic).max_abs_diff(&numeric);
    assert!(
        gap < tol,
        "second-order gap {gap} (inner {inner}, outer {outer})"
    );
}

#[test]
fn second_order_through_matmul_tn_and_nt() {
    let mut rng = Rng::seed_from(35);
    // A linear layer x·Wᵀ under a smooth nonlinearity, differentiated the
    // way distillation does: inner gradient w.r.t. W, outer w.r.t. x.
    let x = smooth_randn(&[3, 5], &mut rng);
    let w = smooth_randn(&[9, 5], &mut rng).scale(0.5);
    let layer = |t: &mut Tape, vs: &[Var]| {
        let y = t.matmul_nt(vs[0], vs[1]);
        let act = t.tanh(y);
        let sq = t.mul(act, act);
        t.sum_all(sq)
    };
    assert_second_order_close(layer, &[x.clone(), w.clone()], (1, 0), 5e-2);
    assert_second_order_close(layer, &[x, w], (0, 1), 5e-2);

    let a = smooth_randn(&[5, 3], &mut rng).scale(0.5);
    let b = smooth_randn(&[5, 9], &mut rng).scale(0.5);
    let gram = |t: &mut Tape, vs: &[Var]| {
        let y = t.matmul_tn(vs[0], vs[1]);
        let act = t.tanh(y);
        let sq = t.mul(act, act);
        t.sum_all(sq)
    };
    assert_second_order_close(gram, &[a.clone(), b.clone()], (0, 1), 5e-2);
    assert_second_order_close(gram, &[a, b], (1, 0), 5e-2);
}

#[test]
fn constant_operands_get_no_contribution_nodes() {
    // x is data (a constant): backward must not build dX = dY·W for it.
    let mut rng = Rng::seed_from(36);
    let mut grad_nodes = |x_is_leaf: bool| {
        let mut t = Tape::new();
        let x = Tensor::randn(&[4, 3], &mut rng);
        let xv = if x_is_leaf { t.leaf(x) } else { t.constant(x) };
        let w = t.leaf(Tensor::randn(&[2, 3], &mut rng));
        let y = t.matmul_nt(xv, w);
        let sq = t.mul(y, y);
        let loss = t.sum_all(sq);
        let before = t.len();
        let g = t.grad(loss, &[w])[0];
        assert_eq!(t.value(g).dims(), &[2, 3]);
        t.len() - before
    };
    let (constant, leaf) = (grad_nodes(false), grad_nodes(true));
    assert!(constant < leaf, "{constant} nodes vs {leaf}");
}

#[test]
fn transpose_gradcheck() {
    let mut rng = Rng::seed_from(4);
    let a = smooth_randn(&[2, 5], &mut rng);
    assert_grads_close(
        |t, vs| {
            let at = t.transpose2(vs[0]);
            let y = t.matmul(vs[0], at);
            t.sum_all(y)
        },
        &[a],
        2e-2,
    );
}

#[test]
fn relu_gradcheck_away_from_kink() {
    let a = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0, 3.0, -1.0], &[2, 3]);
    assert_grads_close(
        |t, vs| {
            let r = t.relu(vs[0]);
            let sq = t.mul(r, r);
            t.sum_all(sq)
        },
        &[a],
        1e-2,
    );
}

#[test]
fn tanh_sigmoid_gradcheck() {
    let mut rng = Rng::seed_from(31);
    let a = smooth_randn(&[2, 4], &mut rng);
    assert_grads_close(
        |t, vs| {
            let th = t.tanh(vs[0]);
            let sg = t.sigmoid(vs[0]);
            let m = t.mul(th, sg);
            t.sum_all(m)
        },
        &[a],
        1e-2,
    );
}

#[test]
fn tanh_second_order_matches_numeric() {
    // d²/dx² of sum(tanh(x)) = -2 tanh(x)(1 - tanh²(x)).
    let mut tape = Tape::new();
    let x0 = 0.7f32;
    let x = tape.leaf(Tensor::scalar(x0));
    let y = tape.tanh(x);
    let g = tape.grad(y, &[x])[0];
    let h = tape.grad(g, &[x])[0];
    let t = x0.tanh();
    let expected = -2.0 * t * (1.0 - t * t);
    assert!((tape.value(h).item() - expected).abs() < 1e-4);
}

#[test]
fn sqrt_exp_ln_gradcheck() {
    let a = Tensor::from_vec(vec![0.5, 1.0, 2.0, 4.0], &[4]);
    assert_grads_close(
        |t, vs| {
            let s = t.sqrt(vs[0]);
            let e = t.exp(s);
            let l = t.ln(e);
            let m = t.mul(l, e);
            t.sum_all(m)
        },
        &[a],
        2e-2,
    );
}

#[test]
fn sum_broadcast_rows_cols_gradcheck() {
    let mut rng = Rng::seed_from(5);
    let a = smooth_randn(&[3, 4], &mut rng);
    assert_grads_close(
        |t, vs| {
            let r = t.sum_rows(vs[0]); // (4,)
            let c = t.sum_cols(vs[0]); // (3,)
            let br = t.broadcast_rows(r, 3); // (3,4)
            let bc = t.broadcast_cols(c, 4); // (3,4)
            let m = t.mul(br, bc);
            let mm = t.mul(m, vs[0]);
            t.sum_all(mm)
        },
        &[a],
        3e-2,
    );
}

/// A linear layer with its bias, under a smooth nonlinearity, with the
/// bias added by `add_row_bias` or by the pair it replaces.
fn biased_layer(t: &mut Tape, vs: &[Var], fused: bool) -> Var {
    let y = t.matmul_nt(vs[0], vs[1]);
    let yb = if fused {
        t.add_row_bias(y, vs[2])
    } else {
        let rows = t.value(y).dims()[0];
        let bb = t.broadcast_rows(vs[2], rows);
        t.add(y, bb)
    };
    let act = t.tanh(yb);
    let sq = t.mul(act, act);
    t.sum_all(sq)
}

#[test]
fn add_row_bias_gradcheck_first_and_second_order() {
    let mut rng = Rng::seed_from(51);
    let x = smooth_randn(&[3, 5], &mut rng);
    let w = smooth_randn(&[4, 5], &mut rng).scale(0.5);
    let b = smooth_randn(&[4], &mut rng);
    let inputs = [x, w, b];
    let layer = |t: &mut Tape, vs: &[Var]| biased_layer(t, vs, true);
    assert_grads_close(layer, &inputs, 3e-2);
    // Inner gradient w.r.t. the bias and the weights (distillation's
    // shape), outer w.r.t. the data and the bias itself.
    assert_second_order_close(layer, &inputs, (2, 0), 5e-2);
    assert_second_order_close(layer, &inputs, (1, 2), 5e-2);
    assert_second_order_close(layer, &inputs, (2, 2), 5e-2);
}

proptest::proptest! {
    /// Values, gradients and gradients of gradients of `add_row_bias`
    /// against `broadcast_rows` + `add`: the broadcast had one consumer, so
    /// no sum is re-associated at any order (DESIGN.md §4.7).
    #[test]
    fn add_row_bias_matches_the_composed_pair_bit_for_bit(
        m in 1usize..7,
        n in 1usize..10,
        k in 1usize..6,
        seed in 0u64..100_000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let inputs = [
            Tensor::randn(&[m, k], &mut rng),
            Tensor::randn(&[n, k], &mut rng),
            Tensor::randn(&[n], &mut rng),
        ];
        let run = |fused: bool| -> Vec<Vec<u32>> {
            let mut t = Tape::new();
            let vs: Vec<Var> = inputs.iter().map(|x| t.leaf(x.clone())).collect();
            let loss = biased_layer(&mut t, &vs, fused);
            let first = t.grad(loss, &vs);
            let mut phi = t.sum_all(first[0]);
            for &g in &first[1..] {
                let gg = t.mul(g, g);
                let s = t.sum_all(gg);
                phi = t.add(phi, s);
            }
            let second = t.grad(phi, &vs);
            std::iter::once(&loss)
                .chain(&first)
                .chain(&second)
                .map(|v| t.value(*v).data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(run(true), run(false));
    }
}

#[test]
fn broadcast_to_gradcheck() {
    let a = Tensor::from_vec(vec![0.7], &[1]);
    assert_grads_close(
        |t, vs| {
            let s = t.sum_all(vs[0]);
            let b = t.broadcast_to(s, &[2, 3]);
            let sq = t.mul(b, b);
            t.sum_all(sq)
        },
        &[a],
        1e-2,
    );
}

#[test]
fn reshape_gradcheck() {
    let mut rng = Rng::seed_from(6);
    let a = smooth_randn(&[2, 6], &mut rng);
    assert_grads_close(
        |t, vs| {
            let r = t.reshape(vs[0], &[3, 4]);
            let sq = t.mul(r, r);
            t.sum_all(sq)
        },
        &[a],
        1e-2,
    );
}

#[test]
fn conv_composite_gradcheck() {
    // conv2d = rows_to_nchw(im2col(x) · Wᵀ): check grads w.r.t. both x and W.
    let mut rng = Rng::seed_from(7);
    let x = smooth_randn(&[2, 2, 4, 4], &mut rng);
    let w = smooth_randn(&[3, 2 * 3 * 3], &mut rng).scale(0.3);
    let geo = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
    assert_grads_close(
        move |t, vs: &[Var]| {
            let cols = t.im2col(vs[0], geo);
            let wt = t.transpose2(vs[1]);
            let y = t.matmul(cols, wt); // (N*OH*OW, Cout)
            let img = t.rows_to_nchw(y, 2, 3, 4, 4);
            let sq = t.mul(img, img);
            t.sum_all(sq)
        },
        &[x, w],
        5e-2,
    );
}

#[test]
fn col2im_gradcheck() {
    let mut rng = Rng::seed_from(8);
    let geo = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
    let cols = smooth_randn(&[4, 4], &mut rng);
    assert_grads_close(
        move |t, vs: &[Var]| {
            let img = t.col2im(vs[0], geo);
            let sq = t.mul(img, img);
            t.sum_all(sq)
        },
        &[cols],
        2e-2,
    );
}

#[test]
fn avg_pool_and_unpool_gradcheck() {
    let mut rng = Rng::seed_from(9);
    let x = smooth_randn(&[1, 2, 4, 4], &mut rng);
    assert_grads_close(
        |t, vs| {
            let p = t.avg_pool2d(vs[0], 2, 4, 4, 2); // (1,2,2,2)
            let u = t.avg_unpool2d(p, 2, 2, 2, 2); // (1,2,4,4)
            let m = t.mul(u, vs[0]);
            t.sum_all(m)
        },
        &[x],
        2e-2,
    );
}

#[test]
fn spatial_and_channel_ops_gradcheck() {
    let mut rng = Rng::seed_from(10);
    let x = smooth_randn(&[2, 3, 2, 2], &mut rng);
    let gamma = smooth_randn(&[3], &mut rng);
    assert_grads_close(
        |t, vs| {
            let s = t.spatial_sum(vs[0], 3, 2, 2); // (6,)
            let mean = t.scale(s, 0.25);
            let bc = t.spatial_broadcast(mean, 3, 2, 2); // (2,3,2,2)
            let centered = t.sub(vs[0], bc);
            let g = t.channel_broadcast(vs[1], 2, 2, 2);
            let y = t.mul(centered, g);
            let cs = t.channel_sum(y, 3, 2, 2); // (3,)
            let sq = t.mul(cs, cs);
            t.sum_all(sq)
        },
        &[x, gamma],
        5e-2,
    );
}

#[test]
fn log_softmax_gradcheck() {
    let mut rng = Rng::seed_from(11);
    let logits = smooth_randn(&[4, 5], &mut rng);
    let target = {
        let mut t = Tensor::zeros(&[4, 5]);
        for i in 0..4 {
            t.data_mut()[i * 5 + i % 5] = 1.0;
        }
        t
    };
    assert_grads_close(
        move |t, vs: &[Var]| {
            let ls = t.log_softmax(vs[0]);
            let tt = t.constant(target.clone());
            let picked = t.mul(ls, tt);
            let s = t.sum_all(picked);
            let n = t.neg(s);
            t.scale(n, 0.25)
        },
        &[logits],
        1e-2,
    );
}

#[test]
fn second_order_matches_numeric_gradient_of_gradient() {
    // The distillation pattern: phi(x) = || dL/dx ||² where L = sum((x·x)²)-ish.
    // Analytic: build g = grad(L, x) on the tape, then grad(sum(g*g), x),
    // and compare against central differences of the *analytic inner
    // gradient* squared-norm.
    let mut rng = Rng::seed_from(12);
    let x0 = smooth_randn(&[2, 2], &mut rng);
    let w = smooth_randn(&[2, 2], &mut rng);

    let inner_sq_norm = |xs: &[Tensor]| -> f32 {
        let mut t = Tape::new();
        let x = t.leaf(xs[0].clone());
        let wc = t.constant(w.clone());
        let y = t.matmul(x, wc);
        let sq = t.mul(y, y);
        let loss = t.sum_all(sq);
        let g = t.grad(loss, &[x])[0];
        let gg = t.mul(g, g);
        let phi = t.sum_all(gg);
        t.value(phi).item()
    };

    let numeric = numeric_grad(inner_sq_norm, std::slice::from_ref(&x0), 0, 1e-3);

    let mut t = Tape::new();
    let x = t.leaf(x0);
    let wc = t.constant(w.clone());
    let y = t.matmul(x, wc);
    let sq = t.mul(y, y);
    let loss = t.sum_all(sq);
    let g = t.grad(loss, &[x])[0];
    let gg = t.mul(g, g);
    let phi = t.sum_all(gg);
    let hess = t.grad(phi, &[x])[0];

    let gap = t.value(hess).max_abs_diff(&numeric);
    assert!(gap < 5e-2, "second-order gap {gap}");
}

#[test]
fn second_order_through_log_softmax() {
    // The distillation objective differentiates through cross-entropy
    // gradients; verify grad-of-grad through the log-softmax vjp exactly.
    let mut rng = Rng::seed_from(13);
    let x0 = smooth_randn(&[2, 3], &mut rng);
    let target = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);

    let phi = |xs: &[Tensor]| -> f32 {
        let mut t = Tape::new();
        let x = t.leaf(xs[0].clone());
        let tt = t.constant(target.clone());
        let ls = t.log_softmax(x);
        let picked = t.mul(ls, tt);
        let s = t.sum_all(picked);
        let loss = t.neg(s);
        let g = t.grad(loss, &[x])[0];
        let gg = t.mul(g, g);
        let out = t.sum_all(gg);
        t.value(out).item()
    };
    let numeric = numeric_grad(phi, std::slice::from_ref(&x0), 0, 1e-3);

    let mut t = Tape::new();
    let x = t.leaf(x0);
    let tt = t.constant(target.clone());
    let ls = t.log_softmax(x);
    let picked = t.mul(ls, tt);
    let s = t.sum_all(picked);
    let loss = t.neg(s);
    let g = t.grad(loss, &[x])[0];
    let gg = t.mul(g, g);
    let out = t.sum_all(gg);
    let hess = t.grad(out, &[x])[0];
    let gap = t.value(hess).max_abs_diff(&numeric);
    assert!(gap < 5e-2, "second-order log-softmax gap {gap}");
}

#[test]
fn grad_of_unused_variable_is_zero() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(1.0));
    let z = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
    let y = tape.mul(x, x);
    let grads = tape.grad(y, &[x, z]);
    assert_eq!(tape.value(grads[1]).data(), &[0.0, 0.0]);
    assert_eq!(tape.value(grads[0]).item(), 2.0);
}

#[test]
fn constants_block_gradient_flow() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(2.0));
    let c = tape.constant(Tensor::scalar(5.0));
    let y = tape.mul(x, c);
    let g = tape.grad(y, &[x])[0];
    assert_eq!(tape.value(g).item(), 5.0);
}

#[test]
fn tape_reports_length_and_growth() {
    let mut tape = Tape::new();
    assert!(tape.is_empty());
    let x = tape.leaf(Tensor::scalar(1.0));
    let y = tape.mul(x, x);
    assert_eq!(tape.len(), 2);
    let before = tape.len();
    let _ = tape.grad(y, &[x]);
    assert!(
        tape.len() > before,
        "grad must emit nodes (higher-order support)"
    );
}

#[test]
fn repeated_grad_calls_are_consistent() {
    // Calling grad twice on the same loss yields equal values (the tape
    // is append-only; earlier adjoints are unaffected).
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]));
    let sq = tape.mul(x, x);
    let y = tape.sum_all(sq);
    let g1 = tape.grad(y, &[x])[0];
    let g2 = tape.grad(y, &[x])[0];
    assert_eq!(tape.value(g1).data(), tape.value(g2).data());
    assert_eq!(tape.value(g1).data(), &[2.0, -4.0, 1.0]);
}

#[test]
fn mixed_precision_free_ops_compose() {
    // reshape -> transpose -> reshape chains keep gradients exact.
    let mut rng = Rng::seed_from(21);
    let a = smooth_randn(&[2, 6], &mut rng);
    assert_grads_close(
        |t, vs| {
            let r = t.reshape(vs[0], &[4, 3]);
            let tr = t.transpose2(r);
            let back = t.reshape(tr, &[12]);
            let sq = t.mul(back, back);
            t.sum_all(sq)
        },
        &[a],
        1e-2,
    );
}

#[test]
fn gradients_accumulate_over_shared_subexpressions() {
    // y = x*x + x*x: dy/dx = 4x.
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(3.0));
    let a = tape.mul(x, x);
    let b = tape.mul(x, x);
    let y = tape.add(a, b);
    let g = tape.grad(y, &[x])[0];
    assert_eq!(tape.value(g).item(), 12.0);
}
