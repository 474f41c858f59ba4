//! The composites have two representations and one meaning: on a
//! first-order or inference tape `conv_norm_relu_pool`, `norm_relu_pool`,
//! `relu` and `conv2d` are fused nodes, on a recording tape chains of primitives, and values
//! and gradients agree to the bit — the chain being the oracle — over
//! random shapes, constant inputs, shared inputs and hostile values.

use proptest::prelude::*;
use qd_autograd::check::assert_first_order_grads_close;
use qd_autograd::{Tape, Var};
use qd_tensor::rng::Rng;
use qd_tensor::{Conv2dGeometry, Tensor, LANES};

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// [`bits`], but every NaN as the one NaN: which operand's sign and
/// payload a sum or product of two NaNs keeps is the instruction
/// selector's choice (IEEE 754 leaves it open), not an order — the
/// convention of `qd-tensor`'s kernel oracle. Only the block tail's cases
/// with NaN among its inputs compare this way.
fn bits_nan_as_one(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v };
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| canonical(v).to_bits()).collect(),
    )
}

/// Records `build` on a recording tape and reads `grad`, then on a
/// first-order tape and runs `into_grads`, and on an inference tape for
/// the forward value alone: the composite's output and every gradient
/// must be the recording tape's, bit for bit.
fn assert_kinds_agree(build: impl Fn(&mut Tape) -> (Var, Var, Vec<Var>)) {
    assert_kinds_agree_as(bits, build);
}

/// [`assert_kinds_agree`], comparing what `bits` makes of each tensor.
fn assert_kinds_agree_as(
    bits: fn(&Tensor) -> (Vec<usize>, Vec<u32>),
    build: impl Fn(&mut Tape) -> (Var, Var, Vec<Var>),
) {
    let mut recording = Tape::new();
    let (out, loss, xs) = build(&mut recording);
    let want_out = recording.value(out).clone();
    let want: Vec<Tensor> = recording
        .grad(loss, &xs)
        .into_iter()
        .map(|g| recording.value(g).clone())
        .collect();

    let mut inference = Tape::inference();
    let (out, _, _) = build(&mut inference);
    assert_eq!(bits(inference.value(out)), bits(&want_out), "inference");

    let mut first_order = Tape::first_order();
    let (out, loss, xs) = build(&mut first_order);
    assert_eq!(bits(first_order.value(out)), bits(&want_out), "forward");
    for (i, (got, want)) in first_order
        .into_grads(loss, &xs)
        .iter()
        .zip(&want)
        .enumerate()
    {
        assert_eq!(bits(got), bits(want), "gradient {i}");
    }
}

/// A leaf, or a constant when the case says this input needs no gradient.
fn input(tape: &mut Tape, value: Tensor, differentiable: bool) -> Var {
    if differentiable {
        tape.leaf(value)
    } else {
        tape.constant(value)
    }
}

/// `Σ out · weights`, so the composite's upstream is not all ones.
fn weighted_sum(tape: &mut Tape, out: Var, weights: Tensor) -> Var {
    let w = tape.constant(weights);
    let weighted = tape.mul(out, w);
    tape.sum_all(weighted)
}

/// Bit `i` of `mask`: the vendored proptest stand-in draws integers.
fn bit(mask: usize, i: usize) -> bool {
    mask >> i & 1 == 1
}

/// Values arithmetic treats specially.
const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    1.5,
    -2.5,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `h != w`, kernels 1, 3 and 5, channel counts on both sides of a
    /// tile, any subset of the inputs constant, and `x` read again after
    /// the convolution: its adjoint slot is then full when the rule hands
    /// over `x`'s contribution, last, as the chain's `im2col` node does.
    #[test]
    fn conv2d_equals_its_chain(
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..6,
        h in 3usize..8,
        w in 3usize..8,
        kernel in 0usize..3,
        stride in 1usize..3,
        pad in 0usize..3,
        differentiable in 0usize..8,
        read_again in 0usize..2,
        seed in 0u64..100_000,
    ) {
        let kernel = [1, 3, 5][kernel].min(h + 2 * pad).min(w + 2 * pad);
        let geo = Conv2dGeometry::new(cin, h, w, kernel, stride, pad);
        assert_kinds_agree(|tape| {
            let mut rng = Rng::seed_from(seed);
            let x = input(tape, Tensor::randn(&[n, cin, h, w], &mut rng), bit(differentiable, 0));
            let fan = cin * kernel * kernel;
            let weight = input(tape, Tensor::randn(&[cout, fan], &mut rng), bit(differentiable, 1));
            let bias = input(tape, Tensor::randn(&[cout], &mut rng), bit(differentiable, 2));
            let out = tape.conv2d(x, weight, bias, geo);
            let after = (read_again == 1).then(|| tape.tanh(x));
            let weights = Tensor::randn(&[n, cout, geo.out_h, geo.out_w], &mut rng);
            let mut loss = weighted_sum(tape, out, weights);
            if let Some(after) = after {
                let term = weighted_sum(tape, after, Tensor::randn(&[n, cin, h, w], &mut rng));
                loss = tape.add(loss, term);
            }
            (out, loss, vec![x, weight, bias])
        });
    }

    /// The block tail: `n = 1`, `hw = 4`, plane counts on both sides of
    /// the kernels' group width, any subset of `x`, `γ` and `β` constant,
    /// the pooled map read once or twice, `x` consumed before the block,
    /// after it (the norm's mean term then reaches a full slot on its
    /// own), both or neither — and, in half the cases, ±0, NaN and ±∞ among
    /// the scale, the shift, the upstreams and a few inputs, so that
    /// pre-activations land on ±0, NaN and ±∞ as well. Those cases compare
    /// every NaN as one; the rest compare every bit.
    #[test]
    fn norm_relu_pool_equals_its_chain(
        n in 1usize..4,
        c in 1usize..6,
        oh in 1usize..5,
        ow in 1usize..5,
        eps in 0.0f32..0.3,
        differentiable in 0usize..8,
        reads in 0usize..8,
        hostile in 0usize..2,
        seed in 0u64..100_000,
    ) {
        // A third of the cases run the two values layers use.
        let eps = if eps < 0.05 { 0.0 } else if eps < 0.1 { 1e-5 } else { eps };
        let (h, w) = (2 * oh, 2 * ow);
        let draw = |shape: &[usize], one_in: usize, rng: &mut Rng| {
            let mut t = Tensor::randn(shape, rng);
            if hostile == 1 {
                for v in t.data_mut() {
                    if rng.below(one_in) == 0 {
                        *v = SPECIALS[rng.below(SPECIALS.len())];
                    }
                }
            }
            t
        };
        let compare = if hostile == 1 { bits_nan_as_one } else { bits };
        assert_kinds_agree_as(compare, |tape| {
            let mut rng = Rng::seed_from(seed);
            let x = input(tape, draw(&[n, c, h, w], 40, &mut rng), bit(differentiable, 0));
            let gamma = input(tape, draw(&[c], 3, &mut rng), bit(differentiable, 1));
            let beta = input(tape, draw(&[c], 3, &mut rng), bit(differentiable, 2));
            let before = bit(reads, 2).then(|| tape.mul(x, x));
            let out = tape.norm_relu_pool(x, gamma, beta, eps);
            let after = bit(reads, 1).then(|| tape.tanh(x));
            let mut loss = weighted_sum(tape, out, draw(&[n, c, oh, ow], 4, &mut rng));
            if bit(reads, 0) {
                let again = weighted_sum(tape, out, draw(&[n, c, oh, ow], 4, &mut rng));
                loss = tape.add(loss, again);
            }
            for extra in [before, after].into_iter().flatten() {
                let term = weighted_sum(tape, extra, Tensor::randn(&[n, c, h, w], &mut rng));
                loss = tape.add(loss, term);
            }
            (out, loss, vec![x, gamma, beta])
        });
    }

    /// The whole block, chain against fused node: `Cout` up to `2·LANES + 3`
    /// (so up to 57 planes, a ragged last vector of lanes or none), stride
    /// 1 or 2, kernels 1 and 3, any subset of the five inputs constant, one
    /// variable as two of `b`, `γ` and `β` (the node hands its
    /// contributions over in the chain's order: `β`, `γ`, `b`, `W`, `x`),
    /// `x` read again after the block, and in half the cases ±0, NaN and
    /// ±∞ among the inputs, parameters and upstreams — those cases compare
    /// every NaN as one.
    #[test]
    fn conv_norm_relu_pool_equals_its_chain(
        n in 1usize..4,
        cin in 1usize..4,
        cout in 1usize..2 * LANES + 4,
        oh in 1usize..4,
        ow in 1usize..4,
        wide in 0usize..2,
        stride in 1usize..3,
        differentiable in 0usize..32,
        shared in 0usize..3,
        read_again in 0usize..2,
        hostile in 0usize..2,
        seed in 0u64..100_000,
    ) {
        let kernel = [1, 3][wide];
        let (h, w) = (2 * oh * stride, 2 * ow * stride);
        let geo = Conv2dGeometry::new(cin, h, w, kernel, stride, kernel / 2);
        assert_eq!((geo.out_h, geo.out_w), (2 * oh, 2 * ow));
        let draw = |shape: &[usize], one_in: usize, rng: &mut Rng| {
            let mut t = Tensor::randn(shape, rng);
            if hostile == 1 {
                for v in t.data_mut() {
                    if rng.below(one_in) == 0 {
                        *v = SPECIALS[rng.below(SPECIALS.len())];
                    }
                }
            }
            t
        };
        let compare = if hostile == 1 { bits_nan_as_one } else { bits };
        assert_kinds_agree_as(compare, |tape| {
            let mut rng = Rng::seed_from(seed);
            let x = input(tape, draw(&[n, cin, h, w], 40, &mut rng), bit(differentiable, 0));
            let fan = cin * kernel * kernel;
            let weight = input(tape, draw(&[cout, fan], 40, &mut rng), bit(differentiable, 1));
            let [bias, gamma, beta] = [2, 3, 4]
                .map(|i| input(tape, draw(&[cout], 6, &mut rng), bit(differentiable, i)));
            let (bias, beta) = match shared {
                1 => (bias, gamma),
                2 => (gamma, beta),
                _ => (bias, beta),
            };
            let out = tape.conv_norm_relu_pool(x, [weight, bias, gamma, beta], geo, 1e-5);
            let pooled = [n, cout, oh, ow];
            let mut loss = weighted_sum(tape, out, draw(&pooled, 4, &mut rng));
            if read_again == 1 {
                let after = tape.tanh(x);
                let term = weighted_sum(tape, after, Tensor::randn(&[n, cin, h, w], &mut rng));
                loss = tape.add(loss, term);
            }
            (out, loss, vec![x, weight, bias, gamma, beta])
        });
    }

    /// Constant planes (zero variance, `eps` alone under the root) and
    /// constant parameters. With whole numbers over `hw` a power of two
    /// every centred value is exactly `0`, so a zero shift puts every
    /// pre-activation on the ReLU's kink, `±0`, where the mask is `0`.
    #[test]
    fn norm_relu_pool_of_constant_tensors_equals_its_chain(
        n in 1usize..3,
        c in 1usize..6,
        side in 0usize..3,
        x0 in -4.0f32..4.0,
        whole in 0usize..2,
        g0 in -2.0f32..2.0,
        shift in 0usize..3,
        b0 in -2.0f32..2.0,
        seed in 0u64..100_000,
    ) {
        let side = [2, 4, 6][side];
        let x0 = if whole == 1 { x0.round() } else { x0 };
        let b0 = [0.0, -0.0, b0][shift];
        assert_kinds_agree(|tape| {
            let x = tape.leaf(Tensor::full(&[n, c, side, side], x0));
            let gamma = tape.leaf(Tensor::full(&[c], g0));
            let beta = tape.leaf(Tensor::full(&[c], b0));
            let out = tape.norm_relu_pool(x, gamma, beta, 1e-5);
            let weights = Tensor::randn(&[n, c, side / 2, side / 2], &mut Rng::seed_from(seed));
            (out, weighted_sum(tape, out, weights), vec![x, gamma, beta])
        });
    }

    /// ReLU's adjoint is a multiply by the 0/1 mask, so a negative
    /// upstream over a dead unit is `-0.0` and a non-finite one is NaN —
    /// in both representations.
    #[test]
    fn relu_equals_its_chain_under_hostile_upstreams(
        picks in proptest::collection::vec(0usize..64, 1..24),
        seed in 0u64..100_000,
    ) {
        let n = picks.len();
        let x: Vec<f32> = picks.iter().map(|p| SPECIALS[p % 8]).collect();
        let u: Vec<f32> = picks.iter().map(|p| SPECIALS[p / 8]).collect();
        assert_kinds_agree(|tape| {
            let x = tape.leaf(Tensor::from_vec(x.clone(), &[n]));
            let out = tape.relu(x);
            // A second consumer, so the rule's contribution is also added
            // into a slot that is already full.
            let noise = Tensor::randn(&[n], &mut Rng::seed_from(seed));
            let side = weighted_sum(tape, x, noise);
            let main = weighted_sum(tape, out, Tensor::from_vec(u.clone(), &[n]));
            (out, tape.add(main, side), vec![x])
        });
    }
}

fn smooth_randn(shape: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::randn(shape, rng).scale(0.5)
}

#[test]
fn fused_conv2d_gradcheck() {
    let mut rng = Rng::seed_from(32);
    let geo = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
    let x = smooth_randn(&[2, 2, 4, 4], &mut rng);
    let weight = smooth_randn(&[3, 18], &mut rng);
    let bias = smooth_randn(&[3], &mut rng);
    assert_first_order_grads_close(
        move |t, vs| {
            let y = t.conv2d(vs[0], vs[1], vs[2], geo);
            let sq = t.mul(y, y);
            t.sum_all(sq)
        },
        &[x, weight, bias],
        5e-2,
    );
}

#[test]
fn fused_norm_relu_pool_gradcheck() {
    let mut rng = Rng::seed_from(33);
    // Six planes of 4×2 pooled by 2: one group of four and two single ones.
    let x = smooth_randn(&[2, 3, 4, 2], &mut rng);
    let gamma = Tensor::from_vec(vec![1.5, 0.5, -0.8], &[3]);
    let beta = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
    let weights = smooth_randn(&[2, 3, 2, 1], &mut rng);
    assert_first_order_grads_close(
        move |t, vs| {
            let y = t.norm_relu_pool(vs[0], vs[1], vs[2], 1e-3);
            let sq = t.mul(y, y);
            weighted_sum(t, sq, weights.clone())
        },
        &[x, gamma, beta],
        8e-2,
    );
}

#[test]
fn fused_relu_gradcheck_away_from_the_kink() {
    let x = Tensor::from_vec(vec![-1.5, -0.4, 0.3, 0.9, 2.0, -2.2], &[2, 3]);
    assert_first_order_grads_close(
        |t, vs| {
            let r = t.relu(vs[0]);
            let sq = t.mul(r, r);
            t.sum_all(sq)
        },
        &[x],
        2e-2,
    );
}

/// A fused rule builds an adjoint only for an input that needs one: with
/// two of the three constant the sweep records two nodes fewer, and with
/// all three constant neither the block's three nor the adjoint of the
/// block's output is built.
#[test]
fn a_fused_rule_computes_no_gradient_for_a_constant_input() {
    let nodes_after_sweep = |differentiable: [bool; 3]| {
        let mut tape = Tape::first_order();
        let x = input(&mut tape, Tensor::ones(&[2, 2, 4, 4]), differentiable[0]);
        let gamma = input(&mut tape, Tensor::ones(&[2]), differentiable[1]);
        let beta = input(&mut tape, Tensor::ones(&[2]), differentiable[2]);
        let anchor = tape.leaf(Tensor::ones(&[2, 2, 2, 2]));
        let y = tape.norm_relu_pool(x, gamma, beta, 1e-5);
        let both = tape.mul(y, anchor);
        let loss = tape.sum_all(both);
        tape.sweep_terminal(loss, &[anchor]);
        tape.len()
    };
    let all = nodes_after_sweep([true, true, true]);
    assert_eq!(nodes_after_sweep([true, false, false]), all - 2);
    assert_eq!(nodes_after_sweep([false, true, false]), all - 2);
    assert_eq!(nodes_after_sweep([false, false, false]), all - 4);
}

#[test]
#[should_panic(expected = "cannot record a gradient on the first-order tape")]
fn a_first_order_tape_refuses_a_recorded_gradient() {
    let mut tape = Tape::first_order();
    let x = tape.leaf(Tensor::scalar(2.0));
    let y = tape.mul(x, x);
    let _ = tape.grad(y, &[x]);
}

#[test]
#[should_panic(expected = "released by the first-order tape's terminal sweep")]
fn reading_a_first_order_tapes_value_after_its_sweep_panics() {
    let mut tape = Tape::first_order();
    let x = tape.leaf(Tensor::scalar(2.0));
    let y = tape.relu(x);
    assert_eq!(tape.sweep_terminal(y, &[x])[0].item(), 1.0);
    let _ = tape.value(x);
}

/// One variable as both scale and shift, read again after the block: its
/// slot is full when the block's rule runs and takes the shift's
/// contribution before the scale's, as the chain's two broadcasts do.
#[test]
fn one_variable_as_scale_and_shift_equals_the_chain() {
    for seed in 0..16 {
        assert_kinds_agree(|tape| {
            let mut rng = Rng::seed_from(seed);
            let x = tape.leaf(Tensor::randn(&[2, 3, 4, 4], &mut rng));
            let both = tape.leaf(Tensor::randn(&[3], &mut rng));
            let out = tape.norm_relu_pool(x, both, both, 1e-5);
            let after = tape.tanh(both);
            let loss = weighted_sum(tape, out, Tensor::randn(&[2, 3, 2, 2], &mut rng));
            let term = weighted_sum(tape, after, Tensor::randn(&[3], &mut rng));
            (out, tape.add(loss, term), vec![x, both])
        });
    }
}

/// A 2×3×4×4 batch against a weight and a bias, on the tape `open` opens.
fn conv2d_of_shapes(open: fn() -> Tape, x: &[usize], weight: &[usize], bias: &[usize]) {
    let mut tape = open();
    let [x, weight, bias] = [x, weight, bias].map(|dims| tape.leaf(Tensor::zeros(dims)));
    tape.conv2d(x, weight, bias, Conv2dGeometry::new(3, 4, 4, 3, 1, 1));
}

#[test]
#[should_panic(expected = "conv2d: input [2, 3, 4, 5] is not a whole number of 3x4x4 images")]
fn conv2d_names_an_input_that_is_not_whole_images() {
    conv2d_of_shapes(Tape::first_order, &[2, 3, 4, 5], &[5, 27], &[5]);
}

#[test]
#[should_panic(expected = "conv2d: weight [5, 18] is not (Cout, Cin*k*k) = (5, 27)")]
fn conv2d_names_a_weight_of_the_wrong_fan_in() {
    conv2d_of_shapes(Tape::inference, &[2, 3, 4, 4], &[5, 18], &[5]);
}

#[test]
#[should_panic(expected = "conv2d: weight [27, 5] is not (Cout, Cin*k*k) = (5, 27) for bias [5]")]
fn conv2d_names_a_transposed_weight_on_the_recording_tape_too() {
    conv2d_of_shapes(Tape::new, &[2, 3, 4, 4], &[27, 5], &[5]);
}

#[test]
#[should_panic(expected = "conv2d: bias [5, 1] is not a vector")]
fn conv2d_names_a_bias_that_is_not_a_vector() {
    conv2d_of_shapes(Tape::new, &[2, 3, 4, 4], &[5, 27], &[5, 1]);
}
