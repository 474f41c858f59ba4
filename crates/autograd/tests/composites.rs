//! The fused composites have two representations and one meaning: on a
//! first-order or inference tape `conv_norm_relu_pool` and `relu` are
//! fused nodes, on a recording tape chains of primitives, and values and
//! gradients agree to the bit — the chain being the oracle — over random
//! shapes, constant inputs, shared inputs and hostile values.

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
    // The block carries the cases of the standalone convolution and tail
    // as well: four times the cases of one composite.
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The whole block, chain against fused node: `Cout` up to `2·LANES + 3`
    /// (so up to 57 planes, a ragged last vector of lanes or none), stride
    /// 1 or 2, kernels 1, 3 and 5, `eps` of 0, 1e-5 or up to 0.3, any subset
    /// of the five inputs constant, one variable as two of `b`, `γ` and `β`
    /// (the node hands its contributions over in the chain's order: `β`,
    /// `γ`, `b`, `W`, `x`), the pooled map read once or twice, `x` consumed
    /// before the block, after it (its contribution then reaches a full
    /// slot), both or neither, and `γ` read again after the block. The
    /// values are random; or with ±0, NaN and ±∞ among the inputs,
    /// parameters and upstreams — those cases compare every NaN as one;
    /// or constant planes.
    ///
    /// A constant plane is a constant `x` under a 1×1 kernel: zero
    /// variance, `eps` alone under the root. With whole numbers over `hw` a
    /// power of two every centred value is exactly `0`, so a zero shift
    /// puts every pre-activation on the ReLU's kink, `±0`, where the mask
    /// is `0`.
    #[test]
    fn conv_norm_relu_pool_equals_its_chain(
        n in 1usize..4,
        cin in 1usize..4,
        cout in 1usize..2 * LANES + 4,
        oh in 1usize..4,
        ow in 1usize..4,
        wide in 0usize..3,
        stride in 1usize..3,
        eps in 0.0f32..0.3,
        differentiable in 0usize..32,
        shared in 0usize..3,
        reads in 0usize..16,
        values in 0usize..3,
        seed in 0u64..100_000,
    ) {
        // A third of the cases run the two values layers use.
        let eps = if eps < 0.05 { 0.0 } else if eps < 0.1 { 1e-5 } else { eps };
        let (hostile, constant) = (values == 1, values == 2);
        let kernel = if constant { 1 } else { [1, 3, 5][wide] };
        let (h, w) = (2 * oh * stride, 2 * ow * stride);
        let geo = Conv2dGeometry::new(cin, h, w, kernel, stride, kernel / 2);
        assert_eq!((geo.out_h, geo.out_w), (2 * oh, 2 * ow));
        let draw = |shape: &[usize], one_in: usize, rng: &mut Rng| {
            let mut t = Tensor::randn(shape, rng);
            if hostile {
                for v in t.data_mut() {
                    if rng.below(one_in) == 0 {
                        *v = SPECIALS[rng.below(SPECIALS.len())];
                    }
                }
            }
            t
        };
        // One value per input, whole numbers in half the cases, and a
        // shift of 0, -0 or any.
        let fills = |rng: &mut Rng| {
            let whole = rng.below(2) == 1;
            let mut value = |bound: f32| {
                let v = rng.uniform(-bound, bound);
                if whole { v.round() } else { v }
            };
            let [x, weight, bias, gamma, beta] = [4.0, 2.0, 2.0, 2.0, 2.0].map(&mut value);
            [x, weight, bias, gamma, [0.0, -0.0, beta][rng.below(3)]]
        };
        let compare = if hostile { bits_nan_as_one } else { bits };
        assert_kinds_agree_as(compare, |tape| {
            let mut rng = Rng::seed_from(seed);
            let fan = cin * kernel * kernel;
            let shapes = [vec![n, cin, h, w], vec![cout, fan], vec![cout], vec![cout], vec![cout]];
            let tensors: Vec<Tensor> = if constant {
                shapes.iter().zip(fills(&mut rng)).map(|(s, v)| Tensor::full(s, v)).collect()
            } else {
                shapes.iter().zip([40, 40, 6, 6, 6]).map(|(s, k)| draw(s, k, &mut rng)).collect()
            };
            let [x, weight, bias, gamma, beta]: [Var; 5] = std::array::from_fn(|i| {
                input(tape, tensors[i].clone(), bit(differentiable, i))
            });
            let (bias, beta) = match shared {
                1 => (bias, gamma),
                2 => (gamma, beta),
                _ => (bias, beta),
            };
            let before = bit(reads, 2).then(|| tape.mul(x, x));
            let out = tape.conv_norm_relu_pool(x, [weight, bias, gamma, beta], geo, eps);
            let after = bit(reads, 1).then(|| tape.tanh(x));
            let scale_after = bit(reads, 3).then(|| tape.tanh(gamma));
            let pooled = [n, cout, oh, ow];
            let mut loss = weighted_sum(tape, out, draw(&pooled, 4, &mut rng));
            if bit(reads, 0) {
                let again = weighted_sum(tape, out, draw(&pooled, 4, &mut rng));
                loss = tape.add(loss, again);
            }
            for extra in [before, after, scale_after].into_iter().flatten() {
                let dims = tape.value(extra).dims().to_vec();
                let term = weighted_sum(tape, extra, Tensor::randn(&dims, &mut rng));
                loss = tape.add(loss, term);
            }
            (out, loss, vec![x, weight, bias, gamma, beta])
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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
fn fused_conv_norm_relu_pool_gradcheck() {
    let mut rng = Rng::seed_from(32);
    // Two images of three 4×2 planes pooled by 2, under a 3×3 "same"
    // convolution of two channels.
    let geo = Conv2dGeometry::new(2, 4, 2, 3, 1, 1);
    let x = smooth_randn(&[2, 2, 4, 2], &mut rng);
    let weight = smooth_randn(&[3, 18], &mut rng);
    let bias = smooth_randn(&[3], &mut rng);
    let gamma = Tensor::from_vec(vec![1.5, 0.5, -0.8], &[3]);
    let beta = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
    let weights = smooth_randn(&[2, 3, 2, 1], &mut rng);
    assert_first_order_grads_close(
        move |t, vs| {
            let y = t.conv_norm_relu_pool(vs[0], [vs[1], vs[2], vs[3], vs[4]], geo, 1e-3);
            let sq = t.mul(y, y);
            weighted_sum(t, sq, weights.clone())
        },
        &[x, weight, bias, gamma, beta],
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

/// A fused rule builds an adjoint only for an input that needs one: swept
/// with respect to every differentiable input, the sweep records one node
/// fewer per constant among the block's five inputs, and with all five
/// constant the block keeps neither its map nor its statistics and the
/// adjoint of its output is not built either.
#[test]
fn a_fused_rule_computes_no_gradient_for_a_constant_input() {
    let geo = Conv2dGeometry::new(2, 4, 4, 3, 1, 1);
    let nodes_after_sweep = |differentiable: usize| {
        let mut tape = Tape::first_order();
        let shapes: [&[usize]; 5] = [&[2, 2, 4, 4], &[3, 18], &[3], &[3], &[3]];
        let inputs: [Var; 5] = std::array::from_fn(|i| {
            input(&mut tape, Tensor::ones(shapes[i]), bit(differentiable, i))
        });
        let [x, weight, bias, gamma, beta] = inputs;
        let anchor = tape.leaf(Tensor::ones(&[2, 3, 2, 2]));
        let y = tape.conv_norm_relu_pool(x, [weight, bias, gamma, beta], geo, 1e-5);
        let both = tape.mul(y, anchor);
        let loss = tape.sum_all(both);
        let leaves = (0..5)
            .filter(|&i| bit(differentiable, i))
            .map(|i| inputs[i]);
        let xs: Vec<Var> = std::iter::once(anchor).chain(leaves).collect();
        tape.sweep_terminal(loss, &xs);
        tape.len()
    };
    let all = nodes_after_sweep(0b11111);
    for differentiable in 0..0b11111usize {
        let constants = 5 - differentiable.count_ones() as usize;
        let unused = if differentiable == 0 { 3 } else { 0 };
        assert_eq!(
            nodes_after_sweep(differentiable),
            all - constants - unused,
            "{differentiable:05b}"
        );
    }
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
