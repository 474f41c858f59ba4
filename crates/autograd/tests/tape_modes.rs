//! The three tape modes compute one function: the terminal sweep
//! (`into_grads`) against the recording `grad`, to the bit, over random
//! DAGs; and what a released value does when it is read.

use proptest::prelude::*;
use qd_autograd::{Tape, Var};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// A random DAG of `steps` ops over three `(3, 4)` leaves, a `(4,)` bias
/// leaf and a constant, every operand drawn uniformly from everything
/// recorded so far — so sub-expressions are shared, an op may take one
/// node twice (`mul(c, c)`, `add(c, c)`), and the pass-through rules
/// (`add`, `add_scalar`, a same-shape `reshape`, `add_row_bias`, `sub`'s
/// left side) alias one upstream into several adjoint slots.
///
/// Returns the scalar target and the variables to differentiate by: the
/// leaves, a leaf the target does not depend on, a non-leaf from the
/// middle of the graph, and a node recorded *after* the target.
fn random_dag(tape: &mut Tape, seed: u64, steps: usize) -> (Var, Vec<Var>) {
    let mut rng = Rng::seed_from(seed);
    let mut leaves: Vec<Var> = (0..3)
        .map(|_| tape.leaf(Tensor::randn(&[3, 4], &mut rng).scale(0.7)))
        .collect();
    let bias = tape.leaf(Tensor::randn(&[4], &mut rng));
    let unused = tape.leaf(Tensor::randn(&[2, 2], &mut rng));
    let mut pool = leaves.clone();
    pool.push(tape.constant(Tensor::randn(&[3, 4], &mut rng)));
    for _ in 0..steps {
        let mut pick = || pool[rng.below(pool.len())];
        let (a, b) = (pick(), pick());
        let v = match rng.below(14) {
            0 => tape.add(a, b),
            1 => tape.sub(a, b),
            2 => tape.mul(a, b),
            3 => tape.mul(a, a),
            4 => tape.add_scalar(a, 0.25),
            5 => tape.neg(a),
            6 => tape.scale(a, -1.5),
            7 => tape.tanh(a),
            8 => tape.relu(a),
            9 => tape.reshape(a, &[3, 4]),
            10 => {
                let flat = tape.reshape(a, &[12]);
                tape.reshape(flat, &[3, 4])
            }
            11 => {
                let gram = tape.matmul_nt(a, b); // (3, 3)
                tape.matmul(gram, a)
            }
            12 => tape.add_row_bias(a, bias),
            _ => {
                let s = tape.sum_rows(a);
                let bc = tape.broadcast_rows(s, 3);
                tape.sigmoid(bc)
            }
        };
        pool.push(v);
    }
    let mid = pool[pool.len() / 2];
    let last = *pool.last().expect("non-empty pool");
    let weighted = tape.mul(last, mid);
    let y = tape.sum_all(weighted);
    let after = tape.scale(last, 2.0);
    leaves.extend([bias, unused, mid, after]);
    (y, leaves)
}

/// `grad`'s output read back as tensors: the reference.
fn recorded(tape: &mut Tape, y: Var, xs: &[Var]) -> Vec<Tensor> {
    tape.grad(y, xs)
        .into_iter()
        .map(|g| tape.value(g).clone())
        .collect()
}

fn assert_same_bits(terminal: &[Tensor], reference: &[Tensor]) {
    assert_eq!(terminal.len(), reference.len());
    for (i, (t, r)) in terminal.iter().zip(reference).enumerate() {
        assert_eq!(bits(t), bits(r), "gradient {i} differs");
    }
}

proptest! {
    #[test]
    fn into_grads_equals_grad_to_the_bit(seed in 0u64..100_000, steps in 1usize..16) {
        let mut reference = Tape::new();
        let (y, xs) = random_dag(&mut reference, seed, steps);
        let want = recorded(&mut reference, y, &xs);
        let mut tape = Tape::new();
        let (y, xs) = random_dag(&mut tape, seed, steps);
        assert_same_bits(&tape.into_grads(y, &xs), &want);
    }

    /// The `match_class_step` shape: a recorded inner gradient, then the
    /// terminal sweep of a function of it.
    #[test]
    fn into_grads_of_a_recorded_gradient_equals_grad_of_it(
        seed in 0u64..100_000,
        steps in 1usize..12,
    ) {
        let outer = |tape: &mut Tape| -> (Var, Vec<Var>) {
            let (y, xs) = random_dag(tape, seed, steps);
            let inner = tape.grad(y, &xs[..4]);
            let mut phi = None;
            for g in inner {
                let sq = tape.mul(g, g);
                let s = tape.sum_all(sq);
                phi = Some(match phi {
                    Some(acc) => tape.add(acc, s),
                    None => s,
                });
            }
            (phi.expect("four inner gradients"), xs)
        };
        let mut reference = Tape::new();
        let (phi, xs) = outer(&mut reference);
        let want = recorded(&mut reference, phi, &xs);
        let mut tape = Tape::new();
        let (phi, xs) = outer(&mut tape);
        assert_same_bits(&tape.into_grads(phi, &xs), &want);
    }
}

#[test]
fn into_grads_handles_the_degenerate_targets() {
    // The target itself, a variable asked for twice, and `x + x`.
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(3.0));
    let twice = tape.add(x, x);
    let grads = tape.into_grads(twice, &[twice, x, x]);
    assert_eq!(grads[0].item(), 1.0);
    assert_eq!(grads[1].item(), 2.0);
    assert_eq!(grads[2].item(), 2.0);
}

#[test]
fn the_terminal_sweep_holds_less_than_the_recording_one() {
    let build = |tape: &mut Tape| {
        let x = tape.leaf(Tensor::ones(&[64, 64]));
        let mut h = x;
        for _ in 0..8 {
            h = tape.tanh(h);
        }
        (tape.sum_all(h), x)
    };
    let mut recording = Tape::new();
    let (y, x) = build(&mut recording);
    let forward = recording.peak_value_bytes();
    recording.grad(y, &[x]);
    let mut terminal = Tape::new();
    let (y, x) = build(&mut terminal);
    terminal.sweep_terminal(y, &[x]);
    // Recording keeps the forward values and five nodes per tanh rule; the
    // terminal sweep adds to the forward values only one rule's nodes.
    assert!(recording.peak_value_bytes() > 4 * forward);
    assert!(terminal.peak_value_bytes() < forward + forward / 2 + 64 * 64 * 4);
}

#[test]
#[should_panic(expected = "released by the recording tape's terminal sweep")]
fn reading_a_value_after_the_terminal_sweep_panics() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(2.0));
    let y = tape.mul(x, x);
    assert_eq!(tape.sweep_terminal(y, &[x])[0].item(), 4.0);
    let _ = tape.value(x);
}

#[test]
#[should_panic(expected = "released by the inference tape")]
fn reading_a_retired_value_panics() {
    let mut tape = Tape::inference();
    let x = tape.constant(Tensor::scalar(2.0));
    let from = tape.len();
    let h = tape.mul(x, x);
    let y = tape.neg(h);
    tape.retire(from, y);
    assert_eq!(tape.value(y).item(), -4.0);
    let _ = tape.value(h);
}

#[test]
fn retire_leaves_a_recording_tape_alone() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(2.0));
    let h = tape.mul(x, x);
    let y = tape.neg(h);
    tape.retire(0, y);
    assert_eq!(tape.value(h).item(), 4.0);
    assert_eq!(tape.grad(y, &[x]).len(), 1);
}

#[test]
#[should_panic(expected = "cannot differentiate on the inference tape")]
fn an_inference_tape_is_never_differentiable() {
    let mut tape = Tape::inference();
    let x = tape.leaf(Tensor::scalar(2.0));
    let y = tape.mul(x, x);
    let _ = tape.into_grads(y, &[x]);
}
