//! The tape kinds under whole models: the first-order and inference
//! tapes, which record fused composites, give the recording tape's bits —
//! the recording tape's chains being the oracle — and hold a stated
//! fraction of its memory; and the recording tape still records what it
//! recorded before the fused composites existed.

use qd_autograd::{Tape, Var};
use qd_nn::{cross_entropy, forward_inference, loss_gradients, ConvNet, Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

const BATCHES: [usize; 4] = [1, 2, 18, 32];

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// The two architectures with their input channel counts: fused norm,
/// ReLU and convolution (`ConvNet`), ReLU alone (`Mlp`).
fn models() -> [(Box<dyn Module>, usize); 2] {
    [
        (Box::new(ConvNet::scaled_default(3, 10)), 3),
        (Box::new(Mlp::new(&[256, 32, 10])), 1),
    ]
}

/// One training step's graph: parameters as leaves, the batch as a
/// constant, the cross-entropy loss.
fn record_step(
    tape: &mut Tape,
    model: &dyn Module,
    params: &[Tensor],
    x: &Tensor,
    labels: &[usize],
    classes: usize,
) -> (Var, Vec<Var>) {
    let p: Vec<Var> = params.iter().map(|t| tape.leaf(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let logits = model.forward(tape, &p, xv);
    (cross_entropy(tape, logits, labels, classes), p)
}

/// `forward` run on `tape` with the parameters and the batch as constants.
fn forward_on(
    mut tape: Tape,
    forward: impl Fn(&mut Tape, &[Var], Var) -> Var,
    params: &[Tensor],
    x: &Tensor,
) -> Tensor {
    let p: Vec<Var> = params.iter().map(|t| tape.constant(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let y = forward(&mut tape, &p, xv);
    tape.value(y).clone()
}

/// The logits, and each of a ConvNet's block outputs (FU-MP's channel
/// probe reads them off an inference tape).
#[test]
fn inference_tape_values_equal_the_recording_tapes_bit_for_bit() {
    let mut rng = Rng::seed_from(21);
    for (model, channels) in &models() {
        let params = model.init(&mut rng);
        for batch in BATCHES {
            let x = Tensor::randn(&[batch, *channels, 16, 16], &mut rng);
            let forward = |t: &mut Tape, p: &[Var], x: Var| model.forward(t, p, x);
            assert_eq!(
                bits(&forward_inference(model.as_ref(), &params, &x)),
                bits(&forward_on(Tape::new(), forward, &params, &x)),
                "batch {batch}"
            );
        }
    }
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    for block in 0..net.blocks() {
        for batch in BATCHES {
            let x = Tensor::randn(&[batch, 3, 16, 16], &mut rng);
            let probe = |t: &mut Tape, p: &[Var], x: Var| net.block_output(t, p, x, block);
            assert_eq!(
                bits(&forward_on(Tape::inference(), probe, &params, &x)),
                bits(&forward_on(Tape::new(), probe, &params, &x)),
                "block {block}, batch {batch}"
            );
        }
    }
}

#[test]
fn loss_gradients_equal_the_recorded_gradients_bit_for_bit() {
    let mut rng = Rng::seed_from(22);
    for (model, channels) in &models() {
        let params = model.init(&mut rng);
        for batch in BATCHES {
            let x = Tensor::randn(&[batch, *channels, 16, 16], &mut rng);
            let labels: Vec<usize> = (0..batch).map(|i| (i * 3) % 10).collect();
            let mut tape = Tape::new();
            let (loss, p) = record_step(&mut tape, model.as_ref(), &params, &x, &labels, 10);
            let recorded = tape.grad(loss, &p);
            let first_order = loss_gradients(model.as_ref(), &params, &x, &labels, 10);
            for (g, want) in first_order.iter().zip(recorded) {
                assert_eq!(bits(g), bits(tape.value(want)), "batch {batch}");
            }
        }
    }
}

/// A first-order tape's forward values are the recording tape's too: the
/// loss, computed through every fused node, in less than half the nodes.
#[test]
fn first_order_forward_values_equal_the_recording_tapes() {
    let mut rng = Rng::seed_from(24);
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let x = Tensor::randn(&[18, 3, 16, 16], &mut rng);
    let labels: Vec<usize> = (0..18).map(|i| i % 10).collect();
    let mut recording = Tape::new();
    let (want, _) = record_step(&mut recording, &net, &params, &x, &labels, 10);
    let mut first_order = Tape::first_order();
    let (loss, _) = record_step(&mut first_order, &net, &params, &x, &labels, 10);
    assert_eq!(
        first_order.value(loss).item().to_bits(),
        recording.value(want).item().to_bits()
    );
    assert!(first_order.len() < recording.len() / 2);
}

/// Gradient matching differentiates a gradient again, so it runs on the
/// recording tape and must find there exactly what it found before the
/// fused composites existed: the same ops in the same order (the count is
/// qd-perf's `autograd.tape_nodes_b32`).
#[test]
fn the_recording_tape_still_records_the_chains() {
    let mut rng = Rng::seed_from(25);
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let x = Tensor::randn(&[32, 3, 16, 16], &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let mut tape = Tape::new();
    let (loss, p) = record_step(&mut tape, &net, &params, &x, &labels, 10);
    let forward = tape.op_names();
    tape.grad(loss, &p);
    assert_eq!(tape.len(), 140);

    let convolution = ["Im2col", "MatMulNt", "AddRowBias", "RowsToNchw"];
    let instance_norm = [
        "SpatialSum",
        "Scale",
        "SpatialBroadcast",
        "Sub",
        "Mul",
        "SpatialSum",
        "Scale",
        "AddScalar",
        "Sqrt",
        "Constant",
        "Div",
        "SpatialBroadcast",
        "Mul",
        "ChannelBroadcast",
        "ChannelBroadcast",
        "Mul",
        "Add",
    ];
    let block: Vec<&str> = convolution
        .iter()
        .chain(&instance_norm)
        .chain(&["Relu", "AvgPool"])
        .copied()
        .collect();
    let leaves = params.len() + 1;
    for first in [leaves, leaves + block.len()] {
        assert_eq!(forward[first..first + block.len()], block[..]);
    }
}

/// Off the recording tape a block is one node, forward and backward: no
/// convolution, norm, ReLU or pool of its own — no patch matrix unfolded,
/// multiplied or folded back, no upstream permuted into rows, no plane
/// sum or broadcast — and the only `MatMulNt` and `AddRowBias` the
/// classifier's. A first-order tape keeps the block's position-major map
/// and statistics as two constants in front of it; an inference tape keeps
/// neither.
#[test]
fn a_fused_convnet_records_one_node_per_block_and_no_chain() {
    let mut rng = Rng::seed_from(26);
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let x = Tensor::randn(&[4, 3, 16, 16], &mut rng);
    let count = |tape: &Tape, op: &str| tape.op_names().iter().filter(|o| *o == op).count();
    let assert_chain_free = |tape: &Tape| {
        assert_eq!(count(tape, "ConvNormReluPool"), net.blocks());
        assert_eq!(count(tape, "MatMulNt"), 1);
        assert_eq!(count(tape, "AddRowBias"), 1);
        for op in [
            "Im2col",
            "Col2im",
            "NchwToRows",
            "RowsToNchw",
            "SpatialSum",
            "SpatialBroadcast",
            "ChannelSum",
            "ChannelBroadcast",
            "Relu",
            "AvgPool",
            "AvgUnpool",
        ] {
            assert_eq!(count(tape, op), 0, "{op}");
        }
    };
    // What follows the parameters and the batch, up to the classifier.
    let blocks = |tape: &Tape| tape.op_names()[params.len() + 1..].to_vec();
    let mut inference = Tape::inference();
    let p: Vec<Var> = params.iter().map(|t| inference.leaf(t.clone())).collect();
    let xv = inference.constant(x.clone());
    net.forward(&mut inference, &p, xv);
    assert_chain_free(&inference);
    assert_eq!(
        blocks(&inference),
        [
            "ConvNormReluPool",
            "ConvNormReluPool",
            "Reshape",
            "MatMulNt",
            "AddRowBias"
        ]
    );

    let mut first_order = Tape::first_order();
    let (loss, p) = record_step(&mut first_order, &net, &params, &x, &[0, 1, 2, 3], 10);
    assert_chain_free(&first_order);
    let block = ["Constant", "Constant", "ConvNormReluPool"];
    assert_eq!(
        blocks(&first_order)[..2 * block.len()],
        [block, block].concat()
    );
    first_order.sweep_terminal(loss, &p);
    assert_chain_free(&first_order);
}

/// A step of the paper's ConvNet — three blocks of 128 filters on 32×32
/// inputs, every channel count a multiple of the lane width, the first
/// block's windows 27 terms long — on a first-order tape gives the
/// recording tape's gradients, to the bit.
#[test]
fn a_paper_default_first_order_step_equals_the_recording_tapes() {
    let mut rng = Rng::seed_from(27);
    let net = ConvNet::paper_default(3, 32, 10);
    let params = net.init(&mut rng);
    let x = Tensor::randn(&[1, 3, 32, 32], &mut rng);
    let mut tape = Tape::new();
    let (loss, p) = record_step(&mut tape, &net, &params, &x, &[7], 10);
    let recorded = tape.grad(loss, &p);
    let first_order = loss_gradients(&net, &params, &x, &[7], 10);
    for (i, (g, want)) in first_order.iter().zip(recorded).enumerate() {
        assert_eq!(bits(g), bits(tape.value(want)), "parameter {i}");
    }
}

/// The footprint pin: `Tape::peak_value_bytes` counts bytes, not time, so
/// these hold exactly on every machine.
#[test]
fn a_b32_convnet_step_holds_a_fraction_of_the_recording_tape() {
    let mut rng = Rng::seed_from(23);
    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let x = Tensor::randn(&[32, 3, 16, 16], &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let peak_of = |mut tape: Tape, sweep: fn(&mut Tape, Var, &[Var])| {
        let (loss, p) = record_step(&mut tape, &net, &params, &x, &labels, 10);
        sweep(&mut tape, loss, &p);
        tape.peak_value_bytes()
    };
    let forward = peak_of(Tape::new(), |_, _, _| {});
    let grad = peak_of(Tape::new(), |tape, loss, p| {
        tape.grad(loss, p);
    });
    let terminal = |tape: &mut Tape, loss: Var, p: &[Var]| {
        tape.sweep_terminal(loss, p);
    };
    // The chains swept terminally (an outer gradient), then what
    // `loss_gradients` runs: the fused composites swept terminally.
    let into_grads = peak_of(Tape::new(), terminal);
    let first_order = peak_of(Tape::first_order(), terminal);

    // `forward_inference`'s tape, retired by `Sequential` as it goes.
    let mut inference = Tape::inference();
    let pv: Vec<Var> = params
        .iter()
        .map(|t| inference.constant(t.clone()))
        .collect();
    let xv = inference.constant(x.clone());
    net.forward(&mut inference, &pv, xv);
    let inference = inference.peak_value_bytes();

    // Recording keeps the forward pass and the whole backward pass; a
    // terminal sweep peaks at the forward pass plus one rule's working
    // set. The three recording counts are untouched.
    //
    // The fused forward pass keeps, per block, the position-major pre-norm
    // map (as large as the convolution's output: no patch rows — nine
    // times its input — no product, no biased copy), 2·N·C statistics and
    // the pooled map (no norm or ReLU output): 986 484 bytes. A
    // first-order step now peaks in the second block's rule. With the
    // sweep above it released, it holds the batch (98 304), the parameters
    // (21 608), both blocks' maps (524 288 + 131 072), statistics (2 × 4 096)
    // and pooled maps (131 072 + 32 768), the second pooled map's upstream
    // (32 768) and the classifier's gradients (10 280), beside the rule's
    // results: the block's parameter gradients (9 408) and its input's
    // gradient (131 072): 1 130 832. The first block's rule, the peak while
    // a block was two nodes (1 454 544), no longer holds its convolution
    // output's gradient as a node (524 288): the tail's adjoint of the map
    // stays inside the rule. An inference forward holds the batch, the
    // parameters and the two pooled maps: 283 752 (779 368 while the
    // convolution's output and the statistics were nodes; the map now
    // lives only inside the block's call).
    assert_eq!(forward, 10_939_764);
    assert_eq!(grad, 22_868_072);
    assert_eq!(into_grads, 11_271_312);
    assert_eq!(first_order, 1_130_832);
    assert_eq!(inference, 283_752);
}
