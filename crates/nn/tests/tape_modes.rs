//! The tape modes under whole models: the inference tape and the
//! terminal sweep give the recording tape's bits, and hold a stated
//! fraction of its memory.

use qd_autograd::{Tape, Var};
use qd_nn::{cross_entropy, forward_inference, loss_gradients, ConvNet, LeNet, Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// One training step's graph on a recording tape: parameters as leaves,
/// the batch as a constant, the cross-entropy loss.
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

fn recording_logits(model: &dyn Module, params: &[Tensor], x: &Tensor) -> Tensor {
    let mut tape = Tape::new();
    let p: Vec<Var> = params.iter().map(|t| tape.constant(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let y = model.forward(&mut tape, &p, xv);
    tape.value(y).clone()
}

#[test]
fn inference_tape_logits_equal_the_recording_tapes_bit_for_bit() {
    let mut rng = Rng::seed_from(21);
    let image = Tensor::randn(&[5, 3, 16, 16], &mut rng);
    let gray = Tensor::randn(&[5, 1, 16, 16], &mut rng);
    let models: [(Box<dyn Module>, &Tensor); 3] = [
        (Box::new(ConvNet::scaled_default(3, 10)), &image),
        (Box::new(LeNet::new(1, 16, 10)), &gray), // max-pool, tanh
        (Box::new(Mlp::new(&[256, 32, 10])), &gray),
    ];
    for (model, x) in &models {
        let params = model.init(&mut rng);
        assert_eq!(
            bits(&forward_inference(model.as_ref(), &params, x)),
            bits(&recording_logits(model.as_ref(), &params, x)),
        );
    }
}

#[test]
fn loss_gradients_equal_the_recorded_gradients_bit_for_bit() {
    let mut rng = Rng::seed_from(22);
    let models: [(Box<dyn Module>, usize); 2] = [
        (Box::new(ConvNet::scaled_default(3, 10)), 3),
        (Box::new(LeNet::new(1, 16, 10)), 1),
    ];
    for (model, channels) in &models {
        let params = model.init(&mut rng);
        let x = Tensor::randn(&[6, *channels, 16, 16], &mut rng);
        let labels: Vec<usize> = (0..6).map(|i| (i * 3) % 10).collect();
        let mut tape = Tape::new();
        let (loss, p) = record_step(&mut tape, model.as_ref(), &params, &x, &labels, 10);
        let recorded = tape.grad(loss, &p);
        let terminal = loss_gradients(model.as_ref(), &params, &x, &labels, 10);
        for (g, want) in terminal.iter().zip(recorded) {
            assert_eq!(bits(g), bits(tape.value(want)));
        }
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

    let mut recording = Tape::new();
    let (loss, p) = record_step(&mut recording, &net, &params, &x, &labels, 10);
    let forward = recording.peak_value_bytes();
    recording.grad(loss, &p);
    let grad = recording.peak_value_bytes();

    let mut terminal = Tape::new();
    let (loss, p) = record_step(&mut terminal, &net, &params, &x, &labels, 10);
    terminal.sweep_terminal(loss, &p);
    let into_grads = terminal.peak_value_bytes();

    // `forward_inference`'s tape, retired by `Sequential` as it goes.
    let mut inference = Tape::inference();
    let pv: Vec<Var> = params
        .iter()
        .map(|t| inference.constant(t.clone()))
        .collect();
    let xv = inference.constant(x.clone());
    net.forward(&mut inference, &pv, xv);
    let inference = inference.peak_value_bytes();

    // Measured: forward 10 939 764, grad 22 868 072, into_grads
    // 11 271 312, inference 5 379 176 bytes. Recording keeps the forward
    // pass and the whole backward pass; the terminal sweep peaks at the
    // forward pass plus one rule's working set.
    assert!(grad > 20_000_000, "recording grad holds {grad} bytes");
    assert!(
        into_grads * 2 < grad,
        "terminal sweep {into_grads} vs recording {grad}"
    );
    assert!(
        into_grads < forward + forward / 4,
        "terminal sweep {into_grads} vs forward {forward}"
    );
    // One layer's working set, not the network's.
    assert!(
        inference * 2 < forward,
        "inference {inference} vs recording forward {forward}"
    );
}
