//! Scenario: bring your own architecture.
//!
//! QuickDrop is architecture-agnostic: anything implementing
//! `qd_nn::Module` can be trained, distilled against, unlearned and
//! relearned. This example declares its own network — one wide 5×5
//! convolution block and a two-layer classifier head, a shape the library
//! does not ship — and runs the full pipeline on it.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example custom_architecture
//! ```

use quickdrop::autograd::{Tape, Var};
use quickdrop::nn::{Conv2d, ConvBlock, Flatten, Linear, Relu, Sequential};
use quickdrop::{
    accuracy, fr_eval_sets, partition_dirichlet, split_accuracy, Federation, Module, QuickDrop,
    QuickDropConfig, Rng, SyntheticDataset, Tensor, UnlearnRequest, UnlearningMethod,
};
use std::sync::Arc;

/// One ConvNet block — a 5×5 convolution with 8 filters, instance norm,
/// ReLU, 2×2 average pool — then `Linear → ReLU → Linear`.
struct WideKernelNet(Sequential);

impl WideKernelNet {
    fn new(channels: usize, hw: usize, classes: usize) -> Self {
        let pooled = hw / 2;
        WideKernelNet(Sequential::new(vec![
            Box::new(ConvBlock::new(Conv2d::new(channels, 8, 5, 1, 2))),
            Box::new(Flatten),
            Box::new(Linear::new(8 * pooled * pooled, 64)),
            Box::new(Relu),
            Box::new(Linear::new(64, classes)),
        ]))
    }
}

impl Module for WideKernelNet {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        self.0.forward(tape, params, x)
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.0.param_shapes()
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        self.0.init(rng)
    }
}

fn main() {
    let mut rng = Rng::seed_from(5);
    let dataset = SyntheticDataset::Digits;
    let train = dataset.generate(700, &mut rng);
    let test = dataset.generate(300, &mut rng);
    let parts = partition_dirichlet(train.labels(), train.classes(), 4, 0.5, &mut rng);
    let clients: Vec<_> = parts.iter().map(|p| train.subset(p)).collect();

    let model: Arc<dyn Module> = Arc::new(WideKernelNet::new(dataset.channels(), dataset.hw(), 10));
    let mut fed = Federation::new(model.clone(), clients, &mut rng);

    let mut config = QuickDropConfig::scaled_test();
    config.train_phase = quickdrop::Phase::training(8, 8, 32, 0.1);
    config.unlearn_phase = quickdrop::Phase::unlearning(1, 4, 32, 0.03);
    config.recover_phase = quickdrop::Phase::training(2, 8, 32, 0.1);
    config.max_unlearn_rounds = 4;
    let (mut qd, report) = QuickDrop::train(&mut fed, config, &mut rng);
    println!(
        "custom-network federation trained: test accuracy {:.1}%, DD overhead {:.0}%",
        accuracy(model.as_ref(), fed.global(), &test) * 100.0,
        report.dd_overhead() * 100.0
    );

    let request = UnlearnRequest::Class(6);
    let (f, r) = fr_eval_sets(&fed, request, &test);
    let (f0, r0) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
    let outcome = qd.unlearn(&mut fed, request, &mut rng);
    let (f1, r1) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
    println!(
        "unlearned class 6 in {:.0}ms ({} ascent rounds):",
        outcome.total().wall.as_secs_f64() * 1000.0,
        outcome.unlearn.rounds
    );
    println!("  forget {:.1}% -> {:.1}%", f0 * 100.0, f1 * 100.0);
    println!("  retain {:.1}% -> {:.1}%", r0 * 100.0, r1 * 100.0);
    println!(
        "  communication: {} scalars exchanged (vs {} for one training round sweep)",
        outcome.total().communication_scalars(),
        report.fl_stats.communication_scalars() / report.fl_stats.rounds.max(1)
    );
}
