//! Layer costs measured in isolation: the kernels replayed at the shapes
//! the deployed ConvNet issues, and one call into each layer that the
//! workload spans cannot see inside. The same in every workload's traced
//! run — they describe the layers, not the workload.

use crate::alloc::AllocCount;
use crate::checks::{self, DATASET};
use crate::child;
use crate::e2e::deploy_copy;
use crate::instrument::CountingFs;
use crate::metrics::Values;
use crate::replica::{cli_config, Rig};
use crate::stats;
use crate::trace::now;
use qd_autograd::Tape;
use qd_core::{QuickDrop, RequestJournal, StdFs, Vfs};
use qd_data::partition_iid;
use qd_distill::{match_class_step, reference_gradients};
use qd_eval::split_accuracy;
use qd_fed::{AggregatorKind, ClientUpdate, Federation, NetConfig, Phase, SimNet, Transport};
use qd_nn::{cross_entropy, forward_inference, ConvNet, Module, Sgd};
use qd_tensor::rng::Rng;
use qd_tensor::{avg_pool2d, avg_unpool2d, col2im, im2col, Conv2dGeometry, Tensor};
use qd_unlearn::{GuardPolicy, RetrainOracle, UnlearnRequest, UnlearningMethod};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Seconds one run of `f` takes.
fn once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Median seconds of `f` over `reps` runs after one warm-up.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps).map(|_| once(&mut f)).collect();
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// A matmul `(m x k) · (k x n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MatMul {
    m: usize,
    k: usize,
    n: usize,
}

impl MatMul {
    fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }

    fn seconds(&self, reps: usize, rng: &mut Rng) -> f64 {
        let a = Tensor::randn(&[self.m, self.k], rng);
        let b = Tensor::randn(&[self.k, self.n], rng);
        time(reps, || a.matmul(&b))
    }

    /// The two products of the backward pass: `dA = dY · Bᵀ`, `dB = Aᵀ · dY`.
    fn backward(&self) -> [MatMul; 2] {
        [
            MatMul {
                m: self.m,
                k: self.n,
                n: self.k,
            },
            MatMul {
                m: self.k,
                k: self.m,
                n: self.n,
            },
        ]
    }
}

/// The shapes one forward pass of `net` issues at batch `batch`: a
/// 3x3 stride-1 same-padded convolution per block (its im2col geometry
/// and matmul), a 2x2 average pool per block, and the linear head.
struct Shapes {
    geos: Vec<Conv2dGeometry>,
    matmuls: Vec<MatMul>,
    /// `(channels, h, w)` entering each block's pool.
    pools: Vec<(usize, usize, usize)>,
    batch: usize,
}

impl Shapes {
    fn of(net: &ConvNet, batch: usize) -> Shapes {
        let (mut geos, mut matmuls, mut pools) = (Vec::new(), Vec::new(), Vec::new());
        let (mut channels, mut hw) = (net.in_channels(), net.input_hw());
        for _ in 0..net.blocks() {
            let geo = Conv2dGeometry::new(channels, hw, hw, 3, 1, 1);
            matmuls.push(MatMul {
                m: geo.rows(batch),
                k: geo.patch_len(),
                n: net.filters(),
            });
            geos.push(geo);
            pools.push((net.filters(), hw, hw));
            channels = net.filters();
            hw /= 2;
        }
        matmuls.push(MatMul {
            m: batch,
            k: net.filters() * hw * hw,
            n: net.classes(),
        });
        Shapes {
            geos,
            matmuls,
            pools,
            batch,
        }
    }

    fn forward_matmul_s(&self, reps: usize, rng: &mut Rng) -> f64 {
        self.matmuls.iter().map(|mm| mm.seconds(reps, rng)).sum()
    }

    fn backward_matmul_s(&self, reps: usize, rng: &mut Rng) -> f64 {
        self.matmuls
            .iter()
            .flat_map(MatMul::backward)
            .map(|mm| mm.seconds(reps, rng))
            .sum()
    }

    fn im2col_s(&self, reps: usize, rng: &mut Rng) -> f64 {
        self.geos
            .iter()
            .map(|geo| {
                let x = Tensor::randn(&[self.batch, geo.in_channels, geo.in_h, geo.in_w], rng);
                time(reps, || im2col(&x, geo))
            })
            .sum()
    }

    /// The adjoint runs for every block whose input needs a gradient —
    /// all but the first, whose input is the data.
    fn col2im_s(&self, reps: usize, rng: &mut Rng) -> f64 {
        self.geos
            .iter()
            .skip(1)
            .map(|geo| {
                let cols = Tensor::randn(&[geo.rows(self.batch), geo.patch_len()], rng);
                time(reps, || col2im(&cols, geo))
            })
            .sum()
    }

    fn avg_pool_s(&self, reps: usize, rng: &mut Rng) -> f64 {
        self.pools
            .iter()
            .map(|&(c, h, w)| {
                let x = Tensor::randn(&[self.batch, c, h, w], rng);
                time(reps, || avg_pool2d(&x, c, h, w, 2))
            })
            .sum()
    }

    fn avg_unpool_s(&self, reps: usize, rng: &mut Rng) -> f64 {
        self.pools
            .iter()
            .map(|&(c, h, w)| {
                let y = Tensor::randn(&[self.batch, c, h / 2, w / 2], rng);
                time(reps, || avg_unpool2d(&y, c, h / 2, w / 2, 2))
            })
            .sum()
    }
}

/// One training step's gradient on the tape, as `qd-fed`'s trainers
/// compute it; returns the tape length.
fn fwd_bwd(net: &ConvNet, params: &[Tensor], x: &Tensor, labels: &[usize]) -> usize {
    let mut tape = Tape::new();
    let p: Vec<_> = params.iter().map(|t| tape.leaf(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let logits = net.forward(&mut tape, &p, xv);
    let loss = cross_entropy(&mut tape, logits, labels, net.classes());
    black_box(tape.grad(loss, &p));
    tape.len()
}

/// `tensor.*`, `autograd.*`, `nn.*`: the compute substrate at batch 32 (a
/// training step) and batch 2 (a synthetic class).
pub fn kernels(values: &mut Values, reps: usize) {
    let mut rng = Rng::seed_from(0);
    let net = checks::model();
    let params = net.init(&mut rng);
    let (b32, b2) = (Shapes::of(&net, 32), Shapes::of(&net, 2));

    let fwd32 = b32.forward_matmul_s(reps, &mut rng);
    values.insert("tensor.matmul_b32_us", fwd32 * 1e6);
    values.insert(
        "tensor.matmul_b2_us",
        b2.forward_matmul_s(reps, &mut rng) * 1e6,
    );
    let flops: f64 = b32.matmuls.iter().map(MatMul::flops).sum();
    values.insert("tensor.matmul_b32_gflops", flops / fwd32 / 1e9);
    let im2col32 = b32.im2col_s(reps, &mut rng);
    let col2im32 = b32.col2im_s(reps, &mut rng);
    let pool32 = b32.avg_pool_s(reps, &mut rng);
    values.insert("tensor.im2col_b32_us", im2col32 * 1e6);
    values.insert("tensor.col2im_b32_us", col2im32 * 1e6);
    values.insert("tensor.avg_pool_b32_us", pool32 * 1e6);

    let dims = |n: usize| [n, net.in_channels(), net.input_hw(), net.input_hw()];
    let labels = |n: usize| (0..n).map(|i| i % net.classes()).collect::<Vec<_>>();
    let (x32, y32) = (Tensor::randn(&dims(32), &mut rng), labels(32));
    let (x2, y2) = (Tensor::randn(&dims(2), &mut rng), labels(2));
    let step32 = time(reps, || fwd_bwd(&net, &params, &x32, &y32));
    values.insert("autograd.fwd_bwd_b32_ms", step32 * 1e3);
    values.insert(
        "autograd.fwd_bwd_b2_ms",
        time(reps, || fwd_bwd(&net, &params, &x2, &y2)) * 1e3,
    );
    let before = AllocCount::now();
    let nodes = fwd_bwd(&net, &params, &x32, &y32);
    let allocs = AllocCount::now().since(before);
    values.insert("autograd.tape_nodes_b32", nodes as f64);
    values.insert("autograd.alloc_count_b32", allocs.count as f64);
    values.insert("autograd.alloc_bytes_b32", allocs.bytes as f64);
    // What the step costs beyond the kernels it runs: tape bookkeeping,
    // clones, elementwise ops and normalisation.
    let replayed = fwd32
        + b32.backward_matmul_s(reps, &mut rng)
        + im2col32
        + col2im32
        + pool32
        + b32.avg_unpool_s(reps, &mut rng);
    values.insert("autograd.bookkeeping_share_b32", 1.0 - replayed / step32);

    values.insert(
        "nn.forward_inference_b32_ms",
        time(reps, || forward_inference(&net, &params, &x32)) * 1e3,
    );
    let grads = params.clone();
    let mut stepped = params.clone();
    let sgd = Sgd::descent(0.01);
    values.insert(
        "nn.sgd_step_us",
        time(reps, || sgd.step(&mut stepped, &grads)) * 1e6,
    );
    values.insert(
        "nn.param_scalars",
        params.iter().map(Tensor::len).sum::<usize>() as f64,
    );

    let refs = reference_gradients(&net, &params, &x32, &y32, net.classes());
    values.insert(
        "distill.reference_gradients_ms",
        time(reps, || {
            reference_gradients(&net, &params, &x32, &y32, net.classes())
        }) * 1e3,
    );
    let match_step =
        || match_class_step(&net, &params, &refs, x2.clone(), 0, net.classes(), 0.5, 1);
    values.insert("distill.match_step_ms", time(reps, match_step) * 1e3);
    let before = AllocCount::now();
    black_box(match_step());
    values.insert(
        "distill.alloc_count_match_step",
        AllocCount::now().since(before).count as f64,
    );
}

/// `data.*`, `fed.aggregate_us`, `net.*`, `eval.*`, `cli.startup_ms`,
/// `proc.default_malloc_slowdown`, `chaos.runs_per_s`: one timed call into
/// each remaining layer.
pub fn layers(values: &mut Values, rig: &Rig, cli: &Path, fixture: &Path, dir: &Path, reps: usize) {
    let scale = &rig.scale;
    let mut rng = Rng::seed_from(1);
    values.insert(
        "data.generate_train_ms",
        time(reps, || DATASET.generate(scale.samples, &mut rng)) * 1e3,
    );
    values.insert(
        "data.generate_test_ms",
        time(reps, || DATASET.generate(scale.test_samples, &mut rng)) * 1e3,
    );
    let data = DATASET.generate(scale.samples, &mut rng);
    values.insert(
        "data.partition_ms",
        time(reps, || {
            partition_iid(data.len(), scale.clients, &mut rng)
                .iter()
                .map(|p| data.subset(p))
                .collect::<Vec<_>>()
        }) * 1e3,
    );

    let global = rig.model.init(&mut rng);
    let locals: Vec<Vec<Tensor>> = (0..scale.clients)
        .map(|_| rig.model.init(&mut rng))
        .collect();
    let updates: Vec<ClientUpdate<'_>> = locals
        .iter()
        .enumerate()
        .map(|(client, params)| ClientUpdate {
            client,
            weight: 1.0 / scale.clients as f32,
            params,
        })
        .collect();
    let mut fedavg = AggregatorKind::FedAvg.build();
    values.insert(
        "fed.aggregate_us",
        time(reps, || fedavg.aggregate(&global, &updates)) * 1e6,
    );

    let mut net = SimNet::new(
        NetConfig {
            latency_ms: 5.0,
            bandwidth_mbps: 100.0,
            ..NetConfig::default()
        }
        .validated(),
    );
    values.insert(
        "net.simnet_roundtrip_us",
        time(reps, || {
            net.begin_round(&[0]);
            let down = net.download(0, &global);
            let up = net.upload(0, down.tensors.unwrap_or_default());
            net.end_round();
            up
        }) * 1e6,
    );

    let test = checks::test_set(scale.test_samples, 1);
    let (f_set, r_set) = (test.only_class(0), test.without_class(0));
    values.insert(
        "eval.split_accuracy_ms",
        time(reps, || {
            split_accuracy(&*rig.model, &global, &f_set, &r_set)
        }) * 1e3,
    );

    let help = ["help".to_string()];
    values.insert(
        "cli.startup_ms",
        time(reps.min(10), || child::invoke(cli, &help)) * 1e3,
    );

    // What glibc's default malloc costs a request: the same `unlearn`s
    // on two copies of the fixture, alternating the two environments.
    let tuned_ckpt = deploy_copy(&dir.join("malloc-tuned"), fixture);
    let default_ckpt = deploy_copy(&dir.join("malloc-default"), fixture);
    let (mut tuned, mut default) = (Vec::new(), Vec::new());
    for class in 0..3 {
        let args = |ckpt: &Path| {
            rig.scale
                .request_args("unlearn", ckpt, UnlearnRequest::Class(class), 6)
        };
        tuned.push(child::invoke(cli, &args(&tuned_ckpt)).wall.as_secs_f64());
        default.push(
            child::invoke_default_malloc(cli, &args(&default_ckpt))
                .wall
                .as_secs_f64(),
        );
    }
    values.insert(
        "proc.default_malloc_slowdown",
        stats::median(&default).unwrap_or(f64::NAN) / stats::median(&tuned).unwrap_or(f64::NAN),
    );

    let mut harness = qd_chaos::Harness::new();
    let start = now();
    let runs = 2u64;
    for run in 0..runs {
        // A schedule the harness cannot execute is a broken harness, not
        // a measurement; the rate below then reads 0.
        if harness
            .run(&qd_chaos::ChaosSchedule::generate(7, run))
            .is_err()
        {
            values.insert("chaos.runs_per_s", 0.0);
            return;
        }
    }
    values.insert(
        "chaos.runs_per_s",
        runs as f64 / start.elapsed().as_secs_f64(),
    );
}

/// `fed.small_round_ms`, `unlearn.guard_overhead_share`,
/// `unlearn.speedup_vs_retrain`, `core.journal.append_ms` and friends:
/// measurements that need the trained deployment. Consumes the fixture's
/// real-data federation for the retraining oracle.
pub fn deployment(
    values: &mut Values,
    rig: &Rig,
    mut fed: Federation,
    qd: &QuickDrop,
    fixture: &Path,
    dir: &Path,
    reps: usize,
) -> Result<(), String> {
    let trained = fed.global().to_vec();
    let target = UnlearnRequest::Class(0);

    // One recovery-shaped round on the synthetic retain set: the fixed
    // per-round cost every request pays three or more times.
    let one_round = Phase {
        rounds: 1,
        ..qd.config().recover_phase
    };
    values.insert(
        "fed.small_round_ms",
        time(reps.min(10), || {
            let mut stub = rig.stub_federation(qd, trained.clone());
            qd.recover(&mut stub, &one_round, &mut Rng::seed_from(2))
        }) * 1e3,
    );

    // The same request unguarded and under a guard that never trips.
    let lenient = GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    };
    // Alternated, so a slow stretch of the machine lands on both sides.
    let (mut plain, mut guarded) = (Vec::new(), Vec::new());
    for _ in 0..reps.min(5) {
        plain.push(once(|| {
            let mut stub = rig.stub_federation(qd, trained.clone());
            qd.clone()
                .unlearn(&mut stub, target, &mut Rng::seed_from(3))
        }));
        guarded.push(once(|| {
            let mut stub = rig.stub_federation(qd, trained.clone());
            qd.clone()
                .unlearn_guarded(&mut stub, target, &lenient, &mut Rng::seed_from(3))
                .map(|o| o.guard)
        }));
    }
    let plain_s = stats::median(&plain).unwrap_or(f64::NAN);
    let guarded_s = stats::median(&guarded).unwrap_or(f64::NAN);
    values.insert("unlearn.guard_overhead_share", 1.0 - plain_s / guarded_s);

    // The paper's ratio in real units: retraining from scratch on the
    // retained real data, over QuickDrop serving the same request.
    let mut oracle = RetrainOracle::new(cli_config(&rig.scale).train_phase);
    let retrain_s = once(|| oracle.unlearn(&mut fed, target, &mut Rng::seed_from(4)));
    values.insert("unlearn.speedup_vs_retrain", retrain_s / plain_s);

    // One journal record carrying the real model, appended to a journal
    // of its own: serve a request to obtain such a record, then time
    // re-appending a copy of it.
    let scratch = deploy_copy(&dir.join("journal-probe"), fixture);
    let served = Rig::new(rig.scale).request(&scratch, false, target, 5)?;
    let source = RequestJournal::open(RequestJournal::path_for_checkpoint(&scratch))
        .map_err(|e| e.to_string())?;
    let record = source
        .last()
        .ok_or("served request left no record")?
        .clone();
    let counting = Arc::new(CountingFs::new(StdFs, None));
    let mut probe = RequestJournal::open_on(
        Arc::clone(&counting) as Arc<dyn Vfs>,
        dir.join("probe.journal"),
    )
    .map_err(|e| e.to_string())?;
    probe.append(record.clone()).map_err(|e| e.to_string())?; // also writes the marker
    let before = counting.counts();
    let appends = reps.min(10);
    let start = now();
    for _ in 0..appends {
        probe.append(record.clone()).map_err(|e| e.to_string())?;
    }
    let wall = start.elapsed().as_secs_f64();
    let after = counting.counts();
    let vfs_s = (after.busy - before.busy).as_secs_f64();
    values.insert("core.journal.append_ms", wall / appends as f64 * 1e3);
    values.insert("core.journal.encode_share", 1.0 - vfs_s / wall);
    values.insert(
        "core.journal.bytes_per_record",
        (after.bytes_written - before.bytes_written) as f64 / appends as f64,
    );
    values.insert(
        "core.journal.records_per_unlearn",
        served.records_appended as f64,
    );
    Ok(())
}
