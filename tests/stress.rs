//! Operational stress tests: interleaved request streams, partial
//! participation combined with failure injection, and FedEraser over
//! partial-participation histories.

use quickdrop::fed::{FaultKind, FaultPlan};
use quickdrop::{
    accuracy, fr_eval_sets, partition_dirichlet, partition_iid, Dataset, FedEraser, Federation,
    Mlp, Module, Phase, QuickDrop, QuickDropConfig, Rng, SyntheticDataset, UnlearnRequest,
    UnlearningMethod,
};
use std::sync::Arc;

fn federation(
    n_clients: usize,
    samples: usize,
    alpha: Option<f32>,
    seed: u64,
) -> (Federation, Dataset, Rng, Arc<dyn Module>) {
    let mut rng = Rng::seed_from(seed);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
    let data = SyntheticDataset::Digits.generate(samples, &mut rng);
    let test = SyntheticDataset::Digits.generate(samples / 2, &mut rng);
    let parts = match alpha {
        Some(a) => partition_dirichlet(data.labels(), 10, n_clients, a, &mut rng),
        None => partition_iid(data.len(), n_clients, &mut rng),
    };
    let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
    let fed = Federation::new(model.clone(), clients, &mut rng);
    (fed, test, rng, model)
}

#[test]
fn interleaved_class_and_client_requests_preserve_invariants() {
    let (mut fed, test, mut rng, model) = federation(5, 600, Some(0.5), 1);
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(8, 8, 32, 0.1);
    cfg.recover_phase = Phase::training(2, 8, 32, 0.1);
    cfg.max_unlearn_rounds = 3;
    let (mut qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);

    let stream = [
        UnlearnRequest::Class(2),
        UnlearnRequest::Client(1),
        UnlearnRequest::Class(7),
    ];
    for (i, &request) in stream.iter().enumerate() {
        let outcome = qd.unlearn(&mut fed, request, &mut rng);
        // Invariant 1: parameters stay finite through every request.
        assert!(
            fed.global().iter().all(|t| t.all_finite()),
            "non-finite parameters after request {i}"
        );
        // Invariant 2: each stage touches only synthetic-scale data.
        let real_total: usize = fed.clients().iter().map(Dataset::len).sum();
        assert!(outcome.unlearn.data_size < real_total / 4);
    }
    // Invariant 3: earlier class requests stay forgotten at the end.
    for class in [2usize, 7] {
        let (f, _) = fr_eval_sets(&fed, UnlearnRequest::Class(class), &test);
        let fa = accuracy(model.as_ref(), fed.global(), &f);
        assert!(fa < 0.3, "class {class} resurfaced at {fa}");
    }
}

#[test]
fn unlearning_works_after_faulty_partial_participation_training() {
    let (mut fed, test, mut rng, model) = federation(8, 700, Some(0.5), 2);
    let mut cfg = QuickDropConfig::scaled_test();
    // Train under adverse conditions: half the clients sampled per round,
    // and 2 of the 8 crash mid-round in about half their rounds.
    fed.set_fault_plan(Some(
        FaultPlan::new(2, 0.25).with_kinds(vec![FaultKind::Crash]),
    ));
    cfg.train_phase = Phase::training(12, 8, 32, 0.1).with_participation(0.5);
    cfg.recover_phase = Phase::training(2, 8, 32, 0.1);
    let (mut qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
    fed.set_fault_plan(None);
    let acc = accuracy(model.as_ref(), fed.global(), &test);
    assert!(acc > 0.5, "training under faults reached only {acc}");

    let request = UnlearnRequest::Class(4);
    let (f, r) = fr_eval_sets(&fed, request, &test);
    qd.unlearn(&mut fed, request, &mut rng);
    let fa = accuracy(model.as_ref(), fed.global(), &f);
    let ra = accuracy(model.as_ref(), fed.global(), &r);
    assert!(fa < 0.25, "forget accuracy {fa}");
    assert!(ra > 0.45, "retain accuracy {ra}");
}

#[test]
fn federaser_handles_partial_participation_histories() {
    let (mut fed, test, mut rng, model) = federation(6, 500, None, 3);
    fed.set_record_history(true);
    let mut trainers = quickdrop::fed::sgd_trainers(model.clone(), 6);
    let train_phase = Phase::training(10, 8, 32, 0.1).with_participation(0.5);
    fed.run_phase(&mut trainers, None, &train_phase, &mut rng);
    fed.set_record_history(false);
    // Histories have varying participant sets per round.
    let distinct: std::collections::BTreeSet<Vec<usize>> = fed
        .history()
        .iter()
        .map(|r| r.participants.clone())
        .collect();
    assert!(distinct.len() > 1, "expected varying participant sets");

    let mut fe = FedEraser::new(2, 16, 0.1, Phase::training(2, 8, 32, 0.1));
    fe.unlearn(&mut fed, UnlearnRequest::Client(2), &mut rng);
    assert!(fed.global().iter().all(|t| t.all_finite()));
    let (_, r) = fr_eval_sets(&fed, UnlearnRequest::Client(2), &test);
    let ra = accuracy(model.as_ref(), fed.global(), &r);
    assert!(ra > 0.4, "retain accuracy after calibrated replay {ra}");
}

#[test]
fn checkpoint_survives_mid_stream_restart() {
    // Serve one request, checkpoint, "restart", serve another: the
    // restored deployment must keep the first request forgotten.
    let (mut fed, test, mut rng, model) = federation(4, 500, Some(0.5), 4);
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(8, 8, 32, 0.1);
    cfg.recover_phase = Phase::training(2, 8, 32, 0.1);
    let (mut qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
    qd.unlearn(&mut fed, UnlearnRequest::Class(5), &mut rng);

    let ckpt = quickdrop::Checkpoint::capture(fed.global(), &qd);
    let (params, mut qd2) = ckpt.restore().unwrap();
    let clients: Vec<_> = fed.clients().to_vec();
    let mut fed2 = Federation::with_params(model.clone(), clients, params);

    qd2.unlearn(&mut fed2, UnlearnRequest::Class(9), &mut rng);
    for class in [5usize, 9] {
        let (f, _) = fr_eval_sets(&fed2, UnlearnRequest::Class(class), &test);
        let fa = accuracy(model.as_ref(), fed2.global(), &f);
        assert!(fa < 0.3, "class {class} known after restart at {fa}");
    }
}
