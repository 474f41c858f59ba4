//! Edge cases and failure injection across the stack: degenerate
//! federations, missing classes, extreme scale parameters, repeated and
//! out-of-order requests.

use quickdrop::{
    accuracy, fr_eval_sets, Federation, Mlp, Module, Phase, QuickDrop, QuickDropConfig, Rng,
    SyntheticDataset, SyntheticSet, UnlearnRequest, UnlearningMethod,
};
use std::sync::Arc;

fn mini_fed(n_clients: usize, samples: usize, seed: u64) -> (Federation, Rng, Arc<dyn Module>) {
    let mut rng = Rng::seed_from(seed);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
    let data = SyntheticDataset::Digits.generate(samples, &mut rng);
    let parts = quickdrop::partition_iid(data.len(), n_clients, &mut rng);
    let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
    let fed = Federation::new(model.clone(), clients, &mut rng);
    (fed, rng, model)
}

#[test]
fn single_client_federation_works_end_to_end() {
    let (mut fed, mut rng, _) = mini_fed(1, 120, 1);
    let (mut qd, _) = QuickDrop::train(&mut fed, QuickDropConfig::scaled_test(), &mut rng);
    let outcome = qd.unlearn(&mut fed, UnlearnRequest::Class(0), &mut rng);
    assert!(outcome.unlearn.rounds <= 1);
}

#[test]
fn unlearning_a_class_nobody_holds_is_a_noop() {
    let (fed, mut rng, _) = mini_fed(2, 60, 2);
    // Rebuild clients without class 9 anywhere.
    let stripped: Vec<_> = (0..2)
        .map(|i| fed.client_data(i).without_class(9))
        .collect();
    let model = fed.model().clone();
    let mut fed = Federation::new(model, stripped, &mut rng);
    let (mut qd, _) = QuickDrop::train(&mut fed, QuickDropConfig::scaled_test(), &mut rng);
    let outcome = qd.unlearn(&mut fed, UnlearnRequest::Class(9), &mut rng);
    // No client owns synthetic class-9 data: zero unlearning rounds run.
    assert_eq!(outcome.unlearn.rounds, 0);
    assert_eq!(outcome.unlearn.data_size, 0);
    // Recovery may still run (it uses the retain set), so only the
    // unlearning stage must be free.
}

#[test]
fn unlearning_the_same_class_twice_is_stable() {
    let (mut fed, mut rng, model) = mini_fed(3, 300, 3);
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(6, 8, 32, 0.1);
    let (mut qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
    qd.unlearn(&mut fed, UnlearnRequest::Class(2), &mut rng);
    qd.unlearn(&mut fed, UnlearnRequest::Class(2), &mut rng);
    let test = SyntheticDataset::Digits.generate(200, &mut rng);
    let (f, r) = fr_eval_sets(&fed, UnlearnRequest::Class(2), &test);
    assert!(accuracy(model.as_ref(), fed.global(), &f) < 0.3);
    assert!(accuracy(model.as_ref(), fed.global(), &r) > 0.4);
}

#[test]
fn relearn_without_prior_unlearn_is_benign() {
    let (mut fed, mut rng, _) = mini_fed(2, 120, 4);
    let (mut qd, _) = QuickDrop::train(&mut fed, QuickDropConfig::scaled_test(), &mut rng);
    let phase = qd.config().relearn_phase;
    // Nothing was unlearned; relearning just trains on the class's
    // synthetic data, which must not panic.
    let stats = qd
        .relearn(&mut fed, UnlearnRequest::Class(1), &phase, &mut rng)
        .unwrap();
    assert!(stats.rounds > 0);
}

#[test]
fn huge_scale_still_keeps_one_sample_per_owned_class() {
    let mut rng = Rng::seed_from(5);
    let data = SyntheticDataset::Digits.generate(200, &mut rng);
    let syn = SyntheticSet::init_from_real(&data, 1_000_000, &mut rng);
    // ceil(|D_c| / s) >= 1 whenever the class exists.
    for class in 0..10 {
        let has_real = !data.indices_of_class(class).is_empty();
        assert_eq!(syn.class_samples(class).is_some(), has_real);
        if let Some(t) = syn.class_samples(class) {
            assert_eq!(t.dims()[0], 1);
        }
    }
}

#[test]
fn unlearning_every_class_leaves_an_unusable_but_stable_model() {
    let (mut fed, mut rng, model) = mini_fed(2, 300, 6);
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(6, 8, 32, 0.1);
    let (mut qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
    for class in 0..10 {
        qd.unlearn(&mut fed, UnlearnRequest::Class(class), &mut rng);
    }
    // All knowledge gone; parameters still finite.
    assert!(fed.global().iter().all(|t| t.all_finite()));
    let test = SyntheticDataset::Digits.generate(100, &mut rng);
    let acc = accuracy(model.as_ref(), fed.global(), &test);
    assert!(acc < 0.35, "everything unlearned but accuracy is {acc}");
}

#[test]
fn client_unlearning_of_each_client_in_turn() {
    let (mut fed, mut rng, _) = mini_fed(3, 240, 7);
    let (mut qd, _) = QuickDrop::train(&mut fed, QuickDropConfig::scaled_test(), &mut rng);
    for client in 0..3 {
        let outcome = qd.unlearn(&mut fed, UnlearnRequest::Client(client), &mut rng);
        // Once every client is forgotten, recovery has nothing to run on.
        if client == 2 {
            assert_eq!(outcome.recovery.rounds, 0);
        }
    }
    assert!(fed.global().iter().all(|t| t.all_finite()));
}

#[test]
fn phase_with_zero_rounds_is_free() {
    let (mut fed, mut rng, _) = mini_fed(2, 60, 8);
    let mut trainers = quickdrop::fed::sgd_trainers(fed.model().clone(), 2);
    let stats = fed.run_phase(
        &mut trainers,
        None,
        &Phase::training(0, 5, 8, 0.1),
        &mut rng,
    );
    assert_eq!(stats.rounds, 0);
    assert_eq!(stats.samples_processed, 0);
}
