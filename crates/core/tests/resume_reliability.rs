//! Kill-and-resume acceptance for the client circuit breaker: a training
//! run with mid-round failures and an active breaker is killed while a
//! client is cooling down, and the resumed run must reproduce the
//! uninterrupted one bit-for-bit — the breaker state rides inside the
//! checkpoint cursor.

#![allow(clippy::disallowed_methods, reason = "the test removes its own files")]

use qd_core::{Checkpoint, CheckpointPolicy, QuickDrop, QuickDropConfig, TrainRun};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{FaultKind, FaultPlan, Federation, HealthConfig, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::sync::Arc;

/// Rebuilds the experiment from scratch — the stand-in for a fresh
/// process after a kill — with a one-strike circuit breaker installed and
/// half the clients crashing mid-round in about half their rounds.
fn fresh_fed() -> (Federation, Rng) {
    let mut rng = Rng::seed_from(23);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let data = SyntheticDataset::Digits.generate(240, &mut rng);
    let parts = partition_iid(data.len(), 4, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let mut fed = Federation::new(model, clients, &mut rng);
    fed.set_health(HealthConfig { breaker_after: 1 });
    fed.set_fault_plan(Some(
        FaultPlan::new(23, 0.5).with_kinds(vec![FaultKind::Crash]),
    ));
    (fed, rng)
}

/// A phase whose breaker cools a crashed client down for three rounds.
fn config() -> QuickDropConfig {
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(8, 3, 16, 0.1)
        .with_participation(0.75)
        .with_cooldown_rounds(3);
    cfg
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

#[test]
fn killed_run_with_cooled_down_client_resumes_bit_for_bit() {
    let dir = std::env::temp_dir().join("qd_resume_reliability_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.json");

    // Reference: the uninterrupted run, which must actually exercise the
    // breaker for this test to mean anything.
    let (mut fed_ref, mut rng_ref) = fresh_fed();
    let (_, report_ref) = QuickDrop::train(&mut fed_ref, config(), &mut rng_ref);
    assert!(
        report_ref.fl_stats.resilience.cooled_down > 0,
        "test premise: crashing clients with a one-strike breaker must \
         cool someone down, got {:?}",
        report_ref.fl_stats.resilience
    );

    // Interrupted run: checkpoint every 2 rounds, killed after round 5.
    let (mut fed_a, mut rng_a) = fresh_fed();
    let policy = CheckpointPolicy {
        every: 2,
        path: path.clone(),
        preempt_after: Some(5),
    };
    let run = QuickDrop::train_with_checkpoints(&mut fed_a, config(), &mut rng_a, &policy).unwrap();
    assert!(matches!(
        run,
        TrainRun::Preempted {
            rounds_completed: 5
        }
    ));

    // The surviving checkpoint (round-4 boundary) must carry an open
    // breaker — the scenario under test.
    let ckpt = Checkpoint::load(&path).unwrap();
    let cursor = &ckpt.mid_phase().expect("mid-phase cursor").cursor;
    assert_eq!(cursor.next_round, 4);
    assert!(
        cursor.health.cooldown.iter().any(|&c| c > 0),
        "test premise: a client must be cooling down at the kill point, \
         got {:?}",
        cursor.health
    );

    // Resume in a "new process" (fresh breaker, state restored from the
    // checkpoint) and compare against the uninterrupted run.
    let (mut fed_b, mut rng_b) = fresh_fed();
    let (_, report_b) = QuickDrop::resume_train(&mut fed_b, ckpt, &mut rng_b, None)
        .unwrap()
        .into_complete()
        .expect("resumed run finishes");
    assert_eq!(report_b.fl_stats.rounds, 4, "only the remaining rounds ran");
    assert_bit_identical(fed_ref.global(), fed_b.global());

    std::fs::remove_file(&path).ok();
}
