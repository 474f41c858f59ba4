//! Integration tests for the client-health circuit breaker and
//! bit-for-bit resume with health state in the cursor.

use qd_fed::{
    sgd_trainers, ClientTrainer, FaultKind, FaultPlan, Federation, HealthConfig, Phase, ResumeState,
};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::sync::Arc;

fn build(seed: u64, n_clients: usize) -> (Federation, Vec<Box<dyn ClientTrainer>>, Rng) {
    let mut rng = Rng::seed_from(seed);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let clients: Vec<_> = (0..n_clients)
        .map(|_| qd_data::SyntheticDataset::Digits.generate(16, &mut rng))
        .collect();
    let fed = Federation::new(model.clone(), clients, &mut rng);
    let trainers = sgd_trainers(model, n_clients);
    (fed, trainers, rng)
}

/// A plan whose `frac` of the clients crash mid-round, each in about half
/// its rounds, and upload nothing.
fn crash_plan(seed: u64, frac: f32) -> Option<FaultPlan> {
    Some(FaultPlan::new(seed, frac).with_kinds(vec![FaultKind::Crash]))
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}

#[test]
fn breaker_cools_down_failing_clients_and_probes_reentry() {
    let (mut fed, mut trainers, mut rng) = build(3, 4);
    fed.set_health(HealthConfig { breaker_after: 1 });
    fed.set_fault_plan(crash_plan(3, 0.5));
    // Heavy mid-round crashes with a one-strike breaker: failures open
    // cooldowns, cooldowns expire into half-open probes.
    let phase = Phase::training(14, 1, 8, 0.05).with_cooldown_rounds(2);
    let stats = fed.run_phase(&mut trainers, None, &phase, &mut rng);
    assert_eq!(stats.rounds, 14);
    assert!(
        stats.resilience.cooled_down > 0,
        "half the clients crashing with a one-strike breaker must trip: {:?}",
        stats.resilience
    );
    assert!(
        stats.resilience.half_open_probes > 0,
        "expired cooldowns must re-enter as probes: {:?}",
        stats.resilience
    );
}

#[test]
fn zero_cooldown_leaves_the_sampling_pool_alone() {
    // cooldown_rounds == 0 disables the breaker: health bookkeeping runs
    // but never removes a client, so the trace matches a run under the
    // most trigger-happy policy bit-for-bit.
    let run = |config: HealthConfig| {
        let (mut fed, mut trainers, mut rng) = build(9, 5);
        fed.set_health(config);
        fed.set_fault_plan(crash_plan(9, 0.4));
        let phase = Phase::training(8, 1, 8, 0.05).with_participation(0.6);
        fed.run_phase(&mut trainers, None, &phase, &mut rng);
        fed.global().to_vec()
    };
    let strict = run(HealthConfig { breaker_after: 1 });
    let lax = run(HealthConfig { breaker_after: 100 });
    assert_bit_identical(&strict, &lax);
}

#[test]
fn resume_mid_phase_with_open_breaker_is_bit_for_bit() {
    // Run 12 rounds with faults and an aggressive breaker, capturing the
    // cursor after round 5 — by which point some client has cooled down —
    // then resume a fresh federation from it and compare final params.
    let phase = Phase::training(12, 1, 8, 0.05)
        .with_participation(0.75)
        .with_cooldown_rounds(3);
    let health = HealthConfig { breaker_after: 1 };

    let (mut fed, mut trainers, mut rng) = build(11, 4);
    fed.set_health(health);
    fed.set_fault_plan(crash_plan(11, 0.5));
    let mut mid: Option<(ResumeState, Vec<Tensor>)> = None;
    let mut observer = |cursor: &ResumeState, global: &[Tensor], _: &[Box<dyn ClientTrainer>]| {
        if cursor.next_round == 5 {
            mid = Some((cursor.clone(), global.to_vec()));
        }
        true
    };
    fed.run_phase_resumable(
        &mut trainers,
        None,
        &phase,
        &mut rng,
        None,
        Some(&mut observer),
    );
    let full = fed.global().to_vec();
    let (cursor, global_at_5) = mid.expect("phase reached round 5");
    assert!(
        cursor.health.cooldown.iter().any(|&c| c > 0),
        "test premise: some breaker must be open at the capture point, got {:?}",
        cursor.health
    );

    let (mut fed2, mut trainers2, _) = build(11, 4);
    fed2.set_health(health);
    fed2.set_fault_plan(crash_plan(11, 0.5));
    fed2.set_global(global_at_5);
    let mut rng2 = Rng::seed_from(0); // overwritten by the cursor
    fed2.run_phase_resumable(&mut trainers2, None, &phase, &mut rng2, Some(&cursor), None);
    assert_bit_identical(&full, fed2.global());
}
