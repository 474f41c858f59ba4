//! Property tests for `SimNet`'s determinism guarantees: every random
//! decision is a pure function of `(seed, round, client, event, seq)`,
//! so the order in which clients appear in `begin_round` — or are
//! serviced within the round — must not change any client's drawn
//! latency, loss outcome, or dropout verdict.

use proptest::prelude::*;
use qd_net::{NetConfig, SimNet, Transport};
use qd_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Duration;

fn params() -> Vec<Tensor> {
    let mut rng = qd_tensor::rng::Rng::seed_from(17);
    vec![Tensor::randn(&[16, 8], &mut rng)]
}

/// Applies the permutation `perm` (a vector of distinct ranks) to the
/// canonical participant set `0..n`.
fn permuted(perm: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..perm.len()).collect();
    order.sort_by_key(|&i| perm[i]);
    order
}

/// Runs `rounds` rounds over `participants` (in the given order) and
/// returns each client's per-round `(delivered, sim, attempts)` trace.
fn trace(
    cfg: NetConfig,
    rounds: usize,
    participants: &[usize],
) -> BTreeMap<usize, Vec<(bool, Duration, u32)>> {
    let p = params();
    let mut net = SimNet::new(cfg);
    let mut out: BTreeMap<usize, Vec<(bool, Duration, u32)>> = BTreeMap::new();
    for _ in 0..rounds {
        net.begin_round(participants);
        for &c in participants {
            let d = net.download(c, &p);
            out.entry(c)
                .or_default()
                .push((d.delivered(), d.sim, d.attempts));
        }
        net.end_round();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn participant_order_never_changes_a_clients_draws(
        perm in proptest::collection::vec(0usize..1000, 2..8usize),
        seed in 0u64..64,
    ) {
        // A faulty, jittery network where every stream matters: dropout,
        // loss (=> retries), jitter (=> latency draws) all active.
        let cfg = NetConfig {
            latency_ms: 10.0,
            jitter_ms: 25.0,
            loss_prob: 0.25,
            dropout_prob: 0.25,
            straggler_frac: 0.3,
            straggler_slowdown: 5.0,
            seed,
            ..NetConfig::default()
        };
        let canonical: Vec<usize> = (0..perm.len()).collect();
        let mut shuffled = permuted(&perm);
        if shuffled == canonical {
            shuffled.reverse(); // len >= 2, so this is a real permutation
        }
        let a = trace(cfg, 3, &canonical);
        let b = trace(cfg, 3, &shuffled);
        prop_assert_eq!(
            a, b,
            "permuting the participant slice changed a drawn outcome"
        );
    }

    #[test]
    fn draws_are_stable_under_interleaved_rerequests(
        seed in 0u64..64,
        extra in 1usize..4,
    ) {
        // Re-requesting one client's transfer mid-round must not shift
        // any *other* client's draws: the sequence counters are
        // per-client.
        let cfg = NetConfig {
            jitter_ms: 40.0,
            loss_prob: 0.2,
            seed,
            ..NetConfig::default()
        };
        let p = params();
        let run = |rerequests: usize| {
            let mut net = SimNet::new(cfg);
            net.begin_round(&[0, 1, 2]);
            let first = net.download(0, &p).sim;
            for _ in 0..rerequests {
                net.download(1, &p); // noisy neighbour re-requests
            }
            let other = net.download(2, &p).sim;
            net.end_round();
            (first, other)
        };
        prop_assert_eq!(run(0), run(extra));
    }
}
