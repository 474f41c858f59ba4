//! Property tests for `SimNet`'s determinism guarantees: the dropout
//! verdict is a pure function of `(seed, round, client)`, so the order in
//! which clients appear in `begin_round` — or are serviced within the
//! round — must not change any client's outcome or simulated time.

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
/// returns each client's per-round `(delivered, sim)` trace.
fn trace(
    cfg: NetConfig,
    rounds: usize,
    participants: &[usize],
) -> BTreeMap<usize, Vec<(bool, Duration)>> {
    let p = params();
    let mut net = SimNet::new(cfg);
    let mut out: BTreeMap<usize, Vec<(bool, Duration)>> = BTreeMap::new();
    for _ in 0..rounds {
        net.begin_round(participants);
        for &c in participants {
            let d = net.download(c, &p);
            out.entry(c).or_default().push((d.delivered(), d.sim));
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
        // A slow network with dropout: every client's verdict is drawn.
        let cfg = NetConfig {
            latency_ms: 10.0,
            bandwidth_mbps: 50.0,
            dropout_prob: 0.25,
            seed,
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

}

/// The unreachable clients of 20 rounds over clients `0..4` under
/// `NetConfig::lossy(seed, p)`, one bit per `(round, client)` at
/// `4 * round + client`.
fn unreachable_mask(seed: u64, p: f32) -> u128 {
    let params = params();
    let mut net = SimNet::new(NetConfig::lossy(seed, p));
    let mut mask = 0u128;
    for round in 0..20 {
        net.begin_round(&[0, 1, 2, 3]);
        for client in 0..4 {
            if !net.download(client, &params).delivered() {
                mask |= 1 << (4 * round + client);
            }
        }
        net.end_round();
    }
    mask
}

/// Captured at commit 6e2f435, before `SimNet` was cut down to latency,
/// bandwidth and dropout: the dropout draw — the one the chaos harness's
/// `net_drop` environment trains under — must not move.
#[test]
fn lossy_dropout_draws_are_pinned() {
    const PINNED: [(u64, f32, u128); 6] = [
        (0, 0.2, 0xc80008c0040420cc2),
        (0, 0.5, 0x18cd9a44bfc3c8c2bec6),
        (7, 0.2, 0xc02010801012400b022),
        (7, 0.5, 0x5d825d5917792585ba2a),
        (42, 0.2, 0x244004840600c1105c20),
        (42, 0.5, 0x3e5165b42e18dd587fb3),
    ];
    for (seed, p, mask) in PINNED {
        assert_eq!(unreachable_mask(seed, p), mask, "lossy({seed}, {p})");
    }
}

/// A config `validated()` accepts never panics the simulator: a transfer
/// time past what a `Duration` holds saturates instead.
#[test]
fn extreme_valid_links_saturate_instead_of_panicking() {
    let p = params();
    for cfg in [
        NetConfig {
            latency_ms: f32::MAX,
            ..NetConfig::default()
        },
        NetConfig {
            bandwidth_mbps: 1e-30,
            ..NetConfig::default()
        },
    ] {
        let mut net = SimNet::new(cfg.validated());
        for _ in 0..2 {
            net.begin_round(&[0, 1]);
            for client in [0, 1] {
                let down = net.download(client, &p);
                assert_eq!(down.sim, Duration::MAX, "{cfg:?}");
                net.upload(client, down.tensors.unwrap_or_default());
            }
            net.end_round();
        }
        assert_eq!(net.take_stats().sim, Duration::MAX, "{cfg:?}");
    }
}
