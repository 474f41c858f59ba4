//! Integration tests for the federation ↔ transport seam: the loopback
//! default must reproduce pre-transport results bit-for-bit, an ideal
//! `SimNet` must agree with it, and slow networks with dropout must be
//! priced deterministically.

use qd_fed::{sgd_trainers, Federation, NetConfig, Phase, PhaseStats, SimNet};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::sync::Arc;

/// Trains a small federation from a fixed seed, optionally routing all
/// exchanges through a `SimNet` with the given config.
fn run(seed: u64, net: Option<NetConfig>, phase: &Phase) -> (Vec<Tensor>, PhaseStats) {
    let mut rng = Rng::seed_from(seed);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let clients: Vec<_> = (0..3)
        .map(|_| qd_data::SyntheticDataset::Digits.generate(20, &mut rng))
        .collect();
    let mut fed = Federation::new(model.clone(), clients, &mut rng);
    if let Some(cfg) = net {
        fed.set_transport(Box::new(SimNet::new(cfg)));
    }
    let mut trainers = sgd_trainers(model, 3);
    let stats = fed.run_phase(&mut trainers, None, phase, &mut rng);
    (fed.global().to_vec(), stats)
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape(), y.shape());
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}

#[test]
fn loopback_and_ideal_simnet_agree_bit_for_bit() {
    // The regression gate of the transport rework: the default loopback
    // path and an ideal simulated network (lossless f32 wire) must both
    // produce exactly the parameters the pre-transport code produced.
    let phase = Phase::training(3, 4, 8, 0.1);
    let (loopback, loop_stats) = run(42, None, &phase);
    let (simulated, sim_stats) = run(42, Some(NetConfig::default()), &phase);
    assert_bit_identical(&loopback, &simulated);

    // Loopback is free; the ideal network still counts wire traffic but
    // charges no simulated time.
    assert_eq!(loop_stats.net.total_bytes(), 0);
    assert!(sim_stats.net.total_bytes() > 0);
    assert_eq!(sim_stats.net.sim, std::time::Duration::ZERO);
    assert_eq!(sim_stats.net.delivered, sim_stats.net.transfers);

    // Transport choice never changes the learning-level accounting.
    assert_eq!(loop_stats.rounds, sim_stats.rounds);
    assert_eq!(loop_stats.samples_processed, sim_stats.samples_processed);
    assert_eq!(loop_stats.download_scalars, sim_stats.download_scalars);
    assert_eq!(loop_stats.upload_scalars, sim_stats.upload_scalars);
}

#[test]
fn same_seed_and_config_reproduce_netstats_and_params() {
    // Full determinism under a degraded network: latency, bandwidth and
    // dropout all active.
    let cfg = NetConfig {
        latency_ms: 5.0,
        bandwidth_mbps: 50.0,
        dropout_prob: 0.2,
        seed: 7,
    };
    let phase = Phase::training(4, 2, 8, 0.1);
    let (params_a, stats_a) = run(9, Some(cfg), &phase);
    let (params_b, stats_b) = run(9, Some(cfg), &phase);
    assert_bit_identical(&params_a, &params_b);
    assert_eq!(stats_a.net, stats_b.net);
    assert_eq!(stats_a.samples_processed, stats_b.samples_processed);

    // A different network seed must change the fault trace.
    let (_, stats_c) = run(9, Some(NetConfig { seed: 8, ..cfg }), &phase);
    assert_ne!(stats_a.net, stats_c.net);
}

#[test]
fn slow_lossy_network_reports_time_bytes_and_drops() {
    let cfg = NetConfig {
        latency_ms: 20.0,
        bandwidth_mbps: 10.0,
        dropout_prob: 0.3,
        seed: 3,
    };
    let phase = Phase::training(6, 1, 8, 0.1);
    let (params, stats) = run(5, Some(cfg), &phase);
    assert!(params.iter().all(|t| t.all_finite()));
    assert!(stats.net.total_bytes() > 0);
    // 6 rounds x >= 20 ms of latency each way.
    assert!(stats.net.sim >= std::time::Duration::from_millis(6 * 40));
    assert!(
        stats.net.unreachable > 0,
        "30% dropout over 6 rounds must miss someone"
    );
    assert_eq!(
        stats.net.transfers,
        stats.net.delivered + stats.net.unreachable
    );
    // Unreachable clients compute nothing, so uploads fall short of the
    // loopback count for the same phase.
    assert!(stats.upload_scalars < stats.download_scalars);
}

#[test]
fn phase_stats_surface_net_costs() {
    let cfg = NetConfig {
        latency_ms: 10.0,
        seed: 1,
        ..NetConfig::default()
    };
    let phase = Phase::training(4, 1, 8, 0.1);
    let (_, stats) = run(2, Some(cfg), &phase);
    assert_eq!(stats.rounds, 4);
    // Every round moves the model down to and up from each of the three
    // clients, and pays at least one download and one upload latency.
    assert!(stats.net.total_bytes() > 0);
    assert_eq!(stats.net.transfers, 4 * 3 * 2);
    assert!(stats.net.sim >= std::time::Duration::from_millis(4 * 20));
}

/// CRC-32 (IEEE, reflected) over the parameters' little-endian bits.
fn crc32(params: &[Tensor]) -> u32 {
    let mut crc = !0u32;
    for byte in params
        .iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
    {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The final parameters' CRC and every `NetStats` counter, captured at
/// commit 6e2f435, before `SimNet` was cut down to latency, bandwidth and
/// dropout: the chaos harness's dropout-only network and the benchmark's
/// latency + bandwidth link must still train the same model and pay the
/// same cost.
#[test]
fn the_two_shipped_networks_train_the_pinned_model_at_the_pinned_cost() {
    let phase = Phase::training(6, 2, 8, 0.1);
    let cases = [
        (NetConfig::lossy(7, 0.3), PIN_LOSSY),
        (
            NetConfig {
                latency_ms: 5.0,
                bandwidth_mbps: 100.0,
                ..NetConfig::default()
            },
            PIN_LINK,
        ),
    ];
    for (cfg, pin) in cases {
        let (params, stats) = run(5, Some(cfg), &phase);
        let n = stats.net;
        let got = (
            crc32(&params),
            n.bytes_down,
            n.bytes_up,
            n.sim.as_nanos(),
            n.transfers,
            n.delivered,
            n.unreachable,
        );
        assert_eq!(got, pin, "{cfg:?}");
        assert_eq!(n.transfers, n.delivered + n.unreachable);
    }
}

type Pin = (u32, u64, u64, u128, u64, u64, u64);
const PIN_LOSSY: Pin = (3295693179, 206424, 206424, 1000000000, 30, 24, 6);
const PIN_LINK: Pin = (2460348390, 309636, 309636, 76513920, 36, 36, 0);
