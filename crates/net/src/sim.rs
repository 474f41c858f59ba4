//! The deterministic network simulator.

use crate::{Delivery, NetConfig, NetStats, Payload, Transport};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Duration;

/// Stream tag of the per-round dropout draw.
const TAG_DROPOUT: u64 = 0x01;

/// Mixed into the dropout stream's seed. Part of the derivation the
/// pinned dropout traces depend on (`sim_props.rs`), so it stays as is.
const SEQ_MIX: u64 = 0xD1B5_4A32_D192_ED03;

/// What an unreachable client costs: the server waits this long before
/// giving up on it for the round.
const UNREACHABLE_WAIT: Duration = Duration::from_millis(200);

/// A simulated server ↔ client network: every message pays the link's
/// latency plus its bytes over the bandwidth, and a client may be
/// unreachable for a whole round (dropout).
///
/// Tensors are handed over unchanged — the wire layout is lossless — so a
/// `SimNet` changes what a federation learns only through dropout.
///
/// Determinism: the dropout verdict is drawn from a stream derived from
/// `(config.seed, round, client)`, so outcomes depend only on the
/// [`NetConfig`] and the sequence of rounds — never on call order,
/// thread scheduling, or the federation's own RNG. Two runs with the same
/// seeds produce identical traffic and identical [`NetStats`].
///
/// Simulated time is bookkept, not slept: a phase over a 500 ms-latency
/// link finishes as fast as loopback in real time while reporting the
/// network cost it would have paid. A transfer time too long for a
/// [`Duration`] saturates at [`Duration::MAX`].
pub struct SimNet {
    config: NetConfig,
    round: u64,
    stats: NetStats,
    /// Clients unreachable for the current round.
    unreachable: Vec<usize>,
    /// Per-client network path time accumulated this round.
    path: BTreeMap<usize, Duration>,
    /// Encoded size of the current round's global model (identical for
    /// every participant, so it is encoded once).
    down_bytes: Option<u64>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimNet(round {}, {:?}, {} unreachable)",
            self.round,
            self.config,
            self.unreachable.len()
        )
    }
}

/// SplitMix64 finalizer, used to derive independent stream seeds.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimNet {
    /// Creates a simulator for the given (validated) configuration.
    pub fn new(config: NetConfig) -> Self {
        SimNet {
            config: config.validated(),
            round: 0,
            stats: NetStats::default(),
            unreachable: Vec::new(),
            path: BTreeMap::new(),
            down_bytes: None,
        }
    }

    /// The RNG of `client`'s dropout draw this round.
    fn dropout_rng(&self, client: usize) -> Rng {
        let s = self.config.seed
            ^ mix(self.round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64) << 8
                ^ TAG_DROPOUT
                ^ SEQ_MIX);
        Rng::seed_from(mix(s))
    }

    /// One-way transfer time of `bytes`: latency plus serialization.
    fn transfer_time(&self, bytes: u64) -> Duration {
        let mut ms = self.config.latency_ms as f64;
        if self.config.bandwidth_mbps > 0.0 {
            // bytes * 8 bits / (mbps * 1e6 bit/s) seconds, in ms.
            ms += bytes as f64 * 8.0 * 1e3 / (self.config.bandwidth_mbps as f64 * 1e6);
        }
        Duration::try_from_secs_f64(ms / 1e3).unwrap_or(Duration::MAX)
    }

    /// Charges `sim` to `client`'s path this round and counts the
    /// transfer.
    fn charge(&mut self, client: usize, sim: Duration) {
        let path = self.path.entry(client).or_default();
        *path = path.saturating_add(sim);
        self.stats.transfers += 1;
    }

    /// Hands `tensors` over after one transfer time of `bytes`.
    fn deliver(&mut self, client: usize, tensors: Vec<Tensor>, bytes: u64) -> Delivery {
        let sim = self.transfer_time(bytes);
        self.charge(client, sim);
        self.stats.delivered += 1;
        Delivery {
            tensors: Some(tensors),
            bytes,
            sim,
        }
    }
}

impl Transport for SimNet {
    fn begin_round(&mut self, participants: &[usize]) {
        self.round += 1;
        self.path.clear();
        self.down_bytes = None;
        self.unreachable.clear();
        if self.config.dropout_prob > 0.0 {
            for &c in participants {
                if self.dropout_rng(c).uniform(0.0, 1.0) < self.config.dropout_prob {
                    self.unreachable.push(c);
                }
            }
        }
    }

    fn download(&mut self, client: usize, params: &[Tensor]) -> Delivery {
        if self.unreachable.contains(&client) {
            // The server gives up on the unreachable client after one
            // wait; nothing crosses the wire.
            self.charge(client, UNREACHABLE_WAIT);
            self.stats.unreachable += 1;
            return Delivery {
                tensors: None,
                bytes: 0,
                sim: UNREACHABLE_WAIT,
            };
        }
        let bytes = *self
            .down_bytes
            .get_or_insert_with(|| Payload::encode(params).len() as u64);
        self.stats.bytes_down += bytes;
        self.deliver(client, params.to_vec(), bytes)
    }

    fn upload(&mut self, client: usize, params: Vec<Tensor>) -> Delivery {
        debug_assert!(
            !self.unreachable.contains(&client),
            "a client that never got the model cannot upload"
        );
        let bytes = Payload::encode(&params).len() as u64;
        self.stats.bytes_up += bytes;
        self.deliver(client, params, bytes)
    }

    fn end_round(&mut self) {
        // Clients proceed in parallel: the round's network cost is the
        // slowest client's path.
        if let Some(makespan) = self.path.values().max() {
            self.stats.sim = self.stats.sim.saturating_add(*makespan);
        }
        self.path.clear();
        self.down_bytes = None;
        self.unreachable.clear();
    }

    fn take_stats(&mut self) -> NetStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_tensor::rng::Rng as TRng;

    fn params() -> Vec<Tensor> {
        let mut rng = TRng::seed_from(3);
        vec![
            Tensor::randn(&[32, 16], &mut rng),
            Tensor::randn(&[16], &mut rng),
        ]
    }

    fn run_round(net: &mut SimNet, clients: &[usize]) -> (Vec<bool>, Vec<bool>) {
        let p = params();
        net.begin_round(clients);
        let downs: Vec<bool> = clients
            .iter()
            .map(|&c| net.download(c, &p).delivered())
            .collect();
        let ups: Vec<bool> = clients
            .iter()
            .zip(&downs)
            .filter(|(_, &d)| d)
            .map(|(&c, _)| net.upload(c, p.clone()).delivered())
            .collect();
        net.end_round();
        (downs, ups)
    }

    #[test]
    fn ideal_network_is_free_and_lossless() {
        let mut net = SimNet::new(NetConfig::default());
        let p = params();
        net.begin_round(&[0, 1]);
        let d = net.download(0, &p);
        assert!(d.delivered());
        assert_eq!(d.sim, Duration::ZERO);
        let got = d.tensors.unwrap();
        for (a, b) in got.iter().zip(&p) {
            assert_eq!(a.data(), b.data());
        }
        net.end_round();
        let stats = net.take_stats();
        // Bytes are still accounted (the frame crossed the wire)...
        assert!(stats.bytes_down > 0);
        // ...but no simulated time passed and nothing was lost.
        assert_eq!(stats.sim, Duration::ZERO);
        assert_eq!(stats.delivered, stats.transfers);
    }

    #[test]
    fn latency_and_bandwidth_cost_simulated_time() {
        let cfg = NetConfig {
            latency_ms: 50.0,
            bandwidth_mbps: 1.0,
            ..NetConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let p = params();
        net.begin_round(&[0]);
        let d = net.download(0, &p);
        // 50 ms latency + bytes * 8 / 1e6 seconds of serialization.
        let expected = 0.050 + d.bytes as f64 * 8.0 / 1e6;
        assert!((d.sim.as_secs_f64() - expected).abs() < 1e-9, "{d:?}");
        net.upload(0, p);
        net.end_round();
        let stats = net.take_stats();
        assert!(stats.sim > Duration::from_millis(100));
    }

    #[test]
    fn round_time_is_the_slowest_path_not_the_sum() {
        let cfg = NetConfig {
            latency_ms: 10.0,
            ..NetConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let p = params();
        net.begin_round(&[0, 1, 2, 3]);
        for c in 0..4 {
            net.download(c, &p);
            net.upload(c, p.clone());
        }
        net.end_round();
        let stats = net.take_stats();
        // 4 clients x 20 ms of path each, but they overlap: ~20 ms total.
        assert!(stats.sim >= Duration::from_millis(20));
        assert!(stats.sim < Duration::from_millis(40), "{:?}", stats.sim);
    }

    #[test]
    fn same_seed_same_trace_different_seed_diverges() {
        let cfg = NetConfig {
            latency_ms: 5.0,
            bandwidth_mbps: 20.0,
            dropout_prob: 0.2,
            seed: 11,
        };
        let trace = |cfg: NetConfig| {
            let mut net = SimNet::new(cfg);
            let mut outcomes = Vec::new();
            for _ in 0..6 {
                outcomes.push(run_round(&mut net, &[0, 1, 2, 3, 4]));
            }
            (outcomes, net.take_stats())
        };
        let (o1, s1) = trace(cfg);
        let (o2, s2) = trace(cfg);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        let (_, s3) = trace(NetConfig { seed: 12, ..cfg });
        assert_ne!(s1, s3, "different net seed should change the trace");
    }

    #[test]
    fn dropout_makes_clients_unreachable_for_the_round() {
        let cfg = NetConfig {
            dropout_prob: 0.5,
            seed: 5,
            ..NetConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let mut delivered = 0usize;
        let mut dropped = 0usize;
        for _ in 0..20 {
            let (downs, _) = run_round(&mut net, &[0, 1, 2, 3]);
            delivered += downs.iter().filter(|&&d| d).count();
            dropped += downs.iter().filter(|&&d| !d).count();
        }
        assert!(dropped > 10, "dropout never fired ({dropped})");
        assert!(delivered > 10, "everything dropped ({delivered})");
        // Unreachable clients are counted, and outcomes partition the
        // transfer count.
        let stats = net.take_stats();
        assert_eq!(stats.unreachable, dropped as u64);
        assert_eq!(stats.unreachable + stats.delivered, stats.transfers);
    }
}
