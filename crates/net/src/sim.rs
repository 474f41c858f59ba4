//! The deterministic network simulator.

use crate::{Delivery, NetConfig, NetStats, Payload, Transport};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Duration;

/// Stream tags keeping the per-event RNG draws independent.
const TAG_DROPOUT: u64 = 0x01;
const TAG_STRAGGLER: u64 = 0x02;
const TAG_DOWN: u64 = 0x03;
const TAG_UP: u64 = 0x04;

/// Mixes the 1-based per-round call sequence into an event stream, so a
/// re-requested transfer (same round, client and direction) sees fresh
/// randomness instead of deterministically replaying its first failure.
const SEQ_MIX: u64 = 0xD1B5_4A32_D192_ED03;

/// A simulated server ↔ client network with per-link latency, bandwidth
/// and jitter, plus fault injection (round-long client dropout,
/// persistent stragglers, message loss with bounded retry).
///
/// Determinism: every random decision is drawn from a stream derived
/// from `(config.seed, round, client, event)`, so outcomes depend only
/// on the [`NetConfig`] and the sequence of rounds — never on call
/// order, thread scheduling, or the federation's own RNG. Two runs with
/// the same seeds produce byte-identical traffic and identical
/// [`NetStats`].
///
/// Simulated time is bookkept, not slept: a phase over a 500 ms-latency
/// link finishes as fast as loopback in real time while reporting the
/// network cost it would have paid.
pub struct SimNet {
    config: NetConfig,
    round: u64,
    stats: NetStats,
    /// Clients unreachable for the current round.
    unreachable: Vec<usize>,
    /// Per-client network path time accumulated this round.
    path: BTreeMap<usize, Duration>,
    /// 1-based count of transfer calls per `(client, direction)` this
    /// round, folded into the event streams so repeated calls draw
    /// independently.
    seq: BTreeMap<(usize, u64), u64>,
    /// The encoded global model of the current round (identical for
    /// every participant, so it is encoded once).
    down_frame: Option<(Payload, Vec<Tensor>)>,
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
pub(crate) fn mix(mut z: u64) -> u64 {
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
            seq: BTreeMap::new(),
            down_frame: None,
        }
    }

    /// The configuration driving this simulator.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// An RNG for one `(round, client, event, seq)` tuple. `seq` is the
    /// 1-based index of the call within the round, so re-requests of the
    /// same transfer draw independent streams.
    fn event_rng(&self, client: usize, tag: u64, seq: u64) -> Rng {
        let s = self.config.seed
            ^ mix(self.round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64) << 8
                ^ tag
                ^ seq.wrapping_mul(SEQ_MIX));
        Rng::seed_from(mix(s))
    }

    /// The next 1-based call sequence number for `(client, tag)` this
    /// round. Per-client counters keep the draws independent of the
    /// order clients are serviced in.
    fn next_seq(&mut self, client: usize, tag: u64) -> u64 {
        let n = self.seq.entry((client, tag)).or_insert(0);
        *n += 1;
        *n
    }

    /// Whether `client`'s link is persistently slow (round-independent).
    fn is_straggler(&self, client: usize) -> bool {
        if self.config.straggler_frac <= 0.0 {
            return false;
        }
        let s = mix(self.config.seed ^ mix((client as u64) << 8 ^ TAG_STRAGGLER));
        Rng::seed_from(s).uniform(0.0, 1.0) < self.config.straggler_frac
    }

    /// One-way transfer time of `bytes` over `client`'s link.
    fn transfer_time(&self, client: usize, bytes: u64, rng: &mut Rng) -> Duration {
        let mut ms = self.config.latency_ms as f64;
        if self.config.jitter_ms > 0.0 {
            ms += rng.uniform(0.0, self.config.jitter_ms) as f64;
        }
        if self.config.bandwidth_mbps > 0.0 {
            // bytes * 8 bits / (mbps * 1e6 bit/s) seconds, in ms.
            ms += bytes as f64 * 8.0 * 1e3 / (self.config.bandwidth_mbps as f64 * 1e6);
        }
        if self.is_straggler(client) {
            ms *= self.config.straggler_slowdown as f64;
        }
        Duration::from_secs_f64(ms / 1e3)
    }

    /// Simulates sending one frame to/from `client` with loss, bounded
    /// retry and exponential backoff. Returns `(delivered, elapsed,
    /// attempts, bytes_on_wire)`.
    fn attempt_transfer(
        &self,
        client: usize,
        frame_len: u64,
        rng: &mut Rng,
    ) -> (bool, Duration, u32, u64) {
        let mut elapsed = Duration::ZERO;
        let mut wire_bytes = 0u64;
        let mut timeout_ms = self.config.timeout_ms as f64;
        for attempt in 1..=(1 + self.config.max_retries) {
            wire_bytes += frame_len;
            let lost = self.config.loss_prob > 0.0 && rng.uniform(0.0, 1.0) < self.config.loss_prob;
            if !lost {
                elapsed += self.transfer_time(client, frame_len, rng);
                return (true, elapsed, attempt, wire_bytes);
            }
            // The sender notices the loss at its timeout, then backs off.
            elapsed += Duration::from_secs_f64(timeout_ms / 1e3);
            timeout_ms *= self.config.backoff as f64;
        }
        (false, elapsed, 1 + self.config.max_retries, wire_bytes)
    }

    fn charge_path(&mut self, client: usize, d: Duration) {
        *self.path.entry(client).or_default() += d;
    }
}

impl Transport for SimNet {
    fn begin_round(&mut self, participants: &[usize]) {
        self.round += 1;
        self.path.clear();
        self.seq.clear();
        self.down_frame = None;
        self.unreachable.clear();
        if self.config.dropout_prob > 0.0 {
            for &c in participants {
                let mut rng = self.event_rng(c, TAG_DROPOUT, 1);
                if rng.uniform(0.0, 1.0) < self.config.dropout_prob {
                    self.unreachable.push(c);
                }
            }
        }
    }

    fn download(&mut self, client: usize, params: &[Tensor]) -> Delivery {
        self.stats.transfers += 1;
        if self.unreachable.contains(&client) {
            // The server gives up on the unreachable client after one
            // timeout; nothing usable crosses the wire. `attempts == 0`
            // marks the peer as known unreachable for the round, which
            // gets its own counter — distinct from retry-exhausted drops.
            let wait = Duration::from_secs_f64(self.config.timeout_ms as f64 / 1e3);
            self.charge_path(client, wait);
            self.stats.unreachable += 1;
            return Delivery {
                tensors: None,
                bytes: 0,
                sim: wait,
                attempts: 0,
            };
        }
        let wire_format = self.config.wire_format();
        let (frame, cached) = self.down_frame.get_or_insert_with(|| {
            let frame = Payload::encode(params, wire_format);
            // qd-lint: allow(panic-safety) -- encode/decode round-trip of
            // our own frame is infallible by the codec's contract; a
            // failure here is a codec bug, not a runtime condition.
            let decoded = frame.decode().expect("self-encoded frame decodes");
            (frame, decoded)
        });
        let (frame_len, decoded) = (frame.len() as u64, cached.clone());
        let seq = self.next_seq(client, TAG_DOWN);
        let mut rng = self.event_rng(client, TAG_DOWN, seq);
        let (delivered, sim, attempts, bytes) = self.attempt_transfer(client, frame_len, &mut rng);
        self.stats.bytes_down += bytes;
        self.stats.retries += u64::from(attempts - 1);
        self.charge_path(client, sim);
        if delivered {
            self.stats.delivered += 1;
            Delivery {
                tensors: Some(decoded),
                bytes,
                sim,
                attempts,
            }
        } else {
            self.stats.drops += 1;
            Delivery {
                tensors: None,
                bytes,
                sim,
                attempts,
            }
        }
    }

    fn upload(&mut self, client: usize, params: Vec<Tensor>) -> Delivery {
        debug_assert!(
            !self.unreachable.contains(&client),
            "a client that never got the model cannot upload"
        );
        self.stats.transfers += 1;
        let frame = Payload::encode(&params, self.config.wire_format());
        let seq = self.next_seq(client, TAG_UP);
        let mut rng = self.event_rng(client, TAG_UP, seq);
        let (delivered, sim, attempts, bytes) =
            self.attempt_transfer(client, frame.len() as u64, &mut rng);
        self.stats.bytes_up += bytes;
        self.stats.retries += u64::from(attempts - 1);
        self.charge_path(client, sim);
        if delivered {
            self.stats.delivered += 1;
            Delivery {
                // qd-lint: allow(panic-safety) -- decoding a frame this
                // transport just encoded cannot fail; see download().
                tensors: Some(frame.decode().expect("self-encoded frame decodes")),
                bytes,
                sim,
                attempts,
            }
        } else {
            self.stats.drops += 1;
            Delivery {
                tensors: None,
                bytes,
                sim,
                attempts,
            }
        }
    }

    fn end_round(&mut self) {
        // Clients proceed in parallel: the round's network cost is the
        // slowest client's path.
        if let Some(makespan) = self.path.values().max() {
            self.stats.sim += *makespan;
        }
        self.path.clear();
        self.seq.clear();
        self.down_frame = None;
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
        assert_eq!(stats.drops, 0);
        assert_eq!(stats.retries, 0);
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
            jitter_ms: 3.0,
            dropout_prob: 0.2,
            loss_prob: 0.2,
            seed: 11,
            ..NetConfig::default()
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
        // Known-unreachable clients are accounted separately from
        // retry-exhausted drops (there is no loss here, so no drops at
        // all), and outcomes partition the transfer count.
        let stats = net.take_stats();
        assert_eq!(stats.unreachable, dropped as u64);
        assert_eq!(stats.drops, 0);
        assert_eq!(
            stats.drops + stats.unreachable + stats.delivered,
            stats.transfers
        );
    }

    #[test]
    fn loss_triggers_bounded_retries_with_extra_bytes() {
        let cfg = NetConfig {
            loss_prob: 0.4,
            max_retries: 2,
            seed: 3,
            ..NetConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let p = params();
        let clean = Payload::encode(&p, crate::WireFormat::F32).len() as u64;
        let mut saw_retry = false;
        for round in 0..30 {
            net.begin_round(&[0, 1, 2]);
            for c in 0..3 {
                let d = net.download(c, &p);
                assert!(d.attempts <= 3, "retry budget exceeded");
                assert_eq!(d.bytes, clean * u64::from(d.attempts));
                saw_retry |= d.attempts > 1;
            }
            net.end_round();
            let _ = round;
        }
        assert!(saw_retry, "loss_prob 0.4 never caused a retry");
        let stats = net.take_stats();
        assert!(stats.retries > 0);
        assert!(stats.bytes_down > 90 * clean, "retransmits must be billed");
    }

    #[test]
    fn stragglers_are_persistent_and_slower() {
        let cfg = NetConfig {
            latency_ms: 10.0,
            straggler_frac: 0.4,
            straggler_slowdown: 8.0,
            seed: 2,
            ..NetConfig::default()
        };
        let net = SimNet::new(cfg);
        let stragglers: Vec<bool> = (0..50).map(|c| net.is_straggler(c)).collect();
        let n = stragglers.iter().filter(|&&s| s).count();
        assert!((8..=32).contains(&n), "straggler fraction off: {n}/50");
        // Persistent across rounds by construction (round-independent
        // stream), and visibly slower on the wire.
        let mut net = SimNet::new(cfg);
        let p = params();
        let fast = (0..50).position(|c| !net.is_straggler(c)).unwrap();
        let slow = (0..50).position(|c| net.is_straggler(c)).unwrap();
        net.begin_round(&[fast, slow]);
        let df = net.download(fast, &p);
        let ds = net.download(slow, &p);
        assert!(
            ds.sim.as_secs_f64() > 4.0 * df.sim.as_secs_f64(),
            "straggler {slow} not slower: {ds:?} vs {df:?}"
        );
    }

    #[test]
    fn repeated_calls_in_a_round_draw_fresh_streams() {
        // A re-requested transfer must not deterministically replay its
        // first outcome: the call sequence number feeds the event stream.
        let cfg = NetConfig {
            jitter_ms: 50.0,
            seed: 4,
            ..NetConfig::default()
        };
        let mut net = SimNet::new(cfg);
        let p = params();
        net.begin_round(&[0]);
        let first = net.download(0, &p);
        let second = net.download(0, &p);
        assert_ne!(
            first.sim, second.sim,
            "second call in a round must draw its own jitter"
        );
        net.end_round();
        // ...while a fresh simulator replays the same per-seq draws.
        let mut again = SimNet::new(cfg);
        again.begin_round(&[0]);
        assert_eq!(again.download(0, &p).sim, first.sim);
        assert_eq!(again.download(0, &p).sim, second.sim);
    }

    #[test]
    fn quantized_wire_shrinks_traffic() {
        let p = params();
        let run = |quantized: bool| {
            let mut net = SimNet::new(NetConfig {
                quantized,
                ..NetConfig::default()
            });
            net.begin_round(&[0]);
            net.download(0, &p);
            net.upload(0, p.clone());
            net.end_round();
            net.take_stats().total_bytes()
        };
        let full = run(false);
        let quant = run(true);
        assert!(quant * 2 < full, "{quant} vs {full}");
    }
}
