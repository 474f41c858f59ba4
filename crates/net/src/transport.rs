//! The [`Transport`] abstraction and its zero-cost loopback default.

use crate::NetStats;
use qd_tensor::Tensor;
use std::time::Duration;

/// The result of moving one parameter set across the transport.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The parameters as they arrived — bit-for-bit the ones sent — or
    /// `None` if the client was unreachable for the round.
    pub tensors: Option<Vec<Tensor>>,
    /// Bytes that hit the wire for this transfer.
    pub bytes: u64,
    /// Simulated time from send to delivery (or to giving up).
    pub sim: Duration,
}

impl Delivery {
    /// An instantaneous, lossless, zero-byte delivery.
    pub fn instant(tensors: Vec<Tensor>) -> Self {
        Delivery {
            tensors: Some(tensors),
            bytes: 0,
            sim: Duration::ZERO,
        }
    }

    /// `true` if the parameters arrived.
    pub fn delivered(&self) -> bool {
        self.tensors.is_some()
    }
}

/// Server ↔ client parameter exchange for one federated phase.
///
/// `qd-fed`'s `Federation` drives this once per round:
///
/// 1. [`Transport::begin_round`] with the sampled participants;
/// 2. one [`Transport::download`] per participant (global model out);
/// 3. one [`Transport::upload`] per surviving participant (update back);
/// 4. [`Transport::end_round`].
///
/// Implementations accumulate [`NetStats`] across rounds;
/// [`Transport::take_stats`] drains them at phase end. All calls happen
/// on the server thread; simulated time never blocks real time.
pub trait Transport: Send {
    /// Starts a round for the given participants.
    fn begin_round(&mut self, participants: &[usize]);

    /// Sends the global parameters to `client`.
    ///
    /// Every participant of a round downloads the *same* parameters;
    /// implementations may encode them once and reuse the frame.
    fn download(&mut self, client: usize, params: &[Tensor]) -> Delivery;

    /// Sends `client`'s locally trained parameters back to the server.
    fn upload(&mut self, client: usize, params: Vec<Tensor>) -> Delivery;

    /// Ends the round (e.g. folds the round's makespan into the stats).
    fn end_round(&mut self);

    /// Returns and resets the counters accumulated since the last call.
    fn take_stats(&mut self) -> NetStats;
}

/// The default in-process transport: hands tensors over unchanged, with
/// zero bytes, zero simulated time and no faults. A `Federation` using
/// it behaves bit-for-bit like one with no transport layer at all.
#[derive(Debug, Default, Clone)]
pub struct LoopbackTransport;

impl LoopbackTransport {
    /// Creates the loopback transport.
    pub fn new() -> Self {
        LoopbackTransport
    }
}

impl Transport for LoopbackTransport {
    fn begin_round(&mut self, _participants: &[usize]) {}

    fn download(&mut self, _client: usize, params: &[Tensor]) -> Delivery {
        Delivery::instant(params.to_vec())
    }

    fn upload(&mut self, _client: usize, params: Vec<Tensor>) -> Delivery {
        Delivery::instant(params)
    }

    fn end_round(&mut self) {}

    fn take_stats(&mut self) -> NetStats {
        NetStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_is_lossless_and_free() {
        let mut t = LoopbackTransport::new();
        let params = vec![Tensor::from_vec(vec![1.0, -2.5, 0.125], &[3])];
        t.begin_round(&[0, 1]);
        let down = t.download(0, &params);
        assert!(down.delivered());
        assert_eq!(down.bytes, 0);
        assert_eq!(down.sim, Duration::ZERO);
        let got = down.tensors.unwrap();
        assert_eq!(got[0].data(), params[0].data());
        let up = t.upload(0, got);
        assert!(up.delivered());
        t.end_round();
        assert_eq!(t.take_stats(), NetStats::default());
    }
}
