//! Per-round network accounting.

use std::time::Duration;

/// Event counters accumulated by a [`crate::Transport`].
///
/// `Copy` on purpose: these ride inside `qd-fed`'s `PhaseStats`, which
/// call sites construct and copy freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes sent server → clients.
    pub bytes_down: u64,
    /// Bytes sent clients → server.
    pub bytes_up: u64,
    /// Simulated network wall-clock: the sum over rounds of the slowest
    /// client's download + upload path (rounds are network-parallel
    /// across clients, so the makespan is the per-round cost).
    pub sim: Duration,
    /// Logical transfers requested of the transport (one per
    /// download/upload call, whatever its outcome). Every transfer ends
    /// in exactly one of `delivered` or `unreachable`, so the two always
    /// sum to this field.
    pub transfers: u64,
    /// Transfers that reached their destination.
    pub delivered: u64,
    /// Transfers never attempted because the peer was unreachable for
    /// the whole round.
    pub unreachable: u64,
}

impl NetStats {
    /// Accumulates another transport's counters.
    pub fn merge(&mut self, other: &NetStats) {
        self.bytes_down += other.bytes_down;
        self.bytes_up += other.bytes_up;
        self.sim += other.sim;
        self.transfers += other.transfers;
        self.delivered += other.delivered;
        self.unreachable += other.unreachable;
    }

    /// Bytes on the wire in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats block with every counter distinct (scaled by `k`) whose
    /// outcome counters satisfy the transfer invariant.
    fn sample(k: u64) -> NetStats {
        NetStats {
            bytes_down: 10 * k,
            bytes_up: 4 * k,
            sim: Duration::from_millis(5 * k),
            transfers: 6 * k,
            delivered: 5 * k,
            unreachable: k,
        }
    }

    #[test]
    fn merge_adds_every_counter() {
        let mut a = sample(1);
        a.merge(&sample(2));
        assert_eq!(a, sample(3));
        assert_eq!(a.total_bytes(), 42);
    }

    #[test]
    fn transfer_outcomes_partition_transfers_across_merges() {
        // Every transfer ends in exactly one outcome bucket, and merging
        // preserves that: unreachable + delivered must equal
        // transfers before and after.
        let mut a = sample(1);
        assert_eq!(a.unreachable + a.delivered, a.transfers);
        a.merge(&sample(5));
        a.merge(&NetStats::default());
        assert_eq!(a.unreachable + a.delivered, a.transfers);
    }

    #[test]
    fn default_is_all_zero() {
        let s = NetStats::default();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.transfers, 0);
        assert_eq!(s.sim, Duration::ZERO);
    }
}
