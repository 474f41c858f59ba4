//! Per-client transport health tracking with a circuit breaker — the
//! workspace's one CLOSED → OPEN → HALF-OPEN breaker.
//!
//! It serves two owners. The `Federation` indexes it by client and
//! ticks it per round (below). The qd-serve executor indexes it by
//! tenant and ticks it per service unit: a quarantined unit is a
//! failure, a served one a success, and an OPEN tenant's queued members
//! are shed. There the state is never serialized; it is a fold over the
//! journal that a resumed run replays. A zero cooldown is the off
//! switch for both.
//!
//! A dead or badly flaky client that keeps getting sampled wastes a
//! transport timeout's worth of simulated time every round it stalls. The
//! [`ClientHealth`] tracker counts *consecutive* transport failures per
//! client and, past a threshold, opens a circuit breaker: the client is
//! removed from the sampling pool for a configurable number of rounds,
//! then re-admitted as a **half-open probe** — one trial round that
//! closes the breaker on success and re-opens it immediately on failure.
//!
//! ```text
//!            failure (count < breaker_after)
//!           ┌────────────┐
//!           ▼            │
//!        ┌────────────────┐  breaker_after consecutive  ┌──────────┐
//!  ──--▶ │     CLOSED     │ ──────────failures────────▶ │   OPEN   │
//!        └────────────────┘                             └──────────┘
//!           ▲          ▲                                  │
//!           │success   │success                 cooldown  │
//!           │          │                        elapsed   │
//!           │       ┌────────────────┐                    │
//!           │       │   HALF-OPEN    │ ◀──────────────────┘
//!           │       └────────────────┘
//!           │          │ failure (single strike)
//!           └──────────┴──────────────────▶ back to OPEN
//! ```
//!
//! In the federation, state lives in a serializable [`HealthState`]
//! carried inside round checkpoints, so kill-and-resume reproduces
//! sampling decisions bit-for-bit. There health is transport-level only
//! — it reacts to undelivered rounds, never to update *content* (that
//! is the [`crate::UpdateGuard`]'s job, and quarantine is permanent
//! where cooldown is temporary).

use serde::{Deserialize, Serialize};

/// Circuit-breaker policy. The cooldown *length* is per-phase
/// (`Phase::cooldown_rounds`); this sets the tripping threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Consecutive transport failures that open the breaker. A
    /// half-open probe re-opens on a single failure regardless.
    pub breaker_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // Three strikes: one lost round is routine on a faulty network,
        // three in a row means the client is effectively offline.
        HealthConfig { breaker_after: 3 }
    }
}

/// The serializable part of a [`ClientHealth`], carried inside round
/// checkpoints so breaker decisions survive a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthState {
    /// Consecutive transport failures per client (reset on success).
    pub failures: Vec<u32>,
    /// Rounds of cooldown left per client; `> 0` means the breaker is
    /// open and the client is out of the sampling pool.
    pub cooldown: Vec<u32>,
    /// Clients whose next sampled round is a half-open probe.
    pub half_open: Vec<bool>,
}

/// Tracks transport health per client and drives the circuit breaker.
///
/// Owned by the `Federation` (like the [`crate::UpdateGuard`]) so health
/// carries across phases: a client cooling down at the end of training
/// is still cooling down when unlearning starts.
#[derive(Debug, Clone)]
pub struct ClientHealth {
    config: HealthConfig,
    state: HealthState,
}

impl ClientHealth {
    /// Creates a tracker for `n_clients` clients, all healthy.
    pub fn new(config: HealthConfig, n_clients: usize) -> Self {
        ClientHealth {
            config,
            state: HealthState {
                failures: vec![0; n_clients],
                cooldown: vec![0; n_clients],
                half_open: vec![false; n_clients],
            },
        }
    }

    /// The active policy.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// `true` while `client`'s breaker is open (excluded from sampling).
    pub fn is_cooling(&self, client: usize) -> bool {
        self.state.cooldown[client] > 0
    }

    /// Advances every open breaker by one round (call once per round,
    /// before sampling). A breaker reaching the end of its cooldown
    /// flips to half-open: the client re-enters the pool, on probation.
    /// Returns how many clients re-entered this round.
    pub fn tick(&mut self) -> usize {
        let mut probes = 0;
        for c in 0..self.state.cooldown.len() {
            if self.state.cooldown[c] > 0 {
                self.state.cooldown[c] -= 1;
                if self.state.cooldown[c] == 0 {
                    self.state.half_open[c] = true;
                    probes += 1;
                }
            }
        }
        probes
    }

    /// Records a completed round trip for `client`: resets the strike
    /// count and closes a half-open breaker for good.
    pub fn on_success(&mut self, client: usize) {
        self.state.failures[client] = 0;
        self.state.half_open[client] = false;
    }

    /// Records a transport failure for `client`. Opens the breaker for
    /// `cooldown_rounds` rounds if the consecutive-failure threshold is
    /// reached — or immediately if this was a half-open probe. Returns
    /// `true` when the breaker opened (for `cooled_down` accounting);
    /// `cooldown_rounds == 0` disables the breaker entirely.
    pub fn on_failure(&mut self, client: usize, cooldown_rounds: usize) -> bool {
        self.state.failures[client] = self.state.failures[client].saturating_add(1);
        let probe_failed = std::mem::replace(&mut self.state.half_open[client], false);
        if cooldown_rounds == 0 {
            return false;
        }
        if probe_failed || self.state.failures[client] >= self.config.breaker_after {
            self.state.cooldown[client] = cooldown_rounds as u32;
            self.state.failures[client] = 0;
            return true;
        }
        false
    }

    /// Captures the breaker bookkeeping for a round checkpoint.
    pub fn state(&self) -> &HealthState {
        &self.state
    }

    /// Human-readable breaker state per index: `"closed"`, `"open(n)"`
    /// (`n` units of cooldown left) or `"half-open"`.
    pub fn labels(&self) -> Vec<String> {
        let state = &self.state;
        (state.cooldown.iter().zip(&state.half_open))
            .map(|(&cooldown, &half_open)| match (cooldown, half_open) {
                (c, _) if c > 0 => format!("open({c})"),
                (_, true) => "half-open".to_string(),
                _ => "closed".to_string(),
            })
            .collect()
    }

    /// Restores bookkeeping captured by [`ClientHealth::state`] — part
    /// of resuming a phase from a crash-consistent checkpoint.
    pub fn restore(&mut self, state: HealthState) {
        let n = self.state.failures.len();
        self.state = state;
        self.state.failures.resize(n, 0);
        self.state.cooldown.resize(n, 0);
        self.state.half_open.resize(n, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_consecutive_failures_only() {
        let mut h = ClientHealth::new(HealthConfig { breaker_after: 3 }, 2);
        assert!(!h.on_failure(0, 4));
        assert!(!h.on_failure(0, 4));
        h.on_success(0); // streak broken
        assert!(!h.on_failure(0, 4));
        assert!(!h.on_failure(0, 4));
        assert!(h.on_failure(0, 4), "third consecutive failure must trip");
        assert!(h.is_cooling(0));
        assert!(!h.is_cooling(1), "breakers are per-client");
    }

    #[test]
    fn cooldown_counts_rounds_then_half_opens() {
        let mut h = ClientHealth::new(HealthConfig { breaker_after: 1 }, 1);
        assert!(h.on_failure(0, 2));
        assert!(h.is_cooling(0));
        assert_eq!(h.tick(), 0);
        assert!(h.is_cooling(0), "one round of cooldown left");
        assert_eq!(h.tick(), 1, "re-entry counts as a probe");
        assert!(!h.is_cooling(0));
        assert!(h.state().half_open[0]);
        assert_eq!(h.tick(), 0, "closed breakers do not re-probe");
    }

    #[test]
    fn half_open_probe_success_closes_failure_reopens() {
        let mut trial = ClientHealth::new(HealthConfig { breaker_after: 3 }, 2);
        for c in 0..2 {
            for _ in 0..3 {
                trial.on_failure(c, 1);
            }
        }
        trial.tick();
        assert_eq!(trial.state().half_open, vec![true, true]);
        // Client 0's probe round succeeds: breaker closes fully.
        trial.on_success(0);
        assert!(!trial.state().half_open[0]);
        assert!(!trial.on_failure(0, 1), "streak restarted from zero");
        // Client 1's probe fails: one strike re-opens, no three-count.
        assert!(trial.on_failure(1, 1), "failed probe must re-open");
        assert!(trial.is_cooling(1));
    }

    #[test]
    fn labels_follow_trip_cooldown_and_half_open() {
        let mut h = ClientHealth::new(HealthConfig { breaker_after: 2 }, 2);
        assert_eq!(h.labels(), ["closed", "closed"]);
        // The second strike trips OPEN for the full cooldown.
        h.on_failure(0, 3);
        assert!(!h.is_cooling(0));
        h.on_failure(0, 3);
        assert_eq!(h.labels(), ["open(3)", "closed"]);

        // Cooldown expires tick by tick; at zero the breaker half-opens.
        h.tick();
        h.tick();
        assert_eq!(h.labels()[0], "open(1)");
        h.tick();
        assert!(!h.is_cooling(0));
        assert_eq!(h.labels()[0], "half-open");

        // A success in HALF-OPEN closes the breaker for good.
        h.on_success(0);
        assert_eq!(h.labels()[0], "closed");

        // A failure in HALF-OPEN re-opens immediately instead.
        h.on_failure(0, 3);
        h.on_failure(0, 3);
        for _ in 0..3 {
            h.tick();
        }
        assert_eq!(h.labels()[0], "half-open");
        h.on_failure(0, 3);
        assert_eq!(h.labels()[0], "open(3)", "a failed probe re-opens");
    }

    #[test]
    fn zero_cooldown_disables_the_breaker() {
        let mut h = ClientHealth::new(HealthConfig { breaker_after: 1 }, 1);
        for _ in 0..10 {
            assert!(!h.on_failure(0, 0));
        }
        assert!(!h.is_cooling(0));
        assert_eq!(h.tick(), 0);
    }

    #[test]
    fn state_round_trips_through_serde_and_restore() {
        let mut h = ClientHealth::new(HealthConfig { breaker_after: 2 }, 3);
        h.on_failure(1, 5);
        h.on_failure(2, 5);
        h.on_failure(2, 5);
        assert!(h.is_cooling(2));
        let v = serde::Serialize::to_value(h.state());
        let state: HealthState = serde::Deserialize::from_value(&v).unwrap();
        let mut fresh = ClientHealth::new(HealthConfig::default(), 3);
        fresh.restore(state);
        assert_eq!(fresh.state(), h.state());
        assert!(fresh.is_cooling(2));
        assert_eq!(fresh.state().failures, vec![0, 1, 0]);
    }

    #[test]
    fn restore_clamps_to_the_federation_size() {
        let mut h = ClientHealth::new(HealthConfig::default(), 2);
        h.restore(HealthState {
            failures: vec![1, 2, 3, 4],
            cooldown: vec![0, 7, 9, 9],
            half_open: vec![true, false, true, true],
        });
        assert_eq!(h.state().failures, vec![1, 2]);
        assert_eq!(h.state().cooldown, vec![0, 7]);
        assert_eq!(h.state().half_open, vec![true, false]);
    }
}
