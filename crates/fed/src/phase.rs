//! Phase configuration: one federated stage (training, unlearning,
//! recovery, relearning) described declaratively.

use crate::AggregatorKind;
use qd_nn::Direction;
use serde::{Deserialize, Serialize};

/// Configuration of one federated stage.
///
/// The paper's stages map onto phases as follows (Section 4.1 defaults in
/// parentheses, scaled down in this reproduction's experiment configs):
///
/// * FL training: `rounds = K (200)`, `local_steps = T (50)`,
///   `batch = 256`, `lr = 0.01`, descent.
/// * Unlearning: 1 round, ascent, `lr = 0.02`.
/// * Recovery / relearning: 2 rounds, descent, `lr = 0.01`.
///
/// # Examples
///
/// ```
/// use qd_fed::Phase;
/// use qd_nn::Direction;
///
/// let unlearn = Phase::unlearning(1, 5, 32, 0.02);
/// assert_eq!(unlearn.direction, Direction::Ascent);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Number of global rounds.
    pub rounds: usize,
    /// Local update steps per client per round (`T`).
    pub local_steps: usize,
    /// Mini-batch size for local steps.
    pub batch_size: usize,
    /// Local learning rate.
    pub lr: f32,
    /// Gradient direction: descent for training/recovery, ascent for
    /// unlearning.
    pub direction: Direction,
    /// Fraction of eligible clients sampled each round (`1.0` = all).
    pub participation: f32,
    /// Server-side aggregation rule folding the surviving updates into
    /// the next global model. [`AggregatorKind::FedAvg`] reproduces the
    /// historical behaviour bit-for-bit.
    pub aggregator: AggregatorKind,
    /// Minimum number of validated updates a round needs to produce an
    /// aggregate. A round falling short keeps the previous global model
    /// (counted in `ResilienceStats::quorum_fallbacks`). `0` and `1` are
    /// equivalent: any survivor aggregates.
    pub min_quorum: usize,
    /// Circuit-breaker cooldown: rounds a client sits out of the
    /// sampling pool after `ClientHealth`'s consecutive-failure
    /// threshold trips. `0` disables the breaker (the historical
    /// behaviour).
    pub cooldown_rounds: usize,
}

impl Phase {
    /// A descent phase with full participation and no failures.
    pub fn training(rounds: usize, local_steps: usize, batch_size: usize, lr: f32) -> Self {
        Phase {
            rounds,
            local_steps,
            batch_size,
            lr,
            direction: Direction::Descent,
            participation: 1.0,
            aggregator: AggregatorKind::FedAvg,
            min_quorum: 0,
            cooldown_rounds: 0,
        }
    }

    /// An ascent (unlearning) phase with full participation.
    pub fn unlearning(rounds: usize, local_steps: usize, batch_size: usize, lr: f32) -> Self {
        Phase {
            direction: Direction::Ascent,
            ..Phase::training(rounds, local_steps, batch_size, lr)
        }
    }

    /// Returns a copy with the given participation fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_participation(mut self, fraction: f32) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "participation must be in (0, 1], got {fraction}"
        );
        self.participation = fraction;
        self
    }

    /// Returns a copy with a different number of rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Returns a copy using the given aggregation rule.
    pub fn with_aggregator(mut self, aggregator: AggregatorKind) -> Self {
        self.aggregator = aggregator;
        self
    }

    /// Returns a copy requiring at least `quorum` validated updates per
    /// round before the global model moves.
    pub fn with_min_quorum(mut self, quorum: usize) -> Self {
        self.min_quorum = quorum;
        self
    }

    /// Returns a copy cooling tripped clients down for `rounds` rounds.
    pub fn with_cooldown_rounds(mut self, rounds: usize) -> Self {
        self.cooldown_rounds = rounds;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        assert_eq!(Phase::training(1, 1, 1, 0.1).direction, Direction::Descent);
        assert_eq!(Phase::unlearning(1, 1, 1, 0.1).direction, Direction::Ascent);
    }

    #[test]
    fn builders_adjust_fields() {
        let p = Phase::training(1, 2, 3, 0.1)
            .with_participation(0.5)
            .with_rounds(7)
            .with_aggregator(AggregatorKind::TrimmedMean)
            .with_min_quorum(2)
            .with_cooldown_rounds(4);
        assert_eq!(p.participation, 0.5);
        assert_eq!(p.rounds, 7);
        assert_eq!(p.aggregator, AggregatorKind::TrimmedMean);
        assert_eq!(p.min_quorum, 2);
        assert_eq!(p.cooldown_rounds, 4);
    }

    #[test]
    fn constructors_default_to_no_cooldown() {
        assert_eq!(Phase::training(1, 1, 1, 0.1).cooldown_rounds, 0);
    }

    #[test]
    #[should_panic(expected = "participation")]
    fn rejects_zero_participation() {
        let _ = Phase::training(1, 1, 1, 0.1).with_participation(0.0);
    }
}
