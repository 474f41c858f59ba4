//! The [`UnlearningMethod`] trait, capability flags (Table 1), and shared
//! helpers.

use crate::{forget_override, UnlearnRequest};
use qd_fed::{sgd_trainers, Federation, Phase, PhaseStats};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

/// Qualitative efficiency rating used in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Efficiency {
    /// Very low (e.g. full retraining).
    VeryLow,
    /// Low.
    Low,
    /// Medium.
    Medium,
    /// High.
    High,
}

impl std::fmt::Display for Efficiency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Efficiency::VeryLow => "very low",
            Efficiency::Low => "low",
            Efficiency::Medium => "medium",
            Efficiency::High => "high",
        };
        f.write_str(s)
    }
}

/// What a method supports and how it rates — the rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Supports class-level unlearning.
    pub class_level: bool,
    /// Supports client-level unlearning.
    pub client_level: bool,
    /// Supports relearning previously erased knowledge.
    pub relearn: bool,
    /// Storage efficiency (does it avoid storing per-round state?).
    pub storage_efficient: bool,
    /// Computation efficiency class.
    pub computation: Efficiency,
}

/// Everything measured while serving one unlearning request.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Cost of the unlearning stage.
    pub unlearn: PhaseStats,
    /// Cost of the recovery stage (zero for integrated methods like
    /// retraining).
    pub recovery: PhaseStats,
    /// Global parameters right after unlearning, before recovery (for
    /// stage-wise accuracy reporting as in Table 2).
    pub post_unlearn_params: Vec<Tensor>,
    /// Divergence-guard bookkeeping, `Some` when the request was served
    /// under a guard policy (QuickDrop's guarded unit engine); `None` for
    /// unguarded serving.
    pub guard: Option<crate::GuardStats>,
}

impl MethodOutcome {
    /// Total cost of unlearning + recovery.
    pub fn total(&self) -> PhaseStats {
        let mut t = self.unlearn;
        t.merge(&self.recovery);
        t
    }
}

/// A federated unlearning algorithm.
///
/// Implementations mutate the federation's global parameters in place;
/// accuracy evaluation is left to the caller (see `qd-eval`), keeping
/// methods free of any evaluation cost in their timing.
pub trait UnlearningMethod {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Capability flags for Table 1.
    fn capabilities(&self) -> Capabilities;

    /// Serves one unlearning request, updating `fed`'s global model.
    ///
    /// # Panics
    ///
    /// Implementations panic when given a request kind they do not
    /// support (see [`Capabilities`]).
    fn unlearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
    ) -> MethodOutcome;

    /// Restores previously erased knowledge, or `None` if unsupported
    /// (FU-MP's pruning is irreversible).
    ///
    /// The default relearns with SGD on the original forget data, as the
    /// paper does for every baseline; QuickDrop overrides this to use its
    /// synthetic data.
    fn relearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        phase: &Phase,
        rng: &mut Rng,
    ) -> Option<PhaseStats> {
        Some(relearn_with_original(fed, request, phase, rng))
    }
}

/// SGD training on the original forget data — the shared relearning
/// procedure of all baselines (Section 4.7).
pub fn relearn_with_original(
    fed: &mut Federation,
    request: UnlearnRequest,
    phase: &Phase,
    rng: &mut Rng,
) -> PhaseStats {
    let forget = forget_override(fed, request);
    let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
    fed.run_phase(&mut trainers, Some(&forget), phase, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_ordering_matches_semantics() {
        assert!(Efficiency::VeryLow < Efficiency::Low);
        assert!(Efficiency::Medium < Efficiency::High);
        assert_eq!(Efficiency::High.to_string(), "high");
    }

    #[test]
    fn outcome_total_merges_stages() {
        use std::time::Duration;
        let outcome = MethodOutcome {
            unlearn: PhaseStats {
                rounds: 1,
                samples_processed: 10,
                data_size: 100,
                wall: Duration::from_secs(1),
                download_scalars: 5,
                upload_scalars: 5,
                ..PhaseStats::default()
            },
            recovery: PhaseStats {
                rounds: 2,
                samples_processed: 20,
                data_size: 900,
                wall: Duration::from_secs(2),
                download_scalars: 7,
                upload_scalars: 7,
                ..PhaseStats::default()
            },
            post_unlearn_params: Vec::new(),
            guard: None,
        };
        let t = outcome.total();
        assert_eq!(t.rounds, 3);
        assert_eq!(t.samples_processed, 30);
        assert_eq!(t.data_size, 900);
        assert_eq!(t.wall, Duration::from_secs(3));
        assert_eq!(t.communication_scalars(), 24);
    }
}
