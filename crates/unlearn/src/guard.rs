//! The divergence guard's vocabulary: policy, checks and verdicts.
//!
//! Gradient-ascent unlearning has a first-class failure mode: one
//! over-aggressive ascent step (a hostile forget-data holder, a
//! misconfigured LR) blows the model past what recovery on the retain
//! set can reverse. The guard applies three cheap checks to an attempt
//! ([`check_attempt`]) — a non-finite scan, a **drift budget** (max
//! relative L2 displacement of the ascent result from the pre-unlearn
//! model, the same ball geometry PGA projects onto), and a **retain
//! probe** (loss on a small retain sample must stay under a threshold).
//!
//! There is one guard, and it is QuickDrop's unit engine in qd-core
//! (`lifecycle.rs`): it gates each ascent, and on violation rolls model
//! and RNG back to the pre-attempt snapshot and retries at half the
//! ascent LR. Bounded backoff: after the configured retries it surfaces
//! a typed [`UnlearnError::Diverged`] with the model restored, never a
//! poisoned one. This module holds only what that engine, the journal
//! and the serve executor share.

use qd_data::Dataset;
use qd_nn::{params_have_non_finite, relative_drift, Module};
use qd_tensor::Tensor;

/// Default drift budget: the ascent stage may displace the model by at
/// most half its own norm. In the `divergence` bench, QuickDrop's
/// fault-free ascent on a trained model drifts 0.26 (smoke scale) to
/// 0.30 (bench scale) and passes on the first attempt — inside PGA's
/// published projection radii of 0.2–0.5 — while under a 50× ascent
/// spike on a fifth of the clients the guard rejects five attempts
/// before one, at 1/32 of the spiked LR, lands at 0.13–0.15. So the
/// default separates the two regimes without tuning.
pub const DEFAULT_DRIFT_BUDGET: f32 = 0.5;

/// Configuration of a divergence guard. All checks are opt-out: a zero
/// `drift_budget` or `retain_probe` disables that check (the non-finite
/// scan always runs — no model with NaN parameters is ever acceptable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Max relative L2 displacement of the post-ascent model from the
    /// pre-unlearn model (`0.0` disables the check).
    pub drift_budget: f32,
    /// Max mean cross-entropy loss on the retain probe after recovery
    /// (`0.0` disables the check).
    pub retain_probe: f32,
    /// Rollback-and-halve retries after the first failed attempt before
    /// the guard gives up with [`UnlearnError::Diverged`].
    pub ascent_retries: u32,
    /// Retain samples drawn (across clients) for the probe.
    pub probe_samples: usize,
    /// Initial ascent-LR multiplier the first attempt starts from
    /// (each in-guard retry still halves it further). `1.0` — the
    /// default — is the configured LR untouched; a failure-isolation
    /// retry ladder hands in progressively smaller scales to re-run a
    /// diverged unit more gently.
    pub ascent_lr_scale: f32,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            drift_budget: DEFAULT_DRIFT_BUDGET,
            retain_probe: 0.0,
            ascent_retries: 3,
            probe_samples: 64,
            ascent_lr_scale: 1.0,
        }
    }
}

impl GuardPolicy {
    /// Checks the policy for nonsensical values, returning a message
    /// suitable for a CLI usage error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.drift_budget.is_finite() || self.drift_budget < 0.0 {
            return Err(format!(
                "drift budget must be finite and >= 0 (0 disables), got {}",
                self.drift_budget
            ));
        }
        if !self.retain_probe.is_finite() || self.retain_probe < 0.0 {
            return Err(format!(
                "retain-probe threshold must be finite and >= 0 (0 disables), got {}",
                self.retain_probe
            ));
        }
        if self.ascent_retries > 16 {
            return Err(format!(
                "ascent retries capped at 16 (each halves the LR; 16 already \
                 shrinks it 65536x), got {}",
                self.ascent_retries
            ));
        }
        if self.probe_samples == 0 {
            return Err("probe_samples must be >= 1".to_string());
        }
        if !self.ascent_lr_scale.is_finite()
            || self.ascent_lr_scale <= 0.0
            || self.ascent_lr_scale > 1.0
        {
            return Err(format!(
                "ascent LR scale must be in (0, 1], got {}",
                self.ascent_lr_scale
            ));
        }
        Ok(())
    }
}

/// Everything a guard decided while serving one request. Flows into
/// [`crate::MethodOutcome::guard`] and, when a request journal is in use, is
/// persisted with the request's UNLEARNED record.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct GuardStats {
    /// Ascent attempts executed under the guard (1 for a clean first
    /// pass).
    pub steps: u32,
    /// Rollbacks to the pre-unlearn snapshot.
    pub rollbacks: u32,
    /// Ascent-LR halvings applied (one per rollback).
    pub lr_halvings: u32,
    /// Relative L2 drift of the accepted ascent result (the last
    /// measured drift when the guard gave up).
    pub final_drift: f32,
}

impl GuardStats {
    /// The internal-consistency contract every recorded guard outcome
    /// keeps: at least one attempt ran, rollbacks never outnumber
    /// attempts, LR halvings never outnumber rollbacks (one per
    /// rollback), and the final drift is a finite non-negative ratio.
    /// The chaos harness's guard-monotonicity invariant checks this on
    /// every journal record that carries guard stats.
    pub fn is_consistent(&self) -> bool {
        self.steps >= 1
            && self.rollbacks <= self.steps
            && self.lr_halvings <= self.rollbacks
            && self.final_drift.is_finite()
            && self.final_drift >= 0.0
    }
}

/// Why a guarded attempt was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardViolation {
    /// The model contains NaN or infinite parameters.
    NonFinite,
    /// Relative drift of the ascent result exceeded the budget.
    DriftExceeded {
        /// Measured relative drift.
        drift: f32,
        /// The configured budget it exceeded.
        budget: f32,
    },
    /// Mean retain-probe loss exceeded the threshold.
    ProbeExceeded {
        /// Measured mean loss on the probe.
        loss: f32,
        /// The configured threshold it exceeded.
        limit: f32,
    },
}

impl std::fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardViolation::NonFinite => f.write_str("non-finite parameters"),
            GuardViolation::DriftExceeded { drift, budget } => {
                write!(f, "drift {drift:.3} exceeds budget {budget:.3}")
            }
            GuardViolation::ProbeExceeded { loss, limit } => {
                write!(f, "retain-probe loss {loss:.3} exceeds limit {limit:.3}")
            }
        }
    }
}

/// Typed failure of a guarded unlearning attempt. The federation is left
/// at the pre-unlearn model — never at a diverged one.
#[derive(Debug, Clone, PartialEq)]
pub enum UnlearnError {
    /// Every attempt violated the guard, backoff included.
    Diverged {
        /// The last violation observed.
        violation: GuardViolation,
        /// Guard bookkeeping across all attempts.
        stats: GuardStats,
    },
}

impl std::fmt::Display for UnlearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnlearnError::Diverged { violation, stats } => write!(
                f,
                "unlearning diverged after {} attempt(s) ({}); model rolled back",
                stats.steps, violation
            ),
        }
    }
}

impl std::error::Error for UnlearnError {}

/// Mean cross-entropy loss of `model(params)` over `probe`.
fn mean_probe_loss(model: &dyn Module, params: &[Tensor], probe: &Dataset) -> f32 {
    let losses = qd_eval::sample_losses(model, params, probe);
    losses.iter().sum::<f32>() / losses.len() as f32
}

/// Draws up to `cap` retain samples, spread across the per-client retain
/// views in client order. `None` when no retain data exists (stub
/// federations): the probe check is then skipped.
pub fn probe_sample(retain: &[Option<Dataset>], cap: usize) -> Option<Dataset> {
    let mut probe: Option<Dataset> = None;
    let mut left = cap;
    for d in retain.iter().flatten() {
        if left == 0 {
            break;
        }
        let take: Vec<usize> = (0..d.len().min(left)).collect();
        if take.is_empty() {
            continue;
        }
        left -= take.len();
        let part = d.subset(&take);
        match &mut probe {
            Some(acc) => acc.extend(&part),
            None => probe = Some(part),
        }
    }
    probe
}

/// Applies the guard's three checks to one finished attempt: `ascent` is
/// the model right after the ascent stage (drift is measured here, where
/// divergence happens), `recovered` the model after recovery (scanned
/// for non-finite values and probed on retain data).
///
/// Returns the measured relative drift of the accepted attempt.
///
/// # Errors
///
/// Returns the first [`GuardViolation`] encountered.
pub fn check_attempt(
    policy: &GuardPolicy,
    model: &dyn Module,
    reference: &[Tensor],
    ascent: &[Tensor],
    recovered: &[Tensor],
    probe: Option<&Dataset>,
) -> Result<f32, GuardViolation> {
    if params_have_non_finite(ascent) || params_have_non_finite(recovered) {
        return Err(GuardViolation::NonFinite);
    }
    let drift = relative_drift(ascent, reference);
    if policy.drift_budget > 0.0 && drift > policy.drift_budget {
        return Err(GuardViolation::DriftExceeded {
            drift,
            budget: policy.drift_budget,
        });
    }
    if policy.retain_probe > 0.0 {
        if let Some(probe) = probe.filter(|d| !d.is_empty()) {
            let loss = mean_probe_loss(model, recovered, probe);
            // A NaN loss counts as a violation.
            if loss.is_nan() || loss > policy.retain_probe {
                return Err(GuardViolation::ProbeExceeded {
                    loss,
                    limit: policy.retain_probe,
                });
            }
        }
    }
    Ok(drift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_tensor::rng::Rng;

    #[test]
    fn default_policy_validates() {
        GuardPolicy::default().validate().expect("default is sane");
        let bad = GuardPolicy {
            drift_budget: f32::NAN,
            ..GuardPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = GuardPolicy {
            ascent_retries: 17,
            ..GuardPolicy::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn probe_sample_spreads_across_clients_and_respects_cap() {
        let mut rng = Rng::seed_from(7);
        let a = SyntheticDataset::Digits.generate(10, &mut rng);
        let b = SyntheticDataset::Digits.generate(10, &mut rng);
        let retain = vec![Some(a), None, Some(b)];
        let probe = probe_sample(&retain, 14).expect("data exists");
        assert_eq!(probe.len(), 14); // 10 from the first client, 4 more
        assert!(probe_sample(&[None, None], 8).is_none());
    }
}
