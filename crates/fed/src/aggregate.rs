//! Byzantine-resilient aggregation and server-side update hygiene.
//!
//! FedAvg averages whatever arrives. That is optimal when every client is
//! honest and every link is merely lossy, but unlearning is exactly the
//! moment gradients turn adversarial (FedOSD; DRAGD): a hostile or broken
//! client can flip signs, inflate norms, or emit NaNs and steer — or
//! destroy — the global model. This module provides:
//!
//! * a pluggable [`Aggregator`] trait with four built-in rules
//!   ([`AggregatorKind`]): weighted FedAvg, coordinate-wise median,
//!   coordinate-wise trimmed mean, and norm-clipped mean;
//! * an [`UpdateGuard`] that validates every update *at ingestion* (as
//!   the transport delivered it) and quarantines clients after repeated
//!   violations;
//! * [`ResilienceStats`], the accounting that rides inside
//!   `PhaseStats` so chaos experiments can report what was rejected.
//!
//! The FedAvg implementation reproduces the pre-resilience aggregation
//! arithmetic operation-for-operation: a federation that never sees a
//! fault is bit-for-bit identical to one built before this module existed.

use qd_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One client's surviving contribution to a round, as seen by an
/// [`Aggregator`] after transport decode and guard validation.
#[derive(Debug)]
pub struct ClientUpdate<'a> {
    /// The client's federation index.
    pub client: usize,
    /// The client's FedAvg data-size weight (`|Zᵢ| / |Z|` over the
    /// round's *sampled* participants, not renormalized for failures).
    pub weight: f32,
    /// The client's locally trained parameters, post-decode.
    pub params: &'a [Tensor],
}

/// A server-side aggregation rule: folds the surviving client parameter
/// sets of one round into the next global model.
///
/// Implementations must be deterministic functions of their inputs —
/// round reproducibility and crash-consistent resume both depend on it.
pub trait Aggregator: Send {
    /// Human-readable rule name, for logs and reports.
    fn name(&self) -> &'static str;

    /// Aggregates one round.
    ///
    /// `global` is the model every participant started from; `updates`
    /// are the validated survivors in slot order. Never called with an
    /// empty slice (the federation falls back to `global` first).
    fn aggregate(&mut self, global: &[Tensor], updates: &[ClientUpdate<'_>]) -> Vec<Tensor>;
}

/// The built-in aggregation rules, selectable per [`crate::Phase`].
///
/// | kind | robustness | weighting |
/// |------|-----------|-----------|
/// | `FedAvg` | none (breakdown point 0) | data-size |
/// | `Median` | ⌈n/2⌉−1 outliers per coordinate | unweighted |
/// | `TrimmedMean` | 20% per tail per coordinate | unweighted |
/// | `NormClip` | bounds any single update's pull | data-size |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AggregatorKind {
    /// Data-size-weighted averaging (McMahan et al., 2017) — the
    /// QuickDrop default, and bit-for-bit the pre-resilience behaviour.
    #[default]
    FedAvg,
    /// Coordinate-wise median (Yin et al., 2018). Ignores weights;
    /// tolerates just under half the updates being arbitrary.
    Median,
    /// Coordinate-wise trimmed mean: drops the largest and smallest 20%
    /// of values per coordinate, averages the rest.
    TrimmedMean,
    /// Weighted mean of per-client deltas clipped to the median delta
    /// norm: no single client can pull the model further than a typical
    /// honest update.
    NormClip,
}

/// Fraction trimmed from *each* tail by [`AggregatorKind::TrimmedMean`].
/// Tolerates up to 20% Byzantine clients, matching the chaos benchmark's
/// standard fault load.
pub const TRIM_FRAC: f32 = 0.2;

impl AggregatorKind {
    /// Instantiates the rule.
    pub fn build(self) -> Box<dyn Aggregator> {
        match self {
            AggregatorKind::FedAvg => Box::new(FedAvg),
            AggregatorKind::Median => Box::new(CoordinateMedian),
            AggregatorKind::TrimmedMean => Box::new(TrimmedMean { frac: TRIM_FRAC }),
            AggregatorKind::NormClip => Box::new(NormClippedMean),
        }
    }

    /// Parses a CLI-style name (`fedavg`, `median`, `trimmed-mean`,
    /// `norm-clip`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fedavg" => Some(AggregatorKind::FedAvg),
            "median" => Some(AggregatorKind::Median),
            "trimmed-mean" | "trimmed_mean" => Some(AggregatorKind::TrimmedMean),
            "norm-clip" | "norm_clip" => Some(AggregatorKind::NormClip),
            _ => None,
        }
    }
}

/// Data-size-weighted averaging, renormalized over the survivors.
struct FedAvg;

impl Aggregator for FedAvg {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn aggregate(&mut self, global: &[Tensor], updates: &[ClientUpdate<'_>]) -> Vec<Tensor> {
        // Identical operation order to the historical inline FedAvg loop:
        // survivor-weight sum first, then one axpy per survivor in slot
        // order — required for bit-for-bit backward compatibility.
        let survivor_weight: f32 = updates.iter().map(|u| u.weight).sum();
        let mut next: Vec<Tensor> = global.iter().map(|t| Tensor::zeros(t.dims())).collect();
        for u in updates {
            let w = u.weight / survivor_weight;
            for (g, p) in next.iter_mut().zip(u.params) {
                g.axpy(w, p);
            }
        }
        next
    }
}

/// Coordinate-wise median over the surviving parameter sets.
struct CoordinateMedian;

impl Aggregator for CoordinateMedian {
    fn name(&self) -> &'static str {
        "median"
    }

    fn aggregate(&mut self, global: &[Tensor], updates: &[ClientUpdate<'_>]) -> Vec<Tensor> {
        per_coordinate(global, updates, |column| {
            column.sort_unstable_by(f32::total_cmp);
            let n = column.len();
            if n % 2 == 1 {
                column[n / 2]
            } else {
                0.5 * (column[n / 2 - 1] + column[n / 2])
            }
        })
    }
}

/// Coordinate-wise trimmed mean.
struct TrimmedMean {
    frac: f32,
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate(&mut self, global: &[Tensor], updates: &[ClientUpdate<'_>]) -> Vec<Tensor> {
        let frac = self.frac;
        per_coordinate(global, updates, move |column| {
            column.sort_unstable_by(f32::total_cmp);
            let n = column.len();
            // Trim k from each tail, always keeping at least one value.
            // ceil, not floor: a federation with `frac` of its clients
            // Byzantine can land ceil(n * frac) attackers on one tail, and
            // all of them must go.
            let k = (((n as f32) * frac).ceil() as usize).min((n - 1) / 2);
            let kept = &column[k..n - k];
            kept.iter().sum::<f32>() / kept.len() as f32
        })
    }
}

/// Applies `fold` to every coordinate column across the updates.
fn per_coordinate(
    global: &[Tensor],
    updates: &[ClientUpdate<'_>],
    fold: impl Fn(&mut Vec<f32>) -> f32,
) -> Vec<Tensor> {
    let mut column = Vec::with_capacity(updates.len());
    global
        .iter()
        .enumerate()
        .map(|(j, g)| {
            let mut out = Tensor::zeros(g.dims());
            for (k, slot) in out.data_mut().iter_mut().enumerate() {
                column.clear();
                column.extend(updates.iter().map(|u| u.params[j].data()[k]));
                *slot = fold(&mut column);
            }
            out
        })
        .collect()
}

/// Weighted mean of deltas clipped to the median delta norm.
struct NormClippedMean;

impl Aggregator for NormClippedMean {
    fn name(&self) -> &'static str {
        "norm-clip"
    }

    fn aggregate(&mut self, global: &[Tensor], updates: &[ClientUpdate<'_>]) -> Vec<Tensor> {
        // Per-client delta norms, then the median as the clip radius: an
        // honest majority sets the scale, so a norm-inflated update is
        // shrunk back to a typical honest magnitude.
        let norms: Vec<f32> = updates
            .iter()
            .map(|u| {
                u.params
                    .iter()
                    .zip(global)
                    .map(|(p, g)| {
                        p.data()
                            .iter()
                            .zip(g.data())
                            .map(|(a, b)| {
                                let d = a - b;
                                (d * d) as f64
                            })
                            .sum::<f64>()
                    })
                    .sum::<f64>()
                    .sqrt() as f32
            })
            .collect();
        let mut sorted = norms.clone();
        sorted.sort_unstable_by(f32::total_cmp);
        let clip = sorted[sorted.len() / 2].max(f32::MIN_POSITIVE);

        let survivor_weight: f32 = updates.iter().map(|u| u.weight).sum();
        let mut next: Vec<Tensor> = global.to_vec();
        for (u, &norm) in updates.iter().zip(&norms) {
            let w = u.weight / survivor_weight;
            let shrink = if norm > clip { clip / norm } else { 1.0 };
            for (g, (p, base)) in next.iter_mut().zip(u.params.iter().zip(global)) {
                // g += w * shrink * (p - base)
                let scale = w * shrink;
                g.axpy(scale, p);
                g.axpy(-scale, base);
            }
        }
        next
    }
}

/// Why an update was rejected at ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The update contained NaN or infinite values.
    NonFinite,
    /// The update's distance from the round's starting model exceeded
    /// the configured cap.
    NormExploded,
}

/// Ingestion-time validation policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Reject updates containing NaN/Inf values. On by default: a
    /// non-finite update poisons any linear aggregation irreversibly.
    pub reject_non_finite: bool,
    /// Reject updates whose L2 distance from the round's starting global
    /// model exceeds this value. `0` disables the norm check.
    pub max_update_norm: f32,
    /// Number of violations after which a client is quarantined — banned
    /// from all future rounds of this federation. `0` disables
    /// quarantining (violating updates are still rejected).
    pub quarantine_after: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            reject_non_finite: true,
            max_update_norm: 0.0,
            quarantine_after: 3,
        }
    }
}

impl GuardConfig {
    /// A guard that accepts everything — the literal pre-resilience
    /// behaviour, useful as a chaos-experiment control arm.
    pub fn disabled() -> Self {
        GuardConfig {
            reject_non_finite: false,
            max_update_norm: 0.0,
            quarantine_after: 0,
        }
    }
}

/// The serializable part of an [`UpdateGuard`], carried inside round
/// checkpoints so quarantine decisions survive a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardState {
    /// Per-client violation counts, indexed by client.
    pub violations: Vec<u32>,
    /// Clients currently banned from participation.
    pub quarantined: BTreeSet<usize>,
}

/// Ingestion-time update validation with per-client quarantine.
///
/// Owned by the `Federation` (not a phase): a client quarantined during
/// training stays quarantined for unlearning and recovery.
#[derive(Debug, Clone)]
pub struct UpdateGuard {
    config: GuardConfig,
    state: GuardState,
}

impl UpdateGuard {
    /// Creates a guard for `n_clients` clients.
    pub fn new(config: GuardConfig, n_clients: usize) -> Self {
        UpdateGuard {
            config,
            state: GuardState {
                violations: vec![0; n_clients],
                quarantined: BTreeSet::new(),
            },
        }
    }

    /// The active policy.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// `true` if `client` is banned from participation.
    pub fn is_quarantined(&self, client: usize) -> bool {
        self.state.quarantined.contains(&client)
    }

    /// Clients currently quarantined.
    pub fn quarantined(&self) -> impl Iterator<Item = usize> + '_ {
        self.state.quarantined.iter().copied()
    }

    /// Validates one decoded update against the round's starting model.
    ///
    /// `Ok(())` admits the update to aggregation. `Err` reports the
    /// violation; the caller must drop the update. Repeated violations
    /// quarantine the client once the configured threshold is reached.
    pub fn check(
        &mut self,
        client: usize,
        global_before: &[Tensor],
        params: &[Tensor],
    ) -> Result<(), Violation> {
        let violation = self.inspect(global_before, params);
        if let Some(v) = violation {
            self.state.violations[client] = self.state.violations[client].saturating_add(1);
            if self.config.quarantine_after > 0
                && self.state.violations[client] >= self.config.quarantine_after
            {
                self.state.quarantined.insert(client);
            }
            return Err(v);
        }
        Ok(())
    }

    fn inspect(&self, global_before: &[Tensor], params: &[Tensor]) -> Option<Violation> {
        if self.config.reject_non_finite && !params.iter().all(Tensor::all_finite) {
            return Some(Violation::NonFinite);
        }
        if self.config.max_update_norm > 0.0 {
            let norm_sq: f64 = params
                .iter()
                .zip(global_before)
                .map(|(p, g)| {
                    p.data()
                        .iter()
                        .zip(g.data())
                        .map(|(a, b)| {
                            let d = a - b;
                            (d * d) as f64
                        })
                        .sum::<f64>()
                })
                .sum();
            if norm_sq.sqrt() > self.config.max_update_norm as f64 {
                return Some(Violation::NormExploded);
            }
        }
        None
    }

    /// Captures the quarantine bookkeeping for a round checkpoint.
    pub fn state(&self) -> &GuardState {
        &self.state
    }

    /// Restores bookkeeping captured by [`UpdateGuard::state`] — part of
    /// resuming a phase from a crash-consistent checkpoint.
    pub fn restore(&mut self, state: GuardState) {
        let n = self.state.violations.len();
        self.state = state;
        self.state.violations.resize(n, 0);
        self.state.quarantined.retain(|&c| c < n);
    }
}

/// Per-phase resilience accounting, merged into `PhaseStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Updates rejected for NaN/Inf values.
    pub rejected_non_finite: usize,
    /// Updates rejected for exceeding the norm cap.
    pub rejected_norm: usize,
    /// Clients newly quarantined during the phase.
    pub quarantined: usize,
    /// Rounds that fell back to the previous global model because fewer
    /// than `min_quorum` valid updates arrived.
    pub quorum_fallbacks: usize,
    /// Circuit-breaker openings: clients sent into cooldown after
    /// consecutive transport failures (see `crate::ClientHealth`).
    pub cooled_down: usize,
    /// Clients re-admitted from cooldown as half-open probes.
    pub half_open_probes: usize,
}

impl ResilienceStats {
    /// Accumulates another phase's counters.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.rejected_non_finite += other.rejected_non_finite;
        self.rejected_norm += other.rejected_norm;
        self.quarantined += other.quarantined;
        self.quorum_fallbacks += other.quorum_fallbacks;
        self.cooled_down += other.cooled_down;
        self.half_open_probes += other.half_open_probes;
    }

    /// Total updates rejected at ingestion.
    pub fn rejected(&self) -> usize {
        self.rejected_non_finite + self.rejected_norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[f32]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), &[vals.len()])
    }

    fn run(
        kind: AggregatorKind,
        global: &[Tensor],
        sets: &[Vec<Tensor>],
        weights: &[f32],
    ) -> Vec<Tensor> {
        let updates: Vec<ClientUpdate<'_>> = sets
            .iter()
            .zip(weights)
            .enumerate()
            .map(|(i, (params, &weight))| ClientUpdate {
                client: i,
                weight,
                params,
            })
            .collect();
        kind.build().aggregate(global, &updates)
    }

    #[test]
    fn kind_parse_round_trips() {
        for (name, kind) in [
            ("fedavg", AggregatorKind::FedAvg),
            ("median", AggregatorKind::Median),
            ("trimmed-mean", AggregatorKind::TrimmedMean),
            ("norm-clip", AggregatorKind::NormClip),
        ] {
            assert_eq!(AggregatorKind::parse(name), Some(kind));
            assert_eq!(kind.build().name(), name);
        }
        assert_eq!(AggregatorKind::parse("krum"), None);
    }

    #[test]
    fn fedavg_matches_weighted_mean() {
        let global = vec![t(&[0.0, 0.0])];
        let sets = vec![vec![t(&[1.0, 2.0])], vec![t(&[3.0, 6.0])]];
        let out = run(AggregatorKind::FedAvg, &global, &sets, &[0.25, 0.75]);
        assert!(out[0].max_abs_diff(&t(&[2.5, 5.0])) < 1e-6);
    }

    #[test]
    fn median_ignores_a_wild_outlier() {
        let global = vec![t(&[0.0])];
        let sets = vec![
            vec![t(&[1.0])],
            vec![t(&[1.2])],
            vec![t(&[1e9])], // Byzantine
        ];
        let out = run(AggregatorKind::Median, &global, &sets, &[0.3, 0.3, 0.4]);
        assert!((out[0].data()[0] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        let global = vec![t(&[0.0])];
        let sets = vec![
            vec![t(&[1.0])],
            vec![t(&[2.0])],
            vec![t(&[3.0])],
            vec![t(&[100.0])],
        ];
        let out = run(AggregatorKind::Median, &global, &sets, &[0.25; 4]);
        assert!((out[0].data()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let global = vec![t(&[0.0])];
        // 6 updates, trim 20% => k = ceil(1.2) = 2 from each end: the
        // outliers go along with 1.0 and 4.0, leaving mean(2, 3) = 2.5.
        let sets: Vec<Vec<Tensor>> = [-1e9f32, 1.0, 2.0, 3.0, 4.0, 1e9]
            .iter()
            .map(|&v| vec![t(&[v])])
            .collect();
        let out = run(AggregatorKind::TrimmedMean, &global, &sets, &[1.0 / 6.0; 6]);
        assert!((out[0].data()[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_of_tiny_cohorts_keeps_at_least_one() {
        let global = vec![t(&[0.0])];
        let sets = vec![vec![t(&[5.0])]];
        let out = run(AggregatorKind::TrimmedMean, &global, &sets, &[1.0]);
        assert_eq!(out[0].data()[0], 5.0);
    }

    #[test]
    fn norm_clip_bounds_an_inflated_update() {
        let global = vec![t(&[0.0, 0.0])];
        // Two honest deltas of norm ~1, one scaled to norm 1000. The clip
        // radius is the median norm (~1), so the attacker contributes at
        // most an honest-sized pull.
        let sets = vec![
            vec![t(&[1.0, 0.0])],
            vec![t(&[0.0, 1.0])],
            vec![t(&[600.0, 800.0])],
        ];
        let w = 1.0 / 3.0;
        let out = run(AggregatorKind::NormClip, &global, &sets, &[w, w, w]);
        let norm = out[0].norm();
        assert!(norm < 1.5, "aggregate norm {norm} should stay honest-sized");
    }

    #[test]
    fn norm_clip_with_honest_updates_matches_fedavg() {
        let global = vec![t(&[1.0, -1.0])];
        let sets = vec![vec![t(&[1.5, -0.5])], vec![t(&[0.5, -1.5])]];
        let avg = run(AggregatorKind::FedAvg, &global, &sets, &[0.5, 0.5]);
        let clipped = run(AggregatorKind::NormClip, &global, &sets, &[0.5, 0.5]);
        // Equal-norm honest deltas: nothing is clipped, means agree.
        assert!(avg[0].max_abs_diff(&clipped[0]) < 1e-6);
    }

    #[test]
    fn guard_rejects_nan_and_quarantines_repeat_offenders() {
        let global = vec![t(&[0.0])];
        let mut guard = UpdateGuard::new(
            GuardConfig {
                quarantine_after: 2,
                ..GuardConfig::default()
            },
            3,
        );
        let bad = vec![t(&[f32::NAN])];
        let good = vec![t(&[0.5])];
        assert_eq!(guard.check(1, &global, &bad), Err(Violation::NonFinite));
        assert!(!guard.is_quarantined(1));
        assert_eq!(guard.check(1, &global, &bad), Err(Violation::NonFinite));
        assert!(guard.is_quarantined(1));
        assert!(guard.check(0, &global, &good).is_ok());
        assert!(!guard.is_quarantined(0));
        assert_eq!(guard.quarantined().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn guard_norm_cap_rejects_exploded_updates() {
        let global = vec![t(&[0.0, 0.0])];
        let mut guard = UpdateGuard::new(
            GuardConfig {
                max_update_norm: 5.0,
                ..GuardConfig::default()
            },
            1,
        );
        assert!(guard.check(0, &global, &[t(&[3.0, 0.0])]).is_ok());
        assert_eq!(
            guard.check(0, &global, &[t(&[30.0, 40.0])]),
            Err(Violation::NormExploded)
        );
    }

    #[test]
    fn disabled_guard_admits_anything() {
        let global = vec![t(&[0.0])];
        let mut guard = UpdateGuard::new(GuardConfig::disabled(), 1);
        assert!(guard.check(0, &global, &[t(&[f32::NAN])]).is_ok());
        assert!(guard.check(0, &global, &[t(&[1e30])]).is_ok());
    }

    #[test]
    fn guard_state_round_trips_and_restores() {
        let global = vec![t(&[0.0])];
        let mut guard = UpdateGuard::new(
            GuardConfig {
                quarantine_after: 1,
                ..GuardConfig::default()
            },
            4,
        );
        let _ = guard.check(2, &global, &[t(&[f32::INFINITY])]);
        assert!(guard.is_quarantined(2));
        let v = serde::Serialize::to_value(guard.state());
        let state: GuardState = serde::Deserialize::from_value(&v).unwrap();
        let mut fresh = UpdateGuard::new(GuardConfig::default(), 4);
        fresh.restore(state);
        assert!(fresh.is_quarantined(2));
        assert_eq!(fresh.state().violations, vec![0, 0, 1, 0]);
    }

    #[test]
    fn resilience_stats_merge_sums_every_field() {
        let mut a = ResilienceStats {
            rejected_non_finite: 1,
            rejected_norm: 2,
            quarantined: 3,
            quorum_fallbacks: 4,
            cooled_down: 5,
            half_open_probes: 6,
        };
        let b = ResilienceStats {
            rejected_non_finite: 10,
            rejected_norm: 20,
            quarantined: 30,
            quorum_fallbacks: 40,
            cooled_down: 50,
            half_open_probes: 60,
        };
        a.merge(&b);
        assert_eq!(a.rejected(), 33);
        assert_eq!(a.quarantined, 33);
        assert_eq!(a.quorum_fallbacks, 44);
        assert_eq!(a.cooled_down, 55);
        assert_eq!(a.half_open_probes, 66);
    }
}
