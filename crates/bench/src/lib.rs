//! Shared scaffolding for the benchmark harnesses that regenerate every
//! table and figure of the QuickDrop paper.
//!
//! Each `benches/<id>.rs` target (run by `cargo bench`) builds a
//! federation with [`Setup::build`], trains it once with in-situ
//! distillation ([`train_system`]) — which simultaneously produces the
//! trained model, the update history FedEraser needs, and QuickDrop's
//! synthetic sets — then replays each unlearning method from the same
//! trained parameters with [`run_method`] and prints a paper-shaped table.
//!
//! Scales default to CPU-tractable sizes; set `QD_FULL=1` to double
//! dataset sizes and training rounds.

#![warn(missing_docs)]

use qd_core::{QuickDrop, QuickDropConfig, TrainReport};
use qd_data::{partition_dirichlet, partition_iid, Dataset, SyntheticDataset};
use qd_distill::DistillConfig;
use qd_eval::split_accuracy;
use qd_fed::{Federation, Phase, PhaseStats};
use qd_nn::{ConvNet, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::{fr_eval_sets, UnlearnRequest, UnlearningMethod};
use std::sync::Arc;
use std::time::Duration;

/// Experiment size multiplier: 1 by default, 2 when `QD_FULL=1` is set.
pub fn scale_factor() -> usize {
    match std::env::var("QD_FULL") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => 2,
        _ => 1,
    }
}

/// How client datasets are split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Split {
    /// Dirichlet(alpha) non-IID (the paper's default is `alpha = 0.1`).
    Dirichlet(f32),
    /// Uniform IID.
    Iid,
}

/// A ready federation plus everything the harnesses need around it.
pub struct Setup {
    /// The federation under test.
    pub fed: Federation,
    /// Held-out test data.
    pub test: Dataset,
    /// The concrete ConvNet (needed by FU-MP).
    pub convnet: Arc<ConvNet>,
    /// The same network as a trait object.
    pub model: Arc<dyn Module>,
    /// Root RNG for the experiment.
    pub rng: Rng,
}

impl Setup {
    /// Builds a federation of `n_clients` over a synthetic dataset with
    /// `train_n`/`test_n` samples (both multiplied by [`scale_factor`]).
    pub fn build(
        dataset: SyntheticDataset,
        n_clients: usize,
        split: Split,
        train_n: usize,
        test_n: usize,
        seed: u64,
    ) -> Setup {
        let s = scale_factor();
        let mut rng = Rng::seed_from(seed);
        let data = dataset.generate(train_n * s, &mut rng);
        let test = dataset.generate(test_n * s, &mut rng);
        let parts = match split {
            Split::Dirichlet(alpha) => {
                partition_dirichlet(data.labels(), data.classes(), n_clients, alpha, &mut rng)
            }
            Split::Iid => partition_iid(data.len(), n_clients, &mut rng),
        };
        let clients: Vec<Dataset> = parts.iter().map(|p| data.subset(p)).collect();
        let convnet = Arc::new(ConvNet::scaled_default(
            dataset.channels(),
            dataset.classes(),
        ));
        let model: Arc<dyn Module> = convnet.clone();
        let fed = Federation::new(model.clone(), clients, &mut rng);
        Setup {
            fed,
            test,
            convnet,
            model,
            rng,
        }
    }
}

/// The standard QuickDrop configuration used by the harnesses, mirroring
/// the paper's stage proportions at bench scale. Training rounds are
/// multiplied by [`scale_factor`].
pub fn bench_config(train_rounds: usize) -> QuickDropConfig {
    let mut cfg = QuickDropConfig::paper_shaped(train_rounds * scale_factor(), 8, 32, 0.08);
    cfg.distill = DistillConfig {
        scale: 100,
        lr_syn: 0.5,
        steps_syn: 1,
        classes_per_step: 2,
        real_batch_per_class: 16,
        init_from_real: true,
        objective: qd_distill::MatchObjective::Gradient,
    };
    // Milder ascent than 2x lr keeps recovery tractable at bench scale
    // (see DESIGN.md): one unlearning round, two recovery rounds, as in
    // the paper.
    cfg.unlearn_phase = Phase::unlearning(1, 6, 32, 0.04);
    cfg.recover_phase = Phase::training(2, 8, 32, 0.08);
    cfg.relearn_phase = Phase::training(2, 8, 32, 0.08);
    // Sequential-request streams (Figure 4) occasionally need more than
    // one ascent round; adaptive unlearning stops as soon as the
    // augmented forget data is forgotten, so the common case stays one
    // round as in the paper.
    cfg.max_unlearn_rounds = 8;
    cfg
}

/// Trains the federation once with in-situ distillation and history
/// recording, returning the QuickDrop system, its training report, and a
/// snapshot of the trained parameters that every method restarts from.
pub fn train_system(
    setup: &mut Setup,
    config: QuickDropConfig,
) -> (QuickDrop, TrainReport, Vec<Tensor>) {
    setup.fed.set_record_history(true);
    let (qd, report) = QuickDrop::train(&mut setup.fed, config, &mut setup.rng);
    setup.fed.set_record_history(false);
    let snapshot = setup.fed.global().to_vec();
    (qd, report, snapshot)
}

/// One row of a comparison table: accuracy after each stage plus costs.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method display name.
    pub method: String,
    /// F-Set accuracy right after the unlearning stage.
    pub f_unlearn: f32,
    /// R-Set accuracy right after the unlearning stage.
    pub r_unlearn: f32,
    /// Unlearning-stage cost.
    pub unlearn: PhaseStats,
    /// F-Set accuracy after recovery.
    pub f_final: f32,
    /// R-Set accuracy after recovery.
    pub r_final: f32,
    /// Recovery-stage cost.
    pub recovery: PhaseStats,
}

impl MethodRow {
    /// Total wall-clock of both stages.
    pub fn total_time(&self) -> Duration {
        self.unlearn.wall + self.recovery.wall
    }
}

/// Restores the trained snapshot, runs `method` on `request`, and
/// evaluates both stages on the request's F/R sets.
pub fn run_method(
    setup: &mut Setup,
    trained: &[Tensor],
    method: &mut dyn UnlearningMethod,
    request: UnlearnRequest,
) -> MethodRow {
    setup.fed.set_global(trained.to_vec());
    let outcome = method.unlearn(&mut setup.fed, request, &mut setup.rng);
    let (f_set, r_set) = fr_eval_sets(&setup.fed, request, &setup.test);
    let (f_unlearn, r_unlearn) = split_accuracy(
        setup.model.as_ref(),
        &outcome.post_unlearn_params,
        &f_set,
        &r_set,
    );
    let (f_final, r_final) =
        split_accuracy(setup.model.as_ref(), setup.fed.global(), &f_set, &r_set);
    MethodRow {
        method: method.name().to_string(),
        f_unlearn,
        r_unlearn,
        unlearn: outcome.unlearn,
        f_final,
        r_final,
        recovery: outcome.recovery,
    }
}

/// Formats a percentage with two decimals.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// Prints a Table-2-shaped comparison: per-stage accuracy, rounds, time
/// and data size, plus speedups measured against the first row
/// (Retrain-Or).
pub fn print_comparison(title: &str, rows: &[MethodRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<12} | {:>8} {:>8} {:>7} {:>9} {:>9} | {:>8} {:>8} {:>7} {:>9} {:>9} | {:>9} {:>9}",
        "method",
        "F-unl",
        "R-unl",
        "rounds",
        "time",
        "data",
        "F-fin",
        "R-fin",
        "rounds",
        "time",
        "data",
        "total",
        "speedup"
    );
    let reference = rows
        .first()
        .map(MethodRow::total_time)
        .unwrap_or(Duration::ZERO);
    for row in rows {
        let speedup = if row.total_time().is_zero() {
            f64::INFINITY
        } else {
            reference.as_secs_f64() / row.total_time().as_secs_f64()
        };
        println!(
            "{:<12} | {:>8} {:>8} {:>7} {:>9} {:>9} | {:>8} {:>8} {:>7} {:>9} {:>9} | {:>9} {:>8.1}x",
            row.method,
            pct(row.f_unlearn),
            pct(row.r_unlearn),
            row.unlearn.rounds,
            secs(row.unlearn.wall),
            row.unlearn.data_size,
            pct(row.f_final),
            pct(row.r_final),
            row.recovery.rounds,
            secs(row.recovery.wall),
            row.recovery.data_size,
            secs(row.total_time()),
            speedup
        );
    }
}

/// Prints the paper-reported reference values under a harness's output so
/// the measured-vs-paper comparison (EXPERIMENTS.md) is self-contained.
pub fn print_paper_reference(lines: &[&str]) {
    println!("\n--- paper reference ---");
    for l in lines {
        println!("  {l}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_defaults_to_one() {
        // (Environment-dependent, but QD_FULL is not set in CI.)
        if std::env::var("QD_FULL").is_err() {
            assert_eq!(scale_factor(), 1);
        }
    }

    #[test]
    fn setup_builds_requested_topology() {
        let setup = Setup::build(SyntheticDataset::Digits, 4, Split::Iid, 200, 80, 1);
        assert_eq!(setup.fed.n_clients(), 4);
        assert_eq!(setup.test.len(), 80 * scale_factor());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(secs(Duration::from_millis(1500)), "1.50s");
    }
}
