//! Chaos harness: QuickDrop trained and served while a fraction of
//! clients is Byzantine (NaN emitters, sign-flippers, update boosters),
//! compared across aggregation rules.
//!
//! The paper assumes honest clients; this harness measures how much of
//! QuickDrop's accuracy and unlearning efficacy survives an adversarial
//! minority under each [`AggregatorKind`], with the default ingestion
//! guard active (non-finite updates are rejected at decode and repeat
//! offenders quarantined). Pass `--test` for a seconds-scale smoke run.

use qd_bench::{bench_config, print_paper_reference, Setup, Split};
use qd_core::QuickDrop;
use qd_data::SyntheticDataset;
use qd_eval::split_accuracy;
use qd_fed::{AggregatorKind, FaultKind, FaultPlan, Phase, ResilienceStats};
use qd_unlearn::{fr_eval_sets, UnlearnRequest, UnlearningMethod};

const BYZANTINE_FRAC: f32 = 0.2;

struct Row {
    label: String,
    test_acc: f32,
    forget_acc: f32,
    retain_acc: f32,
    resilience: ResilienceStats,
}

fn run_one(kind: Option<AggregatorKind>, smoke: bool) -> Row {
    // At least one client must land in the Byzantine fraction, even at
    // smoke scale: 5 * 0.2 = 1 attacker.
    let (clients, train_n, test_n, rounds) = if smoke {
        (5, 300, 160, 2)
    } else {
        (8, 1200, 500, 8)
    };
    let mut setup = Setup::build(
        SyntheticDataset::Digits,
        clients,
        Split::Iid,
        train_n,
        test_n,
        42,
    );
    let mut cfg = bench_config(rounds);
    if smoke {
        cfg.train_phase = Phase::training(rounds, 2, 16, 0.08);
        cfg.distill.scale = 20;
    }
    let label = match kind {
        None => "fedavg (fault-free)".to_string(),
        Some(k) => format!("{k:?} @ {:.0}% byz", BYZANTINE_FRAC * 100.0),
    };
    if let Some(k) = kind {
        // The rule guards every phase: attackers don't pause while the
        // operator unlearns and recovers.
        cfg.train_phase = cfg.train_phase.with_aggregator(k);
        cfg.unlearn_phase = cfg.unlearn_phase.with_aggregator(k);
        cfg.recover_phase = cfg.recover_phase.with_aggregator(k);
        cfg.relearn_phase = cfg.relearn_phase.with_aggregator(k);
        // Corrupting kinds only — a fail-stop crasher is handled by
        // participation weighting, not by the aggregation rule.
        let plan = FaultPlan::new(7, BYZANTINE_FRAC).with_kinds(vec![
            FaultKind::NanEmitter,
            FaultKind::SignFlip,
            FaultKind::Scale,
        ]);
        if k == AggregatorKind::FedAvg {
            let roster: Vec<String> = (0..clients)
                .filter_map(|c| {
                    plan.fault_of(clients, c)
                        .map(|f| format!("client {c}: {f:?}"))
                })
                .collect();
            println!("  byzantine roster: {}", roster.join(", "));
        }
        setup.fed.set_fault_plan(Some(plan));
    }
    let (mut qd, report) = QuickDrop::train(&mut setup.fed, cfg, &mut setup.rng);
    let test_acc = qd_eval::accuracy(setup.model.as_ref(), setup.fed.global(), &setup.test);

    // Unlearning efficacy under the same chaos: forget class 4, measure
    // the F-Set / R-Set split after unlearning + recovery.
    let request = UnlearnRequest::Class(4);
    let (f_set, r_set) = fr_eval_sets(&setup.fed, request, &setup.test);
    qd.unlearn(&mut setup.fed, request, &mut setup.rng);
    let (forget_acc, retain_acc) =
        split_accuracy(setup.model.as_ref(), setup.fed.global(), &f_set, &r_set);

    Row {
        label,
        test_acc,
        forget_acc,
        retain_acc,
        resilience: report.fl_stats.resilience,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    println!(
        "chaos: {:.0}% Byzantine clients (NaN / sign-flip / boost mix), \
         default ingestion guard{}",
        BYZANTINE_FRAC * 100.0,
        if smoke { " [smoke]" } else { "" },
    );

    let rows: Vec<Row> = [
        None,
        Some(AggregatorKind::FedAvg),
        Some(AggregatorKind::Median),
        Some(AggregatorKind::TrimmedMean),
        Some(AggregatorKind::NormClip),
    ]
    .into_iter()
    .map(|kind| run_one(kind, smoke))
    .collect();

    println!(
        "  {:<24} {:>9} {:>8} {:>8} {:>9} {:>12}",
        "aggregator", "test acc", "F-Set", "R-Set", "rejected", "quarantined"
    );
    for r in &rows {
        println!(
            "  {:<24} {:>8.1}% {:>7.1}% {:>7.1}% {:>9} {:>12}",
            r.label,
            r.test_acc * 100.0,
            r.forget_acc * 100.0,
            r.retain_acc * 100.0,
            r.resilience.rejected(),
            r.resilience.quarantined,
        );
    }

    print_paper_reference(&[
        "no direct paper counterpart: the paper assumes honest clients;",
        "shape to reproduce: plain FedAvg loses substantial accuracy to the",
        "Byzantine minority while median / trimmed-mean / norm-clip track the",
        "fault-free baseline, and unlearning efficacy (low F-Set, high R-Set)",
        "survives under the robust rules.",
    ]);
}
