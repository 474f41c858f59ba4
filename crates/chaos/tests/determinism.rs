//! Chaos acceptance: generated schedules run violation-free on the
//! current system, and the whole pipeline — generation, execution,
//! reporting — is bit-for-bit deterministic.

use qd_chaos::{ChaosSchedule, Harness};
use serde::Serialize;

fn report_json(report: &qd_chaos::RunReport) -> String {
    serde_json::to_string(&report.to_value()).expect("reports encode")
}

/// The 25 generated schedules of seed 7 — lossy training, spiked and
/// breaker mixes, multi-death runs — complete without a violation, with
/// the totals they have always had: 5 of their faults fire.
#[test]
fn generated_schedules_complete_without_violations() {
    let mut harness = Harness::new();
    let (mut faults_fired, mut invariants_checked) = (0, 0);
    // One seed shares one training epoch through the harness cache.
    for run in 0..25 {
        let schedule = ChaosSchedule::generate(7, run);
        assert_eq!(schedule.workload.net_drop, 0.2, "run {run}");
        let report = harness.run(&schedule).expect("schedule executes");
        assert!(
            report.violations.is_empty(),
            "run {run} violated invariants: {:?}",
            report.violations
        );
        faults_fired += report.faults_fired;
        invariants_checked += report.invariants_checked;
    }
    assert_eq!((faults_fired, invariants_checked), (5, 150));
}

#[test]
fn execution_is_bit_for_bit_deterministic() {
    let schedule = ChaosSchedule::generate(11, 1);
    let mut first = Harness::new();
    let mut second = Harness::new();
    let a = first.run(&schedule).expect("first execution");
    let b = second.run(&schedule).expect("second execution");
    assert_eq!(report_json(&a), report_json(&b), "reports diverged");
    // And again on the same (warm-cache) harness.
    let c = first.run(&schedule).expect("warm re-execution");
    assert_eq!(report_json(&a), report_json(&c), "warm re-run diverged");
}
