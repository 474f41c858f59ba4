//! A small multi-tenant mix must plan into something worth crashing:
//! several units, and real coalescing. Killing and resuming a service
//! run is tested in `crates/chaos/tests/exhaustive.rs`.

use qd_serve::{build_plan, Plan, ServeConfig, ServeStats};

/// Small service: two tenants, tight class universe for duplication
/// pressure, arrivals faster than service so batches actually form.
fn serve_config() -> ServeConfig {
    ServeConfig {
        tenants: 2,
        arrival_requests: 3,
        arrival_gap_us: 300,
        queue_cap: 8,
        coalesce: true,
        max_batch: 3,
        weights: vec![1],
        classes: 2,
        clients: 2,
        class_share: 0.7,
        ascent_cost_us: 400,
        recovery_cost_us: 900,
        seed: 11,
    }
}

/// The plan this config produces, with the shape the chaos schedule
/// needs: several units, at least one coalesced batch, at least one
/// singleton.
fn shaped_plan() -> Plan {
    let plan = build_plan(&serve_config()).unwrap();
    assert!(plan.batches.len() >= 2, "need a multi-unit plan");
    assert!(
        plan.batches.iter().any(|b| b.members.len() > 1),
        "need a coalesced batch to kill mid-batch"
    );
    plan
}

#[test]
fn stats_report_real_coalescing_for_the_chaos_mix() {
    let plan = shaped_plan();
    let stats = ServeStats::from_plan(&plan);
    assert!(stats.coalesce_ratio > 1.0, "mix must actually coalesce");
    assert_eq!(stats.served, stats.admitted);
    assert!(stats.p50_latency_us <= stats.p99_latency_us);
}
