//! Service-level objective accounting.
//!
//! Every number here is derived from the deterministic plan and the
//! (equally deterministic) execution outcome — virtual-clock latencies,
//! counts, and ratios, never wall time — so a killed-and-resumed run
//! reports **bit-for-bit** the same `ServeStats` as an unfailed one,
//! and `BENCH_serve.json` is reproducible across machines.

use crate::plan::Plan;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// SLA metrics for one service run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Tenants that submitted streams.
    pub tenants: usize,
    /// Requests offered across all tenants.
    pub offered: u64,
    /// Requests admitted past the bounded queues.
    pub admitted: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Rejections broken down by tenant.
    pub rejected_by_tenant: Vec<u64>,
    /// Admitted requests served to RECOVERED.
    pub served: u64,
    /// Service units executed (journal batches + singletons).
    pub batches: u64,
    /// Distinct batch members across all units (what the model
    /// actually ran ascents for).
    pub distinct_members: u64,
    /// Mean requests sharing one SGA + recovery pass:
    /// `served / batches`. 1.0 means coalescing never helped.
    pub coalesce_ratio: f32,
    /// Median virtual latency (arrival → unit completion), µs.
    pub p50_latency_us: u64,
    /// 99th-percentile virtual latency, µs.
    pub p99_latency_us: u64,
    /// Served requests per virtual second.
    pub throughput_rps: f32,
    /// Largest total queue depth observed at any admission.
    pub max_queue_depth: u64,
    /// Mean total queue depth over admission samples.
    pub mean_queue_depth: f32,
    /// Virtual completion time of the last unit, µs.
    pub makespan_us: u64,
    /// Admitted requests riding members isolated to the dead-letter
    /// set (journal QUARANTINED records). Subtracted from `served`.
    pub quarantined: u64,
    /// Admitted requests shed to FAILED by a tripped tenant circuit
    /// breaker. Subtracted from `served`.
    pub shed: u64,
    /// Units that exhausted the full retry ladder at least once
    /// (journal-derivable; units rescued by a mid-ladder rung leave no
    /// journal evidence and are deliberately not counted, so a resumed
    /// run reports the same number as an unfailed one).
    pub retried_units: u64,
    /// Units where batch bisection isolated poison members (at least
    /// one QUARANTINED record with the poison-member reason).
    pub bisected_units: u64,
    /// Admitted requests with no terminal journal record yet — neither
    /// RECOVERED nor QUARANTINED nor FAILED. Zero on every completed
    /// run; nonzero exactly when the run was preempted mid-plan. The
    /// accounting identity `admitted = served + quarantined + shed +
    /// pending` holds unconditionally (the chaos harness checks it
    /// after every run).
    pub pending: u64,
    /// Final per-tenant circuit-breaker state: `"closed"`, `"open(n)"`
    /// (n cooldown units remaining) or `"half-open"`.
    pub breaker: Vec<String>,
    /// True when the run was preempted before completing every unit;
    /// the latency/throughput fields are zeroed because they would
    /// describe a schedule that never finished.
    pub partial: bool,
}

/// Nearest-rank percentile of an unsorted sample (q in percent).
/// Returns 0 for an empty sample.
pub fn percentile_us(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServeStats {
    /// Derives the full metric set from a completed plan.
    pub fn from_plan(plan: &Plan) -> ServeStats {
        let served: u64 = plan.batches.iter().map(|b| b.served() as u64).sum();
        let distinct_members: u64 = plan.batches.iter().map(|b| b.members.len() as u64).sum();
        let batches = plan.batches.len() as u64;
        let coalesce_ratio = if batches == 0 {
            0.0
        } else {
            served as f32 / batches as f32
        };
        let throughput_rps = if plan.makespan_us == 0 {
            0.0
        } else {
            served as f32 / (plan.makespan_us as f32 / 1_000_000.0)
        };
        let mean_queue_depth = if plan.depth_samples == 0 {
            0.0
        } else {
            plan.depth_sum as f32 / plan.depth_samples as f32
        };
        ServeStats {
            tenants: plan.rejected_by_tenant.len(),
            offered: plan.offered,
            admitted: plan.admitted,
            rejected: plan.rejected_by_tenant.iter().sum(),
            rejected_by_tenant: plan.rejected_by_tenant.clone(),
            served,
            batches,
            distinct_members,
            coalesce_ratio,
            p50_latency_us: percentile_us(&plan.latencies_us, 50.0),
            p99_latency_us: percentile_us(&plan.latencies_us, 99.0),
            throughput_rps,
            max_queue_depth: plan.max_queue_depth,
            mean_queue_depth,
            makespan_us: plan.makespan_us,
            quarantined: 0,
            shed: 0,
            retried_units: 0,
            bisected_units: 0,
            pending: 0,
            breaker: vec!["closed".to_string(); plan.rejected_by_tenant.len()],
            partial: false,
        }
    }

    /// Marks a preempted run's stats partial: the SLA numbers describe
    /// the planned schedule, not what actually completed, so the
    /// latency and throughput fields are zeroed rather than reported
    /// as final-looking figures.
    ///
    /// Everything journal-certified survives unchanged: the per-tenant
    /// breaker labels (the fold over the journal is as real for a
    /// preempted run as for a finished one) and the
    /// served/quarantined/shed/pending counts, whose identity
    /// `admitted = served + quarantined + shed + pending` must keep
    /// holding — `stats_identity_survives_preemption` in this module
    /// and the chaos harness's accounting invariant both pin it.
    pub fn mark_partial(&mut self) {
        self.partial = true;
        self.p50_latency_us = 0;
        self.p99_latency_us = 0;
        self.throughput_rps = 0.0;
        self.makespan_us = 0;
    }

    /// Writes the stats as JSON on `fs` with the workspace's crash-safe
    /// file discipline (tmp + fsync + rename, via
    /// [`qd_core::vfs::atomic_write`]): a crash mid-write leaves either
    /// the previous file or the new one, never a torn one.
    ///
    /// # Errors
    ///
    /// Any I/O error from the atomic rewrite.
    pub fn save_json_on(&self, fs: &dyn qd_core::Vfs, path: &Path) -> std::io::Result<()> {
        qd_core::vfs::atomic_write(fs, path, &self.json_bytes()?)?;
        Ok(())
    }

    /// The bytes [`ServeStats::save_json_on`] writes: the JSON rendering and
    /// a newline.
    ///
    /// # Errors
    ///
    /// A value the JSON writer refuses.
    pub fn json_bytes(&self) -> std::io::Result<Vec<u8>> {
        let mut json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        json.push('\n');
        Ok(json.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::plan::build_plan;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_us(&samples, 50.0), 50);
        assert_eq!(percentile_us(&samples, 99.0), 100);
        assert_eq!(percentile_us(&samples, 100.0), 100);
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[7], 99.0), 7);
    }

    #[test]
    fn stats_balance_and_round_trip() {
        let plan = build_plan(&ServeConfig::default()).unwrap();
        let stats = ServeStats::from_plan(&plan);
        assert_eq!(stats.offered, stats.admitted + stats.rejected);
        assert_eq!(stats.served, stats.admitted, "plan drains every queue");
        assert!(stats.coalesce_ratio >= 1.0);
        assert!(stats.p50_latency_us <= stats.p99_latency_us);
        assert!(stats.throughput_rps > 0.0);

        let fs = qd_core::FaultFs::new();
        let path = Path::new("stats.json");
        stats.save_json_on(&fs, path).unwrap();
        let text = String::from_utf8(fs.file(path).unwrap()).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let read = ServeStats::from_value(&value).unwrap();
        assert_eq!(read, stats);
    }

    #[test]
    fn stats_identity_survives_preemption() {
        let plan = build_plan(&ServeConfig::default()).unwrap();
        let mut stats = ServeStats::from_plan(&plan);
        assert!(stats.admitted >= 3, "default plan must admit real work");
        // A journal-derived partial outcome: some riders terminal, some
        // still pending when the process died.
        stats.served = stats.admitted - 3;
        stats.quarantined = 1;
        stats.shed = 1;
        stats.pending = 1;
        stats.breaker = vec!["open(2)".to_string(); stats.tenants];
        stats.mark_partial();
        assert!(stats.partial);
        assert_eq!(
            stats.admitted,
            stats.served + stats.quarantined + stats.shed + stats.pending,
            "accounting identity must survive mark_partial"
        );
        assert!(
            stats.breaker.iter().all(|s| s == "open(2)"),
            "per-tenant breaker labels must survive preemption"
        );
        assert_eq!(stats.p50_latency_us, 0);
        assert_eq!(stats.p99_latency_us, 0);
        assert_eq!(stats.throughput_rps, 0.0);
        assert_eq!(stats.makespan_us, 0);
    }
}
