//! Deterministic service planning.
//!
//! qd-serve splits serving into **plan** and **execute**. The plan is a
//! pure function of the [`ServeConfig`]: seeded per-tenant arrival
//! streams merged into one sorted sequence, bounded admission queues,
//! deficit round-robin fairness, and request coalescing, all driven by
//! a virtual microsecond clock — no wall time anywhere. Execution then
//! walks the planned service units through the request journal in
//! order.
//!
//! The split is what makes crash recovery exact: a resumed process
//! rebuilds the *same* plan from the *same* config, counts how many
//! units the journal already certifies, and continues from the first
//! incomplete one — so latency percentiles, rejection counts and queue
//! depths (all plan-derived) cannot drift between a killed-and-resumed
//! run and an unfailed one.

use crate::config::ServeConfig;
use qd_tensor::rng::Rng;
use qd_unlearn::UnlearnRequest;
use std::collections::VecDeque;

/// One offered request: which tenant, its index in that tenant's
/// stream, and when it arrives on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Submitting tenant.
    pub tenant: usize,
    /// Position in the tenant's stream.
    pub idx: usize,
    /// Virtual arrival time, µs.
    pub at_us: u64,
    /// The forget request itself.
    pub request: UnlearnRequest,
}

/// Identity of an admitted request, attached to the batch member that
/// serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTag {
    /// Submitting tenant.
    pub tenant: usize,
    /// Position in the tenant's stream.
    pub idx: usize,
    /// Virtual arrival time, µs.
    pub at_us: u64,
}

/// One planned service unit: the distinct requests executed as a
/// coalesced batch (or a single request), when it starts and finishes
/// on the virtual clock, and which admitted requests each member
/// serves.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBatch {
    /// Distinct member requests, dispatch order. This is exactly the
    /// member list the executor makes durable as the unit's RECEIVED
    /// set (`QuickDrop::receive_unit`).
    pub members: Vec<UnlearnRequest>,
    /// Per member: every admitted request it serves. `riders[i][0]` is
    /// the request that claimed the slot; later entries are duplicates
    /// that coalesced onto it for free.
    pub riders: Vec<Vec<RequestTag>>,
    /// Virtual service start, µs.
    pub start_us: u64,
    /// Virtual completion, µs. Every rider's latency is
    /// `finish_us - at_us`.
    pub finish_us: u64,
}

impl PlannedBatch {
    /// Admitted requests this unit serves (members plus riders).
    pub fn served(&self) -> usize {
        self.riders.iter().map(Vec::len).sum()
    }
}

/// The full deterministic plan plus everything admission observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Service units in execution order.
    pub batches: Vec<PlannedBatch>,
    /// Requests offered across all tenants.
    pub offered: u64,
    /// Requests admitted past the bounded queues.
    pub admitted: u64,
    /// Rejections per tenant (queue full on arrival).
    pub rejected_by_tenant: Vec<u64>,
    /// Per-admitted-request virtual latency, in completion order.
    pub latencies_us: Vec<u64>,
    /// Largest total queue depth observed at any admission.
    pub max_queue_depth: u64,
    /// Sum of total queue depth over admission samples.
    pub depth_sum: u64,
    /// Number of admission samples behind `depth_sum`.
    pub depth_samples: u64,
    /// Virtual completion time of the last unit, µs.
    pub makespan_us: u64,
}

#[derive(Debug)]
struct QueuedJob {
    tag: RequestTag,
    request: UnlearnRequest,
}

/// Generates one tenant's seeded arrival stream. Each tenant owns an
/// independent RNG derived from the config seed and its index, so one
/// tenant's stream does not depend on how many others there are.
fn tenant_stream(cfg: &ServeConfig, tenant: usize) -> Vec<Arrival> {
    let mut rng =
        Rng::seed_from(cfg.seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut at_us = 0u64;
    (0..cfg.arrival_requests)
        .map(|idx| {
            // Uniform gaps on [1, 2·mean]: mean arrival_gap_us without
            // reaching for transcendentals.
            let span = (2 * cfg.arrival_gap_us).max(1) as f32;
            at_us += 1 + (rng.uniform(0.0, 1.0) * span) as u64;
            let request = if rng.uniform(0.0, 1.0) < cfg.class_share {
                UnlearnRequest::Class(rng.below(cfg.classes))
            } else {
                UnlearnRequest::Client(rng.below(cfg.clients))
            };
            Arrival {
                tenant,
                idx,
                at_us,
                request,
            }
        })
        .collect()
}

/// Every tenant's stream, merged into one arrival sequence ordered by
/// `(time, tenant, idx)`.
pub fn merged_arrivals(cfg: &ServeConfig) -> Vec<Arrival> {
    let mut merged: Vec<Arrival> = (0..cfg.tenants)
        .flat_map(|tenant| tenant_stream(cfg, tenant))
        .collect();
    merged.sort_by_key(|a| (a.at_us, a.tenant, a.idx));
    merged
}

/// Assembles the next service unit by deficit round-robin over the
/// tenant queues, coalescing as configured. Always returns a non-empty
/// unit when any queue is non-empty: the first visit of a non-empty
/// tenant grants at least one request's worth of deficit.
fn assemble_unit(
    cfg: &ServeConfig,
    queues: &mut [VecDeque<QueuedJob>],
    deficits: &mut [u64],
    drr_ptr: &mut usize,
) -> (Vec<UnlearnRequest>, Vec<Vec<RequestTag>>) {
    let cost = cfg.ascent_cost_us;
    let cap = if cfg.coalesce { cfg.max_batch } else { 1 };
    let tenants = queues.len();
    let mut members: Vec<UnlearnRequest> = Vec::new();
    let mut riders: Vec<Vec<RequestTag>> = Vec::new();
    while members.len() < cap {
        if queues.iter().all(VecDeque::is_empty) {
            break;
        }
        // Next non-empty tenant in round-robin order; empty queues
        // forfeit their deficit (standard DRR — idle tenants must not
        // hoard service share).
        let mut tenant = *drr_ptr % tenants;
        while queues[tenant].is_empty() {
            deficits[tenant] = 0;
            tenant = (tenant + 1) % tenants;
        }
        // Refill the quantum only when the deficit is depleted: a
        // weighted tenant spends its whole quantum (possibly across
        // several service units) before yielding the scheduler, which
        // is what turns `weight` into a service-share ratio.
        if deficits[tenant] < cost {
            deficits[tenant] += cfg.weight(tenant) * cost;
        }
        while let Some(head) = queues[tenant].front() {
            // A duplicate of a request already in the unit rides along
            // for free: same forget set, one ascent, shared recovery.
            let dup = cfg
                .coalesce
                .then(|| members.iter().position(|&m| m.coalesces_with(head.request)))
                .flatten();
            if let Some(member) = dup {
                if let Some(job) = queues[tenant].pop_front() {
                    riders[member].push(job.tag);
                }
                continue;
            }
            if members.len() == cap || deficits[tenant] < cost {
                break;
            }
            deficits[tenant] -= cost;
            if let Some(job) = queues[tenant].pop_front() {
                members.push(job.request);
                riders.push(vec![job.tag]);
            }
        }
        // Keep the pointer on a tenant that still has both backlog and
        // deficit (it was cut off by the batch cap, not exhaustion) so
        // the next unit resumes its turn.
        if queues[tenant].is_empty() || deficits[tenant] < cost {
            *drr_ptr = (tenant + 1) % tenants;
        } else {
            *drr_ptr = tenant;
        }
    }
    (members, riders)
}

/// Builds the full deterministic plan for `cfg`.
///
/// # Errors
///
/// Returns the [`ServeConfig::validate`] message for an unrunnable
/// config.
pub fn build_plan(cfg: &ServeConfig) -> Result<Plan, String> {
    cfg.validate()?;
    let arrivals = merged_arrivals(cfg);
    let offered = arrivals.len() as u64;
    let mut queues: Vec<VecDeque<QueuedJob>> = (0..cfg.tenants).map(|_| VecDeque::new()).collect();
    let mut deficits = vec![0u64; cfg.tenants];
    let mut rejected_by_tenant = vec![0u64; cfg.tenants];
    let mut drr_ptr = 0usize;
    let mut next_arrival = 0usize;
    let mut clock = 0u64;
    let mut admitted = 0u64;
    let mut batches = Vec::new();
    let mut latencies_us = Vec::new();
    let mut max_queue_depth = 0u64;
    let mut depth_sum = 0u64;
    let mut depth_samples = 0u64;
    loop {
        // Admission: everything that has arrived by `clock` joins its
        // tenant's bounded queue or is rejected on the spot.
        while next_arrival < arrivals.len() && arrivals[next_arrival].at_us <= clock {
            let a = arrivals[next_arrival];
            next_arrival += 1;
            if queues[a.tenant].len() >= cfg.queue_cap {
                rejected_by_tenant[a.tenant] += 1;
            } else {
                admitted += 1;
                queues[a.tenant].push_back(QueuedJob {
                    tag: RequestTag {
                        tenant: a.tenant,
                        idx: a.idx,
                        at_us: a.at_us,
                    },
                    request: a.request,
                });
            }
            let depth = queues.iter().map(VecDeque::len).sum::<usize>() as u64;
            max_queue_depth = max_queue_depth.max(depth);
            depth_sum += depth;
            depth_samples += 1;
        }
        if queues.iter().all(VecDeque::is_empty) {
            match arrivals.get(next_arrival) {
                // Idle until the next arrival.
                Some(a) => {
                    clock = a.at_us;
                    continue;
                }
                None => break,
            }
        }
        let (members, riders) = assemble_unit(cfg, &mut queues, &mut deficits, &mut drr_ptr);
        let start_us = clock;
        let service_us = members.len() as u64 * cfg.ascent_cost_us + cfg.recovery_cost_us;
        let finish_us = start_us + service_us;
        for tags in &riders {
            for tag in tags {
                latencies_us.push(finish_us - tag.at_us);
            }
        }
        batches.push(PlannedBatch {
            members,
            riders,
            start_us,
            finish_us,
        });
        clock = finish_us;
    }
    Ok(Plan {
        makespan_us: batches.last().map_or(0, |b| b.finish_us),
        batches,
        offered,
        admitted,
        rejected_by_tenant,
        latencies_us,
        max_queue_depth,
        depth_sum,
        depth_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeConfig {
        ServeConfig {
            tenants: 3,
            arrival_requests: 10,
            classes: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = build_plan(&small()).unwrap();
        let b = build_plan(&small()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_admitted_request_is_served_exactly_once() {
        let plan = build_plan(&small()).unwrap();
        let served: usize = plan.batches.iter().map(PlannedBatch::served).sum();
        assert_eq!(served as u64, plan.admitted);
        assert_eq!(
            plan.admitted + plan.rejected_by_tenant.iter().sum::<u64>(),
            plan.offered
        );
        assert_eq!(plan.latencies_us.len() as u64, plan.admitted);
        // No request is served twice.
        let mut seen = std::collections::BTreeSet::new();
        for batch in &plan.batches {
            for tags in &batch.riders {
                for tag in tags {
                    assert!(seen.insert((tag.tenant, tag.idx)), "double-served {tag:?}");
                }
            }
        }
    }

    #[test]
    fn coalescing_respects_max_batch_and_merges_duplicates() {
        let cfg = ServeConfig {
            max_batch: 2,
            classes: 2, // heavy duplication pressure
            ..small()
        };
        let plan = build_plan(&cfg).unwrap();
        let mut merged_any = false;
        for batch in &plan.batches {
            assert!(batch.members.len() <= 2, "max_batch violated");
            // Distinct members never repeat inside a unit.
            for (i, a) in batch.members.iter().enumerate() {
                for b in &batch.members[i + 1..] {
                    assert_ne!(a, b, "duplicate member should have merged");
                }
            }
            merged_any |= batch.riders.iter().any(|r| r.len() > 1);
        }
        assert!(merged_any, "duplication pressure must produce riders");
    }

    #[test]
    fn disabling_coalescing_plans_singletons() {
        let cfg = ServeConfig {
            coalesce: false,
            ..small()
        };
        let plan = build_plan(&cfg).unwrap();
        assert!(plan
            .batches
            .iter()
            .all(|b| b.members.len() == 1 && b.riders[0].len() == 1));
        // Same offered load, more service units than the coalesced plan.
        let coalesced = build_plan(&small()).unwrap();
        assert!(plan.batches.len() >= coalesced.batches.len());
        assert!(coalesced.makespan_us <= plan.makespan_us);
    }

    #[test]
    fn tight_queues_reject_overflow() {
        let cfg = ServeConfig {
            queue_cap: 1,
            arrival_gap_us: 10, // arrivals much faster than service
            arrival_requests: 30,
            ..small()
        };
        let plan = build_plan(&cfg).unwrap();
        assert!(
            plan.rejected_by_tenant.iter().sum::<u64>() > 0,
            "overload with cap 1 must reject"
        );
        assert!(plan.max_queue_depth <= (cfg.tenants * cfg.queue_cap) as u64);
    }

    #[test]
    fn weights_skew_service_share_under_contention() {
        // Tenant 0 gets weight 4, the others weight 1; under constant
        // backlog its requests should finish disproportionately early.
        let cfg = ServeConfig {
            tenants: 2,
            weights: vec![4, 1],
            coalesce: false,
            arrival_gap_us: 1,
            arrival_requests: 12,
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let plan = build_plan(&cfg).unwrap();
        let first_half: Vec<usize> = plan.batches[..plan.batches.len() / 2]
            .iter()
            .map(|b| b.riders[0][0].tenant)
            .collect();
        let t0 = first_half.iter().filter(|&&t| t == 0).count();
        assert!(
            t0 > first_half.len() / 2,
            "weighted tenant should dominate the early schedule: {first_half:?}"
        );
    }
}
