//! qd-serve: an unlearning-as-a-service front end.
//!
//! QuickDrop's durable request journal (qd-core) already makes a single
//! stream of unlearning requests crash-consistent. This crate puts a
//! *service* in front of it: many tenants submit seeded streams of
//! forget requests, bounded per-tenant queues apply admission control,
//! a deficit-round-robin scheduler shares service fairly, and
//! compatible requests coalesce into journal batches that amortize one
//! recovery pass over several forget sets — the paper's "requests
//! arrive sequentially" observation turned into throughput.
//!
//! # Plan / Execute split
//!
//! The service is deliberately two-phase:
//!
//! 1. **Plan** ([`build_plan`]): a *pure function* of [`ServeConfig`].
//!    Each tenant's seeded arrival stream is generated, the streams
//!    are merged into one sorted sequence, and queuing, fairness,
//!    coalescing and the virtual clock run over it — single-threaded
//!    throughout. Same config ⇒ same plan, always.
//! 2. **Execute** ([`run_service_isolated`]): walks the planned units
//!    through qd-core's one journaled path in order. All durability
//!    lives there, in qd-core's journal protocol.
//!
//! The split is what makes crash recovery trivial: after a kill, the
//! journal says how many planned units completed, and re-planning from
//! the same config reproduces the identical unit list to continue
//! from. The chaos tests assert the resulting model, journal, and
//! [`ServeStats`] are bit-for-bit equal to an unfailed run.
//!
//! Everything reported in [`ServeStats`] uses the plan's virtual clock
//! — no wall time anywhere — so benchmarks are reproducible across
//! machines and across kill/resume schedules.
//!
//! # Failure isolation
//!
//! [`run_service_isolated`] is the one unit loop. With isolation knobs
//! on it becomes a degraded-mode executor (see `executor`): a unit the
//! guard rejects climbs a deterministic retry ladder of tightened
//! policies, a
//! poisoned coalesced batch is bisected down to the guilty members,
//! those members are quarantined to a dead-letter journal instead of
//! aborting the run, and per-tenant circuit breakers shed a repeatedly
//! poisonous tenant's queue. All knobs ([`IsolationConfig`]) default
//! off; the inactive executor probes, sheds and quarantines nothing,
//! and the first unit the guard rejects aborts the run.

#![warn(missing_docs)]

pub mod config;
pub mod deployment;
pub mod executor;
pub mod plan;
pub mod service;
pub mod stats;

pub use config::ServeConfig;
pub use deployment::{check_geometry, Closed, Deployment, Geometry};
pub use executor::{
    frontier_summary, isolate_poison, ladder_policy, run_service_isolated, FrontierSummary,
    IsolationConfig, MAX_UNIT_RETRIES,
};
pub use plan::{build_plan, Arrival, Plan, PlannedBatch, RequestTag};
pub use service::{ChaosKill, ServiceError, ServiceRun};
pub use stats::{percentile_us, ServeStats};
