//! The service entry point and its result types.
//!
//! [`run_service`] plans the multi-tenant request stream and drives the
//! planned units through the request journal, in plan order. There is
//! one unit loop — [`crate::run_service_isolated`] — and this is it with
//! every failure-isolation mechanism off: each unit's RECEIVED set is
//! appended (a request served alone unbatched, a coalesced unit under a
//! fresh batch id) and the unit is executed by qd-core's one unit
//! engine through `QuickDrop::resume_requests_until`, under the base
//! guard policy; the first unit the guard rejects aborts the run.
//!
//! Progress lives entirely in the journal, so crash recovery is: reopen
//! checkpoint + journal (`QuickDrop::open_deployment`), then call
//! [`run_service`] again with the same config — it rebuilds the same
//! plan, maps the journal back onto it, finishes the unit the kill
//! left partially applied and continues from there. The final model,
//! journal records and [`ServeStats`] match an unfailed run
//! bit-for-bit.
//!
//! With an active [`crate::IsolationConfig`] the same loop adds the
//! policy layer: diverging units walk a retry ladder, poison members
//! are bisected into a dead-letter set, and per-tenant circuit breakers
//! shed work from repeat offenders — see `crate::executor`.

use crate::config::ServeConfig;
use crate::executor::{run_service_isolated, IsolationConfig};
use crate::stats::ServeStats;
use qd_core::{BatchPreempt, QuickDrop, RequestJournal, ServeError};
use qd_fed::Federation;
use qd_tensor::rng::Rng;
use qd_unlearn::{ForgetSet, GuardPolicy};

/// Why a service run failed.
#[derive(Debug)]
pub enum ServiceError {
    /// The config was unrunnable or the planner failed.
    Plan(String),
    /// A journaled serving call failed (I/O or guard divergence).
    Serve(ServeError),
    /// The journal does not belong to this service plan: its records
    /// cannot be aligned with the planned units (wrong config, a
    /// relearn stream, or a journal from some other deployment).
    /// Progress counting on such a journal would silently corrupt the
    /// run, so it is refused up front.
    ForeignJournal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Plan(msg) => write!(f, "service plan: {msg}"),
            ServiceError::Serve(e) => e.fmt(f),
            ServiceError::ForeignJournal(msg) => {
                write!(f, "journal does not match this service plan: {msg}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServeError> for ServiceError {
    fn from(e: ServeError) -> Self {
        ServiceError::Serve(e)
    }
}

/// A deterministic crash stand-in: stop the run right after `boundary`
/// of planned unit `unit_index` becomes durable, exactly as a kill at
/// that instant would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Index into the plan's unit list.
    pub unit_index: usize,
    /// The journal boundary to die at. For a unit written unbatched (a
    /// request served alone with isolation off), `Unlearned(_)` means
    /// the UNLEARNED record whatever the count. The isolation-only
    /// boundaries (`Quarantined`, `Failed`) only fire under an active
    /// [`crate::IsolationConfig`]; with isolation off those records
    /// are never written.
    pub boundary: BatchPreempt,
}

impl ChaosKill {
    /// The serve-side reading of a unified [`qd_core::CrashPoint`]:
    /// boundary points become a `ChaosKill`, storage points are
    /// [`qd_core::FaultFs::arm`]'s to consume (and return `None`
    /// here). A chaos schedule holds at most one `CrashPoint` per
    /// process lifetime, so routing every kill through these two
    /// translations means it can never express contradictory deaths.
    pub fn from_point(point: &qd_core::CrashPoint) -> Option<ChaosKill> {
        match *point {
            qd_core::CrashPoint::VfsOp(_) => None,
            qd_core::CrashPoint::Boundary { unit, boundary } => Some(ChaosKill {
                unit_index: unit,
                boundary,
            }),
        }
    }
}

/// What a [`run_service`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRun {
    /// Full SLA accounting. Plan-derived and identical across resumes;
    /// when `preempted` is true the stats are marked
    /// [partial](ServeStats::partial) and the latency/throughput
    /// fields are zeroed, because they would describe a schedule that
    /// never finished.
    pub stats: ServeStats,
    /// Units this call executed (not counting ones a previous process
    /// had already completed).
    pub executed_units: u64,
    /// Units already certified by the journal when this call started.
    pub resumed_units: u64,
    /// True when a [`ChaosKill`] stopped the run early; the journal
    /// holds the partial progress and a later call continues it.
    pub preempted: bool,
    /// The dead-letter set: requests whose members were isolated to
    /// QUARANTINED. Empty with isolation off and on any run without
    /// poison.
    pub dead_letter: ForgetSet,
}

/// Plans and executes the whole service run for `cfg` — or, when the
/// journal already holds progress from a killed run *of the same
/// config*, the remainder of it.
///
/// The journal must be dedicated to this service run: its records are
/// aligned with the plan's units before anything executes, and a
/// journal that cannot be aligned (wrong config, relearn records, some
/// other deployment's history) is refused with
/// [`ServiceError::ForeignJournal`] instead of being silently
/// miscounted. Callers resuming after a crash reopen the deployment
/// (`QuickDrop::open_deployment`) and call this with the same config;
/// the partially-applied unit is finished here.
///
/// This is [`crate::run_service_isolated`] with the default all-off
/// [`crate::IsolationConfig`].
///
/// # Errors
///
/// [`ServiceError::Plan`] for an unrunnable config,
/// [`ServiceError::ForeignJournal`] when the journal cannot be aligned
/// with the plan, or [`ServiceError::Serve`] when a unit fails (guard
/// divergence aborts the run; the journal keeps the diverged unit at
/// its last durable state, so a retry surfaces the same error
/// deterministically).
pub fn run_service(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    cfg: &ServeConfig,
    policy: Option<&GuardPolicy>,
    rng: &mut Rng,
    kill: Option<ChaosKill>,
) -> Result<ServiceRun, ServiceError> {
    run_service_isolated(
        qd,
        fed,
        journal,
        cfg,
        policy,
        &IsolationConfig::default(),
        rng,
        kill,
    )
}
