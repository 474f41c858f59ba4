//! The service run's result and error types.
//!
//! [`crate::run_service_isolated`] is the one unit loop (see
//! `crate::executor`); what it returns ([`ServiceRun`]), how it fails
//! ([`ServiceError`]) and how a chaos schedule kills it ([`ChaosKill`])
//! live here.

use crate::stats::ServeStats;
use qd_core::{BatchPreempt, ServeError};
use qd_unlearn::ForgetSet;

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
    /// The caller's samples are of another geometry than the ones the
    /// deployment was trained on ([`crate::check_geometry`]'s message).
    Geometry(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Plan(msg) => write!(f, "service plan: {msg}"),
            ServiceError::Serve(e) => e.fmt(f),
            ServiceError::ForeignJournal(msg) => {
                write!(f, "journal does not match this service plan: {msg}")
            }
            ServiceError::Geometry(msg) => write!(f, "the dataset {msg}"),
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

/// What a [`crate::run_service_isolated`] call did.
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
