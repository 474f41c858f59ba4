//! The service executor: the one unit loop, and the failure-isolation
//! policy layered on it.
//!
//! [`run_service_isolated`] drives every planned unit the same way:
//! append its atomic RECEIVED set, then execute it through qd-core's
//! unit engine. With everything in [`IsolationConfig`] off (the
//! default) that is the whole story,
//! and the service has one failure mode: the first unit the divergence
//! guard rejects aborts the run, and every request queued behind it
//! starves. An active config gives the service the opposite contract —
//! **no request can take down the service** — through three
//! mechanisms, all journal-derivable so a killed run resumes
//! bit-for-bit:
//!
//! 1. **Retry ladder** ([`ladder_policy`]): a unit the guard rejects is
//!    re-tried under progressively tightened policies — each rung
//!    halves both the ascent-LR scale and the drift budget — up to
//!    `unit_retries` rungs past the base policy.
//! 2. **Batch bisection** ([`isolate_poison`]): when no rung serves a
//!    coalesced unit, the member set is bisected to isolate the poison
//!    members; only those are quarantined to the dead-letter set
//!    (typed QUARANTINED journal records), and the survivors are
//!    served normally.
//! 3. **Per-tenant circuit breakers**: tenants whose requests keep
//!    getting quarantined trip a CLOSED → OPEN → HALF-OPEN breaker —
//!    qd-fed's [`ClientHealth`], indexed by tenant — and have their
//!    queued work shed to FAILED records instead of burning ladder
//!    probes on it.
//!
//! # Probe-first execution
//!
//! The executor never lets the real (journaled) execution diverge.
//! Every ladder rung is first evaluated as a **side-effect-free
//! probe** ([`qd_core::QuickDrop::probe_unit`]) from the unit's
//! pre-state; the real execution runs only for a rung whose probe
//! accepted, and a probe acceptance guarantees the identical real
//! operation sequence accepts too. Three properties fall out:
//!
//! - partially-applied units in the journal can only come from
//!   crashes, never from divergence — so the qd-core resume protocol
//!   needs no rollback machinery;
//! - the winning rung is **derivable**: it is a pure function of the
//!   unit's pre-state, which the RECEIVED records pin. A resumed run
//!   re-runs the probes and lands on the same rung without the rung
//!   ever being serialized;
//! - quarantining never touches the model: a fully-quarantined unit's
//!   QUARANTINED records carry the unchanged pre-unit state.
//!
//! # Execution = resume
//!
//! The executor appends a unit's atomic RECEIVED set
//! ([`qd_core::QuickDrop::receive_unit`]), reads the unit back through
//! qd-core's one journal fold ([`qd_core::units`]) — whether this
//! process or a killed one wrote that set — and drives *all* model work
//! through [`qd_core::QuickDrop::resume_requests_until`]: the one
//! journaled path of `qd_core`'s lifecycle module, which every
//! per-request call runs too. It also means the unit a killed run left
//! in flight is finished *here*, for every config, under the policy it
//! started under; callers reopen the deployment and call again, nothing
//! else. What is durable at each boundary, and what every record holds,
//! is qd-core's decision (`lifecycle.rs`); this module decides only
//! *which* members run under *which* policy, and which are settled
//! unserved ([`qd_core::QuickDrop::settle_unserved`]: FAILED,
//! QUARANTINED) and why.
//!
//! Active and inactive configs differ in exactly one written byte: a
//! request served alone is unbatched (`batch: None`) with isolation
//! off and carries a batch id under an active config, where the probe
//! ladder treats every unit uniformly.

use crate::plan::{build_plan, Plan, PlannedBatch};
use crate::service::{ChaosKill, ServiceError, ServiceRun};
use crate::stats::ServeStats;
use crate::ServeConfig;
use qd_core::{
    units, BatchPreempt, FailReason, JournaledRun, QuickDrop, RequestJournal, RequestState,
    ServeError, Unit,
};
use qd_fed::{ClientHealth, Federation, HealthConfig};
use qd_tensor::rng::Rng;
use qd_unlearn::{ForgetSet, GuardPolicy, UnlearnRequest};

/// Highest retry-ladder rung accepted: beyond 2^-16 the halved
/// ascent-LR scale is numerically dead anyway.
pub const MAX_UNIT_RETRIES: u32 = 16;

/// Failure-isolation knobs. The default is everything **off**: the
/// executor then runs every unit once under the base policy — journal
/// bytes, model bits and stats as before this module existed (pinned
/// by the digest oracle in `tests/poison.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationConfig {
    /// Retry-ladder rungs past the base policy (rung k halves the
    /// ascent-LR scale and drift budget k times). `0` = no ladder.
    pub unit_retries: u32,
    /// Bisect diverging coalesced units to isolate poison members
    /// instead of quarantining the whole unit.
    pub bisect: bool,
    /// Quarantined units from one tenant before its breaker trips
    /// OPEN. `0` = breaker disabled.
    pub breaker_trip: u32,
    /// Units an OPEN breaker sheds before probing the tenant again
    /// (HALF-OPEN). Required ≥ 1 when `breaker_trip` > 0.
    pub breaker_cooldown: u32,
}

impl IsolationConfig {
    /// True when any isolation mechanism is enabled. An inactive config
    /// probes nothing, quarantines nothing and sheds nothing.
    pub fn active(&self) -> bool {
        self.unit_retries > 0 || self.bisect || self.breaker_trip > 0
    }

    /// Rejects nonsensical combinations.
    ///
    /// # Errors
    ///
    /// A message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.unit_retries > MAX_UNIT_RETRIES {
            return Err(format!(
                "unit retries capped at {MAX_UNIT_RETRIES}, got {}",
                self.unit_retries
            ));
        }
        if self.breaker_trip > 0 && self.breaker_cooldown == 0 {
            return Err("a breaker trip threshold needs a cooldown of at least 1 unit".to_string());
        }
        Ok(())
    }
}

/// The retry ladder: rung 0 is the base policy; each higher rung
/// halves both the ascent-LR scale (gentler ascent) and the drift
/// budget (stricter acceptance), per the deterministic tightening
/// schedule. A disabled drift budget (`0.0`) stays disabled.
pub fn ladder_policy(base: &GuardPolicy, rung: u32) -> GuardPolicy {
    let tighten = 0.5f32.powi(rung.min(MAX_UNIT_RETRIES) as i32);
    GuardPolicy {
        drift_budget: base.drift_budget * tighten,
        ascent_lr_scale: base.ascent_lr_scale * tighten,
        ..*base
    }
}

/// Bisects `members` into the subset the predicate blames: an element
/// ends up in the result iff every probed subset containing it failed
/// down to the singleton. Called with a `probe` that answers "would
/// this subset serve cleanly?", the result is the poison member set.
///
/// The recursion prunes aggressively: a passing half is exonerated
/// wholesale (`probe` is monotone for per-member poison — a subset
/// without poison members passes). When *both* halves of a failing set
/// pass — an interaction-only failure bisection cannot localize — the
/// result is empty and the caller falls back to quarantining the whole
/// set.
pub fn isolate_poison<T: Copy>(members: &[T], probe: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    // The recursion only reaches a singleton through a *failed* probe
    // of that singleton, so the base case convicts without re-probing;
    // the top-level entry has no such evidence yet and must probe.
    if let [one] = members {
        return if probe(members) {
            Vec::new()
        } else {
            vec![*one]
        };
    }
    fn go<T: Copy>(set: &[T], probe: &mut dyn FnMut(&[T]) -> bool, out: &mut Vec<T>) {
        match set {
            [] => {}
            [one] => out.push(*one),
            _ => {
                let (left, right) = set.split_at(set.len() / 2);
                match (probe(left), probe(right)) {
                    // Interaction-only failure: neither half is
                    // individually to blame; report nothing from here.
                    (true, true) => {}
                    (true, false) => go(right, probe, out),
                    (false, true) => go(left, probe, out),
                    (false, false) => {
                        go(left, probe, out);
                        go(right, probe, out);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    go(members, probe, &mut out);
    out
}

/// The per-tenant circuit breakers: qd-fed's [`ClientHealth`] indexed by
/// tenant, one tick per unit. At `breaker_trip` quarantined units a
/// tenant's breaker OPENs and its queued members are shed to FAILED for
/// `breaker_cooldown` units; then HALF-OPEN lets one unit through —
/// served closes the breaker, another quarantine re-opens it. A
/// disabled breaker (`breaker_trip == 0`) runs with a zero cooldown,
/// which never opens.
fn tenant_breakers(tenants: usize, iso: &IsolationConfig) -> ClientHealth {
    let breaker_after = iso.breaker_trip;
    ClientHealth::new(HealthConfig { breaker_after }, tenants)
}

/// Ticks the breakers' unit clock, then applies one completed unit's
/// outcomes as the journal certifies them (`served` is its
/// [`qd_core::units`] fold), quarantines before serves: the same fold of
/// the same input for live execution and journal replay, so nothing here
/// is serialized.
fn feed(
    breakers: &mut ClientHealth,
    iso: &IsolationConfig,
    unit: &PlannedBatch,
    served: &Unit<'_>,
) {
    let cooldown = if iso.breaker_trip > 0 {
        iso.breaker_cooldown as usize
    } else {
        0
    };
    let owners = |state| {
        let settled = (served.members.iter().enumerate()).filter(move |(_, m)| m.state == state);
        settled.filter_map(|(i, _)| owner_tenant(unit, i))
    };
    breakers.tick();
    for t in owners(RequestState::Quarantined) {
        breakers.on_failure(t, cooldown);
    }
    for t in owners(RequestState::Recovered) {
        breakers.on_success(t);
    }
}

/// Rebuilds the breakers from the journal-derived outcomes of the
/// leading completed units — the resume path. Live execution feeds each
/// unit from the journal as well, so the replayed state is identical to
/// the state the killed process held.
fn replay(
    breakers: &mut ClientHealth,
    iso: &IsolationConfig,
    plan: &Plan,
    frontier: &Frontier<'_>,
) {
    for (unit, served) in plan.batches.iter().zip(&frontier.units).take(frontier.done) {
        feed(breakers, iso, unit, served);
    }
}

/// The tenant accountable for a unit member: the first rider's tenant
/// (coalescing merges identical requests, so the first arrival owns
/// the ascent; later riders are free-riders).
fn owner_tenant(unit: &PlannedBatch, member: usize) -> Option<usize> {
    unit.riders
        .get(member)
        .and_then(|r| r.first())
        .map(|tag| tag.tenant)
}

/// Where a journal stands relative to a plan.
#[derive(Debug, Clone)]
pub(crate) struct Frontier<'a> {
    /// The journal's units ([`qd_core::units`]), index-aligned with the
    /// leading `plan.batches`; planned units past the end have not
    /// started.
    pub units: Vec<Unit<'a>>,
    /// Leading units whose every member is terminal. At most one more
    /// unit — the one in flight — has started.
    pub done: usize,
}

impl Frontier<'_> {
    /// The dead-letter set: every quarantined member's request.
    pub fn dead_letter(&self) -> ForgetSet {
        let mut set = ForgetSet::empty();
        let members = self.units.iter().flat_map(|unit| &unit.members);
        for member in members.filter(|m| m.state == RequestState::Quarantined) {
            set.insert(member.request);
        }
        set
    }
}

fn foreign(msg: String) -> ServiceError {
    ServiceError::ForeignJournal(msg)
}

/// The journal's units; one the fold refuses was not written by this
/// service.
fn journal_units(journal: &RequestJournal) -> Result<Vec<Unit<'_>>, ServiceError> {
    units(journal.records()).map_err(|e| foreign(e.to_string()))
}

/// Aligns the journal's units ([`qd_core::units`]) with the plan's, unit
/// by unit: they must arrive in plan order with exactly the planned
/// members (each unit's RECEIVED set is one atomic frame, so a started
/// unit is never short), and only the last may be unfinished. Anything
/// else — a journal the fold refuses, RELEARNED members, requests that
/// do not match the plan — means the journal belongs to some other
/// deployment or config, and progress counting on it would silently
/// corrupt the run: the typed [`ServiceError::ForeignJournal`] refuses
/// it up front.
pub(crate) fn map_journal<'a>(
    plan: &Plan,
    journal: &'a RequestJournal,
) -> Result<Frontier<'a>, ServiceError> {
    let units = journal_units(journal)?;
    if units.len() > plan.batches.len() {
        return Err(foreign(format!(
            "the journal holds {} units, the plan only {}",
            units.len(),
            plan.batches.len()
        )));
    }
    for (index, (planned, unit)) in plan.batches.iter().zip(&units).enumerate() {
        if !unit.members.iter().map(|m| &m.request).eq(&planned.members) {
            return Err(foreign(format!(
                "unit {index}'s RECEIVED set is not the plan's {} member(s)",
                planned.members.len()
            )));
        }
        if let Some(m) = (unit.members.iter()).find(|m| m.state == RequestState::Relearned) {
            return Err(foreign(format!(
                "RELEARNED record seq {} — relearn streams never come from this service",
                m.seq
            )));
        }
    }
    let done = (units.iter())
        .take_while(|unit| unit.pending().next().is_none())
        .count();
    if units.len() > done + 1 {
        return Err(foreign(format!(
            "unit {} started before unit {done} finished",
            done + 1
        )));
    }
    Ok(Frontier { units, done })
}

/// Serves one planned unit: append its RECEIVED set unless a killed run
/// already did (`started`), read the unit back from the journal, then —
/// under an active `iso` — shed OPEN-breaker tenants to FAILED, probe
/// the retry ladder, bisect and quarantine what no rung serves; finally
/// execute the survivors via the resume protocol. `Ok(false)` when a
/// [`ChaosKill`] boundary fired; the journal holds the progress.
#[allow(clippy::too_many_arguments)]
fn serve_unit(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    unit: &PlannedBatch,
    unit_index: usize,
    policy: Option<&GuardPolicy>,
    iso: &IsolationConfig,
    breakers: &ClientHealth,
    rng: &mut Rng,
    kill: Option<ChaosKill>,
    started: bool,
) -> Result<bool, ServiceError> {
    let unit_kill = kill.filter(|k| k.unit_index == unit_index);
    let kill_at = |b: BatchPreempt| unit_kill.is_some_and(|k| k.boundary == b);
    if !started {
        // The one written difference between an active and an inactive
        // config: a request served alone stays unbatched with isolation
        // off, as it always was on disk.
        let batch = (unit.members.len() > 1 || iso.active()).then(|| journal.next_batch_id());
        QuickDrop::receive_unit(fed, journal, &unit.members, batch, rng)
            .map_err(ServeError::from)?;
        if kill_at(BatchPreempt::Received) {
            return Ok(false);
        }
    }
    // The unit as the journal holds it, whoever wrote it: its members
    // with their sequence numbers, who is already settled (QUARANTINED
    // or FAILED frames a killed run made durable), and the pre-unit
    // state every probe needs, pinned by the RECEIVED records.
    let folded = journal_units(journal)?;
    let Some(tail) = folded.get(unit_index) else {
        return Err(foreign(format!("unit {unit_index} has no RECEIVED set")));
    };
    let batch = tail.batch;
    let members: Vec<(u64, UnlearnRequest)> =
        tail.members.iter().map(|m| (m.seq, m.request)).collect();
    let mut active: Vec<usize> = (tail.members.iter().enumerate())
        .filter(|(_, m)| !m.state.is_terminal())
        .map(|(i, _)| i)
        .collect();
    let (pre_rng, pre_global) = (tail.received.rng.clone(), tail.received.global.clone());
    let members_at = |positions: &[usize]| -> Vec<(u64, UnlearnRequest)> {
        (positions.iter())
            .filter_map(|&i| members.get(i).copied())
            .collect()
    };
    // Shed decision: members whose owning tenant's breaker is OPEN
    // never reach the model. Its FAILED frame is the first thing
    // written after the RECEIVED set, so the decision is still to be
    // taken exactly when that set is the journal's tail: on a fresh
    // unit, and on one whose previous process died before the frame
    // was durable. Derived from breaker state, which is itself a fold
    // over the journal — so a resumed run re-derives the identical
    // decision (or reads the FAILED records it already led to). A
    // disabled breaker is never OPEN.
    if (journal.last()).is_some_and(|r| r.state == RequestState::Received) {
        let shed: Vec<usize> = (active.iter().copied())
            .filter(|&i| owner_tenant(unit, i).is_some_and(|t| breakers.is_cooling(t)))
            .collect();
        if !shed.is_empty() {
            QuickDrop::settle_unserved(
                fed,
                journal,
                batch,
                &members_at(&shed),
                FailReason::Shed,
                rng,
            )
            .map_err(ServeError::from)?;
            if kill_at(BatchPreempt::Failed) {
                return Ok(false);
            }
            active.retain(|i| !shed.contains(i));
        }
    }

    // In-execution boundaries are the resume protocol's to honor; the
    // executor owns the Received/Failed/Quarantined ones above.
    let exec_preempt = unit_kill
        .map(|k| k.boundary)
        .filter(|b| matches!(b, BatchPreempt::Unlearned(_) | BatchPreempt::Recovered));

    while !active.is_empty() {
        let requests: Vec<UnlearnRequest> = active
            .iter()
            .filter_map(|&i| unit.members.get(i).copied())
            .collect();
        let probe_rng = Rng::from_state(&pre_rng);
        // The policy the unit executes under: the first ladder rung whose
        // probe accepts — or, with isolation off, the base policy as
        // given, unprobed (a divergence then aborts the run).
        let ladder = |qd: &mut QuickDrop, fed: &mut Federation, sub: &[UnlearnRequest]| {
            let base = policy?;
            (0..=iso.unit_retries)
                .map(|rung| ladder_policy(base, rung))
                .find(|rung_policy| {
                    fed.set_global(pre_global.to_vec());
                    qd.probe_unit(fed, sub, rung_policy, &probe_rng)
                })
        };
        let exec_policy = if iso.active() {
            ladder(qd, fed, &requests).map(Some)
        } else {
            Some(policy.copied())
        };
        if let Some(exec_policy) = exec_policy {
            // A probe that accepted guarantees the identical real
            // execution accepts; resume_requests_until restores the
            // journal tail (marks, model, RNG) itself and runs the
            // remaining members.
            let run =
                qd.resume_requests_until(fed, journal, exec_policy.as_ref(), rng, exec_preempt)?;
            return Ok(matches!(run, JournaledRun::Complete(_)));
        }
        // No rung serves the active set. Isolate the poison members —
        // by bisection probes when enabled and the set is divisible —
        // and quarantine them with a typed reason.
        let poison: Vec<usize> = if active.len() > 1 && iso.bisect {
            let found = isolate_poison(&active, &mut |subset: &[usize]| {
                let sub: Vec<UnlearnRequest> = subset
                    .iter()
                    .filter_map(|&i| unit.members.get(i).copied())
                    .collect();
                ladder(qd, fed, &sub).is_some()
            });
            if found.is_empty() {
                // Interaction-only failure: bisection cannot localize.
                active.clone()
            } else {
                found
            }
        } else {
            active.clone()
        };
        let reason = if poison.len() < active.len() {
            FailReason::PoisonMember
        } else if iso.unit_retries > 0 {
            FailReason::RetriesExhausted
        } else {
            FailReason::Diverged
        };
        // Probes are side-effect-free, so the live model and RNG stream
        // are still the pre-unit state the QUARANTINED records certify.
        QuickDrop::settle_unserved(fed, journal, batch, &members_at(&poison), reason, rng)
            .map_err(ServeError::from)?;
        if kill_at(BatchPreempt::Quarantined) {
            return Ok(false);
        }
        active.retain(|i| !poison.contains(i));
    }
    Ok(true)
}

/// Folds the journal's terminal outcomes into the plan-derived stats:
/// `served` becomes the riders of journal-certified RECOVERED members
/// (not the plan's promise), quarantined/shed riders come from the
/// QUARANTINED/FAILED records, `pending` is whatever the journal has
/// not made terminal yet (nonzero exactly on preempted runs), and the
/// breaker column reports the final per-tenant fold (all `closed` for
/// a disabled breaker). Everything here is a pure function of (plan, journal,
/// breaker fold), so a resumed run reports bit-for-bit the stats of an
/// unfailed one — and the accounting identity `admitted = served +
/// quarantined + shed + pending` holds even mid-crash.
pub(crate) fn apply_failure_stats(
    stats: &mut ServeStats,
    plan: &Plan,
    frontier: &Frontier<'_>,
    breakers: &ClientHealth,
) {
    let mut served = 0u64;
    let mut quarantined = 0u64;
    let mut shed = 0u64;
    for (unit, progress) in plan.batches.iter().zip(&frontier.units) {
        let (mut retried, mut bisected) = (false, false);
        for (member, riders) in progress.members.iter().zip(&unit.riders) {
            match member.state {
                RequestState::Recovered => served += riders.len() as u64,
                RequestState::Quarantined => {
                    quarantined += riders.len() as u64;
                    retried = true;
                    bisected |= member.reason == Some(FailReason::PoisonMember);
                }
                RequestState::Failed => shed += riders.len() as u64,
                _ => {}
            }
        }
        stats.retried_units += u64::from(retried);
        stats.bisected_units += u64::from(bisected);
    }
    stats.quarantined = quarantined;
    stats.shed = shed;
    stats.served = served;
    stats.pending = stats.admitted.saturating_sub(served + quarantined + shed);
    stats.breaker = breakers.labels();
}

/// Journal↔plan consistency, summarized for external harnesses.
///
/// Produced by [`frontier_summary`], which runs the same typed
/// alignment the executor itself resumes from (`map_journal`): a
/// journal that cannot be aligned with the plan is a
/// [`ServiceError::ForeignJournal`], and an aligned one yields these
/// counts for invariant checking (qd-chaos's journal-frontier
/// invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierSummary {
    /// Units the plan schedules.
    pub units: usize,
    /// Leading units whose every member holds a terminal state.
    pub done: usize,
    /// Members with a durable RECEIVED record.
    pub received: usize,
    /// Members served to RECOVERED.
    pub recovered: usize,
    /// Members isolated to QUARANTINED.
    pub quarantined: usize,
    /// Members shed to FAILED.
    pub failed: usize,
}

/// Aligns `journal` against the plan `cfg` produces and summarizes the
/// frontier — the read-only entry point chaos harnesses check journal
/// consistency through.
///
/// # Errors
///
/// [`ServiceError::Plan`] for an unrunnable config, or
/// [`ServiceError::ForeignJournal`] when the journal's records cannot
/// be aligned with the plan (wrong config, relearn records, some other
/// deployment's history).
pub fn frontier_summary(
    cfg: &crate::config::ServeConfig,
    journal: &RequestJournal,
) -> Result<FrontierSummary, ServiceError> {
    let plan = crate::plan::build_plan(cfg).map_err(ServiceError::Plan)?;
    let frontier = map_journal(&plan, journal)?;
    let count = |state| {
        let members = frontier.units.iter().flat_map(|unit| &unit.members);
        members.filter(|m| m.state == state).count()
    };
    Ok(FrontierSummary {
        units: plan.batches.len(),
        done: frontier.done,
        received: frontier.units.iter().map(|unit| unit.members.len()).sum(),
        recovered: count(RequestState::Recovered),
        quarantined: count(RequestState::Quarantined),
        failed: count(RequestState::Failed),
    })
}

/// Plans and executes the service run for `cfg` — the one unit loop —
/// with the retry ladder, batch bisection and per-tenant circuit
/// breakers of this module governed by `iso`. Under an inactive `iso`
/// every unit runs once under the base `policy` (which may be `None`),
/// and the first unit the guard rejects aborts the run. An
/// active one requires a guard policy — the ladder and bisection probes
/// need a divergence verdict to act on.
///
/// The journal must be dedicated to this service run: its units are
/// aligned with the plan's before anything executes, and a journal that
/// cannot be aligned (wrong config, relearn records, some other
/// deployment's history) is refused instead of being silently
/// miscounted.
///
/// Crash recovery contract: after a kill, reopen the deployment
/// ([`crate::Deployment::open`]) and call this again with the
/// same config — it restores the tail ([`QuickDrop::restore_tail`]),
/// re-derives the breaker fold from the journal, finishes the unit the
/// kill left in flight under the policy it started under (the base
/// policy, or the re-derived ladder rung), and continues to a
/// bit-for-bit identical terminal state: model bits, journal records,
/// dead-letter set and [`ServeStats`]. Finishing in-flight units is
/// this function's job for every config; callers do nothing first.
///
/// # Errors
///
/// [`ServiceError::Plan`] for an unrunnable config, an invalid `iso` or
/// an active one without a guard policy,
/// [`ServiceError::ForeignJournal`] when the journal cannot be aligned
/// with the plan, or [`ServiceError::Serve`] when a unit fails (with
/// isolation off a guard divergence aborts the run; the journal keeps
/// the diverged unit at its last durable state, so a retry surfaces the
/// same error deterministically).
#[allow(clippy::too_many_arguments)]
pub fn run_service_isolated(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    cfg: &ServeConfig,
    policy: Option<&GuardPolicy>,
    iso: &IsolationConfig,
    rng: &mut Rng,
    kill: Option<ChaosKill>,
) -> Result<ServiceRun, ServiceError> {
    iso.validate().map_err(ServiceError::Plan)?;
    if iso.active() && policy.is_none() {
        return Err(ServiceError::Plan(
            "failure isolation requires a guard policy: the retry ladder and bisection \
             probes need a divergence verdict to act on"
                .to_string(),
        ));
    }
    let plan = build_plan(cfg).map_err(ServiceError::Plan)?;
    let mut breakers = tenant_breakers(plan.rejected_by_tenant.len(), iso);
    let frontier = map_journal(&plan, journal)?;
    replay(&mut breakers, iso, &plan, &frontier);
    let (done, started) = (frontier.done, frontier.units.len());
    // Restore marks/model/RNG from the journal tail without finishing
    // the in-flight unit (the ladder rung must be re-derived first).
    // Idempotent when the live state already matches the tail.
    qd.restore_tail(fed, journal, rng);
    let mut executed_units = 0u64;
    let mut preempted = false;
    for (index, unit) in plan.batches.iter().enumerate().skip(done) {
        preempted = !serve_unit(
            qd,
            fed,
            journal,
            unit,
            index,
            policy,
            iso,
            &breakers,
            rng,
            kill,
            index < started,
        )?;
        if preempted {
            break;
        }
        if let Some(served) = journal_units(journal)?.get(index) {
            feed(&mut breakers, iso, unit, served);
        }
        executed_units += 1;
    }
    let final_frontier = map_journal(&plan, journal)?;
    let mut stats = ServeStats::from_plan(&plan);
    apply_failure_stats(&mut stats, &plan, &final_frontier, &breakers);
    if preempted {
        stats.mark_partial();
    }
    Ok(ServiceRun {
        stats,
        executed_units,
        resumed_units: done as u64,
        preempted,
        dead_letter: final_frontier.dead_letter(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RequestTag;
    use qd_core::{FaultFs, JournalRecord, Vfs};
    use qd_tensor::rng::Rng;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tag(tenant: usize) -> RequestTag {
        RequestTag {
            tenant,
            idx: 0,
            at_us: 0,
        }
    }

    /// A two-unit plan: a coalesced pair then a singleton, tenants 0/1.
    fn tiny_plan() -> Plan {
        let unit = |members: Vec<UnlearnRequest>, tenants: Vec<usize>| PlannedBatch {
            riders: tenants.iter().map(|&t| vec![tag(t)]).collect(),
            members,
            start_us: 0,
            finish_us: 1,
        };
        Plan {
            batches: vec![
                unit(
                    vec![UnlearnRequest::Client(0), UnlearnRequest::Client(1)],
                    vec![0, 1],
                ),
                unit(vec![UnlearnRequest::Client(2)], vec![0]),
            ],
            offered: 3,
            admitted: 3,
            rejected_by_tenant: vec![0, 0],
            latencies_us: vec![1, 1, 1],
            max_queue_depth: 1,
            depth_sum: 1,
            depth_samples: 1,
            makespan_us: 1,
        }
    }

    fn mem_journal() -> RequestJournal {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new());
        RequestJournal::open_on(fs, PathBuf::from("t.journal")).unwrap()
    }

    fn record(seq: u64, request: UnlearnRequest, state: RequestState) -> JournalRecord {
        JournalRecord {
            seq,
            request,
            state,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: Some(qd_core::BatchId(0)),
            reason: None,
        }
    }

    #[test]
    fn map_journal_walks_a_matching_journal() {
        let plan = tiny_plan();
        let mut journal = mem_journal();
        journal
            .append_all(vec![
                record(0, UnlearnRequest::Client(0), RequestState::Received),
                record(1, UnlearnRequest::Client(1), RequestState::Received),
            ])
            .unwrap();
        journal
            .append(record(
                0,
                UnlearnRequest::Client(0),
                RequestState::Quarantined,
            ))
            .unwrap();
        let f = map_journal(&plan, &journal).unwrap();
        assert_eq!(f.done, 0, "unit 0 still has a live member");
        assert_eq!(f.units.len(), 1, "unit 1 has not started");
        assert_eq!(f.units[0].members[0].state, RequestState::Quarantined);
        assert_eq!(f.units[0].pending().count(), 1);
        assert_eq!(f.dead_letter().requests(), vec![UnlearnRequest::Client(0)]);

        journal
            .append(record(
                1,
                UnlearnRequest::Client(1),
                RequestState::Recovered,
            ))
            .unwrap();
        let f = map_journal(&plan, &journal).unwrap();
        assert_eq!(f.done, 1, "unit 0 is terminal for every member");
    }

    #[test]
    fn map_journal_refuses_foreign_journals() {
        let plan = tiny_plan();

        // A request the plan never scheduled.
        let mut journal = mem_journal();
        journal
            .append(record(0, UnlearnRequest::Class(7), RequestState::Received))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // A relearn stream.
        let mut journal = mem_journal();
        journal
            .append(record(
                0,
                UnlearnRequest::Client(0),
                RequestState::Relearned,
            ))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // A terminal record for a sequence no RECEIVED introduced.
        let mut journal = mem_journal();
        journal
            .append(record(
                9,
                UnlearnRequest::Client(0),
                RequestState::Recovered,
            ))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // A journal ending inside unit 0's atomic RECEIVED set.
        let mut journal = mem_journal();
        journal
            .append(record(0, UnlearnRequest::Client(0), RequestState::Received))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // More RECEIVED records than the plan has units.
        let mut journal = mem_journal();
        journal
            .append_all(vec![
                record(0, UnlearnRequest::Client(0), RequestState::Received),
                record(1, UnlearnRequest::Client(1), RequestState::Received),
            ])
            .unwrap();
        journal
            .append(record(2, UnlearnRequest::Client(2), RequestState::Received))
            .unwrap();
        journal
            .append(record(3, UnlearnRequest::Client(0), RequestState::Received))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));
    }

    /// A quarantine strikes the owning tenant's breaker and a served
    /// member clears its rider's; with the breaker disabled
    /// (`breaker_trip == 0`) the same journal never opens one.
    #[test]
    fn breakers_fold_the_journal_and_a_disabled_one_never_opens() {
        let plan = tiny_plan();
        let mut journal = mem_journal();
        journal
            .append_all(vec![
                record(0, UnlearnRequest::Client(0), RequestState::Received),
                record(1, UnlearnRequest::Client(1), RequestState::Received),
            ])
            .unwrap();
        journal
            .append(record(
                0,
                UnlearnRequest::Client(0),
                RequestState::Quarantined,
            ))
            .unwrap();
        journal
            .append(record(
                1,
                UnlearnRequest::Client(1),
                RequestState::Recovered,
            ))
            .unwrap();
        let frontier = map_journal(&plan, &journal).unwrap();
        let tripping = IsolationConfig {
            breaker_trip: 1,
            breaker_cooldown: 2,
            ..IsolationConfig::default()
        };
        for (iso, labels) in [
            (tripping, ["open(2)", "closed"]),
            (IsolationConfig::default(), ["closed", "closed"]),
        ] {
            let mut breakers = tenant_breakers(2, &iso);
            replay(&mut breakers, &iso, &plan, &frontier);
            assert_eq!(breakers.labels(), labels, "{iso:?}");
            assert_eq!(breakers.is_cooling(0), iso.breaker_trip > 0);
        }
    }
}
