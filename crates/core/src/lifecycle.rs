//! The request lifecycle: how an unlearning unit executes against the
//! journal, and what is durable at each boundary.
//!
//! A **unit** is one or more compatible requests served through one
//! shared recovery pass — QuickDrop's "sequential requests" observation
//! made operational: n forget requests cost n ascents but a single
//! recovery. A single request is a unit of one. Every unit, fresh or
//! crash-resumed, journaled or merely probed, runs through the one
//! engine in this module (`finish_unit`), under write-ahead discipline:
//!
//! | state | terminal | marks | snapshot | durable as | [`BatchPreempt`] |
//! |---|---|---|---|---|---|
//! | RECEIVED | no | none | stored | one atomic frame for the whole unit | `Received` |
//! | UNLEARNED | no | mark | derived; rebuilt by replay | one frame per member, in member order | `Unlearned(k)` |
//! | RECOVERED | yes | mark | stored | one atomic frame for all served members | `Recovered` |
//! | RELEARNED | yes | unmark | stored | one frame (`relearn_journaled`) | — |
//! | FAILED | yes | none | stored | one atomic frame per shed set (`settle_unserved`) | `Failed` |
//! | QUARANTINED | yes | none | stored | one atomic frame per isolated set (`settle_unserved`) | `Quarantined` |
//!
//! The terminal, marks and snapshot columns are
//! [`RequestState::is_terminal`], `RequestState::mark_effect` and
//! [`RequestState::is_derived`]; nothing else in the workspace re-derives
//! them. A derived record stores a digest of its model, not the model:
//! the unit's RECEIVED record plus the members' requests determine it, so
//! a resumed unit rebuilds it by re-running the accepted ascents, and the
//! digest, RNG state and guard stats of each record check the replay
//! ([`ReplayMismatch`] when one does not hold). Ascents read no
//! forgotten-state marks, so replay order is all that matters. Two rules
//! fix how a unit is written and killed:
//!
//! 1. **Identity.** A unit's records share a [`BatchId`], or — for a
//!    request served alone with `batch: None` — a `seq`. An unbatched
//!    unit writes byte-for-byte the frames a one-member batch would,
//!    minus the id.
//! 2. **`Unlearned(k)`.** In a batch it names the k-th member's
//!    UNLEARNED record (1-based, journal order). An unbatched unit *is*
//!    its one member, so any `k` names its UNLEARNED record, and the
//!    boundary reported back is `Unlearned(1)`.
//!
//! Every record is built by `certify`, and every reader that needs to
//! know *which unit, which members, how far* reads [`units`] — the one
//! fold of the journal into [`Unit`]s; nothing else in the workspace
//! scans the records for unit state.
//!
//! Every way a request reaches the engine is in this module. Journaled,
//! there is one path: make the unit's RECEIVED set durable if it is not
//! yet ([`QuickDrop::receive_unit`]), then restore the journal's tail
//! and finish its last unit from what [`units`] says is left of it.
//! [`QuickDrop::serve_journaled`] and
//! [`QuickDrop::serve_batch_journaled`] do both steps,
//! [`QuickDrop::resume_requests_until`] — a crash-resumed unit, and
//! every unit of the service executor — only the second, so a fresh
//! unit and a resumed one run the same instructions from the same
//! journal-derived state. Unjournaled: [`qd_unlearn::UnlearningMethod::unlearn`]
//! and [`QuickDrop::unlearn_guarded`], and [`QuickDrop::probe_unit`],
//! which is the same call rolled back. A journaled deployment is opened
//! and closed by `qd_serve::Deployment`.

use crate::journal::{
    snapshot_digest, BatchId, FailReason, JournalError, JournalRecord, MarkEffect, RequestJournal,
    RequestState, Snapshot,
};
use crate::system::validated;
use crate::QuickDrop;
use qd_fed::{Federation, PhaseStats};
use qd_nn::relative_drift;
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{
    check_attempt, probe_sample, GuardPolicy, GuardStats, GuardViolation, MethodOutcome,
    UnlearnError, UnlearnRequest,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a journaled call ended: [`QuickDrop::serve_journaled`] with the
/// request's [`MethodOutcome`], [`QuickDrop::serve_batch_journaled`]
/// with the unit's [`BatchOutcome`], [`QuickDrop::resume_requests_until`]
/// with the outcome of the unit it finished — `None` when nothing was in
/// flight.
#[derive(Debug)]
pub enum JournaledRun<T> {
    /// The unit was fully served (boxed to keep the enum small).
    Complete(Box<T>),
    /// Serving stopped right after `boundary` became durable — the
    /// deterministic stand-in for a crash there. Continue with
    /// [`QuickDrop::resume_requests`].
    Preempted {
        /// The last boundary made durable before stopping.
        boundary: BatchPreempt,
    },
}

impl<T> JournaledRun<T> {
    /// The completed outcome, or `None` if the run was preempted.
    pub fn into_complete(self) -> Option<T> {
        match self {
            JournaledRun::Complete(outcome) => Some(*outcome),
            JournaledRun::Preempted { .. } => None,
        }
    }

    fn map<U>(self, f: impl FnOnce(T) -> U) -> JournaledRun<U> {
        match self {
            JournaledRun::Complete(outcome) => JournaledRun::Complete(Box::new(f(*outcome))),
            JournaledRun::Preempted { boundary } => JournaledRun::Preempted { boundary },
        }
    }
}

/// Why a journaled serve call failed.
#[derive(Debug)]
pub enum ServeError {
    /// Journal or checkpoint I/O failed.
    Io(std::io::Error),
    /// The divergence guard exhausted its backoff; the federation holds
    /// the pre-unit model. The journal keeps the unit at its last
    /// durable state, so a later resume deterministically surfaces this
    /// same error — the operator decides whether to drop the request or
    /// relax the policy.
    Diverged(UnlearnError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "journal I/O: {e}"),
            ServeError::Diverged(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for ServeError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        ServeError::Io(e.into())
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Io(e.into())
    }
}

/// A durable boundary inside a unit at which serving can be preempted,
/// used by the chaos tests to stand in for a crash at exactly that
/// point (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPreempt {
    // (serde impls are hand-written below: the vendored derive only
    // handles fieldless enums, and `Unlearned` carries its count.)
    /// Right after the atomic RECEIVED set is durable, before any
    /// model change.
    Received,
    /// Right after this many members (a 1-based count, in journal
    /// order) have durable UNLEARNED records; any count, for a request
    /// served alone.
    Unlearned(usize),
    /// Right after the atomic RECOVERED set is durable, before
    /// returning.
    Recovered,
    /// Right after a unit's first atomic QUARANTINED set is durable —
    /// the dead-letter boundary the failure-isolation executor adds.
    Quarantined,
    /// Right after a unit's atomic FAILED (breaker-shed) set is
    /// durable.
    Failed,
}

impl Serialize for BatchPreempt {
    fn to_value(&self) -> serde::Value {
        match *self {
            BatchPreempt::Received => serde::Value::Str("received".to_string()),
            BatchPreempt::Unlearned(n) => {
                serde::Value::Map(vec![("unlearned".to_string(), Serialize::to_value(&n))])
            }
            BatchPreempt::Recovered => serde::Value::Str("recovered".to_string()),
            BatchPreempt::Quarantined => serde::Value::Str("quarantined".to_string()),
            BatchPreempt::Failed => serde::Value::Str("failed".to_string()),
        }
    }
}

impl Deserialize for BatchPreempt {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => match s.as_str() {
                "received" => Ok(BatchPreempt::Received),
                "recovered" => Ok(BatchPreempt::Recovered),
                "quarantined" => Ok(BatchPreempt::Quarantined),
                "failed" => Ok(BatchPreempt::Failed),
                other => Err(serde::DeError::new(format!(
                    "unknown BatchPreempt variant {other:?}"
                ))),
            },
            other => {
                let n = other.field("BatchPreempt", "unlearned")?;
                Ok(BatchPreempt::Unlearned(Deserialize::from_value(n)?))
            }
        }
    }
}

/// What a completed unit cost and produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The unit's journal identifier (`None` for a request served alone,
    /// which its `seq` identifies).
    pub batch: Option<BatchId>,
    /// Per-member ascent accounting, in journal order. For a unit
    /// finished by resume, the members whose ascent a previous process
    /// had accepted report the replay that rebuilt their model.
    pub unlearn: Vec<PhaseStats>,
    /// The one shared recovery pass.
    pub recovery: PhaseStats,
    /// Global parameters after all ascents, before recovery.
    pub post_unlearn_params: Vec<Tensor>,
    /// Guard bookkeeping accumulated across the whole unit (`None`
    /// for unguarded serving).
    pub guard: Option<GuardStats>,
}

impl BatchOutcome {
    /// The unit as one [`MethodOutcome`]: the ascents this process ran,
    /// merged. For a request served alone that is its one ascent.
    pub(crate) fn merged(self) -> MethodOutcome {
        let mut unlearn = PhaseStats::default();
        for member in &self.unlearn {
            unlearn.merge(member);
        }
        MethodOutcome {
            unlearn,
            recovery: self.recovery,
            post_unlearn_params: self.post_unlearn_params,
            guard: self.guard,
        }
    }
}

/// One member of a [`Unit`]: a request, and the latest state the
/// journal certifies for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitMember {
    /// The member's sequence number.
    pub seq: u64,
    /// The request.
    pub request: UnlearnRequest,
    /// The state of the member's latest record.
    pub state: RequestState,
    /// That record's reason (`Some` on FAILED and QUARANTINED).
    pub reason: Option<FailReason>,
    /// That record's index in the folded records.
    pub record: usize,
}

impl UnitMember {
    /// The member was served to RECOVERED (and perhaps relearned since).
    pub fn served(&self) -> bool {
        matches!(
            self.state,
            RequestState::Recovered | RequestState::Relearned
        )
    }
}

/// One unit as the journal records it (rule 1 of the module docs): a
/// RECEIVED set sharing a [`BatchId`], or a lone `batch: None` request.
#[derive(Debug, Clone)]
pub struct Unit<'a> {
    /// The unit's batch id (`None` for a request served alone).
    pub batch: Option<BatchId>,
    /// The unit's first RECEIVED record. Every record of the set pins
    /// the same pre-unit model and RNG stream — the reference every
    /// guard check, probe and resume measures against.
    pub received: &'a JournalRecord<Snapshot>,
    /// The members, in journal order.
    pub members: Vec<UnitMember>,
}

impl Unit<'_> {
    /// The members no terminal record settles yet — what is left to
    /// serve, in journal order.
    pub fn pending(&self) -> impl Iterator<Item = &UnitMember> {
        self.members.iter().filter(|m| !m.state.is_terminal())
    }

    /// The pending members whose ascent was accepted before the journal
    /// ended. Members are unlearned in order, so they lead
    /// [`Unit::pending`].
    pub fn unlearned(&self) -> usize {
        self.pending()
            .filter(|m| m.state == RequestState::Unlearned)
            .count()
    }
}

/// A journal no sequence of units could have written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// A `state` record for a `seq` no RECEIVED record introduced.
    UnknownSeq {
        /// The unknown sequence number.
        seq: u64,
        /// The state the record certifies.
        state: RequestState,
    },
    /// A RECEIVED record joining `batch` after some other record
    /// followed that batch's RECEIVED set. The set is one atomic frame;
    /// nothing can come between its records.
    Interleaved {
        /// The late record's sequence number.
        seq: u64,
        /// The batch it claims.
        batch: BatchId,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::UnknownSeq { seq, state } => {
                write!(
                    f,
                    "{state} record references seq {seq}, which no RECEIVED record introduced"
                )
            }
            ShapeError::Interleaved { seq, batch } => {
                write!(f, "RECEIVED record seq {seq} joins {batch} after another record interleaved its RECEIVED set")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

impl From<ShapeError> for ServeError {
    fn from(e: ShapeError) -> Self {
        ServeError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// A derived record its replay did not reproduce: re-run from the unit's
/// RECEIVED record under the resuming policy, a member's accepted ascent
/// ended somewhere other than the journal certifies. Either the unit is
/// resumed under another guard policy than it ran under, or the record
/// is damaged. The resume writes nothing and leaves model and RNG at the
/// unit's RECEIVED boundary; it never continues from a different model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// The member whose derived record the replay contradicts.
    pub seq: u64,
    /// What the replay did not reproduce: `"RNG state"`, `"guard
    /// stats"`, `"snapshot digest"`, or `"accepted ascent"` when the
    /// guard now rejects it.
    pub what: &'static str,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replaying the derived record of seq {} did not reproduce its {}: the unit is \
             resumed under another guard policy than it ran under, or the record is damaged",
            self.seq, self.what
        )
    }
}

impl std::error::Error for ReplayMismatch {}

impl From<ReplayMismatch> for ServeError {
    fn from(e: ReplayMismatch) -> Self {
        ServeError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Checks a replayed ascent's UNLEARNED frame against the derived record
/// the journal holds for that member, with its stored `digest`: same RNG
/// state, same guard stats, and a model with that digest.
fn check_replay(
    durable: &JournalRecord<Snapshot>,
    digest: Option<u32>,
    frame: &[JournalRecord],
) -> Result<(), ReplayMismatch> {
    let what = match frame {
        [replayed] if replayed.rng != durable.rng => "RNG state",
        [replayed] if replayed.guard != durable.guard => "guard stats",
        [replayed] if Some(snapshot_digest(&replayed.global)) != digest => "snapshot digest",
        [_] => return Ok(()),
        _ => "record",
    };
    let seq = durable.seq;
    Err(ReplayMismatch { seq, what })
}

/// Folds journal records into the units they describe, in journal
/// order: which requests form each unit, and how far each got. One pass,
/// nothing cloned. The journal itself is a log that accepts any record;
/// this is where a record sequence must make sense as units.
///
/// # Errors
///
/// [`ShapeError`] for a sequence no units could have written.
pub fn units(records: &[JournalRecord<Snapshot>]) -> Result<Vec<Unit<'_>>, ShapeError> {
    let mut units: Vec<Unit<'_>> = Vec::new();
    // seq → (unit, member) position. BTreeMap: iteration order in this
    // crate is lint-enforced deterministic.
    let mut owner: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    // Whether the previous record was a RECEIVED one, i.e. the last
    // unit's set may still be growing.
    let mut receiving = false;
    for (index, record) in records.iter().enumerate() {
        if record.state != RequestState::Received {
            receiving = false;
            let member = owner
                .get(&record.seq)
                .and_then(|&(unit, member)| units.get_mut(unit)?.members.get_mut(member))
                .ok_or(ShapeError::UnknownSeq {
                    seq: record.seq,
                    state: record.state,
                })?;
            (member.state, member.reason) = (record.state, record.reason);
            member.record = index;
            continue;
        }
        let member = UnitMember {
            seq: record.seq,
            request: record.request,
            state: record.state,
            reason: None,
            record: index,
        };
        let next = units.len();
        match (units.last_mut(), record.batch) {
            (Some(unit), Some(batch)) if unit.batch == Some(batch) => {
                if !receiving {
                    return Err(ShapeError::Interleaved {
                        seq: record.seq,
                        batch,
                    });
                }
                owner.insert(record.seq, (next - 1, unit.members.len()));
                unit.members.push(member);
            }
            _ => {
                owner.insert(record.seq, (next, 0));
                units.push(Unit {
                    batch: record.batch,
                    received: record,
                    members: vec![member],
                });
            }
        }
        receiving = true;
    }
    Ok(units)
}

/// Why a journaled unit stops at a boundary instead of running on. A
/// unit run without a journal has nothing that could stop it — its
/// `commit` is infallible, and the engine's signature carries that to
/// [`QuickDrop::probe_unit`] and [`QuickDrop::unlearn_guarded`].
enum Stop {
    Io(std::io::Error),
    Preempted(BatchPreempt),
    Replay(ReplayMismatch),
}

/// A call that has just made a RECEIVED set durable finds that unit
/// pending at the tail; anything else is a journal changed under it.
fn no_tail_unit() -> ServeError {
    let msg = "the RECEIVED set just appended is not the journal's pending tail unit";
    ServeError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// The record certifying the live model and RNG stream as `member`'s
/// `state` — every record the lifecycle writes.
fn certify(
    (seq, request): (u64, UnlearnRequest),
    state: RequestState,
    guard: Option<GuardStats>,
    batch: Option<BatchId>,
    fed: &Federation,
    rng: &Rng,
) -> JournalRecord {
    JournalRecord {
        seq,
        request,
        state,
        rng: rng.state(),
        global: fed.global().to_vec(),
        guard,
        batch,
        reason: None,
    }
}

impl QuickDrop {
    /// Serves one request with every stage boundary made durable in
    /// `journal` before the next stage runs (write-ahead discipline:
    /// RECEIVED before any model change, UNLEARNED before recovery,
    /// RECOVERED before returning) — a unit of one, written with
    /// `batch: None`.
    ///
    /// With a `policy`, the ascent stage runs under the divergence guard
    /// — drift/non-finite gate, rollback, halved-LR retries — and the
    /// UNLEARNED record is only written for a guard-accepted ascent, so
    /// the journal never certifies a diverged model. `preempt_at` stops
    /// serving right after that boundary's record is durable, *without*
    /// any further writes — a deterministic crash stand-in for the
    /// resume tests.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure (the request may be
    /// partially served; the journal tells how far), or
    /// [`ServeError::Diverged`] when the guard exhausted its backoff or
    /// the recovered model failed the probe (model, RNG and marks rolled
    /// back; the journal keeps what was already durable).
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn serve_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        request: UnlearnRequest,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
        preempt_at: Option<BatchPreempt>,
    ) -> Result<JournaledRun<MethodOutcome>, ServeError> {
        let fresh = Some((&[request][..], None));
        let run = self.run_journaled(fed, journal, fresh, policy, rng, preempt_at)?;
        Ok(run.ok_or_else(no_tail_unit)?.map(BatchOutcome::merged))
    }

    /// Serves a coalesced batch of compatible requests through the
    /// journal as one unit: an atomic RECEIVED set for every member,
    /// per-member guarded ascents (each with its own UNLEARNED record,
    /// so a crash between members loses no accepted ascent), then **one
    /// shared recovery pass** and an atomic RECOVERED set.
    ///
    /// All records carry the same fresh [`BatchId`], which is what lets
    /// [`QuickDrop::resume_requests`] replay a partially-applied batch
    /// to a bit-for-bit identical end state. `requests` must be
    /// non-empty and deduplicated (the serve layer's `ForgetSet`
    /// canonicalization guarantees both). A guard `policy` gates each
    /// member's ascent against the state just before that member (the
    /// same drift a sequential run would measure) and the shared
    /// recovery against the pre-batch reference. `preempt_at` stops
    /// serving right after that boundary's records are durable.
    ///
    /// On divergence — any member exhausting its ascent retries, or the
    /// recovered model failing the probe — the **whole batch** rolls
    /// back: model and RNG return to the pre-batch boundary and every
    /// member's forgotten-state mark is cleared. The journal keeps
    /// whatever records were already durable, so a later resume
    /// deterministically reproduces this same error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure or an empty batch, or
    /// [`ServeError::Diverged`] as above.
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn serve_batch_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        requests: &[UnlearnRequest],
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
        preempt_at: Option<BatchPreempt>,
    ) -> Result<JournaledRun<BatchOutcome>, ServeError> {
        let fresh = Some((requests, Some(journal.next_batch_id())));
        let run = self.run_journaled(fed, journal, fresh, policy, rng, preempt_at)?;
        run.ok_or_else(no_tail_unit)
    }

    /// The one way a unit executes against the journal (module docs):
    /// make `fresh`'s RECEIVED set durable, then restore the journal's
    /// tail — marks, model, RNG stream — and finish its last unit from
    /// what [`units`] says is left of it. A unit received a moment ago
    /// and one a killed process left behind are told apart by nothing
    /// past the first `if`: members, progress and the pre-unit reference
    /// all come from the journal, and both run every pending member from
    /// the RECEIVED boundary. The ascents a killed process had accepted
    /// are durable only as derived records, so their frames are replays:
    /// `commit` checks each against its record ([`ReplayMismatch`] if it
    /// differs) instead of appending it, and skips its preempt point.
    /// `None` when the tail unit has nobody left to serve.
    fn run_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        fresh: Option<(&[UnlearnRequest], Option<BatchId>)>,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
        preempt_at: Option<BatchPreempt>,
    ) -> Result<Option<JournaledRun<BatchOutcome>>, ServeError> {
        let policy = validated(policy);
        if let Some((requests, batch)) = fresh {
            Self::receive_unit(fed, journal, requests, batch, rng)?;
            if preempt_at == Some(BatchPreempt::Received) {
                let boundary = BatchPreempt::Received;
                return Ok(Some(JournaledRun::Preempted { boundary }));
            }
        }
        self.restore_tail(fed, journal, rng);
        let Some(tail) = units(journal.records())?.pop() else {
            return Ok(None);
        };
        let members: Vec<(u64, UnlearnRequest)> =
            tail.pending().map(|m| (m.seq, m.request)).collect();
        if members.is_empty() {
            return Ok(None);
        }
        // Members are unlearned in order, so the accepted ascents lead.
        let records = journal.records();
        let mut replay = (tail.pending().take(tail.unlearned()))
            .map(|m| (records[m.record].clone(), journal.digest(m.record)))
            .collect::<Vec<_>>()
            .into_iter();
        let batch = tail.batch;
        let (reference, unit_rng) = (tail.received.global.to_vec(), tail.received.rng.clone());
        let preempt_at = match preempt_at {
            // Rule 2 of the module docs: an unbatched unit is its one
            // member, so any count names its UNLEARNED record.
            Some(BatchPreempt::Unlearned(_)) if batch.is_none() => Some(BatchPreempt::Unlearned(1)),
            other => other,
        };
        let commit = |boundary, frame: Vec<JournalRecord>| {
            if let Some((durable, digest)) = replay.next() {
                return check_replay(&durable, digest, &frame).map_err(Stop::Replay);
            }
            journal.append_all(frame).map_err(Stop::Io)?;
            if preempt_at == Some(boundary) {
                return Err(Stop::Preempted(boundary));
            }
            Ok(())
        };
        let verdict = self.finish_unit(
            fed, commit, batch, &members, reference, unit_rng, policy, rng,
        );
        // The guard rejecting an ascent the journal holds as accepted is
        // a replay that took another path, not a divergence.
        let rejected = replay.next().map(|(durable, _)| ReplayMismatch {
            seq: durable.seq,
            what: "accepted ascent",
        });
        match (verdict, rejected) {
            (Ok(Ok(outcome)), _) => Ok(Some(JournaledRun::Complete(Box::new(outcome)))),
            (Err(Stop::Replay(mismatch)), _) | (Ok(Err(_)), Some(mismatch)) => {
                self.restore_tail(fed, journal, rng);
                Err(mismatch.into())
            }
            (Ok(Err(diverged)), None) => Err(ServeError::Diverged(diverged)),
            (Err(Stop::Preempted(boundary)), _) => Ok(Some(JournaledRun::Preempted { boundary })),
            (Err(Stop::Io(e)), _) => Err(ServeError::Io(e)),
        }
    }

    /// Makes a fresh unit's RECEIVED boundary durable: one atomic frame
    /// holding a record per member, numbered from
    /// [`RequestJournal::next_seq`], each carrying the pre-unit model
    /// and RNG state (the reference every later guard check and every
    /// resume measures against).
    ///
    /// # Errors
    ///
    /// Journal I/O failure, or an empty `requests`.
    pub fn receive_unit(
        fed: &Federation,
        journal: &mut RequestJournal,
        requests: &[UnlearnRequest],
        batch: Option<BatchId>,
        rng: &Rng,
    ) -> std::io::Result<()> {
        if requests.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "cannot serve an empty batch",
            ));
        }
        let frame = (journal.next_seq()..)
            .zip(requests.iter().copied())
            .map(|member| certify(member, RequestState::Received, None, batch, fed, rng))
            .collect();
        journal.append_all(frame)
    }

    /// Settles members of the journal's tail unit that never reach the
    /// model: one atomic FAILED frame for a shed set
    /// ([`FailReason::Shed`]), or QUARANTINED frame for a set isolated
    /// for any other `reason`, certifying the live model and RNG stream
    /// — which the pre-unit state still is, since probes roll back. The
    /// qd-serve executor decides who and why; what the frame holds is
    /// decided here, like every other record's.
    ///
    /// # Errors
    ///
    /// Journal I/O failure.
    pub fn settle_unserved(
        fed: &Federation,
        journal: &mut RequestJournal,
        batch: Option<BatchId>,
        members: &[(u64, UnlearnRequest)],
        reason: FailReason,
        rng: &Rng,
    ) -> std::io::Result<()> {
        let state = match reason {
            FailReason::Shed => RequestState::Failed,
            _ => RequestState::Quarantined,
        };
        let frame = members
            .iter()
            .map(|&member| {
                let mut record = certify(member, state, None, batch, fed, rng);
                record.reason = Some(reason);
                record
            })
            .collect();
        journal.append_all(frame)
    }

    /// The unit engine. Runs every one of `members` from the pre-unit
    /// state: guarded ascent + UNLEARNED record per member, one shared
    /// recovery, then the atomic RECOVERED set. `reference`/`unit_rng`
    /// are that state, as the RECEIVED set pinned it, and the live model
    /// and `rng` start there.
    ///
    /// Each boundary's atomic frame goes to `commit`, the only thing
    /// that can stop the engine short of a verdict: the outer `Err` is
    /// whatever `commit` stopped with, the inner one the guard's
    /// verdict. Journaled units arrive here through `run_journaled`
    /// with everything journal-derived — including members whose
    /// UNLEARNED record a killed process made durable: their ascents run
    /// again as replays, and `commit` checks those frames against the
    /// records. [`QuickDrop::probe_unit`], [`QuickDrop::unlearn_guarded`]
    /// and the plain `unlearn` pass a `commit` that writes nothing and
    /// cannot fail — the same operations.
    ///
    /// One member diverging fails the whole unit: the marks of the
    /// members already unlearned are cleared and model and RNG return
    /// to the pre-unit boundary. Everything restored is
    /// journal-derivable, so resume reproduces the error and the end
    /// state exactly.
    #[allow(clippy::too_many_arguments)]
    fn finish_unit<S>(
        &mut self,
        fed: &mut Federation,
        mut commit: impl FnMut(BatchPreempt, Vec<JournalRecord>) -> Result<(), S>,
        batch: Option<BatchId>,
        members: &[(u64, UnlearnRequest)],
        reference: Vec<Tensor>,
        unit_rng: RngState,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<Result<BatchOutcome, UnlearnError>, S> {
        use RequestState::{Recovered, Unlearned};
        let mut stats = GuardStats::default();
        let mut unlearn = Vec::with_capacity(members.len());
        for (index, &member) in members.iter().enumerate() {
            match self.guarded_ascent(fed, member.1, policy, &mut stats, rng) {
                Ok(phase) => unlearn.push(phase),
                Err(violation) => {
                    for &(_, unlearned) in &members[..index] {
                        self.unmark_unlearned(unlearned);
                    }
                    fed.set_global(reference);
                    *rng = Rng::from_state(&unit_rng);
                    return Ok(Err(UnlearnError::Diverged { violation, stats }));
                }
            }
            self.mark_unlearned(member.1);
            let record = certify(member, Unlearned, policy.map(|_| stats), batch, fed, rng);
            commit(BatchPreempt::Unlearned(index + 1), vec![record])?;
        }
        let (recovery, post_unlearn_params, guard) =
            match self.recover_and_check(fed, members, &reference, policy, stats, rng) {
                Ok(recovered) => recovered,
                Err(diverged) => return Ok(Err(diverged)),
            };
        let frame = members
            .iter()
            .map(|&member| certify(member, Recovered, guard, batch, fed, rng))
            .collect();
        commit(BatchPreempt::Recovered, frame)?;
        Ok(Ok(BatchOutcome {
            batch,
            unlearn,
            recovery,
            post_unlearn_params,
            guard,
        }))
    }

    /// One member's ascent under the guard: attempt, gate against the
    /// state just before this member (the reference a sequential run
    /// would use), and on violation roll model and RNG back and retry at
    /// half the ascent LR. Unguarded, the single attempt is accepted.
    /// On `Err` the model and RNG are back at the pre-member state.
    fn guarded_ascent(
        &self,
        fed: &mut Federation,
        request: UnlearnRequest,
        policy: Option<&GuardPolicy>,
        stats: &mut GuardStats,
        rng: &mut Rng,
    ) -> Result<PhaseStats, GuardViolation> {
        let reference = fed.global().to_vec();
        let rng_mark = rng.state();
        let mut last_violation = GuardViolation::NonFinite;
        let mut lr_scale = policy.map_or(1.0f32, |p| p.ascent_lr_scale);
        let retries = policy.map_or(0, |p| p.ascent_retries);
        for attempt in 0..=retries {
            let (unlearn, post) = self.ascent_stage(fed, request, rng, lr_scale);
            stats.steps += 1;
            stats.final_drift = relative_drift(&post, &reference);
            let gate = policy.map_or(Ok(()), |policy| {
                check_attempt(policy, fed.model().as_ref(), &reference, &post, &post, None)
                    .map(|_| ())
            });
            match gate {
                Ok(()) => return Ok(unlearn),
                Err(violation) => {
                    last_violation = violation;
                    fed.set_global(reference.clone());
                    *rng = Rng::from_state(&rng_mark);
                    stats.rollbacks += 1;
                    if attempt < retries {
                        lr_scale *= 0.5;
                        stats.lr_halvings += 1;
                    }
                }
            }
        }
        Err(last_violation)
    }

    /// The shared recovery pass plus the post-recovery guard check
    /// (non-finite + retain probe; the drift term re-measures the
    /// persisted ascent result against the pre-unit `reference`, so a
    /// resumed run reproduces the same `final_drift`). Returns the
    /// recovery accounting, the pre-recovery parameters and the final
    /// guard stats.
    ///
    /// A recovered model failing the probe is surfaced, not retried:
    /// the ascents were already accepted, and re-running recovery from
    /// the same state is deterministic. Model and every member's mark
    /// roll back to the pre-unit boundary instead.
    fn recover_and_check(
        &mut self,
        fed: &mut Federation,
        members: &[(u64, UnlearnRequest)],
        reference: &[Tensor],
        policy: Option<&GuardPolicy>,
        mut stats: GuardStats,
        rng: &mut Rng,
    ) -> Result<(PhaseStats, Vec<Tensor>, Option<GuardStats>), UnlearnError> {
        let post_unlearn_params = fed.global().to_vec();
        let rng_mark = rng.state();
        let recovery = self.recover(fed, &self.config().recover_phase, rng);
        let Some(policy) = policy else {
            return Ok((recovery, post_unlearn_params, None));
        };
        let probe = probe_sample(&self.synthetic_retain(), policy.probe_samples);
        match check_attempt(
            policy,
            fed.model().as_ref(),
            reference,
            &post_unlearn_params,
            fed.global(),
            probe.as_ref(),
        ) {
            Ok(drift) => {
                stats.final_drift = drift;
                Ok((recovery, post_unlearn_params, Some(stats)))
            }
            Err(violation) => {
                for &(_, request) in members {
                    self.unmark_unlearned(request);
                }
                fed.set_global(reference.to_vec());
                *rng = Rng::from_state(&rng_mark);
                stats.rollbacks += 1;
                Err(UnlearnError::Diverged { violation, stats })
            }
        }
    }

    /// Restores previously erased knowledge through the journal: relearns
    /// with [`qd_unlearn::UnlearningMethod::relearn`] semantics on the
    /// synthetic forget set, then appends the terminal RELEARNED record.
    ///
    /// A crash mid-relearn leaves the journal at RECOVERED; resume treats
    /// the relearn as never started (the caller re-submits it), matching
    /// the state machine's forward-only discipline.
    ///
    /// The live marks say whether `request` is forgotten, so the caller
    /// restores them from the journal tail first
    /// ([`QuickDrop::resume_requests`]); a target they do not hold —
    /// never forgotten, or relearned already — is refused with nothing
    /// written.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure, or with kind
    /// [`std::io::ErrorKind::InvalidData`] when the journal holds no
    /// served member for `request` (or fails the [`units`] fold), or the
    /// live marks do not hold it as forgotten.
    pub fn relearn_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        request: UnlearnRequest,
        phase: &qd_fed::Phase,
        rng: &mut Rng,
    ) -> Result<PhaseStats, ServeError> {
        let seq = units(journal.records())?
            .iter()
            .flat_map(|unit| &unit.members)
            .rfind(|m| m.request == request && m.served())
            .map(|m| m.seq)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journal holds no recovered request matching {request}"),
                )
            })?;
        if !self.is_forgotten(request) {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("the deployment has not forgotten {request}: nothing to relearn"),
            )));
        }
        use qd_unlearn::UnlearningMethod as _;
        let stats = self
            .relearn(fed, request, phase, rng)
            // qd-lint: allow(panic-safety) -- QuickDrop always supports
            // relearning; a None here is a type-level invariant breach
            .expect("QuickDrop supports relearning");
        let record = certify(
            (seq, request),
            RequestState::Relearned,
            None,
            None,
            fed,
            rng,
        );
        journal.append(record)?;
        Ok(stats)
    }

    /// Replays `journal` onto a system restored from its deployment
    /// [`Checkpoint`](crate::Checkpoint): re-applies every record's
    /// forgotten-state marks (idempotently), restores the global model
    /// and RNG stream from the journal's tail
    /// ([`QuickDrop::restore_tail`]) — the journal, not
    /// the checkpoint, is the source of truth for anything that happened
    /// after the checkpoint was written — and finishes the incomplete
    /// stages of the last unit, if any.
    ///
    /// Units are served sequentially, so at most the last journaled
    /// unit can be incomplete. Its accepted ascents are replayed from
    /// its RECEIVED record and checked against their derived records;
    /// the continuation then reproduces the uninterrupted run
    /// bit-for-bit (same model bits, same RNG stream, same persisted
    /// [`GuardStats`]) provided `policy` matches the original run's. A
    /// policy whose replay takes another path is a [`ReplayMismatch`],
    /// never a different model.
    ///
    /// Returns the outcome of the unit finished during resume, or
    /// `None` when the journal was empty or already fully served.
    ///
    /// This is the single-request CLI's resume: `quickdrop-cli unlearn`
    /// and `relearn --journal` call it right after opening the
    /// deployment (`qd_serve::Deployment::open`), before serving the new
    /// request.
    /// A service run never needs it — the qd-serve executor finishes an
    /// in-flight service unit itself, under the policy it started
    /// under. Calling it first with that same policy is harmless (the
    /// executor then finds the unit finished); only under an active
    /// isolation config would it pick the base policy over the unit's
    /// ladder rung.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure or, with kind
    /// [`std::io::ErrorKind::InvalidData`], a [`ReplayMismatch`] (nothing
    /// written); [`ServeError::Diverged`] when finishing the incomplete
    /// unit trips the guard (deterministically the same outcome the
    /// uninterrupted run would have had).
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn resume_requests(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<Option<MethodOutcome>, ServeError> {
        // Nothing preempts with `preempt_at: None`.
        let run = self.resume_requests_until(fed, journal, policy, rng, None)?;
        Ok(run.into_complete().flatten())
    }

    /// [`QuickDrop::resume_requests`] with a durable-boundary preempt:
    /// finishing stops right after `preempt_at` becomes durable, the
    /// deterministic crash stand-in the service executor and the chaos
    /// harnesses drive. `None` finishes everything.
    ///
    /// This is the one journaled path (module docs) entered past its
    /// first step, and the service executor's only way to run a unit:
    /// it appends the RECEIVED set ([`QuickDrop::receive_unit`]) and
    /// drives every attempt through this call.
    ///
    /// Membership and progress both come from [`units`]: the unit is
    /// the journal's last; members holding a terminal record — served,
    /// quarantined or shed — are settled and drop out; the UNLEARNED
    /// states of the rest say how many ascents were accepted before the
    /// crash. A unit with no member left has nothing to do.
    ///
    /// # Errors
    ///
    /// As [`QuickDrop::resume_requests`].
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn resume_requests_until(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
        preempt_at: Option<BatchPreempt>,
    ) -> Result<JournaledRun<Option<MethodOutcome>>, ServeError> {
        Ok(
            match self.run_journaled(fed, journal, None, policy, rng, preempt_at)? {
                Some(run) => run.map(|unit| Some(unit.merged())),
                None => JournaledRun::Complete(Box::new(None)),
            },
        )
    }

    /// Side-effect-free trial: would serving `requests` as one unit from
    /// the **current** live state (model, RNG stream, forgotten-state
    /// marks) succeed under `policy`?
    ///
    /// Runs the unit engine itself with journaling off — per-member
    /// guarded ascents with in-guard rollback/LR-halving, marks, one
    /// shared recovery, the post-recovery probe check — on a cloned RNG
    /// stream, then restores the model and marks, so the live state is
    /// untouched whatever the verdict. Because the trial and the real
    /// execution are the same code from identical state, a `true` here
    /// guarantees the subsequent real (journaled) execution of the same
    /// unit under the same policy accepts — which is what lets the
    /// failure-isolation executor pick a retry-ladder rung (and bisect
    /// poison members) *before* writing anything, keeping the ladder
    /// position journal-derivable.
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`] or `requests`
    /// is empty.
    pub fn probe_unit(
        &mut self,
        fed: &mut Federation,
        requests: &[UnlearnRequest],
        policy: &GuardPolicy,
        rng: &Rng,
    ) -> bool {
        // qd-lint: allow(panic-safety) -- an empty unit is a documented
        // caller bug (`# Panics`), not a runtime condition
        assert!(!requests.is_empty(), "cannot probe an empty unit");
        let reference = fed.global().to_vec();
        let marks = self.marks_snapshot();
        let mut rng = Rng::from_state(&rng.state());
        let verdict = self.run_unjournaled(fed, requests, Some(policy), &mut rng);
        fed.set_global(reference);
        self.marks_restore(marks);
        verdict.is_ok()
    }

    /// Serves one request under a divergence guard without a journal:
    /// the unit engine on a unit of one, nothing written — what
    /// [`QuickDrop::probe_unit`] runs, kept instead of rolled back. The
    /// ascent is gated (drift budget, non-finite scan) *before* any
    /// recovery rounds are spent on it and retried at half the ascent LR
    /// up to [`GuardPolicy::ascent_retries`] times; the recovered model
    /// is then checked (non-finite scan, retain probe drawn from the
    /// synthetic retain set *without* the request's data), and a
    /// violation there is surfaced, not retried — exactly the verdict
    /// [`QuickDrop::serve_journaled`] reaches. Guard bookkeeping rides
    /// on [`MethodOutcome::guard`].
    ///
    /// # Errors
    ///
    /// [`UnlearnError::Diverged`] when the guard rejected the request;
    /// the federation then holds the pre-request model and the request
    /// is not marked forgotten.
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn unlearn_guarded(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        policy: &GuardPolicy,
        rng: &mut Rng,
    ) -> Result<MethodOutcome, UnlearnError> {
        self.run_unjournaled(fed, &[request], Some(policy), rng)
            .map(BatchOutcome::merged)
    }

    /// The engine from the live state with nothing written: the body of
    /// [`QuickDrop::probe_unit`], [`QuickDrop::unlearn_guarded`] and —
    /// with no `policy`, where the one attempt per member is accepted
    /// as it stands — [`qd_unlearn::UnlearningMethod::unlearn`].
    pub(crate) fn run_unjournaled(
        &mut self,
        fed: &mut Federation,
        requests: &[UnlearnRequest],
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<BatchOutcome, UnlearnError> {
        let policy = validated(policy);
        let members: Vec<(u64, UnlearnRequest)> = (0u64..).zip(requests.iter().copied()).collect();
        let (reference, unit_rng) = (fed.global().to_vec(), rng.state());
        let unwritten = |_, _| Ok::<(), std::convert::Infallible>(());
        let Ok(verdict) = self.finish_unit(
            fed, unwritten, None, &members, reference, unit_rng, policy, rng,
        );
        verdict
    }

    /// Restores live state (forgotten-state marks, global model, RNG
    /// stream) from the journal tail **without finishing anything** —
    /// the service executor's resume entry point, and the first half of
    /// [`QuickDrop::resume_requests`]. An in-flight unit at the tail is
    /// left exactly where the journal says it is, because the executor
    /// must re-derive the winning retry-ladder rung (by re-running the
    /// probes) before any serving code touches the unit; resuming with
    /// the base policy here would finish it under the wrong rung.
    ///
    /// Model and RNG come from the last record, unless that record is
    /// derived ([`RequestState::is_derived`]): its model is not on disk,
    /// so they come from the RECEIVED record of the unit in flight, and
    /// finishing that unit replays the accepted ascents from there. A
    /// served history ends on a stored record and never replays.
    ///
    /// Idempotent: on a live (non-crashed) deployment the tail already
    /// matches the live state and the mark replay re-applies set
    /// semantics, so calling this is harmless. An empty journal is a
    /// no-op.
    pub fn restore_tail(&mut self, fed: &mut Federation, journal: &RequestJournal, rng: &mut Rng) {
        let records = journal.records();
        for record in records {
            match record.state.mark_effect() {
                MarkEffect::Mark => self.mark_unlearned(record.request),
                MarkEffect::Unmark => self.unmark_unlearned(record.request),
                MarkEffect::None => {}
            }
        }
        let boundary = match journal.last() {
            // A fold the journal fails restores nothing; whoever serves
            // next reports the ShapeError.
            Some(last) if last.state.is_derived() => units(records)
                .ok()
                .and_then(|mut units| units.pop())
                .map(|tail| tail.received),
            last => last,
        };
        if let Some(boundary) = boundary {
            fed.set_global(boundary.global.to_vec());
            *rng = Rng::from_state(&boundary.rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use RequestState::{Failed, Quarantined, Received, Recovered, Relearned, Unlearned};

    /// A record of `seq` (request `Class(seq)`) in `state`; `batch` as
    /// the lifecycle writes it, except that RELEARNED never carries one.
    fn record(seq: u64, state: RequestState, batch: Option<u64>) -> JournalRecord<Snapshot> {
        JournalRecord {
            seq,
            request: UnlearnRequest::Class(seq as usize),
            state,
            rng: Rng::seed_from(seq).state(),
            global: Default::default(),
            guard: None,
            batch: batch.map(BatchId),
            reason: match state {
                Failed => Some(FailReason::Shed),
                Quarantined => Some(FailReason::PoisonMember),
                _ => None,
            },
        }
    }

    /// What a unit looks like from outside: its batch, the index of the
    /// record `received` points at, `(seq, state)` per member, and the
    /// pending / unlearned counts.
    type Shape = (Option<u64>, usize, Vec<(u64, RequestState)>, usize, usize);

    /// Records as a journal holds them.
    type Records = Vec<JournalRecord<Snapshot>>;

    fn shapes(records: &[JournalRecord<Snapshot>]) -> Result<Vec<Shape>, ShapeError> {
        let shape = |unit: &Unit<'_>| {
            let pinned = records.iter().position(|r| std::ptr::eq(r, unit.received));
            (
                unit.batch.map(|b| b.0),
                pinned.expect("`received` borrows from the records"),
                unit.members.iter().map(|m| (m.seq, m.state)).collect(),
                unit.pending().count(),
                unit.unlearned(),
            )
        };
        Ok(units(records)?.iter().map(shape).collect())
    }

    #[test]
    fn units_folds_every_journal_the_lifecycle_writes() {
        let alone = |states: &[RequestState]| -> Records {
            states.iter().map(|&s| record(0, s, None)).collect()
        };
        let one = |state, pending, unlearned| vec![(None, 0, vec![(0, state)], pending, unlearned)];
        let cases: Vec<(&str, Records, Vec<Shape>)> = vec![
            ("empty", vec![], vec![]),
            ("alone, received", alone(&[Received]), one(Received, 1, 0)),
            (
                "alone, unlearned",
                alone(&[Received, Unlearned]),
                one(Unlearned, 1, 1),
            ),
            (
                "alone, recovered",
                alone(&[Received, Unlearned, Recovered]),
                one(Recovered, 0, 0),
            ),
            ("alone, shed", alone(&[Received, Failed]), one(Failed, 0, 0)),
            (
                "alone, quarantined",
                alone(&[Received, Quarantined]),
                one(Quarantined, 0, 0),
            ),
            (
                "alone, relearned after recovered",
                alone(&[Received, Unlearned, Recovered, Relearned]),
                one(Relearned, 0, 0),
            ),
            (
                "a batch of 3 killed after Unlearned(1)",
                vec![
                    record(0, Received, Some(0)),
                    record(1, Received, Some(0)),
                    record(2, Received, Some(0)),
                    record(0, Unlearned, Some(0)),
                ],
                vec![(
                    Some(0),
                    0,
                    vec![(0, Unlearned), (1, Received), (2, Received)],
                    3,
                    1,
                )],
            ),
            (
                "shed and quarantined members, served survivors, then a unit of one",
                vec![
                    record(0, Received, None),
                    record(0, Unlearned, None),
                    record(0, Recovered, None),
                    record(1, Received, Some(0)),
                    record(2, Received, Some(0)),
                    record(3, Received, Some(0)),
                    record(4, Received, Some(0)),
                    record(4, Failed, Some(0)),
                    record(2, Quarantined, Some(0)),
                    record(1, Unlearned, Some(0)),
                    record(3, Unlearned, Some(0)),
                    record(1, Recovered, Some(0)),
                    record(3, Recovered, Some(0)),
                    // A batch member relearned: the record carries no id.
                    record(3, Relearned, None),
                    record(5, Received, Some(1)),
                ],
                vec![
                    (None, 0, vec![(0, Recovered)], 0, 0),
                    (
                        Some(0),
                        3,
                        vec![
                            (1, Recovered),
                            (2, Quarantined),
                            (3, Relearned),
                            (4, Failed),
                        ],
                        0,
                        0,
                    ),
                    (Some(1), 14, vec![(5, Received)], 1, 0),
                ],
            ),
            (
                // What qd-perf's storage probe appends: the journal is a
                // log and takes them; the fold reads 32 pending units.
                "32 bare RECEIVED records",
                (100..132).map(|seq| record(seq, Received, None)).collect(),
                (0..32)
                    .map(|i| (None, i, vec![(100 + i as u64, Received)], 1, 0))
                    .collect(),
            ),
        ];
        for (name, records, expected) in cases {
            assert_eq!(shapes(&records), Ok(expected), "{name}");
        }

        let mixed = [
            record(1, Received, Some(0)),
            record(2, Received, Some(0)),
            record(1, Failed, Some(0)),
            record(2, Quarantined, Some(0)),
        ];
        let folded = units(&mixed).unwrap();
        let reasons: Vec<_> = folded[0].members.iter().map(|m| m.reason).collect();
        assert_eq!(
            reasons,
            [Some(FailReason::Shed), Some(FailReason::PoisonMember)]
        );
        assert!(folded[0].members.iter().all(|m| !m.served()));
    }

    #[test]
    fn units_refuses_what_no_unit_sequence_writes() {
        let stray = [record(0, Received, None), record(9, Recovered, None)];
        assert_eq!(
            shapes(&stray),
            Err(ShapeError::UnknownSeq {
                seq: 9,
                state: Recovered
            })
        );
        let relearn_stream = [record(0, Relearned, None)];
        assert!(matches!(
            shapes(&relearn_stream),
            Err(ShapeError::UnknownSeq { seq: 0, .. })
        ));
        let torn_set = [
            record(0, Received, Some(0)),
            record(0, Unlearned, Some(0)),
            record(1, Received, Some(0)),
        ];
        assert_eq!(
            shapes(&torn_set),
            Err(ShapeError::Interleaved {
                seq: 1,
                batch: BatchId(0)
            })
        );
        let ServeError::Io(e) = ServeError::from(ShapeError::UnknownSeq {
            seq: 9,
            state: Recovered,
        }) else {
            panic!("a shape error is an I/O-class serve error");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("seq 9"), "{e}");
    }
}
