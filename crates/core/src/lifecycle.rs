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
//! | state | terminal | marks | durable as | [`BatchPreempt`] |
//! |---|---|---|---|---|
//! | RECEIVED | no | none | one atomic frame for the whole unit | `Received` |
//! | UNLEARNED | no | mark | one frame per member, in member order | `Unlearned(k)` |
//! | RECOVERED | yes | mark | one atomic frame for all served members | `Recovered` |
//! | RELEARNED | yes | unmark | one frame (`relearn_journaled`) | — |
//! | FAILED | yes | none | one atomic frame per shed set (qd-serve) | `Failed` |
//! | QUARANTINED | yes | none | one atomic frame per isolated set (qd-serve) | `Quarantined` |
//!
//! The terminal and marks columns are [`RequestState::is_terminal`] and
//! `RequestState::mark_effect`; nothing else in the workspace re-derives
//! them. Two rules fix how a unit is written and killed:
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
//! Every way a request reaches the engine is in this module. Journaled:
//! [`QuickDrop::serve_journaled`] and [`QuickDrop::serve_batch_journaled`]
//! for a fresh unit, [`QuickDrop::resume_requests_until`] for the
//! journal's tail unit (the service executor's only execution path).
//! Unjournaled: [`QuickDrop::unlearn_guarded`], and
//! [`QuickDrop::probe_unit`], which is the same call rolled back. A
//! journaled deployment is opened by [`QuickDrop::open_deployment`].

use crate::journal::{
    BatchId, JournalError, JournalRecord, MarkEffect, RequestJournal, RequestState,
};
use crate::system::validated;
use crate::vfs::Vfs;
use crate::{Checkpoint, CheckpointError, QuickDrop};
use qd_fed::{Federation, PhaseStats};
use qd_nn::{relative_drift, Module};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{
    check_attempt, probe_sample, GuardPolicy, GuardStats, GuardViolation, MethodOutcome,
    UnlearnError, UnlearnRequest,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// How a journaled single-request serve call ended.
#[derive(Debug)]
pub enum ServeRun {
    /// The request was fully served (boxed to keep the enum small).
    Complete(Box<MethodOutcome>),
    /// Serving stopped right after `boundary` became durable — the
    /// deterministic stand-in for a crash there. Continue with
    /// [`QuickDrop::resume_requests`].
    Preempted {
        /// The last boundary made durable before stopping.
        boundary: BatchPreempt,
    },
}

impl ServeRun {
    /// The completed outcome, or `None` if the run was preempted.
    pub fn into_complete(self) -> Option<MethodOutcome> {
        match self {
            ServeRun::Complete(outcome) => Some(*outcome),
            ServeRun::Preempted { .. } => None,
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

/// How a journaled unit serve call ended.
#[derive(Debug)]
pub enum BatchRun {
    /// Every member was fully served (boxed to keep the enum small).
    Complete(Box<BatchOutcome>),
    /// Serving stopped right after `boundary` became durable — the
    /// deterministic stand-in for a crash there. Continue with
    /// [`QuickDrop::resume_requests`].
    Preempted {
        /// The last boundary made durable before stopping.
        boundary: BatchPreempt,
    },
}

impl BatchRun {
    /// The completed outcome, or `None` if the run was preempted.
    pub fn into_complete(self) -> Option<BatchOutcome> {
        match self {
            BatchRun::Complete(outcome) => Some(*outcome),
            BatchRun::Preempted { .. } => None,
        }
    }
}

/// What a completed unit cost and produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The unit's journal identifier (`None` for a request served alone,
    /// which its `seq` identifies).
    pub batch: Option<BatchId>,
    /// Per-member ascent accounting, in journal order. Members whose
    /// ascent ran in a previous process (unit finished by resume)
    /// report [`PhaseStats::default`] — the accounting died with that
    /// process; the model and RNG state did not.
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
    fn merged(self) -> MethodOutcome {
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

/// How a [`QuickDrop::resume_requests_until`] call ended.
#[derive(Debug)]
pub enum ResumeRun {
    /// The journal tail was finished (or nothing needed finishing);
    /// carries the outcome of the unit finished during resume, if
    /// any (boxed to keep the enum small).
    Complete(Option<Box<MethodOutcome>>),
    /// Finishing stopped right after `boundary` became durable — the
    /// deterministic crash stand-in, as in [`BatchRun::Preempted`].
    Preempted {
        /// The last boundary made durable before stopping.
        boundary: BatchPreempt,
    },
}

/// Why a journaled unit stops at a boundary instead of running on. A
/// unit run without a journal has nothing that could stop it — its
/// `commit` is infallible, and the engine's signature carries that to
/// [`QuickDrop::probe_unit`] and [`QuickDrop::unlearn_guarded`].
enum Stop {
    Io(std::io::Error),
    Preempted(BatchPreempt),
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
    ) -> Result<ServeRun, ServeError> {
        let run = self.serve_fresh_unit(fed, journal, &[request], None, policy, rng, preempt_at)?;
        Ok(match run {
            BatchRun::Complete(outcome) => ServeRun::Complete(Box::new(outcome.merged())),
            BatchRun::Preempted { boundary } => ServeRun::Preempted { boundary },
        })
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
    ) -> Result<BatchRun, ServeError> {
        let batch = Some(journal.next_batch_id());
        self.serve_fresh_unit(fed, journal, requests, batch, policy, rng, preempt_at)
    }

    /// RECEIVED, then the engine: the body both serve calls share.
    #[allow(clippy::too_many_arguments)]
    fn serve_fresh_unit(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        requests: &[UnlearnRequest],
        batch: Option<BatchId>,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
        preempt_at: Option<BatchPreempt>,
    ) -> Result<BatchRun, ServeError> {
        let policy = validated(policy);
        let members = Self::receive_unit(fed, journal, requests, batch, rng)?;
        if preempt_at == Some(BatchPreempt::Received) {
            return Ok(BatchRun::Preempted {
                boundary: BatchPreempt::Received,
            });
        }
        let (reference, unit_rng, stats) =
            (fed.global().to_vec(), rng.state(), GuardStats::default());
        self.finish_journaled(
            fed, journal, preempt_at, batch, &members, 0, reference, unit_rng, stats, policy, rng,
        )
    }

    /// Makes a fresh unit's RECEIVED boundary durable: one atomic frame
    /// holding a record per member, each carrying the pre-unit model and
    /// RNG state (the reference every later guard check and every
    /// resume measures against). Returns the members with the sequence
    /// numbers they were given.
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
    ) -> std::io::Result<Vec<(u64, UnlearnRequest)>> {
        if requests.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "cannot serve an empty batch",
            ));
        }
        let members: Vec<(u64, UnlearnRequest)> = (journal.next_seq()..)
            .zip(requests.iter().copied())
            .collect();
        let frame = members
            .iter()
            .map(|&member| certify(member, RequestState::Received, None, batch, fed, rng))
            .collect();
        journal.append_all(frame)?;
        Ok(members)
    }

    /// The unit engine. Runs `members` from the first one without an
    /// UNLEARNED record (`done` of them already have one): guarded
    /// ascent + UNLEARNED record per remaining member, one shared
    /// recovery, then the atomic RECOVERED set. `reference`/`unit_rng`
    /// are the pre-unit state the RECEIVED set pinned; the live model
    /// and `rng` are wherever the last durable record left them.
    ///
    /// Each boundary's atomic frame goes to `commit`, the only thing
    /// that can stop the engine short of a verdict: the outer `Err` is
    /// whatever `commit` stopped with, the inner one the guard's
    /// verdict. Fresh units arrive here with `done == 0`, crash-resumed
    /// ones with everything journal-derived (both through
    /// `finish_journaled`), and [`QuickDrop::probe_unit`] and
    /// [`QuickDrop::unlearn_guarded`] with a `commit` that writes
    /// nothing and cannot fail — the same operations.
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
        done: usize,
        reference: Vec<Tensor>,
        unit_rng: RngState,
        mut stats: GuardStats,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<Result<BatchOutcome, UnlearnError>, S> {
        use RequestState::{Recovered, Unlearned};
        let mut unlearn = vec![PhaseStats::default(); done];
        for (index, &member) in members.iter().enumerate().skip(done) {
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

    /// [`QuickDrop::finish_unit`] against the journal: every frame is
    /// appended, and serving stops right after `preempt_at`'s.
    #[allow(clippy::too_many_arguments)]
    fn finish_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        preempt_at: Option<BatchPreempt>,
        batch: Option<BatchId>,
        members: &[(u64, UnlearnRequest)],
        done: usize,
        reference: Vec<Tensor>,
        unit_rng: RngState,
        stats: GuardStats,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<BatchRun, ServeError> {
        let preempt_at = match preempt_at {
            // Rule 2 of the module docs: an unbatched unit is its one
            // member, so any count names its UNLEARNED record.
            Some(BatchPreempt::Unlearned(_)) if batch.is_none() => Some(BatchPreempt::Unlearned(1)),
            other => other,
        };
        let commit = |boundary, frame| {
            journal.append_all(frame).map_err(Stop::Io)?;
            if preempt_at == Some(boundary) {
                return Err(Stop::Preempted(boundary));
            }
            Ok(())
        };
        match self.finish_unit(
            fed, commit, batch, members, done, reference, unit_rng, stats, policy, rng,
        ) {
            Ok(Ok(outcome)) => Ok(BatchRun::Complete(Box::new(outcome))),
            Ok(Err(diverged)) => Err(ServeError::Diverged(diverged)),
            Err(Stop::Preempted(boundary)) => Ok(BatchRun::Preempted { boundary }),
            Err(Stop::Io(e)) => Err(ServeError::Io(e)),
        }
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
        let recovery = self.recovery_stage(fed, rng);
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
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure, or with kind
    /// [`std::io::ErrorKind::InvalidData`] when the journal holds no
    /// RECOVERED record for `request`.
    pub fn relearn_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        request: UnlearnRequest,
        phase: &qd_fed::Phase,
        rng: &mut Rng,
    ) -> Result<PhaseStats, ServeError> {
        let seq = journal
            .records()
            .iter()
            .rev()
            .find(|r| r.request == request && r.state == RequestState::Recovered)
            .map(|r| r.seq)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journal holds no recovered request matching {request}"),
                )
            })?;
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
    /// [`Checkpoint`]: re-applies every record's forgotten-state marks
    /// (idempotently), restores the global model and RNG stream from the
    /// **last** record — the journal, not the checkpoint, is the source
    /// of truth for anything that happened after the checkpoint was
    /// written — and finishes the incomplete stages of the last unit,
    /// if any.
    ///
    /// Units are served sequentially, so at most the last journaled
    /// unit can be incomplete; the continuation reproduces the
    /// uninterrupted run bit-for-bit (same model bits, same RNG stream,
    /// same persisted [`GuardStats`]) provided `policy` matches the
    /// original run's.
    ///
    /// Returns the outcome of the unit finished during resume, or
    /// `None` when the journal was empty or already fully served.
    ///
    /// This is the single-request CLI's resume: `quickdrop-cli unlearn`
    /// and `relearn --journal` call it right after
    /// [`QuickDrop::open_deployment`], before serving the new request.
    /// A service run never needs it — the qd-serve executor finishes an
    /// in-flight service unit itself, under the policy it started
    /// under. Calling it first with that same policy is harmless (the
    /// executor then finds the unit finished); only under an active
    /// isolation config would it pick the base policy over the unit's
    /// ladder rung.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure, or
    /// [`ServeError::Diverged`] when finishing the incomplete unit
    /// trips the guard (deterministically the same outcome the
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
        match self.resume_requests_until(fed, journal, policy, rng, None)? {
            ResumeRun::Complete(outcome) => Ok(outcome.map(|o| *o)),
            // Unreachable with `preempt_at: None`; nothing is left
            // undone if it ever were.
            ResumeRun::Preempted { .. } => Ok(None),
        }
    }

    /// [`QuickDrop::resume_requests`] with a durable-boundary preempt:
    /// finishing stops right after `preempt_at` becomes durable, the
    /// deterministic crash stand-in the service executor and the chaos
    /// harnesses drive. `None` finishes everything.
    ///
    /// This is also the service executor's *only* execution path: it
    /// appends a unit's RECEIVED set ([`QuickDrop::receive_unit`]) and
    /// then drives every attempt through this call, so a fresh unit and
    /// a crash-resumed one execute identical code from identical
    /// journal-derived state.
    ///
    /// Membership and progress both come from the journal: the unit is
    /// the tail record's batch (or, unbatched, its `seq`); its RECEIVED
    /// set (atomic, so never half-written) lists the members; members
    /// holding a terminal record — served, quarantined or shed — are
    /// settled and drop out; the UNLEARNED records of the rest say how
    /// many ascents were accepted before the crash. A unit with no
    /// member left has nothing to do.
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
    ) -> Result<ResumeRun, ServeError> {
        let policy = validated(policy);
        let Some(last) = journal.last() else {
            return Ok(ResumeRun::Complete(None));
        };
        let (batch, seq, state, stats) = (last.batch, last.seq, last.state, last.guard);
        self.restore_tail(fed, journal, rng);
        let unit: Vec<&JournalRecord> = journal
            .records()
            .iter()
            .filter(|r| r.batch == batch && (batch.is_some() || r.seq == seq))
            .collect();
        let settled: Vec<u64> = unit
            .iter()
            .filter(|r| r.state.is_terminal())
            .map(|r| r.seq)
            .collect();
        let pending: Vec<&JournalRecord> = unit
            .iter()
            .filter(|r| r.state == RequestState::Received && !settled.contains(&r.seq))
            .copied()
            .collect();
        // Every RECEIVED record of a unit carries the same pre-unit
        // state, so the first pending one supplies the reference.
        let Some(first) = pending.first() else {
            if state.is_terminal() {
                return Ok(ResumeRun::Complete(None));
            }
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("journal record {seq} is {state} without a RECEIVED record"),
            )));
        };
        let (reference, unit_rng) = (first.global.clone(), first.rng.clone());
        let members: Vec<(u64, UnlearnRequest)> =
            pending.iter().map(|r| (r.seq, r.request)).collect();
        let done = unit
            .iter()
            .filter(|r| r.state == RequestState::Unlearned && !settled.contains(&r.seq))
            .count();
        let stats = stats.unwrap_or_default();
        let run = self.finish_journaled(
            fed, journal, preempt_at, batch, &members, done, reference, unit_rng, stats, policy,
            rng,
        )?;
        Ok(match run {
            BatchRun::Complete(outcome) => ResumeRun::Complete(Some(Box::new(outcome.merged()))),
            BatchRun::Preempted { boundary } => ResumeRun::Preempted { boundary },
        })
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
        let verdict = self.run_unjournaled(fed, requests, policy, &mut rng);
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
        self.run_unjournaled(fed, &[request], policy, rng)
            .map(BatchOutcome::merged)
    }

    /// The engine from the live state with nothing written: the body of
    /// [`QuickDrop::probe_unit`] and [`QuickDrop::unlearn_guarded`].
    fn run_unjournaled(
        &mut self,
        fed: &mut Federation,
        requests: &[UnlearnRequest],
        policy: &GuardPolicy,
        rng: &mut Rng,
    ) -> Result<BatchOutcome, UnlearnError> {
        let policy = validated(Some(policy));
        let members: Vec<(u64, UnlearnRequest)> = (0u64..).zip(requests.iter().copied()).collect();
        let (reference, unit_rng, stats) =
            (fed.global().to_vec(), rng.state(), GuardStats::default());
        let unwritten = |_, _| Ok::<(), std::convert::Infallible>(());
        let Ok(verdict) = self.finish_unit(
            fed, unwritten, None, &members, 0, reference, unit_rng, stats, policy, rng,
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
    /// Idempotent: on a live (non-crashed) deployment the tail already
    /// matches the live state and the mark replay re-applies set
    /// semantics, so calling this is harmless. An empty journal is a
    /// no-op.
    pub fn restore_tail(&mut self, fed: &mut Federation, journal: &RequestJournal, rng: &mut Rng) {
        for record in journal.records() {
            match record.state.mark_effect() {
                MarkEffect::Mark => self.mark_unlearned(record.request),
                MarkEffect::Unmark => self.unmark_unlearned(record.request),
                MarkEffect::None => {}
            }
        }
        if let Some(last) = journal.last() {
            fed.set_global(last.global.clone());
            *rng = Rng::from_state(&last.rng);
        }
    }

    /// Opens a journaled deployment for serving — the one way in for
    /// `quickdrop-cli serve`, `unlearn`/`relearn --journal` and the
    /// `qd-chaos` harness: the checkpoint at `checkpoint` (falling back
    /// to its `.prev` generation, see
    /// [`Checkpoint::load_with_fallback_on`]), opened by
    /// [`Checkpoint::open_on`]. On fallback the primary's error rides
    /// along so the caller can report it; nothing journaled is lost,
    /// because whoever serves next — [`QuickDrop::resume_requests`] or
    /// the service executor — first restores model, RNG and marks from
    /// the journal tail. Without a journal nothing rolls `.prev`
    /// forward, which is why the non-journaled CLI modes load strictly.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when neither checkpoint generation loads, plus
    /// everything [`Checkpoint::open_on`] returns.
    #[allow(clippy::type_complexity)]
    pub fn open_deployment(
        vfs: Arc<dyn Vfs>,
        checkpoint: &Path,
        journal: &Path,
        model: Arc<dyn Module>,
    ) -> Result<
        (
            QuickDrop,
            Federation,
            RequestJournal,
            Option<CheckpointError>,
        ),
        ServeError,
    > {
        let (ckpt, fell_back) = Checkpoint::load_with_fallback_on(&*vfs, checkpoint)?;
        let (qd, fed, journal) = ckpt.open_on(vfs, journal, model)?;
        Ok((qd, fed, journal, fell_back))
    }
}

impl Checkpoint {
    /// Opens this (already loaded, or just captured) deployment snapshot
    /// for journaled serving: [`Checkpoint::restore`], the
    /// [`QuickDrop::serving_federation`] over `model`, then the request
    /// journal at `journal` on `vfs` — the journal open is the only
    /// storage access. [`QuickDrop::open_deployment`] is this after a
    /// load; the `qd-chaos` harness calls it directly on a fresh deploy,
    /// whose checkpoint it has just written.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for a mid-training or synthetic-set-less
    /// checkpoint, or a journal that does not open.
    pub fn open_on(
        self,
        vfs: Arc<dyn Vfs>,
        journal: &Path,
        model: Arc<dyn Module>,
    ) -> Result<(QuickDrop, Federation, RequestJournal), ServeError> {
        let (global, qd) = self.restore()?;
        let fed = qd.serving_federation(model, global)?;
        Ok((qd, fed, RequestJournal::open_on(vfs, journal)?))
    }
}
