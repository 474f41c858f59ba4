//! The deterministic whole-system scenario a chaos schedule drives.
//!
//! [`Harness::run`] executes one [`ChaosSchedule`] twice over the full
//! deploy → serve → crash → resume → relearn lifecycle: a fault-free
//! *reference* run, and a *faulted* run that arms the schedule's
//! failures lifetime by lifetime on a [`FaultFs`], crashing the
//! in-memory machine after every process death and resuming from
//! whatever survived. Both runs share the workload (training mix,
//! Byzantine plan, serving traffic) bit-for-bit, so the invariant
//! registry can demand identical terminal states.
//!
//! A lifetime runs one of three front doors ([`FrontDoor`]): the service
//! executor, the per-request journaled calls, or checkpointed training.
//! [`Harness::exhaustive`] enumerates every single-fault schedule of a
//! workload: each [`Fault`] at each `Vfs` operation of the fault-free
//! lifetime it applies to, and a kill at each journal boundary its units
//! reach.

use crate::invariant::Violation;
use crate::schedule::{ChaosSchedule, FaultSpec, FrontDoor, InjectedFault, StorageFault, Workload};
use qd_core::{
    units, BatchPreempt, Checkpoint, CheckpointPolicy, CrashPoint, Fault, FaultFs, JournalRecord,
    JournaledRun, QuickDrop, QuickDropConfig, RequestJournal, RequestState, ServeError, Snapshot,
    Vfs, VfsOp,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{FaultPlan, Federation, Phase};
use qd_net::{NetConfig, SimNet};
use qd_nn::{Mlp, Module};
use qd_serve::{
    build_plan, frontier_summary, run_service_isolated, ChaosKill, Deployment, FrontierSummary,
    IsolationConfig, ServeConfig, ServeStats, ServiceError,
};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, MethodOutcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A harness-level failure: the schedule itself is unrunnable (invalid,
/// or its fault-free reference run does not complete). Distinct from an
/// invariant violation, which is the *system* misbehaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError(pub String);

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos harness: {}", self.0)
    }
}

impl std::error::Error for ChaosError {}

/// The terminal state of one complete lifecycle — everything the
/// invariants compare.
#[derive(Debug, Clone)]
pub struct Terminal {
    /// Final global model parameters.
    pub global: Vec<Tensor>,
    /// Final RNG stream position.
    pub rng: RngState,
    /// Every durable journal record (none behind the train door).
    pub records: Vec<JournalRecord<Snapshot>>,
    /// The SLA stats the stats file holds (`None` behind the
    /// per-request and train doors, which report none).
    pub stats: Option<ServeStats>,
    /// Journal↔plan frontier alignment before the relearn (`None` when
    /// the last lifetime opened a journal holding the RELEARNED record,
    /// which [`qd_serve::frontier_summary`] rightly refuses, and behind
    /// the train door, which plans nothing).
    pub frontier: Option<Result<FrontierSummary, String>>,
    /// Every surviving on-disk file, bit for bit.
    pub files: BTreeMap<PathBuf, Vec<u8>>,
    /// Every checkpoint generation a save put in place, all lifetimes,
    /// oldest first ([`FaultFs::renamed_onto`]) — for the fault-free
    /// reference, one lifetime, every generation of the run.
    pub saved: Vec<Vec<u8>>,
    /// Every `Vfs` operation of the run, all lifetimes
    /// ([`FaultFs::op_log`]); the invariants do not compare it.
    pub ops: Vec<(VfsOp, usize)>,
}

/// What one faulted schedule execution produced — the invariant
/// registry's input.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The schedule that ran.
    pub schedule: ChaosSchedule,
    /// Terminal state of the fault-free reference run.
    pub reference: Terminal,
    /// Terminal state of the faulted run, when it completed within the
    /// resume budget.
    pub faulted: Option<Terminal>,
    /// Process lifetimes the faulted run used (1 = no deaths).
    pub attempts: u32,
    /// Faults that actually fired (scheduled faults whose op index was
    /// never reached do not count).
    pub faults_fired: u64,
    /// The last lifetime's death message when the run stalled.
    pub last_error: String,
}

impl RunOutcome {
    /// True when the faulted run never reached a terminal state within
    /// `max_resumes` — the liveness failure the run-completes
    /// invariant reports.
    pub fn stalled(&self) -> bool {
        self.faulted.is_none()
    }

    /// Both terminals, named, when the faulted run completed.
    pub fn terminals(&self) -> Option<[(&'static str, &Terminal); 2]> {
        Some([
            ("reference", &self.reference),
            ("faulted", self.faulted.as_ref()?),
        ])
    }

    /// Checks the full invariant registry against this outcome.
    pub fn report(&self) -> RunReport {
        let registry = crate::invariant::registry();
        RunReport {
            completed: !self.stalled(),
            attempts: self.attempts,
            faults_fired: self.faults_fired,
            invariants_checked: registry.len() as u64,
            violations: (registry.iter())
                .filter_map(|i| {
                    let invariant = i.name().to_string();
                    i.check(self).map(|detail| Violation { invariant, detail })
                })
                .collect(),
        }
    }
}

/// How one process lifetime died.
enum Death {
    /// Preempted right after the armed journal boundary became durable
    /// — a kill that fired, after this many units ran to completion.
    Boundary(u64),
    /// A storage or serving error surfaced; carries its message.
    Error(String),
}

impl Death {
    fn error(e: impl std::fmt::Display) -> Death {
        Death::Error(e.to_string())
    }
}

impl std::fmt::Display for Death {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Death::Boundary(n) => write!(
                f,
                "preempted at journal boundary after {n} executed unit(s)"
            ),
            Death::Error(message) => f.write_str(message),
        }
    }
}

/// The serializable result of one schedule execution: what the
/// determinism tests compare.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RunReport {
    /// Whether the faulted run reached a terminal state.
    pub completed: bool,
    /// Process lifetimes used.
    pub attempts: u32,
    /// Faults that actually fired.
    pub faults_fired: u64,
    /// Invariants evaluated against the outcome.
    pub invariants_checked: u64,
    /// Violations found (empty on a healthy run).
    pub violations: Vec<crate::invariant::Violation>,
}

/// One trained deployment, snapshotted so every run of a seed reuses
/// the (expensive) federated training epoch.
struct DeploySeed {
    ckpt: Checkpoint,
    rng: RngState,
}

/// [`QuickDrop::resume_requests_until`]'s signature.
type Resume = fn(
    &mut QuickDrop,
    &mut Federation,
    &mut RequestJournal,
    Option<&GuardPolicy>,
    &mut Rng,
    Option<BatchPreempt>,
) -> Result<JournaledRun<Option<MethodOutcome>>, ServeError>;

/// The chaos executor. Caches trained deployments and fault-free
/// reference terminals across runs, keyed by the workload knobs that
/// produced them, so a multi-run sweep trains once per environment.
pub struct Harness {
    deploys: BTreeMap<String, DeploySeed>,
    references: BTreeMap<String, Terminal>,
    /// How a per-request lifetime finishes the journal's in-flight
    /// unit. Always [`QuickDrop::resume_requests_until`]; private, so
    /// only this module's negative control can swap in an unsound one.
    resume: Resume,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            deploys: BTreeMap::new(),
            references: BTreeMap::new(),
            resume: QuickDrop::resume_requests_until,
        }
    }
}

/// Where every lifetime keeps its checkpoint.
pub(crate) fn ckpt_path() -> PathBuf {
    PathBuf::from("chaos.ckpt.json")
}

/// The model every chaos deployment runs, on digits.
fn model() -> Arc<dyn Module> {
    Arc::new(Mlp::new(&[256, 16, 10]))
}

/// The federation `w`'s deployment trains on, its config and the RNG
/// stream after building them — all a function of the workload, so every
/// lifetime behind the train door rebuilds the same ones, as `quickdrop-cli
/// train --resume` does from the original flags.
pub fn training(w: &Workload) -> (Federation, QuickDropConfig, Rng) {
    let mut rng = Rng::seed_from(w.train_seed);
    let data = SyntheticDataset::Digits.generate(w.samples, &mut rng);
    let parts = partition_iid(data.len(), w.clients, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let mut fed = Federation::new(model(), clients, &mut rng);
    if w.byzantine_frac > 0.0 {
        // Byzantine clients run the full default fault menu during
        // training; the trained deployment must already tolerate
        // them (robust aggregation is part of the environment).
        fed.set_fault_plan(Some(FaultPlan::new(w.train_seed, w.byzantine_frac)));
    }
    // The `net_drop` environment: clients unreachable for whole
    // rounds while the deployment trains, over a simulated network.
    if w.net_drop > 0.0 {
        let net = NetConfig::lossy(w.train_seed, w.net_drop);
        fed.set_transport(Box::new(SimNet::new(net)));
    }
    let mut cfg = QuickDropConfig::scaled_test();
    // Behind the train door a Byzantine client's third straight crash
    // benches it for `breaker_cooldown` rounds (`train --cooldown-rounds`),
    // so a checkpoint can carry an open breaker.
    let cooldown = [0, w.breaker_cooldown as usize][usize::from(w.front_door == FrontDoor::Train)];
    cfg.train_phase = Phase::training(w.rounds, 2, 16, 0.1).with_cooldown_rounds(cooldown);
    (fed, cfg, rng)
}

/// Whether a checkpoint generation survives on `fs`. Looking is no `Vfs`
/// operation.
fn survives(fs: &FaultFs) -> bool {
    let ckpt = ckpt_path();
    fs.file(&ckpt).is_some() || fs.file(&Checkpoint::prev_path(&ckpt)).is_some()
}

/// The deployment on `vfs`, opened as `quickdrop-cli` opens one.
fn open_on(vfs: Arc<dyn Vfs>) -> Result<Deployment, ServiceError> {
    let ckpt = ckpt_path();
    let journal = RequestJournal::path_for_checkpoint(&ckpt);
    Deployment::open(vfs, &ckpt, &journal, (1, 16, 10), model())
}

/// Where a service lifetime keeps its stats.
const STATS: &str = "chaos.stats.json";

/// The environment cache key: every knob that shapes training.
fn env_key(w: &Workload) -> String {
    format!(
        "seed={} samples={} clients={} rounds={} byz={:08x} drop={:08x}",
        w.train_seed,
        w.samples,
        w.clients,
        w.rounds,
        w.byzantine_frac.to_bits(),
        w.net_drop.to_bits(),
    )
}

/// The reference cache key: the whole workload.
fn workload_key(w: &Workload) -> String {
    format!("{w:?}")
}

/// The service configuration `w`'s lifetimes plan from — the units an
/// enumerated boundary kill indexes.
pub fn serve_config(w: &Workload) -> ServeConfig {
    ServeConfig {
        tenants: w.tenants,
        arrival_requests: w.requests,
        arrival_gap_us: 300,
        queue_cap: 8,
        coalesce: true,
        max_batch: 3,
        weights: vec![1],
        classes: 2,
        clients: w.clients,
        // Under an ascent spike the interesting mix is client-forget
        // requests (their ascents involve the Byzantine clients
        // directly); without a spike the default class-heavy mix
        // exercises coalescing harder.
        class_share: if spike_active(w) { 0.0 } else { 0.7 },
        seed: w.serve_seed,
        ..ServeConfig::default()
    }
}

fn spike_active(w: &Workload) -> bool {
    w.ascent_spike > 1.0 && w.byzantine_frac > 0.0
}

fn isolation(w: &Workload) -> IsolationConfig {
    if spike_active(w) {
        IsolationConfig {
            unit_retries: 2,
            bisect: true,
            breaker_trip: w.breaker_trip,
            breaker_cooldown: w.breaker_cooldown,
        }
    } else {
        IsolationConfig::default()
    }
}

fn guard_policy() -> GuardPolicy {
    // Coalesced batches run several ascents back-to-back before the
    // shared recovery, so drift accumulates well past the
    // single-request budget; keep a real budget in force with enough
    // headroom that a clean run never rolls back.
    GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    }
}

impl Harness {
    /// A fresh harness with empty caches.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Executes `schedule`: fault-free reference run, faulted run with
    /// crash-and-resume, then the full invariant registry.
    ///
    /// # Errors
    ///
    /// [`ChaosError`] when the schedule is invalid or its fault-free
    /// reference run fails — both mean the *schedule* is broken, not
    /// the system under test.
    pub fn run(&mut self, schedule: &ChaosSchedule) -> Result<RunReport, ChaosError> {
        Ok(self.execute(schedule)?.report())
    }

    /// Executes `schedule` and returns the raw outcome without checking
    /// invariants: both terminals and how the faulted run died, for a
    /// caller that asks more of a run than the registry does.
    ///
    /// # Errors
    ///
    /// As [`Harness::run`].
    pub fn execute(&mut self, schedule: &ChaosSchedule) -> Result<RunOutcome, ChaosError> {
        schedule.validate().map_err(ChaosError)?;
        let w = schedule.workload.clone();
        let reference = self.reference(&w)?.clone();

        let fs = Arc::new(FaultFs::new());
        let mut attempt: u32 = 0;
        let mut faults_fired: u64 = 0;
        let mut faulted = None;
        let mut last_error = String::new();
        loop {
            let (storage, crash) = schedule.faults_for(attempt);
            let base = fs.op_count();
            let mut armed: u64 = 0;
            for (op, fault) in &storage {
                fs.schedule_fault(base + op, fault.to_fault());
                armed += 1;
            }
            let mut kill = None;
            if let Some(point) = crash {
                match point {
                    CrashPoint::VfsOp(op) => {
                        // Re-anchor the schedule's lifetime-relative op
                        // index to this lifetime's first syscall.
                        if fs.arm(&CrashPoint::VfsOp(base + op)) {
                            armed += 1;
                        }
                    }
                    CrashPoint::Boundary { .. } => kill = ChaosKill::from_point(&point),
                }
            }
            match self.attempt(&w, &fs, kill) {
                Ok(terminal) => {
                    faults_fired += armed.saturating_sub(fs.pending_faults());
                    faulted = Some(terminal);
                    break;
                }
                Err(death) => {
                    faults_fired += armed.saturating_sub(fs.pending_faults());
                    // A boundary preemption leaves no unfired entry in
                    // the `FaultFs` schedule to count it by.
                    faults_fired += u64::from(matches!(death, Death::Boundary(_)));
                    last_error = death.to_string();
                    fs.crash();
                    attempt += 1;
                    if attempt > schedule.max_resumes {
                        break;
                    }
                }
            }
        }
        // Lifetimes used: one per death, plus the final completing one.
        let attempts = attempt + u32::from(faulted.is_some());
        Ok(RunOutcome {
            schedule: schedule.clone(),
            reference,
            faulted,
            attempts,
            faults_fired,
            last_error,
        })
    }

    fn ensure_deploy(&mut self, w: &Workload) -> Result<(), ChaosError> {
        // Behind the train door each lifetime trains the deployment itself.
        let key = env_key(w);
        if w.front_door == FrontDoor::Train || self.deploys.contains_key(&key) {
            return Ok(());
        }
        let (mut fed, cfg, mut rng) = training(w);
        let (qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
        self.deploys.insert(
            key,
            DeploySeed {
                ckpt: Checkpoint::capture(fed.global(), &qd),
                rng: rng.state(),
            },
        );
        Ok(())
    }

    /// The fault-free reference lifetime of `w`, run once per workload.
    fn reference(&mut self, w: &Workload) -> Result<&Terminal, ChaosError> {
        self.ensure_deploy(w)?;
        let key = workload_key(w);
        if !self.references.contains_key(&key) {
            let fs = Arc::new(FaultFs::new());
            let terminal = self
                .attempt(w, &fs, None)
                .map_err(|e| ChaosError(format!("fault-free reference run failed: {e}")))?;
            self.references.insert(key.clone(), terminal);
        }
        self.references
            .get(&key)
            .ok_or_else(|| ChaosError("reference cache miss after fill".to_string()))
    }

    /// Every single-fault schedule of `w`: each [`Fault`] at each `Vfs`
    /// operation of its fault-free lifetime that the fault applies to —
    /// a kill at every operation; a torn write (half its bytes) and a
    /// full disk at every write and append; a failed fsync at every
    /// fsync; the last bit flipped and half the bytes returned at every
    /// read — then a kill at each journal boundary each
    /// planned unit reaches in it — RECEIVED always; FAILED and
    /// QUARANTINED where the reference run shed or quarantined a member
    /// of the unit; `Unlearned(k)` for each member it served, and
    /// RECOVERED if it served any. Both come from the reference run, so
    /// every schedule's fault fires, and one resume is all it is allowed.
    /// Behind the train door nothing is journaled, so there are no
    /// boundaries, and no read: a lifetime that finds a checkpoint
    /// generation resumes from it, but the reference finds none.
    /// A schedule holds one fault, so a failing one is its own minimal
    /// reproducer.
    ///
    /// # Errors
    ///
    /// As [`Harness::run`].
    pub fn exhaustive(&mut self, w: &Workload) -> Result<Vec<ChaosSchedule>, ChaosError> {
        let single_fault = |spec| ChaosSchedule {
            seed: w.train_seed,
            workload: w.clone(),
            faults: vec![InjectedFault { attempt: 0, spec }],
            max_resumes: 1,
        };
        single_fault(FaultSpec::Crash(CrashPoint::VfsOp(0)))
            .validate()
            .map_err(ChaosError)?;
        let reference = self.reference(w)?;
        let mut specs = Vec::new();
        for fault in FAULTS {
            for (op, &(kind, len)) in (0..).zip(&reference.ops) {
                specs.extend(enumerated(fault, op, kind, len));
            }
        }
        // The reference run served the whole plan, so its journal's
        // units are the plan's, in plan order.
        let journaled = units(&reference.records).map_err(|e| ChaosError(e.to_string()))?;
        for (unit, journaled) in journaled.iter().enumerate() {
            let reached = |state| journaled.members.iter().any(|m| m.state == state);
            let served = journaled.members.iter().filter(|m| m.served()).count();
            let mut boundaries = vec![BatchPreempt::Received];
            if reached(RequestState::Failed) {
                boundaries.push(BatchPreempt::Failed);
            }
            if reached(RequestState::Quarantined) {
                boundaries.push(BatchPreempt::Quarantined);
            }
            boundaries.extend((1..=served).map(BatchPreempt::Unlearned));
            if served > 0 {
                boundaries.push(BatchPreempt::Recovered);
            }
            specs.extend(
                (boundaries.into_iter())
                    .map(|boundary| FaultSpec::Crash(CrashPoint::Boundary { unit, boundary })),
            );
        }
        Ok(specs.into_iter().map(single_fault).collect())
    }

    /// One process lifetime: deploy, unless a checkpoint generation
    /// survives on `fs`, then run the workload's `quickdrop-cli`
    /// invocations, each a [`Deployment::open`] → serve →
    /// [`Deployment::close`]. Behind the service door that is one `serve`;
    /// behind the per-request door, one `unlearn --journal` per planned
    /// unit not yet started. Either way a `relearn --journal` ends it —
    /// finishing the unit a killed lifetime left in flight, relearning if
    /// the workload asks — and a lifetime that finds the relearn done only
    /// opens and closes. Any surfaced storage error or boundary preemption
    /// is the process dying, reported as `Err`. Behind the train door the
    /// lifetime is [`train_lifetime`].
    fn attempt(
        &self,
        w: &Workload,
        fs: &Arc<FaultFs>,
        kill: Option<ChaosKill>,
    ) -> Result<Terminal, Death> {
        if w.front_door == FrontDoor::Train {
            return train_lifetime(w, fs);
        }
        let seed =
            (self.deploys.get(&env_key(w))).ok_or_else(|| Death::error("deploy cache miss"))?;
        let ckpt = ckpt_path();
        // A save rotates the primary to `.prev` before renaming the new
        // one in, so a kill between the two leaves `.prev` alone. Op 0 of
        // a fresh lifetime is the deploy's tmp write, and the deploy
        // writes before any journal record.
        if !survives(fs) {
            let deployed = seed.ckpt.save_on(fs.as_ref(), &ckpt);
            deployed.map_err(Death::error)?;
        }
        let close = |d: &Deployment, stats: Option<(&Path, &ServeStats)>| {
            d.close(&ckpt, stats).map(drop).map_err(Death::error)
        };
        let service = w.front_door == FrontDoor::Service;

        // A lifetime that finds the relearn durable has nothing to serve:
        // the resume below restores the tail, and the close saves it.
        let (mut d, mut rng) = open(w, fs, seed)?;
        let journaled = units(d.journal.records()).map_err(Death::error)?;
        let mut members = journaled.iter().flat_map(|unit| &unit.members);
        let relearned = members.any(|m| m.state == RequestState::Relearned);

        let cfg = serve_config(w);
        let policy = Some(guard_policy());
        if service && !relearned {
            // The executor finishes whatever unit a previous lifetime
            // left in flight, under the policy (ladder rung) it started
            // under.
            let (iso, policy) = (isolation(w), policy.as_ref());
            let (qd, fed, journal) = (&mut d.qd, &mut d.fed, &mut d.journal);
            let run = run_service_isolated(qd, fed, journal, &cfg, policy, &iso, &mut rng, kill);
            let run = run.map_err(Death::error)?;
            if run.preempted {
                return Err(Death::Boundary(run.executed_units));
            }
            close(&d, Some((Path::new(STATS), &run.stats)))?;
            (d, rng) = open(w, fs, seed)?;
        }
        // Units are served in plan order, so the journal's are the plan's
        // leading ones: each invocation finishes the one a previous one
        // left in flight, then serves the next, if any is left.
        let plan = build_plan(&cfg).map_err(Death::error)?;
        let preempt_in = |unit: usize| kill.filter(|k| k.unit_index == unit).map(|k| k.boundary);
        let mut executed = 0;
        loop {
            let started = units(d.journal.records()).map_err(Death::error)?.len();
            let in_flight = started.checked_sub(1).and_then(preempt_in);
            let (qd, fed, journal) = (&mut d.qd, &mut d.fed, &mut d.journal);
            let resumed = (self.resume)(qd, fed, journal, policy.as_ref(), &mut rng, in_flight);
            match resumed.map_err(Death::error)? {
                JournaledRun::Preempted { .. } => return Err(Death::Boundary(executed)),
                JournaledRun::Complete(finished) => executed += u64::from(finished.is_some()),
            }
            let Some(unit) = plan.batches.get(started) else {
                break;
            };
            let (policy, preempt) = (policy.as_ref(), preempt_in(started));
            let served = match unit.members.as_slice() {
                &[alone] => qd
                    .serve_journaled(fed, journal, alone, policy, &mut rng, preempt)
                    .map(|run| run.into_complete().is_some()),
                members => qd
                    .serve_batch_journaled(fed, journal, members, policy, &mut rng, preempt)
                    .map(|run| run.into_complete().is_some()),
            };
            if !served.map_err(Death::error)? {
                return Err(Death::Boundary(executed));
            }
            executed += 1;
            close(&d, None)?;
            (d, rng) = open(w, fs, seed)?;
        }

        // The frontier is the plan's, and a RELEARNED record is none of it.
        let frontier =
            (!relearned).then(|| frontier_summary(&cfg, &d.journal).map_err(|e| e.to_string()));
        let recovered = (units(d.journal.records()).map_err(Death::error)?.iter())
            .flat_map(|unit| &unit.members)
            .find(|m| m.state == RequestState::Recovered)
            .map(|m| m.request);
        if let Some(request) = recovered.filter(|_| w.relearn && !relearned) {
            let phase = d.qd.config().relearn_phase;
            (d.qd)
                .relearn_journaled(&mut d.fed, &mut d.journal, request, &phase, &mut rng)
                .map_err(Death::error)?;
        }
        close(&d, None)?;
        Ok(Terminal {
            global: d.fed.global().to_vec(),
            rng: rng.state(),
            records: d.journal.records().to_vec(),
            stats: service
                .then(|| read_stats(fs))
                .transpose()
                .map_err(Death::error)?,
            frontier,
            files: fs.files(),
            saved: fs.renamed_onto(&ckpt),
            ops: fs.op_log(),
        })
    }
}

/// One lifetime behind the train door: `quickdrop-cli train --resume`
/// when a checkpoint generation survives on `fs`, else `train
/// --checkpoint-every 1` — the first lifetime, or one whose predecessor
/// died before any save was durable, where there is nothing to resume and
/// the command is run again. A surfaced storage error is the process
/// dying.
fn train_lifetime(w: &Workload, fs: &FaultFs) -> Result<Terminal, Death> {
    let (mut fed, config, mut rng) = training(w);
    let policy = CheckpointPolicy {
        every: 1,
        path: ckpt_path(),
    };
    let trained = if survives(fs) {
        QuickDrop::resume_train(&mut fed, &mut rng, fs, &policy).map(drop)
    } else {
        QuickDrop::train_with_checkpoints(&mut fed, config, &mut rng, fs, &policy).map(drop)
    };
    trained.map_err(Death::error)?;
    Ok(Terminal {
        global: fed.global().to_vec(),
        rng: rng.state(),
        records: Vec::new(),
        stats: None,
        frontier: None,
        files: fs.files(),
        saved: fs.renamed_onto(&policy.path),
        ops: fs.op_log(),
    })
}

/// Every [`Fault`] variant, in the order [`Harness::exhaustive`]
/// enumerates them.
const FAULTS: [Fault; 6] = [
    Fault::Kill,
    Fault::TornWrite(0),
    Fault::FsyncFail,
    Fault::DiskFull,
    Fault::BitFlip(0),
    Fault::ShortRead(0),
];

/// `fault` at operation `op` of a lifetime, a `kind` operation that
/// moved `len` bytes, or `None` where it does not apply. A kill applies
/// everywhere; a torn write tears half of a write or append (its bytes
/// are never durable, so every length leaves the same files after the
/// crash) and a full disk refuses one; an fsync fails; a read that
/// returns a byte comes back with its last bit flipped (inside the final
/// journal frame, which an open takes for a torn tail) or half as long.
/// A read of a missing or empty file has no byte to damage, so no read
/// fault is injected there: it could not fire.
fn enumerated(fault: Fault, op: u64, kind: VfsOp, len: usize) -> Option<FaultSpec> {
    let writes = matches!(kind, VfsOp::Write | VfsOp::Append);
    let reads = kind == VfsOp::Read && len > 0;
    let storage = |fault| Some(FaultSpec::Storage { op, fault });
    match fault {
        Fault::Kill => Some(FaultSpec::Crash(CrashPoint::VfsOp(op))),
        Fault::TornWrite(_) if writes => storage(StorageFault::TornWrite(len / 2)),
        Fault::FsyncFail if kind == VfsOp::Fsync => storage(StorageFault::FsyncFail),
        Fault::DiskFull if writes => storage(StorageFault::DiskFull),
        Fault::BitFlip(_) if reads => storage(StorageFault::BitFlip((len * 8).saturating_sub(1))),
        Fault::ShortRead(_) if reads => storage(StorageFault::ShortRead(len / 2)),
        Fault::TornWrite(_)
        | Fault::FsyncFail
        | Fault::DiskFull
        | Fault::BitFlip(_)
        | Fault::ShortRead(_) => None,
    }
}

/// One invocation's open: the deployment `fs` holds, and the
/// post-training RNG stream, which the journal tail overrides once there
/// is one.
fn open(w: &Workload, fs: &Arc<FaultFs>, seed: &DeploySeed) -> Result<(Deployment, Rng), Death> {
    let mut d = open_on(Arc::clone(fs) as Arc<dyn Vfs>).map_err(Death::error)?;
    if spike_active(w) {
        let spike = FaultPlan::serving_spike(w.train_seed, w.byzantine_frac, w.ascent_spike);
        d.fed.set_fault_plan(Some(spike));
    }
    Ok((d, Rng::from_state(&seed.rng)))
}

/// The model and RNG stream that the `.prev` generation among `files`
/// rolls forward to with their journal: the deployment opened with the
/// primary gone — the fallback a torn primary takes — and the journal
/// tail restored. Behind the train door, the training `train --resume`
/// finishes from `.prev` alone. `None` when it does not open.
pub(crate) fn roll_forward_prev(
    w: &Workload,
    files: &BTreeMap<PathBuf, Vec<u8>>,
) -> Option<(Vec<Tensor>, RngState)> {
    let fs = Arc::new(FaultFs::new());
    fs.reset_to(files.clone());
    fs.remove(&ckpt_path()).ok()?;
    if w.front_door == FrontDoor::Train {
        return train_lifetime(w, &fs).ok().map(|t| (t.global, t.rng));
    }
    let mut d = open_on(fs).ok()?;
    let mut rng = Rng::seed_from(0);
    d.qd.restore_tail(&mut d.fed, &d.journal, &mut rng);
    Some((d.fed.global().to_vec(), rng.state()))
}

fn read_stats(fs: &FaultFs) -> Result<ServeStats, String> {
    let text = fs
        .file(Path::new(STATS))
        .ok_or("a service run but no persisted stats")?;
    let value = serde_json::from_str(&String::from_utf8_lossy(&text)).map_err(|e| e.to_string());
    serde::Deserialize::from_value(&value?).map_err(|e: serde::DeError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The negative control: the harness can fail. A per-request
    /// lifetime whose resume neither restores the journal tail nor
    /// finishes the in-flight unit is unsound from the first durable
    /// record on, and `kill-resume-equivalence` says so at every
    /// enumerated journal boundary — while a kill before anything was
    /// durable, where there is nothing to resume, still passes.
    fn per_request_stream() -> Workload {
        Workload {
            train_seed: 42,
            samples: 120,
            clients: 3,
            rounds: 3,
            byzantine_frac: 0.0,
            net_drop: 0.0,
            ascent_spike: 1.0,
            tenants: 2,
            requests: 3,
            serve_seed: 11,
            breaker_trip: 0,
            breaker_cooldown: 2,
            relearn: true,
            front_door: FrontDoor::PerRequest,
        }
    }

    #[test]
    fn an_unsound_resume_is_caught_at_every_enumerated_boundary() {
        let w = per_request_stream();
        let mut harness = Harness::new();
        harness.resume = |_, _, _, _, _, _| Ok(JournaledRun::Complete(Box::new(None)));
        let schedules = harness.exhaustive(&w).expect("the workload enumerates");
        let mut boundaries = 0;
        for schedule in &schedules {
            let spec = schedule.faults[0].spec;
            let at_boundary = matches!(spec, FaultSpec::Crash(CrashPoint::Boundary { .. }));
            if !at_boundary && spec != FaultSpec::Crash(CrashPoint::VfsOp(0)) {
                continue;
            }
            let report = harness.run(schedule).expect("schedule executes");
            let caught =
                (report.violations.iter()).any(|v| v.invariant == "kill-resume-equivalence");
            assert_eq!(caught, at_boundary, "{spec:?}: {:?}", report.violations);
            boundaries += usize::from(at_boundary);
        }
        assert!(boundaries > 0, "the workload must reach journal boundaries");
    }

    /// The `.prev` rule's negative control: a well-formed checkpoint that
    /// no run saved, put where the faulted run's `.prev` is, rolls forward
    /// with the journal like any generation would, and
    /// `kill-resume-equivalence` still refuses it.
    #[test]
    fn a_foreign_prev_generation_is_caught() {
        let mut harness = Harness::new();
        let schedules = harness
            .exhaustive(&per_request_stream())
            .expect("enumerates");
        let schedule = schedules.last().expect("non-empty");
        let mut outcome = harness.execute(schedule).expect("schedule executes");
        assert_eq!(outcome.report().violations, []);

        let fs = FaultFs::new();
        let (path, prev) = (ckpt_path(), Checkpoint::prev_path(&ckpt_path()));
        fs.reset_to([(path.clone(), outcome.reference.saved[0].clone())].into());
        let (mut global, qd) = Checkpoint::load_on(&fs, &path).unwrap().restore().unwrap();
        global[0].data_mut()[0] += 1.0;
        Checkpoint::capture(&global, &qd)
            .save_on(&fs, &path)
            .unwrap();
        let foreign = fs.file(&path).unwrap();
        assert!(!outcome.reference.saved.contains(&foreign));

        let faulted = outcome.faulted.as_mut().expect("the run completed");
        faulted.files.insert(prev.clone(), foreign);
        let w = &outcome.schedule.workload;
        let (global, rng) = roll_forward_prev(w, &faulted.files).expect("it opens");
        let bits = |ts: &[Tensor]| -> Vec<u32> {
            (ts.iter())
                .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                .collect()
        };
        assert!(bits(&global) == bits(&faulted.global) && rng == faulted.rng);
        let violation = (outcome.report().violations.into_iter())
            .find(|v| v.invariant == "kill-resume-equivalence")
            .expect("a foreign .prev is a violation");
        assert_eq!(
            violation.detail,
            format!(
                "{} holds no checkpoint generation the reference saved",
                prev.display()
            )
        );
    }
}
