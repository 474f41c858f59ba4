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
//! A lifetime serves through one of two front doors ([`FrontDoor`]):
//! the service executor, or the per-request journaled calls.
//! [`Harness::exhaustive`] enumerates every single-death schedule of a
//! workload — each `Vfs` operation of the fault-free lifetime, each
//! journal boundary its units reach — beside the seeded sampler
//! [`ChaosSchedule::generate`].

use crate::schedule::{ChaosSchedule, FaultSpec, FrontDoor, InjectedFault, Workload};
use qd_core::{
    units, BatchPreempt, Checkpoint, CrashPoint, FaultFs, JournalRecord, JournaledRun, QuickDrop,
    QuickDropConfig, RequestJournal, RequestState, ServeError, Snapshot, Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{FaultPlan, Federation, Phase};
use qd_net::{NetConfig, SimNet};
use qd_nn::{Mlp, Module};
use qd_serve::{
    build_plan, frontier_summary, run_service_isolated, ChaosKill, FrontierSummary,
    IsolationConfig, ServeConfig, ServeStats,
};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, MethodOutcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
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
    /// Every durable journal record.
    pub records: Vec<JournalRecord<Snapshot>>,
    /// The reported SLA stats (`None` behind the per-request front
    /// door, which reports none).
    pub stats: Option<ServeStats>,
    /// Journal↔plan frontier alignment, when the journal is still
    /// alignable (`None` after a RELEARNED terminal record, which
    /// [`qd_serve::frontier_summary`] rightly refuses).
    pub frontier: Option<Result<FrontierSummary, String>>,
    /// Every surviving on-disk file, bit for bit.
    pub files: BTreeMap<PathBuf, Vec<u8>>,
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

    /// Checks the full invariant registry against this outcome.
    pub fn report(&self) -> RunReport {
        let registry = crate::invariant::registry();
        RunReport {
            completed: !self.stalled(),
            attempts: self.attempts,
            faults_fired: self.faults_fired,
            invariants_checked: registry.len() as u64,
            violations: registry.iter().filter_map(|i| i.check(self)).collect(),
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
            Death::Boundary(units) => {
                write!(
                    f,
                    "preempted at journal boundary after {units} executed unit(s)"
                )
            }
            Death::Error(message) => f.write_str(message),
        }
    }
}

/// The serializable result of one schedule execution: what `qd chaos`
/// prints per run and what the determinism tests compare.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// A fault-free reference lifetime: where it ended, and how many `Vfs`
/// operations it took to get there.
struct Reference {
    terminal: Terminal,
    ops: u64,
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
    references: BTreeMap<String, Reference>,
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

fn ckpt_path() -> PathBuf {
    PathBuf::from("chaos.ckpt.json")
}

fn stats_path() -> PathBuf {
    PathBuf::from("chaos.stats.json")
}

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
    /// invariants — what the shrinker re-runs candidates through.
    ///
    /// # Errors
    ///
    /// As [`Harness::run`].
    pub fn execute(&mut self, schedule: &ChaosSchedule) -> Result<RunOutcome, ChaosError> {
        schedule.validate().map_err(ChaosError)?;
        let w = schedule.workload.clone();
        let reference = self.reference(&w)?.terminal.clone();

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
        let key = env_key(w);
        if self.deploys.contains_key(&key) {
            return Ok(());
        }
        let mut rng = Rng::seed_from(w.train_seed);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
        let data = SyntheticDataset::Digits.generate(w.samples, &mut rng);
        let parts = partition_iid(data.len(), w.clients, &mut rng);
        let clients = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model, clients, &mut rng);
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
        cfg.train_phase = Phase::training(w.rounds, 2, 16, 0.1);
        let (qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
        fed.set_fault_plan(None);
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
    fn reference(&mut self, w: &Workload) -> Result<&Reference, ChaosError> {
        self.ensure_deploy(w)?;
        let key = workload_key(w);
        if !self.references.contains_key(&key) {
            let fs = Arc::new(FaultFs::new());
            let terminal = self
                .attempt(w, &fs, None)
                .map_err(|e| ChaosError(format!("fault-free reference run failed: {e}")))?;
            let ops = fs.op_count();
            self.references
                .insert(key.clone(), Reference { terminal, ops });
        }
        self.references
            .get(&key)
            .ok_or_else(|| ChaosError("reference cache miss after fill".to_string()))
    }

    /// Every single-death schedule of `w`: one kill per `Vfs` operation
    /// of its fault-free lifetime, and one per journal boundary each
    /// planned unit reaches in it — RECEIVED always; FAILED and
    /// QUARANTINED where the reference run shed or quarantined a member
    /// of the unit; `Unlearned(k)` for each member it served, and
    /// RECOVERED if it served any. Both bounds come from the reference
    /// run, so every schedule's kill fires, and one resume is all it is
    /// allowed.
    ///
    /// # Errors
    ///
    /// As [`Harness::run`].
    pub fn exhaustive(&mut self, w: &Workload) -> Result<Vec<ChaosSchedule>, ChaosError> {
        let single_death = |point| ChaosSchedule {
            seed: w.train_seed,
            workload: w.clone(),
            faults: vec![InjectedFault {
                attempt: 0,
                spec: FaultSpec::Crash(point),
            }],
            max_resumes: 1,
        };
        single_death(CrashPoint::VfsOp(0))
            .validate()
            .map_err(ChaosError)?;
        let reference = self.reference(w)?;
        let mut points: Vec<CrashPoint> = (0..reference.ops).map(CrashPoint::VfsOp).collect();
        // The reference run served the whole plan, so its journal's
        // units are the plan's, in plan order.
        let journaled =
            units(&reference.terminal.records).map_err(|e| ChaosError(e.to_string()))?;
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
            points.extend(
                (boundaries.into_iter()).map(|boundary| CrashPoint::Boundary { unit, boundary }),
            );
        }
        Ok(points.into_iter().map(single_death).collect())
    }

    /// One process lifetime: deploy or recover from whatever `fs`
    /// holds, serve the plan to completion through the workload's front
    /// door, relearn when the workload asks for it. Any surfaced storage
    /// error or boundary preemption is the process dying, reported as
    /// `Err`.
    fn attempt(
        &self,
        w: &Workload,
        fs: &Arc<FaultFs>,
        kill: Option<ChaosKill>,
    ) -> Result<Terminal, Death> {
        let seed = self
            .deploys
            .get(&env_key(w))
            .ok_or_else(|| Death::error("deploy cache miss"))?;
        let ckpt = ckpt_path();
        let journal_path = RequestJournal::path_for_checkpoint(&ckpt);

        // Deploy fresh or recover the durable checkpoint. The fresh
        // path saves the checkpoint before any journal write, so a
        // missing checkpoint implies an empty journal.
        let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
        let deployment = if fs.file(&ckpt).is_none() {
            seed.ckpt
                .save_on(fs.as_ref(), &ckpt)
                .map_err(Death::error)?;
            seed.ckpt.clone()
        } else {
            let (loaded, _fell_back) = Checkpoint::load_with_fallback_on(fs.as_ref(), &ckpt)
                .map_err(|e| Death::error(ServeError::from(e)))?;
            loaded
        };
        let (mut qd, mut fed, mut journal) = deployment
            .open_on(vfs, &journal_path, model)
            .map_err(Death::error)?;
        // The post-training stream; the journal tail, once there is
        // one, overrides it.
        let mut rng = Rng::from_state(&seed.rng);

        if spike_active(w) {
            fed.set_fault_plan(Some(FaultPlan::serving_spike(
                w.train_seed,
                w.byzantine_frac,
                w.ascent_spike,
            )));
        }
        let cfg = serve_config(w);
        let service = w.front_door == FrontDoor::Service;

        let journaled = units(journal.records()).map_err(Death::error)?;
        let mut members = journaled.iter().flat_map(|unit| &unit.members);
        let relearned = members.any(|m| m.state == RequestState::Relearned);
        if relearned {
            // A previous lifetime finished the whole lifecycle; rebuild
            // live state from the tail and reread the persisted stats.
            qd.restore_tail(&mut fed, &journal, &mut rng);
            let stats = if service {
                Some(read_stats(fs).map_err(Death::error)?)
            } else {
                None
            };
            return Ok(Terminal {
                global: fed.global().to_vec(),
                rng: rng.state(),
                records: journal.records().to_vec(),
                stats,
                frontier: None,
                files: fs.files(),
            });
        }

        let stats = if service {
            // The executor finishes whatever unit a previous lifetime
            // left in flight, under the policy (ladder rung) it started
            // under.
            let run = run_service_isolated(
                &mut qd,
                &mut fed,
                &mut journal,
                &cfg,
                Some(&guard_policy()),
                &isolation(w),
                &mut rng,
                kill,
            )
            .map_err(Death::error)?;
            if run.preempted {
                return Err(Death::Boundary(run.executed_units));
            }
            Some(run.stats)
        } else {
            self.serve_per_request(&cfg, &mut qd, &mut fed, &mut journal, &mut rng, kill)?;
            None
        };

        let frontier = frontier_summary(&cfg, &journal).map_err(|e| e.to_string());
        if let Some(stats) = &stats {
            stats
                .save_json_on(fs.as_ref(), &stats_path())
                .map_err(Death::error)?;
        }

        if w.relearn {
            let recovered = (units(journal.records()).map_err(Death::error)?.iter())
                .flat_map(|unit| &unit.members)
                .find(|m| m.state == RequestState::Recovered)
                .map(|m| m.request);
            if let Some(request) = recovered {
                let phase = qd.config().relearn_phase;
                qd.relearn_journaled(&mut fed, &mut journal, request, &phase, &mut rng)
                    .map_err(Death::error)?;
            }
        }

        Ok(Terminal {
            global: fed.global().to_vec(),
            rng: rng.state(),
            records: journal.records().to_vec(),
            stats,
            frontier: Some(frontier),
            files: fs.files(),
        })
    }

    /// The per-request front door: what a sequence of `quickdrop-cli
    /// unlearn --journal` invocations does to an open deployment, in
    /// one lifetime. Finish the unit a previous lifetime left in flight
    /// (restoring model, RNG and marks from the journal tail), then
    /// serve every planned unit that has not started, each through its
    /// own journaled call. `kill` names a plan unit whichever call
    /// executes it.
    fn serve_per_request(
        &self,
        cfg: &ServeConfig,
        qd: &mut QuickDrop,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        rng: &mut Rng,
        kill: Option<ChaosKill>,
    ) -> Result<(), Death> {
        let plan = build_plan(cfg).map_err(Death::error)?;
        let policy = guard_policy();
        let preempt_in = |unit: usize| kill.filter(|k| k.unit_index == unit).map(|k| k.boundary);
        // Units are served in plan order, so the journal's are the
        // plan's leading ones.
        let started = units(journal.records()).map_err(Death::error)?.len();
        let in_flight = started.checked_sub(1).and_then(preempt_in);
        let resumed =
            (self.resume)(qd, fed, journal, Some(&policy), rng, in_flight).map_err(Death::error)?;
        let resumed = match resumed {
            JournaledRun::Preempted { .. } => return Err(Death::Boundary(0)),
            JournaledRun::Complete(finished) => u64::from(finished.is_some()),
        };
        for (index, unit) in plan.batches.iter().enumerate().skip(started) {
            let (policy, preempt) = (Some(&policy), preempt_in(index));
            let served = match unit.members.as_slice() {
                &[alone] => qd
                    .serve_journaled(fed, journal, alone, policy, rng, preempt)
                    .map(|run| run.into_complete().is_some()),
                members => qd
                    .serve_batch_journaled(fed, journal, members, policy, rng, preempt)
                    .map(|run| run.into_complete().is_some()),
            };
            if !served.map_err(Death::error)? {
                return Err(Death::Boundary(resumed + (index - started) as u64));
            }
        }
        Ok(())
    }
}

fn read_stats(fs: &FaultFs) -> Result<ServeStats, String> {
    let bytes = fs
        .file(&stats_path())
        .ok_or_else(|| "RELEARNED journal but no persisted stats".to_string())?;
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    let value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
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
    #[test]
    fn an_unsound_resume_is_caught_at_every_enumerated_boundary() {
        let w = Workload {
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
        };
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
}
