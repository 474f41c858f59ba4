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

use crate::schedule::{ChaosSchedule, Workload};
use qd_core::{
    Checkpoint, CrashPoint, FaultFs, JournalRecord, QuickDrop, QuickDropConfig, RequestJournal,
    RequestState, Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{FaultPlan, Federation, Phase};
use qd_net::NetConfig;
use qd_nn::{Mlp, Module};
use qd_serve::{
    frontier_summary, run_service_isolated, ChaosKill, FrontierSummary, IsolationConfig,
    ServeConfig, ServeStats,
};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
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
    pub records: Vec<JournalRecord>,
    /// The reported SLA stats.
    pub stats: ServeStats,
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

/// The chaos executor. Caches trained deployments and fault-free
/// reference terminals across runs, keyed by the workload knobs that
/// produced them, so a multi-run sweep trains once per environment.
#[derive(Default)]
pub struct Harness {
    deploys: BTreeMap<String, DeploySeed>,
    references: BTreeMap<String, Terminal>,
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

fn serve_config(w: &Workload) -> ServeConfig {
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

fn guard_policy() -> qd_unlearn::GuardPolicy {
    // Coalesced batches run several ascents back-to-back before the
    // shared recovery, so drift accumulates well past the
    // single-request budget; keep a real budget in force with enough
    // headroom that a clean run never rolls back.
    qd_unlearn::GuardPolicy {
        drift_budget: 64.0,
        ..qd_unlearn::GuardPolicy::default()
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
        let outcome = self.execute(schedule)?;
        let registry = crate::invariant::registry();
        let mut violations = Vec::new();
        for invariant in &registry {
            if let Some(v) = invariant.check(&outcome) {
                violations.push(v);
            }
        }
        Ok(RunReport {
            completed: !outcome.stalled(),
            attempts: outcome.attempts,
            faults_fired: outcome.faults_fired,
            invariants_checked: registry.len() as u64,
            violations,
        })
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
        self.ensure_deploy(&w)?;
        self.ensure_reference(&w)?;
        let reference = self
            .references
            .get(&workload_key(&w))
            .cloned()
            .ok_or_else(|| ChaosError("reference cache miss after fill".to_string()))?;

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
                    if death.starts_with(BOUNDARY_DEATH) {
                        faults_fired += 1;
                    }
                    last_error = death;
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
        let mut cfg = QuickDropConfig::scaled_test();
        cfg.train_phase = Phase::training(w.rounds, 2, 16, 0.1);
        let cfg = cfg.with_net(NetConfig::lossy(w.train_seed, w.net_drop));
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

    fn ensure_reference(&mut self, w: &Workload) -> Result<(), ChaosError> {
        let key = workload_key(w);
        if self.references.contains_key(&key) {
            return Ok(());
        }
        let fs = Arc::new(FaultFs::new());
        let terminal = self
            .attempt(w, &fs, None)
            .map_err(|e| ChaosError(format!("fault-free reference run failed: {e}")))?;
        self.references.insert(key, terminal);
        Ok(())
    }

    /// One process lifetime: deploy or recover from whatever `fs`
    /// holds, serve to completion, persist stats, relearn when the
    /// workload asks for it. Any surfaced storage error or boundary
    /// preemption is the process dying, reported as `Err`.
    fn attempt(
        &self,
        w: &Workload,
        fs: &Arc<FaultFs>,
        kill: Option<ChaosKill>,
    ) -> Result<Terminal, String> {
        let seed = self
            .deploys
            .get(&env_key(w))
            .ok_or_else(|| "deploy cache miss".to_string())?;
        let ckpt = ckpt_path();
        let journal_path = RequestJournal::path_for_checkpoint(&ckpt);

        // Deploy fresh or recover the durable checkpoint. The fresh
        // path saves the checkpoint before any journal write, so a
        // missing checkpoint implies an empty journal.
        let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
        let (mut qd, mut fed, mut journal) = if fs.file(&ckpt).is_none() {
            seed.ckpt
                .save_on(fs.as_ref(), &ckpt)
                .map_err(|e| e.to_string())?;
            seed.ckpt.clone().open_on(vfs, &journal_path, model)
        } else {
            QuickDrop::open_deployment(vfs, &ckpt, &journal_path, model)
                .map(|(qd, fed, journal, _fell_back)| (qd, fed, journal))
        }
        .map_err(|e| e.to_string())?;
        let mut rng = Rng::from_state(&seed.rng);

        if spike_active(w) {
            fed.set_fault_plan(Some(FaultPlan::serving_spike(
                w.train_seed,
                w.byzantine_frac,
                w.ascent_spike,
            )));
        }
        let cfg = serve_config(w);
        let policy = guard_policy();
        let iso = isolation(w);

        let relearned = journal
            .records()
            .iter()
            .any(|r| r.state == RequestState::Relearned);
        if relearned {
            // A previous lifetime finished the whole lifecycle; rebuild
            // live state from the tail and reread the persisted stats.
            qd.restore_tail(&mut fed, &journal, &mut rng);
            let stats = read_stats(fs)?;
            return Ok(Terminal {
                global: fed.global().to_vec(),
                rng: rng.state(),
                records: journal.records().to_vec(),
                stats,
                frontier: None,
                files: fs.files(),
            });
        }

        // The executor finishes whatever unit a previous lifetime left
        // in flight, under the policy (ladder rung) it started under.
        let run = run_service_isolated(
            &mut qd,
            &mut fed,
            &mut journal,
            &cfg,
            Some(&policy),
            &iso,
            &mut rng,
            kill,
        )
        .map_err(|e| e.to_string())?;
        if run.preempted {
            return Err(format!(
                "{BOUNDARY_DEATH} after {} executed unit(s)",
                run.executed_units
            ));
        }

        let frontier = frontier_summary(&cfg, &journal).map_err(|e| e.to_string());
        run.stats
            .save_json_on(fs.as_ref(), &stats_path())
            .map_err(|e| e.to_string())?;

        if w.relearn {
            let recovered = journal
                .records()
                .iter()
                .find(|r| r.state == RequestState::Recovered)
                .map(|r| r.request);
            if let Some(request) = recovered {
                let phase = qd.config().relearn_phase;
                qd.relearn_journaled(&mut fed, &mut journal, request, &phase, &mut rng)
                    .map_err(|e| e.to_string())?;
            }
        }

        Ok(Terminal {
            global: fed.global().to_vec(),
            rng: rng.state(),
            records: journal.records().to_vec(),
            stats: run.stats,
            frontier: Some(frontier),
            files: fs.files(),
        })
    }
}

/// Prefix of the death message a journal-boundary kill produces; the
/// fault accounting uses it to count the kill as fired (a boundary
/// preemption leaves no unfired entry in the `FaultFs` schedule).
const BOUNDARY_DEATH: &str = "preempted at journal boundary";

fn read_stats(fs: &FaultFs) -> Result<ServeStats, String> {
    let bytes = fs
        .file(&stats_path())
        .ok_or_else(|| "RELEARNED journal but no persisted stats".to_string())?;
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    let value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
}
