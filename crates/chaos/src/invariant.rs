//! The invariant registry: what must hold after every chaos run.
//!
//! Each invariant is a [`dyn Invariant`](Invariant) over the whole
//! [`RunOutcome`] — the schedule, the fault-free reference terminal
//! and the faulted terminal — and returns a typed [`Violation`] on
//! failure. Violation details are fully deterministic strings, because
//! `qd chaos --replay` asserts a stored violation reproduces
//! byte-for-byte.

use crate::scenario::{RunOutcome, Terminal};
use serde::{Deserialize, Serialize};

/// One invariant failure, serializable into `chaos-repro.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The [`Invariant::name`] that tripped.
    pub invariant: String,
    /// Deterministic description of the first divergence found.
    pub detail: String,
}

/// A property of the system that every chaos run must preserve.
pub trait Invariant {
    /// Stable kebab-case identifier (keys `chaos-repro.json` and the
    /// README contract table, which states each contract).
    fn name(&self) -> &'static str;
    /// Evaluates the invariant; `Some` is a violation's detail.
    fn check(&self, run: &RunOutcome) -> Option<String>;
}

/// The full registry, in the order invariants are evaluated.
pub fn registry() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(RunCompletes),
        Box::new(KillResumeEquivalence),
        Box::new(JournalFrontier),
        Box::new(StatsAccounting),
        Box::new(GuardMonotonicity),
        Box::new(NoOrphanedTmp),
    ]
}

/// Liveness: the faulted run reaches a terminal state within the
/// schedule's resume budget.
struct RunCompletes;

impl Invariant for RunCompletes {
    fn name(&self) -> &'static str {
        "run-completes"
    }
    fn check(&self, run: &RunOutcome) -> Option<String> {
        run.stalled().then(|| {
            format!(
                "stalled after {} lifetime(s) (max_resumes {}): {}",
                run.attempts, run.schedule.max_resumes, run.last_error
            )
        })
    }
}

/// The headline crash-recovery contract: the faulted run's terminal
/// state is bit-for-bit the fault-free reference — model bits, RNG
/// stream, every journal record, stats, and every surviving byte on
/// disk but the checkpoint's `.prev` generation, which must be one the
/// reference saved and roll forward with the journal to the terminal.
struct KillResumeEquivalence;

impl Invariant for KillResumeEquivalence {
    fn name(&self) -> &'static str {
        "kill-resume-equivalence"
    }
    fn check(&self, run: &RunOutcome) -> Option<String> {
        let faulted = run.faulted.as_ref()?;
        compare_terminals(&run.reference, faulted)
    }
}

/// The first divergence between two terminals, or `None` when they are
/// bit-for-bit identical in every compared dimension.
fn compare_terminals(reference: &Terminal, faulted: &Terminal) -> Option<String> {
    if let Some(detail) = compare_params("global model", &reference.global, &faulted.global) {
        return Some(detail);
    }
    if reference.rng != faulted.rng {
        return Some("RNG stream position diverged at terminal state".to_string());
    }
    if reference.records.len() != faulted.records.len() {
        return Some(format!(
            "journal length diverged: reference {} record(s), faulted {}",
            reference.records.len(),
            faulted.records.len()
        ));
    }
    for (a, b) in reference.records.iter().zip(&faulted.records) {
        if (a.seq, a.request, a.state, a.batch) != (b.seq, b.request, b.state, b.batch) {
            return Some(format!(
                "journal record diverged: reference seq {} {} {:?} vs faulted seq {} {} {:?}",
                a.seq, a.request, a.state, b.seq, b.request, b.state
            ));
        }
        if a.rng != b.rng {
            return Some(format!(
                "record RNG diverged at seq {} {:?}",
                a.seq, a.state
            ));
        }
        if a.guard != b.guard {
            return Some(format!(
                "record guard stats diverged at seq {} {:?}",
                a.seq, a.state
            ));
        }
        if let Some(detail) = compare_params("journaled model", &a.global, &b.global) {
            return Some(format!("at seq {} {:?}: {detail}", a.seq, a.state));
        }
    }
    if reference.stats != faulted.stats {
        return Some(format!(
            "stats diverged: reference {:?} vs faulted {:?}",
            reference.stats, faulted.stats
        ));
    }
    let ref_files: Vec<_> = reference.files.keys().collect();
    let faulted_files: Vec<_> = faulted.files.keys().collect();
    if ref_files != faulted_files {
        return Some(format!(
            "on-disk file set diverged: reference {ref_files:?} vs faulted {faulted_files:?}"
        ));
    }
    // How many saves a crash history ran decides which generation ends
    // up as `.prev`; any the reference saved is sound if it rolls forward.
    let prev = qd_core::Checkpoint::prev_path(&crate::scenario::ckpt_path());
    for (path, bytes) in &reference.files {
        if *path != prev && faulted.files.get(path).is_none_or(|b| b != bytes) {
            return Some(format!("bytes of {} diverged", path.display()));
        }
    }
    let prev_bytes = faulted.files.get(&prev)?;
    let prev = prev.display();
    if !reference.saved.contains(prev_bytes) {
        return Some(format!(
            "{prev} holds no checkpoint generation the reference saved"
        ));
    }
    let rolled = crate::scenario::roll_forward_prev(&faulted.files);
    let rolls_forward = rolled.is_some_and(|(global, rng)| {
        rng == faulted.rng && compare_params("", &global, &faulted.global).is_none()
    });
    (!rolls_forward).then(|| format!("{prev} and the journal do not roll forward to the terminal"))
}

fn compare_params(what: &str, a: &[qd_tensor::Tensor], b: &[qd_tensor::Tensor]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!(
            "{what}: parameter count diverged ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.data().len() != y.data().len() {
            return Some(format!("{what}: tensor {i} shape diverged"));
        }
        for (j, (u, v)) in x.data().iter().zip(y.data()).enumerate() {
            if u.to_bits() != v.to_bits() {
                return Some(format!("{what}: tensor {i} element {j} diverged"));
            }
        }
    }
    None
}

/// The journal aligns with the plan and its frontier is internally
/// consistent on a completed run: every unit done, and every member
/// with a durable RECEIVED record reached exactly one terminal state.
struct JournalFrontier;

impl Invariant for JournalFrontier {
    fn name(&self) -> &'static str {
        "journal-frontier"
    }
    fn check(&self, run: &RunOutcome) -> Option<String> {
        for (which, terminal) in run.terminals()? {
            let Some(frontier) = &terminal.frontier else {
                continue;
            };
            let summary = match frontier {
                Ok(s) => s,
                Err(e) => return Some(format!("{which} journal failed plan alignment: {e}")),
            };
            if summary.done != summary.units {
                return Some(format!(
                    "{which} frontier incomplete: {} of {} unit(s) done on a terminal run",
                    summary.done, summary.units
                ));
            }
            let terminal_members = summary.recovered + summary.quarantined + summary.failed;
            if terminal_members != summary.received {
                return Some(format!(
                    "{which} frontier leaks members: {} RECEIVED but {} terminal \
                         ({} recovered + {} quarantined + {} failed)",
                    summary.received,
                    terminal_members,
                    summary.recovered,
                    summary.quarantined,
                    summary.failed
                ));
            }
        }
        None
    }
}

/// The ServeStats accounting identities hold unconditionally.
struct StatsAccounting;

impl Invariant for StatsAccounting {
    fn name(&self) -> &'static str {
        "stats-accounting"
    }
    fn check(&self, run: &RunOutcome) -> Option<String> {
        for (which, terminal) in run.terminals()? {
            // The per-request front door reports no stats.
            let Some(s) = &terminal.stats else {
                continue;
            };
            let accounted = s.served + s.quarantined + s.shed + s.pending;
            if s.admitted != accounted {
                return Some(format!(
                    "{which}: admitted {} != served {} + quarantined {} + shed {} + pending {}",
                    s.admitted, s.served, s.quarantined, s.shed, s.pending
                ));
            }
            if s.offered != s.admitted + s.rejected {
                return Some(format!(
                    "{which}: offered {} != admitted {} + rejected {}",
                    s.offered, s.admitted, s.rejected
                ));
            }
            let by_tenant: u64 = s.rejected_by_tenant.iter().sum();
            if s.rejected != by_tenant {
                return Some(format!(
                    "{which}: rejected {} != per-tenant sum {}",
                    s.rejected, by_tenant
                ));
            }
            if s.breaker.len() != s.tenants {
                return Some(format!(
                    "{which}: {} breaker label(s) for {} tenant(s)",
                    s.breaker.len(),
                    s.tenants
                ));
            }
            // Every terminal the harness builds comes from a run that
            // finished its plan: nothing may still be pending or
            // flagged partial.
            if s.pending != 0 || s.partial {
                return Some(format!(
                    "{which}: terminal stats report pending {} / partial {}",
                    s.pending, s.partial
                ));
            }
        }
        None
    }
}

/// Every journaled guard report is internally consistent (rollbacks
/// bounded by steps, LR halvings bounded by rollbacks, finite
/// non-negative drift).
struct GuardMonotonicity;

impl Invariant for GuardMonotonicity {
    fn name(&self) -> &'static str {
        "guard-monotonicity"
    }
    fn check(&self, run: &RunOutcome) -> Option<String> {
        for (which, terminal) in run.terminals()? {
            for record in &terminal.records {
                if let Some(guard) = &record.guard {
                    if !guard.is_consistent() {
                        return Some(format!(
                            "{which}: inconsistent guard stats at seq {} {:?}: \
                                 steps {} rollbacks {} lr_halvings {} drift {}",
                            record.seq,
                            record.state,
                            guard.steps,
                            guard.rollbacks,
                            guard.lr_halvings,
                            guard.final_drift
                        ));
                    }
                }
            }
        }
        None
    }
}

/// Crash recovery leaves no stranded `.tmp` siblings behind: the
/// atomic-write discipline either renames or sweeps them.
struct NoOrphanedTmp;

impl Invariant for NoOrphanedTmp {
    fn name(&self) -> &'static str {
        "no-orphaned-tmp"
    }
    fn check(&self, run: &RunOutcome) -> Option<String> {
        for (which, terminal) in run.terminals()? {
            for path in terminal.files.keys() {
                if path.to_string_lossy().ends_with(".tmp") {
                    return Some(format!("{which}: orphaned tmp file {}", path.display()));
                }
            }
        }
        None
    }
}
