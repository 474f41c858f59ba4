//! qd-chaos: whole-system deterministic fault orchestration.
//!
//! A FoundationDB-style simulation harness over the whole QuickDrop
//! stack. One serializable [`ChaosSchedule`] composes faults across
//! every layer — a lossy training network, Byzantine clients (training
//! poison and serving ascent spikes), storage faults, and process deaths
//! at storage syscalls or journal boundaries — over a single deploy →
//! serve → crash → resume → relearn run, or over checkpointed training
//! itself. After every run a pluggable
//! [`Invariant`] registry checks the terminal state: journal frontier
//! consistency, bit-for-bit kill-and-resume equivalence against a
//! fault-free reference, `ServeStats` accounting identities, guard
//! monotonicity, and no orphaned tmp files.
//!
//! [`Harness::exhaustive`] enumerates a workload's schedules: every
//! `qd_core::Fault` at every `Vfs` operation it applies to, and a kill
//! at every journal boundary. Each holds one fault, so a violating one
//! is already minimal: written with its violation as a [`Repro`]
//! (`chaos-repro.json`), `quickdrop-cli chaos --replay` re-executes it
//! and demands the same violation byte-for-byte.
//!
//! The core discipline is the *environment vs failures* split: the
//! workload half of a schedule (training mix, serving traffic, spikes)
//! runs in both the reference and the faulted run; the failure half
//! (storage faults, crash points) runs only in the faulted run. Any
//! divergence between the two terminal states is therefore a crash-
//! recovery bug, not workload noise.

#![warn(missing_docs)]

pub mod invariant;
pub mod scenario;
pub mod schedule;

pub use invariant::{registry, Invariant, Repro, Violation};
pub use scenario::{ChaosError, Harness, RunOutcome, RunReport, Terminal};
pub use schedule::{ChaosSchedule, FaultSpec, FrontDoor, InjectedFault, StorageFault, Workload};
