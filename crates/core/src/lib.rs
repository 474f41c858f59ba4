//! QuickDrop: efficient federated unlearning via synthetic data
//! generation — the core contribution of the paper (Dhasade et al.,
//! MIDDLEWARE 2024).
//!
//! # The idea
//!
//! Every gradient-based federated unlearning method pays to recompute or
//! store gradients. QuickDrop instead has each client distil, *during
//! ordinary FL training*, a tiny synthetic dataset whose gradients mimic
//! those of its real data (`qd-distill`). Serving an unlearning request
//! then costs almost nothing:
//!
//! 1. **Unlearning** — gradient *ascent* on the synthetic counterpart of
//!    the forget set `S_f` (one round suffices);
//! 2. **Recovery** — ordinary descent on the synthetic retain set
//!    `S \ S_f` (two rounds), optionally augmented 1:1 with real samples;
//! 3. **Relearning** — descent on `S_f` restores revoked requests.
//!
//! The synthetic data is ~1% of the original volume (scale `s = 100`), so
//! each stage touches orders of magnitude fewer samples — the source of
//! the paper's 463x speedup over retraining.
//!
//! # Workflow
//!
//! [`QuickDrop::train`] executes step 1 of Figure 1 (FL training +
//! in-situ distillation) and returns a [`QuickDrop`] handle that
//! implements [`qd_unlearn::UnlearningMethod`], making it a drop-in peer
//! of the baselines for every experiment harness.
//!
//! # Examples
//!
//! End-to-end class unlearning on a toy federation:
//!
//! ```
//! use std::sync::Arc;
//! use qd_core::{QuickDrop, QuickDropConfig};
//! use qd_data::{partition_iid, SyntheticDataset};
//! use qd_fed::Federation;
//! use qd_nn::{Mlp, Module};
//! use qd_tensor::rng::Rng;
//! use qd_unlearn::{UnlearnRequest, UnlearningMethod};
//!
//! let mut rng = Rng::seed_from(0);
//! let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
//! let data = SyntheticDataset::Digits.generate(120, &mut rng);
//! let parts = partition_iid(data.len(), 2, &mut rng);
//! let clients = parts.iter().map(|p| data.subset(p)).collect();
//! let mut fed = Federation::new(model, clients, &mut rng);
//!
//! let config = QuickDropConfig::scaled_test();
//! let (mut quickdrop, _report) = QuickDrop::train(&mut fed, config, &mut rng);
//! let outcome = quickdrop.unlearn(&mut fed, UnlearnRequest::Class(3), &mut rng);
//! assert!(outcome.unlearn.data_size < 120); // synthetic volume ≪ original
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod checkpoint;
mod config;
pub mod frame;
mod journal;
mod lifecycle;
mod system;
pub mod vfs;

pub use checkpoint::{Checkpoint, CheckpointError, MidPhase, CHECKPOINT_VERSION};
pub use config::QuickDropConfig;
pub use journal::{
    check_lazy_snapshots, eager_snapshots, segment_path, BatchId, FailReason, JournalError,
    JournalRecord, RequestJournal, RequestState, Snapshot, TailRepair, JOURNAL_MAGIC,
    JOURNAL_VERSION,
};
pub use lifecycle::{
    units, BatchOutcome, BatchPreempt, JournaledRun, ReplayMismatch, ServeError, ShapeError, Unit,
    UnitMember,
};
/// The model trait [`QuickDrop::serving_federation`] builds on, for the
/// crates that open a deployment without depending on qd-nn.
pub use qd_nn::Module;
pub use system::{CheckpointPolicy, QuickDrop, TrainReport, TrainRun};
pub use vfs::{storage_cause, CrashPoint, Fault, FaultFs, StdFs, StorageError, Vfs, VfsOp};
