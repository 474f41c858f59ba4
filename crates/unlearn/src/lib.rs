//! Federated unlearning: the method abstraction and the five baselines
//! QuickDrop is evaluated against (Section 2.3 / Table 1 of the paper).
//!
//! | method | idea | class-level | client-level | relearn |
//! |---|---|---|---|---|
//! | [`RetrainOracle`] | retrain from scratch on `D \ D_f` | ✓ | ✓ | ✓ |
//! | [`SgaOriginal`] | gradient ascent on `D_f`, recovery on `D \ D_f` | ✓ | ✓ | ✓ |
//! | [`FedEraser`] | replay stored round updates, calibrated on retain data | ✓ | ✓ | ✓ |
//! | [`FuMp`] | prune the channels most discriminative of the target class | ✓ | ✗ | ✗ |
//! | [`S2U`] | scale down the forgetting client's updates, scale up the rest | ✗ | ✓ | ✓ |
//!
//! QuickDrop itself implements the same [`UnlearningMethod`] trait in
//! `qd-core`, so every experiment harness treats all six uniformly.
//!
//! # Examples
//!
//! Run the SGA baseline on a tiny federation:
//!
//! ```
//! use std::sync::Arc;
//! use qd_data::{partition_iid, SyntheticDataset};
//! use qd_fed::{Federation, Phase};
//! use qd_nn::{Mlp, Module};
//! use qd_tensor::rng::Rng;
//! use qd_unlearn::{SgaOriginal, UnlearnRequest, UnlearningMethod};
//!
//! let mut rng = Rng::seed_from(0);
//! let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
//! let data = SyntheticDataset::Digits.generate(100, &mut rng);
//! let parts = partition_iid(data.len(), 2, &mut rng);
//! let clients = parts.iter().map(|p| data.subset(p)).collect();
//! let mut fed = Federation::new(model, clients, &mut rng);
//! let mut method = SgaOriginal::new(
//!     Phase::unlearning(1, 2, 16, 0.02),
//!     Phase::training(1, 2, 16, 0.01),
//! );
//! let outcome = method.unlearn(&mut fed, UnlearnRequest::Class(3), &mut rng);
//! assert_eq!(outcome.unlearn.rounds, 1);
//! ```

#![warn(missing_docs)]

mod federaser;
mod fump;
mod guard;
mod method;
mod pga;
mod request;
mod retrain;
mod s2u;
mod sga;

pub use federaser::FedEraser;
pub use fump::FuMp;
pub use guard::{
    check_attempt, probe_sample, GuardPolicy, GuardStats, GuardViolation, UnlearnError,
    DEFAULT_DRIFT_BUDGET,
};
pub use method::{
    relearn_with_original, Capabilities, Efficiency, MethodOutcome, UnlearningMethod,
};
pub use pga::PgaHalimi;
pub use request::{forget_override, fr_eval_sets, retain_override, ForgetSet, UnlearnRequest};
pub use retrain::RetrainOracle;
pub use s2u::S2U;
pub use sga::SgaOriginal;
