//! A deterministic federated-learning simulator.
//!
//! Models the FedAvg protocol of McMahan et al. (2017) as used by
//! QuickDrop: a [`Federation`] holds the global parameters and one local
//! [`qd_data::Dataset`] per client; every training, unlearning, recovery
//! or relearning stage is a [`Phase`] — a number of global rounds, each
//! running local SGD (or SGA) steps on the participating clients and
//! aggregating with data-size weights.
//!
//! # Pluggable local training
//!
//! Each client is driven by a [`ClientTrainer`]. [`SgdClientTrainer`]
//! implements plain local SGD/SGA (Algorithm 1 of the paper);
//! `qd-distill` provides a trainer that *additionally* synthesizes a
//! condensed dataset in situ (Algorithm 2). Trainers are stateful per
//! client, which is exactly what in-situ distillation needs.
//!
//! # Update history
//!
//! When [`Federation::set_record_history`] is enabled, every round's starting
//! global model and per-client updates are retained — the storage that
//! FedEraser trades for unlearning speed.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use qd_data::SyntheticDataset;
//! use qd_fed::{Federation, Phase, SgdClientTrainer};
//! use qd_nn::{Direction, Mlp};
//! use qd_tensor::rng::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let model = Arc::new(Mlp::new(&[256, 32, 10]));
//! let data = SyntheticDataset::Digits.generate(64, &mut rng);
//! let clients = vec![data.clone(), data];
//! let mut fed = Federation::new(model.clone(), clients, &mut rng);
//! let phase = Phase::training(2, 3, 16, 0.05);
//! let mut trainers = qd_fed::sgd_trainers(model, 2);
//! let stats = fed.run_phase(&mut trainers, None, &phase, &mut rng);
//! assert_eq!(stats.rounds, 2);
//! ```

#![warn(missing_docs)]

mod aggregate;
mod faults;
mod federation;
mod health;
mod phase;
mod trainer;

pub use aggregate::{
    Aggregator, AggregatorKind, ClientUpdate, GuardConfig, GuardState, ResilienceStats,
    UpdateGuard, Violation, TRIM_FRAC,
};
pub use faults::{FaultKind, FaultPlan, ASCENT_SPIKE_SCALE, BYZANTINE_SCALE};
pub use federation::{Federation, PhaseObserver, PhaseStats, ResumeState, RoundRecord};
pub use health::{ClientHealth, HealthConfig, HealthState};
pub use phase::Phase;
pub use trainer::{sgd_trainers, ClientTrainer, LocalOutcome, SgdClientTrainer};

// Re-exported so downstream crates can configure a federation's network
// — and store parameters in the wire codec's F32 layout — without
// depending on `qd-net` directly.
pub use qd_net::{
    Delivery, LoopbackTransport, NetConfig, NetStats, Payload, PayloadError, SimNet, Transport,
};
