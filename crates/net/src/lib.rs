//! Deterministic simulated transport for federated rounds.
//!
//! QuickDrop's headline claim is a communication-cost reduction, so the
//! federation needs a network model to price rounds in: this crate
//! provides the [`Transport`] abstraction `qd-fed` routes every
//! server ↔ client parameter exchange through, plus two implementations:
//!
//! * [`LoopbackTransport`] — the zero-cost in-process default;
//! * [`SimNet`] — per-link latency and bandwidth plus whole-round client
//!   dropout, driven by its own seeded RNG so traces are reproducible and
//!   independent of the federation's random stream.
//!
//! Parameters are priced as [`Payload`] frames — byte-accurate,
//! lossless little-endian `f32` encodings — so reported byte counts are
//! exactly what a real implementation would send. Costs land in
//! [`NetStats`].
//!
//! # Example
//!
//! ```
//! use qd_net::{NetConfig, SimNet, Transport};
//! use qd_tensor::Tensor;
//!
//! // A 20 ms / 100 Mbit/s link where a client misses 10% of rounds.
//! let cfg = NetConfig {
//!     latency_ms: 20.0,
//!     bandwidth_mbps: 100.0,
//!     dropout_prob: 0.1,
//!     seed: 7,
//! };
//! let mut net = SimNet::new(cfg);
//!
//! let global = vec![Tensor::from_vec(vec![0.5; 64], &[8, 8])];
//! net.begin_round(&[0, 1]);
//! for client in [0, 1] {
//!     let down = net.download(client, &global);
//!     if let Some(params) = down.tensors {
//!         // ... the client would train here ...
//!         let up = net.upload(client, params);
//!         assert!(up.bytes > 0);
//!     }
//! }
//! net.end_round();
//!
//! let stats = net.take_stats();
//! assert_eq!(stats.transfers, stats.delivered + stats.unreachable);
//! assert!(stats.sim >= std::time::Duration::from_millis(40));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod payload;
pub mod sim;
pub mod stats;
pub mod transport;

pub use config::NetConfig;
pub use payload::{Payload, PayloadError};
pub use sim::SimNet;
pub use stats::NetStats;
pub use transport::{Delivery, LoopbackTransport, Transport};
