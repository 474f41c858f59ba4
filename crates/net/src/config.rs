//! Network model configuration.

use serde::{Deserialize, Serialize};

/// Parameters of the simulated network between the server and clients.
///
/// The default is an *ideal* network — zero latency, unlimited bandwidth,
/// no dropout — under which the simulation adds no time and
/// [`crate::SimNet`] hands over exactly what [`crate::LoopbackTransport`]
/// would.
///
/// Time fields are in milliseconds of *simulated* time; nothing here
/// slows the experiment down in real time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// One-way link latency per message, in ms.
    pub latency_ms: f32,
    /// Link bandwidth in Mbit/s; `0` means unlimited.
    pub bandwidth_mbps: f32,
    /// Per-round probability that a client is unreachable for the whole
    /// round (never receives the global model, trains nothing).
    pub dropout_prob: f32,
    /// Seed of the network's own random stream, independent of the
    /// federation seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_ms: 0.0,
            bandwidth_mbps: 0.0,
            dropout_prob: 0.0,
            seed: 0,
        }
    }
}

impl NetConfig {
    /// A seeded lossy network with per-round client dropout and nothing
    /// else — the one-knob degraded network the chaos harness composes
    /// into its training environments.
    pub fn lossy(seed: u64, dropout_prob: f32) -> Self {
        NetConfig {
            dropout_prob,
            seed,
            ..NetConfig::default()
        }
    }

    /// Returns the config if every field is in its meaningful range.
    /// Certain dropout is rejected because no round could ever complete.
    ///
    /// # Panics
    ///
    /// Panics naming the first out-of-range field.
    pub fn validated(self) -> Self {
        let bad_time = [
            ("latency_ms", self.latency_ms),
            ("bandwidth_mbps", self.bandwidth_mbps),
        ]
        .into_iter()
        .find(|(_, v)| !(*v >= 0.0 && v.is_finite()));
        let problem = match bad_time {
            Some((name, v)) => format!("{name} must be finite and non-negative, got {v}"),
            None if !(0.0..1.0).contains(&self.dropout_prob) => {
                format!("dropout_prob must be in [0, 1), got {}", self.dropout_prob)
            }
            None => return self,
        };
        // qd-lint: allow(panic-safety) -- documented validation panic on a
        // config built in code; no flag or file builds one.
        panic!("{problem}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "dropout_prob")]
    fn certain_dropout_is_rejected() {
        let _ = NetConfig::lossy(0, 1.0).validated();
    }

    #[test]
    fn validated_names_the_offending_field() {
        type Case = (fn(&mut NetConfig), &'static str);
        let cases: [Case; 4] = [
            (|c| c.latency_ms = -1.0, "latency_ms"),
            (|c| c.bandwidth_mbps = f32::NAN, "bandwidth_mbps"),
            (|c| c.dropout_prob = 1.0, "dropout_prob"),
            (|c| c.dropout_prob = -0.1, "dropout_prob"),
        ];
        for (mutate, field) in cases {
            let mut c = NetConfig::default();
            mutate(&mut c);
            let err = std::panic::catch_unwind(|| c.validated()).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains(field), "error {msg:?} should name {field}");
        }
        assert_eq!(NetConfig::default().validated(), NetConfig::default());
    }

    #[test]
    fn config_round_trips_through_serde() {
        let c = NetConfig {
            latency_ms: 20.0,
            bandwidth_mbps: 100.0,
            dropout_prob: 0.25,
            seed: 7,
        };
        let v = serde::Serialize::to_value(&c);
        let back: NetConfig = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, c);
    }
}
