//! Network model configuration.

use serde::{Deserialize, Serialize};

/// Parameters of the simulated network between the server and clients.
///
/// The default is an *ideal* network — zero latency, unlimited bandwidth,
/// no faults, lossless `f32` wire format — under which the simulation
/// adds no cost and [`crate::SimNet`] behaves exactly like
/// [`crate::LoopbackTransport`].
///
/// All time fields are in milliseconds of *simulated* time; nothing here
/// slows the experiment down in real time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// One-way link latency per message, in ms.
    pub latency_ms: f32,
    /// Link bandwidth in Mbit/s; `0` means unlimited.
    pub bandwidth_mbps: f32,
    /// Uniform extra delay in `[0, jitter_ms)` added per message, in ms.
    pub jitter_ms: f32,
    /// Per-round probability that a client is unreachable for the whole
    /// round (never receives the global model, trains nothing).
    pub dropout_prob: f32,
    /// Fraction of clients with persistently slow links.
    pub straggler_frac: f32,
    /// Multiplier on a straggler's transfer times.
    pub straggler_slowdown: f32,
    /// Per-attempt probability that a message is lost in transit.
    pub loss_prob: f32,
    /// Retransmissions after a lost attempt before giving up.
    pub max_retries: u32,
    /// Sender timeout per attempt, in ms (the wait before retrying).
    pub timeout_ms: f32,
    /// Multiplier on the timeout after each failed attempt.
    pub backoff: f32,
    /// Quantize parameters to one byte per scalar on the wire
    /// ([`crate::WireFormat::QuantU8`]) instead of lossless `f32`.
    pub quantized: bool,
    /// Seed of the network's own random stream, independent of the
    /// federation seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_ms: 0.0,
            bandwidth_mbps: 0.0,
            jitter_ms: 0.0,
            dropout_prob: 0.0,
            straggler_frac: 0.0,
            straggler_slowdown: 4.0,
            loss_prob: 0.0,
            max_retries: 2,
            timeout_ms: 200.0,
            backoff: 2.0,
            quantized: false,
            seed: 0,
        }
    }
}

impl NetConfig {
    /// A seeded lossy network with per-round client dropout and nothing
    /// else — the one-knob degraded network the chaos harness composes
    /// into its training environments. `dropout_prob` of `0.0` yields a
    /// config that [`NetConfig::is_ideal`] (loopback; no simulation).
    pub fn lossy(seed: u64, dropout_prob: f32) -> Self {
        NetConfig {
            dropout_prob,
            seed,
            ..NetConfig::default()
        }
    }

    /// `true` when the network adds no cost, no faults and no
    /// quantization — i.e. simulating it is pointless.
    pub fn is_ideal(&self) -> bool {
        self.latency_ms == 0.0
            && self.bandwidth_mbps == 0.0
            && self.jitter_ms == 0.0
            && self.dropout_prob == 0.0
            && self.straggler_frac == 0.0
            && self.loss_prob == 0.0
            && !self.quantized
    }

    /// Checks every field against its meaningful range, returning a
    /// human-readable description of the first problem found.
    /// Certain-failure probabilities are rejected because no round could
    /// ever complete.
    ///
    /// This is the non-panicking twin of [`NetConfig::validated`], meant
    /// for construction from untrusted input (CLI flags, config files).
    pub fn validate(&self) -> Result<(), String> {
        let non_negative = |name: &str, v: f32| -> Result<(), String> {
            if v >= 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be finite and non-negative, got {v}"))
            }
        };
        non_negative("latency_ms", self.latency_ms)?;
        non_negative("bandwidth_mbps", self.bandwidth_mbps)?;
        non_negative("jitter_ms", self.jitter_ms)?;
        if !(0.0..1.0).contains(&self.dropout_prob) {
            return Err(format!(
                "dropout_prob must be in [0, 1), got {}",
                self.dropout_prob
            ));
        }
        if !(0.0..=1.0).contains(&self.straggler_frac) {
            return Err(format!(
                "straggler_frac must be in [0, 1], got {}",
                self.straggler_frac
            ));
        }
        if self.straggler_slowdown.is_nan() || self.straggler_slowdown < 1.0 {
            return Err(format!(
                "straggler_slowdown must be >= 1, got {}",
                self.straggler_slowdown
            ));
        }
        if !(0.0..1.0).contains(&self.loss_prob) {
            return Err(format!(
                "loss_prob must be in [0, 1), got {}",
                self.loss_prob
            ));
        }
        non_negative("timeout_ms", self.timeout_ms)?;
        if self.backoff.is_nan() || self.backoff < 1.0 {
            return Err(format!("backoff must be >= 1, got {}", self.backoff));
        }
        Ok(())
    }

    /// Panics if any field is outside its meaningful range; returns the
    /// config otherwise. See [`NetConfig::validate`] for the
    /// non-panicking variant.
    ///
    /// # Panics
    ///
    /// Panics with the validation error's message on the first
    /// out-of-range field.
    pub fn validated(self) -> Self {
        if let Err(msg) = self.validate() {
            // qd-lint: allow(panic-safety) -- documented validation
            // panic; callers wanting an error use validate() instead.
            panic!("{msg}");
        }
        self
    }

    /// The wire format implied by [`NetConfig::quantized`].
    pub fn wire_format(&self) -> crate::WireFormat {
        if self.quantized {
            crate::WireFormat::QuantU8
        } else {
            crate::WireFormat::F32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ideal() {
        assert!(NetConfig::default().is_ideal());
        assert_eq!(NetConfig::default().wire_format(), crate::WireFormat::F32);
    }

    #[test]
    fn any_impairment_breaks_ideality() {
        for f in [
            |c: &mut NetConfig| c.latency_ms = 5.0,
            |c: &mut NetConfig| c.bandwidth_mbps = 10.0,
            |c: &mut NetConfig| c.jitter_ms = 1.0,
            |c: &mut NetConfig| c.dropout_prob = 0.1,
            |c: &mut NetConfig| c.straggler_frac = 0.5,
            |c: &mut NetConfig| c.loss_prob = 0.05,
            |c: &mut NetConfig| c.quantized = true,
        ] {
            let mut c = NetConfig::default();
            f(&mut c);
            assert!(!c.is_ideal(), "{c:?}");
        }
        // The passive knobs alone don't make the network non-ideal.
        let c = NetConfig {
            max_retries: 9,
            timeout_ms: 1.0,
            seed: 42,
            ..NetConfig::default()
        };
        assert!(c.is_ideal());
    }

    #[test]
    #[should_panic(expected = "dropout_prob")]
    fn certain_dropout_is_rejected() {
        let _ = NetConfig {
            dropout_prob: 1.0,
            ..NetConfig::default()
        }
        .validated();
    }

    #[test]
    fn validate_names_the_offending_field() {
        type Case = (fn(&mut NetConfig), &'static str);
        let cases: [Case; 6] = [
            (|c| c.latency_ms = -1.0, "latency_ms"),
            (|c| c.jitter_ms = f32::NAN, "jitter_ms"),
            (|c| c.dropout_prob = 1.0, "dropout_prob"),
            (|c| c.straggler_frac = 1.5, "straggler_frac"),
            (|c| c.loss_prob = -0.1, "loss_prob"),
            (|c| c.backoff = 0.5, "backoff"),
        ];
        for (mutate, field) in cases {
            let mut c = NetConfig::default();
            mutate(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains(field), "error {err:?} should name {field}");
        }
        assert!(NetConfig::default().validate().is_ok());
    }

    #[test]
    fn config_round_trips_through_serde() {
        let c = NetConfig {
            latency_ms: 20.0,
            bandwidth_mbps: 100.0,
            loss_prob: 0.01,
            quantized: true,
            seed: 7,
            ..NetConfig::default()
        };
        let v = serde::Serialize::to_value(&c);
        let back: NetConfig = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, c);
    }
}
