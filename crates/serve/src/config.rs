//! Service configuration.

use serde::{Deserialize, Serialize};

/// Everything the service plan is a function of. Two runs with equal
/// configs produce identical plans, identical journals, and identical
/// [`crate::ServeStats`] — the property the kill-and-resume chaos tests
/// assert bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of tenants submitting request streams.
    pub tenants: usize,
    /// Requests each tenant offers.
    pub arrival_requests: usize,
    /// Mean virtual gap between one tenant's arrivals, in microseconds
    /// of the virtual clock.
    pub arrival_gap_us: u64,
    /// Bounded per-tenant queue capacity; arrivals past it are
    /// rejected (admission control).
    pub queue_cap: usize,
    /// Merge compatible requests into shared batches (one recovery
    /// pass amortized over the batch). Off ⇒ every service unit is a
    /// single request.
    pub coalesce: bool,
    /// Most *distinct* requests one coalesced batch may hold.
    /// Duplicates of a request already in the batch ride along for
    /// free and do not count against this cap.
    pub max_batch: usize,
    /// Deficit round-robin weight per tenant, cycled if shorter than
    /// `tenants`. A tenant with weight 2 gets twice the service share
    /// of a tenant with weight 1 under contention.
    pub weights: Vec<u64>,
    /// Label universe requests draw forget classes from.
    pub classes: usize,
    /// Client universe requests draw forget clients from.
    pub clients: usize,
    /// Probability an arrival is a class-forget request (the rest are
    /// client-forget).
    pub class_share: f32,
    /// Virtual cost of one member's ascent stage, in microseconds.
    pub ascent_cost_us: u64,
    /// Virtual cost of one recovery pass, in microseconds. This is the
    /// term coalescing amortizes: a batch of `k` distinct members
    /// costs `k * ascent_cost_us + recovery_cost_us` instead of
    /// `k * (ascent_cost_us + recovery_cost_us)`.
    pub recovery_cost_us: u64,
    /// Seed for the arrival streams (each tenant's stream is derived
    /// from `seed` and its tenant index).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: 3,
            arrival_requests: 8,
            arrival_gap_us: 1_000,
            queue_cap: 16,
            coalesce: true,
            max_batch: 4,
            weights: vec![1],
            classes: 10,
            clients: 3,
            class_share: 0.8,
            ascent_cost_us: 400,
            recovery_cost_us: 900,
            seed: 7,
        }
    }
}

impl ServeConfig {
    /// The DRR weight of `tenant` (the `weights` list cycled, so a
    /// single-element list weights every tenant equally).
    pub fn weight(&self, tenant: usize) -> u64 {
        if self.weights.is_empty() {
            return 1;
        }
        self.weights[tenant % self.weights.len()].max(1)
    }

    /// Checks the config describes a runnable service.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("tenants must be at least 1".to_string());
        }
        if self.queue_cap == 0 {
            return Err("queue-cap must be at least 1".to_string());
        }
        if self.max_batch == 0 {
            return Err("max-batch must be at least 1".to_string());
        }
        if self.classes == 0 && self.class_share > 0.0 {
            return Err("class requests need a non-empty class universe".to_string());
        }
        if self.clients == 0 && self.class_share < 1.0 {
            return Err("client requests need a non-empty client universe".to_string());
        }
        if !(0.0..=1.0).contains(&self.class_share) {
            return Err(format!(
                "class-share must be in [0, 1], got {}",
                self.class_share
            ));
        }
        if self.ascent_cost_us == 0 {
            return Err("ascent-cost-us must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn weights_cycle_and_clamp() {
        let cfg = ServeConfig {
            weights: vec![2, 0],
            ..ServeConfig::default()
        };
        assert_eq!(cfg.weight(0), 2);
        assert_eq!(cfg.weight(1), 1, "zero weights clamp to 1");
        assert_eq!(cfg.weight(2), 2, "list cycles");
        let empty = ServeConfig {
            weights: Vec::new(),
            ..ServeConfig::default()
        };
        assert_eq!(empty.weight(5), 1);
    }

    #[test]
    fn bad_configs_are_named() {
        for (cfg, needle) in [
            (
                ServeConfig {
                    tenants: 0,
                    ..ServeConfig::default()
                },
                "tenants",
            ),
            (
                ServeConfig {
                    queue_cap: 0,
                    ..ServeConfig::default()
                },
                "queue-cap",
            ),
            (
                ServeConfig {
                    max_batch: 0,
                    ..ServeConfig::default()
                },
                "max-batch",
            ),
            (
                ServeConfig {
                    class_share: 1.5,
                    ..ServeConfig::default()
                },
                "class-share",
            ),
        ] {
            let err = cfg.validate().expect_err("must be rejected");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn config_round_trips_through_serde() {
        let cfg = ServeConfig {
            tenants: 5,
            weights: vec![3, 1],
            coalesce: false,
            ..ServeConfig::default()
        };
        let json = serde_json::to_string(&cfg.to_value()).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(ServeConfig::from_value(&value).unwrap(), cfg);
    }
}
