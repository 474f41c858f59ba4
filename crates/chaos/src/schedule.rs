//! Seeded, serializable chaos schedules.
//!
//! A [`ChaosSchedule`] is the single artifact that describes one whole
//! chaos experiment: the *workload* (a deployment environment plus a
//! multi-tenant service mix — present in the fault-free reference run
//! and the faulted run alike) and the *failures* (storage faults and
//! process deaths, each bound to one process lifetime). Schedules are
//! pure data: generated from a seed, serialized to JSON for
//! `chaos-repro.json` artifacts, and replayed bit-for-bit.

use qd_core::{CrashPoint, Fault};
use serde::{DeError, Deserialize, Serialize, Value};

/// Which serving calls a process lifetime makes — the two ways the
/// shipped CLI reaches the unit engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrontDoor {
    /// `quickdrop-cli serve`: `run_service_isolated` over the whole
    /// plan, then the stats write.
    Service,
    /// `quickdrop-cli unlearn|relearn --journal`: `open_on →
    /// resume_requests → serve_journaled | serve_batch_journaled |
    /// relearn_journaled`, the plan's units served one call each (a
    /// one-member unit alone, a coalesced one as a batch). No failure
    /// isolation and no stats file: neither exists behind this door.
    PerRequest,
}

/// The workload every run of a schedule executes — the environment and
/// service mix shared by the reference and faulted runs, so that the
/// only difference between the two is the injected failures.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Seed of the training environment (model init, data, partition,
    /// Byzantine client assignment).
    pub train_seed: u64,
    /// Dataset size for the deployment's federated training epoch.
    pub samples: usize,
    /// Federation size.
    pub clients: usize,
    /// Training-phase rounds.
    pub rounds: usize,
    /// Byzantine client fraction (`[0, 1)`): during training the full
    /// default fault menu, during serving the ascent spike (when
    /// [`Workload::ascent_spike`] > 1).
    pub byzantine_frac: f32,
    /// Per-round client dropout probability of the training network
    /// (`0.0` = loopback).
    pub net_drop: f32,
    /// Ascent-LR magnification Byzantine clients apply during serving
    /// ascents (`1.0` = no spike). A spike activates failure isolation
    /// (retry ladder + bisection) for the service run.
    pub ascent_spike: f32,
    /// Tenants submitting arrival streams.
    pub tenants: usize,
    /// Requests per tenant stream.
    pub requests: usize,
    /// Serving seed (arrival streams; independent of `train_seed`).
    pub serve_seed: u64,
    /// Breaker trip threshold (`0` = breakers off); see
    /// `qd_serve::IsolationConfig::breaker_trip`.
    pub breaker_trip: u32,
    /// Breaker cooldown units (required ≥ 1 when `breaker_trip` > 0).
    pub breaker_cooldown: u32,
    /// Relearn the first RECOVERED request after the service run — the
    /// full deploy→serve→relearn lifecycle.
    pub relearn: bool,
    /// The serving calls each lifetime makes. Written to JSON only when
    /// it is not [`FrontDoor::Service`], so a service schedule's bytes
    /// (and every `chaos-repro.json` written before the field existed)
    /// are unchanged.
    pub front_door: FrontDoor,
}

// Hand-written because the vendored derive has no `skip_serializing_if`
// / `default`: `front_door` must be absent for a service workload.
impl Serialize for Workload {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("train_seed".to_string(), self.train_seed.to_value()),
            ("samples".to_string(), self.samples.to_value()),
            ("clients".to_string(), self.clients.to_value()),
            ("rounds".to_string(), self.rounds.to_value()),
            ("byzantine_frac".to_string(), self.byzantine_frac.to_value()),
            ("net_drop".to_string(), self.net_drop.to_value()),
            ("ascent_spike".to_string(), self.ascent_spike.to_value()),
            ("tenants".to_string(), self.tenants.to_value()),
            ("requests".to_string(), self.requests.to_value()),
            ("serve_seed".to_string(), self.serve_seed.to_value()),
            ("breaker_trip".to_string(), self.breaker_trip.to_value()),
            (
                "breaker_cooldown".to_string(),
                self.breaker_cooldown.to_value(),
            ),
            ("relearn".to_string(), self.relearn.to_value()),
        ];
        if self.front_door != FrontDoor::Service {
            map.push(("front_door".to_string(), self.front_door.to_value()));
        }
        Value::Map(map)
    }
}

impl Deserialize for Workload {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        fn get<T: Deserialize>(v: &Value, field: &str) -> Result<T, DeError> {
            T::from_value(v.field("Workload", field)?)
        }
        Ok(Workload {
            train_seed: get(v, "train_seed")?,
            samples: get(v, "samples")?,
            clients: get(v, "clients")?,
            rounds: get(v, "rounds")?,
            byzantine_frac: get(v, "byzantine_frac")?,
            net_drop: get(v, "net_drop")?,
            ascent_spike: get(v, "ascent_spike")?,
            tenants: get(v, "tenants")?,
            requests: get(v, "requests")?,
            serve_seed: get(v, "serve_seed")?,
            breaker_trip: get(v, "breaker_trip")?,
            breaker_cooldown: get(v, "breaker_cooldown")?,
            relearn: get(v, "relearn")?,
            front_door: v
                .get("front_door")
                .map_or(Ok(FrontDoor::Service), FrontDoor::from_value)?,
        })
    }
}

/// One storage-level fault of the non-kill family. Process deaths are
/// deliberately *not* expressible here: every kill goes through
/// [`CrashPoint`], so a schedule cannot arm two contradictory deaths
/// for one process lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The write/append applies only its first `n` bytes, then the
    /// process dies (the torn write).
    TornWrite(usize),
    /// The fsync fails without advancing durability; the process
    /// survives the syscall (and this harness treats the surfaced
    /// error as fatal to the run).
    FsyncFail,
    /// The write/append fails with `ENOSPC`, applying nothing.
    DiskFull,
}

impl StorageFault {
    /// The `qd_core` fault this arms on a `FaultFs`.
    pub fn to_fault(self) -> Fault {
        match self {
            StorageFault::TornWrite(n) => Fault::TornWrite(n),
            StorageFault::FsyncFail => Fault::FsyncFail,
            StorageFault::DiskFull => Fault::DiskFull,
        }
    }
}

impl Serialize for StorageFault {
    fn to_value(&self) -> Value {
        match *self {
            StorageFault::TornWrite(n) => {
                Value::Map(vec![("torn_write".to_string(), Serialize::to_value(&n))])
            }
            StorageFault::FsyncFail => Value::Str("fsync_fail".to_string()),
            StorageFault::DiskFull => Value::Str("disk_full".to_string()),
        }
    }
}

impl Deserialize for StorageFault {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => match s.as_str() {
                "fsync_fail" => Ok(StorageFault::FsyncFail),
                "disk_full" => Ok(StorageFault::DiskFull),
                other => Err(DeError::new(format!(
                    "unknown StorageFault variant {other:?}"
                ))),
            },
            other => {
                let n = other.field("StorageFault", "torn_write")?;
                Ok(StorageFault::TornWrite(Deserialize::from_value(n)?))
            }
        }
    }
}

/// What one injected failure does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// The process dies — at a storage syscall or a journal boundary,
    /// in the unified [`CrashPoint`] vocabulary.
    Crash(CrashPoint),
    /// A non-fatal-by-construction storage fault at the 0-based `op`-th
    /// `Vfs` operation of the lifetime.
    Storage {
        /// Operation index relative to the lifetime's first syscall.
        op: u64,
        /// The fault to inject there.
        fault: StorageFault,
    },
}

impl Serialize for FaultSpec {
    fn to_value(&self) -> Value {
        match *self {
            FaultSpec::Crash(point) => {
                Value::Map(vec![("crash".to_string(), Serialize::to_value(&point))])
            }
            FaultSpec::Storage { op, fault } => Value::Map(vec![(
                "storage".to_string(),
                Value::Map(vec![
                    ("op".to_string(), Serialize::to_value(&op)),
                    ("fault".to_string(), Serialize::to_value(&fault)),
                ]),
            )]),
        }
    }
}

impl Deserialize for FaultSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if let Some(point) = v.get("crash") {
            return Ok(FaultSpec::Crash(Deserialize::from_value(point)?));
        }
        if let Some(storage) = v.get("storage") {
            return Ok(FaultSpec::Storage {
                op: Deserialize::from_value(storage.field("FaultSpec::Storage", "op")?)?,
                fault: Deserialize::from_value(storage.field("FaultSpec::Storage", "fault")?)?,
            });
        }
        Err(DeError::new(
            "expected object with `crash` or `storage` for FaultSpec",
        ))
    }
}

/// One injected failure, bound to the process lifetime (attempt) it
/// fires in: attempt 0 is the initial deployment, attempt *k* is the
/// *k*-th resume after a death.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// The process lifetime this failure arms in.
    pub attempt: u32,
    /// What happens.
    pub spec: FaultSpec,
}

/// A complete chaos experiment: workload + failures + resume budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// The seed this schedule was generated from (provenance only; the
    /// schedule itself is self-contained).
    pub seed: u64,
    /// The shared workload.
    pub workload: Workload,
    /// The injected failures.
    pub faults: Vec<InjectedFault>,
    /// Resumes allowed before the run counts as stalled (the liveness
    /// bound the run-completes invariant enforces).
    pub max_resumes: u32,
}

impl ChaosSchedule {
    /// Checks the schedule is well-formed: a sane workload, at most one
    /// [`CrashPoint`] per process lifetime (the unified-kill rule), and
    /// no duplicate storage-fault slots.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let w = &self.workload;
        if w.clients == 0 || w.tenants == 0 || w.requests == 0 || w.rounds == 0 {
            return Err("clients, tenants, requests and rounds must all be ≥ 1".to_string());
        }
        if w.samples < w.clients {
            return Err(format!(
                "{} samples cannot cover {} clients",
                w.samples, w.clients
            ));
        }
        if !(0.0..1.0).contains(&w.byzantine_frac) {
            return Err(format!(
                "byzantine_frac must be in [0, 1), got {}",
                w.byzantine_frac
            ));
        }
        if !(0.0..1.0).contains(&w.net_drop) {
            return Err(format!("net_drop must be in [0, 1), got {}", w.net_drop));
        }
        if !w.ascent_spike.is_finite() || w.ascent_spike < 1.0 {
            return Err(format!(
                "ascent_spike must be a finite scale ≥ 1, got {}",
                w.ascent_spike
            ));
        }
        if w.breaker_trip > 0 && w.breaker_cooldown == 0 {
            return Err("a breaker trip threshold needs a cooldown ≥ 1".to_string());
        }
        if w.front_door == FrontDoor::PerRequest && w.ascent_spike > 1.0 {
            return Err(
                "the per-request front door has no failure isolation to survive an ascent spike"
                    .to_string(),
            );
        }
        let mut crash_attempts: Vec<u32> = Vec::new();
        let mut storage_slots: Vec<(u32, u64)> = Vec::new();
        for fault in &self.faults {
            match fault.spec {
                FaultSpec::Crash(_) => {
                    if crash_attempts.contains(&fault.attempt) {
                        return Err(format!(
                            "attempt {} arms two crash points; a process dies once",
                            fault.attempt
                        ));
                    }
                    crash_attempts.push(fault.attempt);
                }
                FaultSpec::Storage { op, .. } => {
                    if storage_slots.contains(&(fault.attempt, op)) {
                        return Err(format!(
                            "attempt {} arms two storage faults at op {op}",
                            fault.attempt
                        ));
                    }
                    storage_slots.push((fault.attempt, op));
                }
            }
        }
        Ok(())
    }

    /// The failures bound to one process lifetime: the storage faults
    /// to arm (op indices relative to the lifetime's first syscall) and
    /// the at-most-one crash point.
    pub fn faults_for(&self, attempt: u32) -> (Vec<(u64, StorageFault)>, Option<CrashPoint>) {
        let mut storage = Vec::new();
        let mut crash = None;
        for fault in &self.faults {
            if fault.attempt != attempt {
                continue;
            }
            match fault.spec {
                FaultSpec::Crash(point) => crash = Some(point),
                FaultSpec::Storage { op, fault } => storage.push((op, fault)),
            }
        }
        (storage, crash)
    }

    /// Serializes the schedule as one JSON line.
    ///
    /// # Errors
    ///
    /// A description of the (exotic: non-finite float) encode failure.
    pub fn to_json(&self) -> Result<String, String> {
        let mut json = serde_json::to_string(&self.to_value()).map_err(|e| e.to_string())?;
        json.push('\n');
        Ok(json)
    }

    /// Parses a schedule from JSON and validates it.
    ///
    /// # Errors
    ///
    /// A description of the parse or validation failure.
    pub fn from_json(text: &str) -> Result<ChaosSchedule, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let schedule = ChaosSchedule::from_value(&value).map_err(|e| e.to_string())?;
        schedule.validate()?;
        Ok(schedule)
    }

    /// The deterministic schedule generator: run `run` of seed `seed`.
    ///
    /// All runs of one seed share a training environment (so a
    /// multi-run sweep trains once), vary the serving mix, and arm a
    /// contiguous prefix of lethal lifetimes — every generated schedule
    /// leaves resume headroom, so a correct system completes it and the
    /// pinned check.sh gate stays green unless an invariant regresses.
    pub fn generate(seed: u64, run: u64) -> ChaosSchedule {
        let mut stream = mix_stream(seed, run);
        // Environment knobs: a function of `seed` alone.
        let mut env = mix_stream(seed, u64::MAX);
        let byzantine_frac = 0.34;
        let net_drop = if env(2) == 0 { 0.2 } else { 0.0 };
        let workload = Workload {
            train_seed: seed,
            samples: 120,
            clients: 3,
            rounds: 3,
            byzantine_frac,
            net_drop,
            ascent_spike: if stream(2) == 0 { 1.0e6 } else { 1.0 },
            tenants: 1 + stream(2) as usize,
            requests: 2 + stream(3) as usize,
            serve_seed: stream(u64::MAX),
            breaker_trip: if stream(3) == 0 { 1 } else { 0 },
            breaker_cooldown: 2,
            relearn: stream(2) == 0,
            front_door: FrontDoor::Service,
        };
        let lethal = 1 + stream(3) as u32;
        let mut faults = Vec::new();
        for attempt in 0..lethal {
            match stream(4) {
                0 => faults.push(InjectedFault {
                    attempt,
                    spec: FaultSpec::Crash(CrashPoint::VfsOp(stream(400))),
                }),
                1 => faults.push(InjectedFault {
                    attempt,
                    spec: FaultSpec::Crash(CrashPoint::Boundary {
                        unit: stream(3) as usize,
                        boundary: boundary_from(stream(4)),
                    }),
                }),
                2 => faults.push(InjectedFault {
                    attempt,
                    spec: FaultSpec::Storage {
                        op: stream(400),
                        fault: StorageFault::TornWrite(stream(64) as usize),
                    },
                }),
                _ => faults.push(InjectedFault {
                    attempt,
                    spec: FaultSpec::Storage {
                        op: stream(400),
                        fault: if stream(2) == 0 {
                            StorageFault::FsyncFail
                        } else {
                            StorageFault::DiskFull
                        },
                    },
                }),
            }
        }
        ChaosSchedule {
            seed,
            workload,
            faults,
            max_resumes: lethal + 2,
        }
    }
}

/// A journal boundary drawn from a bounded integer. Only the plain
/// trio plus a mid-batch kill: the isolation-only boundaries fire only
/// under specific degraded mixes, and a boundary that never fires is
/// harmless (the run just completes).
fn boundary_from(draw: u64) -> qd_core::BatchPreempt {
    match draw {
        0 => qd_core::BatchPreempt::Received,
        1 => qd_core::BatchPreempt::Unlearned(1),
        2 => qd_core::BatchPreempt::Unlearned(2),
        _ => qd_core::BatchPreempt::Recovered,
    }
}

/// A splitmix64 draw stream over `(seed, lane)`: each call returns a
/// value in `[0, bound)` (`bound` of `u64::MAX` is effectively a raw
/// draw).
fn mix_stream(seed: u64, lane: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    move |bound: u64| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if bound == u64::MAX {
            z
        } else {
            z % bound.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_core::BatchPreempt;

    #[test]
    fn generated_schedules_validate_and_round_trip() {
        for run in 0..8 {
            let schedule = ChaosSchedule::generate(7, run);
            schedule.validate().expect("generated schedules validate");
            let json = schedule.to_json().expect("schedules encode");
            let back = ChaosSchedule::from_json(&json).expect("round trip parses");
            assert_eq!(back, schedule, "run {run} round-trips");
            assert_eq!(
                back.to_json().expect("schedules encode"),
                json,
                "run {run} JSON is stable"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(ChaosSchedule::generate(7, 3), ChaosSchedule::generate(7, 3));
        assert_ne!(
            ChaosSchedule::generate(7, 3).workload.serve_seed,
            ChaosSchedule::generate(7, 4).workload.serve_seed
        );
    }

    #[test]
    fn double_kill_in_one_lifetime_is_rejected() {
        let mut schedule = ChaosSchedule::generate(1, 0);
        schedule.faults = vec![
            InjectedFault {
                attempt: 0,
                spec: FaultSpec::Crash(CrashPoint::VfsOp(3)),
            },
            InjectedFault {
                attempt: 0,
                spec: FaultSpec::Crash(CrashPoint::Boundary {
                    unit: 0,
                    boundary: BatchPreempt::Received,
                }),
            },
        ];
        let err = schedule.validate().expect_err("two kills must be rejected");
        assert!(err.contains("two crash points"), "{err}");
    }

    #[test]
    fn faults_for_partitions_by_attempt() {
        let schedule = ChaosSchedule {
            seed: 0,
            workload: ChaosSchedule::generate(0, 0).workload,
            faults: vec![
                InjectedFault {
                    attempt: 0,
                    spec: FaultSpec::Storage {
                        op: 5,
                        fault: StorageFault::FsyncFail,
                    },
                },
                InjectedFault {
                    attempt: 1,
                    spec: FaultSpec::Crash(CrashPoint::VfsOp(9)),
                },
            ],
            max_resumes: 3,
        };
        let (storage, crash) = schedule.faults_for(0);
        assert_eq!(storage, vec![(5, StorageFault::FsyncFail)]);
        assert!(crash.is_none());
        let (storage, crash) = schedule.faults_for(1);
        assert!(storage.is_empty());
        assert_eq!(crash, Some(CrashPoint::VfsOp(9)));
    }
}
