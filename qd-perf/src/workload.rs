//! The four lifecycle workloads and their sizing.
//!
//! A workload is a fixed sequence of `quickdrop-cli` invocations (a
//! *pass*) whose inputs derive from the seed; the untraced run repeats
//! whole passes until the measuring window is used up, and the traced run
//! replays one pass in-process from the same [`Scale`].

use crate::checks::DATASET;
use qd_tensor::rng::Rng;
use qd_unlearn::UnlearnRequest;
use std::path::Path;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `train`: FL rounds with in-situ distillation, one checkpoint write.
    TrainDistill,
    /// `unlearn` then `relearn` per target, one process per request.
    RequestStream,
    /// One `serve --coalesce` process over a multi-tenant stream.
    ServeMixed,
    /// Idempotent `serve` re-invocations over an already-served history.
    ReopenHistory,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainDistill,
        Workload::RequestStream,
        Workload::ServeMixed,
        Workload::ReopenHistory,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDistill => "train-distill",
            Workload::RequestStream => "request-stream",
            Workload::ServeMixed => "serve-mixed",
            Workload::ReopenHistory => "reopen-history",
        }
    }

    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses (one line; `BENCHMARK.json` carries it verbatim).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainDistill => {
                "compute-bound: tensor/autograd/nn/distill kernels and fed round orchestration, one checkpoint write; a storage change must not move it"
            }
            Workload::RequestStream => {
                "one process per request: tiny compute, so checkpoint load/save, journal open/append and evaluation dominate; a kernel change barely moves it"
            }
            Workload::ServeMixed => {
                "one long-lived process: load/open/save amortised over a coalesced multi-tenant stream, batch journal frames, one recovery per batch"
            }
            Workload::ReopenHistory => {
                "storage read path only: checkpoint load, full journal parse over a served history, re-save, zero kernels; catches work deferred from append to open"
            }
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `serve` flags that shape a planned stream.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub tenants: usize,
    pub arrival_requests: usize,
    pub arrival_gap_us: u64,
    pub queue_cap: usize,
    /// `Some(max_batch)` turns `--coalesce` on.
    pub coalesce: Option<usize>,
}

impl Stream {
    /// Requests the stream offers.
    pub fn offered(&self) -> usize {
        self.tenants * self.arrival_requests
    }
}

/// Everything that differs between the measured scale and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub clients: usize,
    pub samples: usize,
    pub rounds: usize,
    pub steps: usize,
    pub batch: usize,
    /// Distillation scale `s` (`--scale`).
    pub distill_scale: usize,
    /// Test samples the CLI evaluates per request (its `--samples` default).
    pub test_samples: usize,
    /// How many times set-up trains the fixture (median reported).
    pub setup_reps: usize,
    /// Class and client targets per request-stream pass.
    pub request_classes: usize,
    pub request_clients: usize,
    /// The serve-mixed stream.
    pub mixed: Stream,
    /// The stream whose served history reopen-history re-opens.
    pub history: Stream,
    /// Re-invocations per reopen-history pass.
    pub reopens_per_pass: usize,
    /// Cap on timed passes (`None`: fill the window).
    pub max_passes: Option<usize>,
}

impl Scale {
    /// The measured scale. The fixture is the CLI's default deployment
    /// shape cut to 3 rounds and an IID partition: the driver's time cap
    /// leaves ~25 s per run including three set-ups, and `--alpha 0.1`
    /// makes the checkpoint swing 0.8–1.3 MB with the seed (IQR 10 % of the
    /// median over seeds 11–20), which would swamp every bound.
    pub const FULL: Scale = Scale {
        clients: 4,
        samples: 800,
        rounds: 3,
        steps: 8,
        batch: 32,
        distill_scale: 100,
        test_samples: 400,
        setup_reps: 3,
        request_classes: 4,
        request_clients: 1,
        mixed: Stream {
            tenants: 3,
            arrival_requests: 12,
            arrival_gap_us: 1_000,
            queue_cap: 16,
            coalesce: Some(3),
        },
        history: Stream {
            tenants: 4,
            arrival_requests: 10,
            arrival_gap_us: 1_000,
            queue_cap: 64,
            coalesce: None,
        },
        reopens_per_pass: 10,
        max_passes: None,
    };

    /// `--smoke`: every code path in seconds.
    pub const SMOKE: Scale = Scale {
        clients: 2,
        samples: 120,
        rounds: 2,
        steps: 2,
        batch: 32,
        distill_scale: 20,
        test_samples: 400,
        setup_reps: 1,
        request_classes: 2,
        request_clients: 1,
        mixed: Stream {
            tenants: 2,
            arrival_requests: 3,
            arrival_gap_us: 300,
            queue_cap: 8,
            coalesce: Some(2),
        },
        history: Stream {
            tenants: 2,
            arrival_requests: 3,
            arrival_gap_us: 1_000,
            queue_cap: 16,
            coalesce: None,
        },
        reopens_per_pass: 2,
        max_passes: Some(2),
    };

    /// `quickdrop-cli train ...` writing the fixture to `out`.
    pub fn train_args(&self, out: &Path, seed: u64) -> Vec<String> {
        let mut args = strings(&["train", "--dataset", "cifar", "--iid", "--out"]);
        args.push(out.display().to_string());
        for (flag, value) in [
            ("--clients", self.clients as u64),
            ("--samples", self.samples as u64),
            ("--rounds", self.rounds as u64),
            ("--steps", self.steps as u64),
            ("--batch", self.batch as u64),
            ("--scale", self.distill_scale as u64),
            ("--seed", seed),
        ] {
            args.push(flag.to_string());
            args.push(value.to_string());
        }
        args
    }

    /// `quickdrop-cli unlearn|relearn ... --journal` for one target.
    pub fn request_args(
        &self,
        verb: &str,
        ckpt: &Path,
        target: UnlearnRequest,
        seed: u64,
    ) -> Vec<String> {
        let (flag, index) = match target {
            UnlearnRequest::Class(c) => ("--class", c),
            UnlearnRequest::Client(i) => ("--client", i),
        };
        let mut args = strings(&[verb, "--dataset", "cifar", "--journal", "--ckpt"]);
        args.push(ckpt.display().to_string());
        args.extend([flag.to_string(), index.to_string()]);
        args.extend(["--seed".to_string(), seed.to_string()]);
        args
    }

    /// `quickdrop-cli serve ...` over `stream`.
    pub fn serve_args(
        &self,
        stream: &Stream,
        ckpt: &Path,
        stats_out: &Path,
        seed: u64,
    ) -> Vec<String> {
        let mut args = strings(&["serve", "--dataset", "cifar", "--ckpt"]);
        args.push(ckpt.display().to_string());
        args.extend(["--stats-out".to_string(), stats_out.display().to_string()]);
        for (flag, value) in [
            ("--tenants", stream.tenants as u64),
            ("--arrival-requests", stream.arrival_requests as u64),
            ("--arrival-gap-us", stream.arrival_gap_us),
            ("--queue-cap", stream.queue_cap as u64),
            ("--seed", seed),
        ] {
            args.push(flag.to_string());
            args.push(value.to_string());
        }
        if let Some(max_batch) = stream.coalesce {
            args.push("--coalesce".to_string());
            args.extend(["--max-batch".to_string(), max_batch.to_string()]);
        }
        args
    }

    /// The targets of one request-stream pass: a seeded choice and order
    /// of `request_classes` classes and `request_clients` clients, so
    /// every pass has the same composition whatever the seed.
    pub fn request_targets(&self, seed: u64) -> Vec<UnlearnRequest> {
        let mut rng = Rng::seed_from(seed ^ 0x7A26);
        let mut classes: Vec<usize> = (0..DATASET.classes()).collect();
        rng.shuffle(&mut classes);
        let mut clients: Vec<usize> = (0..self.clients).collect();
        rng.shuffle(&mut clients);
        let mut targets: Vec<UnlearnRequest> = classes
            .into_iter()
            .take(self.request_classes)
            .map(UnlearnRequest::Class)
            .chain(
                clients
                    .into_iter()
                    .take(self.request_clients)
                    .map(UnlearnRequest::Client),
            )
            .collect();
        rng.shuffle(&mut targets);
        targets
    }
}

fn strings(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// The serving seed of pass `pass` under workload seed `seed`: distinct
/// for every (seed, pass), so neighbouring seeds never share a stream.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(pass as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is one line", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn request_targets_are_seeded_and_fixed_in_composition() {
        let s = Scale::FULL;
        let a = s.request_targets(11);
        assert_eq!(a, s.request_targets(11), "same seed, same targets");
        assert_ne!(a, s.request_targets(12), "another seed, another order");
        for seed in 0..50 {
            let t = s.request_targets(seed);
            let classes = t
                .iter()
                .filter(|r| matches!(r, UnlearnRequest::Class(_)))
                .count();
            assert_eq!(classes, s.request_classes);
            assert_eq!(t.len(), s.request_classes + s.request_clients);
            let unique: std::collections::BTreeSet<String> =
                t.iter().map(ToString::to_string).collect();
            assert_eq!(unique.len(), t.len(), "each target once per pass");
        }
    }

    #[test]
    fn cli_flags_are_the_pinned_surface() {
        let s = Scale::FULL;
        let train = s.train_args(Path::new("d/deploy.json"), 11).join(" ");
        assert_eq!(
            train,
            "train --dataset cifar --iid --out d/deploy.json --clients 4 --samples 800 \
             --rounds 3 --steps 8 --batch 32 --scale 100 --seed 11"
        );
        let req = s
            .request_args(
                "unlearn",
                Path::new("d/deploy.json"),
                UnlearnRequest::Class(3),
                7,
            )
            .join(" ");
        assert_eq!(
            req,
            "unlearn --dataset cifar --journal --ckpt d/deploy.json --class 3 --seed 7"
        );
        let serve = s
            .serve_args(
                &s.mixed,
                Path::new("d/deploy.json"),
                Path::new("d/stats.json"),
                5,
            )
            .join(" ");
        assert_eq!(
            serve,
            "serve --dataset cifar --ckpt d/deploy.json --stats-out d/stats.json --tenants 3 \
             --arrival-requests 12 --arrival-gap-us 1000 --queue-cap 16 --seed 5 --coalesce \
             --max-batch 3"
        );
    }
}
