//! The untraced run: drives the shipped `quickdrop-cli` as sequential
//! child processes — a closed loop of one caller, so the children's own
//! threads are the only parallelism — and checks every output from the
//! files it wrote.

use crate::checks::{self, Tally};
use crate::child::{self, CpuClock, Invocation};
use crate::stats;
use crate::trace::now;
use crate::workload::{pass_seed, Scale, Workload};
use qd_core::RequestState;
use qd_eval::split_accuracy;
use qd_unlearn::UnlearnRequest;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where and with what the children run.
pub struct Env {
    /// The `quickdrop-cli` binary.
    pub cli: PathBuf,
    /// A directory of this run's own; removed by the caller at exit.
    pub work: PathBuf,
    /// `USER_HZ`, for reading `/proc/self/stat`.
    pub ticks_per_s: f64,
}

/// What one untraced run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up time: median fixture training, plus the history build
    /// where the workload has one.
    pub setup_s: f64,
    /// Wall time of each timed invocation, in order.
    pub op_ms: Vec<f64>,
    /// User + system CPU seconds of the timed children.
    pub cpu_s: f64,
    /// System share of that CPU time.
    pub sys_share: f64,
    /// Highest peak RSS among the timed children.
    pub peak_rss_kib: u64,
    /// Bytes in the deployment directory at the end of each pass.
    pub disk_bytes: Vec<f64>,
    /// F-Set / R-Set accuracy after each timed class `unlearn`.
    pub forget_acc: Vec<f64>,
    pub retain_acc: Vec<f64>,
    /// Operations attempted and failed, set-up included.
    pub tally: Tally,
    /// Timed passes completed.
    pub passes: usize,
    /// Digest of the deployment's parameter bits after the first timed
    /// pass — the pass the traced replica replays.
    pub model_digest: u64,
}

impl Outcome {
    fn timed(&mut self, inv: &Invocation) {
        self.op_ms.push(inv.wall.as_secs_f64() * 1e3);
        self.peak_rss_kib = self.peak_rss_kib.max(inv.peak_rss_kib);
    }

    /// Median wall time of one invocation.
    pub fn op_ms_p50(&self) -> f64 {
        stats::median(&self.op_ms).unwrap_or(f64::NAN)
    }

    /// CPU milliseconds per timed invocation.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.op_ms.len() as f64
    }

    /// Peak RSS in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kib as f64 / 1024.0
    }

    /// Median end-of-pass deployment directory size in MiB.
    pub fn disk_mb(&self) -> f64 {
        stats::median(&self.disk_bytes).unwrap_or(f64::NAN) / (1024.0 * 1024.0)
    }
}

fn exit_ok(inv: &Invocation) -> Result<(), String> {
    if inv.ok {
        Ok(())
    } else {
        Err("child exited non-zero".to_string())
    }
}

pub fn fresh_dir(dir: &Path) -> PathBuf {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("work directory is creatable");
    dir.to_path_buf()
}

/// A fresh deployment directory holding a copy of the fixture; returns
/// the checkpoint path inside it.
pub fn deploy_copy(dir: &Path, fixture: &Path) -> PathBuf {
    let ckpt = fresh_dir(dir).join("deploy.json");
    std::fs::copy(fixture, &ckpt).expect("fixture copies into the work directory");
    ckpt
}

/// Runs `workload` untraced at `scale` from `seed`, measuring whole
/// passes until `seconds` of measuring time are used (at least one pass;
/// the count rounds to the nearest whole pass).
pub fn run(env: &Env, workload: Workload, scale: &Scale, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let root = fresh_dir(&env.work.join(workload.name()));

    // Set-up: train the fixture `setup_reps` times, keep the last.
    let mut train_s = Vec::new();
    let mut fixture = PathBuf::new();
    for rep in 0..scale.setup_reps {
        fixture = fresh_dir(&root.join(format!("setup-{rep}"))).join("deploy.json");
        let inv = child::invoke(&env.cli, &scale.train_args(&fixture, seed));
        train_s.push(inv.wall.as_secs_f64());
        let verdict =
            exit_ok(&inv).and_then(|()| checks::deployment(&fixture, scale.clients).map(drop));
        out.tally.op("set-up train", verdict);
    }
    out.setup_s = stats::median(&train_s).unwrap_or(f64::NAN);
    if out.tally.failed > 0 {
        return out; // nothing to measure from a broken fixture
    }
    let fixture_bytes = std::fs::read(&fixture).unwrap_or_default();

    // reopen-history also serves the history its passes re-open.
    let history = root.join("history");
    if workload == Workload::ReopenHistory {
        let ckpt = deploy_copy(&history, &fixture);
        let inv = serve(env, scale, &scale.history, &ckpt, seed, &mut out);
        out.setup_s += inv.wall.as_secs_f64();
        if out.tally.failed > 0 {
            return out;
        }
    }

    let clock = CpuClock::now(env.ticks_per_s);
    let start = now();
    let window = Duration::from_secs_f64(seconds);
    loop {
        let dir = root.join("pass");
        let ckpt = match workload {
            Workload::TrainDistill => {
                let ckpt = fresh_dir(&dir).join("deploy.json");
                let inv = child::invoke(&env.cli, &scale.train_args(&ckpt, seed));
                out.timed(&inv);
                // Same seed as the fixture, so the same bytes: training
                // is deterministic or the benchmark says so.
                let verdict = exit_ok(&inv)
                    .and_then(|()| checks::deployment(&ckpt, scale.clients).map(drop))
                    .and_then(|()| match std::fs::read(&ckpt) {
                        Ok(bytes) if bytes == fixture_bytes => Ok(()),
                        _ => Err("checkpoint differs from the same-seed fixture".to_string()),
                    });
                out.tally.op("train", verdict);
                ckpt
            }
            Workload::RequestStream => {
                let ckpt = deploy_copy(&dir, &fixture);
                request_pass(env, scale, &ckpt, pass_seed(seed, out.passes), &mut out);
                ckpt
            }
            Workload::ServeMixed => {
                let ckpt = deploy_copy(&dir, &fixture);
                let inv = serve(
                    env,
                    scale,
                    &scale.mixed,
                    &ckpt,
                    pass_seed(seed, out.passes),
                    &mut out,
                );
                out.timed(&inv);
                ckpt
            }
            Workload::ReopenHistory => {
                let ckpt = history.join("deploy.json");
                reopen_pass(env, scale, &ckpt, seed, &mut out);
                ckpt
            }
        };
        out.disk_bytes
            .push(child::dir_bytes(ckpt.parent().expect("checkpoint lives in a directory")) as f64);
        if out.passes == 0 {
            if let Ok((params, _)) = checks::deployment(&ckpt, scale.clients) {
                out.model_digest = checks::params_digest(&params);
            }
        }
        out.passes += 1;
        let elapsed = start.elapsed();
        let half_pass = elapsed / (2 * out.passes as u32);
        if scale.max_passes.is_some_and(|m| out.passes >= m) || elapsed + half_pass >= window {
            break;
        }
    }
    let spent = CpuClock::now(env.ticks_per_s);
    out.cpu_s = spent.children - clock.children;
    let sys = spent.children_sys - clock.children_sys;
    out.sys_share = if out.cpu_s > 0.0 {
        sys / out.cpu_s
    } else {
        0.0
    };
    out
}

/// One `serve` process over `stream`; every offered request is an
/// operation, failed unless the stats file counts it served.
fn serve(
    env: &Env,
    scale: &Scale,
    stream: &crate::workload::Stream,
    ckpt: &Path,
    seed: u64,
    out: &mut Outcome,
) -> Invocation {
    let stats_out = ckpt.with_file_name("stats.json");
    std::fs::remove_file(&stats_out).ok();
    let inv = child::invoke(&env.cli, &scale.serve_args(stream, ckpt, &stats_out, seed));
    let offered = stream.offered() as u64;
    out.tally.attempted += offered;
    let text = std::fs::read_to_string(&stats_out).unwrap_or_default();
    let served = match (
        checks::json_u64(&text, "offered"),
        checks::json_u64(&text, "served"),
    ) {
        (Some(o), Some(s)) if inv.ok && o == offered => s.min(offered),
        _ => 0,
    };
    if served < offered {
        out.tally.fail(
            offered - served,
            format!("serve: {served} of {offered} offered requests served"),
        );
    } else if let Err(why) = checks::deployment(ckpt, scale.clients) {
        out.tally.fail(offered, format!("serve: {why}"));
    }
    inv
}

/// `unlearn` then `relearn` for each target of the pass, one process
/// each, against the journal next to `ckpt`.
fn request_pass(env: &Env, scale: &Scale, ckpt: &Path, seed: u64, out: &mut Outcome) {
    let model = checks::model();
    let test = checks::test_set(scale.test_samples, seed);
    for target in scale.request_targets(seed) {
        for (verb, terminal) in [
            ("unlearn", RequestState::Recovered),
            ("relearn", RequestState::Relearned),
        ] {
            let inv = child::invoke(&env.cli, &scale.request_args(verb, ckpt, target, seed));
            out.timed(&inv);
            let verdict = exit_ok(&inv)
                .and_then(|()| checks::journal_ends_with(ckpt, target, terminal))
                .and_then(|()| checks::deployment(ckpt, scale.clients))
                .map(|(params, _)| {
                    if let (UnlearnRequest::Class(c), "unlearn") = (target, verb) {
                        let (f, r) = (test.only_class(c), test.without_class(c));
                        let (fa, ra) = split_accuracy(&model, &params, &f, &r);
                        out.forget_acc.push(f64::from(fa));
                        out.retain_acc.push(f64::from(ra));
                    }
                });
            out.tally.op(&format!("{verb} {target}"), verdict);
        }
    }
}

/// Idempotent re-invocations of the history's `serve` command: each must
/// exit 0; the journal bytes and the restored parameters must come out
/// of the pass exactly as they went in.
fn reopen_pass(env: &Env, scale: &Scale, ckpt: &Path, seed: u64, out: &mut Outcome) {
    let state = |ckpt: &Path| -> Result<(u64, u64), String> {
        let (params, _) = checks::deployment(ckpt, scale.clients)?;
        Ok((
            checks::journal_digest(ckpt)?,
            checks::params_digest(&params),
        ))
    };
    let before = state(ckpt);
    let stats_out = ckpt.with_file_name("stats.json");
    let args = scale.serve_args(&scale.history, ckpt, &stats_out, seed);
    let mut oks = 0u64;
    for _ in 0..scale.reopens_per_pass {
        let inv = child::invoke(&env.cli, &args);
        out.timed(&inv);
        out.tally.op("reopen", exit_ok(&inv));
        oks += u64::from(inv.ok);
    }
    match (before, state(ckpt)) {
        (Ok(b), Ok(a)) if a == b => {}
        (Ok(_), Ok(_)) => out.tally.fail(
            oks,
            "reopen: journal bytes or parameters changed".to_string(),
        ),
        (Err(why), _) | (_, Err(why)) => out.tally.fail(oks, format!("reopen: {why}")),
    }
}
