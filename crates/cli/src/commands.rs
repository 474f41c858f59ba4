//! The CLI subcommands.

use crate::{Args, ParseError};
use qd_core::{
    Checkpoint, CheckpointError, CheckpointPolicy, QuickDrop, QuickDropConfig, RequestJournal,
    ServeError, StdFs,
};
use qd_data::{ascii_samples, partition_dirichlet, partition_iid, Dataset, SyntheticDataset};
use qd_eval::{accuracy, class_hits, class_split};
use qd_fed::{Federation, Phase};
use qd_nn::ConvNet;
use qd_serve::{run_service_isolated, Deployment, Geometry};
use qd_tensor::rng::Rng;
use qd_unlearn::{GuardPolicy, UnlearnRequest, UnlearningMethod, DEFAULT_DRIFT_BUDGET};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Parse(ParseError),
    /// Checkpoint or filesystem failure.
    Io(std::io::Error),
    /// Anything else (unknown subcommand, inconsistent request, ...).
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "{e}"),
            // Storage failures carry the operation and path they failed
            // on (plus what to do about disk-full / fsync failures);
            // print that instead of the bare OS error chain.
            CliError::Io(e) => match qd_core::storage_cause(e) {
                Some(storage) => write!(f, "storage: {}", storage.actionable()),
                None => write!(f, "{e}"),
            },
            CliError::Usage(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        CliError::Io(e.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Journal(e) => CliError::Io(e.into()),
            ServeError::Checkpoint(e) => CliError::from(e),
            ServeError::Io(io) => CliError::Io(io),
            ServeError::Diverged(d) => CliError::Usage(d.to_string()),
        }
    }
}

impl From<qd_serve::ServiceError> for CliError {
    fn from(e: qd_serve::ServiceError) -> Self {
        match e {
            qd_serve::ServiceError::Plan(msg) => CliError::Usage(msg),
            // I/O failures route through `CliError::Io` so storage
            // errors render their actionable advice (operation, path,
            // what to do) via `storage_cause`, like every other path.
            qd_serve::ServiceError::Serve(s) => CliError::from(s),
            e @ qd_serve::ServiceError::Geometry(_) => CliError::Usage(e.to_string()),
            qd_serve::ServiceError::ForeignJournal(msg) => CliError::Usage(format!(
                "journal does not match this service plan: {msg}\n\
                 (point --journal at this run's journal, or move the stale one aside)"
            )),
        }
    }
}

/// Usage text printed by `help` and on errors.
pub const USAGE: &str = "\
quickdrop-cli — federated unlearning via synthetic data

USAGE:
  quickdrop-cli train   --out ckpt.json [--dataset digits|cifar|svhn]
                        [--clients N] [--alpha A | --iid] [--samples N]
                        [--rounds K] [--steps T] [--batch B] [--lr LR]
                        [--scale S] [--seed X]
                        [--aggregator fedavg|median|trimmed-mean|norm-clip]
                        [--quorum N] [--byzantine-frac F]
                        [--checkpoint-every K] [--resume] [--cooldown-rounds N]
  quickdrop-cli unlearn --ckpt ckpt.json (--class C | --client I)
                        [--out ckpt.json] [--dataset D] [--samples N]
                        [--seed X] [--drift-budget F] [--retain-probe L]
                        [--ascent-retries N] [--journal [PATH]]
  quickdrop-cli relearn --ckpt ckpt.json (--class C | --client I)
                        [--out ckpt.json] [--dataset D] [--samples N]
                        [--seed X] [--drift-budget F] [--retain-probe L]
                        [--ascent-retries N] [--journal [PATH]]
  quickdrop-cli serve   --ckpt ckpt.json [--out ckpt.json] [--dataset D]
                        [--tenants N] [--arrival-requests N]
                        [--arrival-gap-us U] [--queue-cap N]
                        [--coalesce] [--max-batch N] [--class-share F]
                        [--weights W1,W2,...] [--seed X]
                        [--drift-budget F] [--retain-probe L]
                        [--ascent-retries N] [--journal [PATH]]
                        [--unit-retries N] [--bisect]
                        [--breaker-trip N] [--breaker-cooldown N]
                        [--stats-out stats.json]
  quickdrop-cli eval    --ckpt ckpt.json [--dataset D] [--samples N] [--seed X]
  quickdrop-cli show    --ckpt ckpt.json [--client I] [--limit N]
  quickdrop-cli dump    --ckpt ckpt.json [--journal [PATH]]
  quickdrop-cli chaos   --replay chaos-repro.json
  quickdrop-cli help
";

fn dataset_by_name(name: &str) -> Result<SyntheticDataset, CliError> {
    match name {
        "digits" => Ok(SyntheticDataset::Digits),
        "cifar" => Ok(SyntheticDataset::Cifar),
        "svhn" => Ok(SyntheticDataset::Svhn),
        other => Err(CliError::Usage(format!(
            "unknown dataset {other:?} (expected digits|cifar|svhn)"
        ))),
    }
}

/// The architecture every CLI deployment uses; channels/classes are
/// recovered from the checkpoint's synthetic geometry on reload.
fn model_for(dataset: SyntheticDataset) -> Arc<ConvNet> {
    Arc::new(ConvNet::scaled_default(
        dataset.channels(),
        dataset.classes(),
    ))
}

/// Reads the `--drift-budget` / `--retain-probe` / `--ascent-retries`
/// family into a [`GuardPolicy`], or `None` when no guard flag was
/// given — keeping the unguarded serving path bit-for-bit untouched.
/// Out-of-range values surface `GuardPolicy::validate`'s verdict as a
/// usage error.
fn guard_policy_from(args: &Args) -> Result<Option<GuardPolicy>, CliError> {
    let requested = args.has_option("drift-budget")
        || args.has_option("retain-probe")
        || args.has_option("ascent-retries");
    if !requested {
        return Ok(None);
    }
    let policy = GuardPolicy {
        drift_budget: args.get_f32("drift-budget", DEFAULT_DRIFT_BUDGET)?,
        retain_probe: args.get_f32("retain-probe", 0.0)?,
        ascent_retries: args.get_u32("ascent-retries", 3)?,
        ..GuardPolicy::default()
    };
    policy
        .validate()
        .map_err(|msg| CliError::Usage(format!("bad guard option: {msg}")))?;
    Ok(Some(policy))
}

/// Reads the `--unit-retries` / `--bisect` / `--breaker-*` family into
/// an [`qd_serve::IsolationConfig`]. All default to off — a command
/// line without these flags serves bit-for-bit as before failure
/// isolation existed.
fn isolation_config_from(args: &Args) -> Result<qd_serve::IsolationConfig, CliError> {
    let iso = qd_serve::IsolationConfig {
        unit_retries: args.get_u32("unit-retries", 0)?,
        bisect: args.flag("bisect"),
        breaker_trip: args.get_u32("breaker-trip", 0)?,
        breaker_cooldown: args.get_u32("breaker-cooldown", 0)?,
    };
    iso.validate()
        .map_err(|msg| CliError::Usage(format!("bad isolation option: {msg}")))?;
    Ok(iso)
}

/// The journal location: `--journal PATH` names it explicitly, a bare
/// `--journal` derives `<ckpt>.journal`, absence disables journaling.
fn journal_path_from(args: &Args, ckpt: &str) -> Option<std::path::PathBuf> {
    if args.has_option("journal") {
        Some(std::path::PathBuf::from(args.get_str("journal", "")))
    } else if args.flag("journal") {
        Some(RequestJournal::path_for_checkpoint(ckpt))
    } else {
        None
    }
}

fn request_from(args: &Args) -> Result<UnlearnRequest, CliError> {
    match (args.get_opt_usize("class")?, args.get_opt_usize("client")?) {
        (Some(c), None) => Ok(UnlearnRequest::Class(c)),
        (None, Some(i)) => Ok(UnlearnRequest::Client(i)),
        _ => Err(CliError::Usage(
            "exactly one of --class or --client is required".into(),
        )),
    }
}

/// Refuses a request naming a class or client the deployment `fed` does
/// not have — it would forget nothing yet journal a unit and mark the
/// class forgotten.
fn check_in_range(request: UnlearnRequest, fed: &Federation) -> Result<(), CliError> {
    let (index, count, unit) = match request {
        UnlearnRequest::Class(c) => (c, fed.client_data(0).classes(), "classes"),
        UnlearnRequest::Client(i) => (i, fed.n_clients(), "clients"),
    };
    if index < count {
        return Ok(());
    }
    Err(CliError::Usage(format!(
        "{request} out of range (deployment has {count} {unit})"
    )))
}

/// The `(channels, side, classes)` of `dataset`'s samples.
fn geometry_of(dataset: SyntheticDataset) -> Geometry {
    (dataset.channels(), dataset.hw(), dataset.classes())
}

/// Refuses a `--dataset` the deployment's model cannot read, before
/// anything is computed or written: its channels, side and class count
/// must be the checkpoint's synthetic geometry. (SynthCifar and SynthSvhn
/// share one, so which of the two a deployment was trained on is not
/// checked.)
fn check_geometry(
    args: &Args,
    dataset: SyntheticDataset,
    ckpt: &Checkpoint,
) -> Result<(), CliError> {
    let path = args.get_str("ckpt", "");
    qd_serve::check_geometry(geometry_of(dataset), ckpt, Path::new(&path))
        .map_err(|msg| dataset_refused(args, &msg))
}

/// A geometry refusal, naming the `--dataset` that was given.
fn dataset_refused(args: &Args, msg: &str) -> CliError {
    let dataset = args.get_str("dataset", "digits");
    CliError::Usage(format!("--dataset {dataset} {msg}"))
}

/// Opens the journaled deployment at `ckpt` ([`Deployment::open`] on the
/// real filesystem), with the line that reports a fallback to its
/// `.prev` generation (empty without one).
fn open_journaled(
    args: &Args,
    dataset: SyntheticDataset,
    ckpt: &str,
    journal: &Path,
) -> Result<(Deployment, String), CliError> {
    let (vfs, geometry) = (Arc::new(StdFs), geometry_of(dataset));
    let opened = Deployment::open(vfs, Path::new(ckpt), journal, geometry, model_for(dataset));
    let deployment = opened.map_err(|e| match e {
        qd_serve::ServiceError::Geometry(msg) => dataset_refused(args, &msg),
        e => e.into(),
    })?;
    let rolls = "the journal rolls it forward";
    let line = fell_back_line(deployment.fell_back.as_ref(), ckpt, rolls);
    Ok((deployment, line))
}

/// The report line of a load that fell back to `<ckpt>.prev`: the
/// primary's error, then what was read instead and what `then` makes of
/// it. Empty when the primary loaded.
fn fell_back_line(primary: Option<&CheckpointError>, ckpt: &str, then: &str) -> String {
    primary.map_or_else(String::new, |primary| {
        format!(
            "{primary}\nfell back to the previous checkpoint generation {}; {then}\n",
            Checkpoint::prev_path(Path::new(ckpt)).display()
        )
    })
}

/// The report line of a [`Deployment::close`] for one file.
fn closed_line(what: &str, written: bool, path: &str) -> String {
    let verb = ["unchanged at", "written to"][usize::from(written)];
    format!("{what} {verb} {path}\n")
}

/// Executes a parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for unknown subcommands, malformed options, or
/// checkpoint I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let command: fn(&Args) -> Result<String, CliError> = match args.command() {
        "help" | "usage" => return Ok(USAGE.to_string()),
        "train" => train,
        "unlearn" => |args| serve(args, ServeMode::Unlearn),
        "relearn" => |args| serve(args, ServeMode::Relearn),
        "serve" => service,
        "eval" => eval,
        "show" => show,
        "dump" => dump,
        "chaos" => chaos,
        other => {
            return Err(CliError::Usage(format!(
                "unknown subcommand {other:?}\n\n{USAGE}"
            )))
        }
    };
    check_options(args)?;
    command(args)
}

/// Refuses an option the subcommand does not take, naming it: a typo in
/// an option would otherwise be read as its absence.
fn check_options(args: &Args) -> Result<(), CliError> {
    let accepted = usage_options(args.command());
    match args.keys().find(|key| !accepted.contains(key)) {
        Some(key) => Err(CliError::Usage(format!(
            "{} does not take --{key}\n\n{USAGE}",
            args.command()
        ))),
        None => Ok(()),
    }
}

/// The options [`USAGE`] lists for `command`: the one list a command
/// line is checked against, so the help text and the parser cannot
/// drift apart.
fn usage_options(command: &str) -> Vec<&'static str> {
    let mut current = None;
    let mut options = Vec::new();
    for line in USAGE.lines() {
        if let Some(rest) = line.strip_prefix("  quickdrop-cli ") {
            current = rest.split_whitespace().next();
        } else if !line.starts_with("    ") {
            current = None;
        }
        if current == Some(command) {
            options.extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|token| token.strip_prefix("--")),
            );
        }
    }
    options
}

/// A count option that must be at least 1: zero is refused by name, before
/// anything is loaded or written, rather than running on nothing (a training
/// set, a batch, a test set that reports 0.0 % as if it were a result).
fn positive_count(args: &Args, key: &str, default: usize) -> Result<usize, CliError> {
    match args.get_usize(key, default)? {
        0 => Err(CliError::Usage(format!("--{key} must be at least 1"))),
        n => Ok(n),
    }
}

fn train(args: &Args) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let out = args.require_str("out")?;
    let clients = positive_count(args, "clients", 4)?;
    let samples = positive_count(args, "samples", 800)?;
    let rounds = positive_count(args, "rounds", 8)?;
    let steps = positive_count(args, "steps", 8)?;
    let batch = positive_count(args, "batch", 32)?;
    let lr = args.get_f32("lr", 0.08)?;
    let scale = positive_count(args, "scale", 100)?;
    let seed = args.get_u64("seed", 42)?;
    // Dirichlet's concentration; `--iid` partitions without one.
    let alpha = (!args.flag("iid"))
        .then(|| args.get_f32("alpha", 0.1))
        .transpose()?;
    for (key, value) in [("lr", Some(lr)), ("alpha", alpha)] {
        if let Some(v) = value.filter(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(CliError::Usage(format!(
                "--{key} must be positive and finite, got {v}"
            )));
        }
    }
    let aggregator = {
        let name = args.get_str("aggregator", "fedavg");
        qd_fed::AggregatorKind::parse(&name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown aggregator {name:?} (expected fedavg|median|trimmed-mean|norm-clip)"
            ))
        })?
    };
    let quorum = args.get_usize("quorum", 0)?;
    if quorum > clients {
        // No round could reach it: every one would keep the initial model.
        return Err(CliError::Usage(format!(
            "--quorum {quorum} is more than --clients {clients}"
        )));
    }
    let byzantine_frac = args.get_f32("byzantine-frac", 0.0)?;
    if !(0.0..1.0).contains(&byzantine_frac) {
        return Err(CliError::Usage(format!(
            "--byzantine-frac must be in [0, 1), got {byzantine_frac}"
        )));
    }

    let mut rng = Rng::seed_from(seed);
    let data = dataset.generate(samples, &mut rng);
    let parts = match alpha {
        None => partition_iid(data.len(), clients, &mut rng),
        Some(alpha) => partition_dirichlet(data.labels(), data.classes(), clients, alpha, &mut rng),
    };
    let client_data: Vec<Dataset> = parts.iter().map(|p| data.subset(p)).collect();
    // The federation holds the only copies from here on.
    drop(data);
    let model = model_for(dataset);
    let mut fed = Federation::new(model, client_data, &mut rng);
    if byzantine_frac > 0.0 {
        // Chaos experiments: derive the fault trace from the run seed so
        // the attack is reproducible alongside everything else.
        fed.set_fault_plan(Some(qd_fed::FaultPlan::new(seed ^ 0xFA17, byzantine_frac)));
    }

    let mut config = QuickDropConfig::paper_shaped(rounds, steps, batch, lr);
    config.distill.scale = scale;
    config.distill.classes_per_step = 2;
    config.distill.lr_syn = 0.5;
    config.train_phase = config
        .train_phase
        .with_aggregator(aggregator)
        .with_min_quorum(quorum)
        .with_cooldown_rounds(args.get_usize("cooldown-rounds", 0)?);
    config.unlearn_phase = Phase::unlearning(1, steps.min(6), batch, lr / 2.0);
    config.max_unlearn_rounds = 4;

    // Mid-phase checkpoints share the --out path: while the run is in
    // flight the file holds a resumable cursor, and on completion the
    // final deployment checkpoint atomically replaces it.
    let policy = CheckpointPolicy {
        every: args.get_usize("checkpoint-every", 0)?,
        path: std::path::PathBuf::from(&out),
    };
    let resume = args.flag("resume");
    let ((_, report), fell_back) = if resume {
        // --resume ignores the phase-shape flags: the checkpoint's own
        // config governs the remainder of the run. The data flags
        // (--dataset/--clients/--samples/--seed/...) must match the
        // original invocation so the rebuilt federation does too.
        QuickDrop::resume_train(&mut fed, &mut rng, &StdFs, &policy)?
    } else {
        let trained =
            QuickDrop::train_with_checkpoints(&mut fed, config, &mut rng, &StdFs, &policy);
        (trained?, None)
    };
    let fell_back_line = fell_back_line(fell_back.as_ref(), &out, "training resumes from it");
    // A resume times only the rounds it ran: the checkpoint stores no
    // wall clock, which would make same-seed checkpoints differ.
    let dd_overhead = format!("DD overhead {:.0}%", report.dd_overhead() * 100.0);
    let dd_overhead = match report.fl_stats.rounds {
        _ if !resume => dd_overhead,
        0 => "no round was left to train".to_string(),
        rounds => format!("{dd_overhead} over the {rounds} round(s) this resume ran"),
    };
    Ok(format!(
        "{fell_back_line}trained {} on {} clients ({} samples); synthetic storage {:.1}%, \
         {dd_overhead}; checkpoint written to {out}\n",
        dataset.name(),
        clients,
        samples,
        report.storage_fraction() * 100.0,
    ))
}

#[derive(Clone, Copy, PartialEq)]
enum ServeMode {
    Unlearn,
    Relearn,
}

fn serve(args: &Args, mode: ServeMode) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let path = args.require_str("ckpt")?;
    let out = args.get_str("out", &path);
    let seed = args.get_u64("seed", 42)?;
    let request = request_from(args)?;
    let samples = positive_count(args, "samples", 400)?;

    let model = model_for(dataset);
    let policy = guard_policy_from(args)?;
    // Serves the request on the open deployment and returns the report.
    // With a journal, a request interrupted by a crash in an earlier
    // invocation is finished first, reproducing the uninterrupted stream
    // bit-for-bit, and the marks are the journal tail's from then on.
    let serve_on = |qd: &mut QuickDrop,
                    fed: &mut Federation,
                    mut journal: Option<&mut RequestJournal>|
     -> Result<String, CliError> {
        check_in_range(request, fed)?;
        // Serving RNG is independent of the training seed.
        let mut rng = Rng::seed_from(seed ^ 0x5EED);
        let resumed_line = match &mut journal {
            Some(journal) => qd
                .resume_requests(fed, journal, policy.as_ref(), &mut rng)?
                .map(|_| "finished an in-flight request from the journal\n")
                .unwrap_or_default(),
            None => "",
        };
        // Relearning what the deployment has not forgotten would only
        // rewrite the model; `relearn_journaled` refuses it as well.
        if mode == ServeMode::Relearn && !qd.is_forgotten(request) {
            return Err(CliError::Usage(format!(
                "the deployment has not forgotten {request}: nothing to relearn"
            )));
        }
        // The test set exists only while the report scores it, after the
        // model work: its own seed, so nothing else moves.
        let report_accuracy = |fed: &Federation| {
            let test = dataset.generate(samples, &mut Rng::seed_from(seed + 1));
            match request {
                UnlearnRequest::Class(c) => {
                    let (f, r) = class_split(model.as_ref(), fed.global(), &test, c);
                    (
                        percent(f.accuracy(), f.total),
                        percent(r.accuracy(), r.total),
                    )
                }
                UnlearnRequest::Client(_) => {
                    // Client-level evaluation data is not reconstructible
                    // from a stub federation; report whole-test accuracy,
                    // evaluated once, in both columns.
                    let acc = accuracy(model.as_ref(), fed.global(), &test);
                    let whole = percent(acc, test.len());
                    (whole.clone(), whole)
                }
            }
        };
        let report = match mode {
            ServeMode::Unlearn => {
                let outcome = if let Some(journal) = &mut journal {
                    qd.serve_journaled(fed, journal, request, policy.as_ref(), &mut rng, None)?
                        .into_complete()
                        .expect("no preemption configured")
                } else if let Some(policy) = &policy {
                    qd.unlearn_guarded(fed, request, policy, &mut rng)
                        .map_err(|e| CliError::Usage(e.to_string()))?
                } else {
                    qd.unlearn(fed, request, &mut rng)
                };
                let guard_line = outcome
                    .guard
                    .map(|s| {
                        format!(
                            "guard: {} attempt(s), {} rollback(s), final drift {:.2}\n",
                            s.steps, s.rollbacks, s.final_drift
                        )
                    })
                    .unwrap_or_default();
                let (fa, ra) = report_accuracy(fed);
                format!(
                    "unlearned {request} in {:.0} ms over {} synthetic samples; \
                     F-Set {fa}, R-Set {ra}\n{guard_line}",
                    outcome.total().wall.as_secs_f64() * 1000.0,
                    outcome.unlearn.data_size,
                )
            }
            ServeMode::Relearn => {
                let phase = qd.config().relearn_phase;
                let stats = if let Some(journal) = &mut journal {
                    qd.relearn_journaled(fed, journal, request, &phase, &mut rng)?
                } else {
                    qd.relearn(fed, request, &phase, &mut rng)
                        .expect("QuickDrop supports relearning")
                };
                let (fa, ra) = report_accuracy(fed);
                format!(
                    "relearned {request} in {:.0} ms; F-Set {fa}, R-Set {ra}\n",
                    stats.wall.as_secs_f64() * 1000.0,
                )
            }
        };
        Ok(format!("{resumed_line}{report}"))
    };
    // With --journal the deployment opens and closes through the journal:
    // a corrupt primary checkpoint falls back to `.prev`, and the model,
    // RNG stream and request progress continue from the journal's last
    // record. Without one nothing could roll `.prev` forward, so the load
    // is strict.
    let Some(journal) = journal_path_from(args, &path) else {
        let loaded = Checkpoint::load(&path)?;
        check_geometry(args, dataset, &loaded)?;
        let (params, mut qd) = loaded.restore()?;
        let mut fed = qd.serving_federation(model.clone(), params)?;
        let report = serve_on(&mut qd, &mut fed, None)?;
        Checkpoint::capture(fed.global(), &qd).save_on(&StdFs, Path::new(&out))?;
        return Ok(format!("{report}checkpoint written to {out}\n"));
    };
    let (mut deployment, fell_back_line) = open_journaled(args, dataset, &path, &journal)?;
    let d = &mut deployment;
    let report = serve_on(&mut d.qd, &mut d.fed, Some(&mut d.journal))?;
    let closed = deployment.close(Path::new(&out), None)?;
    let ckpt_line = closed_line("checkpoint", closed.ckpt_written, &out);
    Ok(format!("{fell_back_line}{report}{ckpt_line}"))
}

/// Reads the serve front-end flags into a [`qd_serve::ServeConfig`].
/// The request universes come from the deployment itself (its class
/// count and client count), so every planned request is valid for it.
fn serve_config_from(
    args: &Args,
    classes: usize,
    clients: usize,
) -> Result<qd_serve::ServeConfig, CliError> {
    let weights = {
        let raw = args.get_str("weights", "1");
        raw.split(',')
            .map(|w| {
                w.trim()
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("bad --weights entry {w:?}")))
            })
            .collect::<Result<Vec<u64>, CliError>>()?
    };
    let cfg = qd_serve::ServeConfig {
        tenants: args.get_usize("tenants", 3)?,
        arrival_requests: args.get_usize("arrival-requests", 8)?,
        arrival_gap_us: args.get_u64("arrival-gap-us", 1_000)?,
        queue_cap: args.get_usize("queue-cap", 16)?,
        coalesce: args.flag("coalesce"),
        max_batch: args.get_usize("max-batch", 4)?,
        weights,
        classes,
        clients,
        class_share: args.get_f32("class-share", 0.8)?,
        seed: args.get_u64("seed", 42)?,
        ..qd_serve::ServeConfig::default()
    };
    cfg.validate()
        .map_err(|msg| CliError::Usage(format!("bad serve option: {msg}")))?;
    Ok(cfg)
}

/// The `serve` subcommand: the multi-tenant unlearning-as-a-service
/// front end. Plans seeded arrival streams over the deployment, runs
/// them through the request journal (always on for this subcommand —
/// the service IS journal-driven), and reports SLA stats. A run killed
/// partway is continued by re-invoking the identical command line.
fn service(args: &Args) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let path = args.require_str("ckpt")?;
    let out = args.get_str("out", &path);
    let seed = args.get_u64("seed", 42)?;

    // The service always journals: progress counting and crash recovery
    // both live in the journal (the executor finishes whatever unit a
    // killed run left in flight). `--journal` only picks the location.
    let journal_path = journal_path_from(args, &path)
        .unwrap_or_else(|| RequestJournal::path_for_checkpoint(&path));
    let (mut d, fell_back_line) = open_journaled(args, dataset, &path, &journal_path)?;
    let cfg = serve_config_from(args, d.fed.client_data(0).classes(), d.fed.n_clients())?;
    let policy = guard_policy_from(args)?;
    let iso = isolation_config_from(args)?;
    let mut rng = Rng::seed_from(seed ^ 0x5EED);

    let (qd, fed, journal, policy) = (&mut d.qd, &mut d.fed, &mut d.journal, policy.as_ref());
    let run = run_service_isolated(qd, fed, journal, &cfg, policy, &iso, &mut rng, None)?;
    let stats = &run.stats;
    let stats_out = (args.has_option("stats-out")).then(|| args.get_str("stats-out", ""));
    let closed = d.close(
        Path::new(&out),
        stats_out.as_ref().map(|p| (Path::new(p), stats)),
    )?;
    let ckpt_line = closed_line("checkpoint", closed.ckpt_written, &out);
    let stats_line = (stats_out.as_ref())
        .map(|p| closed_line("stats", closed.stats_written, p))
        .unwrap_or_default();
    let resumed_units_line = if run.resumed_units > 0 {
        format!(
            "resumed past {} already-journaled service unit(s)\n",
            run.resumed_units
        )
    } else {
        String::new()
    };
    let degraded_line = if iso.active() {
        format!(
            "degraded mode: {} quarantined (dead-letter), {} shed by breakers; \
             {} unit(s) retried, {} bisected; breakers [{}]\n",
            stats.quarantined,
            stats.shed,
            stats.retried_units,
            stats.bisected_units,
            stats.breaker.join(", "),
        )
    } else {
        String::new()
    };
    Ok(format!(
        "{}served {} of {} offered requests from {} tenant(s) in {} unit(s) \
         (coalesce ratio {:.2}); rejected {}\n\
         virtual latency p50 {} µs, p99 {} µs; {:.1} req/s over {} µs\n\
         {degraded_line}{resumed_units_line}{stats_line}{ckpt_line}",
        fell_back_line,
        stats.served,
        stats.offered,
        stats.tenants,
        stats.batches,
        stats.coalesce_ratio,
        stats.rejected,
        stats.p50_latency_us,
        stats.p99_latency_us,
        stats.throughput_rps,
        stats.makespan_us,
    ))
}

/// `chaos --replay FILE`: re-executes a stored reproducer (a schedule and
/// the violation it tripped, as `Repro::to_json` writes it) and demands the
/// identical violation byte-for-byte; qd-chaos's tests run the schedules.
fn chaos(args: &Args) -> Result<String, CliError> {
    if !args.has_option("replay") {
        return Err(CliError::Usage(format!(
            "chaos takes --replay chaos-repro.json\n\n{USAGE}"
        )));
    }
    #[expect(clippy::disallowed_methods, reason = "reads an operator's file")]
    let text = std::fs::read_to_string(args.get_str("replay", ""))?;
    let repro = qd_chaos::Repro::from_json(&text).map_err(CliError::Usage)?;
    let mut harness = qd_chaos::Harness::new();
    let report = harness
        .run(&repro.schedule)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let replayed = report
        .violations
        .iter()
        .find(|v| v.invariant == repro.violation.invariant);
    match replayed {
        Some(v) if *v == repro.violation => Ok(format!(
            "replayed {}: {}\nviolation reproduced byte-for-byte\n",
            v.invariant, v.detail
        )),
        Some(v) => Err(CliError::Usage(format!(
            "violation drifted under replay:\n  stored:   {}\n  replayed: {}",
            repro.violation.detail, v.detail
        ))),
        None => Err(CliError::Usage(format!(
            "stored violation of {} did not reproduce",
            repro.violation.invariant
        ))),
    }
}

fn eval(args: &Args) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let path = args.require_str("ckpt")?;
    let seed = args.get_u64("seed", 42)?;
    let samples = positive_count(args, "samples", 400)?;
    let loaded = Checkpoint::load(&path)?;
    check_geometry(args, dataset, &loaded)?;
    let (params, qd) = loaded.restore()?;
    let model = model_for(dataset);
    let test = dataset.generate(samples, &mut Rng::seed_from(seed + 1));
    let hits = class_hits(model.as_ref(), &params, &test);
    let mut out = String::from("per-class accuracy:\n");
    for (c, h) in hits.iter().enumerate() {
        let marker = if qd.unlearned_classes().any(|u| u == c) {
            " (unlearned)"
        } else {
            ""
        };
        out.push_str(&format!(
            "  class {c}: {:>6}{marker}\n",
            percent(h.accuracy(), h.total)
        ));
    }
    Ok(out)
}

/// An accuracy as the CLI prints it: a percentage, or `n/a (no test
/// samples)` for a split that holds none — whose accuracy is no
/// measurement, and whose `0.0%` would read as complete forgetting.
fn percent(accuracy: f32, samples: usize) -> String {
    if samples == 0 {
        "n/a (no test samples)".to_string()
    } else {
        format!("{:.1}%", accuracy * 100.0)
    }
}

fn show(args: &Args) -> Result<String, CliError> {
    let path = args.require_str("ckpt")?;
    let client = args.get_usize("client", 0)?;
    let limit = args.get_usize("limit", 5)?;
    let (_, qd) = Checkpoint::load(&path)?.restore()?;
    let sets = qd.synthetic_sets();
    if client >= sets.len() {
        return Err(CliError::Usage(format!(
            "client {client} out of range (deployment has {} clients)",
            sets.len()
        )));
    }
    let ds = sets[client].to_dataset();
    Ok(format!(
        "client {client}: {} synthetic samples across classes {:?}\n{}",
        ds.len(),
        sets[client].owned_classes(),
        ascii_samples(&ds, limit)
    ))
}

/// The JSON rendering of a checkpoint or, with `--journal`, of each
/// journal record (one per line, oldest first): the binary files decoded
/// and handed to `serde_json`, for `jq` and eyeballs. A derived record
/// carries its snapshot's digest, `"global":{"crc32":n}`, where a stored
/// one carries the parameters. Read-only — a torn journal tail, stale
/// `.tmp` files and segments without a marker are reported or left
/// alone, never repaired.
fn dump(args: &Args) -> Result<String, CliError> {
    let line = |json: Result<String, serde_json::Error>| {
        json.map(|j| j + "\n")
            .map_err(|e| CliError::Io(std::io::Error::other(e)))
    };
    let path = args.require_str("ckpt")?;
    match journal_path_from(args, &path) {
        None => line(serde_json::to_string(&Checkpoint::read_on(
            &StdFs,
            Path::new(&path),
        )?)),
        Some(journal) => RequestJournal::open_strict_on(Arc::new(StdFs), journal)
            .map_err(std::io::Error::from)?
            .rendered()
            .map(|record| line(serde_json::to_string(&record)))
            .collect(),
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "tests write real deployments and compare their files' mtimes"
)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("qd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors_with_usage() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn options_a_subcommand_does_not_take_are_usage_errors() {
        for (bad, key) in [
            (vec!["train", "--out", "x", "--retry-max", "4"], "retry-max"),
            (
                vec!["train", "--retry-backoff-ms", "25"],
                "retry-backoff-ms",
            ),
            (
                vec!["train", "--round-deadline-ms", "900"],
                "round-deadline-ms",
            ),
            (vec!["train", "--hedge-after-ms", "300"], "hedge-after-ms"),
            (vec!["train", "--sample-slack", "1"], "sample-slack"),
            (vec!["train", "--net-latency-ms", "10"], "net-latency-ms"),
            (
                vec!["train", "--net-bandwidth-mbps", "50"],
                "net-bandwidth-mbps",
            ),
            (vec!["train", "--net-jitter-ms", "5"], "net-jitter-ms"),
            (vec!["train", "--dropout-prob", "0.2"], "dropout-prob"),
            (vec!["train", "--straggler-frac", "0.2"], "straggler-frac"),
            (vec!["train", "--loss-prob", "0.3"], "loss-prob"),
            (vec!["train", "--net-seed", "9"], "net-seed"),
            (vec!["train", "--out", "x", "--quantized"], "quantized"),
            (
                vec!["unlearn", "--ckpt", "x", "--drift-budgt", "0.5"],
                "drift-budgt",
            ),
            (vec!["eval", "--ckpt", "x", "--journal"], "journal"),
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
            let msg = err.to_string();
            assert!(
                msg.starts_with(&format!("{} does not take --{key}\n", bad[0])),
                "{msg:.80}"
            );
        }
    }

    #[test]
    fn every_option_usage_lists_passes_the_check() {
        let commands = [
            "train", "unlearn", "relearn", "serve", "eval", "show", "dump", "chaos",
        ];
        for command in commands {
            let listed = usage_options(command);
            assert!(!listed.is_empty(), "{command}");
            for option in listed {
                check_options(&args(&[command, &format!("--{option}"), "v"])).unwrap();
                check_options(&args(&[command, &format!("--{option}")])).unwrap();
            }
        }
        assert!(usage_options("unlearn").contains(&"samples"));
        assert!(usage_options("train").contains(&"cooldown-rounds"));
    }

    #[test]
    fn unlearn_requires_exactly_one_target() {
        let err = request_from(&args(&["unlearn", "--ckpt", "x"])).unwrap_err();
        assert!(err.to_string().contains("exactly one"));
        let err = request_from(&args(&["unlearn", "--class", "1", "--client", "2"])).unwrap_err();
        assert!(err.to_string().contains("exactly one"));
        let ok = request_from(&args(&["unlearn", "--class", "3"])).unwrap();
        assert_eq!(ok, UnlearnRequest::Class(3));
    }

    #[test]
    fn full_cli_lifecycle() {
        let ckpt = tmp("lifecycle.json");
        // Tiny but real: train -> show -> unlearn -> eval -> relearn.
        let out = run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "200",
            "--rounds",
            "3",
            "--steps",
            "4",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("checkpoint written"));

        let out = run(&args(&["show", "--ckpt", &ckpt, "--limit", "2"])).unwrap();
        assert!(out.contains("synthetic samples"));

        let out = run(&args(&[
            "unlearn", "--ckpt", &ckpt, "--class", "3", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("unlearned class 3"));

        let out = run(&args(&["eval", "--ckpt", &ckpt, "--seed", "7"])).unwrap();
        assert!(out.contains("class 3") && out.contains("(unlearned)"));

        let out = run(&args(&[
            "relearn", "--ckpt", &ckpt, "--class", "3", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("relearned class 3"));

        // A client-level request has no forget/retain test split: both
        // columns carry the one whole-test accuracy.
        let out = run(&args(&[
            "unlearn", "--ckpt", &ckpt, "--client", "1", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("unlearned client 1"));
        let column = |name: &str| {
            let rest = out.split(name).nth(1).expect("column present");
            rest.split('%').next().expect("a percentage").to_string()
        };
        assert_eq!(column("F-Set "), column("R-Set "));
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn guard_flags_build_a_policy() {
        // No guard flag: serving stays on the unguarded path.
        assert!(guard_policy_from(&args(&["unlearn"])).unwrap().is_none());
        // Any one flag opts in; the others keep library defaults.
        let p = guard_policy_from(&args(&["unlearn", "--retain-probe", "2.5"]))
            .unwrap()
            .expect("guard requested");
        assert_eq!(p.drift_budget, DEFAULT_DRIFT_BUDGET);
        assert_eq!(p.retain_probe, 2.5);
        assert_eq!(p.ascent_retries, 3);
        let p = guard_policy_from(&args(&[
            "unlearn",
            "--drift-budget",
            "0.8",
            "--ascent-retries",
            "5",
        ]))
        .unwrap()
        .expect("guard requested");
        assert_eq!(p.drift_budget, 0.8);
        assert_eq!(p.ascent_retries, 5);
        // Library validation verdicts surface as usage errors.
        for bad in [
            vec!["unlearn", "--drift-budget", "-1"],
            vec!["unlearn", "--retain-probe", "nan"],
            vec!["unlearn", "--ascent-retries", "99"],
        ] {
            let err = guard_policy_from(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }

    #[test]
    fn journal_path_derives_from_checkpoint_when_bare() {
        assert_eq!(journal_path_from(&args(&["unlearn"]), "d.json"), None);
        assert_eq!(
            journal_path_from(&args(&["unlearn", "--journal"]), "d.json"),
            Some(std::path::PathBuf::from("d.json.journal"))
        );
        assert_eq!(
            journal_path_from(&args(&["unlearn", "--journal", "w.journal"]), "d.json"),
            Some(std::path::PathBuf::from("w.journal"))
        );
    }

    #[test]
    fn dump_renders_the_binary_files_as_json_without_touching_them() {
        let ckpt = tmp("dump_cmd.json");
        let bare = tmp("dump_bare.json");
        remove_deployment(&ckpt);
        remove_deployment(&bare);
        train_tiny(&ckpt);
        for class in ["1", "2"] {
            run(&args(&[
                "unlearn",
                "--ckpt",
                &ckpt,
                "--class",
                class,
                "--seed",
                "7",
                "--journal",
            ]))
            .unwrap();
        }
        let seg = format!("{ckpt}.journal.seg-000000");
        // Leftovers a repairing open would clear: a stale save, and a
        // copy of the deployment whose journal marker is gone.
        std::fs::write(format!("{ckpt}.tmp"), b"half-written save").unwrap();
        std::fs::copy(&ckpt, &bare).unwrap();
        std::fs::copy(&seg, format!("{bare}.journal.seg-000000")).unwrap();
        let before = (files(&ckpt), files(&bare));
        let file = |name: &str| std::fs::read(name).unwrap();
        assert!(
            file(&ckpt).starts_with(b"QDC4\n") && file(&format!("{ckpt}.journal")) == b"QDJ6\n",
            "the files on disk are the binary formats"
        );
        assert_eq!(
            before.0.len(),
            5,
            "checkpoint, .prev, .tmp, marker, segment"
        );

        // The checkpoint: one JSON object that is the checkpoint again.
        let out = run(&args(&["dump", "--ckpt", &ckpt])).unwrap();
        assert!(
            out.starts_with("{\"version\":4,\"global\":[{\"shape\":["),
            "{out:.80}"
        );
        let back: Checkpoint = serde_json::from_str(&out).unwrap();
        assert_eq!(
            back.global,
            Checkpoint::read_on(&StdFs, Path::new(&ckpt))
                .unwrap()
                .global,
            "the rendering carries the model exactly"
        );

        // The journal: one record per line, in journal order.
        let out = run(&args(&["dump", "--ckpt", &ckpt, "--journal"])).unwrap();
        let states: Vec<&str> = out
            .lines()
            .zip([0, 0, 0, 1, 1, 1])
            .map(|(l, seq)| {
                assert!(
                    l.starts_with(&format!("{{\"seq\":{seq},\"request\":{{\"kind\":\"class\"")),
                    "{l:.80}"
                );
                let at = l.find("\"state\":\"").expect("state tag") + 9;
                &l[at..at + 4]
            })
            .collect();
        assert_eq!(states, ["Rece", "Unle", "Reco", "Rece", "Unle", "Reco"]);
        let count = |pattern: &[u8]| {
            let seg = file(&seg);
            seg.windows(pattern.len()).filter(|w| w == &pattern).count()
        };
        // Each UNLEARNED snapshot is derived: the segment holds its
        // digest, and so does the dump.
        assert_eq!(count(b"\"global\":{\"crc32\":"), 2, "two derived records");
        let journal = RequestJournal::open_strict_on(Arc::new(StdFs), format!("{ckpt}.journal"));
        let journal = journal.unwrap();
        let lines: Vec<&str> = out.lines().collect();
        for i in [1, 4] {
            let digest = journal.digest(i).expect("an UNLEARNED record is derived");
            let shown = format!("\"global\":{{\"crc32\":{digest}}}");
            assert!(lines[i].contains(&shown), "{:.160}", lines[i]);
        }
        // The second RECEIVED repeats the first RECOVERED's model, so the
        // segment holds it as a back-reference; the dump still carries
        // the full parameters.
        assert_eq!(
            count(b"\"global\":null"),
            1,
            "exactly one snapshot is a back-reference"
        );
        let record = |i: usize| serde_json::from_str::<qd_core::JournalRecord>(lines[i]).unwrap();
        assert!(!record(3).global.is_empty());
        assert_eq!(
            record(3).global,
            record(2).global,
            "the back-referenced record dumps with its full parameters"
        );

        // Without a marker the segment is reported, not deleted.
        let err = run(&args(&["dump", "--ckpt", &bare, "--journal"]))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("no journal marker") && err.contains("dump_bare.json.journal.seg-000000"),
            "{err}"
        );
        run(&args(&["dump", "--ckpt", &bare])).unwrap();

        assert!((files(&ckpt), files(&bare)) == before, "dump is read-only");
        let err = run(&args(&["dump"])).unwrap_err().to_string();
        assert!(err.contains("--ckpt"), "{err}");
        remove_deployment(&ckpt);
        remove_deployment(&bare);
    }

    #[test]
    fn guarded_journaled_lifecycle() {
        let ckpt = tmp("guarded_lifecycle.json");
        let journal = format!("{ckpt}.journal");
        std::fs::remove_file(&journal).ok();
        run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "200",
            "--rounds",
            "3",
            "--steps",
            "4",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "7",
        ]))
        .unwrap();

        // Serving under the guard and the journal reports the verdict and
        // leaves a durable trace next to the checkpoint.
        let out = run(&args(&[
            "unlearn",
            "--ckpt",
            &ckpt,
            "--class",
            "3",
            "--seed",
            "7",
            "--drift-budget",
            "2.0",
            "--journal",
        ]))
        .unwrap();
        assert!(out.contains("unlearned class 3"), "{out}");
        assert!(out.contains("guard: 1 attempt(s), 0 rollback(s)"), "{out}");
        let j = RequestJournal::open(&journal).unwrap();
        assert_eq!(j.records().len(), 3, "RECEIVED/UNLEARNED/RECOVERED");

        // The next invocation picks the stream up from the journal.
        let out = run(&args(&[
            "relearn",
            "--ckpt",
            &ckpt,
            "--class",
            "3",
            "--seed",
            "7",
            "--journal",
        ]))
        .unwrap();
        assert!(out.contains("relearned class 3"), "{out}");
        let j = RequestJournal::open(&journal).unwrap();
        assert_eq!(j.records().len(), 4);
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&journal).ok();
    }

    /// Removes `ckpt` and everything beside it that carries its name
    /// (`.prev`, the journal marker, every journal segment).
    fn remove_deployment(ckpt: &str) {
        let ckpt = std::path::Path::new(ckpt);
        let name = ckpt.file_name().unwrap().to_string_lossy().into_owned();
        for entry in std::fs::read_dir(ckpt.parent().unwrap()).unwrap().flatten() {
            if entry.file_name().to_string_lossy().starts_with(&name) {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }

    /// Every file carrying a deployment's name, with its bytes and
    /// mtime: the same before and after a command that wrote, renamed and
    /// removed nothing there (a save renames a freshly written file over
    /// the old one, so it moves the mtime even when the bytes repeat).
    fn files(ckpt: &str) -> Vec<(String, Vec<u8>, std::time::SystemTime)> {
        let ckpt = std::path::Path::new(ckpt);
        let name = ckpt.file_name().unwrap().to_string_lossy().into_owned();
        let mut out: Vec<_> = std::fs::read_dir(ckpt.parent().unwrap())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(&name))
            .map(|e| {
                let modified = e.metadata().unwrap().modified().unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap(), modified)
            })
            .collect();
        out.sort();
        out
    }

    fn train_tiny(ckpt: &str) {
        run(&args(&[
            "train",
            "--out",
            ckpt,
            "--clients",
            "2",
            "--samples",
            "120",
            "--rounds",
            "2",
            "--steps",
            "2",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "3",
        ]))
        .unwrap();
    }

    /// Files in the test directory that carry `ckpt`'s name: the
    /// checkpoint, and any `.prev` or journal beside it.
    fn siblings(ckpt: &str) -> usize {
        let name = std::path::Path::new(ckpt)
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let dir = std::fs::read_dir(std::path::Path::new(ckpt).parent().unwrap()).unwrap();
        dir.flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(&name))
            .count()
    }

    /// Relearning a class or client the deployment has not forgotten —
    /// never, or not since its last relearn — is refused with one message
    /// once the checkpoint (and, with `--journal`, the journal tail) is
    /// read, and before anything is written.
    #[test]
    fn an_unjournaled_relearn_of_what_was_not_forgotten_is_refused() {
        let ckpt = tmp("not_forgotten.json");
        for journal in [None, Some("--journal")] {
            remove_deployment(&ckpt);
            train_tiny(&ckpt);
            let serve = |mode: &str, target: [&str; 2]| {
                let mut line = vec![mode, "--ckpt", &ckpt, "--seed", "5"];
                line.extend(target.into_iter().chain(journal));
                run(&args(&line))
            };
            for target in [["--class", "7"], ["--client", "1"]] {
                let before = std::fs::read(&ckpt).unwrap();
                let err = serve("relearn", target).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{target:?}: {err}");
                let what = format!("{} {}", &target[0][2..], target[1]);
                let message =
                    format!("the deployment has not forgotten {what}: nothing to relearn");
                assert_eq!(err.to_string(), message);
                assert_eq!(std::fs::read(&ckpt).unwrap(), before, "{target:?}");
                assert_eq!(siblings(&ckpt), 1, "{target:?}: no .prev, no journal");
            }
            // Forgotten, it relearns once; relearned, it is refused again.
            serve("unlearn", ["--class", "7"]).unwrap();
            let out = serve("relearn", ["--class", "7"]).unwrap();
            assert!(out.contains("relearned class 7"), "{out}");
            let before = files(&ckpt);
            let err = serve("relearn", ["--class", "7"]).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{journal:?}: {err}");
            assert!(files(&ckpt) == before, "{journal:?}: nothing is written");
        }
        remove_deployment(&ckpt);
    }

    /// A split with no test samples measures nothing: `unlearn`,
    /// `relearn` and `eval` print `n/a (no test samples)` for it, not a
    /// `0.0%` that reads as complete forgetting.
    #[test]
    fn a_split_without_test_samples_reads_n_a() {
        const NA: &str = "n/a (no test samples)";
        let ckpt = tmp("no_test_samples.json");
        remove_deployment(&ckpt);
        train_tiny(&ckpt);
        // The CLI's test set for `--samples 3 --seed 5`.
        let test = SyntheticDataset::Digits.generate(3, &mut Rng::seed_from(6));
        let absent = (0..10).find(|c| !test.labels().contains(c)).unwrap();
        let out = run(&args(&[
            "eval",
            "--ckpt",
            &ckpt,
            "--samples",
            "3",
            "--seed",
            "5",
        ]))
        .unwrap();
        for c in 0..10 {
            let line = out
                .lines()
                .find(|l| l.starts_with(&format!("  class {c}:")))
                .unwrap();
            assert_eq!(line.contains(NA), !test.labels().contains(&c), "{line}");
            assert_eq!(line.contains('%'), test.labels().contains(&c), "{line}");
        }
        let class = absent.to_string();
        for mode in ["unlearn", "relearn"] {
            let line = [
                mode,
                "--ckpt",
                &ckpt,
                "--class",
                &class,
                "--samples",
                "3",
                "--seed",
                "5",
            ];
            let out = run(&args(&line)).unwrap();
            assert!(out.contains(&format!("F-Set {NA}, R-Set ")), "{out}");
            assert!(out.contains('%'), "{out}: the retain split has samples");
        }
        // One sample: its class's retain split is the empty one.
        let only = SyntheticDataset::Digits
            .generate(1, &mut Rng::seed_from(6))
            .labels()[0];
        let line = [
            "unlearn",
            "--ckpt",
            &ckpt,
            "--class",
            &only.to_string(),
            "--samples",
            "1",
        ];
        let out = run(&args(&[&line[..], &["--seed", "5"]].concat())).unwrap();
        assert!(
            out.contains(&format!("R-Set {NA}")) && !out.contains("F-Set n/a"),
            "{out}"
        );
        remove_deployment(&ckpt);
    }

    #[test]
    fn journaled_modes_fall_back_to_the_previous_checkpoint_generation() {
        // The same stream twice; the second run's primary checkpoint is
        // torn before the last request.
        let (intact, torn) = (tmp("prev_intact.json"), tmp("prev_torn.json"));
        let serve = |mode: &str, ckpt: &str, class: &str, journal: bool| {
            let mut line = vec![mode, "--ckpt", ckpt, "--class", class, "--seed", "7"];
            line.extend(journal.then_some("--journal"));
            run(&args(&line))
        };
        for ckpt in [&intact, &torn] {
            remove_deployment(ckpt);
            train_tiny(ckpt);
            serve("unlearn", ckpt, "1", true).unwrap();
            serve("unlearn", ckpt, "2", true).unwrap();
        }
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

        // Without a journal nothing could roll `.prev` forward: strict.
        let err = serve("relearn", &torn, "1", false).unwrap_err().to_string();
        assert!(err.contains(&format!("checkpoint {torn}: ")), "{err}");

        let reference = serve("relearn", &intact, "1", true).unwrap();
        assert!(!reference.contains("fell back"), "{reference}");
        let out = serve("relearn", &torn, "1", true).unwrap();
        assert!(out.contains(&format!("checkpoint {torn}: ")), "{out}");
        assert!(out.contains("fell back to the previous"), "{out}");
        assert!(out.contains("relearned class 1"), "{out}");
        // The journal rolled `.prev` (one request behind) forward: model
        // bits, mark sets, everything the checkpoint holds.
        assert_eq!(
            std::fs::read(&torn).unwrap(),
            std::fs::read(&intact).unwrap(),
            "the fallback run's final checkpoint differs from the intact run's"
        );
        remove_deployment(&intact);
        remove_deployment(&torn);
    }

    #[test]
    fn a_checkpoint_without_synthetic_sets_is_an_error_not_a_panic() {
        /// Empties the JSON array under `key` by bracket matching.
        fn emptied(json: &str, key: &str) -> String {
            let open = json.find(&format!("\"{key}\":[")).expect("key present") + key.len() + 3;
            let mut depth = 0usize;
            let close = json[open..]
                .bytes()
                .position(|b| {
                    depth += usize::from(b == b'[');
                    depth -= usize::from(b == b']');
                    depth == 0
                })
                .expect("array closes");
            format!("{}[]{}", &json[..open], &json[open + close + 1..])
        }
        let ckpt = tmp("no_synthetic.json");
        train_tiny(&ckpt);
        let json = run(&args(&["dump", "--ckpt", &ckpt])).unwrap();
        let json = emptied(&emptied(&json, "synthetic"), "recovery_real");
        let hollow: Checkpoint = serde_json::from_str(&json).unwrap();
        hollow.save_on(&StdFs, Path::new(&ckpt)).unwrap();
        for line in [
            vec!["unlearn", "--ckpt", &ckpt, "--class", "1"],
            vec!["unlearn", "--ckpt", &ckpt, "--class", "1", "--journal"],
            vec!["relearn", "--ckpt", &ckpt, "--class", "1"],
            vec!["serve", "--ckpt", &ckpt],
        ] {
            let err = run(&args(&line)).unwrap_err().to_string();
            assert!(err.contains("holds no synthetic sets"), "{line:?}: {err}");
        }
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn serve_runs_a_multi_tenant_mix_and_reports_sla() {
        let ckpt = tmp("serve_cmd.json");
        let journal = format!("{ckpt}.journal");
        let stats_out = tmp("serve_cmd_stats.json");
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&stats_out).ok();
        run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "200",
            "--rounds",
            "3",
            "--steps",
            "4",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "7",
        ]))
        .unwrap();

        let serve_args = [
            "serve",
            "--ckpt",
            &ckpt,
            "--tenants",
            "2",
            "--arrival-requests",
            "2",
            "--arrival-gap-us",
            "300",
            "--queue-cap",
            "8",
            "--coalesce",
            "--max-batch",
            "2",
            "--seed",
            "11",
            "--drift-budget",
            "64",
            "--stats-out",
            &stats_out,
        ];
        let out = run(&args(&serve_args)).unwrap();
        assert!(out.contains("served 4 of 4 offered requests"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("stats written"), "{out}");
        let text = std::fs::read_to_string(&stats_out).unwrap();
        assert!(text.contains("coalesce_ratio"), "{text}");

        // The journal certifies every request; re-invoking the identical
        // command line finds the plan complete and redoes nothing.
        let j = RequestJournal::open(&journal).unwrap();
        let recovered_before = j.records().len();
        assert!(recovered_before > 0);
        let out = run(&args(&serve_args)).unwrap();
        assert!(out.contains("already-journaled"), "{out}");
        let j = RequestJournal::open(&journal).unwrap();
        assert_eq!(j.records().len(), recovered_before, "idempotent re-run");

        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&stats_out).ok();
    }

    #[test]
    fn serve_flags_are_validated() {
        let ckpt = tmp("serve_bad.json");
        train_tiny(&ckpt);
        for bad in [
            vec!["serve", "--ckpt", &ckpt, "--tenants", "0"],
            vec!["serve", "--ckpt", &ckpt, "--queue-cap", "0"],
            vec!["serve", "--ckpt", &ckpt, "--class-share", "1.5"],
            vec!["serve", "--ckpt", &ckpt, "--weights", "1,x"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(format!("{ckpt}.journal")).ok();
    }

    #[test]
    fn bad_dataset_is_reported() {
        let err = run(&args(&[
            "train",
            "--out",
            "/tmp/x.json",
            "--dataset",
            "imagenet",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown dataset"));
    }

    /// A `--dataset` whose samples the deployment's model cannot read is
    /// refused by name before anything runs, and every file the
    /// deployment has is left as it was. (Each of these command lines
    /// panicked in a convolution before the check existed; `serve` had
    /// journaled its first request by then.)
    #[test]
    fn a_dataset_of_another_geometry_is_refused_and_nothing_is_written() {
        let ckpt = tmp("geometry.json");
        remove_deployment(&ckpt);
        let mut line = vec!["train", "--out", &ckpt, "--dataset", "cifar"];
        line.extend(["--clients", "2", "--samples", "120", "--rounds", "2"]);
        line.extend(["--steps", "2", "--scale", "20", "--iid", "--seed", "3"]);
        run(&args(&line)).unwrap();
        let forget = [
            "unlearn",
            "--ckpt",
            &ckpt,
            "--class",
            "1",
            "--dataset",
            "cifar",
        ];
        run(&args(&[&forget[..], &["--samples", "20"]].concat())).unwrap();
        for line in [
            vec!["eval", "--ckpt", &ckpt, "--dataset", "digits"],
            vec![
                "unlearn",
                "--ckpt",
                &ckpt,
                "--class",
                "2",
                "--dataset",
                "digits",
            ],
            vec![
                "relearn",
                "--ckpt",
                &ckpt,
                "--class",
                "1",
                "--dataset",
                "digits",
            ],
            vec![
                "serve",
                "--ckpt",
                &ckpt,
                "--dataset",
                "digits",
                "--tenants",
                "1",
            ],
        ] {
            let before = files(&ckpt);
            let line = [&line[..], &["--arrival-requests", "1"][..]].concat();
            let line = if line[0] == "serve" {
                &line[..]
            } else {
                &line[..line.len() - 2]
            };
            let err = run(&args(line)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{line:?}: {err}");
            let msg = err.to_string();
            assert!(
                msg.starts_with("--dataset digits has 1×16×16 samples in 10 classes")
                    && msg.ends_with("was trained on 3×16×16 samples in 10 classes"),
                "{msg}"
            );
            assert!(files(&ckpt) == before, "{line:?} touched the deployment");
        }
        // SynthSvhn shares SynthCifar's geometry; only the name tells
        // them apart, and a checkpoint does not record it.
        run(&args(&[
            "eval",
            "--ckpt",
            &ckpt,
            "--dataset",
            "svhn",
            "--samples",
            "20",
        ]))
        .unwrap();
        remove_deployment(&ckpt);
    }

    /// The byte offset of the last commit frame in a journal segment
    /// (`len: u32le | crc: u32le | body`, back to back).
    fn last_commit_start(segment: &[u8]) -> usize {
        let (mut at, mut last) = (0, 0);
        while at < segment.len() {
            last = at;
            let len = u32::from_le_bytes(segment[at..at + 4].try_into().unwrap());
            at += 8 + len as usize;
        }
        last
    }

    /// A fully served deployment's `serve` command line, re-run: it
    /// neither writes, fsyncs nor renames anything — checkpoint, `.prev`,
    /// stats and journal keep their bytes and mtimes — and says so.
    /// Every run that changes something still saves: one finishing a
    /// killed run's in-flight unit (its commit torn, or whole but not
    /// followed by the unit's end), one whose primary checkpoint fell back
    /// to `.prev`, one writing to another `--out`, and one whose stats
    /// file no longer holds the stats.
    #[test]
    fn serve_leaves_an_unchanged_deployment_untouched() {
        let ckpt = tmp("noop.json");
        let stats = format!("{ckpt}.stats");
        let seg = format!("{ckpt}.journal.seg-000000");
        let line = |ckpt: &str, out: &str| -> Vec<String> {
            let stats = format!("{ckpt}.stats");
            let line = ["serve", "--ckpt", ckpt, "--out", out, "--stats-out", &stats];
            let flags = ["--tenants", "2", "--arrival-requests", "2", "--seed", "5"];
            line.iter().chain(&flags).map(|s| s.to_string()).collect()
        };
        let serve = |ckpt: &str, out: &str| {
            let line = line(ckpt, out);
            run(&Args::parse(line).unwrap()).unwrap()
        };
        remove_deployment(&ckpt);
        train_tiny(&ckpt);
        let trained = std::fs::read(&ckpt).unwrap();
        let first = serve(&ckpt, &ckpt);
        assert!(
            first.contains(&format!("checkpoint written to {ckpt}")),
            "{first}"
        );
        let served = files(&ckpt);
        assert_eq!(served.len(), 5, "checkpoint, .prev, marker, segment, stats");

        std::thread::sleep(std::time::Duration::from_millis(20));
        let again = serve(&ckpt, &ckpt);
        assert!(
            again.contains(&format!("checkpoint unchanged at {ckpt}")),
            "{again}"
        );
        assert!(
            again.contains(&format!("stats unchanged at {stats}")),
            "{again}"
        );
        assert!(
            files(&ckpt) == served,
            "a no-op serve touched the deployment"
        );

        // A killed run: the checkpoint is still the one it loaded, and
        // the journal ends in the last unit, torn or not.
        let whole = std::fs::read(&seg).unwrap();
        let last = last_commit_start(&whole);
        for (cut, kind) in [(whole.len() - 3, "torn commit"), (last, "unfinished unit")] {
            std::fs::write(&ckpt, &trained).unwrap();
            std::fs::write(&seg, &whole[..cut]).unwrap();
            let out = serve(&ckpt, &ckpt);
            assert!(
                out.contains(&format!("checkpoint written to {ckpt}")),
                "{kind}: {out}"
            );
            assert_eq!(std::fs::read(&seg).unwrap(), whole, "{kind}");
            assert_eq!(std::fs::read(&ckpt).unwrap(), served[0].1, "{kind}");
        }

        // The primary unreadable: `.prev` stands in and the run saves.
        let primary = std::fs::read(&ckpt).unwrap();
        std::fs::write(&ckpt, &primary[..primary.len() / 2]).unwrap();
        let out = serve(&ckpt, &ckpt);
        assert!(out.contains("fell back to the previous"), "{out}");
        assert!(
            out.contains(&format!("checkpoint written to {ckpt}")),
            "{out}"
        );
        assert_eq!(std::fs::read(&ckpt).unwrap(), primary);

        // Another --out: written there, the deployment's own untouched.
        let other = tmp("noop_other.json");
        remove_deployment(&other);
        let before = files(&ckpt);
        let out = serve(&ckpt, &other);
        assert!(
            out.contains(&format!("checkpoint written to {other}")),
            "{out}"
        );
        assert_eq!(std::fs::read(&other).unwrap(), primary);
        assert!(files(&ckpt) == before, "{out}");

        // Stats that changed are written, the unchanged checkpoint not.
        std::fs::write(&stats, b"{}\n").unwrap();
        let out = serve(&ckpt, &ckpt);
        assert!(out.contains(&format!("stats written to {stats}")), "{out}");
        assert!(
            out.contains(&format!("checkpoint unchanged at {ckpt}")),
            "{out}"
        );
        assert_eq!(std::fs::read(&stats).unwrap(), served[4].1);
        remove_deployment(&ckpt);
        remove_deployment(&other);
    }

    #[test]
    fn bad_aggregator_and_byzantine_frac_are_usage_errors() {
        let err = run(&args(&["train", "--out", "x", "--aggregator", "krum"])).unwrap_err();
        assert!(err.to_string().contains("unknown aggregator"), "{err}");
        let err = run(&args(&["train", "--out", "x", "--byzantine-frac", "1.0"])).unwrap_err();
        assert!(err.to_string().contains("byzantine-frac"), "{err}");
    }

    /// Trains `train --clients 3 --rounds 5 ... extra` uninterrupted, and
    /// again with `--checkpoint-every 2`, whose primary is then deleted —
    /// what a kill between the two renames of the final save leaves — so
    /// that `train --resume` falls back to `.prev`, round 4's checkpoint,
    /// and re-runs round 5. The deployment it writes must be the
    /// uninterrupted run's byte for byte. Returns `.prev`'s cursor.
    fn assert_prev_resumes_byte_for_byte(name: &str, extra: &[&str]) -> qd_fed::ResumeState {
        let flags = |out: &str, more: &[&str]| -> Args {
            let base = [
                "train",
                "--out",
                out,
                "--clients",
                "3",
                "--samples",
                "150",
                "--rounds",
                "5",
                "--steps",
                "2",
                "--scale",
                "20",
                "--iid",
            ];
            args(&[&base[..], extra, more].concat())
        };
        let uninterrupted = tmp(&format!("{name}_ref.json"));
        let cut = tmp(&format!("{name}_cut.json"));
        remove_deployment(&uninterrupted);
        remove_deployment(&cut);
        run(&flags(&uninterrupted, &[])).unwrap();
        run(&flags(&cut, &["--checkpoint-every", "2"])).unwrap();

        let prev = Checkpoint::prev_path(Path::new(&cut));
        let cursor = (Checkpoint::load(&prev).unwrap().mid_phase())
            .expect("a mid-phase checkpoint")
            .cursor
            .clone();
        assert_eq!(cursor.next_round, 4);
        std::fs::remove_file(&cut).unwrap();
        let out = run(&flags(&cut, &["--resume"])).unwrap();
        let fell_back = format!(
            "fell back to the previous checkpoint generation {}; training resumes from it\n",
            prev.display()
        );
        assert!(
            out.starts_with(&format!("checkpoint I/O: reading {cut}: ")),
            "{out}"
        );
        assert!(out.contains(&fell_back), "{out}");
        assert!(
            out.contains("% over the 1 round(s) this resume ran; "),
            "{out}"
        );
        assert!(
            out.ends_with(&format!("checkpoint written to {cut}\n")),
            "{out}"
        );
        assert!(
            std::fs::read(&uninterrupted).unwrap() == std::fs::read(&cut).unwrap(),
            "the resumed deployment is not the uninterrupted one"
        );
        remove_deployment(&uninterrupted);
        remove_deployment(&cut);
        cursor
    }

    #[test]
    fn a_resume_with_only_the_previous_generation_left_reaches_the_uninterrupted_bytes() {
        assert_prev_resumes_byte_for_byte("resume", &["--seed", "5"]);
    }

    /// A resume reports the distillation overhead of the rounds it ran,
    /// saying how many, and no percentage when it ran none: `.prev` of a
    /// 4-round run checkpointed every 2 rounds is round 4's checkpoint.
    #[test]
    fn a_resume_names_the_rounds_its_overhead_covers() {
        let ckpt = tmp("resume_overhead.json");
        remove_deployment(&ckpt);
        let line = |more: &[&str]| {
            let base = [
                "train",
                "--out",
                &ckpt,
                "--clients",
                "2",
                "--samples",
                "120",
                "--rounds",
                "4",
                "--steps",
                "2",
                "--scale",
                "20",
                "--iid",
                "--seed",
                "3",
            ];
            run(&args(&[&base[..], more].concat())).unwrap()
        };
        let trained = line(&["--checkpoint-every", "2"]);
        assert!(trained.contains("%, DD overhead "), "{trained}");
        assert!(!trained.contains("round"), "{trained}");
        std::fs::remove_file(&ckpt).unwrap();
        let resumed = line(&["--resume"]);
        assert!(
            resumed.contains("synthetic storage 16.7%, no round was left to train; checkpoint"),
            "{resumed}"
        );
        assert!(!resumed.contains("DD overhead"), "{resumed}");
        remove_deployment(&ckpt);
    }

    #[test]
    fn a_resume_from_the_previous_generation_keeps_the_client_breaker_state() {
        // `--byzantine-frac` is the one client fault the CLI injects. The
        // resume re-runs round 5 from a cursor that has a client's strikes
        // or open breaker on the books, so it reaches the uninterrupted
        // bytes only if they rode in `.prev`.
        let cursor = assert_prev_resumes_byte_for_byte(
            "resume_byzantine",
            &[
                "--seed",
                "13",
                "--byzantine-frac",
                "0.3",
                "--cooldown-rounds",
                "2",
            ],
        );
        let health = &cursor.health;
        assert!(
            health
                .failures
                .iter()
                .chain(&health.cooldown)
                .any(|&n| n > 0),
            "test premise: a strike or an open breaker at round 4, got {health:?}"
        );
    }

    #[test]
    fn train_refuses_zero_clients_and_zero_scale() {
        // A degenerate count or rate is refused by name before anything
        // is written, rather than panicking mid-run (`--lr`, `--alpha`)
        // or writing a deployment that never trained (`--batch`,
        // `--samples`, `--rounds`, `--steps`, an unreachable `--quorum`).
        let positive =
            |flag: &str, value: &str| format!("{flag} must be positive and finite, got {value}");
        let mut cases = Vec::new();
        for flag in [
            "--clients",
            "--scale",
            "--samples",
            "--batch",
            "--rounds",
            "--steps",
        ] {
            cases.push((vec![flag, "0"], format!("{flag} must be at least 1")));
        }
        for flag in ["--lr", "--alpha"] {
            for (value, shown) in [("0", "0"), ("-1", "-1"), ("nan", "NaN")] {
                cases.push((vec![flag, value], positive(flag, shown)));
            }
        }
        let quorum = vec!["--quorum", "5", "--clients", "2"];
        cases.push((quorum, "--quorum 5 is more than --clients 2".into()));
        for (flags, message) in cases {
            let out = tmp(&format!("refused{}.json", flags.concat()));
            let err = run(&args(&[&["train", "--out", &out], &flags[..]].concat())).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert_eq!(err.to_string(), message);
            assert!(!Path::new(&out).exists(), "nothing is written");
        }
    }

    #[test]
    fn requests_outside_the_deployment_are_refused_before_anything_is_written() {
        let ckpt = tmp("out_of_range.json");
        remove_deployment(&ckpt);
        train_tiny(&ckpt);
        let before = std::fs::read(&ckpt).unwrap();
        let siblings = || {
            let dir = std::fs::read_dir(Path::new(&ckpt).parent().unwrap()).unwrap();
            (dir.flatten())
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .starts_with("out_of_range.json")
                })
                .count()
        };
        // An empty test set would report 0.0 % on both sets — perfect
        // forgetting, as it reads — after rewriting the checkpoint.
        let no_samples = "--samples must be at least 1";
        for (mode, target, message) in [
            (
                "unlearn",
                &["--class", "99"][..],
                "class 99 out of range (deployment has 10 classes)",
            ),
            (
                "unlearn",
                &["--client", "99"],
                "client 99 out of range (deployment has 2 clients)",
            ),
            (
                "relearn",
                &["--class", "10"],
                "class 10 out of range (deployment has 10 classes)",
            ),
            (
                "relearn",
                &["--client", "2"],
                "client 2 out of range (deployment has 2 clients)",
            ),
            ("unlearn", &["--class", "3", "--samples", "0"], no_samples),
            ("unlearn", &["--client", "1", "--samples", "0"], no_samples),
            ("relearn", &["--class", "3", "--samples", "0"], no_samples),
        ] {
            for journal in [false, true] {
                let mut line = [mode, "--ckpt", &ckpt].to_vec();
                line.extend(target);
                line.extend(journal.then_some("--journal"));
                let err = run(&args(&line)).unwrap_err();
                assert!(matches!(err, CliError::Usage(_)), "{line:?}: {err}");
                assert_eq!(err.to_string(), message, "{line:?}");
                assert_eq!(std::fs::read(&ckpt).unwrap(), before, "{line:?}");
                assert_eq!(siblings(), 1, "{line:?}: no .prev, no journal");
            }
        }
        let err = run(&args(&["eval", "--ckpt", &ckpt, "--samples", "0"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(err.to_string(), no_samples);
        remove_deployment(&ckpt);
    }

    #[test]
    fn counts_past_u32_are_refused_naming_the_option() {
        let err = guard_policy_from(&args(&["unlearn", "--ascent-retries", "4294967299"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--ascent-retries"), "{err}");
        for key in ["unit-retries", "breaker-trip", "breaker-cooldown"] {
            let flag = format!("--{key}");
            let err = isolation_config_from(&args(&["serve", &flag, "4294967296"]))
                .unwrap_err()
                .to_string();
            assert_eq!(err, format!("invalid value \"4294967296\" for {flag}"));
        }
    }

    #[test]
    fn storage_failures_render_actionable_messages() {
        use qd_core::{Fault, FaultFs, Vfs as _};
        use std::path::Path;

        // Disk-full during a journal append surfaces the operation, the
        // segment path, and what to do — end to end through the
        // io::Error conversions the command paths use.
        let fs = std::sync::Arc::new(FaultFs::new());
        fs.set_capacity(8); // room for the 5-byte marker, not a record
        let mut journal = RequestJournal::open_on(fs.clone(), "svc.journal").unwrap();
        let record = qd_core::JournalRecord {
            seq: 0,
            request: UnlearnRequest::Class(1),
            state: qd_core::RequestState::Received,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: None,
            reason: None,
        };
        let err = CliError::Io(journal.append(record).unwrap_err());
        let msg = err.to_string();
        assert!(msg.contains("svc.journal.seg-000000"), "{msg}");
        assert!(msg.contains("appending to"), "{msg}");
        assert!(msg.contains("free space"), "{msg}");

        // A failed fsync names the file and warns about durability.
        let fs = FaultFs::new();
        fs.write(Path::new("deployment.json"), b"x").unwrap();
        fs.schedule_fault(1, Fault::FsyncFail);
        let storage = fs.fsync(Path::new("deployment.json")).unwrap_err();
        let msg = CliError::Io(storage.into()).to_string();
        assert!(msg.contains("fsyncing"), "{msg}");
        assert!(msg.contains("deployment.json"), "{msg}");
        assert!(msg.contains("may not be durable"), "{msg}");

        // Plain I/O errors keep their ordinary rendering.
        let plain = CliError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "plain"));
        assert_eq!(plain.to_string(), "plain");
    }

    #[test]
    fn robust_aggregator_flag_reaches_the_training_phase() {
        let ckpt = tmp("median_agg.json");
        let out = run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "3",
            "--samples",
            "120",
            "--rounds",
            "2",
            "--steps",
            "2",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "11",
            "--aggregator",
            "median",
            "--quorum",
            "2",
            "--byzantine-frac",
            "0.3",
        ]))
        .unwrap();
        assert!(out.contains("checkpoint written"), "{out}");
        // The model survives the Byzantine minority under a robust rule.
        let (params, _) = Checkpoint::load(&ckpt).unwrap().restore().unwrap();
        assert!(params.iter().all(qd_tensor::Tensor::all_finite));
        std::fs::remove_file(&ckpt).ok();
    }

    /// A stalled schedule's reproducer: the first enumerated kill of a
    /// one-request per-request workload, with no resume left to finish.
    fn stalled_repro() -> qd_chaos::Repro {
        let workload = qd_chaos::Workload {
            train_seed: 42,
            samples: 120,
            clients: 3,
            rounds: 3,
            byzantine_frac: 0.0,
            net_drop: 0.0,
            ascent_spike: 1.0,
            tenants: 1,
            requests: 1,
            serve_seed: 11,
            breaker_trip: 0,
            breaker_cooldown: 2,
            relearn: false,
            front_door: qd_chaos::FrontDoor::PerRequest,
        };
        let mut harness = qd_chaos::Harness::new();
        let mut schedule = harness.exhaustive(&workload).unwrap().swap_remove(0);
        schedule.max_resumes = 0;
        let report = harness.run(&schedule).unwrap();
        let violation = report.violations.first().expect("a stall").clone();
        assert_eq!(violation.invariant, "run-completes");
        qd_chaos::Repro {
            schedule,
            violation,
        }
    }

    #[test]
    fn chaos_replays_a_reproducer_byte_for_byte_and_refuses_one_that_drifted() {
        let mut repro = stalled_repro();
        let path = tmp("chaos-stalled.json");
        std::fs::write(&path, repro.to_json().unwrap()).unwrap();
        let out = run(&args(&["chaos", "--replay", &path])).unwrap();
        assert!(
            out.ends_with("violation reproduced byte-for-byte\n"),
            "{out}"
        );

        repro.violation.detail.push_str(" (edited)");
        std::fs::write(&path, repro.to_json().unwrap()).unwrap();
        let err = run(&args(&["chaos", "--replay", &path])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().starts_with("violation drifted"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_without_a_reproducer_is_a_usage_error_that_writes_nothing() {
        let listing = || {
            let entries = std::fs::read_dir(".").unwrap();
            let mut names: Vec<_> = entries.map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        };
        let before = listing();
        for line in [vec!["chaos"], vec!["chaos", "--runs", "5"]] {
            let err = run(&args(&line)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{line:?}: {err}");
        }
        let err = run(&args(&["chaos", "--runs", "5"])).unwrap_err();
        assert!(
            err.to_string().starts_with("chaos does not take --runs"),
            "{err}"
        );
        assert_eq!(listing(), before);
    }
}
