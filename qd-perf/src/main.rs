//! qd-perf: the repository's benchmark. See README.md next to this
//! package and `BENCHMARK.json` at the repository root.

#![deny(unsafe_code)]
#![deny(rust_2018_idioms)]

mod alloc;
mod checks;
mod child;
mod e2e;
mod instrument;
mod ledger;
mod metrics;
mod micro;
mod replica;
mod stats;
mod trace;
mod workload;

use ledger::{Effort, Ledger};
use metrics::{Registry, Values};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
qd-perf — QuickDrop's benchmark (run it through qd-perf/run.sh, which builds it)

  qd-perf [--workload W] [--seed N] [--seconds S] [--trace 0|1]
      Runs workload W (default: all four) from workload seed N (default 11).
      --trace 0 (default) drives the shipped quickdrop-cli for S seconds
      (default 15) and prints the end-to-end metrics; --trace 1 replays one
      pass in-process under spans, prints the per-layer metrics and the
      attribution table, and writes <target>/qd-perf-trace/trace-W.json.
      The last line of each workload's report is one JSON object.
  qd-perf --smoke     every workload at tiny scale, untraced and traced
  qd-perf --agree     the untraced set twice; fails if the two disagree
  qd-perf --print-benchmark-json
";

/// The parsed command line of a measuring run.
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
                opts.workloads = vec![w];
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Where a run works: the CLI it drives, a scratch directory of this
/// process's own next to the build (same filesystem as the binaries,
/// removed on drop), and where span files go.
struct Site {
    env: e2e::Env,
    trace_dir: PathBuf,
}

impl Site {
    fn new() -> Result<Site, String> {
        let cli = child::cli_path()?;
        let target = cli
            .parent()
            .and_then(Path::parent)
            .ok_or("the CLI does not sit in <target>/<profile>/")?
            .to_path_buf();
        let work = target
            .join("qd-perf-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        println!(
            "qd-perf: cli {}; work dir {} on {}; {} hardware thread(s)",
            cli.display(),
            work.display(),
            child::fs_type(&work),
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
        );
        Ok(Site {
            env: e2e::Env {
                cli,
                work,
                ticks_per_s: child::clock_ticks_per_s(),
            },
            trace_dir: target.join("qd-perf-trace"),
        })
    }
}

impl Drop for Site {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.env.work).ok();
    }
}

/// The end-to-end values of one untraced outcome.
fn e2e_values(out: &e2e::Outcome) -> Values {
    let mut v = Values::new();
    v.insert("setup_s", out.setup_s);
    v.insert("op_ms_p50", out.op_ms_p50());
    v.insert("cpu_ms_per_op", out.cpu_ms_per_op());
    v.insert("peak_rss_mb", out.peak_rss_mb());
    v.insert("disk_mb", out.disk_mb());
    v
}

/// Quality floors of the request-stream check: a class `unlearn` must
/// leave the class forgotten and the rest of the model usable.
const MAX_FORGET_ACC: f64 = 0.2;
const MIN_RETAIN_ACC: f64 = 0.5;

fn quality_ok(forget: Option<f64>, retain: Option<f64>) -> bool {
    forget.is_none_or(|f| f <= MAX_FORGET_ACC) && retain.is_none_or(|r| r >= MIN_RETAIN_ACC)
}

/// One untraced run: report, result line, verdict.
fn untraced(
    site: &Site,
    registry: &Registry,
    w: Workload,
    scale: &Scale,
    opts: &Options,
) -> (bool, e2e::Outcome) {
    let out = e2e::run(&site.env, w, scale, opts.seed, opts.seconds);
    let values = e2e_values(&out);
    let problems = values.audit(&registry.end_to_end, w);
    let forget = stats::median(&out.forget_acc);
    let retain = stats::median(&out.retain_acc);
    let correct = out.tally.failed == 0
        && problems.is_empty()
        && values.iter().all(|(_, v)| v > 0.0)
        && quality_ok(forget, retain);

    println!(
        "== {} untraced (seed {}): {} timed invocation(s) in {} pass(es); attempted {} failed {}",
        w.name(),
        opts.seed,
        out.op_ms.len(),
        out.passes,
        out.tally.attempted,
        out.tally.failed
    );
    for m in &registry.end_to_end {
        let n = match m.name {
            "setup_s" => scale.setup_reps,
            "disk_mb" => out.disk_bytes.len(),
            _ => out.op_ms.len(),
        };
        println!(
            "  {:<16} {:>14.4} {:<4} n={n}",
            m.name,
            values.get(m.name).unwrap_or(f64::NAN),
            m.unit
        );
    }
    if let Some(p) = stats::tail_percentile(out.op_ms.len()) {
        println!(
            "  {:<16} {:>14.4} ms   n={}",
            format!("op_ms_p{p}"),
            stats::percentile(&out.op_ms, p).unwrap_or(f64::NAN),
            out.op_ms.len()
        );
    }
    if let (Some(f), Some(r)) = (forget, retain) {
        println!(
            "  forget_acc {f:.4} (limit {MAX_FORGET_ACC}), retain_acc {r:.4} (floor {MIN_RETAIN_ACC}) over {} class unlearn(s)",
            out.forget_acc.len()
        );
    }
    let samples: Vec<String> = out.op_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    println!("  op_ms in order: {}", samples.join(" "));
    println!(
        "  sys share of child CPU {:.3}; model_digest {:016x}",
        out.sys_share, out.model_digest
    );
    for why in out.tally.failures.iter().chain(&problems) {
        println!("  FAILED {why}");
    }
    println!(
        "{}",
        metrics::result_line(
            &registry.end_to_end,
            &values,
            correct,
            out.tally.attempted,
            out.tally.failed
        )
    );
    (correct, out)
}

/// One traced run: report, attribution table, span file, result line.
fn traced(
    site: &Site,
    registry: &Registry,
    w: Workload,
    scale: &Scale,
    effort: &Effort,
    seed: u64,
) -> (bool, Ledger) {
    let dir = site.env.work.join(format!("trace-{}", w.name()));
    let led = ledger::run(
        w,
        scale,
        effort,
        seed,
        &site.env.cli,
        &dir,
        site.env.ticks_per_s,
    );
    let problems = led.values.audit(&registry.per_layer, w);
    let correct = led.tally.failed == 0
        && problems.is_empty()
        && quality_ok(
            led.values.get("eval.forget_acc"),
            led.values.get("eval.retain_acc"),
        );

    println!(
        "== {} traced (seed {seed}): workload span {:.1} ms, {} span(s); attempted {} failed {}",
        w.name(),
        led.workload_ms,
        led.spans.len(),
        led.tally.attempted,
        led.tally.failed
    );
    for m in &registry.per_layer {
        match led.values.get(m.name) {
            Some(v) => println!(
                "  {:<34} {:>16.4} {}{}",
                m.name,
                v,
                m.unit,
                if m.exact { " #" } else { "" }
            ),
            None => println!(
                "  {:<34} {:>16} (not exercised by {})",
                m.name,
                "-",
                w.name()
            ),
        }
    }
    println!("  attribution: wall-clock self time per layer under the workload span");
    for (layer, ms) in &led.attribution {
        println!(
            "    {:<14} {:>10.2} ms {:>6.1} %",
            layer,
            ms,
            100.0 * ms / led.workload_ms
        );
    }
    println!("  model_digest {:016x}", led.model_digest);
    for why in led.tally.failures.iter().chain(&problems) {
        println!("  FAILED {why}");
    }
    let file = site.trace_dir.join(format!("trace-{}.json", w.name()));
    let written = std::fs::create_dir_all(&site.trace_dir)
        .and_then(|()| std::fs::write(&file, trace::to_json(w.name(), &led.spans)));
    match written {
        Ok(()) => println!("  spans written to {}", file.display()),
        Err(e) => println!("  spans not written to {}: {e}", file.display()),
    }
    println!(
        "{}",
        metrics::result_line(
            &registry.per_layer,
            &led.values,
            correct,
            led.tally.attempted,
            led.tally.failed
        )
    );
    (correct, led)
}

fn measure(opts: &Options) -> Result<bool, String> {
    let registry = Registry::builtin();
    let site = Site::new()?;
    let mut all_correct = true;
    for &w in &opts.workloads {
        all_correct &= if opts.trace {
            traced(&site, &registry, w, &Scale::FULL, &Effort::FULL, opts.seed).0
        } else {
            untraced(&site, &registry, w, &Scale::FULL, opts).0
        };
    }
    Ok(all_correct)
}

/// `--smoke`: every workload at tiny scale, untraced then traced. Every
/// registered metric must come out once per workload that exercises it,
/// every output check must pass, and the in-process replica must end on
/// the same model bits as the CLI it mirrors.
fn smoke() -> Result<bool, String> {
    let registry = Registry::builtin();
    let site = Site::new()?;
    let opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 3,
        seconds: 1.0,
        trace: false,
    };
    let mut ok = true;
    for w in Workload::ALL {
        let (correct, out) = untraced(&site, &registry, w, &Scale::SMOKE, &opts);
        let (traced_ok, led) = traced(
            &site,
            &registry,
            w,
            &Scale::SMOKE,
            &Effort::SMOKE,
            opts.seed,
        );
        ok &= correct && traced_ok;
        if out.model_digest != led.model_digest {
            println!(
                "  FAILED {}: replica digest {:016x} differs from the CLI's {:016x}",
                w.name(),
                led.model_digest,
                out.model_digest
            );
            ok = false;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// `--agree`: the untraced set twice on one build and seed. Timings must
/// agree within each metric's bound; byte counts and model digests must
/// be equal.
fn agree(seed: u64) -> Result<bool, String> {
    let registry = Registry::builtin();
    let site = Site::new()?;
    let opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    let mut ok = true;
    let mut table = Vec::new();
    for w in Workload::ALL {
        let (c1, a) = untraced(&site, &registry, w, &Scale::FULL, &opts);
        let (c2, b) = untraced(&site, &registry, w, &Scale::FULL, &opts);
        ok &= c1 && c2;
        let (va, vb) = (e2e_values(&a), e2e_values(&b));
        for m in &registry.end_to_end {
            let (x, y) = (
                va.get(m.name).unwrap_or(f64::NAN),
                vb.get(m.name).unwrap_or(f64::NAN),
            );
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let off = (x - y).abs() / x.min(y);
            let agrees = if m.name == "disk_mb" {
                x == y
            } else {
                off <= bound
            };
            ok &= agrees;
            table.push(format!(
                "  {:<15} {:<14} {:>12.4} {:>12.4} {:>7.2} % {}",
                w.name(),
                m.name,
                x,
                y,
                off * 100.0,
                if agrees { "ok" } else { "DISAGREES" }
            ));
        }
        let quartiles = |o: &e2e::Outcome| {
            stats::quartiles(&o.op_ms)
                .map_or("-".to_string(), |(q1, q3)| format!("{q1:.1}..{q3:.1}"))
        };
        let same = a.model_digest == b.model_digest;
        ok &= same;
        table.push(format!(
            "  {:<15} op_ms quartiles {} | {}; model_digest {:016x} {:016x} {}",
            w.name(),
            quartiles(&a),
            quartiles(&b),
            a.model_digest,
            b.model_digest,
            if same { "ok" } else { "DISAGREES" }
        ));
    }
    println!("== agreement of two untraced sets (seed {seed})");
    println!("  workload        metric                first       second      apart");
    for row in table {
        println!("{row}");
    }
    println!("agree: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--help"] | ["-h"] => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        ["--print-benchmark-json"] => {
            print!(
                "{}",
                Registry::builtin().benchmark_json(metrics::RUN_SECONDS)
            );
            return ExitCode::SUCCESS;
        }
        ["--smoke"] => smoke(),
        ["--agree"] => agree(11),
        ["--agree", "--seed", seed] => seed
            .parse()
            .map_err(|_| "bad --seed".to_string())
            .and_then(agree),
        _ => parse(&args).and_then(|opts| measure(&opts)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("qd-perf: an output check failed");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("qd-perf: {why}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
