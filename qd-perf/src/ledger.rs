//! The traced run: one pass of a workload replayed in-process under
//! spans, plus the isolated layer measurements, folded into the per-layer
//! metrics and the attribution table.

use crate::alloc::AllocCount;
use crate::checks::Tally;
use crate::child::CpuClock;
use crate::e2e::deploy_copy;
use crate::instrument::VfsCounts;
use crate::metrics::{Values, PER_LAYER};
use crate::micro;
use crate::replica::Rig;
use crate::stats;
use crate::trace::{self, covered_ns, now, Span, Tracer};
use crate::workload::{pass_seed, Scale, Workload};
use qd_serve::build_plan;
use std::collections::BTreeMap;
use std::path::Path;

/// What a traced run produced.
pub struct Ledger {
    pub values: Values,
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// Wall-clock self time per layer under the workload's span, in ms.
    pub attribution: BTreeMap<&'static str, f64>,
    /// Length of the workload's span in ms.
    pub workload_ms: f64,
    /// Digest of the model the replica ended with.
    pub model_digest: u64,
}

/// The registered `share.<layer>` metric of an attribution-table layer.
fn share_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|name| name.strip_prefix("share.") == Some(layer))
        .unwrap_or_else(|| unreachable!("span layer {layer} has no share.{layer} metric"))
}

/// How many repetitions the isolated measurements take.
pub struct Effort {
    pub kernel_reps: usize,
    pub layer_reps: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        kernel_reps: 30,
        layer_reps: 15,
    };
    pub const SMOKE: Effort = Effort {
        kernel_reps: 3,
        layer_reps: 2,
    };
}

struct Run {
    values: Values,
    tally: Tally,
    model_digest: u64,
}

fn ms_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

fn median_ms(spans: &[Span], name: &str) -> Option<f64> {
    stats::median(&ms_of(spans, name))
}

/// Replays one pass of `workload` under spans and measures the layers.
/// Fixed work — the measuring window does not apply — so that every
/// count repeats exactly.
pub fn run(
    workload: Workload,
    scale: &Scale,
    effort: &Effort,
    seed: u64,
    cli: &Path,
    dir: &Path,
    ticks_per_s: f64,
) -> Ledger {
    let rig = Rig::new(*scale);
    let t: &Tracer = &rig.tracer;
    let mut run = Run {
        values: Values::new(),
        tally: Tally::default(),
        model_digest: 0,
    };
    std::fs::create_dir_all(dir.join("fixture")).expect("work directory is creatable");
    let fixture = dir.join("fixture/deploy.json");

    // Set-up, outside the workload's span: the fixture every workload
    // starts from, and the served history reopen-history re-opens.
    let trained = t.scope("setup", "harness", || {
        let trained = rig.train(&fixture, seed);
        if workload == Workload::ReopenHistory && trained.is_ok() {
            let ckpt = deploy_copy(&dir.join("history"), &fixture);
            let built = rig.service(&ckpt, &scale.history, seed).map(drop);
            return built.and(trained);
        }
        trained
    });
    let Some((fed, qd)) = run.tally.op("set-up", trained) else {
        return finish(run, &rig, None);
    };
    run.values.insert(
        "core.ckpt.bytes",
        std::fs::metadata(&fixture).map_or(0.0, |m| m.len() as f64),
    );
    let fixture_digest = crate::checks::params_digest(fed.global());

    let vfs_before = rig.fs.counts();
    let saves_before = rig.saves.get();
    let alloc_before = AllocCount::now();
    let cpu_before = CpuClock::now(ticks_per_s);
    let mut ops = 0u64;
    let root = t.spans().len();
    t.scope("workload", "harness", || match workload {
        Workload::TrainDistill => {
            ops = 1;
            let d = rig.train_decomposed(seed);
            let same = (d.model_digest == fixture_digest)
                .then_some(())
                .ok_or("decomposed training diverged from QuickDrop::train".to_string());
            run.tally.op("train", same);
            run.model_digest = d.model_digest;
            let rounds = d.stats.rounds.max(1) as f64;
            run.values
                .insert("alloc.count_per_round", d.allocs.count as f64 / rounds);
            run.values.insert(
                "net.wire_bytes_per_round",
                d.stats.communication_scalars() as f64 * 4.0 / rounds,
            );
            // `train` ends by writing the deployment; the decomposed
            // phase cannot assemble one, so the fixture's (the same
            // bytes) is written in its place.
            let saved = rig.save(&fed, &qd, &dir.join("pass-deploy.json"));
            run.tally.op("train checkpoint", saved);
        }
        Workload::RequestStream => {
            let serve_seed = pass_seed(seed, 0);
            let ckpt = deploy_copy(&dir.join("pass"), &fixture);
            let (mut sga, mut recover, mut relearn) = (Vec::new(), Vec::new(), Vec::new());
            let (mut forget, mut retain, mut per_record) = (Vec::new(), Vec::new(), Vec::new());
            let (mut rounds, mut samples, mut records) = (0usize, 0usize, 0usize);
            for target in scale.request_targets(serve_seed) {
                for is_relearn in [false, true] {
                    ops += 1;
                    let cost = t.request("cli.request", "harness", || {
                        rig.request(&ckpt, is_relearn, target, serve_seed)
                    });
                    let verb = if is_relearn { "relearn" } else { "unlearn" };
                    let Some(cost) = run.tally.op(&format!("{verb} {target}"), cost) else {
                        continue;
                    };
                    let stages = cost
                        .unlearn
                        .iter()
                        .flat_map(|(a, r)| [a, r])
                        .chain(cost.relearn.iter());
                    for stage in stages {
                        rounds += stage.rounds;
                        samples += stage.samples_processed;
                    }
                    if let Some((a, r)) = cost.unlearn {
                        sga.push(a.wall.as_secs_f64() * 1e3);
                        recover.push(r.wall.as_secs_f64() * 1e3);
                    }
                    if let Some(r) = cost.relearn {
                        relearn.push(r.wall.as_secs_f64() * 1e3);
                    }
                    if let Some((f, r)) = cost.accuracy {
                        forget.push(f);
                        retain.push(r);
                    }
                    records += cost.records_appended;
                    per_record.push(cost.history_records);
                    run.model_digest = cost.model_digest;
                }
            }
            let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
            run.values.insert("unlearn.sga_ms_p50", med(&sga));
            run.values.insert("unlearn.recover_ms_p50", med(&recover));
            run.values.insert("unlearn.relearn_ms_p50", med(&relearn));
            run.values.insert("unlearn.rounds_total", rounds as f64);
            run.values.insert("unlearn.samples_total", samples as f64);
            run.values.insert("eval.forget_acc", med(&forget));
            run.values.insert("eval.retain_acc", med(&retain));
            run.values
                .insert("core.journal.records_per_op", records as f64 / ops as f64);
            open_cost_per_record(&mut run.values, &t.spans()[root..], &per_record);
        }
        Workload::ServeMixed => {
            let serve_seed = pass_seed(seed, 0);
            let ckpt = deploy_copy(&dir.join("pass"), &fixture);
            let served = t.request("cli.serve", "harness", || {
                rig.service(&ckpt, &scale.mixed, serve_seed)
            });
            ops = scale.mixed.offered() as u64;
            run.tally.attempted += ops - 1; // every offered request is an operation
            if let Some(served) = run.tally.op("serve", served) {
                let s = &served.run.stats;
                let unserved = s.offered.saturating_sub(s.served);
                if s.offered != ops || unserved > 0 {
                    run.tally.fail(
                        unserved.max(1),
                        format!("serve: {} of {ops} offered requests served", s.served),
                    );
                }
                run.model_digest = served.model_digest;
                let v = &mut run.values;
                v.insert(
                    "core.journal.records_per_op",
                    served.records_appended as f64 / ops as f64,
                );
                v.insert("serve.coalesce_ratio", f64::from(s.coalesce_ratio));
                v.insert("serve.virtual_rps", f64::from(s.throughput_rps));
                v.insert("serve.virtual_p50_us", s.p50_latency_us as f64);
                v.insert("serve.virtual_p99_us", s.p99_latency_us as f64);
                let run_ms = median_ms(&t.spans()[root..], "serve.run_service").unwrap_or(0.0);
                v.insert("serve.run_ms", run_ms);
                v.insert(
                    "serve.real_over_virtual",
                    run_ms * 1e3 / s.makespan_us.max(1) as f64,
                );
                // The unit mix of the plan that was served.
                if let Ok(plan) = build_plan(&served.config) {
                    let singles = plan.batches.iter().filter(|b| b.members.len() == 1).count();
                    v.insert("serve.units_single", singles as f64);
                    v.insert("serve.units_batched", (plan.batches.len() - singles) as f64);
                }
            } else {
                run.tally.failed += ops - 1;
            }
        }
        Workload::ReopenHistory => {
            let ckpt = dir.join("history/deploy.json");
            let mut per_record = Vec::new();
            for _ in 0..scale.reopens_per_pass {
                ops += 1;
                let served = t.request("cli.serve", "harness", || {
                    rig.service(&ckpt, &scale.history, seed)
                });
                let idempotent = served.and_then(|s| {
                    if s.records_appended == 0 && s.run.executed_units == 0 {
                        Ok(s)
                    } else {
                        Err(format!(
                            "re-invocation appended {} records",
                            s.records_appended
                        ))
                    }
                });
                if let Some(s) = run.tally.op("reopen", idempotent) {
                    per_record.push(s.history_records);
                    run.model_digest = s.model_digest;
                }
            }
            let spans = &t.spans()[root..];
            run.values.insert(
                "serve.noop_resume_ms",
                median_ms(spans, "serve.run_service").unwrap_or(0.0),
            );
            open_cost_per_record(&mut run.values, spans, &per_record);
        }
    });
    let cpu = CpuClock::now(ticks_per_s);
    let allocs = AllocCount::now().since(alloc_before);
    let vfs = rig.fs.counts();
    let ops_f = ops.max(1) as f64;

    let own = (cpu.own_user - cpu_before.own_user) + (cpu.own_sys - cpu_before.own_sys);
    if own > 0.0 {
        run.values
            .insert("proc.sys_share", (cpu.own_sys - cpu_before.own_sys) / own);
    }
    run.values
        .insert("alloc.count_per_op", allocs.count as f64 / ops_f);
    run.values
        .insert("alloc.bytes_per_op", allocs.bytes as f64 / ops_f);
    vfs_metrics(&mut run.values, &vfs_before, &vfs, ops_f);
    let (saves, save_bytes) = rig.saves.get();
    if saves > saves_before.0 {
        run.values.insert(
            "core.ckpt.bytes_written_per_save",
            (save_bytes - saves_before.1) as f64 / (saves - saves_before.0) as f64,
        );
    }

    // Isolated layer measurements, after the workload so they cannot
    // warm anything it touches.
    micro::kernels(&mut run.values, effort.kernel_reps);
    micro::layers(&mut run.values, &rig, cli, &fixture, dir, effort.layer_reps);
    let plan_cfg = rig.serve_config(&qd, &scale.mixed, pass_seed(seed, 0));
    let plan_start = now();
    let planned = build_plan(&plan_cfg).is_ok();
    run.values.insert(
        "serve.plan_ms",
        if planned {
            plan_start.elapsed().as_secs_f64() * 1e3
        } else {
            0.0
        },
    );
    let deployed = micro::deployment(
        &mut run.values,
        &rig,
        fed,
        &qd,
        &fixture,
        dir,
        effort.layer_reps,
    );
    run.tally.op("layer measurements", deployed);

    finish(run, &rig, Some(root))
}

/// `core.journal.open_us_per_record`: what an open costs per record already
/// in the journal (`history[i]` for the i-th open), over the opens that
/// found any.
fn open_cost_per_record(values: &mut Values, spans: &[Span], history: &[usize]) {
    let per: Vec<f64> = ms_of(spans, "core.journal.open")
        .iter()
        .zip(history)
        .filter(|(_, &records)| records > 0)
        .map(|(ms, &records)| ms * 1e3 / records as f64)
        .collect();
    values.insert(
        "core.journal.open_us_per_record",
        stats::median(&per).unwrap_or(0.0),
    );
}

fn vfs_metrics(values: &mut Values, before: &VfsCounts, after: &VfsCounts, ops: f64) {
    values.insert("core.vfs.ops_per_op", (after.ops - before.ops) as f64 / ops);
    values.insert(
        "core.vfs.fsyncs_per_op",
        (after.fsyncs - before.fsyncs) as f64 / ops,
    );
    values.insert(
        "core.vfs.bytes_written_per_op",
        (after.bytes_written - before.bytes_written) as f64 / ops,
    );
    values.insert(
        "core.vfs.bytes_read_per_op",
        (after.bytes_read - before.bytes_read) as f64 / ops,
    );
    values.insert(
        "core.vfs.busy_ms_per_op",
        (after.busy - before.busy).as_secs_f64() * 1e3 / ops,
    );
    let fsyncs: Vec<f64> = after.fsync_times[before.fsync_times.len()..]
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    values.insert(
        "core.vfs.fsync_ms_p50",
        stats::median(&fsyncs).unwrap_or(0.0),
    );
}

/// Span-derived metrics and the attribution table.
fn finish(mut run: Run, rig: &Rig, root: Option<usize>) -> Ledger {
    let spans = rig.tracer.spans();
    let mut attribution = BTreeMap::new();
    let mut workload_ms = 0.0;
    if let Some(root) = root.filter(|&r| r < spans.len()) {
        let sub = &spans[root..];
        workload_ms = spans[root].ms();
        let v = &mut run.values;
        for (metric, span) in [
            ("core.ckpt.load_ms", "core.ckpt.load"),
            ("core.ckpt.restore_ms", "core.ckpt.restore"),
            ("core.ckpt.save_ms", "core.ckpt.save"),
            ("core.journal.open_ms_p50", "core.journal.open"),
            ("core.journal.resume_ms_p50", "core.journal.resume"),
            ("fed.round_ms_p50", "fed.round"),
        ] {
            if let Some(ms) = median_ms(sub, span) {
                v.insert(metric, ms);
            }
        }
        round_metrics(v, &spans, root);
        let requests = ms_of(sub, "cli.request");
        if !requests.is_empty() {
            let inner: f64 = ms_of(sub, "unlearn.serve_journaled")
                .iter()
                .chain(&ms_of(sub, "unlearn.relearn_journaled"))
                .sum();
            v.insert(
                "cli.request_overhead_share",
                1.0 - inner / requests.iter().sum::<f64>(),
            );
        }
        attribution = trace::layer_self_ms(&spans, root);
        for (layer, ms) in &attribution {
            v.insert(share_metric(layer), ms / workload_ms);
        }
        v.insert("trace.spans", sub.len() as f64);
        v.insert(
            "trace.overhead_share",
            span_cost_s() * sub.len() as f64 * 1e3 / workload_ms,
        );
    }
    Ledger {
        values: run.values,
        tally: run.tally,
        spans,
        attribution,
        workload_ms,
        model_digest: run.model_digest,
    }
}

/// `fed.*` and `distill.dd_share` from the round and local-round spans
/// of a decomposed training phase.
fn round_metrics(v: &mut Values, spans: &[Span], root: usize) {
    let rounds: Vec<usize> = (root..spans.len())
        .filter(|&i| spans[i].name == "fed.round")
        .collect();
    if rounds.is_empty() {
        return;
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64;
    let (mut busy_ms, mut dd_ms, mut wall_ms) = (0.0, 0.0, 0.0);
    let mut overhead = Vec::new();
    for &r in &rounds {
        let mut locals = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent == Some(r) && s.name == "fed.local_round" {
                locals.push((s.start_ns, s.end_ns));
                busy_ms += s.ms();
                dd_ms += spans
                    .iter()
                    .filter(|d| d.parent == Some(i) && d.name == "distill.match")
                    .map(Span::ms)
                    .sum::<f64>();
            }
        }
        let round = &spans[r];
        wall_ms += round.ms();
        // What the round costs while no client computes: clones,
        // transport, aggregation, thread spawn and join.
        let covered = covered_ns(&mut locals, round.start_ns, round.end_ns) as f64 / 1e6;
        overhead.push(round.ms() - covered);
    }
    v.insert(
        "fed.client_busy_ms_per_round",
        busy_ms / rounds.len() as f64,
    );
    v.insert(
        "fed.round_overhead_ms",
        stats::median(&overhead).unwrap_or(0.0),
    );
    v.insert("fed.parallel_efficiency", busy_ms / (threads * wall_ms));
    v.insert(
        "distill.dd_share",
        if busy_ms > 0.0 { dd_ms / busy_ms } else { 0.0 },
    );
}

/// Seconds one span costs to record, measured on a tracer of its own.
fn span_cost_s() -> f64 {
    let t = Tracer::new();
    let n = 10_000;
    let start = now();
    for _ in 0..n {
        t.scope("x", "harness", || ());
    }
    start.elapsed().as_secs_f64() / f64::from(n)
}
