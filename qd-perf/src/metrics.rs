//! The metric registry: every name the benchmark may emit, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is
//! rendered from it, so the contract file and the harness cannot drift.

use crate::workload::Workload;
use std::collections::BTreeSet;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End to end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A count that must repeat exactly between runs of one build and
    /// seed (`#` in the README).
    pub exact: bool,
    /// The workloads whose run exercises the metric; on the others it
    /// reads 0 ("layer not exercised"). Empty means every workload.
    pub on: &'static [Workload],
}

impl Metric {
    /// Whether a run of `workload` exercises this metric.
    pub fn applies(&self, workload: Workload) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        on: &[],
    }
}

/// End-to-end metrics, each emitted by every workload. The operation is
/// one `quickdrop-cli` invocation: a `train`, an `unlearn`/`relearn`, a
/// `serve` process, an idempotent `serve` re-invocation.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
    e2e("disk_mb", "MiB", Better::Lower, 0.1),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    on: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact,
        on,
    }
}

use Better::{Higher, Lower};
const ALL: &[Workload] = &[];
const T: &[Workload] = &[Workload::TrainDistill];
const R: &[Workload] = &[Workload::RequestStream];
const S: &[Workload] = &[Workload::ServeMixed];
const H: &[Workload] = &[Workload::ReopenHistory];
const TR: &[Workload] = &[Workload::TrainDistill, Workload::RequestStream];
const SH: &[Workload] = &[Workload::ServeMixed, Workload::ReopenHistory];
const RS: &[Workload] = &[Workload::RequestStream, Workload::ServeMixed];
const RH: &[Workload] = &[Workload::RequestStream, Workload::ReopenHistory];
const RSH: &[Workload] = &[
    Workload::RequestStream,
    Workload::ServeMixed,
    Workload::ReopenHistory,
];

/// Per-layer metrics of the traced run, named by crate. A metric whose
/// `on` list leaves a workload out reads 0 there: the workload's replica
/// never enters that code. `share.*` is the attribution table.
pub const PER_LAYER: &[Metric] = &[
    // Kernels replayed at the deployed ConvNet's shapes.
    layer("tensor.matmul_b32_us", "us", Lower, false, ALL),
    layer("tensor.matmul_b2_us", "us", Lower, false, ALL),
    layer("tensor.matmul_b32_gflops", "GFLOP/s", Higher, false, ALL),
    layer("tensor.im2col_b32_us", "us", Lower, false, ALL),
    layer("tensor.col2im_b32_us", "us", Lower, false, ALL),
    layer("tensor.avg_pool_b32_us", "us", Lower, false, ALL),
    layer("autograd.fwd_bwd_b32_ms", "ms", Lower, false, ALL),
    layer("autograd.fwd_bwd_b2_ms", "ms", Lower, false, ALL),
    layer("autograd.tape_nodes_b32", "count", Lower, true, ALL),
    layer("autograd.bookkeeping_share_b32", "share", Lower, false, ALL),
    layer("autograd.alloc_count_b32", "count", Lower, true, ALL),
    layer("autograd.alloc_bytes_b32", "bytes", Lower, true, ALL),
    layer("nn.forward_inference_b32_ms", "ms", Lower, false, ALL),
    layer("nn.sgd_step_us", "us", Lower, false, ALL),
    layer("nn.param_scalars", "count", Lower, true, ALL),
    layer("data.generate_train_ms", "ms", Lower, false, ALL),
    layer("data.generate_test_ms", "ms", Lower, false, ALL),
    layer("data.partition_ms", "ms", Lower, false, ALL),
    layer("distill.match_step_ms", "ms", Lower, false, ALL),
    layer("distill.reference_gradients_ms", "ms", Lower, false, ALL),
    layer("distill.alloc_count_match_step", "count", Lower, true, ALL),
    layer("distill.dd_share", "share", Lower, false, T),
    // The federated round, from the decomposed training phase.
    layer("fed.round_ms_p50", "ms", Lower, false, T),
    layer("fed.client_busy_ms_per_round", "ms", Lower, false, T),
    layer("fed.round_overhead_ms", "ms", Lower, false, T),
    layer("fed.parallel_efficiency", "share", Higher, false, T),
    layer("fed.aggregate_us", "us", Lower, false, ALL),
    layer("fed.small_round_ms", "ms", Lower, false, ALL),
    layer("net.simnet_roundtrip_us", "us", Lower, false, ALL),
    layer("net.wire_bytes_per_round", "bytes", Lower, true, T),
    // Serving one request.
    layer("unlearn.sga_ms_p50", "ms", Lower, false, R),
    layer("unlearn.recover_ms_p50", "ms", Lower, false, R),
    layer("unlearn.relearn_ms_p50", "ms", Lower, false, R),
    layer("unlearn.rounds_total", "count", Lower, true, R),
    layer("unlearn.samples_total", "count", Lower, true, R),
    layer("unlearn.guard_overhead_share", "share", Lower, false, ALL),
    layer("unlearn.speedup_vs_retrain", "x", Higher, false, ALL),
    // Durable state.
    layer("core.ckpt.load_ms", "ms", Lower, false, RSH),
    layer("core.ckpt.restore_ms", "ms", Lower, false, RSH),
    layer("core.ckpt.save_ms", "ms", Lower, false, ALL),
    layer("core.ckpt.bytes", "bytes", Lower, true, ALL),
    layer(
        "core.ckpt.bytes_written_per_save",
        "bytes",
        Lower,
        true,
        ALL,
    ),
    layer("core.journal.append_ms", "ms", Lower, false, ALL),
    layer("core.journal.encode_share", "share", Lower, false, ALL),
    layer("core.journal.bytes_per_record", "bytes", Lower, true, ALL),
    layer(
        "core.journal.records_per_unlearn",
        "count",
        Lower,
        true,
        ALL,
    ),
    layer("core.journal.records_per_op", "count", Lower, true, RS),
    layer("core.journal.open_ms_p50", "ms", Lower, false, RSH),
    layer("core.journal.open_us_per_record", "us", Lower, false, RH),
    layer("core.journal.resume_ms_p50", "ms", Lower, false, RSH),
    layer("core.vfs.ops_per_op", "count", Lower, true, ALL),
    layer("core.vfs.fsyncs_per_op", "count", Lower, true, ALL),
    layer("core.vfs.bytes_written_per_op", "bytes", Lower, true, ALL),
    layer("core.vfs.bytes_read_per_op", "bytes", Lower, true, ALL),
    layer("core.vfs.busy_ms_per_op", "ms", Lower, false, ALL),
    layer("core.vfs.fsync_ms_p50", "ms", Lower, false, ALL),
    // The service front end; `virtual` figures are on the plan's clock.
    layer("serve.plan_ms", "ms", Lower, false, ALL),
    layer("serve.run_ms", "ms", Lower, false, S),
    layer("serve.noop_resume_ms", "ms", Lower, false, H),
    layer("serve.units_single", "count", Lower, true, S),
    layer("serve.units_batched", "count", Higher, true, S),
    layer("serve.coalesce_ratio", "x", Higher, true, S),
    layer("serve.virtual_rps", "1/s", Higher, true, S),
    layer("serve.virtual_p50_us", "us", Lower, true, S),
    layer("serve.virtual_p99_us", "us", Lower, true, S),
    layer("serve.real_over_virtual", "x", Lower, false, S),
    layer("eval.split_accuracy_ms", "ms", Lower, false, ALL),
    layer("eval.forget_acc", "share", Lower, false, R),
    layer("eval.retain_acc", "share", Higher, false, R),
    layer("cli.startup_ms", "ms", Lower, false, ALL),
    layer("cli.request_overhead_share", "share", Lower, false, R),
    layer("chaos.runs_per_s", "1/s", Higher, false, ALL),
    // The replica as a process.
    layer("alloc.count_per_op", "count", Lower, true, ALL),
    layer("alloc.bytes_per_op", "bytes", Lower, true, ALL),
    layer("alloc.count_per_round", "count", Lower, true, T),
    layer("proc.sys_share", "share", Lower, false, ALL),
    layer("proc.default_malloc_slowdown", "x", Lower, false, ALL),
    layer("trace.spans", "count", Lower, true, ALL),
    layer("trace.overhead_share", "share", Lower, false, ALL),
    // Wall-clock self time per layer as a share of the workload's span.
    layer("share.harness", "share", Lower, false, ALL),
    layer("share.data", "share", Lower, false, TR),
    layer("share.fed", "share", Lower, false, ALL),
    layer("share.compute", "share", Lower, false, T),
    layer("share.distill", "share", Lower, false, T),
    layer("share.unlearn", "share", Lower, false, R),
    layer("share.core.ckpt", "share", Lower, false, ALL),
    layer("share.core.journal", "share", Lower, false, RSH),
    layer("share.core.vfs", "share", Lower, false, ALL),
    layer("share.serve", "share", Lower, false, SH),
    layer("share.eval", "share", Lower, false, R),
];

/// A validated set of metric definitions.
#[derive(Debug)]
pub struct Registry {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The contract's limits.
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
pub const MAX_BOUND: f64 = 0.25;

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

impl Registry {
    /// Validates the definitions against the benchmark contract.
    ///
    /// # Errors
    ///
    /// A message naming the first duplicate or malformed name, missing
    /// or malformed unit, missing or excessive bound, absent `setup_s`,
    /// or list longer than the contract allows.
    pub fn new(end_to_end: &[Metric], per_layer: &[Metric]) -> Result<Registry, String> {
        if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
            return Err(format!(
                "{} end-to-end metrics; the contract allows 1..={MAX_END_TO_END}",
                end_to_end.len()
            ));
        }
        if per_layer.len() > MAX_PER_LAYER {
            return Err(format!(
                "{} per-layer metrics; the contract allows at most {MAX_PER_LAYER}",
                per_layer.len()
            ));
        }
        let mut seen = BTreeSet::new();
        for m in end_to_end.iter().chain(per_layer) {
            if !valid_name(m.name) {
                return Err(format!(
                    "metric name {:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*",
                    m.name
                ));
            }
            if !valid_unit(m.unit) {
                return Err(format!(
                    "metric {} has a missing or malformed unit {:?}",
                    m.name, m.unit
                ));
            }
            if !seen.insert(m.name) {
                return Err(format!("metric {} is registered twice", m.name));
            }
        }
        for m in end_to_end {
            match m.bound {
                Some(b) if b > 0.0 && b <= MAX_BOUND => {}
                other => {
                    return Err(format!(
                        "end-to-end metric {} needs a bound in (0, {MAX_BOUND}], has {other:?}",
                        m.name
                    ))
                }
            }
        }
        if let Some(m) = per_layer.iter().find(|m| m.bound.is_some()) {
            return Err(format!("per-layer metric {} carries a bound", m.name));
        }
        let setup = end_to_end.iter().find(|m| m.name == "setup_s");
        if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
            return Err("the contract requires setup_s in s, lower is better".to_string());
        }
        Ok(Registry {
            end_to_end: end_to_end.to_vec(),
            per_layer: per_layer.to_vec(),
        })
    }

    /// The benchmark's own registry.
    pub fn builtin() -> Registry {
        Registry::new(END_TO_END, PER_LAYER).expect("the built-in metric tables are valid")
    }

    /// `BENCHMARK.json`, rendered from the registry and the workloads.
    pub fn benchmark_json(&self, run_seconds: u64) -> String {
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_string(w.name()),
                    json_string(w.why())
                )
            })
            .collect();
        let end_to_end: Vec<String> = self
            .end_to_end
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    m.better.word(),
                    m.bound.expect("validated")
                )
            })
            .collect();
        let per_layer: Vec<String> = self
            .per_layer
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                    json_string(m.name),
                    json_string(m.unit),
                    m.better.word()
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"bash\", \"qd-perf/run.sh\"],\n  \"paths\": [\"qd-perf\"],\n  \
             \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \
             \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n"),
        )
    }
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The measuring window `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u64 = 15;

/// Measured values of one run, by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(std::collections::BTreeMap<&'static str, f64>);

impl Values {
    pub fn new() -> Values {
        Values::default()
    }

    /// Records `name`; emitting a metric twice is a bug in the harness.
    pub fn insert(&mut self, name: &'static str, value: f64) {
        let earlier = self.0.insert(name, value);
        assert!(earlier.is_none(), "metric {name} emitted twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// What is wrong with these values as a run of `workload` under
    /// `defs`: a name that is not registered, a metric the workload
    /// exercises that is missing or not finite, or one it does not
    /// exercise that was emitted anyway.
    pub fn audit(&self, defs: &[Metric], workload: Workload) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, _) in self.iter() {
            if !defs.iter().any(|m| m.name == name) {
                problems.push(format!("{name} is not registered"));
            }
        }
        for m in defs {
            match (m.applies(workload), self.get(m.name)) {
                (true, Some(v)) if v.is_finite() => {}
                (true, Some(v)) => problems.push(format!("{} is {v}", m.name)),
                (true, None) => problems.push(format!("{} was not emitted", m.name)),
                (false, Some(_)) => problems.push(format!(
                    "{} was emitted on {}, which does not exercise it",
                    m.name,
                    workload.name()
                )),
                (false, None) => {}
            }
        }
        problems
    }
}

/// The result line of the contract: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`, the latter
/// holding every metric of `defs` (0 where `values` has none — a layer
/// the workload does not exercise).
pub fn result_line(
    defs: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = values.get(m.name).filter(|v| v.is_finite());
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                v.unwrap_or(0.0),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &'static str, unit: &'static str) -> Metric {
        Metric {
            name,
            unit,
            better: Better::Lower,
            bound: None,
            exact: false,
            on: &[],
        }
    }

    #[test]
    fn builtin_registry_is_valid_and_matches_the_committed_contract() {
        let registry = Registry::builtin();
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            registry.benchmark_json(RUN_SECONDS),
            committed,
            "regenerate with: qd-perf/run.sh --print-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn rejects_duplicates_bad_names_and_missing_units() {
        let err = |e2e: &[Metric], layers: &[Metric]| Registry::new(e2e, layers).unwrap_err();
        let setup = e2e("setup_s", "s", Better::Lower, 0.25);
        assert!(err(&[setup], &[layer("a.b", "ms"), layer("a.b", "ms")]).contains("twice"));
        assert!(err(&[setup], &[layer("setup_s", "s")]).contains("twice"));
        for bad in ["", "has space", ".dot-first", "ünicode", "a/b"] {
            assert!(
                err(&[setup], &[layer(bad, "ms")]).contains("name"),
                "{bad:?}"
            );
        }
        let long: &'static str = Box::leak("x".repeat(65).into_boxed_str());
        assert!(err(&[setup], &[layer(long, "ms")]).contains("name"));
        assert!(err(&[setup], &[layer("ok", "")]).contains("unit"));
        assert!(err(&[setup], &[layer("ok", "milli seconds")]).contains("unit"));
        assert!(Registry::new(&[setup], &[layer("ok-1.a_b", "1/s")]).is_ok());
    }

    #[test]
    fn rejects_oversized_lists_and_bad_bounds() {
        let setup = e2e("setup_s", "s", Better::Lower, 0.25);
        let names: Vec<&'static str> = (0..129)
            .map(|i| &*Box::leak(format!("m{i}").into_boxed_str()))
            .collect();
        let many_e2e: Vec<Metric> = std::iter::once(setup)
            .chain(names[..16].iter().map(|n| e2e(n, "ms", Better::Lower, 0.1)))
            .collect();
        assert!(Registry::new(&many_e2e, &[])
            .unwrap_err()
            .contains("end-to-end"));
        assert!(Registry::new(&many_e2e[..16], &[]).is_ok());
        let many_layers: Vec<Metric> = names.iter().map(|n| layer(n, "ms")).collect();
        assert!(Registry::new(&[setup], &many_layers)
            .unwrap_err()
            .contains("per-layer"));
        assert!(Registry::new(&[setup], &many_layers[..128]).is_ok());
        assert!(Registry::new(&[], &[]).is_err());
        let loose = e2e("x", "ms", Better::Lower, 0.3);
        assert!(Registry::new(&[setup, loose], &[])
            .unwrap_err()
            .contains("bound"));
        let unbounded = layer("x", "ms");
        assert!(Registry::new(&[setup, unbounded], &[])
            .unwrap_err()
            .contains("bound"));
        let bounded_layer = e2e("y", "ms", Better::Lower, 0.1);
        assert!(Registry::new(&[setup], &[bounded_layer])
            .unwrap_err()
            .contains("bound"));
        let not_setup = e2e("x", "ms", Better::Lower, 0.1);
        assert!(Registry::new(&[not_setup], &[])
            .unwrap_err()
            .contains("setup_s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new();
        values.insert("setup_s", 1.25);
        values.insert("op_ms_p50", f64::NAN);
        let problems = values.audit(END_TO_END, Workload::ServeMixed);
        assert!(
            problems.contains(&"op_ms_p50 is NaN".to_string()),
            "{problems:?}"
        );
        assert!(
            problems.contains(&"disk_mb was not emitted".to_string()),
            "{problems:?}"
        );
        let defs = [
            e2e("setup_s", "s", Better::Lower, 0.25),
            e2e("op_ms_p50", "ms", Better::Lower, 0.1),
        ];
        assert_eq!(
            result_line(&defs, &values, true, 0, 0),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"op_ms_p50\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
