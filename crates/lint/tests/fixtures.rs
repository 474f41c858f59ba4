//! Fixture-based self-tests: every rule family is exercised against a
//! checked-in corpus with positive (must fire), suppressed (must not
//! fire) and out-of-scope (must not fire) cases, and the `qd-lint`
//! binary is driven end-to-end to pin its exit codes and output shape.

#![allow(
    clippy::disallowed_methods,
    reason = "the test reads its fixture files"
)]

use qd_lint::{engine, Config};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture_config() -> Config {
    Config::load(&fixtures_dir().join("qd-lint.toml")).expect("fixture config parses")
}

/// Runs the engine over the corpus, returning `(file, line, rule)`
/// triples with paths reduced to fixture-relative form.
fn corpus_findings() -> Vec<(String, usize, String)> {
    let diags = engine::run(&[fixtures_dir()], &fixture_config()).expect("corpus scans");
    let mut out: Vec<_> = diags
        .into_iter()
        .map(|d| {
            let rel = d
                .path
                .split_once("fixtures/")
                .map(|(_, tail)| tail.to_string())
                .expect("diagnostic path is under fixtures/");
            (rel, d.line, d.rule)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn corpus_produces_exactly_the_expected_findings() {
    let expected: Vec<(String, usize, String)> = [
        ("checkpoint.rs", 7, "durability"),
        ("checkpoint.rs", 13, "durability"),
        ("durable/split.rs", 21, "durability"),
        ("helpers/math.rs", 9, "panic-safety"),
        ("locks/order.rs", 7, "lock-order"),
        ("locks/order.rs", 13, "lock-order"),
        ("serving/panics.rs", 4, "panic-safety"),
        ("serving/panics.rs", 8, "panic-safety"),
        ("serving/panics.rs", 13, "panic-safety"),
        ("serving/panics.rs", 21, "panic-safety"),
        ("serving/panics.rs", 26, "panic-safety"),
        ("suppress/unknown.rs", 5, "suppression-hygiene"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r.to_string()))
    .collect();
    assert_eq!(corpus_findings(), expected);
}

#[test]
fn suppressed_and_out_of_scope_cases_never_fire() {
    let findings = corpus_findings();
    // The clean file must not appear at all.
    assert!(
        findings.iter().all(|(f, _, _)| f != "clean.rs"),
        "{findings:?}"
    );
    // Suppressed lines: the `// qd-lint: allow(...)` cases in each file.
    for (file, line) in [
        ("serving/panics.rs", 30),
        ("serving/panics.rs", 35),
        ("checkpoint.rs", 29),
        // Reachable but justified (helpers) and meta-suppressed typo.
        ("helpers/math.rs", 14),
        ("suppress/unknown.rs", 9),
    ] {
        assert!(
            !findings.iter().any(|(f, l, _)| f == file && *l == line),
            "{file}:{line} should be suppressed"
        );
    }
}

#[test]
fn deny_mode_fails_on_the_corpus_with_file_line_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_qd-lint"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--deny", "--config", "fixtures/qd-lint.toml", "fixtures"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "corpus must fail --deny");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("fixtures/serving/panics.rs:4: [panic-safety]"),
        "diagnostics carry file:line: {stdout}"
    );
    // The scan covers the config's own tree, so its stale entry-point
    // glob is judged — against the config line that declares it.
    assert!(
        stdout.contains(
            "fixtures/qd-lint.toml:13: [entrypoint-hygiene] entry-point glob \
             `**::serving::entry::renamed_away` (set `stale`)"
        ),
        "a glob seeding nothing is a finding: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("violation(s)"), "{stderr}");
}

#[test]
fn clean_tree_passes_deny_mode() {
    let out = Command::new(env!("CARGO_BIN_EXE_qd-lint"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--deny", "--config", "fixtures/qd-lint.toml", "src"])
        .output()
        .expect("binary runs");
    // A partial scan (here: outside the config's tree) cannot judge the
    // config's entry-point globs, so none of them is reported stale.
    assert!(
        out.status.success(),
        "lint's own src must be clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn reachability_findings_carry_the_witness_call_chain() {
    let diags = engine::run(&[fixtures_dir()], &fixture_config()).expect("corpus scans");
    let reach = diags
        .iter()
        .find(|d| d.path.ends_with("helpers/math.rs") && d.rule == "panic-safety")
        .expect("the reachable unwrap is reported");
    let chain: Vec<&str> = reach.chain.iter().map(String::as_str).collect();
    assert_eq!(chain.len(), 4, "{chain:?}");
    assert!(
        chain[0].ends_with("serving::entry::handle_request"),
        "{chain:?}"
    );
    assert!(chain[3].ends_with("helpers::math::deep_sum"), "{chain:?}");
    assert!(
        reach.to_string().contains("[via "),
        "chains render in text output: {reach}"
    );
    // The unreachable twin of the same token never fires.
    assert!(
        !diags
            .iter()
            .any(|d| d.path.ends_with("helpers/math.rs") && d.line == 18),
        "cold_stats is unreachable"
    );
}

#[test]
fn graph_dot_output_matches_the_pinned_fixture_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_qd-lint"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "--graph",
            "dot",
            "--config",
            "fixtures/qd-lint.toml",
            "fixtures/graph",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "--graph dot exits 0");
    let pinned =
        std::fs::read_to_string(fixtures_dir().parent().unwrap().join("fixtures/graph.dot"))
            .expect("pinned dot exists");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), pinned);
}

#[test]
fn list_rules_prints_the_pinned_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_qd-lint"))
        .args(["--list-rules"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        qd_lint::rules::render_table()
    );
}
