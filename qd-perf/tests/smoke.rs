//! `cargo test` exercises the harness end to end: `run.sh --smoke` builds
//! both binaries in release mode and runs every workload at tiny scale,
//! untraced and traced (see `smoke` in src/main.rs for what it asserts).

use std::process::Command;

#[test]
fn smoke_run_passes_every_check() {
    let out = Command::new("bash")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh"))
        .arg("--smoke")
        .output()
        .expect("bash runs run.sh");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.trim_end().ends_with("smoke: ok"),
        "qd-perf --smoke failed\n--- stdout\n{stdout}\n--- stderr\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Four workloads, each reported untraced and traced, each report
    // ending in one result line.
    let results = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .count();
    assert_eq!(results, 8, "{stdout}");
}
