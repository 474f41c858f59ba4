//! The workspace's compiler lints reach every package: the root
//! `[workspace.lints.rust]` table forbids `unsafe` code, and the root
//! package and every member under `crates/` inherit it with `[lints]
//! workspace = true`. A manifest that omits the inheritance compiles
//! without the ban, so a new crate would silently drop out of it.

#![allow(
    clippy::disallowed_methods,
    reason = "the test reads the workspace's manifests"
)]

use std::path::Path;

/// The non-blank, non-comment lines of `table` in a manifest's text.
fn table<'a>(manifest: &'a str, table: &str) -> Vec<&'a str> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_root_lint_table_forbids_unsafe_code() {
    let root = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    let lints = table(&root, "workspace.lints.rust");
    assert!(
        lints.contains(&r#"unsafe_code = "forbid""#),
        "[workspace.lints.rust] must forbid unsafe_code: {lints:?}"
    );
    assert!(
        lints.iter().any(|l| l.starts_with("rust_2018_idioms = ")),
        "[workspace.lints.rust] must set rust_2018_idioms: {lints:?}"
    );
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        assert_eq!(
            table(&read(&manifest), "lints"),
            ["workspace = true"],
            "{} must declare `[lints] workspace = true`",
            manifest.display()
        );
    }
}
