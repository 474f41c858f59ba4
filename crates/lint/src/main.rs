//! `qd-lint`: the workspace invariant gate.
//!
//! ```text
//! qd-lint [--deny] [--list-rules] [--graph dot] [--config <path>] [paths...]
//! ```
//!
//! With no paths, scans the workspace source roots (`crates`, `src`,
//! `examples`, `tests`). The config defaults to `./qd-lint.toml` when
//! present; on such a whole-tree scan (or one whose paths contain the
//! config's directory) an `[entrypoints]` glob matching no fn is itself
//! a finding. `--deny` exits non-zero on any finding (the CI gate);
//! without it findings are printed as warnings. `--graph dot` prints
//! the workspace call graph, annotated with entry-point reachability,
//! and exits 0 without reporting findings.

use qd_lint::{engine, rules, Config};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    deny: bool,
    list_rules: bool,
    graph_dot: bool,
    config: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        deny: false,
        list_rules: false,
        graph_dot: false,
        config: None,
        paths: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => cli.deny = true,
            "--list-rules" => cli.list_rules = true,
            "--graph" => {
                let kind = args
                    .next()
                    .ok_or_else(|| "--graph requires a value (dot)".to_string())?;
                if kind != "dot" {
                    return Err(format!("unknown graph format {kind} (expected dot)"));
                }
                cli.graph_dot = true;
            }
            "--config" => {
                let path = args
                    .next()
                    .ok_or_else(|| "--config requires a path".to_string())?;
                cli.config = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: qd-lint [--deny] [--list-rules] [--graph dot] [--config <path>] \
                     [paths...]"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other} (see --help)"))
            }
            path => cli.paths.push(PathBuf::from(path)),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if cli.list_rules {
        print!("{}", rules::render_table());
        return ExitCode::SUCCESS;
    }
    let config_path = cli.config.clone().or_else(|| {
        PathBuf::from("qd-lint.toml")
            .exists()
            .then(|| "qd-lint.toml".into())
    });
    // Stale entry-point globs can only be judged by a scan covering the
    // tree the config describes: the default roots, or explicit paths
    // that contain the config's own directory.
    let whole_tree = cli.paths.is_empty()
        || config_path.as_deref().is_some_and(|config| {
            let dir = config.parent().unwrap_or(std::path::Path::new(""));
            cli.paths.iter().any(|p| dir.starts_with(p))
        });
    let config = match config_path {
        Some(path) => match Config::load(&path) {
            Ok(config) => config,
            Err(e) => {
                eprintln!("qd-lint: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Config::default(),
    };
    let roots: Vec<PathBuf> = if cli.paths.is_empty() {
        ["crates", "src", "examples", "tests"]
            .iter()
            .map(PathBuf::from)
            .filter(|p| p.exists())
            .collect()
    } else {
        cli.paths
    };
    let files = match engine::load_files(&roots, &config) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("qd-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = engine::analyze(&files, &config);
    if cli.graph_dot {
        print!("{}", analysis.graph.to_dot(&analysis.reach));
        return ExitCode::SUCCESS;
    }
    let mut diagnostics = analysis.diagnostics;
    if whole_tree {
        diagnostics.extend(engine::stale_entrypoints(&analysis.graph, &config));
    }
    if diagnostics.is_empty() {
        println!("qd-lint: clean");
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
    }
    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        let n = diagnostics.len();
        if cli.deny {
            eprintln!("qd-lint: {n} violation(s)");
            ExitCode::FAILURE
        } else {
            eprintln!("qd-lint: {n} warning(s)");
            ExitCode::SUCCESS
        }
    }
}
