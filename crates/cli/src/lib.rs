//! Library backing the `quickdrop-cli` binary: argument parsing and the
//! four subcommands (`train`, `unlearn`, `relearn`, `show`, `eval`).
//!
//! The CLI operates on [`qd_core::Checkpoint`] files: `train` produces
//! one; every other subcommand loads it, acts, and (for mutations) writes
//! it back. Datasets are procedural and seed-deterministic, so a
//! checkpoint plus the original `--dataset`/`--seed` pair fully
//! reproduces a deployment.
//!
//! Argument parsing is hand-rolled (`--key value` pairs after a
//! subcommand) to keep the dependency set minimal.

#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Args, ParseError};
pub use commands::{run, CliError};

/// The usage text, for the binary's error paths.
pub fn commands_usage() -> &'static str {
    commands::USAGE
}
