//! `qd-lint` — the workspace static analyzer for the invariants that
//! need QuickDrop's call graph.
//!
//! # What it checks, and what it leaves to clippy
//!
//! The workspace's headline properties — bit-for-bit kill-and-resume,
//! deterministic simulation, guarded rollback — rest on invariants the
//! Rust compiler cannot see. The ones a resolved path decides are
//! checked by rustc and clippy (DESIGN.md §5g): the root `clippy.toml`
//! bans wall-clock and environment reads, direct `std::fs` calls outside
//! the Vfs layer, and `HashMap`/`HashSet`; the workspace `[lints]` table
//! forbids `unsafe`. What is left here needs the call graph or is
//! lexical: *no panics in serving paths*, *atomic tmp+fsync+rename for
//! every durable write*, *one global lock order*.
//!
//! The rules run over a [lexer](mod@lexer) that knows enough Rust to
//! never match inside string literals, char literals or (nested)
//! comments, and to skip `#[cfg(test)]` regions. Scoping lives in
//! `qd-lint.toml` ([`Config`]); deliberate exceptions are annotated
//! in-source with `// qd-lint: allow(<rule>) -- <justification>` and
//! reviewed like any other diff line (and a typoed rule name in an
//! `allow` is itself a finding, so suppressions cannot silently rot).
//!
//! # The call graph
//!
//! A token rule sees one file at a time, which made "no panics in
//! serving paths" a *path-glob* property: a helper moved out of
//! `crates/serve` silently left the rule's scope. An
//! [item parser](mod@items) over the same lexer extracts every
//! `fn` (with its impl/trait owner and module path), its calls and its
//! lock acquisitions; [`graph`] links those into a workspace call graph
//! with conservative name-based resolution and computes reachability
//! from the entry-point sets declared in `qd-lint.toml`'s
//! `[entrypoints]` table. [`interproc`] builds three rule families on
//! top: reachability-scoped panic-safety (with the witness call chain
//! in every diagnostic), durability checked across a function's
//! reachable component, and lock-order consistency along call paths.
//! `--graph dot` dumps the graph deterministically.
//!
//! # The rule table
//!
//! This doc test pins the exact `--list-rules` output; if a rule is
//! added, renamed or rescoped, it fails until the table here and the
//! one in `README.md` are updated to match.
//!
//! ```
//! let expected = "\
//! rule                | scope                                            | invariant
//! panic-safety        | serving scopes + fns reachable from entry points | no unwrap/expect/panic!/literal indexing in serving paths
//! durability          | durable modules, checked across the call graph   | creates/writes paired with fsync (+rename) in the reachable component
//! lock-order          | serve sources                                    | no two locks acquired in inconsistent order along any call path
//! suppression-hygiene | workspace-wide                                   | qd-lint: allow(..) must name known rules
//! entrypoint-hygiene  | the config, on scans covering its tree           | every [entrypoints] glob matches at least one workspace fn
//! ";
//! assert_eq!(qd_lint::rules::render_table(), expected);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod graph;
pub mod interproc;
pub mod items;
pub mod lexer;
pub mod rules;

pub use config::Config;
pub use engine::{analyze, Analysis, Diagnostic};
