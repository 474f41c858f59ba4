//! Orchestration: walk files, apply scoped rules, honor suppressions.
//!
//! The engine owns everything that is not a rule: directory walking
//! (deterministic, sorted order), path scoping from the
//! [`Config`], and the suppression protocol. A finding
//! survives only if no `// qd-lint: allow(<rule>)` annotation covers
//! its line — either on the line itself or in a comment-only line block
//! immediately above it (the shape rustfmt produces for long lines).
//!
//! [`analyze`] lexes every file and parses it into a [`Graph`]; the
//! file-local rules run per file, then the graph-backed rules add
//! reachability-scoped panic-safety, component-wide durability and
//! lock-order findings. Local findings win dedup at a `(path, line,
//! rule)` collision, so path-scoped diagnostics keep their messages and
//! the graph only adds *new* locations.

use crate::config::Config;
use crate::graph::{Graph, Reach};
use crate::interproc;
use crate::items::parse_items;
use crate::lexer::{lex, LexedFile};
use crate::rules::{self, RULES};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// One finding: a rule violated at a file location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as scanned (relative to the invocation root).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's name.
    pub rule: String,
    /// What went wrong.
    pub message: String,
    /// Witness call chain (qualified names, entry first) for
    /// interprocedural findings; empty for local ones.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        if self.chain.len() > 1 {
            write!(f, " [via {}]", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// A full workspace analysis: diagnostics plus the call graph and
/// reachability they were computed against (for `--graph dot`).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All surviving findings, sorted by `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// The linked call graph.
    pub graph: Graph,
    /// Entry-point reachability over `graph`.
    pub reach: Reach,
}

/// Workspace analysis over pre-read `(path, source)` pairs.
///
/// Local rules run per file, then the call graph is built and the
/// graph-backed rules run. Suppressions apply uniformly; at a `(path,
/// line, rule)` collision the local finding wins.
pub fn analyze(files: &[(String, String)], config: &Config) -> Analysis {
    let mut lexed: BTreeMap<String, LexedFile> = BTreeMap::new();
    let mut parsed: Vec<(String, Vec<crate::items::FnItem>)> = Vec::new();
    let mut diagnostics = Vec::new();
    for (path, source) in files {
        if config.is_excluded(path) {
            continue;
        }
        let file = lex(source);
        for rule in RULES {
            if !config.scope(rule.name).applies_to(path) {
                continue;
            }
            for (line0, message) in rules::check(rule.name, &file) {
                if suppressed(&file, line0, rule.name) {
                    continue;
                }
                diagnostics.push(Diagnostic {
                    path: path.clone(),
                    line: line0 + 1,
                    rule: rule.name.to_string(),
                    message,
                    chain: Vec::new(),
                });
            }
        }
        parsed.push((path.clone(), parse_items(path, &file)));
        lexed.insert(path.clone(), file);
    }
    let graph = Graph::build(&parsed);
    let reach = graph.reachability(&config.entrypoints);

    let mut findings =
        interproc::reachable_panics(&graph, &reach, &lexed, &config.scope("panic-safety"));
    findings.extend(interproc::durability(
        &graph,
        &lexed,
        &config.scope("durability"),
    ));
    findings.extend(interproc::lock_order(
        &graph,
        &lexed,
        &config.scope("lock-order"),
    ));

    let mut seen: BTreeSet<(String, usize, String)> = diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule.clone()))
        .collect();
    for f in findings {
        let key = (f.path.clone(), f.line + 1, f.rule.to_string());
        if seen.contains(&key) {
            continue;
        }
        if let Some(file) = lexed.get(&f.path) {
            if suppressed(file, f.line, f.rule) {
                continue;
            }
        }
        seen.insert(key);
        diagnostics.push(Diagnostic {
            path: f.path,
            line: f.line + 1,
            rule: f.rule.to_string(),
            message: f.message,
            chain: f.chain,
        });
    }
    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    Analysis {
        diagnostics,
        graph,
        reach,
    }
}

/// Entry-point hygiene: an `[entrypoints]` glob matching no fn of
/// `graph` is a hard finding against the config line that declares it
/// — like a typo'd `allow(..)`, it would otherwise silently police
/// nothing while its author believes a surface is covered (a module
/// rename is all it takes). Only meaningful when `graph` was built from
/// the whole tree `config` describes; the caller decides that.
pub fn stale_entrypoints(graph: &Graph, config: &Config) -> Vec<Diagnostic> {
    graph
        .unmatched_entrypoints(&config.entrypoints)
        .into_iter()
        .map(|(set, glob)| Diagnostic {
            path: config.source.clone(),
            line: config.entrypoint_lines.get(&set).copied().unwrap_or(0),
            rule: "entrypoint-hygiene".to_string(),
            message: format!(
                "entry-point glob `{glob}` (set `{set}`) matches no fn in the scanned \
                 sources; it seeds no reachability"
            ),
            chain: Vec::new(),
        })
        .collect()
}

/// Whether `rule` is allowed at 0-based `line`: an allow annotation on
/// the line itself, or in the run of comment-only/blank lines directly
/// above it.
fn suppressed(file: &LexedFile, line: usize, rule: &str) -> bool {
    let Some(at) = file.lines.get(line) else {
        return false;
    };
    if allows(&at.comment, rule) {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        let above = &file.lines[i];
        if !above.code.trim().is_empty() {
            return false;
        }
        if allows(&above.comment, rule) {
            return true;
        }
        if above.comment.trim().is_empty() && above.code.trim().is_empty() {
            // Blank lines terminate the annotation block: an allow
            // separated by whitespace does not leak downward.
            return false;
        }
    }
    false
}

/// Whether a comment's `qd-lint: allow(..)` groups name `rule`.
fn allows(comment: &str, rule: &str) -> bool {
    rules::allow_names(comment).iter().any(|r| r == rule)
}

/// Recursively collects `.rs` files under `roots`, sorted for
/// deterministic diagnostics, skipping globally excluded paths.
///
/// # Errors
///
/// Propagates directory-walk I/O errors (permission, racing deletes).
pub fn collect_files(roots: &[PathBuf], config: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for root in roots {
        walk(root, config, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

#[expect(clippy::disallowed_methods, reason = "walks the tree it lints")]
fn walk(path: &Path, config: &Config, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let rel = rel_str(path);
    if config.is_excluded(&rel) {
        return Ok(());
    }
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            walk(&entry, config, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// `/`-separated relative-ish path string for glob matching.
fn rel_str(path: &Path) -> String {
    let s = path.to_string_lossy().replace('\\', "/");
    s.trim_start_matches("./").to_string()
}

/// Reads every `.rs` file under `roots` into `(relative path, source)`
/// pairs in deterministic order, skipping excluded paths.
///
/// # Errors
///
/// Propagates file-read and directory-walk I/O errors.
pub fn load_files(roots: &[PathBuf], config: &Config) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for file in collect_files(roots, config)? {
        #[expect(clippy::disallowed_methods, reason = "reads the tree it lints")]
        let source = std::fs::read_to_string(&file)?;
        out.push((rel_str(&file), source));
    }
    Ok(out)
}

/// Runs the full workspace analysis over `roots` with `config`.
///
/// # Errors
///
/// Propagates file-read and directory-walk I/O errors.
pub fn run(roots: &[PathBuf], config: &Config) -> std::io::Result<Vec<Diagnostic>> {
    let files = load_files(roots, config)?;
    Ok(analyze(&files, config).diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn everywhere() -> Config {
        Config::default()
    }

    /// `analyze` over one file.
    fn one_file(path: &str, src: &str, config: &Config) -> Vec<Diagnostic> {
        analyze(&[(path.to_string(), src.to_string())], config).diagnostics
    }

    #[test]
    fn same_line_and_preceding_line_suppressions_work() {
        let src = "\
fn f() {
    let a = x.unwrap(); // qd-lint: allow(panic-safety) -- invariant: x is Some
    // qd-lint: allow(panic-safety) -- justified above
    let b = y.unwrap();
    let c = z.unwrap();
}
";
        let diags = one_file("crates/core/src/x.rs", src, &everywhere());
        let panics: Vec<_> = diags.iter().filter(|d| d.rule == "panic-safety").collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].line, 5);
    }

    #[test]
    fn blank_lines_break_suppression_blocks() {
        let src = "\
// qd-lint: allow(panic-safety)

fn f() { x.unwrap(); }
";
        let diags = one_file("a.rs", src, &everywhere());
        assert_eq!(diags.iter().filter(|d| d.rule == "panic-safety").count(), 1);
    }

    #[test]
    fn excluded_paths_produce_nothing() {
        let mut config = everywhere();
        config.exclude.push("vendor/**".into());
        let diags = one_file("vendor/x/lib.rs", "fn f() { x.unwrap(); }", &config);
        assert!(diags.is_empty());
    }

    #[test]
    fn multiple_allows_in_one_comment() {
        let src = "fn save() {\n    let f = File::create(p).unwrap(); // qd-lint: \
                   allow(panic-safety, durability)\n}\n";
        let diags = one_file("a.rs", src, &everywhere());
        assert!(diags.is_empty(), "{diags:?}");
        let unsuppressed = src.replace("panic-safety, durability", "durability");
        let diags = one_file("a.rs", &unsuppressed, &everywhere());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "panic-safety");
    }

    #[test]
    fn durability_checks_at_fn_granularity() {
        let good = "fn save() {\n let f = File::create(tmp);\n f.sync_all();\n \
                    fs::rename(tmp, path);\n}\n";
        assert!(one_file("a.rs", good, &everywhere()).is_empty());
        // An fsync and a rename in a fn that `save` neither calls nor is
        // called by do not count.
        let bad = "fn save() {\n let f = File::create(path);\n f.write_all(b);\n}\n\
                   fn elsewhere() {\n g.sync_all();\n fs::rename(a, b);\n}\n";
        let diags = one_file("a.rs", bad, &everywhere());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].rule.as_str()), (2, "durability"));
        assert!(
            diags[0].message.contains("fsync+rename"),
            "{}",
            diags[0].message
        );
    }

    fn serving_config() -> Config {
        Config::parse(
            "[entrypoints]\nserving = [\"**::entry::serve\"]\n\
             [rules.panic-safety]\ninclude = [\"crates/a/src/**\"]\n\
             [rules.lock-order]\ninclude = [\"**/locks/**\"]\n",
        )
        .expect("test config parses")
    }

    #[test]
    fn analyze_reports_reachable_panics_with_chains() {
        let files = vec![
            (
                "crates/a/src/entry.rs".to_string(),
                "pub fn serve() { helper_mid(); }\n".to_string(),
            ),
            (
                "crates/b/src/helpers.rs".to_string(),
                "pub fn helper_mid() { helper_leaf(); }\n\
                 pub fn helper_leaf() -> u32 { maybe().unwrap() }\n\
                 pub fn cold_leaf() -> u32 { maybe().unwrap() }\n"
                    .to_string(),
            ),
        ];
        let analysis = analyze(&files, &serving_config());
        let panics: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.rule == "panic-safety")
            .collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].path, "crates/b/src/helpers.rs");
        assert_eq!(panics[0].line, 2);
        assert_eq!(
            panics[0].chain,
            [
                "qd_a::entry::serve",
                "qd_b::helpers::helper_mid",
                "qd_b::helpers::helper_leaf"
            ]
        );
        let shown = panics[0].to_string();
        assert!(shown.contains("[via qd_a::entry::serve -> "), "{shown}");
    }

    #[test]
    fn analyze_respects_suppressions_on_reachable_lines() {
        let files = vec![
            (
                "crates/a/src/entry.rs".to_string(),
                "pub fn serve() { helper_leaf(); }\n".to_string(),
            ),
            (
                "crates/b/src/helpers.rs".to_string(),
                "pub fn helper_leaf() -> u32 {\n    \
                 // qd-lint: allow(panic-safety) -- fixture invariant\n    \
                 maybe().unwrap()\n}\n"
                    .to_string(),
            ),
        ];
        let analysis = analyze(&files, &serving_config());
        assert!(
            analysis
                .diagnostics
                .iter()
                .all(|d| d.rule != "panic-safety"),
            "{:?}",
            analysis.diagnostics
        );
    }

    #[test]
    fn analyze_flags_inverted_lock_order_in_both_fns() {
        let files = vec![(
            "crates/a/src/locks/order.rs".to_string(),
            "pub fn forward(s: &S) {\n    \
             let a = s.alpha.lock();\n    \
             let b = s.beta.lock();\n}\n\
             pub fn backward(s: &S) {\n    \
             let b = s.beta.lock();\n    \
             let a = s.alpha.lock();\n}\n"
                .to_string(),
        )];
        let analysis = analyze(&files, &serving_config());
        let locks: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.rule == "lock-order")
            .collect();
        assert_eq!(locks.len(), 2, "{locks:?}");
        assert_eq!(locks[0].line, 3);
        assert_eq!(locks[1].line, 7);
        assert!(
            locks[0].message.contains("opposite order"),
            "{}",
            locks[0].message
        );
    }

    #[test]
    fn analyze_durability_satisfied_across_functions() {
        let good = vec![(
            "crates/a/src/checkpoint.rs".to_string(),
            "pub fn save() {\n    let f = File::create(tmp);\n    finish(f);\n}\n\
             fn finish(f: File) {\n    f.sync_all();\n    fs::rename(tmp, dst);\n}\n"
                .to_string(),
        )];
        let mut config = serving_config();
        config
            .rule_scopes
            .entry("durability".into())
            .or_default()
            .include
            .push("**/checkpoint.rs".into());
        let analysis = analyze(&good, &config);
        assert!(
            analysis.diagnostics.iter().all(|d| d.rule != "durability"),
            "{:?}",
            analysis.diagnostics
        );
        let bad = vec![(
            "crates/a/src/checkpoint.rs".to_string(),
            "pub fn save() {\n    let f = File::create(tmp);\n    finish(f);\n}\n\
             fn finish(f: File) {\n    f.sync_all();\n}\n"
                .to_string(),
        )];
        let analysis = analyze(&bad, &config);
        let dur: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.rule == "durability")
            .collect();
        assert_eq!(dur.len(), 1, "{dur:?}");
        assert_eq!(dur[0].line, 2);
        assert!(
            dur[0].message.contains("missing rename"),
            "{}",
            dur[0].message
        );
    }
}
