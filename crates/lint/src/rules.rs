//! The rule registry: six invariant families over lexed source.
//!
//! Each rule is a pure function from a [`LexedFile`] to diagnostics
//! `(line, message)`; scoping (which files a rule sees) and suppression
//! (`// qd-lint: allow(<rule>)`) are the engine's job, so rules stay
//! simple token-level checks. All rules skip `#[cfg(test)]` / `#[test]`
//! regions — the invariants protect production paths, and tests bang on
//! `unwrap()` and wall clocks legitimately.
//!
//! The registry is ordered and rendered by [`render_table`], which the
//! `--list-rules` flag prints and a doc test pins, so the documented
//! rule set cannot drift from the implemented one.

use crate::lexer::{find_token, LexedFile};

/// One rule family: its name (as used in configs and suppressions),
/// where the workspace config scopes it, and the invariant it encodes.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Config / suppression identifier.
    pub name: &'static str,
    /// Human description of the default scope.
    pub scope: &'static str,
    /// The invariant enforced.
    pub invariant: &'static str,
}

/// Every rule family, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "determinism",
        scope: "everywhere except bench / tests / examples",
        invariant: "no wall-clock, unseeded RNG or env reads in simulated paths",
    },
    Rule {
        name: "order-stability",
        scope: "fed / core / serve / unlearn / chaos sources",
        invariant: "no HashMap/HashSet where iteration order feeds aggregation",
    },
    Rule {
        name: "panic-safety",
        scope: "serving scopes + fns reachable from entry points",
        invariant: "no unwrap/expect/panic!/literal indexing in serving paths",
    },
    Rule {
        name: "durability",
        scope: "durable modules, checked across the call graph",
        invariant: "creates/writes paired with fsync (+rename) in the reachable component",
    },
    Rule {
        name: "lock-order",
        scope: "serve sources",
        invariant: "no two locks acquired in inconsistent order along any call path",
    },
    Rule {
        name: "vfs-discipline",
        scope: "core / serve sources outside the Vfs impl",
        invariant: "no direct std::fs calls; all storage I/O goes through qd_core::vfs",
    },
    Rule {
        name: "suppression-hygiene",
        scope: "workspace-wide",
        invariant: "qd-lint: allow(..) must name known rules",
    },
    Rule {
        name: "entrypoint-hygiene",
        scope: "the config, on scans covering its tree",
        invariant: "every [entrypoints] glob matches at least one workspace fn",
    },
    Rule {
        name: "unsafe-hygiene",
        scope: "workspace-wide",
        invariant: "no unsafe code anywhere",
    },
];

/// Whether `name` is a registered rule family.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Renders the rule table exactly as `qd-lint --list-rules` prints it.
///
/// ```
/// let table = qd_lint::rules::render_table();
/// assert_eq!(table.lines().count(), qd_lint::rules::RULES.len() + 1);
/// assert!(table.starts_with("rule                | scope"));
/// ```
pub fn render_table() -> String {
    let mut out = format!("{:<19} | {:<48} | {}\n", "rule", "scope", "invariant");
    for rule in RULES {
        out.push_str(&format!(
            "{:<19} | {:<48} | {}\n",
            rule.name, rule.scope, rule.invariant
        ));
    }
    out
}

/// Runs the rule named `name` over `file`, returning 0-based line
/// numbers with messages. Unknown names return nothing (scoping decides
/// which rules exist; the engine only asks for registered names).
pub fn check(name: &str, file: &LexedFile) -> Vec<(usize, String)> {
    match name {
        "determinism" => check_tokens(
            file,
            &[
                "Instant::now",
                "SystemTime",
                "thread_rng",
                "from_entropy",
                "env::var",
                "env::vars",
                "var_os",
                "rand::random",
                "getrandom",
            ],
            |tok| format!("nondeterministic `{tok}` in a simulated/serving path"),
        ),
        "order-stability" => check_tokens(file, &["HashMap", "HashSet"], |tok| {
            format!("`{tok}` iteration order is unstable; use BTreeMap/BTreeSet")
        }),
        "panic-safety" => check_panic_safety(file),
        "durability" => check_durability(file),
        "vfs-discipline" => check_tokens(
            file,
            &[
                "File::create",
                "File::open",
                "OpenOptions",
                "fs::write",
                "fs::read",
                "fs::read_to_string",
                "fs::rename",
                "fs::remove_file",
                "fs::metadata",
                "read_dir",
            ],
            |tok| format!("direct `{tok}` bypasses the Vfs layer; route I/O through qd_core::vfs"),
        ),
        "unsafe-hygiene" => check_tokens(file, &["unsafe"], |_| {
            "`unsafe` is denied workspace-wide".to_string()
        }),
        "suppression-hygiene" => check_suppression_hygiene(file),
        // lock-order is interprocedural-only: it needs the workspace
        // call graph, so the engine runs it via `crate::interproc`;
        // entrypoint-hygiene judges the config, not a source file
        // (`crate::engine::stale_entrypoints`).
        _ => Vec::new(),
    }
}

/// Every rule name appearing in `qd-lint: allow(..)` groups of a
/// comment, in order.
pub(crate) fn allow_names(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("qd-lint: allow(") {
        let args = &rest[at + "qd-lint: allow(".len()..];
        let Some(end) = args.find(')') else {
            break;
        };
        out.extend(
            args[..end]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string),
        );
        rest = &args[end + 1..];
    }
    out
}

/// Suppression hygiene: an `allow(<rule>)` naming an unknown rule is a
/// hard error, not a silent no-op — a typo in a suppression must not
/// quietly disable nothing while the author believes the finding is
/// covered. Applies to comments everywhere, test regions included.
fn check_suppression_hygiene(file: &LexedFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        for name in allow_names(&line.comment) {
            // Prose that *documents* the protocol writes placeholders —
            // `allow(<rule>)`, `allow(..)` — which are not identifiers
            // and could never have suppressed anything; only
            // identifier-shaped names are typo candidates.
            let ident_shaped = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
            if ident_shaped && !is_rule(&name) {
                out.push((
                    i,
                    format!(
                        "unknown rule `{name}` in suppression; known rules: {}",
                        RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                    ),
                ));
            }
        }
    }
    out
}

/// The panic-capable tokens the panic-safety family bans, shared with
/// the reachability-scoped variant in [`crate::interproc`].
pub(crate) const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Panic-capable tokens present on a blanked code line: each banned
/// token that matches, plus a pseudo-token for literal indexing.
pub(crate) fn panic_tokens_on(code: &str) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = PANIC_TOKENS
        .iter()
        .copied()
        .filter(|tok| find_token(code, tok))
        .collect();
    if has_literal_index(code) {
        out.push("literal indexing");
    }
    out
}

fn check_tokens(
    file: &LexedFile,
    tokens: &[&str],
    message: impl Fn(&str) -> String,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in tokens {
            if find_token(&line.code, tok) {
                out.push((i, message(tok)));
            }
        }
    }
    out
}

fn check_panic_safety(file: &LexedFile) -> Vec<(usize, String)> {
    let mut out = check_tokens(file, PANIC_TOKENS, |tok| {
        format!("`{tok}` can panic in a serving path; return a typed error")
    });
    for (i, line) in file.lines.iter().enumerate() {
        if !line.in_test && has_literal_index(&line.code) {
            out.push((
                i,
                "integer-literal indexing can panic in a serving path; use .get()".to_string(),
            ));
        }
    }
    out.sort_by_key(|&(line, _)| line);
    out
}

/// Detects `expr[<digits>]` — indexing an expression with an integer
/// literal, the lexically recognizable slice-panic shape. Array types
/// (`[u8; 4]`), array literals (`&[0]`) and attribute brackets are not
/// preceded by an expression, so they do not match.
fn has_literal_index(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace());
        let indexes_expr = matches!(
            prev,
            Some(p) if p.is_ascii_alphanumeric() || *p == '_' || *p == ']' || *p == ')'
        );
        if !indexes_expr {
            continue;
        }
        let inner: String = chars[i + 1..].iter().take_while(|&&ch| ch != ']').collect();
        let inner = inner.trim();
        if !inner.is_empty() && inner.chars().all(|ch| ch.is_ascii_digit()) {
            return true;
        }
    }
    false
}

/// Durable-module discipline: every `fn` that calls `File::create` must
/// also fsync (`sync_all`/`sync_data`) and `rename` before returning —
/// the tmp+fsync+rename idiom that makes saves atomic. Checked at
/// function granularity so helper fns that only read are untouched.
fn check_durability(file: &LexedFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || !find_token(&line.code, "File::create") {
            continue;
        }
        let (start, end) = file.enclosing_fn(i).unwrap_or((0, file.lines.len() - 1));
        let body = &file.lines[start..=end];
        let has = |tok: &str| body.iter().any(|l| find_token(&l.code, tok));
        let fsynced = has("sync_all") || has("sync_data");
        let renamed = has("rename");
        if !(fsynced && renamed) {
            let mut missing = Vec::new();
            if !fsynced {
                missing.push("fsync");
            }
            if !renamed {
                missing.push("rename");
            }
            out.push((
                i,
                format!(
                    "`File::create` without the tmp+fsync+rename idiom (missing {}) \
                     in a durable module",
                    missing.join("+")
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn registry_and_table_agree() {
        let table = render_table();
        for rule in RULES {
            assert!(table.contains(rule.name), "table missing {}", rule.name);
        }
        assert_eq!(table.lines().count(), RULES.len() + 1);
    }

    #[test]
    fn literal_indexing_is_detected_conservatively() {
        assert!(has_literal_index("let x = bytes[5];"));
        assert!(has_literal_index("foo()[0]"));
        assert!(has_literal_index("grid[1][2]"));
        assert!(!has_literal_index("let t: [u8; 4] = x;"));
        assert!(!has_literal_index("let a = &[0];"));
        assert!(!has_literal_index("#[derive(Debug)]"));
        assert!(!has_literal_index("let y = map[key];"));
        assert!(!has_literal_index("let z = v[i + 1];"));
    }

    #[test]
    fn vfs_discipline_flags_direct_fs_but_not_prefixed_names() {
        let bad = lex("fn load() {\n let s = std::fs::read_to_string(p)?;\n}\n");
        let diags = check("vfs-discipline", &bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].1.contains("fs::read_to_string"));
        // `fs::read` must not also fire inside `fs::read_to_string`, and
        // Vfs-layer calls share no tokens with std::fs.
        let good =
            lex("fn load() {\n let s = vfs.read(path)?;\n vfs::atomic_write(fs, p, b)?;\n}\n");
        assert!(check("vfs-discipline", &good).is_empty());
    }

    #[test]
    fn durability_checks_at_fn_granularity() {
        let good = lex(
            "fn save() {\n let f = File::create(tmp);\n f.sync_all();\n \
                        fs::rename(tmp, path);\n}\n",
        );
        assert!(check("durability", &good).is_empty());
        let bad = lex("fn save() {\n let f = File::create(path);\n f.write_all(b);\n}\n");
        let diags = check("durability", &bad);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].1.contains("fsync+rename"));
    }
}
