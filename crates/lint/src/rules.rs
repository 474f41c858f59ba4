//! The rule registry: five invariant families over lexed source.
//!
//! Two of them are checked one file at a time here: the path-scoped
//! half of panic-safety and suppression-hygiene. Each is a pure function
//! from a [`LexedFile`] to diagnostics `(line, message)`; scoping (which
//! files a rule sees) and suppression (`// qd-lint: allow(<rule>)`) are
//! the engine's job. Panic-safety skips `#[cfg(test)]` / `#[test]`
//! regions — the invariant protects production paths, and tests bang on
//! `unwrap()` legitimately. Durability and lock-order need the call
//! graph ([`crate::interproc`]), and entrypoint-hygiene judges the config
//! ([`crate::engine::stale_entrypoints`]).
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
        name: "suppression-hygiene",
        scope: "workspace-wide",
        invariant: "qd-lint: allow(..) must name known rules",
    },
    Rule {
        name: "entrypoint-hygiene",
        scope: "the config, on scans covering its tree",
        invariant: "every [entrypoints] glob matches at least one workspace fn",
    },
];

/// Whether `name` is a registered rule family.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// The registered rule names, comma-separated, for findings about a
/// name that is none of them.
pub(crate) fn known_rules() -> String {
    RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
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

/// Runs the file-local half of the rule named `name` over `file`,
/// returning 0-based line numbers with messages. The graph-backed and
/// config rules have no file-local half and return nothing.
pub fn check(name: &str, file: &LexedFile) -> Vec<(usize, String)> {
    match name {
        "panic-safety" => check_panic_safety(file),
        "suppression-hygiene" => check_suppression_hygiene(file),
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
                        known_rules()
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

fn check_panic_safety(file: &LexedFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in panic_tokens_on(&line.code) {
            out.push((
                i,
                if tok == "literal indexing" {
                    "integer-literal indexing can panic in a serving path; use .get()".to_string()
                } else {
                    format!("`{tok}` can panic in a serving path; return a typed error")
                },
            ));
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
