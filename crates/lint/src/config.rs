//! `qd-lint.toml` parsing and path-scope matching.
//!
//! The analyzer stays dependency-free, so this module implements the
//! small TOML subset the config actually uses — tables, string values,
//! and single-line string arrays — rather than pulling in a parser:
//!
//! ```toml
//! [lint]
//! exclude = ["vendor/**", "target/**"]
//!
//! [rules.panic-safety]
//! include = ["crates/core/src/**", "crates/net/src/**"]
//! exclude = ["crates/core/src/bin/**"]
//! ```
//!
//! Scopes are glob patterns over `/`-separated relative paths: `*`
//! matches within one path segment, `**` matches any number of
//! segments. A rule with no `include` patterns applies everywhere; the
//! top-level `[lint] exclude` list removes files from every rule.

use crate::rules::{is_rule, known_rules};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A rule's path scope: where it applies.
#[derive(Debug, Clone, Default)]
pub struct RuleScope {
    /// Globs a path must match (empty means "everywhere").
    pub include: Vec<String>,
    /// Globs that remove otherwise-included paths.
    pub exclude: Vec<String>,
}

impl RuleScope {
    /// Whether `path` (relative, `/`-separated) is in scope.
    pub fn applies_to(&self, path: &str) -> bool {
        let included = self.include.is_empty() || self.include.iter().any(|g| glob_match(g, path));
        included && !self.exclude.iter().any(|g| glob_match(g, path))
    }
}

/// Parsed analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files no rule ever sees (vendored code, build output, fixtures).
    pub exclude: Vec<String>,
    /// Per-rule scopes, keyed by rule name. Rules absent from the map
    /// apply everywhere.
    pub rule_scopes: BTreeMap<String, RuleScope>,
    /// Named entry-point sets from `[entrypoints]`: set name to
    /// `::`-glob patterns over qualified function names, e.g.
    /// `serving = ["qd_serve::executor::run_service*"]`. Reachability
    /// rules start their traversal here.
    pub entrypoints: BTreeMap<String, Vec<String>>,
    /// 1-based config line of each `[entrypoints]` set, for findings
    /// about the globs themselves.
    pub entrypoint_lines: BTreeMap<String, usize>,
    /// The file this config was loaded from (empty when parsed from
    /// text), echoed into findings about the config itself.
    pub source: String,
}

impl Config {
    /// Whether `path` is excluded from analysis entirely.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|g| glob_match(g, path))
    }

    /// The scope for `rule` (the everywhere-scope when unconfigured).
    pub fn scope(&self, rule: &str) -> RuleScope {
        self.rule_scopes.get(rule).cloned().unwrap_or_default()
    }

    /// Parses the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending line for anything
    /// outside the supported subset, and for a `[rules.<name>]` table
    /// whose name is no rule: like a typo'd `allow(..)`, it would
    /// otherwise scope nothing while its author believes it does.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| ConfigError {
                line: lineno + 1,
                msg: msg.to_string(),
            };
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| err("unterminated section header"))?;
                match header.strip_prefix("rules.") {
                    Some(rule) if !is_rule(rule) => {
                        return Err(err(&format!(
                            "unknown rule `{rule}`; known rules: {}",
                            known_rules()
                        )))
                    }
                    None if header != "lint" && header != "entrypoints" => {
                        return Err(err("expected [lint], [entrypoints] or [rules.<name>]"))
                    }
                    _ => {}
                }
                section = Some(header.to_string());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected key = value"))?;
            let (key, value) = (key.trim(), value.trim());
            let values = parse_string_array(value)
                .ok_or_else(|| err("expected a string or a single-line array of strings"))?;
            match section.as_deref() {
                Some("lint") => match key {
                    "exclude" => config.exclude.extend(values),
                    _ => return Err(err("unknown [lint] key (expected exclude)")),
                },
                Some("entrypoints") => {
                    config
                        .entrypoints
                        .entry(key.to_string())
                        .or_default()
                        .extend(values);
                    config.entrypoint_lines.insert(key.to_string(), lineno + 1);
                }
                Some(section) => {
                    let rule = section.trim_start_matches("rules.").to_string();
                    let scope = config.rule_scopes.entry(rule).or_default();
                    match key {
                        "include" => scope.include.extend(values),
                        "exclude" => scope.exclude.extend(values),
                        _ => return Err(err("unknown rule key (expected include/exclude)")),
                    }
                }
                None => return Err(err("key outside any section")),
            }
        }
        Ok(config)
    }

    /// Loads and parses a config file.
    ///
    /// # Errors
    ///
    /// I/O errors reading `path`, plus any [`ConfigError`] from parsing
    /// (converted to [`std::io::ErrorKind::InvalidData`]).
    pub fn load(path: &Path) -> std::io::Result<Config> {
        #[expect(clippy::disallowed_methods, reason = "the linter's own config")]
        let text = std::fs::read_to_string(path)?;
        let mut config = Config::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        config.source = path.to_string_lossy().replace('\\', "/");
        Ok(config)
    }
}

/// A config line outside the supported TOML subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"a"` or `["a", "b"]` into the list of strings.
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = match value.strip_prefix('[') {
        Some(rest) => rest.strip_suffix(']')?.trim(),
        None => return parse_string(value).map(|s| vec![s]),
    };
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

fn parse_string(value: &str) -> Option<String> {
    value
        .strip_prefix('"')?
        .strip_suffix('"')
        .map(str::to_string)
}

/// Glob match over `/`-separated paths: `**` spans segments, `*` spans
/// within a segment.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

/// Glob match over `::`-separated qualified names, with the same
/// semantics as [`glob_match`]: `**` spans segments, `*` spans within a
/// segment. Used for `[entrypoints]` patterns.
pub fn name_glob_match(pattern: &str, name: &str) -> bool {
    let pat: Vec<&str> = pattern.split("::").collect();
    let segs: Vec<&str> = name.split("::").collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            match_segments(&pat[1..], segs) || (!segs.is_empty() && match_segments(pat, &segs[1..]))
        }
        Some(p) => {
            !segs.is_empty()
                && match_one(p.as_bytes(), segs[0].as_bytes())
                && match_segments(&pat[1..], &segs[1..])
        }
    }
}

fn match_one(pat: &[u8], seg: &[u8]) -> bool {
    match pat.first() {
        None => seg.is_empty(),
        Some(b'*') => match_one(&pat[1..], seg) || (!seg.is_empty() && match_one(pat, &seg[1..])),
        Some(&c) => seg.first() == Some(&c) && match_one(&pat[1..], &seg[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs_match_segments_and_spans() {
        assert!(glob_match("crates/fed/src/**", "crates/fed/src/faults.rs"));
        assert!(glob_match("**/tests/**", "crates/net/tests/codec_props.rs"));
        assert!(glob_match("**/journal*.rs", "crates/core/src/journal.rs"));
        assert!(glob_match("vendor/**", "vendor/rand/src/lib.rs"));
        assert!(!glob_match("crates/fed/src/**", "crates/net/src/sim.rs"));
        assert!(!glob_match("**/tests/**", "crates/net/src/tests_helper.rs"));
        assert!(glob_match("src/*.rs", "src/lib.rs"));
        assert!(!glob_match("src/*.rs", "src/deep/lib.rs"));
    }

    #[test]
    fn config_parses_sections_scopes_and_comments() {
        let text = r##"
# workspace config
[lint]
exclude = ["vendor/**", "target/**"] # build output

[rules.panic-safety]
include = ["crates/core/src/**"]
exclude = ["crates/core/src/bin/**"]

[rules.lock-order]
"##;
        let c = Config::parse(text).unwrap();
        assert!(c.is_excluded("vendor/rand/src/lib.rs"));
        assert!(!c.is_excluded("crates/core/src/lib.rs"));
        let scope = c.scope("panic-safety");
        assert!(scope.applies_to("crates/core/src/system.rs"));
        assert!(!scope.applies_to("crates/core/src/bin/tool.rs"));
        assert!(!scope.applies_to("crates/net/src/sim.rs"));
        // Unscoped rules apply everywhere.
        assert!(c.scope("lock-order").applies_to("anything/at/all.rs"));
        assert!(c.scope("never-mentioned").applies_to("anything/at/all.rs"));
    }

    #[test]
    fn entrypoints_parse_and_name_globs_match() {
        let text = r#"
[entrypoints]
serving = ["qd_serve::executor::run_service*", "qd_core::journal::**", "qd_core::lifecycle::**"]
admin = ["**::admin::main"]
"#;
        let c = Config::parse(text).unwrap();
        assert_eq!(c.entrypoints.len(), 2);
        assert_eq!(c.entrypoint_lines["serving"], 3);
        assert_eq!(c.entrypoint_lines["admin"], 4);
        let serving = &c.entrypoints["serving"];
        assert!(name_glob_match(
            &serving[0],
            "qd_serve::executor::run_service_isolated"
        ));
        assert!(!name_glob_match(
            &serving[0],
            "qd_serve::plan::run_service_isolated"
        ));
        assert!(name_glob_match(
            &serving[1],
            "qd_core::journal::RequestJournal::append_all"
        ));
        assert!(name_glob_match(
            &serving[2],
            "qd_core::lifecycle::QuickDrop::serve_batch_journaled"
        ));
        assert!(!name_glob_match(
            &serving[1],
            "qd_core::lifecycle::QuickDrop::serve_batch_journaled"
        ));
        assert!(!name_glob_match(&serving[1], "qd_core::checkpoint::save"));
        assert!(name_glob_match(
            &c.entrypoints["admin"][0],
            "fixtures::graph::admin::main"
        ));
    }

    #[test]
    fn malformed_configs_name_the_line() {
        for bad in [
            "key_outside = \"x\"",
            "[lint]\nnope = \"x\"",
            "[weird]\n",
            "[rules.durability]\ninclude = [unquoted]",
            "[rules.durability\ninclude = []",
        ] {
            let err = Config::parse(bad).unwrap_err();
            assert!(err.line >= 1, "{err}");
        }
    }

    #[test]
    fn a_table_for_no_rule_is_refused_at_its_line() {
        let text = "[rules.panic-safety]\ninclude = [\"a/**\"]\n\n[rules.determinism]\n";
        let err = Config::parse(text).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.msg.contains("unknown rule `determinism`"), "{err}");
        assert!(err.msg.contains("panic-safety, durability"), "{err}");
    }
}
