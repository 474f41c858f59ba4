//! Property tests for the lexer: panic-capable tokens injected into
//! string literals, raw strings, char-adjacent positions and (nested)
//! comments must never produce diagnostics, while the same token in
//! plain code always does. This is the load-bearing property of the
//! whole tool — a lexer that leaks literal contents into "code" would
//! drown the workspace in false positives.

use proptest::prelude::*;
use qd_lint::{analyze, Config, Diagnostic};

/// The tokens panic-safety bans, each with a line of code that uses it.
const BANNED: &[(&str, &str)] = &[
    (".unwrap()", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n"),
    (
        ".expect(",
        "fn f(x: Option<u32>) -> u32 { x.expect(\"some\") }\n",
    ),
    ("panic!", "fn f() { panic!(\"boom\") }\n"),
    ("unreachable!", "fn f() { unreachable!() }\n"),
    ("todo!", "fn f() { todo!() }\n"),
    ("unimplemented!", "fn f() { unimplemented!() }\n"),
    ("bytes[5]", "fn f(bytes: &[u8]) -> u8 { bytes[5] }\n"),
];

/// Every finding on `src` as one file, with panic-safety scoped to
/// every path.
fn findings(src: &str) -> Vec<Diagnostic> {
    analyze(
        &[("crates/core/src/x.rs".to_string(), src.to_string())],
        &Config::default(),
    )
    .diagnostics
}

/// Lowercase letters and spaces, for payload padding.
const LOWER: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', ' ',
];

/// Characters that stress the lexer's literal handling: escapes,
/// quotes, braces (depth tracking) and apostrophes (char/lifetime).
const TRICKY: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', ' ', ' ', '\\',
    '\\', '"', '"', '\'', '\'', '{', '}', '{', '}', 'x', 'y', 'z', ' ',
];

/// Maps generated indices onto a character set (the vendored proptest
/// has no string strategies).
fn from_charset(picks: &[usize], charset: &[char]) -> String {
    picks.iter().map(|&i| charset[i % charset.len()]).collect()
}

/// Wraps `payload` in a non-code context.
fn in_context(kind: usize, payload: &str) -> String {
    match kind {
        0 => format!("fn f() {{ let s = \"{payload}\"; }}\n"),
        1 => format!("fn f() {{ let s = r#\"{payload}\"#; }}\n"),
        2 => format!("fn f() {{}} // {payload}\n"),
        3 => format!("/* {payload} */ fn f() {{}}\n"),
        4 => format!("/* outer /* {payload} */ tail */ fn f() {{}}\n"),
        _ => format!("//! {payload}\nfn f() {{}}\n"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn banned_tokens_in_literals_and_comments_are_invisible(
        which in 0usize..7,
        kind in 0usize..6,
        prefix in proptest::collection::vec(0usize..27, 0..12usize),
        suffix in proptest::collection::vec(0usize..27, 0..12usize),
    ) {
        let (token, _) = BANNED[which];
        let payload = format!(
            "{}{token}{}",
            from_charset(&prefix, LOWER),
            from_charset(&suffix, LOWER)
        );
        let src = in_context(kind, &payload);
        let diags = findings(&src);
        prop_assert!(
            diags.is_empty(),
            "token {token:?} leaked out of context {kind}: {diags:?}\nsource: {src:?}"
        );
    }

    #[test]
    fn the_same_tokens_in_code_are_visible(which in 0usize..7) {
        let (token, src) = BANNED[which];
        let diags = findings(src);
        prop_assert!(
            diags.iter().any(|d| d.rule == "panic-safety"),
            "token {token:?} not caught by panic-safety: {diags:?}"
        );
    }

    #[test]
    fn string_escapes_never_unbalance_the_lexer(
        body in proptest::collection::vec(0usize..32, 0..24usize),
    ) {
        // Arbitrary escape-ridden strings followed by real code: the
        // trailing unwrap must still be seen exactly once.
        let body = from_charset(&body, TRICKY);
        let src = format!(
            "fn f() {{ let s = \"{}\"; x.unwrap() }}\n",
            body.replace('\\', "\\\\").replace('"', "\\\"")
        );
        let diags = findings(&src);
        let unwraps = diags
            .iter()
            .filter(|d| d.rule == "panic-safety")
            .count();
        prop_assert_eq!(unwraps, 1, "source: {:?} diags: {:?}", src, diags);
    }
}
