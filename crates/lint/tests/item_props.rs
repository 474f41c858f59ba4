//! Edge-case and property tests for the item parser and the lexer
//! behaviors it leans on: lifetimes vs. char literals, `fn` keywords
//! inside macro bodies, nested generic angle brackets — plus the
//! load-bearing property that `parse_items` never panics, checked
//! against arbitrary token soup *and* every `.rs` file in this
//! workspace.

#![allow(
    clippy::disallowed_methods,
    reason = "the test reads the workspace's sources"
)]

use proptest::prelude::*;
use qd_lint::items::parse_items;
use qd_lint::lexer::lex;

fn items_of(src: &str) -> Vec<qd_lint::items::FnItem> {
    parse_items("crates/serve/src/pool.rs", &lex(src))
}

#[test]
fn lifetimes_are_not_char_literals() {
    // `'a` (lifetime) must not open a char literal that would swallow
    // the following tokens; `'a'` (char) must stay blanked.
    let src = "\
fn borrow<'a>(x: &'a str) -> &'a str {
    helper(x)
}
fn with_char() -> char {
    let c = 'a';
    other_helper();
    c
}
";
    let items = items_of(src);
    let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names, ["borrow", "with_char"]);
    assert_eq!(items[0].calls.len(), 1);
    assert_eq!(items[0].calls[0].name, "helper");
    assert!(items[1].calls.iter().any(|c| c.name == "other_helper"));
}

#[test]
fn fn_keyword_inside_macro_bodies_opens_no_item() {
    let src = "\
macro_rules! make_accessor {
    ($name:ident) => {
        fn $name(&self) -> u32 { self.0 }
    };
}
fn outer() {
    assert_eq!(compute(), 4);
}
";
    let items = items_of(src);
    let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names, ["outer"], "{items:?}");
    // Calls inside argument-position macro bodies are still attributed.
    assert!(items[0].calls.iter().any(|c| c.name == "compute"));
}

#[test]
fn nested_generic_angle_brackets_do_not_derail_signatures() {
    let src = "\
fn deep<T: Into<Vec<Box<dyn Fn(u8) -> Option<u32>>>>>(t: T) -> Result<(), E> {
    go(t)
}
fn after() {}
";
    let items = items_of(src);
    let names: Vec<&str> = items.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names, ["deep", "after"]);
    assert_eq!(items[0].calls.len(), 1);
    assert_eq!(items[0].calls[0].name, "go");
}

#[test]
fn parser_never_panics_on_any_workspace_file() {
    // Walk the real workspace: every source file this repo contains
    // must parse without panicking, and every parsed item must have a
    // sane span.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/lint has a workspace root")
        .to_path_buf();
    let mut stack = vec![root.clone()];
    let mut seen = 0usize;
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let Ok(source) = std::fs::read_to_string(&path) else {
                    continue;
                };
                let rel = path.strip_prefix(&root).unwrap_or(&path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                let file = lex(&source);
                for item in parse_items(&rel, &file) {
                    assert!(
                        item.start <= item.end && item.end < file.lines.len(),
                        "bad span for {} in {rel}",
                        item.qualified
                    );
                }
                seen += 1;
            }
        }
    }
    assert!(seen > 50, "workspace walk found only {seen} files");
}

/// Token soup alphabet: everything that stresses the parser's state
/// machines — delimiters, `fn`/`impl`/`mod` keywords, `#`, `!`, `'`.
const SOUP: &[&str] = &[
    "fn",
    "impl",
    "mod",
    "trait",
    "where",
    "macro_rules",
    "f",
    "g",
    "'a",
    "'a'",
    "#",
    "!",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "::",
    ".",
    ";",
    ",",
    "->",
    "=>",
    "&",
    "0",
    "x",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_items_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..29, 0..64usize),
    ) {
        let src: String = picks
            .iter()
            .map(|&i| SOUP[i % SOUP.len()])
            .collect::<Vec<_>>()
            .join(" ");
        // Must not panic, whatever the soup decodes to.
        let items = parse_items("crates/serve/src/pool.rs", &lex(&src));
        for item in items {
            prop_assert!(item.start <= item.end);
        }
    }
}
