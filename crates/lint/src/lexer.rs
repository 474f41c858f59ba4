//! A lightweight Rust lexer for line-oriented static analysis.
//!
//! The rule engine never needs a full parse tree — every invariant it
//! checks is a statement about *tokens in executable code*. What it does
//! need, and what naive `grep`-style scanning gets wrong, is to know
//! which bytes of a source file are code at all. This lexer classifies
//! each line into:
//!
//! * **code** — the line's source with string literals, character
//!   literals and comments blanked out, so token searches cannot match
//!   inside `"thread_rng"` or `// unwrap()`;
//! * **comment** — the comment text of the line, searched only for
//!   `qd-lint: allow(...)` suppression annotations;
//! * **test membership** — whether the line sits inside a
//!   `#[cfg(test)]` or `#[test]` item, so rules scoped to production
//!   code skip test modules without needing per-directory layout rules.
//!
//! The lexer understands the token shapes that matter for not
//! mis-classifying bytes: nested block comments, string escapes, raw
//! strings with arbitrary `#` fencing, byte strings, and the
//! char-literal/lifetime ambiguity (`'a'` vs `<'a>`).

/// One source line, classified.
#[derive(Debug, Clone, Default)]
pub struct LexedLine {
    /// Source text with strings, chars and comments blanked out.
    pub code: String,
    /// Comment text (line and block) appearing on this line.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` or `#[test]` item.
    pub in_test: bool,
}

/// A fully classified source file.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// The file's lines in order.
    pub lines: Vec<LexedLine>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Classifies `src` line by line. Never fails: unterminated literals or
/// comments simply classify the remainder of the file as non-code,
/// which is the conservative direction for every rule.
pub fn lex(src: &str) -> LexedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<LexedLine> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0;

    let flush = |code: &mut String, comment: &mut String, lines: &mut Vec<LexedLine>| {
        lines.push(LexedLine {
            code: std::mem::take(code),
            comment: std::mem::take(comment),
            in_test: false,
        });
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            flush(&mut code, &mut comment, &mut lines);
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    i += 1;
                } else if is_raw_string_start(&chars, i) {
                    // r"..." / r#"..."# / br#"..."# — count the fencing
                    // hashes between the prefix and the opening quote.
                    let mut j = i;
                    while chars[j] != '#' && chars[j] != '"' {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    state = State::RawStr(hashes);
                    i = j + 1; // past the opening quote
                } else if c == '\'' && (i == 0 || !is_word(chars[i - 1])) {
                    // Char literal or lifetime. A lifetime is `'` followed
                    // by an identifier with no closing quote right after.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to the closing quote.
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' {
                            i += if chars[i] == '\\' { 2 } else { 1 };
                        }
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        i += 3; // plain char literal like 'a'
                    } else {
                        code.push('\''); // lifetime
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped character — except a line
                    // continuation (`\` + newline), whose newline must
                    // still flush the line or every later diagnostic
                    // would be off by one.
                    i += if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                } else {
                    if c == '"' {
                        state = State::Code;
                    }
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&chars, i, hashes) {
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        flush(&mut code, &mut comment, &mut lines);
    }

    let mut file = LexedFile { lines };
    mark_test_regions(&mut file);
    file
}

/// True when the raw-string prefix `r`/`br` starts at `chars[i]` and is
/// not the tail of a longer identifier (`attr"x"` is not a raw string).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 && is_word(chars[i - 1]) {
        return false;
    }
    let rest = &chars[i..];
    let after_prefix = match rest {
        ['r', ..] => &rest[1..],
        ['b', 'r', ..] => &rest[2..],
        _ => return false,
    };
    let mut j = 0;
    while after_prefix.get(j) == Some(&'#') {
        j += 1;
    }
    after_prefix.get(j) == Some(&'"')
}

/// True when the `"` at `chars[i]` is followed by `hashes` fence hashes.
fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Second pass over the blanked code: brace-depth tracking to mark
/// `#[cfg(test)]` / `#[test]` item bodies.
fn mark_test_regions(file: &mut LexedFile) {
    let mut depth: u32 = 0;
    // Sliding window of recent non-whitespace code chars, for attribute
    // detection without a token stream.
    let mut window = String::new();
    let mut pending_test = false;
    let mut test_stack: Vec<u32> = Vec::new();

    for line in &mut file.lines {
        let mut line_in_test = !test_stack.is_empty();
        for c in line.code.chars() {
            if c.is_whitespace() {
                continue;
            }
            window.push(c);
            if window.len() > 16 {
                let cut = window.len() - 16;
                window.drain(..cut);
            }
            if window.ends_with("#[cfg(test") || window.ends_with("#[test]") {
                pending_test = true;
            }
            match c {
                '{' => {
                    depth += 1;
                    if pending_test {
                        test_stack.push(depth);
                        pending_test = false;
                        line_in_test = true;
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => {
                    // A `;` before any `{` ends the item the pending
                    // attribute belonged to (`#[cfg(test)] use x;`).
                    pending_test = false;
                }
                _ => {}
            }
        }
        line.in_test = line_in_test || !test_stack.is_empty();
    }
}

/// Finds `needle` in `haystack` at identifier boundaries: the characters
/// on either side of the match must not be word characters. Needles may
/// themselves contain punctuation (`Instant::now`, `.unwrap()`).
pub fn find_token(haystack: &str, needle: &str) -> bool {
    let h: Vec<char> = haystack.chars().collect();
    let n: Vec<char> = needle.chars().collect();
    if n.is_empty() || h.len() < n.len() {
        return false;
    }
    for start in 0..=(h.len() - n.len()) {
        if h[start..start + n.len()] != n[..] {
            continue;
        }
        let left_ok = start == 0 || !is_word(h[start - 1]) || !is_word(n[0]);
        let end = start + n.len();
        let right_ok = end == h.len() || !is_word(h[end]) || !is_word(n[n.len() - 1]);
        if left_ok && right_ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = lex("let x = \"unsafe unwrap()\"; // thread_rng\nlet y = 1;\n");
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains("thread_rng"));
        assert_eq!(f.lines[1].code.trim(), "let y = 1;");
    }

    #[test]
    fn string_line_continuations_keep_line_numbers() {
        let f = lex("let s = \"first \\\n    second\";\nx.unwrap();\n");
        assert_eq!(f.lines.len(), 3, "continuation must not swallow a line");
        assert!(f.lines[2].code.contains(".unwrap()"));
    }

    #[test]
    fn nested_block_comments_end_correctly() {
        let f = lex("/* a /* b */ still comment */ let z = unsafe_token;\n");
        assert!(f.lines[0].code.contains("unsafe_token"));
        assert!(f.lines[0].comment.contains("still comment"));
    }

    #[test]
    fn raw_strings_with_hashes_are_skipped() {
        let f = lex("let p = r#\"panic!(\"inner\")\"#; let q = 2;\n");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("let q = 2;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x'; let n = '\\n';\n");
        assert!(f.lines[0].code.contains("fn f<'a>"));
        assert!(!f.lines[1].code.contains('x'));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "\
fn real() { body(); }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
fn after() {}
";
        let f = lex(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn token_search_respects_word_boundaries() {
        assert!(find_token("let x = unsafe { 1 };", "unsafe"));
        assert!(!find_token("let unsafe_ish = 1;", "unsafe"));
        assert!(find_token("std::env::var(\"X\")", "env::var"));
        assert!(!find_token("my_senv::var(1)", "env::var"));
    }
}
