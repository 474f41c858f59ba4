# Prints a Rust file's code lines: every non-blank line that is not a
# `//` comment line and does not belong to a `#[cfg(test)]`-gated item,
# at any indentation. An item runs from its attribute to the `;` that
# ends it before any `{` (`#[cfg(test)] mod naive;`), or to the `}` that
# closes its first `{` (a test module, a test-only fn or impl).
#
#   awk -f scripts/code_lines.awk FILE
#
# The one definition of "code" that scripts/loc.sh counts and
# scripts/check.sh's code_matches greps.

# The line with string and char literals and any trailing comment taken
# out, so that braces and semicolons in them are not counted.
function bare(s) {
    gsub(/\\./, "", s)
    gsub(/"[^"]*"/, "", s)
    gsub(/'[^']'/, "", s)
    sub(/\/\/.*/, "", s)
    return s
}

BEGIN { gated = 0 }

{
    code = bare($0)
    if (!gated && code ~ /^[ \t]*#\[cfg\(test\)\]/) {
        gated = 1
        depth = 0
        opened = 0
        sub(/^[ \t]*#\[cfg\(test\)\]/, "", code)
    }
    if (!gated) {
        if ($0 !~ /^[ \t]*\/\// && $0 !~ /^[ \t]*$/) print
        next
    }
    for (i = 1; i <= length(code) && gated; i++) {
        c = substr(code, i, 1)
        if (c == "{") {
            depth++
            opened = 1
        } else if (c == "}") {
            depth--
            if (opened && depth == 0) gated = 0
        } else if (c == ";" && !opened) {
            gated = 0
        }
    }
}
