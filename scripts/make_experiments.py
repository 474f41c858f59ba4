#!/usr/bin/env python3
"""Regenerates the measured-results sections of EXPERIMENTS.md from
bench_output.txt (run `cargo bench --workspace 2>&1 | tee bench_output.txt`
first). The hand-written preamble of EXPERIMENTS.md (everything above the
generated-sections marker) is preserved."""

import sys

MARKER = "<!-- GENERATED SECTIONS BELOW — do not edit by hand -->"

SECTIONS = [
    ("Table 1", "table1", "=== Table 1"),
    ("Table 2", "table2", "=== Table 2"),
    ("Table 3", "table3", "=== Table 3"),
    ("Table 4", "table4", "=== Table 4"),
    ("Table 5", "table5", "=== Table 5"),
    ("Table 6", "table6", "=== Table 6"),
    ("Figure 2", "fig2", "=== Figure 2"),
    ("Figure 3", "fig3", "=== Figure 3"),
    ("Figure 4", "fig4", "=== Figure 4"),
    ("Figure 5", "fig5", "=== Figure 5"),
    ("Figure 6", "fig6", "=== Figure 6"),
    ("Design ablations", "ablations", "=== Ablations"),
]


def extract(text: str, start_marker: str) -> str:
    """Everything from the section banner to the end of its paper
    reference block (or the next 'Running'/banner line)."""
    start = text.find(start_marker)
    if start == -1:
        return "(section missing from bench_output.txt — rerun cargo bench)\n"
    rest = text[start:]
    lines = rest.splitlines()
    out = []
    in_ref = False
    for line in lines:
        if line.startswith("     Running") and out:
            break
        if line.startswith("===") and out:
            break
        if line.startswith("--- paper reference"):
            in_ref = True
        out.append(line.rstrip())
        if in_ref and line.strip() == "" and len(out) > 3:
            break
    return "\n".join(out).rstrip() + "\n"


def main() -> None:
    bench = open("bench_output.txt", encoding="utf-8", errors="replace").read()
    doc = open("EXPERIMENTS.md", encoding="utf-8").read()
    head = doc.split(MARKER)[0].rstrip()
    parts = [head, "", MARKER, ""]
    for title, bench_name, banner in SECTIONS:
        parts.append(f"## {title}")
        parts.append("")
        parts.append(f"Regenerate: `cargo bench -p qd-bench --bench {bench_name}`")
        parts.append("")
        parts.append("```text")
        parts.append(extract(bench, banner).rstrip())
        parts.append("```")
        parts.append("")
    open("EXPERIMENTS.md", "w", encoding="utf-8").write("\n".join(parts))
    print("EXPERIMENTS.md regenerated")


if __name__ == "__main__":
    sys.exit(main())
