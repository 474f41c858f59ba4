//! The workspace call graph: linking, entry points, reachability.
//!
//! Built from the per-file items of [`crate::items`], the graph is the
//! substrate for every interprocedural rule. Resolution is
//! **conservative and name-based** — there is no type information, so:
//!
//! * a direct call `helper(..)` links to *every* workspace `fn` named
//!   `helper`;
//! * a qualified call `journal::append(..)` links to every `fn` whose
//!   qualified name ends with those segments (`self`/`crate`/`super`
//!   prefixes are discarded first);
//! * a method call `x.helper(..)` links to every `fn` named `helper`,
//!   regardless of receiver type;
//! * a call that matches no workspace `fn` at all (std, vendored deps)
//!   is recorded as **unresolved** rather than silently dropped — the
//!   DOT dump renders it as a `"?name"` leaf.
//!
//! Over-linking makes reachability a superset of any real execution, so
//! rules built on it err toward reporting; under-linking is confined to
//! shapes the item parser deliberately skips (see its docs).
//!
//! Entry points come from `qd-lint.toml`'s `[entrypoints]` table: named
//! sets of `::`-glob patterns over qualified names. Reachability is a
//! breadth-first traversal from each set's matching functions in
//! deterministic order (sets alphabetically, functions in file/line
//! order), recording a parent edge per reached function so diagnostics
//! can print a shortest witness call chain. `#[cfg(test)]` functions
//! neither seed nor propagate reachability.

use crate::config::name_glob_match;
use crate::items::FnItem;
use std::collections::BTreeMap;

/// One function node: the parsed item plus its owning file.
#[derive(Debug, Clone)]
pub struct Node {
    /// The file the function lives in (config-relative path).
    pub file: String,
    /// The parsed item.
    pub item: FnItem,
}

/// A resolved call edge: which call in the caller, which nodes it may
/// target (empty means unresolved).
#[derive(Debug, Clone)]
pub struct Edge {
    /// Index into the caller's `item.calls`.
    pub call: usize,
    /// Indices of every node the call may resolve to.
    pub targets: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Every function in the workspace, in (file, line) order.
    pub nodes: Vec<Node>,
    /// Per-node outgoing edges, parallel to `nodes`.
    pub edges: Vec<Vec<Edge>>,
    name_index: BTreeMap<String, Vec<usize>>,
}

/// Why a function is reachable: the entry set, the entry function, and
/// the BFS parent it was first reached from.
#[derive(Debug, Clone)]
pub struct Origin {
    /// The `[entrypoints]` set name.
    pub set: String,
    /// Node index of the entry function.
    pub entry: usize,
    /// BFS predecessor (`None` for entry functions themselves).
    pub parent: Option<usize>,
}

/// Reachability annotation over a [`Graph`], parallel to its nodes.
#[derive(Debug, Clone, Default)]
pub struct Reach {
    /// Per-node origin; `None` when unreachable from every entry set.
    pub origin: Vec<Option<Origin>>,
}

impl Graph {
    /// Builds the graph from per-file items. `files` must already be in
    /// deterministic (sorted-path) order; node order follows it.
    pub fn build(files: &[(String, Vec<FnItem>)]) -> Graph {
        let mut nodes = Vec::new();
        for (path, items) in files {
            for item in items {
                nodes.push(Node {
                    file: path.clone(),
                    item: item.clone(),
                });
            }
        }
        let mut name_index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            name_index
                .entry(node.item.name.clone())
                .or_default()
                .push(i);
        }
        let mut edges = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let mut out = Vec::with_capacity(node.item.calls.len());
            for (ci, call) in node.item.calls.iter().enumerate() {
                let mut targets = Vec::new();
                if let Some(cands) = name_index.get(&call.name) {
                    let want: Vec<&str> = call
                        .path
                        .iter()
                        .map(String::as_str)
                        .filter(|s| !matches!(*s, "self" | "crate" | "super" | "Self"))
                        .collect();
                    for &cand in cands {
                        if want.len() <= 1 || qualified_suffix(&nodes[cand].item.qualified, &want) {
                            targets.push(cand);
                        }
                    }
                }
                out.push(Edge { call: ci, targets });
            }
            edges.push(out);
        }
        Graph {
            nodes,
            edges,
            name_index,
        }
    }

    /// Node indices whose function name is `name`.
    pub fn by_name(&self, name: &str) -> &[usize] {
        self.name_index.get(name).map_or(&[], Vec::as_slice)
    }

    /// Direct (one-hop) callers of `node`.
    pub fn callers(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (caller, edges) in self.edges.iter().enumerate() {
            if edges.iter().any(|e| e.targets.contains(&node)) {
                out.push(caller);
            }
        }
        out
    }

    /// Every node reachable from `node` through resolved edges,
    /// including `node` itself, excluding `#[cfg(test)]` functions.
    pub fn descendants(&self, node: usize) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = vec![node];
        seen[node] = true;
        let mut at = 0;
        while at < queue.len() {
            let n = queue[at];
            at += 1;
            for edge in &self.edges[n] {
                for &t in &edge.targets {
                    if !seen[t] && !self.nodes[t].item.in_test {
                        seen[t] = true;
                        queue.push(t);
                    }
                }
            }
        }
        queue
    }

    /// The `(set, glob)` pairs of `entrypoints` that match no non-test
    /// fn of this graph: they seed nothing, so whatever they were
    /// written to police is unpoliced.
    pub fn unmatched_entrypoints(
        &self,
        entrypoints: &BTreeMap<String, Vec<String>>,
    ) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (set, globs) in entrypoints {
            for glob in globs {
                let seeds = self
                    .nodes
                    .iter()
                    .any(|n| !n.item.in_test && name_glob_match(glob, &n.item.qualified));
                if !seeds {
                    out.push((set.clone(), glob.clone()));
                }
            }
        }
        out
    }

    /// Computes reachability from the configured entry sets (a map of
    /// set name to `::`-glob patterns over qualified names).
    pub fn reachability(&self, entrypoints: &BTreeMap<String, Vec<String>>) -> Reach {
        let mut origin: Vec<Option<Origin>> = vec![None; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (set, globs) in entrypoints {
            for (i, node) in self.nodes.iter().enumerate() {
                if origin[i].is_some() || node.item.in_test {
                    continue;
                }
                if globs
                    .iter()
                    .any(|g| name_glob_match(g, &node.item.qualified))
                {
                    origin[i] = Some(Origin {
                        set: set.clone(),
                        entry: i,
                        parent: None,
                    });
                    queue.push(i);
                }
            }
        }
        let mut at = 0;
        while at < queue.len() {
            let n = queue[at];
            at += 1;
            let (set, entry) = {
                let o = origin[n].as_ref().expect("queued nodes have origins");
                (o.set.clone(), o.entry)
            };
            for edge in &self.edges[n] {
                for &t in &edge.targets {
                    if origin[t].is_none() && !self.nodes[t].item.in_test {
                        origin[t] = Some(Origin {
                            set: set.clone(),
                            entry,
                            parent: Some(n),
                        });
                        queue.push(t);
                    }
                }
            }
        }
        Reach { origin }
    }

    /// The witness call chain (entry first, `node` last) for a
    /// reachable node, as qualified names.
    pub fn chain(&self, reach: &Reach, node: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            rev.push(self.nodes[n].item.qualified.clone());
            cur = reach.origin[n].as_ref().and_then(|o| o.parent);
        }
        rev.reverse();
        rev
    }

    /// Renders the graph as deterministic DOT: nodes sorted by
    /// qualified name, entry/reachable annotations from `reach`,
    /// unresolved calls as `"?name"` leaves. `#[cfg(test)]` functions
    /// are omitted. Byte-for-byte stable for a given source tree.
    pub fn to_dot(&self, reach: &Reach) -> String {
        let mut node_lines: Vec<String> = Vec::new();
        let mut edge_lines: Vec<String> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.item.in_test {
                continue;
            }
            let attr = match &reach.origin[i] {
                Some(o) if o.parent.is_none() => format!(" [entry=\"{}\"]", o.set),
                Some(o) => format!(" [reachable=\"{}\"]", o.set),
                None => String::new(),
            };
            node_lines.push(format!("    \"{}\"{attr};", node.item.qualified));
            for edge in &self.edges[i] {
                if edge.targets.is_empty() {
                    edge_lines.push(format!(
                        "    \"{}\" -> \"?{}\";",
                        node.item.qualified, node.item.calls[edge.call].name
                    ));
                }
                for &t in &edge.targets {
                    if self.nodes[t].item.in_test {
                        continue;
                    }
                    edge_lines.push(format!(
                        "    \"{}\" -> \"{}\";",
                        node.item.qualified, self.nodes[t].item.qualified
                    ));
                }
            }
        }
        node_lines.sort();
        node_lines.dedup();
        edge_lines.sort();
        edge_lines.dedup();
        let mut out = String::from("digraph qd_lint_callgraph {\n");
        for line in node_lines.into_iter().chain(edge_lines) {
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

/// Whether `qualified` (a `::`-joined name) ends with the segments in
/// `want` (already cleaned of `self`/`crate`/`super`).
fn qualified_suffix(qualified: &str, want: &[&str]) -> bool {
    let have: Vec<&str> = qualified.split("::").collect();
    if want.len() > have.len() {
        return false;
    }
    have[have.len() - want.len()..] == *want
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let parsed: Vec<(String, Vec<FnItem>)> = files
            .iter()
            .map(|(p, src)| (p.to_string(), parse_items(p, &lex(src))))
            .collect();
        Graph::build(&parsed)
    }

    #[test]
    fn calls_resolve_by_name_across_files() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "fn entry() { helper(); }\n"),
            ("crates/b/src/util.rs", "pub fn helper() {}\n"),
        ]);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges[0][0].targets, vec![1]);
        assert_eq!(g.callers(1), vec![0]);
    }

    #[test]
    fn qualified_calls_filter_by_suffix() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn entry() { util::helper(); other::helper(); }\n",
            ),
            ("crates/b/src/util.rs", "pub fn helper() {}\n"),
        ]);
        // `util::helper` resolves (suffix matches qd_b::util::helper);
        // `other::helper` does not.
        assert_eq!(g.edges[0][0].targets, vec![1]);
        assert!(g.edges[0][1].targets.is_empty());
    }

    #[test]
    fn reachability_walks_chains_and_skips_tests() {
        let src = "\
pub fn serve() { step(); }
fn step() { leaf(); }
fn leaf() {}
fn cold() { leaf(); }
#[cfg(test)]
mod tests {
    fn t() { cold(); }
}
";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        let mut eps = BTreeMap::new();
        eps.insert("serving".to_string(), vec!["qd_a::serve".to_string()]);
        let reach = g.reachability(&eps);
        let names: Vec<(&str, bool)> = g
            .nodes
            .iter()
            .zip(&reach.origin)
            .map(|(n, o)| (n.item.name.as_str(), o.is_some()))
            .collect();
        assert_eq!(
            names,
            [
                ("serve", true),
                ("step", true),
                ("leaf", true),
                ("cold", false),
                ("t", false)
            ]
        );
        let leaf = g.by_name("leaf")[0];
        assert_eq!(
            g.chain(&reach, leaf),
            ["qd_a::serve", "qd_a::step", "qd_a::leaf"]
        );
    }

    #[test]
    fn dot_is_deterministic_and_marks_unresolved() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn serve() { step(); missing(); }\nfn step() {}\n",
        )]);
        let mut eps = BTreeMap::new();
        eps.insert("serving".to_string(), vec!["qd_a::serve".to_string()]);
        let reach = g.reachability(&eps);
        let dot = g.to_dot(&reach);
        assert_eq!(dot, g.to_dot(&reach), "rendering is pure");
        assert!(dot.contains("\"qd_a::serve\" [entry=\"serving\"];"));
        assert!(dot.contains("\"qd_a::step\" [reachable=\"serving\"];"));
        assert!(dot.contains("\"qd_a::serve\" -> \"?missing\";"));
    }
}
