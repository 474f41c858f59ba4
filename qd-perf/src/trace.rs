//! In-memory spans around the calls the traced run makes into each layer.
//!
//! A span is a name, the layer it belongs to, start and end, the span
//! that caused it and the request it served. Spans opened with
//! [`Tracer::scope`] nest on the calling thread; [`Tracer::leaf`] adds an
//! already-timed interval (a filesystem call, a client's local round on a
//! worker thread) under whatever scope is open. Nothing is written until
//! the run ends.

use crate::metrics::json_string;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The one wall-clock read of the harness's in-process timing.
pub fn now() -> Instant {
    // qd-lint: allow(determinism) -- measuring wall time is the benchmark's job
    Instant::now()
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (operation) being served, 0 outside any.
    pub request: u64,
}

impl Span {
    /// Length in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Open scopes, innermost last.
    open: Vec<usize>,
    /// The request in progress (0 outside any) and how many have begun.
    request: u64,
    requests_begun: u64,
}

/// Records spans; shareable across the worker threads a layer spawns.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no tracer method panics while holding the lock")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a new span under the innermost open scope.
    pub fn scope<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let start_ns = self.ns(now());
            let mut st = self.state();
            let span = Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: st.open.last().copied(),
                request: st.request,
            };
            st.spans.push(span);
            let id = st.spans.len() - 1;
            st.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.ns(now());
        let mut st = self.state();
        st.spans[id].end_ns = end_ns;
        st.open.retain(|&open| open != id);
        out
    }

    /// Like [`Tracer::scope`], for one whole operation: every span inside
    /// carries a fresh request id.
    pub fn request<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        {
            let mut st = self.state();
            st.requests_begun += 1;
            st.request = st.requests_begun;
        }
        let out = self.scope(name, layer, f);
        self.state().request = 0;
        out
    }

    /// Records a finished interval under the innermost open scope; safe
    /// from worker threads (which never open scopes of their own).
    /// Returns the span's index.
    pub fn leaf(
        &self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.state();
        let span = Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: st.open.last().copied(),
            request: st.request,
        };
        st.spans.push(span);
        st.spans.len() - 1
    }

    /// Records a finished interval as a child of span `parent`.
    pub fn leaf_under(
        &self,
        parent: usize,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.leaf(name, layer, start, end);
        self.state().spans[id].parent = Some(parent);
    }

    /// Wraps the interval `[start, end]` in a new span under the
    /// innermost open scope and adopts that scope's existing children
    /// lying inside it — for boundaries only known afterwards, like the
    /// end of a federated round reported by an observer.
    pub fn enclose(&self, name: &'static str, layer: &'static str, start: Instant, end: Instant) {
        let id = self.leaf(name, layer, start, end);
        let mut st = self.state();
        let (parent, lo, hi) = (
            st.spans[id].parent,
            st.spans[id].start_ns,
            st.spans[id].end_ns,
        );
        for (i, s) in st.spans.iter_mut().enumerate() {
            if i != id && s.parent == parent && s.start_ns >= lo && s.end_ns <= hi {
                s.parent = Some(id);
            }
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Nanoseconds of `[lo, hi]` covered by the union of `intervals`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per-span self time in nanoseconds of wall clock: the span's length
/// minus the part its children cover. Children that overlap each other
/// (client rounds on parallel threads) share the interval they cover in
/// proportion to their lengths, so the self times below any span add up
/// to that span's length and a layer table adds up to 100 %.
pub fn self_ns(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut out = vec![0.0; spans.len()];
    // Parents precede children except for adopted ones (`enclose`), so
    // walk from the roots rather than by index.
    let mut todo: Vec<(usize, f64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, _)| (i, 1.0))
        .collect();
    while let Some((i, weight)) = todo.pop() {
        let s = &spans[i];
        let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
        let mut intervals: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| (spans[k].start_ns, spans[k].end_ns))
            .collect();
        let covered = covered_ns(&mut intervals, s.start_ns, s.end_ns) as f64;
        let total: f64 = kids
            .iter()
            .map(|&k| (spans[k].end_ns - spans[k].start_ns) as f64)
            .sum();
        out[i] = weight * ((s.end_ns - s.start_ns) as f64 - covered);
        let share = if total > 0.0 { covered / total } else { 0.0 };
        todo.extend(kids.iter().map(|&k| (k, weight * share)));
    }
    out
}

/// Wall-clock self time per layer, in milliseconds, over the subtree of
/// span `root`.
pub fn layer_self_ms(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let selfs = self_ns(spans);
    let mut by_layer = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut at = Some(i);
        while let Some(a) = at {
            if a == root {
                *by_layer.entry(s.layer).or_insert(0.0) += selfs[i] / 1e6;
                break;
            }
            at = spans[a].parent;
        }
    }
    by_layer
}

/// The span file: one JSON object holding every span in record order.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"id\": {id}, \"name\": {}, \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                json_string(s.name),
                json_string(s.layer),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"spans\": [\n{}\n]}}\n",
        json_string(workload),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let until = now() + d;
        while now() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn scopes_nest_and_requests_tag_their_spans() {
        let t = Tracer::new();
        t.scope("root", "harness", || {
            t.request("op", "cli", || {
                t.scope("load", "core.ckpt", || spin(Duration::from_millis(1)));
            });
            t.request("op", "cli", || {
                let s = now();
                spin(Duration::from_millis(1));
                t.leaf("read", "core.vfs", s, now());
            });
        });
        let spans = t.spans();
        let names: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            vec![
                ("root", None, 0),
                ("op", Some(0), 1),
                ("load", Some(1), 1),
                ("op", Some(0), 2),
                ("read", Some(3), 2),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[2].ms() >= 1.0);
    }

    #[test]
    fn self_times_sum_to_the_enclosing_span() {
        // A traced shape like the real one: sequential children, a child
        // with its own children, and two overlapping worker leaves.
        let t = Tracer::new();
        t.scope("workload", "harness", || {
            t.scope("a", "data", || spin(Duration::from_millis(2)));
            t.scope("phase", "fed", || {
                let s = now();
                std::thread::scope(|sc| {
                    for _ in 0..2 {
                        sc.spawn(|| {
                            let s = now();
                            spin(Duration::from_millis(3));
                            t.leaf("local_round", "compute", s, now());
                        });
                    }
                });
                t.enclose("round", "fed", s, now());
                spin(Duration::from_millis(1));
            });
            spin(Duration::from_millis(1));
        });
        let spans = t.spans();
        let root_ns = (spans[0].end_ns - spans[0].start_ns) as f64;
        let sum: f64 = self_ns(&spans).iter().sum();
        assert!(
            (sum - root_ns).abs() / root_ns < 0.05,
            "self times {sum} vs root {root_ns}"
        );
        // The round adopted both worker leaves.
        let round = spans.iter().position(|s| s.name == "round").unwrap();
        let adopted = spans.iter().filter(|s| s.parent == Some(round)).count();
        assert_eq!(adopted, 2);
        let layers = layer_self_ms(&spans, 0);
        let total: f64 = layers.values().sum();
        assert!((total - root_ns / 1e6).abs() / (root_ns / 1e6) < 0.05);
        assert!(
            layers["compute"] >= 2.5,
            "parallel leaves share their wall interval"
        );
        assert!(layers["data"] >= 2.0);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 20), (2, 4)];
        assert_eq!(covered_ns(&mut iv, 0, 15), 4 + 10);
        assert_eq!(covered_ns(&mut [], 0, 15), 0);
        assert_eq!(covered_ns(&mut [(20, 30)], 0, 15), 0);
    }

    #[test]
    fn span_file_is_one_json_object() {
        let t = Tracer::new();
        t.scope("root", "harness", || t.scope("x", "data", || ()));
        let json = to_json("train-distill", &t.spans());
        assert!(json.starts_with(
            "{\"workload\": \"train-distill\", \"spans\": [\n{\"id\": 0, \"name\": \"root\""
        ));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.ends_with("]}\n"));
    }
}
