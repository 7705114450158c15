//! In-memory spans around calls into the program's layers.
//!
//! A span has a name, a start and an end (nanoseconds from
//! [`crate::timing::now_ns`]), the index of the span that caused it, and
//! the id of the iteration or request it belongs to. Spans stay in memory
//! until the run ends; [`Tracer::to_json`] renders them for the trace
//! file. A layer's self time is its spans' total duration minus the part
//! covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::timing::now_ns;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.sim`.
    pub name: &'static str,
    /// Start, in nanoseconds.
    pub start_ns: u64,
    /// End, in nanoseconds.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Iteration (sim workloads) or request (serve) this span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = now_ns();
        self.record(name, now, now, parent, id)
    }

    /// Closes span `span` now.
    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, id);
        let out = f();
        self.end(span);
        out
    }

    /// Adds a span with explicit bounds (used for the protocol-callback
    /// total, which is summed inside the adapter rather than opened and
    /// closed once).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span (duration minus the children's durations,
    /// floored at zero), in the spans' order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name over the spans for which `keep`
    /// holds.
    pub fn self_by_name(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if keep(s) {
                *out.entry(s.name).or_insert(0) += t;
            }
        }
        out
    }

    /// Durations of every span named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Renders every span as JSON (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("root", 0, 100, None, 1);
        t.record("a", 10, 40, Some(root), 1);
        let b = t.record("b", 50, 90, Some(root), 1);
        t.record("c", 60, 70, Some(b), 1);
        assert_eq!(t.self_times(), vec![30, 30, 30, 10]);
        let by = t.self_by_name(|_| true);
        assert_eq!(by.values().sum::<u64>(), 100);
        assert_eq!(t.durations("b"), vec![40]);
        assert!(t.to_json().contains("\"name\":\"c\""));
    }
}
