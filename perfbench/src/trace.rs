//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public functions: a name, a start, an end and the span that
//! caused it. Nothing is written until the run ends; then each span's
//! self time (its duration minus the part its children cover) is computed
//! and the spans are summarised per name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `scenario.generate`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the parent span in the same trace, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; `begin`/`end` pairs nest through an explicit stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Records a finished span whose times were taken elsewhere (an
    /// operation that overlaps others, such as a frame in flight).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span when a tracer is present, plainly otherwise.
pub fn maybe<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their wall durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Sums spans per name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += own;
    }
    out
}

/// Tab-separated dump: one header, then `name start end parent self` per span.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\tself_ns\n");
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, own
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("seed", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("p", 0, 100, None),
            span("c1", 10, 50, Some(0)),
            span("c2", 30, 70, Some(0)),
            // A child running past its parent is clipped to the parent.
            span("c3", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_summarizes() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.span("inner", || std::hint::black_box(2 + 2));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let sum = summarize(spans);
        assert_eq!(sum["inner"].count, 2);
        assert_eq!(sum["outer"].count, 1);
        let inner_total = sum["inner"].total_ns;
        assert_eq!(sum["outer"].self_ns, spans[0].duration_ns() - inner_total);
        assert!(to_tsv(spans).lines().count() == 4);
    }
}
