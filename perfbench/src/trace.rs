//! Spans recorded around the benchmark's calls into each layer. Spans are
//! kept in memory and written out when the run ends; a layer's self time
//! is its span minus the part of it that its child spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `serve.try_ingest`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// The stream time (sample epoch) the call belongs to.
    pub epoch: u64,
    /// Which benchmark thread made the call (0 = main, 1 = reader).
    pub thread: u32,
}

/// Per-thread span recorder. Disabled, it records nothing and reads no
/// clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder for `thread`, timing relative to `origin`.
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Self {
        Self {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, epoch: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            epoch,
            thread: self.thread,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, epoch);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (indexed on its own) to `spans`, re-basing parent links.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span (children may overlap).
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
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{},\"thread\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.epoch,
            s.thread
        )?;
    }
    out.flush()
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
            epoch: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); root ⊃ c [50,60).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,30) and [20,50) cover [10,50): 40 ns, not 50.
        // A child running past its parent is clipped at the parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 30, Some(0)),
            span("y", 20, 50, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 30]);
    }

    #[test]
    fn tracer_nests_and_append_rebases_parents() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 0);
        let root = t.begin("root", 1);
        t.span("child", 1, || ());
        t.end(root);
        let mut spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        let mut r = Tracer::new(true, origin, 1);
        let outer = r.begin("outer", 2);
        r.span("inner", 2, || ());
        r.end(outer);
        append(&mut spans, r.into_spans());
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].thread, 1);
        let mut off = Tracer::new(false, origin, 0);
        assert_eq!(off.begin("x", 0), None);
        assert!(off.into_spans().is_empty());
    }
}
