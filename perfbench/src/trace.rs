//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed around the public calls into each layer,
//! from the benchmark's side of the API. They stay in a preallocated
//! vector while frames run and are written out once, after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.begin`.
    pub name: &'static str,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Frame the span belongs to; spans of one frame share it.
    pub frame: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the time covered by child
    /// spans), in nanoseconds.
    pub self_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, frame: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            frame,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Children are assumed
    /// not to overlap each other, which holds for a single-threaded
    /// recorder.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(*children);
        }
        out
    }

    /// Writes every span as one JSON document:
    /// `{"spans": [{"id", "name", "parent", "frame", "start_ns", "end_ns"}, ...]}`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(96 * self.spans.len() + 16);
        text.push_str("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"frame\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.frame, s.start_ns, s.end_ns
            );
        }
        text.push_str("]}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            frame: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(4);
        t.spans = vec![
            span("frame", None, 0, 100),
            span("begin", Some(0), 0, 30),
            span("eval", Some(0), 30, 90),
            span("frame", None, 100, 150),
        ];
        let totals = t.totals();
        assert_eq!(
            totals["frame"],
            SpanTotals {
                count: 2,
                total_ns: 150,
                self_ns: 60
            }
        );
        assert_eq!(totals["begin"].self_ns, 30);
        assert_eq!(totals["eval"].total_ns, 60);
    }

    #[test]
    fn open_close_records_in_order() {
        let mut t = Tracer::with_capacity(2);
        let a = t.open("a", None, 7);
        let b = t.open("b", Some(a), 7);
        t.close(b);
        t.close(a);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(a));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[0].frame, 7);
    }
}
