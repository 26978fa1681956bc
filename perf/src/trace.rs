//! In-memory spans around the calls into each layer.
//!
//! Nothing inside the crates is instrumented: a span is opened by the
//! harness right before it calls a layer's public function and closed
//! right after. Spans stay in memory until the run ends and are then
//! written as one JSON object per line.

use std::io::{self, Write};
use std::time::Instant;

/// One closed span. `parent` indexes the span that was open when this one
/// began; spans of one pass share `pass`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be passed to Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder. A disabled tracer records nothing, so the untraced run
/// executes the same harness code without the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
    pass_first: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            pass_first: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts pass `pass`: later spans carry its number and the per-pass
    /// sums below only see them.
    pub fn start_pass(&mut self, pass: usize) {
        assert!(self.open.is_empty(), "a span is still open across passes");
        self.pass = pass;
        self.pass_first = self.spans.len();
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        // Read the clock last so the bookkeeping above stays outside the span.
        self.spans[index].start_ns = self.now_ns();
        Open(Some(index))
    }

    pub fn end(&mut self, span: Open) {
        let now = self.now_ns();
        let Some(index) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let value = f();
        self.end(span);
        value
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn pass_spans(&self) -> &[Span] {
        &self.spans[self.pass_first..]
    }

    /// Durations, in seconds, of the current pass's spans called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.pass_spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time, in seconds, of the current pass's spans called `name`:
    /// their duration minus the part their direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        self_ns(self.pass_spans(), self.pass_first, name) as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.pass
            )?;
        }
        Ok(())
    }
}

/// Self time of the spans called `name` inside `spans`, whose first
/// element has global index `offset` (parents are global indices).
fn self_ns(spans: &[Span], offset: usize, name: &str) -> u64 {
    let mut total = 0u64;
    for (i, span) in spans.iter().enumerate() {
        if span.name == name {
            total += span.duration_ns();
        }
        if let Some(parent) = span.parent.and_then(|p| p.checked_sub(offset)) {
            if spans[parent].name == name {
                total -= span.duration_ns();
            }
        }
        debug_assert!(span.parent.is_none_or(|p| p < offset + i));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // solve [0,100] > relax [10,70] > sssp [20,30]; solve > round [70,95].
        let spans = [
            span("solve", 0, 100, None),
            span("relax", 10, 70, Some(0)),
            span("sssp", 20, 30, Some(1)),
            span("round", 70, 95, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0, "solve"), 100 - 60 - 25);
        assert_eq!(self_ns(&spans, 0, "relax"), 60 - 10);
        assert_eq!(self_ns(&spans, 0, "sssp"), 10);
        assert_eq!(self_ns(&spans, 0, "absent"), 0);
    }

    #[test]
    fn self_time_honours_the_pass_offset() {
        // The same tree stored after five spans of an earlier pass.
        let spans = [
            span("solve", 0, 100, Some(2)),
            span("relax", 10, 70, Some(5)),
            span("round", 70, 95, Some(5)),
        ];
        assert_eq!(self_ns(&spans, 5, "solve"), 100 - 60 - 25);
    }

    #[test]
    fn tracer_nests_spans_and_sums_per_pass() {
        let mut tracer = Tracer::new(true);
        tracer.start_pass(0);
        let a = tracer.begin("outer");
        let b = tracer.begin("inner");
        tracer.end(b);
        tracer.end(a);
        tracer.start_pass(1);
        assert_eq!(tracer.span("inner", || 7), 7);
        assert_eq!(tracer.durations_s("inner").len(), 1);
        assert_eq!(tracer.durations_s("outer").len(), 0);
        let mut text = Vec::new();
        tracer.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"pass\":0"));
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"parent\":null,\"pass\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.start_pass(0);
        let a = tracer.begin("outer");
        tracer.end(a);
        assert!(tracer.durations_s("outer").is_empty());
        let mut text = Vec::new();
        tracer.write_jsonl(&mut text).unwrap();
        assert!(text.is_empty());
    }
}
