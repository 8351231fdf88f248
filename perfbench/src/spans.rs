//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds a name, a start and end on the host clock, its parent
//! span and the id of the op it belongs to. Spans stay in memory during
//! the traced run and are written once at the end as Chrome trace JSON.
//! Untraced runs use [`NoSpans`], whose methods compile to nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Receiver of span boundaries. Spans nest: `exit` closes the most
/// recently entered open span.
pub trait Tracer {
    /// Opens a span named `name` for op `op`.
    fn enter(&mut self, name: &'static str, op: u64);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// The tracer of untimed-overhead runs: records nothing.
pub struct NoSpans;

impl Tracer for NoSpans {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _op: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recording tracer.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Tracer for Spans {
    fn enter(&mut self, name: &'static str, op: u64) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let now = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = now;
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the children's), ns.
    pub self_ns: u64,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in entry order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed time of each span's direct children, indexed like
    /// [`Spans::spans`].
    pub fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.dur_ns();
            }
        }
        child
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let child = self.child_ns();
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(child) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += span.dur_ns().saturating_sub(child_ns);
        }
        totals
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span on one thread, with the op id and parent index in
    /// `args`.
    pub fn to_chrome_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        out.push_str("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            label.replace(['"', '\\'], "_")
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.op,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        spans.enter("op", 1);
        spans.enter("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit();
        spans.exit();
        let totals = spans.totals();
        let op = totals["op"];
        let child = totals["child"];
        assert_eq!(op.total_ns, op.self_ns + child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(spans.spans()[1].parent, Some(0));
    }

    #[test]
    fn chrome_export_validates() {
        let mut spans = Spans::new();
        for op in 0..3 {
            spans.enter("op", op);
            spans.enter("child", op);
            spans.exit();
            spans.exit();
        }
        let json = spans.to_chrome_json("test \"label\"");
        let summary =
            microfaas_sim::chrome::validate_chrome_trace(&json).expect("valid Chrome trace");
        assert_eq!(summary.complete, 6);
        assert_eq!(summary.metadata, 1);
    }
}
