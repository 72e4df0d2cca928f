//! In-memory spans around calls into each layer's public functions.
//!
//! A span records name, start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the replay runs and
//! are written out once at the end.

use std::time::{Duration, Instant};

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric the span feeds (`http.parse`, `engine`, ...).
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The replayed request (or probe) the span belongs to.
    pub request: u64,
    /// Offset of the call's start from the tracer's origin.
    pub start: Duration,
    /// Offset of the call's end from the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time of the call.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> T,
    ) -> (T, SpanId) {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end: start,
        });
        let out = f(self, id);
        self.spans[id].end = self.origin.elapsed();
        (out, id)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        out
    }
}

/// Self time of span `id`: its duration minus the summed durations of
/// its child spans, floored at zero. The replay runs one call at a time,
/// so children never overlap; they may run outside the parent's interval
/// (the twin replica's measured children of an engine span do).
pub fn self_time(spans: &[Span], id: SpanId) -> Duration {
    let children: Duration = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration)
        .sum();
    spans[id].duration().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    fn span(parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            parent,
            request: 0,
            start: us(start),
            end: us(end),
        }
    }

    #[test]
    fn self_time_subtracts_child_durations() {
        let spans = vec![
            span(None, 0, 100),      // 0: request
            span(Some(0), 10, 30),   // 1: child
            span(Some(0), 40, 50),   // 2: child
            span(Some(1), 12, 18),   // 3: grandchild, not a child of 0
            span(Some(0), 200, 230), // 4: measured apart from its parent
            span(None, 0, 10),       // 5: parent of a longer child
            span(Some(5), 20, 40),   // 6
        ];
        assert_eq!(self_time(&spans, 0), us(100 - 20 - 10 - 30));
        assert_eq!(self_time(&spans, 1), us(14));
        assert_eq!(self_time(&spans, 3), us(6));
        assert_eq!(self_time(&spans, 5), us(0));
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span(None, 5, 9)];
        assert_eq!(self_time(&spans, 0), us(4));
    }

    #[test]
    fn tracer_nests_spans_under_their_parent() {
        let mut tracer = Tracer::new();
        let ((), outer) = tracer.span("outer", None, 7, |t, id| {
            t.span("inner", Some(id), 7, |_, _| std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        assert!(self_time(spans, outer) <= spans[0].duration());
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
