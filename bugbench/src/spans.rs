//! Self time of nested spans.
//!
//! The benchmark wraps every call into a layer in a span whose category is
//! the layer's name. Spans on one timeline track nest: a dump span contains
//! the I/O spans of its file writes. A span's *self time* is its duration
//! minus the time its direct children cover, so per-layer costs add up to
//! the wall time the root spans cover, and whatever no root span covers is
//! time the benchmark cannot attribute to any layer.

use bugnet_trace::{EventKind, TraceEvent};

/// One span with its self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTime {
    /// Layer (trace category).
    pub cat: &'static str,
    /// Span name within the layer.
    pub name: &'static str,
    /// Start, in trace-clock nanoseconds.
    pub start_ns: u64,
    /// Whole duration.
    pub dur_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
    /// The span's argument value (zero when it has none).
    pub arg: u64,
    /// Whether no other span on the track contains this one.
    pub root: bool,
}

/// Self times of the spans of one track, in start order, given the track's
/// events in any order (instants and counters are ignored).
///
/// A span is the child of the innermost earlier span that wholly contains
/// it. A span that only partly overlaps the span before it is treated as a
/// root, so overlapping siblings are never subtracted twice.
pub fn self_times(events: &[TraceEvent]) -> Vec<SpanTime> {
    let mut spans: Vec<SpanTime> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_ns } => Some(SpanTime {
                cat: e.cat,
                name: e.name,
                start_ns: e.ts_ns,
                dur_ns,
                self_ns: dur_ns,
                arg: e.arg,
                root: true,
            }),
            _ => None,
        })
        .collect();
    // Parents sort before the children they contain: earlier start first,
    // and on a tie the longer span first.
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then_with(|| b.dur_ns.cmp(&a.dur_ns))
    });
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (start, end) = (spans[i].start_ns, spans[i].start_ns + spans[i].dur_ns);
        while let Some(&top) = open.last() {
            if spans[top].start_ns + spans[top].dur_ns <= start {
                open.pop();
            } else {
                break;
            }
        }
        match open.last() {
            Some(&parent) if end <= spans[parent].start_ns + spans[parent].dur_ns => {
                spans[parent].self_ns = spans[parent].self_ns.saturating_sub(spans[i].dur_ns);
                spans[i].root = false;
            }
            // Partial overlap: close everything open and start afresh.
            Some(_) => open.clear(),
            None => {}
        }
        open.push(i);
    }
    spans
}

/// Total duration of the root spans: the wall time attributed to layers.
pub fn covered_ns(spans: &[SpanTime]) -> u64 {
    spans.iter().filter(|s| s.root).map(|s| s.dur_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, start: u64, dur: u64) -> TraceEvent {
        TraceEvent::span(cat, cat, start, dur)
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        // dump [0, 100) holds io [10, 30) and io [40, 45); io [40, 45) holds
        // nothing. A sibling replay span follows at [100, 160).
        let events = [
            span("replay", 100, 60),
            span("io", 40, 5),
            span("dump", 0, 100),
            span("io", 10, 20),
            TraceEvent::instant("mark", "bench", 50),
        ];
        let spans = self_times(&events);
        let by_cat = |cat: &str| -> Vec<u64> {
            spans
                .iter()
                .filter(|s| s.cat == cat)
                .map(|s| s.self_ns)
                .collect()
        };
        assert_eq!(by_cat("dump"), vec![75]);
        assert_eq!(by_cat("io"), vec![20, 5]);
        assert_eq!(by_cat("replay"), vec![60]);
        assert_eq!(covered_ns(&spans), 160);
    }

    #[test]
    fn grandchildren_count_against_the_child() {
        let events = [span("a", 0, 100), span("b", 10, 50), span("c", 20, 10)];
        let spans = self_times(&events);
        let selfs: Vec<(&str, u64, bool)> =
            spans.iter().map(|s| (s.cat, s.self_ns, s.root)).collect();
        assert_eq!(
            selfs,
            vec![("a", 50, true), ("b", 40, false), ("c", 10, false)]
        );
        assert_eq!(covered_ns(&spans), 100);
    }

    #[test]
    fn equal_start_puts_the_longer_span_outside() {
        let spans = self_times(&[span("inner", 5, 10), span("outer", 5, 30)]);
        assert_eq!((spans[0].cat, spans[0].self_ns), ("outer", 20));
        assert_eq!((spans[1].cat, spans[1].root), ("inner", false));
    }

    #[test]
    fn partial_overlap_is_not_nesting() {
        let spans = self_times(&[span("a", 0, 50), span("b", 40, 30)]);
        assert!(spans.iter().all(|s| s.root && s.self_ns == s.dur_ns));
        assert_eq!(covered_ns(&spans), 80);
    }
}
