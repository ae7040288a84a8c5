//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Every call the benchmark times runs on its main thread, so one recorder
//! without a lock suffices. With tracing off, [`Trace::begin`] and
//! [`Trace::end`] read no clock and record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span; spans of one serve
/// request share `request` (0 outside the serve path).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has begun and not yet ended.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Trace {
    on: bool,
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                request,
                name,
                start: None,
            };
        }
        self.next += 1;
        Open {
            id: self.next,
            parent,
            request,
            name,
            start: Some(Instant::now()),
        }
    }

    pub fn end(&mut self, open: Open) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Sums span time and self time by span name. A span's self time is its
/// duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let covered = children
            .get_mut(&span.id)
            .map(|intervals| covered_ns(intervals, span.start_ns, span.end_ns))
            .unwrap_or(0);
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    totals
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 10, 40),
            span(3, 1, "inner", 30, 60),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["outer"].self_ns, 50);
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["inner"].total_ns, 60);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let span = trace.begin("x", 0, 0);
        trace.end(span);
        assert!(trace.spans().is_empty());
    }
}
