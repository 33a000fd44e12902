//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (nothing inside
//! `crates/` or `shims/` is instrumented), kept in memory, and written at
//! exit as Chrome-trace JSON. A disabled tracer runs the closure and
//! records nothing, so end-to-end numbers are measured with tracing off.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::json::Json;

/// One recorded interval. The layer is the name's first dotted component.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub iteration: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    iteration: Cell<u32>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            iteration: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Tags spans opened from now on with `iteration`.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.set(iteration);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (or bare, when disabled).
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                iteration: self.iteration.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Spans recorded so far (a mark for slicing [`Tracer::spans`] later).
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans_since(0)
    }

    /// The spans recorded after the first `mark` ones.
    pub fn spans_since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..].to_vec()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its direct children cover (children are clipped to
/// the parent and overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let start = span.start_ns.max(spans[p].start_ns);
            let end = span.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.end_ns - span.start_ns - covered
        })
        .collect()
}

/// Total seconds of every span named `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Renders the spans as a Chrome-trace (`chrome://tracing`, Perfetto)
/// document of complete (`"ph": "X"`) events.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let self_ns = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(self_ns)
        .map(|(span, self_ns)| {
            Json::obj([
                ("name", Json::str(&span.name)),
                ("cat", Json::str(span.name.split('.').next().unwrap_or(""))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("workload", Json::str(workload)),
                        ("iteration", Json::Num(f64::from(span.iteration))),
                        (
                            "parent",
                            span.parent
                                .map_or(Json::Null, |p| Json::str(&spans[p].name)),
                        ),
                        ("self_us", Json::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        // root: 100 − (50 + 20); a: 50 − 10; grandchildren do not count twice.
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = [
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 130, 170, Some(0)),
            span("z", 190, 260, Some(0)),
            span("inside-x", 120, 125, Some(0)),
        ];
        // Covered: [110, 170) ∪ [190, 200) = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        tracer.set_iteration(3);
        let out = tracer.span("outer", || tracer.span("outer.inner", || 7));
        assert_eq!(out, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iteration, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = chrome_trace(&spans, "w");
        let events = doc.get("traceEvents").unwrap();
        assert!(matches!(events, Json::Arr(e) if e.len() == 2));

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }
}
