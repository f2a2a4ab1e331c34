//! The benchmark's own span recorder (traced runs only).
//!
//! One span per op and child spans around each public call into a
//! layer, each with name, start, end, parent and op id. Spans are kept
//! in memory and written once at the end; with tracing off, opening and
//! closing a span costs a branch.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRec {
    /// Layer-call or op name, e.g. `perf.percentile`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

const DISABLED: SpanId = SpanId(usize::MAX);

impl Tracer {
    /// A tracer; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Times `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<SpanRec> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children's intervals are merged and clipped
/// to the parent, so overlapping or overhanging children never count
/// twice or below zero).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name).or_insert(0) += self_ns;
    }
    out
}

/// Total wall time per span name, in nanoseconds.
pub fn total_time_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.name).or_insert(0) += span.duration_ns();
    }
    out
}
