//! In-memory spans recorded around the benchmark's calls into each
//! layer, summarised once the run ends.
//!
//! Spans are compiled in only with the `spans` feature; in the
//! untraced build [`Tracer::span`] just calls its closure.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// Whether this build records spans.
pub const TRACED: bool = cfg!(feature = "spans");

/// One recorded span. Times are nanoseconds since the tracer's epoch.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span recorder of one process.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Span currently open (the parent of the next span), if any.
    open: Option<usize>,
    /// Id of the op the next spans belong to.
    op: u64,
}

/// The name of the root span around each op.
pub const OP: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: None,
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the span open at
    /// the call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !TRACED {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open,
            op: self.op,
        });
        let outer = self.open.replace(id);
        let result = f(self);
        self.open = outer;
        self.spans[id].end = self.now();
        result
    }

    /// Runs one op, `f`, inside a root [`OP`] span tagged with `op`.
    pub fn op<R>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = op;
        // A panic in the previous op may have left a span open.
        self.open = None;
        self.span(OP, f)
    }

    /// Forgets every span recorded so far (the warm-up's).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Per-name p50, over ops, of each op's summed span time in
    /// microseconds. Only ops that recorded the name count.
    pub fn p50_us_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        // A span an unwinding panic left open has no end; skip it.
        for span in self
            .spans
            .iter()
            .filter(|s| s.name != OP && s.end >= s.start)
        {
            *per_op.entry((span.name, span.op)).or_default() += span.end - span.start;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            by_name.entry(name).or_default().push(ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, values)| (name, stats::median(&values)))
            .collect()
    }

    /// Median, over ops, of the share of each op span its direct
    /// children leave uncovered (its self time over its duration).
    pub fn uncovered_share(&self) -> Option<f64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start, span.end));
            }
        }
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == OP && s.end > s.start)
            .map(|(id, s)| {
                let kids = children.get(&id).map_or(&[][..], Vec::as_slice);
                stats::self_time(s.start, s.end, kids) as f64 / (s.end - s.start) as f64
            })
            .collect();
        (!shares.is_empty()).then(|| stats::median(&shares))
    }
}
