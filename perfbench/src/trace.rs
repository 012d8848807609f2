//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans: name, start, end, parent span, and the id of the request the
//! span belongs to. Spans stay in memory and are written out once, when
//! the run ends. A span's *self time* is its duration minus the part of
//! it that its children cover; the per-layer times are sums of self time
//! by span name. With tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// Span recorder shared by the benchmark's threads.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    origin: Instant::now(),
                    next_id: AtomicU64::new(1),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a span under `parent` (if any) for request `request`.
    pub fn begin(&self, name: &'static str, parent: Option<&Open>, request: u64) -> Option<Open> {
        let inner = self.inner.as_ref()?;
        Some(Open {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent: parent.map(|p| p.id),
            request,
            name,
            start_ns: inner.origin.elapsed().as_nanos() as u64,
        })
    }

    /// Ends a span begun by [`Tracer::begin`].
    pub fn end(&self, open: Option<Open>) {
        let (Some(inner), Some(open)) = (self.inner.as_ref(), open) else {
            return;
        };
        let end_ns = inner.origin.elapsed().as_nanos() as u64;
        inner.spans.lock().expect("span list poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    /// Every finished span, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.spans.lock().expect("span list poisoned").clone())
            .unwrap_or_default()
    }

    /// Writes the spans as tab-separated rows to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Sums count, duration and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // query [0, 100) has children connect [10, 30) and rtt [30, 70);
        // rtt has a grandchild decode [40, 60) that must not be
        // subtracted from query a second time.
        let spans = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "connect", 10, 30),
            span(3, Some(1), "rtt", 30, 70),
            span(4, Some(3), "decode", 40, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 20);
        let total: u64 = selfs.values().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children from different threads overlap on [20, 30) and
        // one pokes past the parent's end.
        let spans = vec![
            span(1, None, "phase", 0, 50),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 60),
        ];
        assert_eq!(self_times(&spans)[&1], 10);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["phase"].self_ns, 10);
        assert_eq!(totals["b"].total_ns, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.time("x", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.begin("outer", None, 9);
        t.time("inner", outer.as_ref(), 9, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans.iter().all(|s| s.request == 9));
    }
}
