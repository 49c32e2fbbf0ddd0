//! Zero-cost-when-disabled span tracing.
//!
//! A request that wants a trace installs a thread-local [`Collector`];
//! instrumented code opens spans with [`span`], which returns a guard that
//! records a [`FinishedSpan`] on drop. When no collector is installed
//! anywhere in the process, `span()` is a single relaxed atomic load and a
//! branch — the instrumentation stays in release builds at (measured)
//! negligible cost.
//!
//! The model is deliberately synchronous: the serve layer handles each
//! request start-to-finish on one worker thread, so a thread-local span
//! stack reconstructs the tree exactly. Work fanned out to other threads
//! would *not* be captured in the request's tree (the aggregate would still
//! show up in the parent span's duration and in the metrics registry).

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Count of currently-installed collectors across all threads. Zero means
/// every `span()` call takes the fast path.
static TRACING_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// One completed span.
#[derive(Clone, Debug)]
pub struct FinishedSpan {
    /// Id unique within the trace (assignment order = start order).
    pub id: u32,
    /// Parent span id, or `None` for a root span.
    pub parent: Option<u32>,
    /// Static span name (the span taxonomy lives in the README).
    pub name: &'static str,
    /// Space-separated `key=value` attributes (empty when none).
    pub attrs: String,
    /// Start offset from the collector's install time, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// One request's completed trace: metadata plus spans in start order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The request id the serve layer assigned.
    pub request_id: u64,
    /// Tenant the request ran against.
    pub tenant: String,
    /// Protocol verb of the request.
    pub verb: String,
    /// Total wall time of the traced section, microseconds.
    pub total_us: u64,
    /// Spans in start order (parents precede children).
    pub spans: Vec<FinishedSpan>,
}

struct Collector {
    start: Instant,
    spans: Vec<FinishedSpan>,
    stack: Vec<u32>,
    next_id: u32,
    limit: usize,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Install a collector on this thread, capturing at most `limit` spans
/// (further spans are counted into the roots' durations but dropped).
/// Replaces any previous collector on the thread.
pub fn install_collector(limit: usize) {
    COLLECTOR.with(|slot| {
        if slot
            .borrow_mut()
            .replace(Collector {
                start: Instant::now(),
                spans: Vec::new(),
                stack: Vec::new(),
                next_id: 0,
                limit: limit.max(1),
            })
            .is_none()
        {
            TRACING_ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Remove this thread's collector and return the spans it captured (empty
/// vec and zero total when none was installed).
pub fn take_collector() -> (Vec<FinishedSpan>, u64) {
    COLLECTOR.with(|slot| match slot.borrow_mut().take() {
        Some(mut c) => {
            TRACING_ACTIVE.fetch_sub(1, Ordering::Relaxed);
            // Guards record on drop, so children land before their parents;
            // re-sort into start order (parents precede children), which is
            // what `render_tree` expects.
            c.spans.sort_by_key(|s| s.id);
            (c.spans, c.start.elapsed().as_micros() as u64)
        }
        None => (Vec::new(), 0),
    })
}

/// Whether any thread currently has a collector installed. The fast path:
/// a single relaxed load.
#[inline]
pub fn tracing_active() -> bool {
    TRACING_ACTIVE.load(Ordering::Relaxed) != 0
}

/// Open a span. When tracing is disabled the guard is inert and the call
/// costs one atomic load; when enabled it pushes onto this thread's span
/// stack and records a [`FinishedSpan`] on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_active() {
        return SpanGuard { live: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> SpanGuard {
    COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        let Some(c) = slot.as_mut() else {
            // Another thread is tracing, not this one.
            return SpanGuard { live: None };
        };
        if c.spans.len() >= c.limit {
            return SpanGuard { live: None };
        }
        let id = c.next_id;
        c.next_id += 1;
        let parent = c.stack.last().copied();
        c.stack.push(id);
        SpanGuard {
            live: Some(LiveSpan {
                id,
                parent,
                name,
                attrs: String::new(),
                started: Instant::now(),
            }),
        }
    })
}

struct LiveSpan {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    attrs: String,
    started: Instant,
}

/// RAII guard for an open span; records the span when dropped.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Attach a `key=value` attribute. A no-op (no formatting) when the
    /// span is inert, so callers can attach values unconditionally.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(live) = self.live.as_mut() {
            if !live.attrs.is_empty() {
                live.attrs.push(' ');
            }
            live.attrs.push_str(key);
            live.attrs.push('=');
            live.attrs.push_str(&value.to_string());
        }
    }

    /// Whether this guard is actually recording (useful to skip expensive
    /// attribute computation).
    pub fn recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur_us = live.started.elapsed().as_micros() as u64;
        COLLECTOR.with(|slot| {
            let mut slot = slot.borrow_mut();
            let Some(c) = slot.as_mut() else { return };
            // Unwind the stack to this span — guards drop in LIFO order on
            // a single thread, so this is normally a single pop.
            while let Some(top) = c.stack.pop() {
                if top == live.id {
                    break;
                }
            }
            let start_us = live.started.duration_since(c.start).as_micros() as u64;
            c.spans.push(FinishedSpan {
                id: live.id,
                parent: live.parent,
                name: live.name,
                attrs: live.attrs,
                start_us,
                dur_us,
            });
        });
    }
}

/// Where completed traces go. The default sink is the in-memory ring; a
/// test or an exporter can install its own.
pub trait TraceSink: Send + Sync {
    /// Accept one completed trace.
    fn accept(&self, trace: Trace);
}

/// Bounded in-memory ring of the most recent traces.
pub struct TraceRing {
    traces: Mutex<VecDeque<Trace>>,
    capacity: AtomicUsize,
}

impl TraceRing {
    /// A ring holding at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            traces: Mutex::new(VecDeque::new()),
            capacity: AtomicUsize::new(capacity),
        }
    }

    /// Change the capacity (the server's `--trace-ring` flag), trimming
    /// oldest traces if needed.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut traces = self.traces.lock();
        while traces.len() > capacity {
            traces.pop_front();
        }
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.traces.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the held traces, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        self.traces.lock().iter().cloned().collect()
    }
}

impl TraceSink for TraceRing {
    fn accept(&self, trace: Trace) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        let mut traces = self.traces.lock();
        while traces.len() >= capacity {
            traces.pop_front();
        }
        traces.push_back(trace);
    }
}

/// The process-global trace ring (default capacity 64; the server resizes
/// it from `--trace-ring`).
pub fn global_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(64))
}

/// Render a trace's span tree as indented text lines (the `TRACE` verb's
/// INFO payload and the slow-query log detail).
pub fn render_tree(trace: &Trace) -> Vec<String> {
    let mut lines = Vec::with_capacity(trace.spans.len());
    let mut depth_of: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for span in &trace.spans {
        let depth = span
            .parent
            .and_then(|p| depth_of.get(&p).copied())
            .map_or(0, |d| d + 1);
        depth_of.insert(span.id, depth);
        let mut line = format!(
            "{}{} {}us @{}us",
            "  ".repeat(depth),
            span.name,
            span.dur_us,
            span.start_us
        );
        if !span.attrs.is_empty() {
            line.push(' ');
            line.push_str(&span.attrs);
        }
        lines.push(line);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inert_without_a_collector() {
        let (spans, _) = take_collector();
        assert!(spans.is_empty());
        {
            let mut g = span("noop");
            g.attr("k", 1);
            assert!(!g.recording());
        }
        let (spans, _) = take_collector();
        assert!(spans.is_empty());
    }

    #[test]
    fn collector_reconstructs_the_span_tree() {
        install_collector(100);
        {
            let mut root = span("request");
            root.attr("verb", "QUERY");
            {
                let _child = span("materialize");
                let _grandchild = span("chase.round");
            }
            let _sibling = span("evaluate");
        }
        let (spans, total) = take_collector();
        assert_eq!(spans.len(), 4);
        // Spans finish in drop order; ids are in start order.
        let by_name: std::collections::HashMap<&str, &FinishedSpan> =
            spans.iter().map(|s| (s.name, s)).collect();
        let root = by_name["request"];
        assert_eq!(root.parent, None);
        assert!(root.attrs.contains("verb=QUERY"));
        assert_eq!(by_name["materialize"].parent, Some(root.id));
        assert_eq!(
            by_name["chase.round"].parent,
            Some(by_name["materialize"].id)
        );
        assert_eq!(by_name["evaluate"].parent, Some(root.id));
        assert!(total >= root.dur_us);
        assert!(!tracing_active());
    }

    #[test]
    fn span_limit_bounds_memory() {
        install_collector(2);
        for _ in 0..10 {
            let _s = span("s");
        }
        let (spans, _) = take_collector();
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn trace_ring_evicts_oldest() {
        let ring = TraceRing::new(2);
        for i in 0..4u64 {
            ring.accept(Trace {
                request_id: i,
                ..Trace::default()
            });
        }
        let held = ring.snapshot();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].request_id, 2);
        assert_eq!(held[1].request_id, 3);
        ring.set_capacity(1);
        assert_eq!(ring.len(), 1);
        ring.set_capacity(0);
        ring.accept(Trace::default());
        assert!(ring.is_empty());
    }

    #[test]
    fn render_tree_indents_children() {
        let trace = Trace {
            request_id: 1,
            tenant: "default".into(),
            verb: "QUERY".into(),
            total_us: 10,
            spans: vec![
                FinishedSpan {
                    id: 0,
                    parent: None,
                    name: "request",
                    attrs: "verb=QUERY".into(),
                    start_us: 0,
                    dur_us: 10,
                },
                FinishedSpan {
                    id: 1,
                    parent: Some(0),
                    name: "evaluate",
                    attrs: String::new(),
                    start_us: 2,
                    dur_us: 5,
                },
            ],
        };
        let lines = render_tree(&trace);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("request "));
        assert!(lines[0].contains("verb=QUERY"));
        assert!(lines[1].starts_with("  evaluate "));
    }
}
