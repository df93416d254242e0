//! Hierarchical wall-clock spans for protocol phases.
//!
//! [`span`] returns a guard; the time between creation and drop is added
//! to a process-global aggregate keyed by the span's full path — the
//! `/`-joined names of the enclosing spans *on the same thread* plus its
//! own. Worker threads start fresh paths (the pool does not inherit the
//! caller's stack), which keeps the model race-free and cheap; protocol
//! drivers time their phases on the orchestrating thread.

/// Aggregate for one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Full `/`-joined path, e.g. `"spir/server-scan"`.
    pub path: String,
    /// Number of completed spans at this path.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those calls.
    pub ns: u64,
    /// Median per-call duration (log-bucket upper bound clamped into the
    /// sampled range, see [`crate::histo`]).
    pub p50_ns: u64,
    /// 95th-percentile per-call duration (same estimate).
    pub p95_ns: u64,
    /// 99th-percentile per-call duration (same estimate).
    pub p99_ns: u64,
    /// Heap allocations attributed to this path itself (children
    /// excluded); zero unless built with `obs-alloc` (see [`crate::mem`]).
    pub allocs: u64,
    /// Heap bytes attributed to this path itself (children excluded).
    pub alloc_bytes: u64,
    /// Maximum live-heap gauge observed while a span at this path was
    /// open (children included), over all calls.
    pub peak_live_bytes: u64,
}

use crate::histo::Histo;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// The active span names on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Per-path aggregate held in the registry.
#[derive(Default)]
struct Agg {
    calls: u64,
    ns: u64,
    histo: Histo,
    allocs: u64,
    alloc_bytes: u64,
    peak_live_bytes: u64,
}

/// `path → aggregate`.
static REGISTRY: Mutex<BTreeMap<String, Agg>> = Mutex::new(BTreeMap::new());

/// RAII guard returned by [`span`]; dropping it records the elapsed time.
pub struct SpanGuard {
    path: String,
    name: &'static str,
    start: Instant,
}

/// Opens a span named `name` nested under the thread's current span path.
///
/// Hold the guard for the duration of the phase:
///
/// ```
/// let _scan = spfe_obs::span("server-scan");
/// // ... the Ω(n) work ...
/// ```
#[must_use = "the span measures until the guard drops"]
pub fn span(name: &str) -> SpanGuard {
    // Interning, path building, the stack push and the trace buffer
    // are instrumentation bookkeeping with warmup-dependent
    // allocation patterns (first call interns, first event grows the
    // buffer); pause the heap tallies so measured spans stay
    // bit-identical across reruns (DESIGN.md §12).
    let paused = crate::mem::pause();
    let name = intern(name);
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let mut path = String::new();
        for seg in stack.iter() {
            path.push_str(seg);
            path.push('/');
        }
        path.push_str(name);
        stack.push(name);
        path
    });
    crate::trace::on_span_open(name);
    drop(paused);
    crate::mem::frame_open();
    SpanGuard {
        path,
        name,
        start: Instant::now(),
    }
}

/// Interns a span name (the vocabulary is a few dozen phase labels, so
/// the leaked cache stays tiny and makes the hot path allocation-free
/// for repeated spans).
fn intern(name: &str) -> &'static str {
    static CACHE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = cache.iter().find(|s| **s == name) {
        return hit;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    cache.push(leaked);
    leaked
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mem = crate::mem::frame_close();
        // From here on everything is bookkeeping charged to no span:
        // the trace buffer and registry allocate on first use, which
        // must not skew the parent frame (see `span`).
        let _paused = crate::mem::pause();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::trace::on_span_close(self.name, mem);
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let entry = reg.entry(std::mem::take(&mut self.path)).or_default();
        entry.calls += 1;
        entry.ns = entry.ns.saturating_add(ns);
        entry.histo.record(ns);
        entry.allocs = entry.allocs.saturating_add(mem.allocs);
        entry.alloc_bytes = entry.alloc_bytes.saturating_add(mem.alloc_bytes);
        entry.peak_live_bytes = entry.peak_live_bytes.max(mem.peak_live_bytes);
    }
}

/// All span aggregates, sorted by path.
pub fn spans_snapshot() -> Vec<SpanStat> {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(path, agg)| SpanStat {
            path: path.clone(),
            calls: agg.calls,
            ns: agg.ns,
            p50_ns: agg.histo.p50(),
            p95_ns: agg.histo.p95(),
            p99_ns: agg.histo.p99(),
            allocs: agg.allocs,
            alloc_bytes: agg.alloc_bytes,
            peak_live_bytes: agg.peak_live_bytes,
        })
        .collect()
}

/// Clears all span aggregates (start of a measurement window).
pub fn reset_spans() {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span tests share the global registry; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::test_guard()
    }

    fn get(snapshot: &[SpanStat], path: &str) -> Option<(u64, u64)> {
        snapshot
            .iter()
            .find(|s| s.path == path)
            .map(|s| (s.calls, s.ns))
    }

    #[test]
    fn nesting_builds_slash_paths() {
        let _l = lock();
        reset_spans();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _outer = span("outer");
        }
        let snap = spans_snapshot();
        assert_eq!(get(&snap, "outer").map(|(c, _)| c), Some(2));
        assert_eq!(get(&snap, "outer/inner").map(|(c, _)| c), Some(1));
        assert!(get(&snap, "inner").is_none());
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let _l = lock();
        reset_spans();
        {
            let _a = span("a");
        }
        {
            let _b = span("b");
        }
        let snap = spans_snapshot();
        assert!(get(&snap, "a").is_some());
        assert!(get(&snap, "b").is_some());
        assert!(get(&snap, "a/b").is_none());
    }

    #[test]
    fn threads_have_independent_stacks() {
        let _l = lock();
        reset_spans();
        let _outer = span("main-outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = span("worker-span");
            });
        });
        drop(_outer);
        let snap = spans_snapshot();
        assert!(get(&snap, "worker-span").is_some());
        assert!(get(&snap, "main-outer/worker-span").is_none());
    }

    #[test]
    fn time_accumulates() {
        let _l = lock();
        reset_spans();
        for _ in 0..3 {
            let _g = span("timed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = spans_snapshot();
        let (calls, ns) = get(&snap, "timed").unwrap();
        assert_eq!(calls, 3);
        assert!(ns >= 3 * 2_000_000, "ns={ns}");
        let stat = snap.iter().find(|s| s.path == "timed").unwrap();
        assert!(stat.p50_ns >= 2_000_000, "p50={}", stat.p50_ns);
        assert!(stat.p95_ns >= stat.p50_ns);
        assert!(stat.p99_ns >= stat.p95_ns);
    }

    #[test]
    fn single_call_quantiles_are_its_duration() {
        let _l = lock();
        reset_spans();
        {
            let _g = span("once");
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let snap = spans_snapshot();
        let stat = snap.iter().find(|s| s.path == "once").unwrap();
        assert_eq!(stat.calls, 1);
        assert_eq!(
            (stat.p50_ns, stat.p95_ns, stat.p99_ns),
            (stat.ns, stat.ns, stat.ns),
            "one call reports its own duration, not the bucket ceiling"
        );
    }

    #[test]
    fn reset_clears() {
        let _l = lock();
        reset_spans();
        {
            let _g = span("gone");
        }
        assert!(!spans_snapshot().is_empty());
        reset_spans();
        assert!(spans_snapshot().is_empty());
    }
}
