//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's files around each call into a layer:
//! request → session → core call, plus kernel calls on their own. They are
//! kept in memory and written out once, at exit, as a Chrome trace-event
//! file (loadable in Perfetto). With tracing off, [`Tracer::span`] is a
//! plain call.

use spfe_transport::{ClientCore, OutMsg, ProtocolError, SessionCore, SessionState};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span's id on the same thread, 0 for a root.
    pub parent: u64,
    /// The request every span of one request shares.
    pub request: u64,
    /// Layer-boundary name, e.g. `core.server.on_message`.
    pub name: &'static str,
    /// Free detail, e.g. the driver name of a network session.
    pub tag: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Open spans on this thread: `(id, request)`, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; with `enabled == false` every span is a plain call.
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Runs `f` inside a root span of request `request`.
    pub fn request<R>(&self, request: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(Some(request), name, "", f)
    }

    /// Runs `f` inside a span nested in this thread's innermost open span
    /// (and sharing its request).
    pub fn span<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(None, name, tag, f)
    }

    fn record<R>(
        &self,
        request: Option<u64>,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, request) = OPEN.with(|open| {
            let open = open.borrow();
            let (parent, inherited) = open.last().copied().unwrap_or((0, 0));
            (parent, request.unwrap_or(inherited))
        });
        OPEN.with(|open| open.borrow_mut().push((id, request)));
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            request,
            name,
            tag,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as Chrome trace-event JSON (one thread lane per
    /// request).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.tag,
                s.request,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Per-request views over a set of spans.
#[derive(Debug)]
pub struct SpanIndex {
    spans: Vec<Span>,
    children_ms: BTreeMap<u64, f64>,
}

impl SpanIndex {
    /// Indexes `spans` (and how much of each span its children cover).
    pub fn new(spans: Vec<Span>) -> SpanIndex {
        let mut children_ms = BTreeMap::new();
        for s in &spans {
            *children_ms.entry(s.parent).or_insert(0.0) += s.ms();
        }
        SpanIndex { spans, children_ms }
    }

    /// For every request that has spans named one of `names` (with tag
    /// `tag`, if given), the sum of their durations in milliseconds, in
    /// request order.
    pub fn per_request(&self, names: &[&str], tag: Option<&str>) -> Vec<f64> {
        self.fold(names, tag, Span::ms)
    }

    /// Like [`SpanIndex::per_request`], but summing self time: each span's
    /// duration minus the part its direct children cover.
    pub fn self_per_request(&self, names: &[&str], tag: Option<&str>) -> Vec<f64> {
        self.fold(names, tag, |s| {
            s.ms() - self.children_ms.get(&s.id).copied().unwrap_or(0.0)
        })
    }

    fn fold(&self, names: &[&str], tag: Option<&str>, f: impl Fn(&Span) -> f64) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if names.contains(&s.name) && tag.is_none_or(|t| s.tag == t) {
                *by_request.entry(s.request).or_insert(0.0) += f(s);
            }
        }
        by_request.into_values().collect()
    }
}

/// A client core whose every call runs inside a span.
pub struct TracedClient<'a> {
    /// The wrapped core.
    pub inner: &'a mut dyn ClientCore,
    /// The recorder.
    pub tracer: &'a Tracer,
}

impl SessionCore for TracedClient<'_> {
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let inner = &mut self.inner;
        self.tracer.span("core.client.start", "", || inner.start())
    }

    fn on_message(
        &mut self,
        half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let inner = &mut self.inner;
        self.tracer.span("core.client.on_message", "", || {
            inner.on_message(half_round, server, label, payload)
        })
    }
}

impl ClientCore for TracedClient<'_> {
    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.inner.static_label(label)
    }
}

/// A server core whose every call runs inside a span.
pub struct TracedServer {
    inner: Box<dyn SessionCore + Send>,
    tracer: Arc<Tracer>,
}

impl TracedServer {
    /// Wraps each of `cores`.
    pub fn wrap(
        cores: Vec<Box<dyn SessionCore + Send>>,
        tracer: &Arc<Tracer>,
    ) -> Vec<Box<dyn SessionCore + Send>> {
        cores
            .into_iter()
            .map(|inner| {
                Box::new(TracedServer {
                    inner,
                    tracer: Arc::clone(tracer),
                }) as Box<dyn SessionCore + Send>
            })
            .collect()
    }
}

impl SessionCore for TracedServer {
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let inner = &mut self.inner;
        self.tracer.span("core.server.start", "", || inner.start())
    }

    fn on_message(
        &mut self,
        half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let inner = &mut self.inner;
        self.tracer.span("core.server.on_message", "", || {
            inner.on_message(half_round, server, label, payload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_request_and_link_parents() {
        let t = Tracer::new(true);
        t.request(7, "request", || {
            t.span("outer", "x", || t.span("inner", "", || ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 7));
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("inner").parent, by("outer").id);
        assert_eq!(by("outer").parent, by("request").id);
        assert_eq!(by("request").parent, 0);
        let idx = SpanIndex::new(spans);
        assert_eq!(idx.per_request(&["outer"], Some("x")).len(), 1);
        assert!(idx.per_request(&["outer"], Some("y")).is_empty());
        let own = idx.self_per_request(&["outer"], None)[0];
        let both = idx.per_request(&["outer", "inner"], None)[0];
        assert!(own >= 0.0 && own <= idx.per_request(&["outer"], None)[0]);
        assert!(both >= idx.per_request(&["outer"], None)[0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.request(1, "request", || t.span("s", "", || 5)), 5);
        assert!(t.spans().is_empty());
    }
}
