//! The event-trace journal: a bounded per-thread event log behind the
//! aggregate probes.
//!
//! Where spans and op counters answer "how much, in total", the journal
//! answers "when, in what order, inside which phase": every span
//! open/close, every op-counter delta attributed to its enclosing span,
//! every wire message with label and byte count, and every injected fault
//! and retry becomes a timestamped [`Event`]. The exporters in
//! [`crate::export`] turn a captured [`Trace`] into a Perfetto/Chrome
//! `trace_event` JSON or a flamegraph folded-stack file.
//!
//! Design:
//!
//! * **Off by default.** [`set_tracing`] flips one global atomic; with it
//!   off, every hook is a single relaxed load and an early return, so the
//!   journal costs nothing on metered production paths.
//! * **Per-thread, lock-free recording.** Each thread appends to its own
//!   thread-local buffer — no shared-state synchronization on the hot
//!   path. Buffers drain into a global sink when a thread's outermost
//!   span closes (and at thread exit); [`take`] collects the sink.
//! * **Bounded.** Each thread records at most `SPFE_TRACE_CAP` events per
//!   measurement window (default `65536`, override with [`set_cap`]);
//!   past the cap the *earliest* events are kept — so the journal's
//!   prefix stays well-formed — and the overflow is counted in
//!   [`ThreadTrace::dropped`].
//! * **Span-attributed op deltas.** While tracing, [`crate::count`] adds
//!   into an accumulator frame for the innermost open span on the calling
//!   thread; the nonzero deltas are emitted as [`EventKind::OpDelta`]
//!   events immediately before the span's close. These are *self*
//!   tallies: a frame accrues only while its span is innermost, so
//!   per-span op flamegraphs add up without double counting. Counts on
//!   threads with no open span (e.g. pool workers) still reach the global
//!   counters but are not trace-attributed.
//!
//! Toggling [`set_tracing`] mid-span is supported but loses the events
//! from the off period; a span whose open was not traced does not emit a
//! close, so a captured trace is always structurally balanced per thread.

use crate::counter::Op;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread event cap per measurement window.
pub const DEFAULT_CAP: usize = 1 << 16;

/// Environment variable overriding [`DEFAULT_CAP`].
pub const CAP_ENV: &str = "SPFE_TRACE_CAP";

/// What one [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened; `label` is the span name.
    SpanOpen,
    /// A span closed; `label` is the span name.
    SpanClose,
    /// An op-counter delta for the span closing right after; `label` is
    /// the op name ([`crate::Op::name`]), `a` the delta.
    OpDelta,
    /// A heap-allocation delta for the span closing right after; `label`
    /// is [`crate::mem::ALLOCS_LABEL`] or [`crate::mem::ALLOC_BYTES_LABEL`],
    /// `a` the span's self delta. Only emitted under `obs-alloc`.
    MemDelta,
    /// A client→server message; `label` is the wire label, `a` the byte
    /// count, `b` the server index.
    WireUp,
    /// A server→client message; fields as for [`EventKind::WireUp`].
    WireDown,
    /// A transport fault injection; `label` is the fault class, `b` the
    /// server index.
    Fault,
    /// A delivery retry; `label` is the wire label, `a` the attempt
    /// number (1 = first retry), `b` the server index.
    Retry,
    /// A party's view was sealed (fingerprinted) by the leakage-audit
    /// layer; `label` is `"client"` or `"server"`, `a` the number of
    /// messages in the view, `b` the server index (0 for the client).
    ViewSeal,
    /// A networked session span opened on this party; `label` is the
    /// driver name (interned), `a` the session id, `b` the session mode
    /// (0 = relay, 1 = compute). Frame events that follow on the same
    /// thread belong to this session until the matching close.
    NetSessionOpen,
    /// The networked session span closed; fields as for
    /// [`EventKind::NetSessionOpen`].
    NetSessionClose,
    /// A session frame left this party, stamped by its Lamport clock;
    /// `label` is the frame label (interned), `a` the payload byte count,
    /// `b` packs `half_round << 32 | lamport`.
    NetSend,
    /// A session frame arrived at this party; fields as for
    /// [`EventKind::NetSend`], with `b` carrying the *receiver's* Lamport
    /// stamp (strictly greater than the sender's, by the clock's merge
    /// rule).
    NetRecv,
}

/// One timestamped journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Nanoseconds since the process trace epoch (monotone per thread).
    pub t_ns: u64,
    /// Span name, wire label, op name, or fault class (see [`EventKind`]).
    pub label: &'static str,
    /// First payload word (byte count, op delta, attempt — see the kind).
    pub a: u64,
    /// Second payload word (server index — see the kind).
    pub b: u64,
}

/// The journal of one thread over one measurement window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Stable per-process thread number (assignment order, not an OS id).
    pub thread: u64,
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events discarded after the cap was reached.
    pub dropped: u64,
}

/// Everything captured between two [`take`]/[`reset`] calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Per-thread journals, sorted by thread number.
    pub threads: Vec<ThreadTrace>,
    /// The per-thread cap that was in force.
    pub cap: usize,
}

impl Trace {
    /// Total events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped events across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
/// 0 = unset (resolve from the environment on first use).
static CAP: AtomicUsize = AtomicUsize::new(0);
/// Bumped by `take`/`reset`; thread-locals lazily discard stale state.
static GEN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Journals flushed from their owning threads, in flush order per
/// thread (appends keep each thread's internal order).
static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn resolve_cap() -> usize {
    let c = CAP.load(Ordering::Relaxed);
    if c != 0 {
        return c;
    }
    let c = std::env::var(CAP_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CAP);
    CAP.store(c, Ordering::Relaxed);
    c
}

const NUM_OPS: usize = Op::ALL.len();

struct Local {
    thread: u64,
    gen: u64,
    cap: usize,
    recorded: usize,
    dropped: u64,
    buf: Vec<Event>,
    /// One op-delta accumulator per open traced span, innermost last.
    frames: Vec<[u64; NUM_OPS]>,
}

impl Local {
    fn new() -> Local {
        Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            gen: 0, // stale on purpose: first touch syncs to GEN
            cap: DEFAULT_CAP,
            recorded: 0,
            dropped: 0,
            buf: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Discards state from a previous measurement window.
    fn sync(&mut self) {
        let g = GEN.load(Ordering::Relaxed);
        if self.gen != g {
            self.gen = g;
            self.cap = resolve_cap();
            self.recorded = 0;
            self.dropped = 0;
            self.buf.clear();
            self.frames.clear();
        }
    }

    fn push(&mut self, ev: Event) {
        if self.recorded < self.cap {
            self.buf.push(ev);
            self.recorded += 1;
        } else {
            self.dropped += 1;
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() && self.dropped == 0 {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        let entry = match sink.iter_mut().find(|t| t.thread == self.thread) {
            Some(t) => t,
            None => {
                sink.push(ThreadTrace {
                    thread: self.thread,
                    ..ThreadTrace::default()
                });
                sink.last_mut().unwrap()
            }
        };
        entry.events.append(&mut self.buf);
        entry.dropped += std::mem::take(&mut self.dropped);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: whatever this thread recorded reaches the sink
        // even if no outermost span closed (only if still current).
        if self.gen == GEN.load(Ordering::Relaxed) {
            self.flush();
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

fn with_local(f: impl FnOnce(&mut Local)) {
    // Ignore accesses during thread teardown (the destructor already
    // flushed; late probes have nowhere coherent to record).
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        l.sync();
        f(&mut l);
    });
}

/// Whether event recording is currently switched on.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Switches event recording on or off (off at process start).
pub fn set_tracing(on: bool) {
    if on {
        // Pin the epoch and cap before the first event needs them.
        let _ = epoch();
        let _ = resolve_cap();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Overrides the per-thread event cap (normally `SPFE_TRACE_CAP`).
pub fn set_cap(cap: usize) {
    CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The per-thread event cap currently in force.
pub fn cap() -> usize {
    resolve_cap()
}

pub(crate) fn on_span_open(name: &'static str) {
    if !tracing() {
        return;
    }
    with_local(|l| {
        l.frames.push([0; NUM_OPS]);
        l.push(Event {
            kind: EventKind::SpanOpen,
            t_ns: now_ns(),
            label: name,
            a: 0,
            b: 0,
        });
    });
}

pub(crate) fn on_span_close(name: &'static str, mem: crate::mem::MemDelta) {
    if !tracing() {
        return;
    }
    with_local(|l| {
        // No frame ⇒ the open predated tracing; skip the close so the
        // captured journal stays balanced.
        let Some(frame) = l.frames.pop() else {
            return;
        };
        let t_ns = now_ns();
        for op in Op::ALL {
            let delta = frame[op as usize];
            if delta > 0 {
                l.push(Event {
                    kind: EventKind::OpDelta,
                    t_ns,
                    label: op.name(),
                    a: delta,
                    b: 0,
                });
            }
        }
        for (label, delta) in [
            (crate::mem::ALLOCS_LABEL, mem.allocs),
            (crate::mem::ALLOC_BYTES_LABEL, mem.alloc_bytes),
        ] {
            if delta > 0 {
                l.push(Event {
                    kind: EventKind::MemDelta,
                    t_ns,
                    label,
                    a: delta,
                    b: 0,
                });
            }
        }
        l.push(Event {
            kind: EventKind::SpanClose,
            t_ns,
            label: name,
            a: 0,
            b: 0,
        });
        if l.frames.is_empty() {
            l.flush();
        }
    });
}

#[inline]
pub(crate) fn on_op(op: Op, n: u64) {
    with_local(|l| {
        if let Some(frame) = l.frames.last_mut() {
            let slot = &mut frame[op as usize];
            *slot = slot.saturating_add(n);
        }
    });
}

fn record(kind: EventKind, label: &'static str, a: u64, b: u64) {
    with_local(|l| {
        l.push(Event {
            kind,
            t_ns: now_ns(),
            label,
            a,
            b,
        });
    });
}

/// Drains everything recorded since the last [`take`]/[`reset`] (flushing
/// the calling thread first) and starts a new measurement window.
pub fn take() -> Trace {
    // Flush the calling thread so a single-threaded capture is
    // complete even while its outermost span is still open elsewhere
    // in the call stack.
    with_local(Local::flush);
    let mut threads = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    let cap = resolve_cap();
    GEN.fetch_add(1, Ordering::Relaxed);
    threads.sort_by_key(|t| t.thread);
    Trace { threads, cap }
}

/// Discards everything recorded so far and starts a new window.
pub fn reset() {
    SINK.lock().unwrap_or_else(|e| e.into_inner()).clear();
    GEN.fetch_add(1, Ordering::Relaxed);
}

/// Interns a runtime string as a journal label. The networked paths
/// see driver names and wire labels as runtime strings (decoded from
/// frames), while the journal stores `&'static str`; each distinct
/// label is therefore leaked exactly once. The set is tiny — driver
/// names plus protocol labels — and only grows while tracing is on.
fn intern(s: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut set = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = set.iter().find(|k| **k == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.push(leaked);
    leaked
}

/// Records a wire message event (`up` = client→server). Called by the
/// transport meter; a no-op unless tracing is on.
#[inline]
pub fn wire_event(up: bool, server: usize, label: &'static str, bytes: u64) {
    if !tracing() {
        return;
    }
    let kind = if up {
        EventKind::WireUp
    } else {
        EventKind::WireDown
    };
    record(kind, label, bytes, server as u64);
}

/// Records a fault-injection event. Called by `FaultyChannel`; a no-op
/// unless tracing is on.
#[inline]
pub fn fault_event(action: &'static str, server: usize) {
    if !tracing() {
        return;
    }
    record(EventKind::Fault, action, 0, server as u64);
}

/// Records a delivery-retry event (`attempt` = 1 for the first retry).
/// Called by the transport retry loop; a no-op unless tracing is on.
#[inline]
pub fn retry_event(label: &'static str, server: usize, attempt: u64) {
    if !tracing() {
        return;
    }
    record(EventKind::Retry, label, attempt, server as u64);
}

/// Records a view-seal event: the leakage-audit layer fingerprinted one
/// party's view of `events` messages. A no-op unless tracing is on.
#[inline]
pub fn view_event(party_is_client: bool, server: usize, events: u64) {
    if !tracing() {
        return;
    }
    let label = if party_is_client { "client" } else { "server" };
    record(EventKind::ViewSeal, label, events, server as u64);
}

/// Records a networked session span opening or closing on this party.
/// `mode` is the session-mode byte from the Hello frame (0 = relay,
/// 1 = compute). Frame events recorded afterwards on the same thread
/// belong to this session until the matching close, which is how the
/// cross-process merge (`spfe-tables net-trace --merge`) attributes them.
/// A no-op unless tracing is on.
#[inline]
pub fn net_session_event(open: bool, session: u64, driver: &str, mode: u8) {
    if !tracing() {
        return;
    }
    let kind = if open {
        EventKind::NetSessionOpen
    } else {
        EventKind::NetSessionClose
    };
    record(kind, intern(driver), session, u64::from(mode));
}

/// Records a stamped session-frame event: `send` for a frame leaving this
/// party, receive otherwise. `lamport` is this party's Lamport stamp for
/// the event (ticked on send, merged on receive, so a matched receive is
/// always strictly greater than its send). A no-op unless tracing is on.
#[inline]
pub fn net_frame_event(send: bool, label: &str, bytes: u64, half_round: u32, lamport: u32) {
    if !tracing() {
        return;
    }
    let kind = if send {
        EventKind::NetSend
    } else {
        EventKind::NetRecv
    };
    let b = (u64::from(half_round) << 32) | u64::from(lamport);
    record(kind, intern(label), bytes, b);
}

/// Unpacks the `b` word of a [`EventKind::NetSend`]/[`EventKind::NetRecv`]
/// event into `(half_round, lamport)`.
#[must_use]
pub fn unpack_net_stamp(b: u64) -> (u32, u32) {
    ((b >> 32) as u32, b as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, span, Op};

    fn capture(f: impl FnOnce()) -> Trace {
        let _g = crate::test_guard();
        reset();
        set_cap(DEFAULT_CAP);
        set_tracing(true);
        f();
        let trace = take();
        set_tracing(false);
        trace
    }

    fn my_events(trace: &Trace) -> Vec<Event> {
        // The capture ran on this thread; other threads are empty unless
        // the closure spawned workers.
        let mut all: Vec<Event> = Vec::new();
        for t in &trace.threads {
            all.extend(t.events.iter().copied());
        }
        all
    }

    #[test]
    fn spans_emit_balanced_events_with_op_deltas() {
        let trace = capture(|| {
            let _outer = span("t-outer");
            count(Op::Modexp, 3);
            {
                let _inner = span("t-inner");
                count(Op::Modexp, 2);
                count(Op::HomAdd, 5);
            }
            count(Op::Modexp, 1);
        });
        let evs = my_events(&trace);
        let opens = evs.iter().filter(|e| e.kind == EventKind::SpanOpen).count();
        let closes = evs
            .iter()
            .filter(|e| e.kind == EventKind::SpanClose)
            .count();
        assert_eq!(opens, 2);
        assert_eq!(closes, 2);
        // Inner span self-attributes its own counts...
        let inner_deltas: Vec<_> = evs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EventKind::OpDelta)
            .collect();
        assert_eq!(inner_deltas.len(), 3, "{evs:?}");
        let inner_modexp = evs
            .iter()
            .find(|e| e.kind == EventKind::OpDelta && e.label == "modexp" && e.a == 2);
        assert!(inner_modexp.is_some(), "inner span modexp delta of 2");
        // ...and the outer span keeps only its own 3 + 1.
        let outer_modexp = evs
            .iter()
            .find(|e| e.kind == EventKind::OpDelta && e.label == "modexp" && e.a == 4);
        assert!(outer_modexp.is_some(), "outer span self-delta of 4");
        let hom = evs
            .iter()
            .find(|e| e.kind == EventKind::OpDelta && e.label == "hom_add");
        assert_eq!(hom.map(|e| e.a), Some(5));
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let trace = capture(|| {
            for _ in 0..5 {
                let _s = span("t-mono");
                count(Op::HomAdd, 1);
            }
        });
        for t in &trace.threads {
            for w in t.events.windows(2) {
                assert!(w[0].t_ns <= w[1].t_ns, "{w:?}");
            }
        }
    }

    #[test]
    fn cap_keeps_earliest_events_and_counts_drops() {
        let _g = crate::test_guard();
        reset();
        set_cap(8);
        set_tracing(true);
        for _ in 0..50 {
            let _s = span("t-cap");
        }
        let trace = take();
        set_tracing(false);
        set_cap(DEFAULT_CAP);
        assert_eq!(trace.cap, 8);
        assert_eq!(trace.total_events(), 8, "earliest events kept");
        assert_eq!(trace.total_dropped(), 92, "2 per span × 50 − 8");
        // The kept prefix is still balanced-or-open, never close-heavy.
        let evs = my_events(&trace);
        let mut depth = 0i64;
        for e in &evs {
            match e.kind {
                EventKind::SpanOpen => depth += 1,
                EventKind::SpanClose => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "{evs:?}");
        }
    }

    #[test]
    fn wire_fault_retry_events_record_payloads() {
        let trace = capture(|| {
            let _s = span("t-wire");
            wire_event(true, 2, "q", 128);
            wire_event(false, 2, "a", 256);
            fault_event("drop", 1);
            retry_event("q", 1, 1);
        });
        let evs = my_events(&trace);
        let up = evs.iter().find(|e| e.kind == EventKind::WireUp).unwrap();
        assert_eq!((up.label, up.a, up.b), ("q", 128, 2));
        let down = evs.iter().find(|e| e.kind == EventKind::WireDown).unwrap();
        assert_eq!((down.label, down.a, down.b), ("a", 256, 2));
        let fault = evs.iter().find(|e| e.kind == EventKind::Fault).unwrap();
        assert_eq!((fault.label, fault.b), ("drop", 1));
        let retry = evs.iter().find(|e| e.kind == EventKind::Retry).unwrap();
        assert_eq!((retry.label, retry.a, retry.b), ("q", 1, 1));
    }

    #[test]
    fn net_events_record_session_and_stamp_payloads() {
        let trace = capture(|| {
            net_session_event(true, 42, &String::from("toy-driver"), 1);
            net_frame_event(true, &String::from("toy-q"), 128, 1, 7);
            net_frame_event(false, "toy-a", 256, 2, 9);
            net_session_event(false, 42, "toy-driver", 1);
        });
        let evs = my_events(&trace);
        let open = evs
            .iter()
            .find(|e| e.kind == EventKind::NetSessionOpen)
            .unwrap();
        assert_eq!((open.label, open.a, open.b), ("toy-driver", 42, 1));
        let close = evs
            .iter()
            .find(|e| e.kind == EventKind::NetSessionClose)
            .unwrap();
        // Interning is by content: the runtime String and the literal
        // resolve to the same static label.
        assert!(std::ptr::eq(open.label, close.label));
        let send = evs.iter().find(|e| e.kind == EventKind::NetSend).unwrap();
        assert_eq!((send.label, send.a), ("toy-q", 128));
        assert_eq!(unpack_net_stamp(send.b), (1, 7));
        let recv = evs.iter().find(|e| e.kind == EventKind::NetRecv).unwrap();
        assert_eq!((recv.label, recv.a), ("toy-a", 256));
        assert_eq!(unpack_net_stamp(recv.b), (2, 9));
    }

    #[test]
    fn tracing_off_records_nothing() {
        let _g = crate::test_guard();
        reset();
        assert!(!tracing());
        {
            let _s = span("t-off");
            count(Op::Modexp, 1);
            wire_event(true, 0, "q", 8);
        }
        assert_eq!(take().total_events(), 0);
    }

    #[test]
    fn worker_threads_journal_separately() {
        let trace = capture(|| {
            let _outer = span("t-main");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span("t-worker");
                });
            });
        });
        assert!(trace.threads.len() >= 2, "{trace:?}");
        let worker = trace
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.label == "t-worker"))
            .expect("worker journal present");
        assert!(worker.events.iter().all(|e| e.label != "t-main"));
    }

    #[test]
    fn reset_discards_and_take_starts_a_new_window() {
        let _g = crate::test_guard();
        reset();
        set_tracing(true);
        {
            let _s = span("t-w1");
        }
        reset();
        {
            let _s = span("t-w2");
        }
        let trace = take();
        set_tracing(false);
        let evs = my_events(&trace);
        assert!(evs.iter().all(|e| e.label != "t-w1"), "{evs:?}");
        assert_eq!(
            evs.iter().filter(|e| e.label == "t-w2").count(),
            2,
            "{evs:?}"
        );
        assert_eq!(take().total_events(), 0, "take drained the sink");
    }
}
