//! Trace conformance suite: every protocol driver's event journal is
//! well-formed (DESIGN.md §11).
//!
//! The driver table lives in `tests/common/mod.rs` (shared with the
//! adversarial suite). For each driver, the journal captured around an
//! end-to-end run must satisfy:
//!
//! * **balance** — span open/close events nest as a well-bracketed stack
//!   per thread, with matching labels, and no span is left open;
//! * **monotonicity** — per-thread timestamps never go backwards;
//! * **attribution** — every wire send/receive (and every op delta) falls
//!   inside some open span, so exporters can always attribute cost;
//! * these hold at `SPFE_THREADS=1` and `4`, and under fault injection
//!   (scripted drops and a seeded mixed plan), where the journal must
//!   additionally carry the fault and retry events.
//!
//! The journal is process-global, so the tests in this binary serialize
//! on a local lock. The adversarial suite runs in a separate process and
//! never enables tracing, so the two cannot interfere.

mod common;

use common::*;
use spfe::math::par;
use spfe::obs::trace::{self, EventKind, Trace};
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel, ProtocolError};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the global worker-thread override when a test exits (even by
/// panic), so a failure doesn't leak its thread count into later tests.
struct ThreadsGuard;

impl ThreadsGuard {
    fn set(n: usize) -> ThreadsGuard {
        par::set_threads(Some(n));
        ThreadsGuard
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        par::set_threads(None);
    }
}

/// Runs one driver under tracing and returns its journal plus the
/// protocol outcome.
fn capture(d: &Driver, plan: FaultPlan, tolerance: usize) -> (Trace, Result<u64, ProtocolError>) {
    spfe::obs::reset();
    trace::reset();
    trace::set_tracing(true);
    let mut ch = FaultyChannel::new(d.servers, plan, tolerance);
    let got = (d.run)(&mut ch);
    trace::set_tracing(false);
    (trace::take(), got)
}

/// Checks the three conformance properties on every thread of `tr`;
/// returns the total number of wire events observed.
fn assert_well_formed(name: &str, ctx: &str, tr: &Trace) -> usize {
    assert!(tr.total_events() > 0, "[{name} × {ctx}] empty trace");
    assert_eq!(tr.total_dropped(), 0, "[{name} × {ctx}] events dropped");
    let mut wires = 0;
    for th in &tr.threads {
        let mut stack: Vec<&str> = Vec::new();
        let mut last = 0u64;
        for ev in &th.events {
            assert!(
                ev.t_ns >= last,
                "[{name} × {ctx}] thread {}: time went backwards at '{}' \
                 ({} < {last})",
                th.thread,
                ev.label,
                ev.t_ns,
            );
            last = ev.t_ns;
            match ev.kind {
                EventKind::SpanOpen => stack.push(ev.label),
                EventKind::SpanClose => {
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!(
                            "[{name} × {ctx}] thread {}: close '{}' without open",
                            th.thread, ev.label
                        )
                    });
                    assert_eq!(
                        open, ev.label,
                        "[{name} × {ctx}] thread {}: mismatched close",
                        th.thread
                    );
                }
                EventKind::OpDelta => {
                    assert!(
                        !stack.is_empty(),
                        "[{name} × {ctx}] thread {}: op delta '{}' outside any span",
                        th.thread,
                        ev.label
                    );
                    assert!(ev.a > 0, "[{name} × {ctx}] zero-valued op delta");
                }
                EventKind::WireUp | EventKind::WireDown => {
                    wires += 1;
                    assert!(
                        !stack.is_empty(),
                        "[{name} × {ctx}] thread {}: wire event '{}' outside any span",
                        th.thread,
                        ev.label
                    );
                }
                EventKind::MemDelta => {
                    assert!(
                        !stack.is_empty(),
                        "[{name} × {ctx}] thread {}: mem delta '{}' outside any span",
                        th.thread,
                        ev.label
                    );
                    assert!(ev.a > 0, "[{name} × {ctx}] zero-valued mem delta");
                }
                // Net-session events (DESIGN.md §17) are slices of their
                // own, not spans: tests/net_trace.rs pins their shape.
                EventKind::Fault
                | EventKind::Retry
                | EventKind::ViewSeal
                | EventKind::NetSessionOpen
                | EventKind::NetSessionClose
                | EventKind::NetSend
                | EventKind::NetRecv => {}
            }
        }
        assert!(
            stack.is_empty(),
            "[{name} × {ctx}] thread {}: unclosed spans {stack:?}",
            th.thread
        );
    }
    wires
}

#[test]
fn every_driver_trace_is_well_formed_single_threaded() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    for d in drivers() {
        let (tr, got) = capture(&d, FaultPlan::honest(), 0);
        assert_eq!(got, Ok(d.expect), "[{}] honest run under tracing", d.name);
        let wires = assert_well_formed(d.name, "threads=1", &tr);
        assert!(
            wires >= 2,
            "[{}] at least one query/answer pair journalled, got {wires}",
            d.name
        );
    }
}

#[test]
fn every_driver_trace_is_well_formed_with_four_worker_threads() {
    let _g = lock();
    let _t = ThreadsGuard::set(4);
    for d in drivers() {
        let (tr, got) = capture(&d, FaultPlan::honest(), 0);
        assert_eq!(got, Ok(d.expect), "[{}] honest run, 4 threads", d.name);
        let wires = assert_well_formed(d.name, "threads=4", &tr);
        assert!(wires >= 2, "[{}] wire events journalled", d.name);
    }
}

#[test]
fn scripted_drops_journal_fault_and_retry_events() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    for d in drivers() {
        // Drop the first delivery: the bounded retry masks it, and the
        // journal must carry both the injection and the re-send.
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Drop)]);
        let (tr, got) = capture(&d, plan, 2);
        assert_eq!(got, Ok(d.expect), "[{}] masked drop under tracing", d.name);
        assert_well_formed(d.name, "drop@0", &tr);
        let events: Vec<_> = tr.threads.iter().flat_map(|t| &t.events).collect();
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Fault && e.label == "drop"),
            "[{}] drop injection not journalled",
            d.name
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Retry && e.a == 1),
            "[{}] first retry not journalled",
            d.name
        );
    }
}

#[test]
fn seeded_mixed_faults_keep_the_trace_well_formed() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    use FaultAction::*;
    let seed = FaultPlan::seed_from_env(0x7EA5E);
    let rates = vec![(Drop, 60), (Delay(1), 60), (Duplicate, 60), (Reorder, 40)];
    for d in drivers() {
        let (tr, got) = capture(&d, FaultPlan::mixed(seed, rates.clone()), 3);
        // All classes in the mix are masked; a seed may still exhaust the
        // retry budget, which is a typed transient outcome — but whatever
        // happened on the wire, the journal must stay well-formed.
        if let Err(e) = &got {
            assert!(
                e.is_transient() || matches!(e, ProtocolError::RetriesExhausted { .. }),
                "[{}] unexpected error class under seed {seed:#x}: {e:?}",
                d.name
            );
        }
        assert_well_formed(d.name, "mixed-seed", &tr);
    }
}

#[test]
fn trace_window_isolation_between_captures() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    let table = drivers();
    let d = table.iter().find(|d| d.name == "hom_pir").unwrap();

    // Two identical captures: the second journal must not contain
    // residue from the first (generation bump discards stale buffers).
    let (a, _) = capture(d, FaultPlan::honest(), 0);
    let (b, _) = capture(d, FaultPlan::honest(), 0);
    assert_eq!(a.total_events(), b.total_events(), "windows leak events");

    // Events recorded while tracing is off never surface later.
    trace::reset();
    let mut ch = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
    let _ = (d.run)(&mut ch);
    assert_eq!(trace::take().total_events(), 0, "untraced run journalled");
}

/// The cored protocols run as `pump` over their sans-io cores, and the
/// phase spans live in those cores: one in-process run of each must still
/// record its protocol span with the query-generation, per-server and
/// reconstruction phases nested under it (one server span per server).
#[test]
fn cored_runs_keep_their_phase_spans() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    for (name, proto, server_phase) in [
        ("xor2", "pir2", "server-scan"),
        ("hom_pir", "hompir", "server-scan"),
        ("recursive", "recpir", "server-scan"),
        ("spir", "spir", "server-scan"),
        ("batched", "batched", "server-scan"),
        ("poly_it", "polyit", "server-scan"),
        ("multiserver", "multiserver", "server-eval"),
        ("input_select", "select1", "server-scan"),
        ("input_select", "open-sum", "server-eval"),
        ("psm_spfe", "psm-yao", "server-eval"),
        ("weighted_sum", "weighted-sum", "server-eval"),
    ] {
        let d = drivers().into_iter().find(|d| d.name == name).unwrap();
        spfe::obs::reset();
        let mut ch = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
        assert_eq!((d.run)(&mut ch), Ok(d.expect), "[{name}] honest run");
        let spans = spfe::obs::spans_snapshot();
        let calls: Vec<(&str, u64)> = spans.iter().map(|s| (s.path.as_str(), s.calls)).collect();
        for (phase, want) in [
            (String::new(), 1),
            ("/query-gen".to_owned(), 1),
            (format!("/{server_phase}"), d.servers as u64),
            ("/reconstruct".to_owned(), 1),
        ] {
            let path = format!("{proto}{phase}");
            assert!(
                calls.contains(&(&path, want)),
                "[{name}] {path} × {want}: {calls:?}"
            );
        }
    }
}
