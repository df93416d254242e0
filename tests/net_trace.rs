//! Distributed session tracing (DESIGN.md §17) and the one-record rule:
//! each party journals each message once, at the one boundary it
//! crosses.
//!
//! * In process, [`pump`] and every typed send deliver through
//!   `deliver_with_retry`, which journals one `WireUp`/`WireDown` per
//!   delivered message — one per transcript record, for every driver,
//!   and the same events under the masked audit fault seeds as in the
//!   honest run.
//! * Over TCP the client journals one Lamport-stamped `NetSend`/`NetRecv`
//!   per frame and the server one per frame it meters, and a genuine
//!   loopback run of two drivers, at `SPFE_THREADS` 1 and 4, yields
//!   client and server journals that `spfe_bench::nettrace` merges into
//!   one causally consistent timeline: the cross-process gate the CI
//!   smoke stage also runs over the real binaries.

mod common;
use common::*;

use spfe::transport::frame::{read_frame, write_frame};
use spfe::transport::{
    pump, Direction, FaultAction, FaultPlan, FaultyChannel, Frame, FrameKind, SessionMode,
    Transcript,
};
use spfe_bench::nettrace;
use spfe_net::{run_driver, Server, ServerConfig};
use spfe_obs::trace::{self, EventKind, Trace};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// The trace journal is process-global; every test here captures it and
/// therefore serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `f` with the journal on and returns what it recorded.
fn captured(f: impl FnOnce()) -> Trace {
    trace::reset();
    trace::set_tracing(true);
    f();
    trace::set_tracing(false);
    trace::take()
}

/// `(up, server, label, bytes)` of one in-process wire event or
/// transcript record.
type WireEvent = (bool, u64, &'static str, u64);

/// Every `WireUp`/`WireDown` event in the trace, in journal order.
fn wire_events(trace: &Trace) -> Vec<WireEvent> {
    let mut out = Vec::new();
    for e in trace.threads.iter().flat_map(|t| &t.events) {
        let up = match e.kind {
            EventKind::WireUp => true,
            EventKind::WireDown => false,
            _ => continue,
        };
        out.push((up, e.b, e.label, e.a));
    }
    out
}

/// The transcript's records in the shape of [`wire_events`].
fn record_events(t: &Transcript) -> Vec<WireEvent> {
    t.records()
        .iter()
        .map(|r| {
            let up = matches!(r.direction, Direction::ClientToServer(_));
            (up, r.direction.server() as u64, r.label, r.bytes as u64)
        })
        .collect()
}

/// How many `NetSend`/`NetRecv` events the trace holds.
fn frame_events(trace: &Trace) -> usize {
    trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::NetSend | EventKind::NetRecv))
        .count()
}

fn pump_core(name: &str, plan: FaultPlan) -> (u64, Vec<WireEvent>) {
    let table = drivers();
    let d = table.iter().find(|d| d.name == name).expect("core driver");
    let mut digest = 0;
    let servers = d.servers;
    let trace = captured(|| {
        let mut ch = FaultyChannel::new(servers, plan, 0);
        let mut client = net_client_core(name).expect("client core");
        let mut cores = net_server_cores(name).expect("server cores");
        digest = pump(&mut ch, client.as_mut(), &mut cores).expect("pump run");
    });
    (digest, wire_events(&trace))
}

/// A delivery is journalled once it succeeds, so under the masked audit
/// fault seeds (dropped attempts, retried deliveries) each driver's wire
/// events — direction, server, label, bytes — equal the honest run's.
#[test]
fn pump_wire_events_survive_masked_fault_seeds() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    for d in drivers() {
        let name = d.name;
        let (digest, honest) = pump_core(name, FaultPlan::honest());
        assert!(!honest.is_empty(), "[{name}] journal captured the run");
        for seed in [11u64, 77] {
            let (d2, faulty) = pump_core(name, FaultPlan::with_rate(seed, FaultAction::Drop, 300));
            assert_eq!(d2, digest, "[{name} seed {seed}] digest");
            assert_eq!(
                faulty, honest,
                "[{name} seed {seed}] masked retries moved a wire event"
            );
        }
    }
}

/// Splits an in-process capture into the client and server halves: both
/// parties share one journal here, but each thread belongs to exactly
/// one party, and within a session the client speaks first (its first
/// wire event is a send) while the server listens first.
fn split_parties(trace: &Trace) -> (Trace, Trace) {
    let (mut client, mut server) = (Trace::default(), Trace::default());
    client.cap = trace.cap;
    server.cap = trace.cap;
    for t in &trace.threads {
        let first = t.events.iter().find_map(|e| match e.kind {
            EventKind::NetSend => Some(true),
            EventKind::NetRecv => Some(false),
            _ => None,
        });
        match first {
            Some(true) => client.threads.push(t.clone()),
            Some(false) => server.threads.push(t.clone()),
            None => {}
        }
    }
    (client, server)
}

/// Runs `names` over real loopback TCP with the journal on, the client on
/// its own thread so its journal flushes on thread exit, exactly like a
/// separate client process. Returns each run's transcript (digest
/// checked) and the client and server halves of the journal.
fn tcp_capture(names: &[&'static str]) -> (Vec<(&'static str, Transcript)>, Trace, Trace) {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let names = names.to_vec();
    let mut runs = Vec::new();
    let trace = captured(|| {
        runs = std::thread::spawn(move || {
            let table = drivers();
            names
                .into_iter()
                .map(|name| {
                    let run = run_driver(&addr, name, Some(DEADLINE)).expect("tcp run");
                    let d = table.iter().find(|d| d.name == name).unwrap();
                    assert_eq!(run.digest, d.expect, "[{name}] digest over tcp");
                    (name, run.transcript)
                })
                .collect()
        })
        .join()
        .expect("client thread");
        server.shutdown();
    });
    let (client, server) = split_parties(&trace);
    (runs, client, server)
}

fn parse(half: &Trace) -> nettrace::PartyTrace {
    nettrace::parse_party(&spfe_obs::export::perfetto_json(half)).expect("journal parses")
}

/// The acceptance gate, in-process: sessions of a one-round driver and
/// of the two-phase input_select over real loopback TCP at
/// `SPFE_THREADS` 1 and 4; the captured client and server journals must
/// merge into one causally consistent timeline with both process tracks
/// and per-pair flow arrows.
#[test]
fn tcp_journals_merge_into_a_causally_consistent_timeline() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    for threads in [1usize, 4] {
        spfe::math::par::set_threads(Some(threads));
        let names = ["input_select", NET_CORE_DRIVERS[0]];
        let (runs, client_half, server_half) = tcp_capture(&names);
        // Each session's comm report, metered in process with the journal
        // off: the traced TCP run must meter the same.
        for (name, t) in &runs {
            let d = drivers().into_iter().find(|d| d.name == *name).unwrap();
            let mut want = Transcript::new(d.servers);
            (d.run)(&mut want).expect("in-process run");
            assert_eq!(
                t.report(),
                want.report(),
                "[{name}] TraceCtx is never metered"
            );
        }
        let (client, srv) = (parse(&client_half), parse(&server_half));
        assert_eq!(client.sessions.len(), 2, "two sessions");
        let (timeline, report) = nettrace::merge("e2e", &client, &srv);
        assert_eq!(
            report.violations,
            Vec::<String>::new(),
            "[t{threads}] causal gate"
        );
        assert_eq!(report.sessions, 2);
        assert!(report.flows > 0);
        // Modes journalled as declared: compute = 1.
        for s in &client.sessions {
            assert_eq!(s.mode, 1, "[{}] mode code", s.driver);
            assert_eq!(srv.session(s.session).unwrap().mode, 1);
        }
        // The merged artifact: ≥ 2 process tracks and flow arrows.
        let doc = spfe_obs::json::parse(&timeline).expect("merged timeline is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(spfe_obs::json::Json::as_arr)
            .unwrap();
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(spfe_obs::json::Json::as_str) == Some(p))
                .count()
        };
        assert!(ph("M") >= 2, "process-name metadata tracks");
        assert_eq!(ph("s"), report.flows, "flow starts");
        assert_eq!(ph("f"), report.flows, "flow finishes");
        assert_eq!(ph("X"), report.flows, "synthesized on-wire slices");
    }
    spfe::math::par::set_threads(None);
}

/// One record per message per party, in process and over TCP, at
/// `SPFE_THREADS` 1 and 4:
/// - in process, one wire event per transcript record (same direction,
///   server, label and bytes, in order) and no frame events;
/// - the TCP client journals no wire event and one `NetSend`/`NetRecv`
///   per transcript record;
/// - the server journals one event per frame it received or sent.
#[test]
fn each_party_journals_each_message_once() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    for threads in [1usize, 4] {
        spfe::math::par::set_threads(Some(threads));
        for d in drivers() {
            let mut t = Transcript::new(d.servers);
            let trace = captured(|| {
                (d.run)(&mut t).expect("in-process run");
            });
            let ctx = format!("[{} t{threads}]", d.name);
            assert_eq!(wire_events(&trace), record_events(&t), "{ctx} in process");
            assert_eq!(frame_events(&trace), 0, "{ctx} pump stamps nothing");
        }

        let names: Vec<&'static str> = drivers().iter().map(|d| d.name).collect();
        let (runs, client_half, server_half) = tcp_capture(&names);
        assert!(wire_events(&client_half).is_empty(), "[t{threads}] client");
        assert!(wire_events(&server_half).is_empty(), "[t{threads}] server");
        let (client, srv) = (parse(&client_half), parse(&server_half));
        assert_eq!(client.sessions.len(), runs.len(), "[t{threads}] sessions");
        for (slice, (name, t)) in client.sessions.iter().zip(&runs) {
            // (label, bytes) per direction: the server answers each query
            // as it arrives, so only each direction's order is shared.
            let want = |up: bool| -> Vec<(String, u64)> {
                record_events(t)
                    .into_iter()
                    .filter(|e| e.0 == up)
                    .map(|e| (e.2.to_owned(), e.3))
                    .collect()
            };
            let got = |party: &nettrace::PartyTrace, send: bool| -> Vec<(String, u64)> {
                party
                    .session_events(slice.session, send)
                    .into_iter()
                    .filter(|e| e.label != "net-bye")
                    .map(|e| (e.label.clone(), e.bytes))
                    .collect()
            };
            let ctx = format!("[{name} t{threads}]");
            assert_eq!(got(&client, true), want(true), "{ctx} client sends");
            assert_eq!(got(&client, false), want(false), "{ctx} client receives");
            assert_eq!(got(&srv, false), want(true), "{ctx} server receives");
            assert_eq!(got(&srv, true), want(false), "{ctx} server sends");
        }
    }
    spfe::math::par::set_threads(None);
}

/// A peer cannot fill the server journal's label set: a received frame is
/// journalled once its core has returned, under its own label only if the
/// core accepted it. 300 sessions (more than `INTERN_CAP` distinct
/// labels) each send one frame under a foreign label, which the server
/// journals under the one rejected label; an honest traced session
/// afterwards journals its real labels on the server and merges cleanly
/// with its client journal.
#[test]
fn foreign_frame_labels_never_reach_the_server_journal() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    const FOREIGN: usize = 300;
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let flood = captured(|| {
        for i in 0..FOREIGN {
            let mut peer = TcpStream::connect(addr).expect("connect");
            peer.set_read_timeout(Some(DEADLINE)).unwrap();
            let hello = Frame {
                kind: FrameKind::Hello,
                client_to_server: true,
                session: 1,
                half_round: 0,
                server: 0,
                label: "xor2".to_owned(),
                payload: vec![SessionMode::Compute as u8],
            };
            write_frame(&mut peer, &hello, 0, "net-hello").unwrap();
            let ack = read_frame(&mut peer, 0, "net-hello").unwrap();
            assert_eq!(ack.kind, FrameKind::Hello, "the session opens");
            let label = format!("foreign-{i}");
            let msg = Frame::msg(true, 1, 1, 0, &label, vec![0; 4]);
            write_frame(&mut peer, &msg, 0, "net-msg").unwrap();
            let reply = read_frame(&mut peer, 0, "net-msg").unwrap();
            assert_eq!(reply.kind, FrameKind::Error, "[{label}] is rejected");
        }
        server.shutdown();
    });
    let received: Vec<&str> = flood
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::NetRecv)
        .map(|e| e.label)
        .collect();
    assert_eq!(received, vec![trace::REJECTED_LABEL; FOREIGN]);

    let (runs, client_half, server_half) = tcp_capture(&["xor2"]);
    let (client, srv) = (parse(&client_half), parse(&server_half));
    let (_, report) = nettrace::merge("foreign", &client, &srv);
    assert_eq!(report.violations, Vec::<String>::new(), "causal gate");
    assert_eq!(report.sessions, 1);
    let session = client.sessions[0].session;
    let got: Vec<(String, u64)> = srv
        .session_events(session, false)
        .into_iter()
        .filter(|e| e.label != "net-bye")
        .map(|e| (e.label.clone(), e.bytes))
        .collect();
    let want: Vec<(String, u64)> = record_events(&runs[0].1)
        .into_iter()
        .filter(|e| e.0)
        .map(|e| (e.2.to_owned(), e.3))
        .collect();
    assert_eq!(got, want, "the server journals the real labels");
}
