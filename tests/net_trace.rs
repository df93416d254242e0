//! Distributed session tracing (DESIGN.md §17).
//!
//! Two layers of the causal-clock design are held here:
//!
//! * [`pump`] stamps every logical delivery exactly once — under the two
//!   audit mask seeds the retried deliveries reuse their stamps, so the
//!   Lamport sequence is identical to the honest run's.
//! * A genuine loopback-TCP run of two drivers, at `SPFE_THREADS` 1 and
//!   4, yields client and server journals that `spfe_bench::nettrace`
//!   merges into one causally consistent timeline: the cross-process
//!   gate the CI smoke stage also runs over the real binaries.

mod common;
use common::*;

use spfe::transport::{pump, FaultAction, FaultPlan, FaultyChannel};
use spfe_bench::nettrace;
use spfe_net::{run_driver, Server, ServerConfig};
use spfe_obs::trace::{self, EventKind, Trace};
use std::sync::Mutex;

/// The trace journal is process-global; every test here captures it and
/// therefore serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the journal on and returns what it recorded.
fn captured(f: impl FnOnce()) -> Trace {
    trace::reset();
    trace::set_tracing(true);
    f();
    trace::set_tracing(false);
    trace::take()
}

/// `(send, label, bytes, half_round, lamport)` of one journalled wire
/// event.
type WireEvent = (bool, &'static str, u64, u32, u32);

/// Every wire event in the trace, in journal order.
fn net_events(trace: &Trace) -> Vec<WireEvent> {
    let mut out = Vec::new();
    for t in &trace.threads {
        for e in &t.events {
            let send = match e.kind {
                EventKind::NetSend => true,
                EventKind::NetRecv => false,
                _ => continue,
            };
            let (half_round, lamport) = spfe_obs::unpack_net_stamp(e.b);
            out.push((send, e.label, e.a, half_round, lamport));
        }
    }
    out
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
    (digest, net_events(&trace))
}

/// Satellite: pump's Lamport stamps are issued once per *logical*
/// delivery, so under the masked audit fault seeds (retried deliveries)
/// the stamp sequence is byte-identical to the honest run's, and every
/// receive lands strictly after its send.
#[test]
fn pump_stamps_survive_masked_fault_seeds() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    for d in drivers() {
        let name = d.name;
        let (digest, honest) = pump_core(name, FaultPlan::honest());
        assert!(!honest.is_empty(), "[{name}] journal captured the run");
        // pump emits send/recv pairs synchronously: check pairwise order.
        assert_eq!(honest.len() % 2, 0);
        for pair in honest.chunks(2) {
            let (send, recv) = (pair[0], pair[1]);
            assert!(send.0 && !recv.0, "[{name}] events alternate send/recv");
            assert_eq!(send.1, recv.1, "[{name}] pair shares its label");
            assert_eq!(send.3, recv.3, "[{name}] pair shares its half-round");
            assert!(
                recv.4 > send.4,
                "[{name}] receive stamp {} is after send stamp {}",
                recv.4,
                send.4
            );
        }
        for seed in [11u64, 77] {
            let (d2, faulty) = pump_core(name, FaultPlan::with_rate(seed, FaultAction::Drop, 300));
            assert_eq!(d2, digest, "[{name} seed {seed}] digest");
            assert_eq!(
                faulty, honest,
                "[{name} seed {seed}] masked retries moved a Lamport stamp"
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
        let mut server =
            Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let addr = server.local_addr().to_string();
        // Each session's comm report, metered in process with the journal
        // off: the traced TCP run must meter the same.
        let untraced: Vec<_> = ["input_select", NET_CORE_DRIVERS[0]]
            .into_iter()
            .map(|name| {
                let d = drivers().into_iter().find(|d| d.name == name).unwrap();
                let mut t = spfe::transport::Transcript::new(d.servers);
                (d.run)(&mut t).expect("in-process run");
                (name, t.report())
            })
            .collect();
        let trace = captured(|| {
            // The client lives on its own thread so its journal flushes
            // on thread exit, exactly like a separate client process.
            let addr = addr.clone();
            std::thread::spawn(move || {
                for (name, want) in untraced {
                    let run = run_driver(&addr, name, Some(std::time::Duration::from_secs(30)))
                        .expect("tcp run");
                    let d = drivers().into_iter().find(|d| d.name == name).unwrap();
                    assert_eq!(run.digest, d.expect, "[{name}] digest over tcp");
                    assert_eq!(
                        run.transcript.report(),
                        want,
                        "[{name}] TraceCtx frames are never metered"
                    );
                }
            })
            .join()
            .expect("client thread");
            server.shutdown();
        });
        let (client_half, server_half) = split_parties(&trace);
        let client = nettrace::parse_party(&spfe_obs::export::perfetto_json(&client_half))
            .expect("client journal parses");
        let srv = nettrace::parse_party(&spfe_obs::export::perfetto_json(&server_half))
            .expect("server journal parses");
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
