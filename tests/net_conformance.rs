//! The cross-transport conformance matrix (DESIGN.md §15).
//!
//! Every harness driver runs over three transports — the in-memory
//! metered channel, the fault-injecting channel under the two audit mask
//! seeds, and a real loopback-TCP relay session — and must produce the
//! identical answer, the identical per-label communication bytes, the
//! identical half-round structure, the identical per-party view
//! fingerprints, and the identical deterministic op counters. The
//! drivers with sans-io cores (those `spfe::harness::net_client_core`
//! builds) run as `spfe::transport::pump` over those cores in process, so
//! the in-memory and faulty arms already cover the cores; they also run a
//! genuine compute-mode TCP session against hosted server state
//! machines, byte-identical to the in-process run.
//!
//! The matrix re-runs at `SPFE_THREADS` 1 and 4: thread count is outside
//! the protocol, so nothing observable may move.

mod common;
use common::*;

use spfe::obs::audit::deterministic_ops;
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel, Transcript};
use spfe_net::{run_driver, run_driver_relay, Server, ServerConfig};
use std::sync::Mutex;

/// Op counters are process-global; every test that reads them serializes
/// on this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Everything the matrix compares for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Obs {
    digest: u64,
    report: spfe::transport::CommReport,
    labels: Vec<spfe::obs::LabelStat>,
    fingerprints: Vec<String>,
    ops: Vec<(String, u64)>,
}

fn observe(digest: u64, t: &Transcript) -> Obs {
    Obs {
        digest,
        report: t.report(),
        labels: t.report_by_label(),
        fingerprints: t
            .party_views()
            .iter()
            .map(|v| v.fingerprint_hex())
            .collect(),
        ops: deterministic_ops(&spfe::obs::ops_snapshot()),
    }
}

/// Prepares a measured run: fixture warmed (so keygen ops don't leak into
/// the first measurement), op counters zeroed, thread override applied.
fn arm(threads: usize) {
    let _ = fx();
    spfe::math::par::set_threads(Some(threads));
    spfe::obs::reset();
}

fn in_memory(d: &Driver, threads: usize) -> Obs {
    arm(threads);
    let mut ch = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
    let digest = (d.run)(&mut ch).expect("honest run");
    observe(digest, ch.inner())
}

fn faulty(d: &Driver, seed: u64, threads: usize) -> Obs {
    arm(threads);
    let mut ch = FaultyChannel::new(
        d.servers,
        FaultPlan::with_rate(seed, FaultAction::Drop, 300),
        0,
    );
    let digest = (d.run)(&mut ch).expect("masked faulty run");
    observe(digest, ch.inner())
}

fn relay_tcp(d: &Driver, addr: &str, threads: usize) -> Obs {
    arm(threads);
    let run =
        run_driver_relay(addr, d, Some(std::time::Duration::from_secs(30))).expect("relay tcp run");
    observe(run.digest, &run.transcript)
}

fn local_server() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

/// The blanket-adapter half of the matrix: every driver, three
/// transports, two thread counts, one set of observables.
#[test]
fn every_driver_is_transport_invariant() {
    let _g = LOCK.lock().unwrap();
    let server = local_server();
    let addr = server.local_addr().to_string();
    for threads in [1usize, 4] {
        for d in drivers() {
            let base = in_memory(&d, threads);
            assert_eq!(
                base.digest, d.expect,
                "[{} t{threads}] in-memory digest",
                d.name
            );
            for seed in [11u64, 77] {
                let f = faulty(&d, seed, threads);
                assert_eq!(
                    f, base,
                    "[{} t{threads} seed {seed}] masked faults changed an observable",
                    d.name
                );
            }
            let r = relay_tcp(&d, &addr, threads);
            assert_eq!(
                r, base,
                "[{} t{threads}] loopback relay TCP changed an observable",
                d.name
            );
        }
    }
    spfe::math::par::set_threads(None);
}

/// Op counters must be identical across thread counts (the thread axis is
/// outside the protocol), for every driver and every transport.
#[test]
fn op_counters_are_thread_invariant() {
    let _g = LOCK.lock().unwrap();
    for d in drivers() {
        let one = in_memory(&d, 1);
        let four = in_memory(&d, 4);
        assert_eq!(
            one, four,
            "[{}] observables moved between SPFE_THREADS=1 and 4",
            d.name
        );
    }
    spfe::math::par::set_threads(None);
}

/// The compute-mode half of the matrix: every cored driver over a
/// genuine compute-mode TCP session against hosted server cores, equal
/// to its in-process run (which pumps the same cores).
#[test]
fn compute_mode_tcp_matches_the_in_process_run() {
    let _g = LOCK.lock().unwrap();
    let server = local_server();
    let addr = server.local_addr().to_string();
    for threads in [1usize, 4] {
        for d in cored_drivers() {
            let name = d.name;
            let base = in_memory(&d, threads);
            arm(threads);
            let run = run_driver(&addr, name, Some(std::time::Duration::from_secs(30)))
                .expect("compute tcp run");
            assert_eq!(
                run.mode,
                spfe::transport::SessionMode::Compute,
                "[{name}] core driver must run in compute mode"
            );
            assert_eq!(
                observe(run.digest, &run.transcript),
                base,
                "[{name} t{threads}] compute-mode TCP diverged from the in-process run"
            );
        }
    }
    spfe::math::par::set_threads(None);
}

/// Concurrent sessions multiplex on one listener without interference:
/// several drivers at once, every digest right, every session completed.
#[test]
fn concurrent_sessions_multiplex_on_one_listener() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    spfe::math::par::set_threads(Some(1));
    let server = local_server();
    let addr = server.local_addr().to_string();
    let names = [
        "xor2",
        "poly_it",
        "multiserver",
        "hom_pir",
        "spir",
        "batched",
        "recursive",
        "xor2",
        "poly_it",
    ];
    let handles: Vec<_> = names
        .iter()
        .map(|name| {
            let addr = addr.clone();
            let name = (*name).to_owned();
            std::thread::spawn(move || {
                let run = run_driver(&addr, &name, Some(std::time::Duration::from_secs(30)))
                    .expect("concurrent run");
                (name, run.digest)
            })
        })
        .collect();
    let table = drivers();
    for h in handles {
        let (name, digest) = h.join().expect("session thread");
        let d = table.iter().find(|d| d.name == name).unwrap();
        assert_eq!(digest, d.expect, "[{name}] concurrent session digest");
    }
    spfe::math::par::set_threads(None);
}

/// Hosted servers that draw while answering (spir, batched) get a fresh
/// rng per session: the same client query, answered by two sessions'
/// cores, yields different bytes, and each answer still decodes right.
#[test]
fn hosted_pads_are_fresh_per_session() {
    let _g = LOCK.lock().unwrap();
    for name in ["spir", "batched"] {
        let d = drivers().into_iter().find(|d| d.name == name).unwrap();
        let query = {
            let mut client = net_client_core(name).unwrap();
            client.start().unwrap().1.remove(0)
        };
        let answer = || {
            let mut cores = net_server_cores(name).unwrap();
            let (_, mut outs) = cores[0]
                .on_message(1, 0, query.label, &query.payload)
                .unwrap();
            outs.remove(0)
        };
        let (a, b) = (answer(), answer());
        assert_eq!(a.payload.len(), b.payload.len(), "[{name}] same shape");
        assert_ne!(a.payload, b.payload, "[{name}] pads repeat across sessions");
        for reply in [a, b] {
            let mut client = net_client_core(name).unwrap();
            client.start().unwrap();
            client
                .on_message(2, 0, reply.label, &reply.payload)
                .unwrap();
            assert_eq!(client.digest(), Some(d.expect), "[{name}] decodes");
        }
    }
}
