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
use spfe::transport::{ClientCore, FaultAction, FaultPlan, FaultyChannel, SessionCore, Transcript};
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

/// A driver's cores over F₁₇ with the server drawing from `server_seed`,
/// and the expected digest.
type F17Cores = (Box<dyn ClientCore>, Box<dyn SessionCore>, u64);

/// Cores of driver `name` over F₁₇: the weighted sum and the three
/// drivers that start with select1.
fn f17_cores(name: &str, server_seed: u64) -> F17Cores {
    use spfe::core::{stats, two_phase, universal, Statistic};
    use spfe::pir::SpirParams;
    use std::borrow::Cow;
    let f = fx();
    let field = spfe::math::Fp64::new(17).unwrap();
    let db: Vec<u64> = (0..16u64).map(|i| (i * 5 + 3) % 17).collect();
    let params = SpirParams::new(f.group.clone(), db.len());
    let mut rng = spfe::crypto::ChaChaRng::from_u64_seed(0xAB);
    let server_rng = spfe::crypto::ChaChaRng::from_u64_seed(server_seed);
    let indices = [1usize, 4, 9];
    let sum = indices.iter().map(|&i| db[i]).sum::<u64>() % 17;
    let (pk, sk) = (f.pk.clone(), f.sk.clone());
    match name {
        "weighted_sum" => {
            let weights = [2u64, 3, 1];
            let expect = indices
                .iter()
                .zip(weights)
                .map(|(&i, w)| db[i] * w)
                .sum::<u64>()
                % 17;
            let client = stats::WsumClientCore::new(
                f.group.clone(),
                pk.clone(),
                sk,
                field,
                db.len(),
                1,
                &indices,
                &weights,
                &mut rng,
            );
            let server = stats::WsumServerCore::new(
                f.group.clone(),
                pk,
                field,
                indices.len(),
                vec![Cow::Owned(db)],
                server_rng,
            );
            (Box::new(client), Box::new(server), expect)
        }
        "two_phase" | "universal" => {
            // The universal menu's second entry counts 3s: choose it.
            let (circuit, extra, expect) = if name == "two_phase" {
                (Statistic::Sum.share_circuit(3, 17), Vec::new(), sum)
            } else {
                let menu = [Statistic::Sum, Statistic::Frequency { keyword: 3 }];
                let count = indices.iter().filter(|&&i| db[i] == 3).count() as u64;
                let circuit = universal::universal_circuit(&menu, 3, 17);
                (circuit, universal::menu_choice_bits(&menu, 1), count)
            };
            let client = two_phase::select1_yao_client(
                params.clone(),
                pk.clone(),
                sk,
                field,
                &indices,
                Cow::Owned(circuit.clone()),
                extra,
                &mut rng,
            );
            let server = two_phase::select1_yao_server(
                params,
                pk,
                field,
                3,
                db,
                Cow::Owned(circuit),
                server_rng,
            );
            (Box::new(client), Box::new(server), expect)
        }
        "frequency" => {
            let keyword = db[4];
            let expect = indices.iter().filter(|&&i| db[i] == keyword).count() as u64;
            let client = stats::select1_frequency_client(
                params.clone(),
                pk.clone(),
                sk,
                field,
                &indices,
                vec![keyword; 3],
                &mut rng,
            );
            let server = stats::select1_frequency_server(params, pk, field, 3, db, server_rng);
            (Box::new(client), Box::new(server), expect)
        }
        _ => unreachable!("no F17 cores for {name}"),
    }
}

/// A hosted server draws from a fresh rng, so its op counts must not
/// depend on what it draws, or a compute-mode session's counters would
/// differ from the in-process run's. Over F₁₇, a weighted sum meets a
/// zero masked item or a zero mask coefficient, and a select1 scan a zero
/// shifted cell, under most server seeds.
#[test]
fn weighted_sum_op_counts_do_not_depend_on_the_server_rng() {
    let _g = LOCK.lock().unwrap();
    for name in ["weighted_sum", "two_phase", "universal", "frequency"] {
        let mut counts = Vec::new();
        for seed in 0..8 {
            arm(1);
            let (mut client, server, expect) = f17_cores(name, seed);
            let mut t = Transcript::new(1);
            let got = spfe::transport::pump(&mut t, client.as_mut(), &mut [server]);
            assert_eq!(got, Ok(expect), "[{name}] server seed {seed}");
            counts.push(deterministic_ops(&spfe::obs::ops_snapshot()));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "[{name}] op counts moved with the server seed: {counts:?}"
        );
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
        "two_phase",
        "universal",
        "frequency",
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

/// Hosted servers that draw while answering (spir, batched, two_phase)
/// get a fresh rng per session: the same client query, answered by two
/// sessions' cores, yields different bytes, and each session still runs
/// to the right digest. two_phase's first reply carries select1's
/// answers; a fixed hosted seed would let a client strip every `a_j`.
#[test]
fn hosted_pads_are_fresh_per_session() {
    let _g = LOCK.lock().unwrap();
    for name in ["spir", "batched", "two_phase"] {
        let d = drivers().into_iter().find(|d| d.name == name).unwrap();
        let query = {
            let mut client = net_client_core(name).unwrap();
            client.start().unwrap().1.remove(0)
        };
        let session = || {
            let mut cores = net_server_cores(name).unwrap();
            let (_, mut outs) = cores[0]
                .on_message(1, 0, query.label, &query.payload)
                .unwrap();
            (outs.remove(0), cores)
        };
        let (a, b) = (session(), session());
        assert_eq!(a.0.payload.len(), b.0.payload.len(), "[{name}] same shape");
        assert_ne!(
            a.0.payload, b.0.payload,
            "[{name}] pads repeat across sessions"
        );
        for (reply, mut cores) in [a, b] {
            let mut client = net_client_core(name).unwrap();
            client.start().unwrap();
            let mut inbox = vec![reply];
            while let Some(m) = inbox.pop() {
                let (_, outs) = client.on_message(2, 0, m.label, &m.payload).unwrap();
                for q in outs {
                    let (_, replies) = cores[q.server]
                        .on_message(3, q.server, q.label, &q.payload)
                        .unwrap();
                    inbox.extend(replies);
                }
            }
            assert_eq!(client.digest(), Some(d.expect), "[{name}] decodes");
        }
    }
}
