//! The cross-transport conformance matrix (DESIGN.md §15).
//!
//! Every harness driver runs over three transports — the in-memory
//! metered channel, the fault-injecting channel under the two audit mask
//! seeds, and a real loopback-TCP session against the server cores the
//! server hosts — and must produce the identical answer, the identical
//! per-label communication bytes, the identical half-round structure,
//! the identical per-party view fingerprints, and the identical
//! deterministic op counters. Every driver is `spfe::transport::pump`
//! over the cores `spfe::harness::net_client_core` and
//! `net_server_cores` build, so the in-memory and faulty arms cover the
//! cores, and the TCP arm is a genuine compute-mode session.
//!
//! The matrix re-runs at `SPFE_THREADS` 1 and 4: thread count is outside
//! the protocol, so nothing observable may move.

mod common;
use common::*;

use spfe::obs::audit::deterministic_ops;
use spfe::transport::{ClientCore, FaultAction, FaultPlan, FaultyChannel, SessionCore, Transcript};
use spfe_net::{run_driver, Server, ServerConfig};
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

fn local_server() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

/// The in-process half of the matrix: every driver, honest and masked
/// faulty channels, two thread counts, one set of observables.
#[test]
fn every_driver_is_transport_invariant() {
    let _g = LOCK.lock().unwrap();
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

/// The TCP half of the matrix: every driver over a genuine compute-mode
/// session against hosted server cores, equal to its in-process run
/// (which pumps the same cores).
#[test]
fn compute_mode_tcp_matches_the_in_process_run() {
    let _g = LOCK.lock().unwrap();
    let server = local_server();
    let addr = server.local_addr().to_string();
    for threads in [1usize, 4] {
        for d in drivers() {
            let name = d.name;
            let base = in_memory(&d, threads);
            arm(threads);
            let run = run_driver(&addr, name, Some(std::time::Duration::from_secs(30)))
                .expect("compute tcp run");
            assert_eq!(
                run.mode,
                spfe::transport::SessionMode::Compute,
                "[{name}] every driver runs in compute mode"
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

/// Cores of driver `name` over F₁₇: the weighted sum and the four
/// drivers that start with select1.
fn f17_cores(name: &str, server_seed: u64) -> F17Cores {
    use spfe::core::{input_select, stats, two_phase, universal, Statistic};
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
        "input_select" => {
            let client = input_select::select1_sum_client(
                params.clone(),
                pk.clone(),
                sk,
                field,
                &indices,
                &mut rng,
            );
            let server = input_select::select1_sum_server(params, pk, field, 3, db, server_rng);
            (Box::new(client), Box::new(server), sum)
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
    for name in [
        "weighted_sum",
        "input_select",
        "two_phase",
        "universal",
        "frequency",
    ] {
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

/// The §3.3.2 selections multiply every mask coefficient and index power
/// and store no masked cell as zero, so over F₁₇ their op counts depend
/// on neither the rng (the masking polynomial, the masked cells) nor
/// whether the client selects index 0 (whose powers are zero).
#[test]
fn select2_op_counts_do_not_depend_on_the_rng() {
    use spfe::core::input_select::{select2_v1, select2_v2};
    let _g = LOCK.lock().unwrap();
    let f = fx();
    let field = spfe::math::Fp64::new(17).unwrap();
    let db: Vec<u64> = (0..16u64).map(|i| (i * 5 + 3) % 17).collect();
    for v2 in [false, true] {
        let mut counts = Vec::new();
        for seed in 0..8u64 {
            let indices = [(seed % 2) as usize, 4, 9];
            arm(1);
            let mut rng = spfe::crypto::ChaChaRng::from_u64_seed(seed);
            let mut t = Transcript::new(1);
            let shares = if v2 {
                select2_v2(
                    &mut t, &f.group, &f.pk, &f.sk, &f.pk, &f.sk, &db, &indices, field, &mut rng,
                )
            } else {
                select2_v1(
                    &mut t, &f.group, &f.pk, &f.sk, &db, &indices, field, &mut rng,
                )
            }
            .expect("select2 run");
            let want: Vec<u64> = indices.iter().map(|&i| db[i]).collect();
            assert_eq!(shares.reconstruct(), want, "[v2={v2}] seed {seed}");
            counts.push(deterministic_ops(&spfe::obs::ops_snapshot()));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "[v2={v2}] op counts moved with the rng: {counts:?}"
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
        "input_select",
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

/// Hosted servers that draw while answering (spir, batched,
/// input_select, psm_spfe, two_phase, universal, weighted_sum, frequency)
/// get a fresh rng per session: the same client, against each session's
/// cores, sees different reply bytes, and each session still runs to the
/// right digest. select1's answers carry the `a_j`, and input_select's
/// `sel1-open` their sum; a fixed hosted seed would let a client strip
/// every `a_j`, psm_spfe's garbling or the weighted sum's mask. Three
/// sessions make a chance repeat of a one-word reply (1 in `p`) a
/// non-event.
#[test]
fn hosted_pads_are_fresh_per_session() {
    let _g = LOCK.lock().unwrap();
    for name in [
        "spir",
        "batched",
        "input_select",
        "psm_spfe",
        "two_phase",
        "universal",
        "weighted_sum",
        "frequency",
    ] {
        let d = drivers().into_iter().find(|d| d.name == name).unwrap();
        // One session in pump's order; every server reply, in order.
        let session = || {
            let mut client = net_client_core(name).unwrap();
            let mut cores = net_server_cores(name).unwrap();
            let mut replies = Vec::new();
            let (_, mut outbox) = client.start().unwrap();
            while !outbox.is_empty() {
                let mut next = Vec::new();
                for q in outbox.drain(..) {
                    let (_, outs) = cores[q.server]
                        .on_message(1, q.server, q.label, &q.payload)
                        .unwrap();
                    for r in outs {
                        next.extend(
                            client
                                .on_message(2, r.server, r.label, &r.payload)
                                .unwrap()
                                .1,
                        );
                        replies.push(r);
                    }
                }
                outbox = next;
            }
            assert_eq!(client.digest(), Some(d.expect), "[{name}] decodes");
            replies
        };
        let runs = [session(), session(), session()];
        assert!(runs.iter().all(|r| r.len() == runs[0].len()), "[{name}]");
        for (at, reply) in runs[0].iter().enumerate() {
            let shapes: Vec<_> = runs
                .iter()
                .map(|r| (r[at].label, r[at].payload.len()))
                .collect();
            assert!(
                shapes.windows(2).all(|w| w[0] == w[1]),
                "[{name}] same shape"
            );
            assert!(
                runs.iter().any(|r| r[at].payload != reply.payload),
                "[{name}] {} repeats across sessions",
                reply.label
            );
        }
    }
}
