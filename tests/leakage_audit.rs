//! The differential obliviousness gate (DESIGN.md §14), as a test suite.
//!
//! For every driver in the shared harness, the *server-observable* view
//! fingerprint must be bit-identical across systematic variations of the
//! client's secrets (indices, database contents, weights, the selected
//! statistic), and *every* party's fingerprint must be bit-identical
//! across masked fault schedules. `spfe-tables audit` runs the same sweep
//! against the committed `BENCH_audit.json` baseline; this suite is the
//! in-tree version that needs no baseline file.
//!
//! Plus: property tests pinning the canonicalization itself (order-stable,
//! collision-sensitive) on randomized views.

mod common;
use common::*;

use proptest::prelude::*;
use spfe::obs::audit::{deterministic_ops, Party, PartyView, ViewEvent};
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel};
use std::sync::Mutex;

/// Op counters are process-global; every test that reads them serializes
/// on this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs driver `d` at secret variant `v` under `plan`; returns the digest
/// and the per-party views with the deterministic op vector folded into
/// the client's view (caller must hold [`LOCK`]).
fn views_under(d: &Driver, v: usize, plan: FaultPlan) -> (u64, Vec<PartyView>) {
    // Warm the lazy crypto fixture so the first measured run doesn't
    // count the one-off keygen modexps into its op vector.
    let _ = fx();
    spfe::obs::reset();
    let mut ch = FaultyChannel::new(d.servers, plan, 0);
    let got = (d.run_variant)(&mut ch, v).expect("audited run must succeed");
    let mut views = ch.inner().party_views();
    views[0].ops = deterministic_ops(&spfe::obs::ops_snapshot());
    (got, views)
}

/// Every variant computes its own expected digest — the variants are real
/// protocol runs over genuinely different secrets, not replays.
#[test]
fn every_variant_computes_its_own_answer() {
    let _g = LOCK.lock().unwrap();
    for d in drivers() {
        for v in 0..NUM_VARIANTS {
            let (got, _) = views_under(&d, v, FaultPlan::honest());
            assert_eq!(got, (d.expect_variant)(v), "[{} v{v}]", d.name);
        }
    }
}

/// The tentpole gate: varying the secrets must not move any server's view
/// fingerprint. (The client's view legitimately varies — the client knows
/// its own secrets; the deterministic op vector folded into it reflects
/// e.g. different plaintext values being encrypted.)
#[test]
fn server_views_are_identical_across_secret_variants() {
    let _g = LOCK.lock().unwrap();
    for d in drivers() {
        let mut baseline: Option<Vec<String>> = None;
        for v in 0..NUM_VARIANTS {
            let (_, views) = views_under(&d, v, FaultPlan::honest());
            let fps: Vec<String> = views[1..].iter().map(|pv| pv.fingerprint_hex()).collect();
            match &baseline {
                None => baseline = Some(fps),
                Some(b) => assert_eq!(
                    &fps, b,
                    "[{} v{v}] a server-observable view fingerprint moved with the secrets",
                    d.name
                ),
            }
        }
    }
}

/// Masked drops (retry heals the wire) must leave every party's
/// fingerprint — client included — identical to the honest run, at both
/// audit fault seeds.
#[test]
fn masked_drops_leave_all_fingerprints_identical() {
    let _g = LOCK.lock().unwrap();
    for d in drivers() {
        let (_, honest) = views_under(&d, 0, FaultPlan::honest());
        let honest_fps: Vec<String> = honest.iter().map(|pv| pv.fingerprint_hex()).collect();
        for seed in [11u64, 77] {
            let plan = FaultPlan::with_rate(seed, FaultAction::Drop, 300);
            let (got, views) = views_under(&d, 0, plan);
            assert_eq!(got, d.expect, "[{} seed {seed}]", d.name);
            let fps: Vec<String> = views.iter().map(|pv| pv.fingerprint_hex()).collect();
            assert_eq!(
                fps, honest_fps,
                "[{} seed {seed}] masked faults must not change any view fingerprint",
                d.name
            );
        }
    }
}

/// The client sees every byte of the session: its (sent, received) totals
/// must mirror the union of the server totals, swapped.
#[test]
fn client_view_is_the_union_of_server_views() {
    let _g = LOCK.lock().unwrap();
    for d in drivers() {
        let (_, views) = views_under(&d, 0, FaultPlan::honest());
        let (c_sent, c_recv) = views[0].byte_totals();
        let mut s_sent = 0;
        let mut s_recv = 0;
        let mut s_events = 0;
        for pv in &views[1..] {
            let (s, r) = pv.byte_totals();
            s_sent += s;
            s_recv += r;
            s_events += pv.events.len();
        }
        assert_eq!((c_sent, c_recv), (s_recv, s_sent), "[{}]", d.name);
        assert_eq!(views[0].events.len(), s_events, "[{}]", d.name);
    }
}

/// Extracts the ordered party fingerprints committed for `driver` in
/// `BENCH_audit.json` (client first, then server0, server1, …).
fn committed_fingerprints(baseline: &str, driver: &str) -> Vec<String> {
    let needle = format!("\"driver\": \"{driver}\"");
    let start = baseline
        .find(&needle)
        .unwrap_or_else(|| panic!("driver {driver} missing from BENCH_audit.json"));
    let rest = &baseline[start + needle.len()..];
    let end = rest.find("\"driver\":").unwrap_or(rest.len());
    let report = &rest[..end];
    let mut fps = Vec::new();
    let mut cursor = report;
    while let Some(at) = cursor.find("\"fingerprint\": \"") {
        let hex = &cursor[at + 16..];
        let close = hex.find('"').expect("unterminated fingerprint");
        fps.push(hex[..close].to_owned());
        cursor = &hex[close..];
    }
    assert!(!fps.is_empty(), "no fingerprints for {driver}");
    fps
}

/// The networked gate: a loopback-TCP session of every driver against
/// hosted server cores must reproduce the *committed* `BENCH_audit.json`
/// per-party `spfe-view/v1` fingerprints bit-for-bit — the wire carrier
/// (in-memory vs. real sockets) is outside the view definition.
#[test]
fn socket_sessions_reproduce_committed_fingerprints() {
    let _g = LOCK.lock().unwrap();
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_audit.json"
    ))
    .expect("committed BENCH_audit.json");
    // The committed baseline was captured at SPFE_THREADS=1.
    spfe::math::par::set_threads(Some(1));
    let server =
        spfe_net::Server::bind("127.0.0.1:0", spfe_net::ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let deadline = Some(std::time::Duration::from_secs(30));
    for d in drivers() {
        let name = d.name;
        let committed = committed_fingerprints(&baseline, name);
        let _ = fx();
        spfe::obs::reset();
        let run = spfe_net::run_driver(&addr, name, deadline).expect("compute session");
        let mut views = run.transcript.party_views();
        views[0].ops = deterministic_ops(&spfe::obs::ops_snapshot());
        let fps: Vec<String> = views.iter().map(|v| v.fingerprint_hex()).collect();
        assert_eq!(
            fps, committed,
            "[{name}] compute-mode fingerprints diverge from the committed audit baseline"
        );
    }
    spfe::math::par::set_threads(None);
}

fn arb_event() -> impl Strategy<Value = (u32, bool, String, u64)> {
    (1u32..6, any::<bool>(), "[a-z]{1,6}", 0u64..4096)
}

fn view_from(party_server: bool, raw: &[(u32, bool, String, u64)]) -> PartyView {
    let mut v = PartyView::new(if party_server {
        Party::Server(0)
    } else {
        Party::Client
    });
    v.events = raw
        .iter()
        .map(|(half_round, sent, label, bytes)| ViewEvent {
            half_round: *half_round,
            sent: *sent,
            label: label.clone(),
            bytes: *bytes,
        })
        .collect();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is a pure function of the view: rebuilding the
    /// same view from the same data yields the same fingerprint.
    #[test]
    fn prop_fingerprint_is_order_stable(
        raw in proptest::collection::vec(arb_event(), 1..12),
        server in any::<bool>(),
    ) {
        let a = view_from(server, &raw);
        let b = view_from(server, &raw);
        prop_assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Collision sensitivity: perturbing any single field of any single
    /// event — label, length, direction, or round — changes the hash.
    #[test]
    fn prop_fingerprint_sees_any_single_field_change(
        raw in proptest::collection::vec(arb_event(), 1..12),
        pick in any::<proptest::sample::Index>(),
        field in 0usize..4,
    ) {
        let base = view_from(false, &raw);
        let fp = base.fingerprint();
        let i = pick.index(raw.len());
        let mut mutated = base.clone();
        match field {
            0 => mutated.events[i].label.push('x'),
            1 => mutated.events[i].bytes += 1,
            2 => mutated.events[i].sent = !mutated.events[i].sent,
            _ => mutated.events[i].half_round += 1,
        }
        prop_assert_ne!(mutated.fingerprint(), fp);
    }

    /// Swapping two unequal adjacent events changes the hash: order is
    /// part of the canonical form.
    #[test]
    fn prop_fingerprint_sees_reordering(
        raw in proptest::collection::vec(arb_event(), 2..10),
        pick in any::<proptest::sample::Index>(),
    ) {
        let i = pick.index(raw.len() - 1);
        prop_assume!(raw[i] != raw[i + 1]);
        let base = view_from(true, &raw);
        let mut swapped = base.clone();
        swapped.events.swap(i, i + 1);
        prop_assert_ne!(swapped.fingerprint(), base.fingerprint());
    }
}
