//! Determinism of the op counters under masked faults (DESIGN.md §10).
//!
//! The retry loop re-sends *already encoded* bytes, so a fault that fires
//! and is masked must not change any deterministic operation count: the
//! `deterministic_part()` of the `spfe-obs` snapshot is bit-identical
//! across fault seeds, while the `FaultsInjected`/`Retries` gauges record
//! that the schedules actually differed.
//!
//! This lives in its own test binary: the counters are process-global and
//! the adversarial matrix next door would pollute the windows.

use spfe::core::stats;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel};
use spfe_obs::{Op, OpsSnapshot};
use std::sync::{Mutex, OnceLock};

/// The op counters are process-global; serialize the tests in this binary
/// so their measurement windows never overlap.
static LOCK: Mutex<()> = Mutex::new(());

struct Fixture {
    group: SchnorrGroup,
    pk: PaillierPk,
    sk: PaillierSk,
}

fn fx() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaChaRng::from_u64_seed(0xDE7E);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        Fixture { group, pk, sk }
    })
}

/// One full weighted-sum execution under `plan`; returns the result, the
/// deterministic counter snapshot, and the two fault gauges.
fn wsum_under(plan: FaultPlan) -> (u64, OpsSnapshot, u64, u64) {
    let f = fx();
    let db: Vec<u64> = (0..24u64).map(|i| (i * 11 + 5) % 60).collect();
    let indices = [2usize, 9, 17, 21];
    let weights = [3u64, 1, 4, 1];
    let field = Fp64::at_least(1_000);
    let mut rng = ChaChaRng::from_u64_seed(0x5EED);
    spfe_obs::reset_ops();
    let mut ch = FaultyChannel::new(1, plan, 2);
    let got = stats::weighted_sum(
        &mut ch,
        &f.group,
        &f.pk,
        &f.sk,
        &[&db],
        &indices,
        &weights,
        field,
        &mut rng,
    )
    .expect("masked faults must not change the outcome")[0];
    let snap = spfe_obs::ops_snapshot();
    let faults = snap.get(Op::FaultsInjected);
    let retries = snap.get(Op::Retries);
    (got, snap.deterministic_part(), faults, retries)
}

#[test]
fn deterministic_counters_identical_across_masked_fault_seeds() {
    let _g = LOCK.lock().unwrap();
    let db: Vec<u64> = (0..24u64).map(|i| (i * 11 + 5) % 60).collect();
    let expect: u64 = [(2usize, 3u64), (9, 1), (17, 4), (21, 1)]
        .iter()
        .map(|&(i, w)| db[i] * w)
        .sum();

    let (honest_val, honest_ops, honest_faults, honest_retries) = wsum_under(FaultPlan::honest());
    assert_eq!(honest_val, expect);
    assert_eq!(honest_faults, 0);
    assert_eq!(honest_retries, 0);

    // Two different fault seeds ⇒ two different drop schedules; the client
    // masks both via retry and the deterministic counters never move.
    let mut any_faults = 0u64;
    let mut any_retries = 0u64;
    for seed in [11u64, 77, 4242] {
        let plan = FaultPlan::with_rate(seed, FaultAction::Drop, 300);
        let (val, ops, faults, retries) = wsum_under(plan);
        assert_eq!(val, expect, "seed {seed}");
        assert_eq!(
            ops, honest_ops,
            "seed {seed}: deterministic op counters must match the honest run"
        );
        any_faults += faults;
        any_retries += retries;
    }
    assert!(
        any_faults > 0,
        "at least one seed must actually inject faults"
    );
    assert!(
        any_retries > 0,
        "masked drops must show up in the Retries gauge"
    );
}

#[test]
fn duplicates_and_delays_leave_deterministic_counters_alone() {
    let _g = LOCK.lock().unwrap();
    let (_, honest_ops, _, _) = wsum_under(FaultPlan::honest());
    // Scripted so the schedule is guaranteed to fire regardless of how many
    // messages the driver happens to exchange.
    let plan = FaultPlan::scripted(vec![
        (0, FaultAction::Duplicate),
        (1, FaultAction::Delay(1)),
    ]);
    let (_, faulty_ops, faults, _) = wsum_under(plan);
    assert_eq!(faulty_ops, honest_ops);
    assert!(faults > 0, "the mixed schedule must fire at least once");
}
