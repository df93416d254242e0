//! Thread-count invariance of the op counters on the hom-PIR scan path:
//! `PirWordsScanned` (and every other deterministic counter the protocol
//! touches) must be bit-identical whether the server's column scan runs
//! serially or on the worker pool — and equal to the logical count of the
//! scan, whatever kernel the column fold runs.

use proptest::prelude::*;
use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
use spfe_obs::{Op, OpsSnapshot};
use spfe_pir::hom_pir::{self, Layout};
use spfe_transport::Transcript;
use std::sync::Mutex;

/// The op counters are process-global; serialize the tests in this binary
/// so their measurement windows never overlap.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs one full hom-PIR retrieval under `threads` pool workers (with the
/// sequential-fallback threshold forced to 1 so the scan actually hits the
/// pool) and returns the deterministic part of the counters.
fn scan_counts(threads: usize, db: &[u64], idx: usize) -> OpsSnapshot {
    let mut rng = ChaChaRng::from_u64_seed(0x5CA7);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    spfe_math::par::set_threads(Some(threads));
    spfe_math::par::set_seq_threshold(Some(1));
    spfe_obs::reset_ops();
    let mut t = Transcript::new(1);
    assert_eq!(
        hom_pir::run(&mut t, &pk, &sk, db, idx, &mut rng).unwrap(),
        db[idx]
    );
    let snap = spfe_obs::ops_snapshot().deterministic_part();
    spfe_math::par::set_seq_threshold(None);
    spfe_math::par::set_threads(None);
    snap
}

/// Pins a retrieval's counts to the scan's logical cost: per column, one
/// `HomScalarMul` per non-zero cell (one for an all-zero column) and one
/// `HomAdd` per accumulation; one `Modexp` per scalar multiplication,
/// encryption and decryption.
fn assert_logical_counts(ops: &OpsSnapshot, db: &[u64]) {
    let layout = Layout::square(db.len());
    let (mut muls, mut adds) = (0, 0);
    for j in 0..layout.cols {
        let nz = (0..layout.rows)
            .filter(|&r| db.get(r * layout.cols + j).is_some_and(|&v| v != 0))
            .count() as u64;
        muls += nz.max(1);
        adds += nz.saturating_sub(1);
    }
    assert_eq!(ops.get(Op::PirWordsScanned), layout.cells() as u64);
    assert_eq!(ops.get(Op::PaillierEncrypt), layout.rows as u64);
    assert_eq!(ops.get(Op::PaillierDecrypt), 1);
    assert_eq!(ops.get(Op::HomScalarMul), muls);
    assert_eq!(ops.get(Op::HomAdd), adds);
    assert_eq!(ops.get(Op::Modexp), muls + layout.rows as u64 + 1);
}

#[test]
fn hom_pir_scan_counts_thread_invariant() {
    let _g = LOCK.lock().unwrap();
    let n = 64;
    let db: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
    let serial = scan_counts(1, &db, n / 2);
    let parallel = scan_counts(4, &db, n / 2);
    assert_eq!(serial, parallel);
    assert_logical_counts(&serial, &db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn prop_hom_pir_scan_counts_thread_invariant(n in 4usize..80, sel in any::<u64>()) {
        let _g = LOCK.lock().unwrap();
        // Every fifth item zero, so columns differ in their non-zero cells.
        let db: Vec<u64> = (0..n as u64)
            .map(|i| if i % 5 == 2 { 0 } else { i * 13 + 5 })
            .collect();
        let idx = (sel % n as u64) as usize;
        let serial = scan_counts(1, &db, idx);
        let parallel = scan_counts(4, &db, idx);
        prop_assert_eq!(serial, parallel);
        assert_logical_counts(&serial, &db);
    }
}
