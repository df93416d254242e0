//! Thread-count invariance of the op counters (the `spfe-obs` contract):
//! the deterministic counter subset must be bit-identical whether the
//! worker pool runs with one thread or several, because every probe site
//! counts *work items*, not scheduling events.

use proptest::prelude::*;
use spfe_crypto::{
    elgamal_keygen, ChaChaRng, HomomorphicPk, HomomorphicScheme, HomomorphicSk, Paillier,
    SchnorrGroup,
};
use spfe_math::Nat;
use spfe_obs::{Op, OpsSnapshot};
use std::sync::Mutex;

/// The op counters are process-global; serialize the tests in this binary
/// so their measurement windows never overlap.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under `threads` pool workers (with the sequential-fallback
/// threshold forced to 1 so even small batches actually hit the pool) and
/// returns the deterministic part of the counters it incremented.
fn counts_at(threads: usize, f: impl Fn(&mut ChaChaRng)) -> OpsSnapshot {
    spfe_math::par::set_threads(Some(threads));
    spfe_math::par::set_seq_threshold(Some(1));
    spfe_obs::reset_ops();
    let mut rng = ChaChaRng::from_u64_seed(0xC0DE);
    f(&mut rng);
    let snap = spfe_obs::ops_snapshot().deterministic_part();
    spfe_math::par::set_seq_threshold(None);
    spfe_math::par::set_threads(None);
    snap
}

#[test]
fn paillier_batch_counts_thread_invariant() {
    let _g = LOCK.lock().unwrap();
    let mut rng = ChaChaRng::from_u64_seed(1);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let run = |rng: &mut ChaChaRng| {
        let ms: Vec<Nat> = (0..12u64).map(Nat::from).collect();
        let cts = pk.encrypt_batch(&ms, rng);
        let cs: Vec<Nat> = (1..=12u64).map(Nat::from).collect();
        let prods = pk.scalar_mul_batch(&cts, &cs);
        for (i, ct) in prods.iter().enumerate() {
            assert_eq!(sk.decrypt(ct).to_u64().unwrap(), (i * (i + 1)) as u64);
        }
    };
    let serial = counts_at(1, run);
    let parallel = counts_at(4, run);
    assert_eq!(serial, parallel);
    assert_eq!(serial.get(Op::PaillierEncrypt), 12);
    assert_eq!(serial.get(Op::PaillierDecrypt), 12);
    assert_eq!(serial.get(Op::HomScalarMul), 12);
    assert!(serial.get(Op::Modexp) > 0);
}

#[test]
fn elgamal_batch_counts_thread_invariant() {
    let _g = LOCK.lock().unwrap();
    let mut rng = ChaChaRng::from_u64_seed(2);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = elgamal_keygen(group, 1 << 12, &mut rng);
    let run = |rng: &mut ChaChaRng| {
        let ms: Vec<Nat> = (0..9u64).map(Nat::from).collect();
        let cts = pk.encrypt_batch(&ms, rng);
        let cs: Vec<Nat> = (1..=9u64).map(Nat::from).collect();
        let prods = pk.scalar_mul_batch(&cts, &cs);
        for (i, ct) in prods.iter().enumerate() {
            assert_eq!(sk.decrypt(ct).to_u64().unwrap(), (i * (i + 1)) as u64);
        }
    };
    let serial = counts_at(1, run);
    let parallel = counts_at(4, run);
    assert_eq!(serial, parallel);
    assert_eq!(serial.get(Op::ElGamalEncrypt), 9);
    assert_eq!(serial.get(Op::ElGamalDecrypt), 9);
    assert_eq!(serial.get(Op::HomScalarMul), 9);
}

/// The key holder's CRT encryption and decryption count exactly what the
/// public `n²` path counts — one `Modexp` per encryption or decryption —
/// at every pool size, at 128, 512 and 2048 bits.
#[test]
fn paillier_crt_counts_match_public_path() {
    let _g = LOCK.lock().unwrap();
    for (bits, seed) in [(128, 4u64), (512, 5), (2048, 6)] {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let (pk, sk) = Paillier::keygen(bits, &mut rng);
        let ms: Vec<Nat> = (0..5u64).map(|v| Nat::from(v * 77)).collect();
        for threads in [1, 4] {
            let public = counts_at(threads, |rng| {
                let cts = pk.encrypt_batch(&ms, rng);
                let _ = sk.decrypt(&cts[1]);
            });
            let crt = counts_at(threads, |rng| {
                let cts = sk.encrypt_batch(&pk, &ms, rng);
                let _ = sk.decrypt(&cts[1]);
            });
            assert_eq!(public, crt, "bits={bits} threads={threads}");
            assert_eq!(crt.get(Op::PaillierEncrypt), 5);
            assert_eq!(crt.get(Op::Modexp), 6);
            // One key-holder encryption is one logical exponentiation,
            // however many half-width powers the lift takes.
            let one = counts_at(threads, |rng| {
                let _ = sk.encrypt_batch(&pk, &ms[..1], rng);
            });
            assert_eq!(one.get(Op::PaillierEncrypt), 1, "bits={bits}");
            assert_eq!(one.get(Op::Modexp), 1, "bits={bits}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_paillier_batch_counts_thread_invariant(
        len in 1usize..24,
        vals in proptest::collection::vec(0u64..1_000, 24..25),
    ) {
        let _g = LOCK.lock().unwrap();
        let mut rng = ChaChaRng::from_u64_seed(3);
        let (pk, _sk) = Paillier::keygen(160, &mut rng);
        let run = |rng: &mut ChaChaRng| {
            let ms: Vec<Nat> = vals[..len].iter().map(|&v| Nat::from(v)).collect();
            let cts = pk.encrypt_batch(&ms, rng);
            let cs: Vec<Nat> = vec![Nat::from(3u64); len];
            let _ = pk.scalar_mul_batch(&cts, &cs);
        };
        let serial = counts_at(1, run);
        let parallel = counts_at(4, run);
        prop_assert_eq!(serial, parallel);
        prop_assert_eq!(serial.get(Op::PaillierEncrypt), len as u64);
        prop_assert_eq!(serial.get(Op::HomScalarMul), len as u64);
    }
}

/// Batch encryption and the Straus column fold hand the pool groups of
/// `POW_BATCH_GROUP`, and two groups already split: 9, 16 and 17
/// encryptions (public and key-holder paths) and a 16-column fold give
/// the same bytes at 1 and 2 threads, and at 2 threads, with the class
/// default threshold, the two-group jobs run on the pool.
#[test]
fn batch_groups_go_to_the_pool_from_two() {
    use spfe_math::POW_BATCH_GROUP;
    let _g = LOCK.lock().unwrap();
    let (pk, sk) = Paillier::keygen(256, &mut ChaChaRng::from_u64_seed(9));
    let pool_runs = |threads: usize, f: &dyn Fn() -> Vec<Vec<u8>>| {
        spfe_math::par::set_threads(Some(threads));
        spfe_obs::reset_ops();
        let out = f();
        let runs = spfe_obs::ops_snapshot().get(Op::PoolRuns);
        spfe_math::par::set_threads(None);
        (out, runs)
    };
    let bytes = |cts: &[spfe_crypto::PaillierCt]| -> Vec<Vec<u8>> {
        cts.iter().map(|c| pk.ciphertext_to_bytes(c)).collect()
    };
    for len in [9usize, 16, 17] {
        assert_eq!(len.div_ceil(POW_BATCH_GROUP), 2 + usize::from(len > 16));
        let ms: Vec<Nat> = (0..len as u64).map(|v| Nat::from(v * 31)).collect();
        let public = || bytes(&pk.encrypt_batch(&ms, &mut ChaChaRng::from_u64_seed(3)));
        let crt = || bytes(&sk.encrypt_batch(&pk, &ms, &mut ChaChaRng::from_u64_seed(3)));
        for run in [&public as &dyn Fn() -> Vec<Vec<u8>>, &crt] {
            let (serial, serial_runs) = pool_runs(1, run);
            let (pooled, pooled_runs) = pool_runs(2, run);
            assert_eq!(serial, pooled, "len={len}");
            assert_eq!(serial_runs, 0, "len={len}");
            assert!(pooled_runs >= 1, "len={len}: two groups stayed serial");
        }
    }
    let sels = sk.encrypt_batch(
        &pk,
        &[Nat::one(), Nat::from(2u64)],
        &mut ChaChaRng::from_u64_seed(4),
    );
    let fold = || bytes(&pk.fold_columns(&sels, 16, |i| Nat::from(i as u64 % 7)));
    let (serial, _) = pool_runs(1, &fold);
    let (pooled, pooled_runs) = pool_runs(2, &fold);
    assert_eq!(serial, pooled);
    assert!(pooled_runs >= 1, "a two-group fold stayed serial");
}

/// `decrypt_batch` counts what mapping `decrypt` counts — one
/// `PaillierDecrypt` and one `Modexp` per ciphertext — at every pool size.
#[test]
fn decrypt_batch_counts_match_decrypt() {
    let _g = LOCK.lock().unwrap();
    let (pk, sk) = Paillier::keygen(160, &mut ChaChaRng::from_u64_seed(10));
    let ms: Vec<Nat> = (0..9u64).map(Nat::from).collect();
    let cts = sk.encrypt_batch(&pk, &ms, &mut ChaChaRng::from_u64_seed(11));
    for threads in [1, 4] {
        let mapped = counts_at(threads, |_| {
            let got: Vec<Nat> = cts.iter().map(|ct| sk.decrypt(ct)).collect();
            assert_eq!(got, ms);
        });
        let batch = counts_at(threads, |_| assert_eq!(sk.decrypt_batch(&cts), ms));
        assert_eq!(mapped, batch, "threads={threads}");
        assert_eq!(batch.get(Op::PaillierDecrypt), 9);
        assert_eq!(batch.get(Op::Modexp), 9);
    }
}
