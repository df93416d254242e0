//! `PaillierPk::fold_columns` — the Straus column fold — against the
//! trait's per-cell default [`fold_columns_per_cell`]: the same ciphertext
//! bytes and the same deterministic op counts, at 1 and 4 pool threads
//! with the pool forced on.

use proptest::prelude::*;
use spfe_crypto::hom::fold_columns_per_cell;
use spfe_crypto::{
    ChaChaRng, HomomorphicPk, HomomorphicScheme, HomomorphicSk, Paillier, PaillierCt, PaillierPk,
    PaillierSk,
};
use spfe_math::{Nat, RandomSource};
use spfe_obs::{Op, OpsSnapshot};
use std::sync::{Mutex, OnceLock};

/// The op counters and pool settings are process-global; serialize the
/// tests in this binary so their measurement windows never overlap.
static LOCK: Mutex<()> = Mutex::new(());

fn keys() -> &'static (PaillierPk, PaillierSk) {
    static KEYS: OnceLock<(PaillierPk, PaillierSk)> = OnceLock::new();
    KEYS.get_or_init(|| Paillier::keygen(256, &mut ChaChaRng::from_u64_seed(0xF01D)))
}

/// Runs `f` under `threads` pool workers with the sequential fallback off
/// and returns its output with the deterministic op counts it added.
fn measured<T>(threads: usize, f: impl FnOnce() -> T) -> (T, OpsSnapshot) {
    spfe_math::par::set_threads(Some(threads));
    spfe_math::par::set_seq_threshold(Some(1));
    spfe_obs::reset_ops();
    let out = f();
    let ops = spfe_obs::ops_snapshot().deterministic_part();
    spfe_math::par::set_seq_threshold(None);
    spfe_math::par::set_threads(None);
    (out, ops)
}

/// Asserts the Straus fold equals the per-cell fold over `cells` (row
/// major, `cols` wide; missing cells read as zero), bytes and counts, and
/// returns the fold.
fn assert_folds_agree(selectors: &[PaillierCt], cols: usize, cells: &[Nat]) -> Vec<PaillierCt> {
    let pk = &keys().0;
    let cell = |i: usize| cells.get(i).cloned().unwrap_or_default();
    let bytes = |cts: &[PaillierCt]| -> Vec<Vec<u8>> {
        cts.iter().map(|c| pk.ciphertext_to_bytes(c)).collect()
    };
    let mut out = Vec::new();
    for threads in [1, 4] {
        let (want, want_ops) =
            measured(threads, || fold_columns_per_cell(pk, selectors, cols, cell));
        let (got, got_ops) = measured(threads, || pk.fold_columns(selectors, cols, cell));
        assert_eq!(bytes(&got), bytes(&want), "threads={threads}");
        assert_eq!(got_ops, want_ops, "threads={threads}");
        out = got;
    }
    out
}

/// `rows` selectors: encryptions of small plaintexts, with a zero
/// ciphertext (not a valid encryption, but well-formed on the wire) at
/// `zero_at` when given.
fn selectors(rows: usize, zero_at: Option<usize>, rng: &mut ChaChaRng) -> Vec<PaillierCt> {
    let (pk, sk) = keys();
    let ms: Vec<Nat> = (0..rows).map(|r| Nat::from(r as u64 % 3)).collect();
    let mut sels = sk.encrypt_batch(pk, &ms, rng);
    if let Some(r) = zero_at {
        sels[r] = pk
            .ciphertext_from_bytes(&vec![0; pk.ciphertext_bytes()])
            .expect("zero is below n²");
    }
    sels
}

/// A level-2 cell of recursive PIR: a ciphertext chunk as wide as fits
/// below the plaintext modulus.
fn chunk_word(rng: &mut ChaChaRng) -> Nat {
    let n = keys().0.n();
    let mut bytes = vec![0u8; (n.bit_len() - 1) / 8 - 1];
    rng.fill_bytes(&mut bytes);
    Nat::from_le_bytes(&bytes)
}

/// One layout covering every special case, and the plaintext check: each
/// column decrypts to `Σ_r m_r · cell` mod `n`.
#[test]
fn straus_fold_matches_per_cell_fold_on_edge_cells() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (pk, sk) = keys();
    let n = pk.n();
    let mut rng = ChaChaRng::from_u64_seed(7);
    let (rows, cols) = (4, 5);
    let sels = selectors(rows, None, &mut rng);
    #[rustfmt::skip]
    let cells: Vec<Nat> = vec![
        // col 0: all zero | col 1: one cell ≥ n | col 2: n itself | col 3: 1-bit … 64-bit | col 4: chunk words
        Nat::zero(), n.add(&Nat::from(9u64)), Nat::zero(), Nat::one(),           chunk_word(&mut rng),
        Nat::zero(), Nat::from(3u64),         n.clone(),   Nat::from(u64::MAX),  chunk_word(&mut rng),
        Nat::zero(), Nat::zero(),             Nat::zero(), Nat::from(1u64 << 40), Nat::zero(),
        Nat::zero(), n.mul(n),                Nat::zero(), Nat::from(0x1234u64), chunk_word(&mut rng),
    ];
    let folded = assert_folds_agree(&sels, cols, &cells);
    let ms: Vec<Nat> = sels.iter().map(|c| sk.decrypt(c)).collect();
    for (j, ct) in folded.iter().enumerate() {
        let want = (0..rows).fold(Nat::zero(), |acc, r| {
            acc.add(&ms[r].mul(&cells[r * cols + j])).rem(n)
        });
        assert_eq!(sk.decrypt(ct), want, "column {j}");
    }
    // The all-zero column is the canonical 1, as `mul_const(sel₀, 0)` is.
    assert_eq!(pk.ciphertext_to_bytes(&folded[0]), {
        let mut one = vec![0u8; pk.ciphertext_bytes()];
        one[0] = 1;
        one
    });
    // Logical counts: per column, one scalar multiplication and one
    // modexp per non-zero cell (one of each when there is none) and one
    // addition per accumulation.
    let (_, ops) = measured(1, || pk.fold_columns(&sels, cols, |i| cells[i].clone()));
    let nz: Vec<u64> = (0..cols)
        .map(|j| {
            (0..rows)
                .filter(|&r| !cells[r * cols + j].is_zero())
                .count() as u64
        })
        .collect();
    assert_eq!(nz, [0, 3, 1, 4, 3]);
    assert_eq!(ops.get(Op::HomScalarMul), 1 + 3 + 1 + 4 + 3);
    assert_eq!(ops.get(Op::Modexp), 1 + 3 + 1 + 4 + 3);
    assert_eq!(ops.get(Op::HomAdd), 2 + 3 + 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random non-square layouts (including single rows and columns) with
    /// zero cells, cells of 1 to 64 bits, cells at or above `n`, chunk
    /// words, and sometimes a zero selector ciphertext.
    #[test]
    fn prop_straus_fold_matches_per_cell_fold(
        rows in 1usize..7,
        cols in 1usize..7,
        zero_sel in 0usize..10,
        seed in any::<u64>(),
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let n = keys().0.n().clone();
        let sels = selectors(rows, (zero_sel < rows).then_some(zero_sel), &mut rng);
        let cells: Vec<Nat> = (0..rows * cols)
            .map(|_| match rng.next_u64() % 8 {
                0..=2 => Nat::zero(),
                3 => n.add(&Nat::from(rng.next_u64() % 4)),
                4 => chunk_word(&mut rng),
                _ => Nat::from(rng.next_u64() >> (rng.next_u64() % 64)),
            })
            .collect();
        assert_folds_agree(&sels, cols, &cells);
    }
}
