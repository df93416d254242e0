//! Depth-2 recursive Kushilevitz–Ostrovsky PIR (\[32\]'s recursion step).
//!
//! The √n scheme of [`crate::hom_pir`] sends `O(√n)` ciphertexts each way.
//! Recursing once more — treating the first level's answer ciphertexts as
//! a *new database* queried by a second encrypted unit vector — drops the
//! communication to `O((F·n)^{1/3})` ciphertexts (where `F ≈ 3` is the
//! ciphertext/plaintext expansion), at the cost of one more decryption
//! layer on the client. This is the ablation the paper's PIR citations
//! \[32, 12\] motivate: deeper recursion buys asymptotically smaller
//! queries.
//!
//! Level 1: database as a `d1 × d2` grid; the client selects a super-row
//! with `d1` ciphertexts; the server folds the grid into `d2` first-level
//! answer ciphertexts. Level 2: those `d2` ciphertexts, split into
//! plaintext-sized chunks, form a `r2 × c2` grid queried by `r2` more
//! ciphertexts; the client decrypts twice.

use crate::hom_pir::Layout;
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_math::{Nat, RandomSource};
use spfe_transport::{Channel, ChannelExt, ProtocolError, Reader, Wire, WireError};

/// Dimensions of the two recursion levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursiveLayout {
    /// Level-1 rows (length of the first query).
    pub d1: usize,
    /// Level-1 columns (= size of the level-2 database).
    pub d2: usize,
    /// Level-2 rows (length of the second query).
    pub r2: usize,
    /// Level-2 columns.
    pub c2: usize,
}

impl RecursiveLayout {
    /// Balanced dimensions for `n` items: all three query/answer lengths
    /// ≈ `n^{1/3}`-scale.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn balanced(n: usize) -> Self {
        assert!(n > 0);
        let cube = (n as f64).powf(1.0 / 3.0).ceil() as usize;
        let d1 = cube.max(1);
        let d2 = n.div_ceil(d1);
        let r2 = (d2 as f64).sqrt().ceil() as usize;
        let c2 = d2.div_ceil(r2.max(1));
        RecursiveLayout {
            d1,
            d2: r2 * c2,
            r2,
            c2,
        }
    }

    fn level1_pos(&self, i: usize) -> (usize, usize) {
        (i / self.d2, i % self.d2)
    }
}

/// The client's combined query: two encrypted unit vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecursiveQuery {
    /// Level-1 selector (`d1` ciphertexts).
    pub level1: Vec<Vec<u8>>,
    /// Level-2 selector (`r2` ciphertexts).
    pub level2: Vec<Vec<u8>>,
}

impl Wire for RecursiveQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.level1.encode(out);
        self.level2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RecursiveQuery {
            level1: Vec::<Vec<u8>>::decode(r)?,
            level2: Vec::<Vec<u8>>::decode(r)?,
        })
    }
}

/// Usable plaintext chunk size in bytes (strictly below the modulus).
fn chunk_bytes<P: HomomorphicPk>(pk: &P) -> usize {
    (pk.plaintext_modulus().bit_len() - 1) / 8 - 1
}

/// Client: builds the two-level query for `index`.
///
/// # Panics
///
/// Panics if the index is out of range.
pub fn client_query<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    pk: &P,
    sk: &S,
    layout: &RecursiveLayout,
    index: usize,
    rng: &mut R,
) -> RecursiveQuery {
    assert!(index < layout.d1 * layout.d2, "index out of range");
    let (row1, col1) = layout.level1_pos(index);
    let (row2, _) = (col1 / layout.c2, col1 % layout.c2);
    let unit = |len: usize, target: usize, rng: &mut R| -> Vec<Vec<u8>> {
        let bits: Vec<Nat> = (0..len)
            .map(|r| if r == target { Nat::one() } else { Nat::zero() })
            .collect();
        sk.encrypt_batch(pk, &bits, rng)
            .iter()
            .map(|ct| pk.ciphertext_to_bytes(ct))
            .collect()
    };
    RecursiveQuery {
        level1: unit(layout.d1, row1, rng),
        level2: unit(layout.r2, row2, rng),
    }
}

/// Server: the two folding passes. Returns `c2 × chunks` ciphertext blobs.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on a malformed (client-controlled)
/// query: wrong arity or undecodable ciphertexts.
///
/// # Panics
///
/// Panics on db values ≥ plaintext modulus (the server's own data).
pub fn server_answer<P: HomomorphicPk>(
    pk: &P,
    layout: &RecursiveLayout,
    db: &[u64],
    query: &RecursiveQuery,
) -> Result<Vec<Vec<Vec<u8>>>, ProtocolError> {
    if query.level1.len() != layout.d1 || query.level2.len() != layout.r2 {
        return Err(ProtocolError::InvalidMessage {
            label: "recpir-query",
            reason: "query arity does not match layout",
        });
    }
    // Level 1 touches every (padded) cell of the d1 × d2 matrix.
    spfe_obs::count(
        spfe_obs::Op::PirWordsScanned,
        (layout.d1 * layout.d2) as u64,
    );
    let sel1: Vec<P::Ciphertext> = query
        .level1
        .iter()
        .map(|b| {
            pk.ciphertext_from_bytes(b)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "recpir-query",
                    reason: "malformed level-1 ciphertext",
                })
        })
        .collect::<Result<_, _>>()?;
    // Level 1: fold rows into d2 ciphertexts.
    let level1_layout = Layout {
        rows: layout.d1,
        cols: layout.d2,
    };
    let level1_cts: Vec<P::Ciphertext> = (0..layout.d2)
        .map(|j| {
            let mut acc: Option<P::Ciphertext> = None;
            for (r, sel) in sel1.iter().enumerate() {
                let i = r * level1_layout.cols + j;
                let v = db.get(i).copied().unwrap_or(0);
                if v == 0 {
                    continue;
                }
                let term = pk.mul_const(sel, &Nat::from(v));
                acc = Some(match acc {
                    None => term,
                    Some(prev) => pk.add(&prev, &term),
                });
            }
            acc.unwrap_or_else(|| pk.mul_const(&sel1[0], &Nat::zero()))
        })
        .collect();

    // Level 2: the d2 ciphertexts, chunked, become the new database.
    let cw = chunk_bytes(pk);
    let n_chunks = pk.ciphertext_bytes().div_ceil(cw);
    let sel2: Vec<P::Ciphertext> = query
        .level2
        .iter()
        .map(|b| {
            pk.ciphertext_from_bytes(b)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "recpir-query",
                    reason: "malformed level-2 ciphertext",
                })
        })
        .collect::<Result<_, _>>()?;
    Ok((0..layout.c2)
        .map(|j| {
            (0..n_chunks)
                .map(|ch| {
                    let mut acc: Option<P::Ciphertext> = None;
                    for (r, sel) in sel2.iter().enumerate() {
                        let item = r * layout.c2 + j;
                        let chunk_val = if item < level1_cts.len() {
                            let bytes = pk.ciphertext_to_bytes(&level1_cts[item]);
                            let lo = ch * cw;
                            let hi = ((ch + 1) * cw).min(bytes.len());
                            if lo < hi {
                                Nat::from_le_bytes(&bytes[lo..hi])
                            } else {
                                Nat::zero()
                            }
                        } else {
                            Nat::zero()
                        };
                        if chunk_val.is_zero() {
                            continue;
                        }
                        let term = pk.mul_const(sel, &chunk_val);
                        acc = Some(match acc {
                            None => term,
                            Some(prev) => pk.add(&prev, &term),
                        });
                    }
                    pk.ciphertext_to_bytes(
                        &acc.unwrap_or_else(|| pk.mul_const(&sel2[0], &Nat::zero())),
                    )
                })
                .collect()
        })
        .collect())
}

/// Client: double decryption.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on a malformed (server-controlled)
/// answer: missing columns, undecodable ciphertexts, or an oversized item.
pub fn client_decode<P: HomomorphicPk, S: HomomorphicSk<P>>(
    pk: &P,
    sk: &S,
    layout: &RecursiveLayout,
    index: usize,
    answer: &[Vec<Vec<u8>>],
) -> Result<u64, ProtocolError> {
    const BAD: ProtocolError = ProtocolError::InvalidMessage {
        label: "recpir-answer",
        reason: "malformed answer",
    };
    let (_, col1) = layout.level1_pos(index);
    let col2 = col1 % layout.c2;
    let cw = chunk_bytes(pk);
    // Outer decryption: recover the level-1 ciphertext bytes.
    let mut level1_ct_bytes = Vec::with_capacity(pk.ciphertext_bytes());
    for chunk_ct in answer.get(col2).ok_or(BAD)? {
        let ct = pk.ciphertext_from_bytes(chunk_ct).ok_or(BAD)?;
        let chunk = sk.decrypt(&ct);
        let width = cw.min(pk.ciphertext_bytes().saturating_sub(level1_ct_bytes.len()));
        // A tampered answer can decrypt to a value wider than the chunk;
        // reject it rather than let the padded serializer panic.
        let mut le = chunk.to_be_bytes();
        le.reverse();
        if le.len() > width {
            return Err(BAD);
        }
        le.resize(width, 0);
        level1_ct_bytes.extend(le);
    }
    // Inner decryption: the actual item.
    let inner = pk.ciphertext_from_bytes(&level1_ct_bytes).ok_or(BAD)?;
    sk.decrypt(&inner).to_u64().ok_or(BAD)
}

/// Runs the depth-2 scheme over a metered channel.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on index out of range (a driver bug, not an attack).
pub fn run<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    db: &[u64],
    index: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    let _proto = spfe_obs::span("recpir");
    let layout = RecursiveLayout::balanced(db.len());
    let q = {
        let _s = spfe_obs::span("query-gen");
        client_query(pk, sk, &layout, index, rng)
    };
    let q = t.client_to_server(0, "recpir-query", &q)?;
    let a = {
        let _s = spfe_obs::span("server-scan");
        server_answer(pk, &layout, db, &q)?
    };
    let a = t.server_to_client(0, "recpir-answer", &a)?;
    let _s = spfe_obs::span("reconstruct");
    client_decode(pk, sk, &layout, index, &a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom_pir;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn setup() -> (spfe_crypto::PaillierPk, spfe_crypto::PaillierSk, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0x2EC);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        (pk, sk, rng)
    }

    fn db(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 11 + 3).collect()
    }

    #[test]
    fn layout_covers_all_items() {
        for n in [1usize, 10, 100, 1_000] {
            let l = RecursiveLayout::balanced(n);
            assert!(l.d1 * l.d2 >= n, "n={n} {l:?}");
            assert_eq!(l.d2, l.r2 * l.c2);
        }
    }

    #[test]
    fn retrieves_every_index_small() {
        let (pk, sk, mut rng) = setup();
        let database = db(30);
        for i in 0..database.len() {
            let mut t = Transcript::new(1);
            assert_eq!(
                run(&mut t, &pk, &sk, &database, i, &mut rng).unwrap(),
                database[i],
                "i={i}"
            );
        }
    }

    #[test]
    fn single_round() {
        let (pk, sk, mut rng) = setup();
        let database = db(64);
        let mut t = Transcript::new(1);
        run(&mut t, &pk, &sk, &database, 17, &mut rng).unwrap();
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn beats_sqrt_scheme_at_large_n() {
        // The recursion ablation: at large n the (F·n)^{1/3} query beats
        // the 2√n query in total bytes.
        let (pk, sk, mut rng) = setup();
        let n = 20_000;
        let database = db(n);
        let mut t_rec = Transcript::new(1);
        let got = run(&mut t_rec, &pk, &sk, &database, 12_345, &mut rng).unwrap();
        assert_eq!(got, database[12_345]);
        let mut t_sqrt = Transcript::new(1);
        let got2 = hom_pir::run(&mut t_sqrt, &pk, &sk, &database, 12_345, &mut rng).unwrap();
        assert_eq!(got2, database[12_345]);
        let (rec, sqrt) = (t_rec.report().total_bytes(), t_sqrt.report().total_bytes());
        assert!(rec < sqrt, "depth-2 {rec} should beat sqrt {sqrt} at n={n}");
    }

    #[test]
    fn zero_values_and_padding_cells() {
        let (pk, sk, mut rng) = setup();
        let database = vec![0u64, 5, 0, 0, 9, 0, 0]; // padding beyond 7 cells
        for (i, &v) in database.iter().enumerate() {
            let mut t = Transcript::new(1);
            assert_eq!(
                run(&mut t, &pk, &sk, &database, i, &mut rng).unwrap(),
                v,
                "i={i}"
            );
        }
    }
}
