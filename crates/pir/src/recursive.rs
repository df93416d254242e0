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
//! ciphertexts; the client decrypts twice. Both levels run the column
//! fold of `hom_pir::fold_columns`.
//!
//! Each party is written once, as a sans-io core (DESIGN.md §15): [`run`]
//! pumps [`RecursiveClientCore`] against a [`RecursiveServerCore`] in
//! process, and the networked server hosts the same server core.

use crate::hom_pir;
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_math::{Nat, RandomSource};
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, Reader, SessionCore,
    SessionState, Wire, WireError,
};
use std::borrow::Cow;

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

/// Server: the two folding passes, both the column fold of
/// `hom_pir::fold_columns`. Returns `c2 × chunks` ciphertext blobs.
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
    let sel1 = hom_pir::parse_selectors(pk, &query.level1, "recpir-query")?;
    let sel2 = hom_pir::parse_selectors(pk, &query.level2, "recpir-query")?;
    // Level 1: fold rows into d2 ciphertexts.
    let level1: Vec<Vec<u8>> = hom_pir::fold_columns(pk, &sel1, layout.d2, |i| {
        Nat::from(db.get(i).copied().unwrap_or(0))
    })
    .iter()
    .map(|ct| pk.ciphertext_to_bytes(ct))
    .collect();

    // Level 2: the d2 ciphertexts, chunked, become the new database — one
    // fold per chunk plane.
    let cw = chunk_bytes(pk);
    let n_chunks = pk.ciphertext_bytes().div_ceil(cw);
    let planes: Vec<Vec<P::Ciphertext>> = (0..n_chunks)
        .map(|ch| {
            hom_pir::fold_columns(pk, &sel2, layout.c2, |item| {
                let Some(bytes) = level1.get(item) else {
                    return Nat::zero();
                };
                let (lo, hi) = (ch * cw, ((ch + 1) * cw).min(bytes.len()));
                if lo < hi {
                    Nat::from_le_bytes(&bytes[lo..hi])
                } else {
                    Nat::zero()
                }
            })
        })
        .collect();
    Ok((0..layout.c2)
        .map(|j| {
            planes
                .iter()
                .map(|plane| pk.ciphertext_to_bytes(&plane[j]))
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

/// Runs the depth-2 scheme over a metered channel: [`pump`] over a
/// client core and one server core, which borrows `db`.
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
    let mut client = RecursiveClientCore::new(pk.clone(), sk.clone(), db.len(), index, rng);
    let server = Box::new(RecursiveServerCore::new(pk.clone(), db));
    pump(t, &mut client, &mut [server])
}

/// Server half of depth-2 recursive PIR as a sans-io state machine.
#[derive(Debug)]
pub struct RecursiveServerCore<'a, P: HomomorphicPk> {
    once: AnswerOnce,
    pk: P,
    layout: RecursiveLayout,
    db: Cow<'a, [u64]>,
}

impl<'a, P: HomomorphicPk> RecursiveServerCore<'a, P> {
    /// A core holding (or borrowing) `db` under the balanced layout for
    /// its size.
    pub fn new(pk: P, db: impl Into<Cow<'a, [u64]>>) -> Self {
        let db = db.into();
        RecursiveServerCore {
            once: AnswerOnce::new(0, "recpir-query", "recpir-answer"),
            pk,
            layout: RecursiveLayout::balanced(db.len()),
            db,
        }
    }
}

impl<P: HomomorphicPk> SessionCore for RecursiveServerCore<'_, P> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let query = RecursiveQuery::from_bytes(payload)?;
            let _s = spfe_obs::span("server-scan");
            Ok(server_answer(&self.pk, &self.layout, &self.db, &query)?.to_bytes())
        })
    }
}

/// Client half of depth-2 recursive PIR: query at start, double
/// decryption on answer.
#[derive(Debug)]
pub struct RecursiveClientCore<P: HomomorphicPk, S: HomomorphicSk<P>> {
    pk: P,
    sk: S,
    layout: RecursiveLayout,
    index: usize,
    round: OneRound<RecursiveQuery, Vec<Vec<Vec<u8>>>>,
    result: Option<u64>,
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> RecursiveClientCore<P, S> {
    /// A client core retrieving `index` from an `n`-item database; both
    /// selectors are encrypted here.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the layout for `n`.
    pub fn new<R: RandomSource + ?Sized>(
        pk: P,
        sk: S,
        n: usize,
        index: usize,
        rng: &mut R,
    ) -> Self {
        let _s = spfe_obs::span("query-gen");
        let layout = RecursiveLayout::balanced(n);
        let query = client_query(&pk, &sk, &layout, index, rng);
        RecursiveClientCore {
            pk,
            sk,
            layout,
            index,
            round: OneRound::new("recpir-query", "recpir-answer", vec![query]),
            result: None,
        }
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for RecursiveClientCore<P, S> {
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.round.start()
    }

    fn on_message(
        &mut self,
        _half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let Some(answers) = self.round.receive(server, label, payload)? else {
            return Ok((SessionState::Running, Vec::new()));
        };
        let _s = spfe_obs::span("reconstruct");
        self.result = Some(client_decode(
            &self.pk,
            &self.sk,
            &self.layout,
            self.index,
            &answers[0],
        )?);
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for RecursiveClientCore<P, S> {
    fn digest(&self) -> Option<u64> {
        self.result
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
