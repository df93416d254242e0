//! Single-server computational PIR from additively homomorphic encryption
//! (Kushilevitz–Ostrovsky \[32\] style, √n layout).
//!
//! The database is arranged as a `rows × cols` matrix. The client sends the
//! encrypted unit vector of its target row (`rows` ciphertexts); the server
//! homomorphically computes, for every column `j`,
//! `C_j = Σ_r E(e_r)·x[r][j] = E(x[row][j])` and returns the `cols`
//! ciphertexts. With `rows = cols = ⌈√n⌉` the communication is
//! `O(√n · κ)` — sublinear, the property the whole paper builds on.
//!
//! Note: the client decrypts its entire row, so this is *plain* PIR; the
//! SPIR layer that restricts the client to a single item is added in
//! [`crate::spir`].
//!
//! Each party is written once, as a sans-io core (DESIGN.md §15): [`run`]
//! pumps [`HomPirClientCore`] against a [`HomPirServerCore`] in process,
//! and the networked server hosts the same server core.

use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_math::{Nat, RandomSource};
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, Reader, SessionCore,
    SessionState, Wire, WireError,
};
use std::borrow::Cow;

/// Matrix layout for a database of `n` items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Number of rows (the dimension the encrypted selector covers).
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Layout {
    /// The balanced `⌈√n⌉ × ⌈n/rows⌉` layout.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn square(n: usize) -> Self {
        assert!(n > 0);
        // Exact ⌈√n⌉ via integer isqrt — `f64` rounding misplaces the
        // ceiling for n within 2^53-scale of a perfect square.
        let s = n.isqrt();
        let rows = if s * s == n { s } else { s + 1 };
        let cols = n.div_ceil(rows);
        Layout { rows, cols }
    }

    /// Position of item `i`.
    pub fn position(&self, i: usize) -> (usize, usize) {
        (i / self.cols, i % self.cols)
    }

    /// Total cells (≥ n; the tail is padding).
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// The client query: encryptions of the row unit vector (opaque ciphertext
/// bytes so the message is scheme-agnostic on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomPirQuery {
    /// One ciphertext per row.
    pub row_selector: Vec<Vec<u8>>,
}

impl Wire for HomPirQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.row_selector.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HomPirQuery {
            row_selector: Vec::<Vec<u8>>::decode(r)?,
        })
    }
}

/// The server answer: one ciphertext per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomPirAnswer {
    /// `E(x[row][j])` for each column `j`.
    pub columns: Vec<Vec<u8>>,
}

impl Wire for HomPirAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.columns.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HomPirAnswer {
            columns: Vec::<Vec<u8>>::decode(r)?,
        })
    }
}

/// Client: builds the encrypted row selector for `index`. The client
/// holds the secret key, so it encrypts through
/// [`HomomorphicSk::encrypt_batch`] (CRT for Paillier; same bytes).
///
/// # Panics
///
/// Panics if `index >= layout.cells()`.
pub fn client_query<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    pk: &P,
    sk: &S,
    layout: &Layout,
    index: usize,
    rng: &mut R,
) -> HomPirQuery {
    assert!(index < layout.cells(), "index out of range");
    let (row, _) = layout.position(index);
    let bits: Vec<Nat> = (0..layout.rows)
        .map(|r| if r == row { Nat::one() } else { Nat::zero() })
        .collect();
    let row_selector = sk
        .encrypt_batch(pk, &bits, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    HomPirQuery { row_selector }
}

/// Server: homomorphic inner products, one per column.
///
/// Returns the raw selected-row ciphertexts; used directly for PIR and as
/// the first step of the SPIR transform.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) query
/// arity mismatches the layout or a ciphertext is malformed.
///
/// # Panics
///
/// Panics if a database value exceeds the plaintext modulus (the server's
/// own data).
pub fn server_answer<P: HomomorphicPk>(
    pk: &P,
    layout: &Layout,
    db: &[u64],
    query: &HomPirQuery,
) -> Result<Vec<P::Ciphertext>, ProtocolError> {
    let mut planes = server_answer_planes(pk, layout, 1, query, |_, i| {
        Nat::from(db.get(i).copied().unwrap_or(0))
    })?;
    Ok(planes.remove(0))
}

/// [`server_answer`] on `planes` databases of one layout under one query:
/// `out[c]` answers the plane whose cell `i` is `cell(c, i)`. The selectors
/// are parsed once and folded once, over `planes · cols` columns
/// plane-major, so a Paillier scan builds one window table per query
/// rather than one per plane.
///
/// # Errors
///
/// As [`server_answer`].
pub(crate) fn server_answer_planes<P: HomomorphicPk>(
    pk: &P,
    layout: &Layout,
    planes: usize,
    query: &HomPirQuery,
    cell: impl Fn(usize, usize) -> Nat + Sync,
) -> Result<Vec<Vec<P::Ciphertext>>, ProtocolError> {
    if query.row_selector.len() != layout.rows {
        return Err(ProtocolError::InvalidMessage {
            label: "hompir-query",
            reason: "query arity mismatches layout",
        });
    }
    // Counted once on the calling thread (not inside the parallel closure)
    // so the tally is identical under any worker-pool configuration.
    spfe_obs::count(
        spfe_obs::Op::PirWordsScanned,
        (planes * layout.cells()) as u64,
    );
    let selectors = parse_selectors(pk, &query.row_selector, "hompir-query")?;
    Ok(fold_planes(pk, &selectors, planes, layout.cols, cell))
}

/// [`HomomorphicPk::fold_columns`] on `planes` databases of `cols` columns
/// under the same selectors, as one call over `planes · cols` columns,
/// plane-major: `out[c][j]` is column `j` of the plane whose cell `i` is
/// `cell(c, i)`.
pub(crate) fn fold_planes<P: HomomorphicPk>(
    pk: &P,
    selectors: &[P::Ciphertext],
    planes: usize,
    cols: usize,
    cell: impl Fn(usize, usize) -> Nat + Sync,
) -> Vec<Vec<P::Ciphertext>> {
    let width = planes * cols;
    let mut folded = pk
        .fold_columns(selectors, width, |i| {
            let (r, c, j) = (i / width, i % width / cols, i % cols);
            cell(c, r * cols + j)
        })
        .into_iter();
    (0..planes)
        .map(|_| folded.by_ref().take(cols).collect())
        .collect()
}

/// Decodes a query's encrypted selector, one ciphertext per entry.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] (under `label`) if any entry is not a
/// well-formed ciphertext.
pub(crate) fn parse_selectors<P: HomomorphicPk>(
    pk: &P,
    selector: &[Vec<u8>],
    label: &'static str,
) -> Result<Vec<P::Ciphertext>, ProtocolError> {
    selector
        .iter()
        .map(|b| {
            pk.ciphertext_from_bytes(b)
                .ok_or(ProtocolError::InvalidMessage {
                    label,
                    reason: "malformed query ciphertext",
                })
        })
        .collect()
}

/// Serializes column ciphertexts into the wire answer.
pub fn answer_to_wire<P: HomomorphicPk>(pk: &P, columns: &[P::Ciphertext]) -> HomPirAnswer {
    HomPirAnswer {
        columns: columns.iter().map(|c| pk.ciphertext_to_bytes(c)).collect(),
    }
}

/// Client: decrypts the target column of the answer.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (server-controlled) answer has
/// the wrong arity, a malformed ciphertext, or an over-range plaintext.
pub fn client_decode<P: HomomorphicPk, S: HomomorphicSk<P>>(
    pk: &P,
    sk: &S,
    layout: &Layout,
    index: usize,
    answer: &HomPirAnswer,
) -> Result<u64, ProtocolError> {
    if answer.columns.len() != layout.cols {
        return Err(ProtocolError::InvalidMessage {
            label: "hompir-answer",
            reason: "answer arity mismatches layout",
        });
    }
    let (_, col) = layout.position(index);
    let ct =
        pk.ciphertext_from_bytes(&answer.columns[col])
            .ok_or(ProtocolError::InvalidMessage {
                label: "hompir-answer",
                reason: "malformed answer ciphertext",
            })?;
    sk.decrypt(&ct)
        .to_u64()
        .ok_or(ProtocolError::InvalidMessage {
            label: "hompir-answer",
            reason: "decrypted item exceeds u64",
        })
}

/// Runs the full single-server protocol over a metered channel: [`pump`]
/// over a client core and one server core, which borrows `db`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on index out of range or db values ≥ plaintext modulus (driver
/// bugs, not attacks).
pub fn run<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    db: &[u64],
    index: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    let _proto = spfe_obs::span("hompir");
    let mut client = HomPirClientCore::new(pk.clone(), sk.clone(), db.len(), index, rng);
    let server: Box<dyn SessionCore + Send + '_> = Box::new(HomPirServerCore::new(pk.clone(), db));
    pump(t, &mut client, &mut [server])
}

/// Server half of √n homomorphic PIR as a sans-io state machine.
#[derive(Debug)]
pub struct HomPirServerCore<'a, P: HomomorphicPk> {
    once: AnswerOnce,
    pk: P,
    layout: Layout,
    db: Cow<'a, [u64]>,
}

impl<'a, P: HomomorphicPk> HomPirServerCore<'a, P> {
    /// A core holding (or borrowing) `db` under the square layout for its
    /// size.
    pub fn new(pk: P, db: impl Into<Cow<'a, [u64]>>) -> Self {
        let db = db.into();
        HomPirServerCore {
            once: AnswerOnce::new(0, "hompir-query", "hompir-answer"),
            pk,
            layout: Layout::square(db.len()),
            db,
        }
    }
}

impl<P: HomomorphicPk> SessionCore for HomPirServerCore<'_, P> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let query = HomPirQuery::from_bytes(payload)?;
            let _s = spfe_obs::span("server-scan");
            let columns = server_answer(&self.pk, &self.layout, &self.db, &query)?;
            Ok(answer_to_wire(&self.pk, &columns).to_bytes())
        })
    }
}

/// Client half of √n homomorphic PIR: query at start, decode on answer.
#[derive(Debug)]
pub struct HomPirClientCore<P: HomomorphicPk, S: HomomorphicSk<P>> {
    pk: P,
    sk: S,
    layout: Layout,
    index: usize,
    round: OneRound<HomPirQuery, HomPirAnswer>,
    result: Option<u64>,
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> HomPirClientCore<P, S> {
    /// A client core retrieving `index` from an `n`-item database. The
    /// encrypted selector is generated here — all randomness is consumed
    /// at construction.
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
        let layout = Layout::square(n);
        let query = client_query(&pk, &sk, &layout, index, rng);
        HomPirClientCore {
            pk,
            sk,
            layout,
            index,
            round: OneRound::new("hompir-query", "hompir-answer", vec![query]),
            result: None,
        }
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for HomPirClientCore<P, S> {
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

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for HomPirClientCore<P, S> {
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
    use spfe_transport::{ChannelExt, Transcript};

    fn setup() -> (spfe_crypto::PaillierPk, spfe_crypto::PaillierSk, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0x9999);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (pk, sk, rng)
    }

    fn db(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 13 + 7).collect()
    }

    #[test]
    fn layout_square() {
        let l = Layout::square(100);
        assert_eq!((l.rows, l.cols), (10, 10));
        let l = Layout::square(10);
        assert!(l.rows * l.cols >= 10);
        assert_eq!(Layout::square(1).cells(), 1);
    }

    #[test]
    fn layout_square_exact_at_perfect_squares() {
        // At n = s² the layout must be exactly s × s (no padding); just
        // above it must step to s × (s+1)-ish, never lose cells.
        for s in [1usize, 2, 3, 10, 100, 1 << 10, 1 << 20, (1 << 26) + 3] {
            let l = Layout::square(s * s);
            assert_eq!((l.rows, l.cols), (s, s), "n={}", s * s);
            assert_eq!(l.cells(), s * s);
            let l = Layout::square(s * s + 1);
            assert_eq!(l.rows, s + 1, "n={}", s * s + 1);
            assert!(l.cells() > s * s);
            if s > 1 {
                let l = Layout::square(s * s - 1);
                assert_eq!(l.rows, s, "n={}", s * s - 1);
                assert!(l.cells() >= s * s - 1);
            }
        }
    }

    #[test]
    fn layout_square_usize_max_adjacent() {
        // The f64 path miscomputed ⌈√n⌉ up here (2^64 is far past 2^53, so
        // `(n as f64).sqrt()` rounds); the integer path must stay exact and
        // must not overflow in the s·s probe.
        let s = usize::MAX.isqrt(); // 2^32 - 1 on 64-bit targets
        for n in [usize::MAX, usize::MAX - 1, s * s, s * s - 1, s * s + 1] {
            let l = Layout::square(n);
            // rows = ⌈√n⌉ exactly: (rows-1)² < n ≤ rows².
            assert!((l.rows - 1) * (l.rows - 1) < n, "n={n}");
            assert!(
                l.rows == s && l.rows * l.rows >= n || l.rows == s + 1,
                "n={n}"
            );
            // Every item must fit.
            assert!(l.rows as u128 * l.cols as u128 >= n as u128, "n={n}");
        }
        assert_eq!(Layout::square(s * s).rows, s);
        assert_eq!(Layout::square(usize::MAX).rows, s + 1);
    }

    #[test]
    fn parallel_server_answer_transcript_is_byte_identical() {
        // The whole determinism contract in one test: with the same rng
        // seed, a run with the pool forced to 4 threads produces the same
        // wire bytes and meter counts as the serial (1-thread) run.
        let (pk, sk, rng) = setup();
        let database = db(40);

        let run_with = |threads: usize| {
            spfe_math::par::set_threads(Some(threads));
            spfe_math::par::set_seq_threshold(Some(1)); // force the pool on
            let mut rng = rng.clone();
            let mut t = Transcript::new(1);
            let layout = Layout::square(database.len());
            let q = client_query(&pk, &sk, &layout, 17, &mut rng);
            let q_wire = {
                use spfe_transport::Wire as _;
                q.to_bytes()
            };
            let q = t.client_to_server(0, "hompir-query", &q).expect("codec");
            let cols = server_answer(&pk, &layout, &database, &q).unwrap();
            let a = answer_to_wire(&pk, &cols);
            let a_wire = {
                use spfe_transport::Wire as _;
                a.to_bytes()
            };
            let a = t.server_to_client(0, "hompir-answer", &a).expect("codec");
            let out = client_decode(&pk, &sk, &layout, 17, &a).unwrap();
            spfe_math::par::set_seq_threshold(None);
            spfe_math::par::set_threads(None);
            (q_wire, a_wire, t.report(), out)
        };

        let serial = run_with(1);
        let parallel = run_with(4);
        assert_eq!(serial.0, parallel.0, "query bytes differ");
        assert_eq!(serial.1, parallel.1, "answer bytes differ");
        assert_eq!(serial.2, parallel.2, "meter reports differ");
        assert_eq!(serial.3, database[17]);
        assert_eq!(parallel.3, database[17]);
    }

    #[test]
    fn retrieves_every_index() {
        let (pk, sk, mut rng) = setup();
        let database = db(10);
        for i in 0..database.len() {
            let mut t = Transcript::new(1);
            assert_eq!(
                run(&mut t, &pk, &sk, &database, i, &mut rng).unwrap(),
                database[i]
            );
        }
    }

    #[test]
    fn non_square_database_with_padding() {
        let (pk, sk, mut rng) = setup();
        let database = db(7); // layout 3×3 with 2 padding cells
        for i in 0..7 {
            let mut t = Transcript::new(1);
            assert_eq!(
                run(&mut t, &pk, &sk, &database, i, &mut rng).unwrap(),
                database[i]
            );
        }
    }

    #[test]
    fn zero_items_and_zero_columns() {
        let (pk, sk, mut rng) = setup();
        let database = vec![0u64, 0, 0, 5];
        for (i, &v) in database.iter().enumerate() {
            let mut t = Transcript::new(1);
            assert_eq!(run(&mut t, &pk, &sk, &database, i, &mut rng).unwrap(), v);
        }
    }

    #[test]
    fn communication_is_sublinear() {
        let (pk, sk, mut rng) = setup();
        let mut totals = Vec::new();
        for n in [16usize, 64, 256] {
            let database = db(n);
            let mut t = Transcript::new(1);
            run(&mut t, &pk, &sk, &database, n / 2, &mut rng).unwrap();
            totals.push(t.report().total_bytes());
        }
        // Expect ~√n scaling: quadrupling n should roughly double bytes.
        let r1 = totals[1] as f64 / totals[0] as f64;
        let r2 = totals[2] as f64 / totals[1] as f64;
        assert!(r1 < 3.0 && r2 < 3.0, "growth too fast: {totals:?}");
        // And certainly far below sending the database under encryption.
        let linear = 256 * pk.ciphertext_bytes() as u64;
        assert!(totals[2] < linear / 2, "not sublinear: {totals:?}");
    }

    #[test]
    fn single_round() {
        let (pk, sk, mut rng) = setup();
        let database = db(9);
        let mut t = Transcript::new(1);
        run(&mut t, &pk, &sk, &database, 4, &mut rng).unwrap();
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn query_ciphertexts_are_semantically_hiding() {
        // Two queries for different rows are (trivially) different bytes but
        // each entry is a valid fresh encryption of 0/1 — no plaintext leaks
        // without the secret key. Sanity: all entries decrypt to a unit vector.
        let (pk, sk, mut rng) = setup();
        let layout = Layout::square(9);
        let q = client_query(&pk, &sk, &layout, 5, &mut rng);
        let decrypted: Vec<u64> = q
            .row_selector
            .iter()
            .map(|b| {
                sk.decrypt(&pk.ciphertext_from_bytes(b).unwrap())
                    .to_u64()
                    .unwrap()
            })
            .collect();
        let ones: u64 = decrypted.iter().sum();
        assert_eq!(ones, 1);
        assert_eq!(decrypted[layout.position(5).0], 1);
    }
}
