//! Single-server SPIR: PIR plus database secrecy (\[25\], \[32\]+\[36\]).
//!
//! The homomorphic PIR of [`crate::hom_pir`] leaks the client's entire
//! matrix row (√n items). The symmetric transform here restricts the client
//! to exactly one item:
//!
//! * the server adds an independent random pad `ρ_j` to every column answer
//!   (homomorphically: `E(x[row][j] + ρ_j)`), and
//! * the client obtains *only* `ρ_col` for its one target column via a
//!   1-out-of-`cols` OT (the paper's symmetric-privacy mechanism).
//!
//! Both the PIR query and the OT query travel in the client's single
//! message; the padded columns and the OT answer travel in the server's
//! reply — a 1-round `SPIR(n, 1, *)` with `O(√n·κ)` communication.
//!
//! Each party is written once, as a sans-io core (DESIGN.md §15): [`run`]
//! pumps [`SpirClientCore`] against a [`SpirServerCore`] in process, and
//! the networked server hosts the same server core. The server draws its
//! pads and OT randomness while answering, so its core holds an rng: the
//! caller's, borrowed, in process; a fresh OS-seeded one when hosted.

use crate::hom_pir::{self, HomPirAnswer, HomPirQuery, Layout};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::modular::mod_sub;
use spfe_math::{Nat, RandomSource};
use spfe_ot::{ot2, ot_n};
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, Reader, SessionCore,
    SessionState, Wire, WireError,
};
use std::borrow::Cow;

/// Domain-separation label for the OT's deterministic setup element.
const OT_SETUP_LABEL: &[u8] = b"spfe-spir-pad-ot";

/// Client query: PIR row selector + OT query for the pad of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpirQuery {
    /// Homomorphic PIR query (row selection).
    pub pir: HomPirQuery,
    /// OT query for the column pad.
    pub pad_ot: ot_n::OtnQuery,
}

impl Wire for SpirQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pir.encode(out);
        self.pad_ot.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpirQuery {
            pir: HomPirQuery::decode(r)?,
            pad_ot: ot_n::OtnQuery::decode(r)?,
        })
    }
}

/// Server answer: padded columns + OT transfer of the pads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpirAnswer {
    /// `E(x[row][j] + ρ_j)` per column.
    pub padded: HomPirAnswer,
    /// OT answer revealing exactly one `ρ_j`.
    pub pad_ot: ot_n::OtnAnswer,
}

impl Wire for SpirAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.padded.encode(out);
        self.pad_ot.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpirAnswer {
            padded: HomPirAnswer::decode(r)?,
            pad_ot: ot_n::OtnAnswer::decode(r)?,
        })
    }
}

/// Client-side state held across the round.
#[derive(Debug)]
pub struct SpirClientState {
    layout: Layout,
    index: usize,
    ot_state: ot_n::OtnReceiverState,
}

/// The SPIR instance configuration shared by both parties.
#[derive(Debug, Clone)]
pub struct SpirParams {
    /// Group for the pad OT.
    pub group: SchnorrGroup,
    /// Database size.
    pub n: usize,
}

impl SpirParams {
    /// Creates parameters for a database of `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(group: SchnorrGroup, n: usize) -> Self {
        assert!(n > 0);
        SpirParams { group, n }
    }

    /// The matrix layout.
    pub fn layout(&self) -> Layout {
        Layout::square(self.n)
    }

    fn ot_setup(&self) -> ot2::OtSetup {
        ot2::deterministic_setup(&self.group, OT_SETUP_LABEL)
    }
}

/// Number of bytes used to serialize one pad.
fn pad_bytes<P: HomomorphicPk>(pk: &P) -> usize {
    pk.plaintext_modulus().bit_len().div_ceil(8)
}

/// Client: builds the combined query for `index`.
///
/// # Panics
///
/// Panics if `index >= n`.
pub fn client_query<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    sk: &S,
    index: usize,
    rng: &mut R,
) -> (SpirQuery, SpirClientState) {
    assert!(index < params.n, "index out of range");
    let layout = params.layout();
    let pir = hom_pir::client_query(pk, sk, &layout, index, rng);
    let (_, col) = layout.position(index);
    let (pad_ot, ot_state) =
        ot_n::receiver_choose(&params.group, &params.ot_setup(), layout.cols, col, rng);
    (
        SpirQuery { pir, pad_ot },
        SpirClientState {
            layout,
            index,
            ot_state,
        },
    )
}

/// Server: pads every column homomorphically and transfers the pads by OT
/// — the one-chunk case of [`pad_answer_words`].
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (client-controlled)
/// queries.
pub fn server_answer<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    db: &[u64],
    query: &SpirQuery,
    rng: &mut R,
) -> Result<SpirAnswer, ProtocolError> {
    let columns = hom_pir::server_answer(pk, &params.layout(), db, &query.pir)?;
    let mut padded = pad_answer_words(params, pk, &[columns], query, rng)?;
    Ok(SpirAnswer {
        padded: padded.padded.pop().expect("one chunk"),
        pad_ot: padded.pad_ot,
    })
}

/// Client: unpads its single item.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (server-controlled)
/// answers.
pub fn client_decode<P: HomomorphicPk, S: HomomorphicSk<P>>(
    params: &SpirParams,
    pk: &P,
    sk: &S,
    state: &SpirClientState,
    answer: &SpirAnswer,
) -> Result<u64, ProtocolError> {
    let pads = pad_ot_output(params, state, &answer.pad_ot, pad_bytes(pk))?;
    unpad(pk, sk, state, &answer.padded, &pads)
}

/// Server answer for multi-word items (width `W`): per column, `W` padded
/// ciphertexts; the OT transfers all `W` pads of one column together. The
/// client's query is *identical* to the single-word case — chunks share
/// both the PIR row selector and the pad OT, so upstream cost is
/// width-independent and downstream scales with `W` (this is what makes
/// `SPIR(n, 1, κ)` cost `κ/ℓ ×` more than `SPIR(n, 1, ℓ)` downstream only,
/// as the paper's comparisons assume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpirWordsAnswer {
    /// `padded[c]` = the chunk-`c` padded column answers.
    pub padded: Vec<HomPirAnswer>,
    /// OT answer revealing the `W` pads of exactly one column.
    pub pad_ot: ot_n::OtnAnswer,
}

impl Wire for SpirWordsAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.padded.encode(out);
        self.pad_ot.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpirWordsAnswer {
            padded: Vec::<HomPirAnswer>::decode(r)?,
            pad_ot: ot_n::OtnAnswer::decode(r)?,
        })
    }
}

/// The rng-free scan stage of [`server_answer_words`]: for each of the `W`
/// chunks, the raw (unpadded) per-column ciphertexts.
///
/// Splitting the scan from the randomized pad/OT stage lets callers (e.g.
/// [`crate::batched`]) run many scans on the worker pool and then apply
/// [`pad_answer_words`] serially, keeping the rng draw order — and hence
/// the wire transcript — independent of the thread count.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (client-controlled)
/// queries.
///
/// # Panics
///
/// Panics on ragged items (the server's own data).
pub fn scan_words<P: HomomorphicPk>(
    params: &SpirParams,
    pk: &P,
    db_words: &[Vec<u64>],
    query: &SpirQuery,
) -> Result<Vec<Vec<P::Ciphertext>>, ProtocolError> {
    assert_eq!(db_words.len(), params.n, "db size mismatch");
    let width = db_words.first().map_or(0, |it| it.len());
    assert!(width > 0, "empty items");
    assert!(db_words.iter().all(|it| it.len() == width), "ragged items");
    let layout = params.layout();
    (0..width)
        .map(|c| {
            let chunk_db: Vec<u64> = db_words.iter().map(|it| it[c]).collect();
            hom_pir::server_answer(pk, &layout, &chunk_db, &query.pir)
        })
        .collect()
}

/// The randomized stage of [`server_answer_words`]: pads every scanned
/// column under encryption and transfers the pads by OT.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) pad OT
/// query has the wrong arity or a base query outside the group.
///
/// # Panics
///
/// Panics on a scan of the wrong shape.
pub fn pad_answer_words<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    scanned: &[Vec<P::Ciphertext>],
    query: &SpirQuery,
    rng: &mut R,
) -> Result<SpirWordsAnswer, ProtocolError> {
    let width = scanned.len();
    assert!(width > 0, "empty scan");
    let layout = params.layout();
    let bits = &query.pad_ot.bit_queries;
    if bits.len() != ot_n::selection_bits(layout.cols) {
        return Err(ProtocolError::InvalidMessage {
            label: "spir-query",
            reason: "pad OT query arity mismatches layout",
        });
    }
    if bits
        .iter()
        .any(|q| q.pk0.is_zero() || &q.pk0 >= params.group.p())
    {
        return Err(ProtocolError::InvalidMessage {
            label: "spir-query",
            reason: "pad OT query outside the group",
        });
    }
    let u = pk.plaintext_modulus().clone();
    let pad_w = pad_bytes(pk);
    // pads[c][j] = pad for chunk c, column j.
    let pads: Vec<Vec<Nat>> = (0..width)
        .map(|_| {
            (0..layout.cols)
                .map(|_| Nat::random_below(rng, &u))
                .collect()
        })
        .collect();
    let padded: Vec<HomPirAnswer> = scanned
        .iter()
        .zip(&pads)
        .map(|(cols, chunk_pads)| {
            assert_eq!(cols.len(), layout.cols, "scan arity mismatch");
            let enc_pads = pk.encrypt_batch(chunk_pads, rng);
            let blinded: Vec<P::Ciphertext> = cols
                .iter()
                .zip(&enc_pads)
                .map(|(ct, enc_pad)| pk.add(ct, enc_pad))
                .collect();
            hom_pir::answer_to_wire(pk, &blinded)
        })
        .collect();
    // OT item for column j: all W pads concatenated.
    let pad_items: Vec<Vec<u8>> = (0..layout.cols)
        .map(|j| {
            let mut out = Vec::with_capacity(width * pad_w);
            for chunk_pads in &pads {
                out.extend(chunk_pads[j].to_le_bytes_padded(pad_w));
            }
            out
        })
        .collect();
    let pad_ot = ot_n::sender_answer(
        &params.group,
        &params.ot_setup(),
        &query.pad_ot,
        &pad_items,
        rng,
    );
    Ok(SpirWordsAnswer { padded, pad_ot })
}

/// Server: answers a (standard) SPIR query against a multi-word database
/// `db_words` (each item a fixed-width `Vec<u64>`) — the scan stage
/// followed by the pad/OT stage.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (client-controlled)
/// queries.
///
/// # Panics
///
/// Panics on ragged items (the server's own data).
pub fn server_answer_words<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    db_words: &[Vec<u64>],
    query: &SpirQuery,
    rng: &mut R,
) -> Result<SpirWordsAnswer, ProtocolError> {
    let scanned = scan_words(params, pk, db_words, query)?;
    pad_answer_words(params, pk, &scanned, query, rng)
}

/// Client: unpads its multi-word item.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (server-controlled)
/// answers.
pub fn client_decode_words<P: HomomorphicPk, S: HomomorphicSk<P>>(
    params: &SpirParams,
    pk: &P,
    sk: &S,
    state: &SpirClientState,
    answer: &SpirWordsAnswer,
) -> Result<Vec<u64>, ProtocolError> {
    let pad_w = pad_bytes(pk);
    let pads = pad_ot_output(params, state, &answer.pad_ot, answer.padded.len() * pad_w)?;
    answer
        .padded
        .iter()
        .zip(pads.chunks(pad_w))
        .map(|(chunk, pad)| unpad(pk, sk, state, chunk, pad))
        .collect()
}

/// The client's OT output — the pads of its column — checked against the
/// answer's shape before the OT receiver (which asserts it) sees it.
fn pad_ot_output(
    params: &SpirParams,
    state: &SpirClientState,
    pad_ot: &ot_n::OtnAnswer,
    want: usize,
) -> Result<Vec<u8>, ProtocolError> {
    let bad = |reason| ProtocolError::InvalidMessage {
        label: "spir-answer",
        reason,
    };
    if pad_ot.bit_transfers.len() != ot_n::selection_bits(state.layout.cols)
        || pad_ot.ciphertexts.len() != state.layout.cols
    {
        return Err(bad("pad OT answer mismatches layout"));
    }
    let pads = ot_n::receiver_output(&params.group, &state.ot_state, pad_ot);
    if pads.len() != want {
        return Err(bad("OT pads do not match the answer"));
    }
    Ok(pads)
}

/// Decrypts the client's column of one padded chunk and removes `pad`.
fn unpad<P: HomomorphicPk, S: HomomorphicSk<P>>(
    pk: &P,
    sk: &S,
    state: &SpirClientState,
    chunk: &HomPirAnswer,
    pad: &[u8],
) -> Result<u64, ProtocolError> {
    let bad = |reason| ProtocolError::InvalidMessage {
        label: "spir-answer",
        reason,
    };
    let (_, col) = state.layout.position(state.index);
    let ct_bytes = chunk
        .columns
        .get(col)
        .ok_or(bad("answer has too few columns"))?;
    let ct = pk
        .ciphertext_from_bytes(ct_bytes)
        .ok_or(bad("malformed answer ciphertext"))?;
    let u = pk.plaintext_modulus();
    mod_sub(&sk.decrypt(&ct), &Nat::from_le_bytes(pad).rem(u), u)
        .to_u64()
        .ok_or(bad("unpadded item exceeds u64"))
}

/// Runs the full 1-round SPIR over a metered channel: [`pump`] over a
/// client core and one server core, which borrows `db` and `rng`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on index out of range (a driver bug).
pub fn run<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &SpirParams,
    pk: &P,
    sk: &S,
    db: &[u64],
    index: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    assert_eq!(db.len(), params.n, "db size mismatch");
    let _proto = spfe_obs::span("spir");
    let mut client = SpirClientCore::new(params.clone(), pk.clone(), sk.clone(), index, rng);
    let server = Box::new(SpirServerCore::new(params.clone(), pk.clone(), db, rng));
    pump(t, &mut client, &mut [server])
}

/// Server half of single-server SPIR as a sans-io state machine. It draws
/// pads and OT randomness from `rng` while answering.
#[derive(Debug)]
pub struct SpirServerCore<'a, P: HomomorphicPk, G> {
    once: AnswerOnce,
    params: SpirParams,
    pk: P,
    db: Cow<'a, [u64]>,
    rng: G,
}

impl<'a, P: HomomorphicPk, G: RandomSource> SpirServerCore<'a, P, G> {
    /// A core holding (or borrowing) `db`, which must have `params.n`
    /// items, and drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `db` does not have `params.n` items.
    pub fn new(params: SpirParams, pk: P, db: impl Into<Cow<'a, [u64]>>, rng: G) -> Self {
        let db = db.into();
        assert_eq!(db.len(), params.n, "db size mismatch");
        SpirServerCore {
            once: AnswerOnce::new(0, "spir-query", "spir-answer"),
            params,
            pk,
            db,
            rng,
        }
    }
}

impl<P: HomomorphicPk, G: RandomSource> SessionCore for SpirServerCore<'_, P, G> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let query = SpirQuery::from_bytes(payload)?;
            let _s = spfe_obs::span("server-scan");
            let answer = server_answer(&self.params, &self.pk, &self.db, &query, &mut self.rng)?;
            Ok(answer.to_bytes())
        })
    }
}

/// Client half of single-server SPIR: query at start, unpad on answer.
#[derive(Debug)]
pub struct SpirClientCore<P: HomomorphicPk, S: HomomorphicSk<P>> {
    params: SpirParams,
    pk: P,
    sk: S,
    state: SpirClientState,
    round: OneRound<SpirQuery, SpirAnswer>,
    result: Option<u64>,
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SpirClientCore<P, S> {
    /// A client core retrieving `index`; the PIR selector and the pad OT
    /// query are drawn here.
    ///
    /// # Panics
    ///
    /// Panics if `index >= params.n`.
    pub fn new<R: RandomSource + ?Sized>(
        params: SpirParams,
        pk: P,
        sk: S,
        index: usize,
        rng: &mut R,
    ) -> Self {
        let _s = spfe_obs::span("query-gen");
        let (query, state) = client_query(&params, &pk, &sk, index, rng);
        SpirClientCore {
            params,
            pk,
            sk,
            state,
            round: OneRound::new("spir-query", "spir-answer", vec![query]),
            result: None,
        }
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for SpirClientCore<P, S> {
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
            &self.params,
            &self.pk,
            &self.sk,
            &self.state,
            &answers[0],
        )?);
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for SpirClientCore<P, S> {
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

    fn setup() -> (
        SpirParams,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x5217);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (SpirParams::new(group, 12), pk, sk, rng)
    }

    fn db(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 101 + 17).collect()
    }

    #[test]
    fn retrieves_every_index() {
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        for i in 0..params.n {
            let mut t = Transcript::new(1);
            assert_eq!(
                run(&mut t, &params, &pk, &sk, &database, i, &mut rng).unwrap(),
                database[i],
                "i={i}"
            );
        }
    }

    #[test]
    fn protocol_is_one_round() {
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        let mut t = Transcript::new(1);
        run(&mut t, &params, &pk, &sk, &database, 3, &mut rng).unwrap();
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn other_columns_remain_padded() {
        // Database secrecy: the client's decryptions of non-target columns
        // are uniformly masked — without the pad they do not reveal items.
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        let (q, state) = client_query(&params, &pk, &sk, 0, &mut rng);
        let a = server_answer(&params, &pk, &database, &q, &mut rng).unwrap();
        let layout = params.layout();
        let mut masked_matches = 0;
        for j in 1..layout.cols {
            let ct = pk.ciphertext_from_bytes(&a.padded.columns[j]).unwrap();
            let val = sk.decrypt(&ct);
            // Row 0 item at column j.
            let idx = j;
            if idx < database.len() && val == Nat::from(database[idx]) {
                masked_matches += 1;
            }
        }
        assert_eq!(masked_matches, 0, "pads failed to hide other columns");
        // While the target column still decodes correctly.
        assert_eq!(
            client_decode(&params, &pk, &sk, &state, &a).unwrap(),
            database[0]
        );
    }

    #[test]
    fn pad_wraps_modulus_correctly() {
        // Run many indices so some pad + item wraps mod n (probabilistic but
        // overwhelmingly likely across 12 runs with ~128-bit pads).
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        for i in 0..params.n {
            let mut t = Transcript::new(1);
            let got = run(&mut t, &params, &pk, &sk, &database, i, &mut rng).unwrap();
            assert_eq!(got, database[i]);
        }
    }

    #[test]
    fn communication_scales_like_sqrt_n() {
        let (_, pk, sk, mut rng) = setup();
        let group = SchnorrGroup::generate(96, &mut rng);
        let mut totals = Vec::new();
        for n in [16usize, 64, 256] {
            let params = SpirParams::new(group.clone(), n);
            let database = db(n);
            let mut t = Transcript::new(1);
            run(&mut t, &params, &pk, &sk, &database, 1, &mut rng).unwrap();
            totals.push(t.report().total_bytes());
        }
        let r = totals[2] as f64 / totals[0] as f64;
        assert!(r < 16.0 * 0.75, "16× database should be ≈4× bytes, got {r}");
    }

    #[test]
    fn wire_roundtrip() {
        let (params, pk, sk, mut rng) = setup();
        let (q, _) = client_query(&params, &pk, &sk, 5, &mut rng);
        assert_eq!(SpirQuery::from_bytes(&q.to_bytes()).unwrap(), q);
    }

    #[test]
    fn malformed_pad_ot_is_a_typed_error_on_both_sides() {
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        let (q, state) = client_query(&params, &pk, &sk, 5, &mut rng);
        fn typed<T>(r: Result<T, ProtocolError>) -> bool {
            matches!(r, Err(ProtocolError::InvalidMessage { .. }))
        }
        // Server side: a wrong arity, or a base query of 0 or ≥ p, would
        // otherwise reach the OT sender's assert or the group inverse.
        let mut short = q.clone();
        short.pad_ot.bit_queries.pop();
        assert!(typed(server_answer(
            &params, &pk, &database, &short, &mut rng
        )));
        for pk0 in [Nat::zero(), params.group.p().clone()] {
            let mut bad = q.clone();
            bad.pad_ot.bit_queries[0].pk0 = pk0;
            assert!(typed(server_answer(
                &params, &pk, &database, &bad, &mut rng
            )));
        }
        // Client side: a pad OT answer of the wrong shape.
        let a = server_answer(&params, &pk, &database, &q, &mut rng).unwrap();
        let mut short = a.clone();
        short.pad_ot.ciphertexts.pop();
        assert!(typed(client_decode(&params, &pk, &sk, &state, &short)));
        let mut long = a.clone();
        long.pad_ot
            .bit_transfers
            .push(long.pad_ot.bit_transfers[0].clone());
        assert!(typed(client_decode(&params, &pk, &sk, &state, &long)));
        assert_eq!(
            client_decode(&params, &pk, &sk, &state, &a),
            Ok(database[5])
        );
    }
}
