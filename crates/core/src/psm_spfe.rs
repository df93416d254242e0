//! §3.2 — one-round SPFE from PSM protocols + SPIR (Theorem 3).
//!
//! The servers simulate the `m+1` players of a PSM protocol for `f`; the
//! client simulates the referee. For each argument slot `j`, each server
//! prepares an `n`-item *virtual database* whose `i`-th entry is the
//! message player `P_j` would send on input `x_i` (under the common PSM
//! randomness `r`); the client retrieves entry `i_j` by SPIR. The extra
//! message `p₀` (a function of `r` alone) is sent in the clear. All `m+1`
//! messages travel in one round.
//!
//! Because the client can only obtain *valid PSM messages on actual
//! database items*, this construction is **strongly secure** against a
//! malicious client (Table 1, row 1).
//!
//! Three instantiations:
//!
//! * [`run_yao_psm`] — single-server, computational: Corollary 4(1),
//!   communication `m·SPIR(n,1,κ) + O(κ·C_f)`; written once, as sans-io
//!   cores (DESIGN.md §15) that the networked server hosts too;
//! * [`run_sum_psm`] — `k`-server, perfectly secure for the sum function
//!   (Example 1): communication `m·PSPIR_k(n,1,ℓ)`, `β = 0`;
//! * [`run_bp_psm`] — `k`-server, perfectly secure for branching programs:
//!   Corollary 4(2), communication `m·PSPIR_k(n,1,O(B_f²))`.
//!
//! The two `k`-server instantiations share one body and differ only in
//! their virtual-database entries and referee.

use spfe_circuits::boolean::Circuit;
use spfe_circuits::bp::BranchingProgram;
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::{ChaChaRng, SchnorrGroup};
#[cfg(test)]
use spfe_math::Fp64;
use spfe_math::{Mat, Poly, RandomSource};
use spfe_mpc::garble::{self, GarbledCircuit, Label};
use spfe_mpc::psm;
use spfe_pir::poly_it::{self, PolyItParams, PolyItQuery};
use spfe_pir::spir::{self, SpirClientState, SpirParams, SpirQuery, SpirWordsAnswer};
use spfe_transport::{
    pump, AnswerOnce, Channel, ChannelExt, ClientCore, OneRound, OutMsg, ProtocolError,
    SessionCore, SessionState, Wire,
};
use std::borrow::Cow;

/// Packs a label into two little-endian u64 words.
fn label_to_words(l: &Label) -> [u64; 2] {
    [
        u64::from_le_bytes(l[..8].try_into().unwrap()),
        u64::from_le_bytes(l[8..].try_into().unwrap()),
    ]
}

/// Unpacks two u64 words into a label.
fn words_to_label(w: &[u64]) -> Label {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&w[0].to_le_bytes());
    out[8..].copy_from_slice(&w[1].to_le_bytes());
    out
}

/// Single-server, computationally secure PSM-SPFE (Corollary 4(1)):
/// [`pump`] over a [`YaoPsmClientCore`] and one [`YaoPsmServerCore`],
/// which borrows `db`, `circuit` and `rng`.
///
/// `circuit` computes `f` over `m` items of `item_bits` bits each (input
/// bit `j·item_bits + b` = bit `b` of the `j`-th selected item). Returns
/// `f(x_I)` as a `u64` (little-endian output bits).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the circuit input count is not `indices.len() · item_bits`,
/// an index is out of range, or a database value needs more than
/// `item_bits` bits (local setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn run_yao_psm<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    circuit: &Circuit,
    item_bits: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let _proto = spfe_obs::span("psm-yao");
    let params = SpirParams::new(group.clone(), db.len());
    let mut client = YaoPsmClientCore::new(
        params.clone(),
        pk.clone(),
        sk.clone(),
        Cow::Borrowed(circuit),
        item_bits,
        indices,
        rng,
    );
    let server = YaoPsmServerCore::new(
        params,
        pk.clone(),
        db,
        Cow::Borrowed(circuit),
        item_bits,
        rng,
    );
    pump(t, &mut client, &mut [Box::new(server)])
}

/// The server half of [`run_yao_psm`] as a sans-io machine. On the `m`
/// SPIR queries it garbles `f` from fresh randomness (the PSM common
/// random input), builds each slot's virtual database of input-label
/// bundles, answers the queries and attaches `p₀` = the garbled circuit.
/// It draws the garbling seed, then the pads, from `rng`.
#[derive(Debug)]
pub struct YaoPsmServerCore<'a, P: HomomorphicPk, G> {
    once: AnswerOnce,
    params: SpirParams,
    pk: P,
    db: Cow<'a, [u64]>,
    circuit: Cow<'a, Circuit>,
    item_bits: usize,
    rng: G,
}

impl<'a, P: HomomorphicPk, G: RandomSource> YaoPsmServerCore<'a, P, G> {
    /// A core holding (or borrowing) `db` of `params.n` items of
    /// `item_bits` bits and the circuit `f`, whose input count fixes the
    /// slot count `m`.
    ///
    /// # Panics
    ///
    /// Panics if `db` does not have `params.n` items, a value needs more
    /// than `item_bits` bits, or the circuit inputs are not whole items.
    pub fn new(
        params: SpirParams,
        pk: P,
        db: impl Into<Cow<'a, [u64]>>,
        circuit: Cow<'a, Circuit>,
        item_bits: usize,
        rng: G,
    ) -> Self {
        let db = db.into();
        assert_eq!(db.len(), params.n, "db size mismatch");
        assert!(
            item_bits > 0 && circuit.num_inputs().is_multiple_of(item_bits),
            "circuit arity"
        );
        assert!(
            db.iter().all(|&v| v < (1u64 << item_bits)),
            "database value exceeds item width"
        );
        YaoPsmServerCore {
            once: AnswerOnce::new(0, "psm-spir-queries", "psm-p0-and-answers"),
            params,
            pk,
            db,
            circuit,
            item_bits,
            rng,
        }
    }
}

impl<P: HomomorphicPk, G: RandomSource> SessionCore for YaoPsmServerCore<'_, P, G> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let queries = Vec::<SpirQuery>::from_bytes(payload)?;
            let bits = self.item_bits;
            if queries.len() != self.circuit.num_inputs() / bits {
                return Err(ProtocolError::InvalidMessage {
                    label: "psm-spir-queries",
                    reason: "query count does not match the circuit's slots",
                });
            }
            let se = spfe_obs::span("server-eval");
            let mut seed = [0u8; 32];
            self.rng.fill_bytes(&mut seed);
            let (garbled, secrets) = garble::garble(&self.circuit, seed);
            let answers: Vec<SpirWordsAnswer> = queries
                .iter()
                .enumerate()
                .map(|(j, q)| {
                    let vdb: Vec<Vec<u64>> = self
                        .db
                        .iter()
                        .map(|&x| {
                            let mut words = Vec::with_capacity(2 * bits);
                            for b in 0..bits {
                                let bit = (x >> b) & 1 == 1;
                                words.extend(label_to_words(
                                    &secrets.input_label(j * bits + b, bit),
                                ));
                            }
                            words
                        })
                        .collect();
                    let scanned = {
                        let _s = spfe_obs::span("scan");
                        spir::scan_words(&self.params, &self.pk, &vdb, q)?
                    };
                    let _s = spfe_obs::span("pad");
                    spir::pad_answer_words(&self.params, &self.pk, &scanned, q, &mut self.rng)
                })
                .collect::<Result<_, _>>()?;
            drop(se);
            Ok((garbled, answers).to_bytes())
        })
    }
}

/// The client (referee) half of [`run_yao_psm`]: one SPIR query per
/// slot, drawn at construction; on the reply, the input labels they open
/// and the garbled circuit evaluated on them.
#[derive(Debug)]
pub struct YaoPsmClientCore<'a, P: HomomorphicPk, S: HomomorphicSk<P>> {
    params: SpirParams,
    pk: P,
    sk: S,
    circuit: Cow<'a, Circuit>,
    item_bits: usize,
    states: Vec<SpirClientState>,
    round: OneRound<Vec<SpirQuery>, (GarbledCircuit, Vec<SpirWordsAnswer>)>,
    result: Option<u64>,
}

impl<'a, P: HomomorphicPk, S: HomomorphicSk<P>> YaoPsmClientCore<'a, P, S> {
    /// A client core evaluating `circuit` on the items at `indices` of a
    /// `params.n`-item database; the SPIR queries are drawn here.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, `item_bits == 0`, the circuit input
    /// count is not `indices.len() · item_bits`, or an index is out of
    /// range.
    pub fn new<R: RandomSource + ?Sized>(
        params: SpirParams,
        pk: P,
        sk: S,
        circuit: Cow<'a, Circuit>,
        item_bits: usize,
        indices: &[usize],
        rng: &mut R,
    ) -> Self {
        let m = indices.len();
        assert!(m > 0 && item_bits > 0);
        assert_eq!(circuit.num_inputs(), m * item_bits, "circuit arity");
        assert!(indices.iter().all(|&i| i < params.n), "index out of range");
        let _s = spfe_obs::span("query-gen");
        let (queries, states) = indices
            .iter()
            .map(|&i| spir::client_query(&params, &pk, &sk, i, rng))
            .unzip();
        YaoPsmClientCore {
            params,
            pk,
            sk,
            circuit,
            item_bits,
            states,
            round: OneRound::new("psm-spir-queries", "psm-p0-and-answers", vec![queries]),
            result: None,
        }
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for YaoPsmClientCore<'_, P, S> {
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
        let Some(mut replies) = self.round.receive(server, label, payload)? else {
            return Ok((SessionState::Running, Vec::new()));
        };
        let (garbled, answers) = replies.remove(0);
        const BAD: ProtocolError = ProtocolError::InvalidMessage {
            label: "psm-p0-and-answers",
            reason: "reply inconsistent with circuit",
        };
        let _s = spfe_obs::span("reconstruct");
        if answers.len() != self.states.len() || !garble::is_well_formed(&self.circuit, &garbled) {
            return Err(BAD);
        }
        let bits = self.item_bits;
        let mut labels = Vec::with_capacity(self.states.len() * bits);
        for (st, a) in self.states.iter().zip(&answers) {
            let words = spir::client_decode_words(&self.params, &self.pk, &self.sk, st, a)?;
            if words.len() != 2 * bits {
                return Err(BAD);
            }
            labels.extend(words.chunks(2).map(words_to_label));
        }
        let out = psm::yao::referee(&self.circuit, &garbled, &labels);
        self.result = Some(spfe_mpc::yao2pc::from_bits(&out));
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for YaoPsmClientCore<'_, P, S> {
    fn digest(&self) -> Option<u64> {
        self.result
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

/// A server's per-slot answer on the wire: one field element for the sum
/// PSM, a matrix's entries for the branching-program PSM.
trait SlotAnswer: Wire {
    fn from_entries(entries: Vec<u64>) -> Self;
    fn into_entries(self) -> Vec<u64>;
}

impl SlotAnswer for u64 {
    fn from_entries(entries: Vec<u64>) -> Self {
        entries[0]
    }
    fn into_entries(self) -> Vec<u64> {
        vec![self]
    }
}

impl SlotAnswer for Vec<u64> {
    fn from_entries(entries: Vec<u64>) -> Self {
        entries
    }
    fn into_entries(self) -> Vec<u64> {
        self
    }
}

/// The one-round `k`-server body of [`run_sum_psm`] and [`run_bp_psm`]
/// (Theorem 3 over symmetric poly-IT PIR). The client sends each server
/// one poly-IT query per slot (`labels[0]`); server 0 sends the in-clear
/// `p0`, if any; then every server answers (`labels[1]`) each slot `j`'s
/// `width` virtual databases `vdb(j, c)`, blinded by `blinds[j][c]`.
/// Returns the messages the referee holds, `width` entries each: the
/// delivered `p0`, if any, then the `m` reconstructed player messages.
#[allow(clippy::too_many_arguments)]
fn run_k_server<A: SlotAnswer, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &PolyItParams,
    indices: &[usize],
    labels: [&'static str; 2],
    p0: Option<(&'static str, Vec<u64>)>,
    width: usize,
    vdb: impl Fn(usize, usize) -> Vec<u64>,
    blinds: &[Vec<Poly>],
    rng: &mut R,
) -> Result<Vec<Vec<u64>>, ProtocolError> {
    let m = indices.len();
    let k = params.num_servers();
    assert_eq!(t.num_servers(), k, "server count");
    let [query_label, answer_label] = labels;

    // Client → servers: m queries per server.
    let mut per_server: Vec<Vec<PolyItQuery>> = vec![Vec::with_capacity(m); k];
    for &i in indices {
        for (h, q) in poly_it::client_queries(params, i, rng)
            .into_iter()
            .enumerate()
        {
            per_server[h].push(q);
        }
    }
    let received: Vec<Vec<PolyItQuery>> = per_server
        .iter()
        .enumerate()
        .map(|(h, qs)| t.client_to_server(h, query_label, qs))
        .collect::<Result<_, _>>()?;

    let mut messages = Vec::with_capacity(m + 1);
    if let Some((label, entries)) = p0 {
        let delivered: Vec<u64> = t.server_to_client(0, label, &entries)?;
        if delivered.len() != width {
            return Err(ProtocolError::InvalidMessage {
                label,
                reason: "wrong p0 matrix size",
            });
        }
        messages.push(delivered);
    }

    let mut per_server_answers: Vec<Vec<Vec<u64>>> = Vec::with_capacity(k);
    for (h, qs) in received.iter().enumerate() {
        if qs.len() != m {
            return Err(ProtocolError::InvalidMessage {
                label: query_label,
                reason: "wrong number of slot queries",
            });
        }
        let answers: Vec<A> = qs
            .iter()
            .enumerate()
            .map(|(j, q)| {
                (0..width)
                    .map(|c| {
                        poly_it::server_answer_blinded(params, &vdb(j, c), q, &blinds[j][c], h)
                    })
                    .collect::<Result<_, _>>()
                    .map(A::from_entries)
            })
            .collect::<Result<_, _>>()?;
        let delivered: Vec<A> = t.server_to_client(h, answer_label, &answers)?;
        let delivered: Vec<Vec<u64>> = delivered.into_iter().map(A::into_entries).collect();
        if delivered.len() != m || delivered.iter().any(|slot| slot.len() != width) {
            return Err(ProtocolError::InvalidMessage {
                label: answer_label,
                reason: "answers do not match the slots",
            });
        }
        per_server_answers.push(delivered);
    }

    // Client: reconstruct every entry of every player's message.
    messages.extend((0..m).map(|j| {
        (0..width)
            .map(|c| {
                let answers: Vec<u64> = per_server_answers.iter().map(|a| a[j][c]).collect();
                poly_it::client_reconstruct(params, &answers)
            })
            .collect()
    }));
    Ok(messages)
}

/// `k`-server perfectly secure PSM-SPFE for the **sum** function
/// (Example 1 + Theorem 3): `Σ_j x_{i_j} mod p`.
///
/// The servers' common randomness (`shared_seed`) yields both the sum-PSM
/// pads `r_j` (summing to 0) and per-slot blinding polynomials for
/// symmetric privacy. One round; every server sends `m` field elements.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the channel server count differs from the scheme's `k`, or
/// an index/database value is out of range (local setup bugs).
pub fn run_sum_psm<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &PolyItParams,
    db: &[u64],
    indices: &[usize],
    shared_seed: u64,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    let m = indices.len();
    assert!(m > 0);
    let field = params.field;
    assert!(
        db.iter().all(|&v| v < field.modulus()),
        "db value exceeds field"
    );
    let _proto = spfe_obs::span("psm-sum");

    // Virtual database vdb_j[i] = x_i + r_j (mod p), blinded.
    let mut srng = ChaChaRng::from_u64_seed(shared_seed);
    let mut pads: Vec<u64> = (0..m - 1).map(|_| field.random(&mut srng)).collect();
    pads.push(field.neg(field.sum(&pads)));
    let blinds: Vec<Vec<Poly>> = (0..m)
        .map(|_| vec![poly_it::blinding_poly(params, &mut srng)])
        .collect();
    let vdb = |j: usize, _| db.iter().map(|&x| field.add(x, pads[j])).collect();
    let labels = ["sumpsm-queries", "sumpsm-answers"];
    let messages = run_k_server::<u64, _>(t, params, indices, labels, None, 1, vdb, &blinds, rng)?;
    let messages: Vec<u64> = messages.iter().map(|entries| entries[0]).collect();
    Ok(psm::sum::referee(&messages, field.modulus()))
}

/// `k`-server perfectly secure PSM-SPFE for a **branching program** over a
/// Boolean database (Corollary 4(2)): `f(x_{i_1}, …, x_{i_m})` where the
/// BP has one variable per selected item.
///
/// Virtual database `j` holds player `j`'s IK-PSM matrix message on each
/// possible item value; entries are retrieved by symmetric poly-IT PIR and
/// summed with the in-clear `p₀` matrix; the referee reads `±det`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the BP arity differs from `indices.len()`, the database is
/// not 0/1-valued, or the channel's server count is wrong (local setup
/// bugs, not attacks).
pub fn run_bp_psm<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &PolyItParams,
    bp: &BranchingProgram,
    db: &[u64],
    indices: &[usize],
    shared_seed: u64,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    let m = indices.len();
    assert_eq!(bp.num_vars(), m, "BP arity mismatch");
    assert!(
        db.iter().all(|&v| v <= 1),
        "BP SPFE needs a Boolean database"
    );
    let _proto = spfe_obs::span("psm-bp");
    let field = params.field;
    let d = bp.size() - 1;

    // Common randomness: the IK-PSM randomizers + per-(slot, matrix-entry)
    // blinding polynomials.
    let mut srng = ChaChaRng::from_u64_seed(shared_seed);
    let mut psm_seed = [0u8; 32];
    srng.fill_bytes(&mut psm_seed);
    let rand = psm::bp::common_randomness(bp, m, field, psm_seed);
    let blinds: Vec<Vec<Poly>> = (0..m)
        .map(|_| {
            (0..d * d)
                .map(|_| poly_it::blinding_poly(params, &mut srng))
                .collect()
        })
        .collect();
    // Virtual database (j, c): entry c of player j's message per item value.
    let msgs: Vec<[Vec<u64>; 2]> = (0..m)
        .map(|j| {
            [false, true].map(|bit| {
                psm::bp::player_message(bp, field, &rand, j, &[(j, bit)])
                    .entries()
                    .to_vec()
            })
        })
        .collect();
    let vdb = |j: usize, c: usize| db.iter().map(|&x| msgs[j][x as usize][c]).collect();
    let p0 = psm::bp::p0_message(bp, field, &rand).entries().to_vec();
    let labels = ["bppsm-queries", "bppsm-answers"];
    let messages = run_k_server::<Vec<u64>, _>(
        t,
        params,
        indices,
        labels,
        Some(("bppsm-p0", p0)),
        d * d,
        vdb,
        &blinds,
        rng,
    )?;

    // Client (referee): p₀ and every player's matrix, summed, read off.
    let as_mat =
        |entries: Vec<u64>| Mat::from_rows(entries.chunks(d).map(<[u64]>::to_vec).collect(), field);
    let matrices: Vec<Mat> = messages.into_iter().map(as_mat).collect();
    Ok(psm::bp::referee(bp, field, &matrices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_circuits::builders::{frequency_circuit, sum_circuit};
    use spfe_crypto::{HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn crypto() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x3232);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (group, pk, sk, rng)
    }

    #[test]
    fn yao_psm_sum_statistic() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..12u64).map(|i| (i * 3) % 16).collect();
        let indices = [2usize, 7, 11];
        let circuit = sum_circuit(3, 4);
        let mut t = Transcript::new(1);
        let got = run_yao_psm(
            &mut t, &group, &pk, &sk, &db, &indices, &circuit, 4, &mut rng,
        )
        .unwrap();
        let expect: u64 = indices.iter().map(|&i| db[i]).sum();
        assert_eq!(got, expect);
        assert_eq!(t.report().half_rounds, 2, "Theorem 3: one round");
    }

    #[test]
    fn yao_psm_frequency_statistic() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![5u64, 3, 5, 7, 5, 1, 0, 2];
        let indices = [0usize, 2, 3, 4];
        let circuit = frequency_circuit(4, 3, 5);
        let mut t = Transcript::new(1);
        let got = run_yao_psm(
            &mut t, &group, &pk, &sk, &db, &indices, &circuit, 3, &mut rng,
        )
        .unwrap();
        assert_eq!(got, 3);
    }

    #[test]
    fn yao_psm_repeated_indices() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![9u64, 4, 1, 6];
        let indices = [1usize, 1];
        let circuit = sum_circuit(2, 4);
        let mut t = Transcript::new(1);
        let got = run_yao_psm(
            &mut t, &group, &pk, &sk, &db, &indices, &circuit, 4, &mut rng,
        )
        .unwrap();
        assert_eq!(got, 8);
    }

    #[test]
    fn sum_psm_multi_server() {
        let mut rng = ChaChaRng::from_u64_seed(0x515);
        let field = Fp64::new(1_000_003).unwrap();
        let db: Vec<u64> = (0..20u64).map(|i| i * 7 + 1).collect();
        let params = PolyItParams::new(db.len(), 2, field);
        let indices = [3usize, 9, 19, 0];
        let mut t = Transcript::new(params.num_servers());
        let got = run_sum_psm(&mut t, &params, &db, &indices, 0xABCD, &mut rng).unwrap();
        let expect: u64 = indices.iter().map(|&i| db[i]).sum();
        assert_eq!(got, expect % field.modulus());
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn sum_psm_single_item() {
        let mut rng = ChaChaRng::from_u64_seed(0x516);
        let field = Fp64::new(65_537).unwrap();
        let db: Vec<u64> = (100..110u64).collect();
        let params = PolyItParams::new(db.len(), 1, field);
        let mut t = Transcript::new(params.num_servers());
        let got = run_sum_psm(&mut t, &params, &db, &[5], 7, &mut rng).unwrap();
        assert_eq!(got, 105);
    }

    #[test]
    fn bp_psm_and_function() {
        let mut rng = ChaChaRng::from_u64_seed(0x517);
        let field = Fp64::new(1_000_003).unwrap();
        let db = vec![1u64, 0, 1, 1, 0, 1, 1, 0];
        let bp = BranchingProgram::and_of(3);
        let params = PolyItParams::new(db.len(), 1, field);
        for idx in [[0usize, 2, 3], [0, 1, 2], [5, 6, 0], [1, 4, 7]] {
            let mut t = Transcript::new(params.num_servers());
            let got = run_bp_psm(&mut t, &params, &bp, &db, &idx, 0xEE, &mut rng).unwrap();
            let expect = idx.iter().all(|&i| db[i] == 1) as u64;
            assert_eq!(got, expect, "{idx:?}");
        }
    }

    #[test]
    fn bp_psm_parity_function() {
        let mut rng = ChaChaRng::from_u64_seed(0x518);
        let field = Fp64::new(1_000_003).unwrap();
        let db = vec![1u64, 0, 1, 0];
        let bp = BranchingProgram::parity(3);
        let params = PolyItParams::new(db.len(), 1, field);
        let idx = [0usize, 2, 3]; // 1 ⊕ 1 ⊕ 0 = 0
        let mut t = Transcript::new(params.num_servers());
        assert_eq!(
            run_bp_psm(&mut t, &params, &bp, &db, &idx, 1, &mut rng).unwrap(),
            0
        );
        let idx2 = [0usize, 1, 2]; // 1 ⊕ 0 ⊕ 1 = 0
        let mut t2 = Transcript::new(params.num_servers());
        assert_eq!(
            run_bp_psm(&mut t2, &params, &bp, &db, &idx2, 2, &mut rng).unwrap(),
            0
        );
        let idx3 = [0usize, 1, 3]; // 1 ⊕ 0 ⊕ 0 = 1
        let mut t3 = Transcript::new(params.num_servers());
        assert_eq!(
            run_bp_psm(&mut t3, &params, &bp, &db, &idx3, 3, &mut rng).unwrap(),
            1
        );
    }

    #[test]
    fn psm_cost_shape_m_times_spir_plus_gc() {
        // Table 1 row 1: upstream = m SPIR queries; downstream = m SPIR
        // answers + O(κ·C_f) for p₀.
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..32u64).map(|i| i % 8).collect();
        let c2 = sum_circuit(2, 3);
        let c4 = sum_circuit(4, 3);
        let mut t2 = Transcript::new(1);
        run_yao_psm(&mut t2, &group, &pk, &sk, &db, &[1, 2], &c2, 3, &mut rng).unwrap();
        let mut t4 = Transcript::new(1);
        run_yao_psm(
            &mut t4,
            &group,
            &pk,
            &sk,
            &db,
            &[1, 2, 3, 4],
            &c4,
            3,
            &mut rng,
        )
        .unwrap();
        let up_ratio = t4.report().client_to_server as f64 / t2.report().client_to_server as f64;
        assert!(up_ratio > 1.6 && up_ratio < 2.4, "upstream ~2x: {up_ratio}");
    }
}
