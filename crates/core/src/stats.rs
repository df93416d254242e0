//! §4 — protocols tailored to private statistics.
//!
//! * [`weighted_sum`] — the paper's efficient 1-round single-server
//!   protocol for `Σ w_j · x_{i_j}`: the server masks the database with a
//!   random degree-`(m−1)` polynomial `P_s`, the client batch-retrieves
//!   the masked items with `SPIR(n, m, F)` and, in the *same* message,
//!   sends encryptions of the coefficients `c_k = Σ_j w_j · i_j^k` of the
//!   linear functional `Σ_j w_j·P_s(i_j)` in `s`; the server's homomorphic
//!   reply lets the client unmask. Malicious clients can only redirect the
//!   coefficients to *another* linear combination of selected items — the
//!   paper's counting argument. One query serves a list of databases,
//!   each under its own mask: over `[x, x']` (the squared database) with
//!   unit weights it is the average+variance "package", still one round.
//!   It is written once, as sans-io cores (DESIGN.md §15): the function
//!   pumps [`WsumClientCore`] against a [`WsumServerCore`], and the
//!   networked server hosts the same server core.
//! * [`frequency`] — the keyword-counting protocol: after any input
//!   selection, one extra round of blinded, permuted comparisons; the
//!   client counts decryptions ≡ 0. The keyword may differ per selected
//!   item. It is `pump` over [`FreqClientCore`] and [`FreqServerCore`];
//!   after select1 the two phases are one sequenced core per party
//!   ([`select1_frequency_client`], [`select1_frequency_server`]).

use crate::input_select::{
    check_hom_capacity, Select1ClientCore, Select1ServerCore, SharesModP, STAT_SECURITY_BITS,
};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::{ChaChaRng, SchnorrGroup};
use spfe_math::{Fp64, Nat, Poly, RandomSource};
use spfe_pir::batched::{self, BatchedClientState, BatchedQuery};
use spfe_pir::spir::{self, SpirAnswer, SpirClientState, SpirParams, SpirQuery, SpirWordsAnswer};
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, SessionCore,
    SessionState, Then, Wire,
};
use std::borrow::Cow;

/// Computes the client's functional coefficients `c_k = Σ_j w_j · i_j^k`.
fn functional_coeffs(field: Fp64, indices: &[usize], weights: &[u64]) -> Vec<u64> {
    let m = indices.len();
    (0..m)
        .map(|k| {
            indices.iter().zip(weights).fold(0u64, |acc, (&i, &w)| {
                let pow = field.pow(field.from_u64(i as u64), k as u64);
                field.add(acc, field.mul(field.from_u64(w), pow))
            })
        })
        .collect()
}

/// Server-side: the homomorphic functional reply
/// `E(Σ_k s_k·c_k + p·(R+1))` from the `m` (client-controlled) encrypted
/// coefficients of the `wsum-query` message. Every coefficient is
/// multiplied, a zero `s_k` too, so the op count does not depend on the
/// mask.
fn functional_reply<P: HomomorphicPk, R: RandomSource + ?Sized>(
    pk: &P,
    field: Fp64,
    s_poly: &Poly,
    m: usize,
    coeff_cts: &[Vec<u8>],
    rng: &mut R,
) -> Result<Vec<u8>, ProtocolError> {
    if coeff_cts.len() != m {
        return Err(ProtocolError::InvalidMessage {
            label: "wsum-query",
            reason: "coefficient count does not match the selection size",
        });
    }
    let p = field.modulus();
    let mut acc: Option<P::Ciphertext> = None;
    for (k, ct_bytes) in coeff_cts.iter().enumerate() {
        let s_k = s_poly.coeffs().get(k).copied().unwrap_or(0);
        let ct = pk
            .ciphertext_from_bytes(ct_bytes)
            .ok_or(ProtocolError::InvalidMessage {
                label: "wsum-query",
                reason: "coefficient is not a ciphertext",
            })?;
        let term = pk.mul_const(&ct, &Nat::from(s_k));
        acc = Some(match acc {
            None => term,
            Some(prev) => pk.add(&prev, &term),
        });
    }
    let blind = Nat::from(p).mul(&Nat::random_bits(rng, STAT_SECURITY_BITS).add(&Nat::one()));
    let offset = pk.encrypt(&blind, rng);
    let total = match acc {
        None => offset,
        Some(a) => pk.add(&a, &offset),
    };
    Ok(pk.ciphertext_to_bytes(&total))
}

/// The client's `wsum-query`: the batched SPIR queries and the encrypted
/// functional coefficients.
type WsumQuery = (BatchedQuery, Vec<Vec<u8>>);

/// One database's `wsum-answer`: the batched SPIR answers over the masked
/// database and the functional reply.
type WsumAnswer = (Vec<SpirWordsAnswer>, Vec<u8>);

/// The §4 one-round weighted-sum protocol: returns
/// `Σ_j weights[j] · x_{indices[j]} mod p` for every database `x` in
/// `dbs`. One query message serves them all; each database gets its own
/// mask `s_d`, its own `wsum-answer` message and its share of the
/// fallback round. `dbs = [x, x']` with unit weights is the §4
/// average+variance package. It is [`pump`] over a [`WsumClientCore`]
/// and one [`WsumServerCore`], which borrows `dbs` and `rng`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if lengths mismatch, `dbs` is empty or ragged, values exceed the
/// field, the field is not larger than `n`, or the homomorphic plaintext
/// space is too small (all local setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn weighted_sum<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    dbs: &[&[u64]],
    indices: &[usize],
    weights: &[u64],
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let n = dbs.first().expect("at least one database").len();
    let _proto = spfe_obs::span("weighted-sum");
    let mut client = WsumClientCore::new(
        group.clone(),
        pk.clone(),
        sk.clone(),
        field,
        n,
        dbs.len(),
        indices,
        weights,
        rng,
    );
    let dbs = dbs.iter().map(|&db| Cow::Borrowed(db)).collect();
    let server = WsumServerCore::new(group.clone(), pk.clone(), field, indices.len(), dbs, rng);
    pump(t, &mut client, &mut [Box::new(server)])?;
    Ok(client.results)
}

/// The server half of [`weighted_sum`] as a sans-io machine. Per
/// database, in order, it draws a mask `P_s` of degree `m − 1`, answers
/// the batched SPIR queries over the masked database and replies with the
/// functional; then it answers the client's fallback queries, if any,
/// over the same masked databases. It draws from `rng`.
#[derive(Debug)]
pub struct WsumServerCore<'a, P: HomomorphicPk, G> {
    query: AnswerOnce,
    fallbacks: AnswerOnce,
    group: SchnorrGroup,
    pk: P,
    field: Fp64,
    m: usize,
    dbs: Vec<Cow<'a, [u64]>>,
    /// Each database under its mask, for the fallback round.
    masked: Vec<Vec<u64>>,
    rng: G,
}

impl<'a, P: HomomorphicPk, G: RandomSource> WsumServerCore<'a, P, G> {
    /// A core holding (or borrowing) `dbs` for selections of `m` items.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `dbs` is empty or ragged, a value exceeds the
    /// field, the field is not larger than `n`, or the plaintext space is
    /// too small for `m` and the field.
    pub fn new(
        group: SchnorrGroup,
        pk: P,
        field: Fp64,
        m: usize,
        dbs: Vec<Cow<'a, [u64]>>,
        rng: G,
    ) -> Self {
        let p = field.modulus();
        let n = dbs.first().expect("at least one database").len();
        assert!(m > 0, "empty selection");
        assert!(dbs.iter().all(|db| db.len() == n), "ragged databases");
        assert!(p > n as u64, "field must exceed n");
        assert!(
            dbs.iter().all(|db| db.iter().all(|&v| v < p)),
            "db value exceeds field"
        );
        check_hom_capacity(&pk, p, m);
        WsumServerCore {
            query: AnswerOnce::new(0, "wsum-query", "wsum-answer"),
            fallbacks: AnswerOnce::new(0, "wsum-fallback-q", "wsum-fallback-a"),
            group,
            pk,
            field,
            m,
            dbs,
            masked: Vec::new(),
            rng,
        }
    }
}

impl<P: HomomorphicPk, G: RandomSource> SessionCore for WsumServerCore<'_, P, G> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        if label == "wsum-fallback-q" {
            return self.fallbacks.answer_each(label, || {
                let queries = Vec::<SpirQuery>::from_bytes(payload)?;
                if self.masked.is_empty() {
                    return Err(ProtocolError::InvalidMessage {
                        label: "wsum-fallback-q",
                        reason: "fallback queries before the query",
                    });
                }
                let params = SpirParams::new(self.group.clone(), self.masked[0].len());
                let (pk, rng) = (&self.pk, &mut self.rng);
                self.masked
                    .iter()
                    .map(|masked| {
                        let answers: Vec<SpirAnswer> = queries
                            .iter()
                            .map(|fq| spir::server_answer(&params, pk, masked, fq, rng))
                            .collect::<Result<_, _>>()?;
                        Ok(answers.to_bytes())
                    })
                    .collect()
            });
        }
        self.query.answer_each(label, || {
            let (queries, coeff_cts) = WsumQuery::from_bytes(payload)?;
            let _se = spfe_obs::span("server-eval");
            let field = self.field;
            let mut replies = Vec::with_capacity(self.dbs.len());
            for db in &self.dbs {
                // A masked item is stored in 1..=p (0 as p): the scan skips
                // zero cells, so a zero would make its cost depend on the
                // mask.
                let s_poly = Poly::random(self.m - 1, field, &mut self.rng);
                let masked: Vec<u64> = db
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| match field.add(x, s_poly.eval(i as u64)) {
                        0 => field.modulus(),
                        v => v,
                    })
                    .collect();
                let words: Vec<Vec<u64>> = masked.iter().map(|&v| vec![v]).collect();
                let answers = batched::server_answer_words(
                    &self.group,
                    &self.pk,
                    &words,
                    &queries,
                    &mut self.rng,
                )?;
                let func =
                    functional_reply(&self.pk, field, &s_poly, self.m, &coeff_cts, &mut self.rng)?;
                replies.push((answers, func).to_bytes());
                self.masked.push(masked);
            }
            Ok(replies)
        })
    }
}

/// The client half of [`weighted_sum`]: the `wsum-query` (batched SPIR
/// queries and encrypted functional coefficients) and the fallback
/// queries for the indices cuckoo left unplaced, all drawn at
/// construction; one `wsum-answer` per database; then, only if there are
/// leftovers, one round of fallbacks.
#[derive(Debug)]
pub struct WsumClientCore<P: HomomorphicPk, S: HomomorphicSk<P>> {
    pk: P,
    sk: S,
    field: Fp64,
    weights: Vec<u64>,
    state: BatchedClientState,
    round: OneRound<WsumQuery, WsumAnswer>,
    fallbacks: OneRound<Vec<SpirQuery>, Vec<SpirAnswer>>,
    fallback_params: SpirParams,
    fallback_states: Vec<SpirClientState>,
    /// Per database: the retrieved masked items and the functional reply.
    pending: Vec<(Vec<Vec<u64>>, Vec<u8>)>,
    /// One weighted sum per database, once done.
    results: Vec<u64>,
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> WsumClientCore<P, S> {
    /// A client core for `Σ_j weights[j] · x_{indices[j]}` over
    /// `databases` databases of `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, out of range or not matched by
    /// `weights`, there is no database, or the field is not larger than
    /// `n`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: RandomSource + ?Sized>(
        group: SchnorrGroup,
        pk: P,
        sk: S,
        field: Fp64,
        n: usize,
        databases: usize,
        indices: &[usize],
        weights: &[u64],
        rng: &mut R,
    ) -> Self {
        let m = indices.len();
        assert!(m > 0 && weights.len() == m, "weights/indices mismatch");
        assert!(databases > 0, "at least one database");
        assert!(field.modulus() > n as u64, "field must exceed n");
        let _qg = spfe_obs::span("query-gen");
        let (queries, state) = batched::client_query(&group, &pk, &sk, n, indices, rng);
        let coeffs = functional_coeffs(field, indices, weights);
        let coeff_plains: Vec<Nat> = coeffs.iter().map(|&c| Nat::from(c)).collect();
        let coeff_cts: Vec<Vec<u8>> = sk
            .encrypt_batch(&pk, &coeff_plains, rng)
            .iter()
            .map(|ct| pk.ciphertext_to_bytes(ct))
            .collect();
        let fallback_params = SpirParams::new(group, n);
        let (fqueries, fallback_states) = state
            .leftovers
            .iter()
            .map(|&q| spir::client_query(&fallback_params, &pk, &sk, indices[q], rng))
            .unzip();
        WsumClientCore {
            pk,
            sk,
            field,
            weights: weights.to_vec(),
            state,
            round: OneRound::new("wsum-query", "wsum-answer", vec![(queries, coeff_cts)])
                .with_replies(databases),
            fallbacks: OneRound::new("wsum-fallback-q", "wsum-fallback-a", vec![fqueries])
                .with_replies(databases),
            fallback_params,
            fallback_states,
            pending: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Per database: `Σ w_j·x'_{i_j} − Σ w_j·P_s(i_j)`.
    fn finish(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        const BAD_FUNC: ProtocolError = ProtocolError::InvalidMessage {
            label: "wsum-answer",
            reason: "malformed functional reply",
        };
        let field = self.field;
        self.results = self
            .pending
            .iter()
            .map(|(retrieved, func)| {
                let masked_sum = retrieved.iter().zip(&self.weights).try_fold(
                    0u64,
                    |acc, (item, &w)| match item[..] {
                        [v] => Ok(field.add(acc, field.mul(field.from_u64(w), field.from_u64(v)))),
                        _ => Err(ProtocolError::InvalidMessage {
                            label: "wsum-answer",
                            reason: "retrieved item is not one word",
                        }),
                    },
                )?;
                let ct = self.pk.ciphertext_from_bytes(func).ok_or(BAD_FUNC)?;
                let mask_sum = self.sk.decrypt(&ct).rem(&Nat::from(field.modulus()));
                Ok(field.sub(masked_sum, mask_sum.to_u64().ok_or(BAD_FUNC)?))
            })
            .collect::<Result<_, ProtocolError>>()?;
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for WsumClientCore<P, S> {
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
        if label == "wsum-fallback-a" {
            let Some(replies) = self.fallbacks.receive(server, label, payload)? else {
                return Ok((SessionState::Running, Vec::new()));
            };
            let _s = spfe_obs::span("reconstruct");
            for ((retrieved, _), answers) in self.pending.iter_mut().zip(&replies) {
                if answers.len() != self.fallback_states.len() {
                    return Err(ProtocolError::InvalidMessage {
                        label: "wsum-fallback-a",
                        reason: "answer count does not match query count",
                    });
                }
                let fetched = self.state.leftovers.iter().zip(&self.fallback_states);
                for ((&q, st), a) in fetched.zip(answers) {
                    let v = spir::client_decode(&self.fallback_params, &self.pk, &self.sk, st, a)?;
                    retrieved[q] = vec![v];
                }
            }
            return self.finish();
        }
        let Some(replies) = self.round.receive(server, label, payload)? else {
            return Ok((SessionState::Running, Vec::new()));
        };
        let _s = spfe_obs::span("reconstruct");
        self.pending = replies
            .into_iter()
            .map(|(answers, func)| {
                let retrieved =
                    batched::client_decode_words(&self.pk, &self.sk, &self.state, &answers, 1)?;
                Ok((retrieved, func))
            })
            .collect::<Result<_, ProtocolError>>()?;
        if self.state.leftovers.is_empty() {
            return self.finish();
        }
        self.fallbacks.start()
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for WsumClientCore<P, S> {
    /// The wrapping sum of the per-database sums: with one database, the
    /// sum itself.
    fn digest(&self) -> Option<u64> {
        (!self.results.is_empty())
            .then(|| self.results.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round
            .static_label(label)
            .or_else(|| self.fallbacks.static_label(label))
    }
}

/// The §4 frequency protocol: given additive shares of the selected items
/// (from any input-selection protocol), one extra round counts how many
/// `x_{i_j}` equal `keywords[j]`. One keyword repeated `m` times is the
/// paper's protocol; a different keyword per item is its closing
/// observation — the power even a malicious client already has, so the
/// server's view is the same either way.
///
/// The client sends `E(b_j − w_j)`; the server replies with a random
/// permutation of `E(ρ_j·(a_j + b_j − w_j) + p·R_j)`; the client counts
/// decryptions divisible by `p`. It is [`pump`] over a
/// [`FreqClientCore`] and a [`FreqServerCore`], which borrows `rng`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if shares are empty, there is not one keyword per share or the
/// plaintext space is too small (local setup bugs, not attacks).
pub fn frequency<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    shares: &SharesModP,
    keywords: &[u64],
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    assert_eq!(shares.client.len(), shares.server.len(), "share count");
    let field = Fp64::new(shares.p).expect("share modulus must be prime");
    let _proto = spfe_obs::span("frequency");
    let mut client =
        FreqClientCore::new(pk.clone(), sk.clone(), field, &shares.client, keywords, rng);
    let server = FreqServerCore::new(pk.clone(), field, shares.server.clone(), rng);
    pump(t, &mut client, &mut [Box::new(server)])
}

/// The server half of [`frequency`] on its shares `a_j`: on the client's
/// `m` ciphertexts it adds `a_j`, scales by a random nonzero `ρ_j`,
/// blinds by `p·R_j`, rerandomizes and permutes, drawing from `rng`.
#[derive(Debug)]
pub struct FreqServerCore<P: HomomorphicPk, G> {
    once: AnswerOnce,
    pk: P,
    field: Fp64,
    shares: Vec<u64>,
    rng: G,
}

impl<P: HomomorphicPk, G: RandomSource> FreqServerCore<P, G> {
    /// A core holding the server's shares mod `field`'s `p`.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or the plaintext space cannot hold the
    /// blinded comparisons.
    pub fn new(pk: P, field: Fp64, shares: Vec<u64>, rng: G) -> Self {
        assert!(!shares.is_empty(), "empty selection");
        check_hom_capacity(&pk, field.modulus(), shares.len());
        FreqServerCore {
            once: AnswerOnce::new(0, "freq-blinded-shares", "freq-replies"),
            pk,
            field,
            shares,
            rng,
        }
    }
}

impl<P: HomomorphicPk, G: RandomSource> SessionCore for FreqServerCore<P, G> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            // Every input ciphertext is client-controlled.
            const SHARES: &str = "freq-blinded-shares";
            let client_cts = Vec::<Vec<u8>>::from_bytes(payload)?;
            if client_cts.len() != self.shares.len() {
                return Err(ProtocolError::InvalidMessage {
                    label: SHARES,
                    reason: "share count does not match selection size",
                });
            }
            let (pk, field, rng) = (&self.pk, self.field, &mut self.rng);
            let p = field.modulus();
            let mut replies: Vec<Vec<u8>> = client_cts
                .iter()
                .zip(&self.shares)
                .map(|(ct_bytes, &a_j)| {
                    let ct = pk.ciphertext_from_bytes(ct_bytes).ok_or(
                        ProtocolError::InvalidMessage {
                            label: SHARES,
                            reason: "share is not a ciphertext",
                        },
                    )?;
                    let sum = pk.add(&ct, &pk.encrypt(&Nat::from(a_j), rng));
                    let rho = field.random_nonzero(rng);
                    let scaled = pk.mul_const(&sum, &Nat::from(rho));
                    let blind = Nat::from(p).mul(&Nat::random_bits(rng, STAT_SECURITY_BITS));
                    let out = pk.add(&scaled, &pk.encrypt(&blind, rng));
                    Ok::<_, ProtocolError>(pk.ciphertext_to_bytes(&pk.rerandomize(&out, rng)))
                })
                .collect::<Result<_, _>>()?;
            // Fisher–Yates permutation from server randomness.
            for i in (1..replies.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                replies.swap(i, j);
            }
            Ok(replies.to_bytes())
        })
    }
}

/// The client half of [`frequency`]: `E((b_j − w_j) mod p)` per share,
/// encrypted at construction; on the replies, the count of decryptions
/// divisible by `p`.
#[derive(Debug)]
pub struct FreqClientCore<P: HomomorphicPk, S: HomomorphicSk<P>> {
    pk: P,
    sk: S,
    p: u64,
    m: usize,
    round: OneRound<Vec<Vec<u8>>, Vec<Vec<u8>>>,
    count: Option<u64>,
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> FreqClientCore<P, S> {
    /// A client core counting how many of the shared items equal their
    /// keyword, from its shares `b_j` mod `field`'s `p`.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or there is not one keyword per share.
    pub fn new<R: RandomSource + ?Sized>(
        pk: P,
        sk: S,
        field: Fp64,
        shares: &[u64],
        keywords: &[u64],
        rng: &mut R,
    ) -> Self {
        assert!(!shares.is_empty() && keywords.len() == shares.len());
        let blinded: Vec<Nat> = shares
            .iter()
            .zip(keywords)
            .map(|(&b, &w)| Nat::from(field.sub(b, field.from_u64(w))))
            .collect();
        let cts: Vec<Vec<u8>> = sk
            .encrypt_batch(&pk, &blinded, rng)
            .iter()
            .map(|ct| pk.ciphertext_to_bytes(ct))
            .collect();
        FreqClientCore {
            pk,
            sk,
            p: field.modulus(),
            m: shares.len(),
            round: OneRound::new("freq-blinded-shares", "freq-replies", vec![cts]),
            count: None,
        }
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for FreqClientCore<P, S> {
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
        let replies = replies.remove(0);
        const REPLIES: &str = "freq-replies";
        if replies.len() != self.m {
            return Err(ProtocolError::InvalidMessage {
                label: REPLIES,
                reason: "reply count does not match selection size",
            });
        }
        let mut count = 0u64;
        for ct_bytes in &replies {
            let ct =
                self.pk
                    .ciphertext_from_bytes(ct_bytes)
                    .ok_or(ProtocolError::InvalidMessage {
                        label: REPLIES,
                        reason: "reply is not a ciphertext",
                    })?;
            if self.sk.decrypt(&ct).rem(&Nat::from(self.p)).is_zero() {
                count += 1;
            }
        }
        self.count = Some(count);
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for FreqClientCore<P, S> {
    fn digest(&self) -> Option<u64> {
        self.count
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

/// The client of §3.3.1 + the frequency round, as one sequenced core:
/// select1's queries, drawn here from `rng`; then, on the shares, the
/// [`FreqClientCore`] for `keywords`, whose encryptions come from a
/// stream seeded here from `rng`, after the queries.
///
/// # Panics
///
/// Panics if an index is out of range or there is not one keyword per
/// index.
#[allow(clippy::type_complexity)]
pub fn select1_frequency_client<P, S, R>(
    params: SpirParams,
    pk: P,
    sk: S,
    field: Fp64,
    indices: &[usize],
    keywords: Vec<u64>,
    rng: &mut R,
) -> Then<
    Select1ClientCore<P, S>,
    FreqClientCore<P, S>,
    impl FnOnce(Select1ClientCore<P, S>) -> Result<FreqClientCore<P, S>, ProtocolError>,
>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    assert_eq!(keywords.len(), indices.len(), "one keyword per index");
    let phase = spfe_obs::span("select1");
    let select = Select1ClientCore::new(params, pk.clone(), sk.clone(), field, indices, rng);
    let mut later = ChaChaRng::from_rng(rng);
    Then::new(select, move |select| {
        let shares = select.into_shares().unwrap_or_default();
        Ok(FreqClientCore::new(
            pk, sk, field, &shares, &keywords, &mut later,
        ))
    })
    .in_spans(phase, "frequency")
}

/// The server of §3.3.1 + the frequency round, as one sequenced core:
/// select1 over `db` for selections of `m` items, then the
/// [`FreqServerCore`] on its shares. Both phases draw from `rng`.
///
/// # Panics
///
/// As [`Select1ServerCore::new`] and [`FreqServerCore::new`].
pub fn select1_frequency_server<'a, P, G>(
    params: SpirParams,
    pk: P,
    field: Fp64,
    m: usize,
    db: impl Into<Cow<'a, [u64]>>,
    rng: G,
) -> impl SessionCore + 'a
where
    P: HomomorphicPk + 'a,
    G: RandomSource + 'a,
{
    check_hom_capacity(&pk, field.modulus(), m);
    let select = Select1ServerCore::new(params, pk.clone(), field, m, db, rng);
    Then::new(select, move |select| {
        let (shares, rng) = select.into_parts();
        Ok(FreqServerCore::new(pk, field, shares, rng))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::reference;
    use crate::input_select::select1;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn crypto() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x444);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        (group, pk, sk, rng)
    }

    #[test]
    fn weighted_sum_matches_reference() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..40u64).map(|i| (i * 17 + 3) % 100).collect();
        let field = Fp64::new(65_537).unwrap();
        let indices = [0usize, 13, 27, 39];
        let weights = [1u64, 2, 3, 4];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &[&db],
            &indices,
            &weights,
            field,
            &mut rng,
        )
        .unwrap();
        let expect = reference::weighted_sum(&db, &indices, &weights) % field.modulus();
        assert_eq!(got, [expect]);
    }

    #[test]
    fn weighted_sum_is_one_round() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..30u64).collect();
        let field = Fp64::new(65_537).unwrap();
        let mut t = Transcript::new(1);
        weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &[&db],
            &[1, 15, 29],
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(t.report().half_rounds, 2, "§4: one round");
    }

    #[test]
    fn plain_sum_via_unit_weights() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..25u64).map(|i| i + 50).collect();
        let field = Fp64::new(65_537).unwrap();
        let indices = [3usize, 8, 20];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &[&db],
            &indices,
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, [reference::sum(&db, &indices)]);
    }

    #[test]
    fn average_and_variance_package() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..36u64).map(|i| (i * 7) % 50 + 1).collect();
        let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
        let field = Fp64::at_least(40_000);
        let indices = [2usize, 11, 30];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &[&db, &sq],
            &indices,
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap();
        let expect_s = reference::sum(&db, &indices);
        let expect_ss: u64 = indices.iter().map(|&i| db[i] * db[i]).sum();
        assert_eq!(got, [expect_s, expect_ss]);
        assert_eq!(t.report().half_rounds, 2, "package stays one round");
    }

    #[test]
    fn repeated_index_takes_the_fallback_round() {
        // Cuckoo placement cannot seat three queries for one index, so
        // the leftovers go through the wsum-fallback round, per database.
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..40u64).map(|i| (i * 17 + 3) % 100).collect();
        let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
        let field = Fp64::at_least(100_000);
        let (indices, weights) = ([5usize, 5, 5], [1u64, 2, 3]);
        for dbs in [vec![&db[..]], vec![&db[..], &sq]] {
            let mut t = Transcript::new(1);
            let got = weighted_sum(
                &mut t, &group, &pk, &sk, &dbs, &indices, &weights, field, &mut rng,
            )
            .unwrap();
            let expect: Vec<u64> = dbs.iter().map(|db| 6 * db[5]).collect();
            assert_eq!(got, expect);
            let count = |label| t.records().iter().filter(|r| r.label == label).count();
            assert_eq!(count("wsum-query"), 1);
            assert_eq!(count("wsum-fallback-q"), 1);
            assert_eq!(count("wsum-answer"), dbs.len());
            assert_eq!(count("wsum-fallback-a"), dbs.len());
            assert_eq!(t.report().half_rounds, 4, "the fallback is a second round");
        }
    }

    #[test]
    fn server_core_rejects_early_fallbacks_and_a_foreign_selection_size() {
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(65_537).unwrap();
        let db: Vec<u64> = (0..20u64).collect();
        let server = || {
            let dbs = vec![Cow::Borrowed(&db[..])];
            let rng = ChaChaRng::from_u64_seed(1);
            WsumServerCore::new(group.clone(), pk.clone(), field, 2, dbs, rng)
        };
        let early = Vec::<SpirQuery>::new().to_bytes();
        assert_eq!(
            server().on_message(1, 0, "wsum-fallback-q", &early),
            Err(ProtocolError::InvalidMessage {
                label: "wsum-fallback-q",
                reason: "fallback queries before the query",
            })
        );
        // Three encrypted coefficients for a server whose m is 2.
        let mut client = WsumClientCore::new(
            group.clone(),
            pk.clone(),
            sk.clone(),
            field,
            db.len(),
            1,
            &[1, 5, 9],
            &[1, 1, 1],
            &mut rng,
        );
        let (_, outs) = client.start().unwrap();
        assert_eq!(
            server().on_message(1, 0, outs[0].label, &outs[0].payload),
            Err(ProtocolError::InvalidMessage {
                label: "wsum-query",
                reason: "coefficient count does not match the selection size",
            })
        );
    }

    #[test]
    fn answers_that_open_no_word_are_typed_errors() {
        // Bucket answers with no padded chunk and empty OT items decode to
        // zero words per item: a typed error, not an index panic.
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(65_537).unwrap();
        let db: Vec<u64> = (0..20u64).collect();
        let (indices, weights) = ([1usize, 5], [1u64, 1]);
        let mut client = WsumClientCore::new(
            group.clone(),
            pk.clone(),
            sk.clone(),
            field,
            db.len(),
            1,
            &indices,
            &weights,
            &mut rng,
        );
        let (_, queries) = client.start().unwrap();
        let dbs = vec![Cow::Borrowed(&db[..])];
        let mut server = WsumServerCore::new(group, pk, field, 2, dbs, &mut rng);
        let (_, replies) = server
            .on_message(1, 0, queries[0].label, &queries[0].payload)
            .unwrap();
        let (mut answers, func) = WsumAnswer::from_bytes(&replies[0].payload).unwrap();
        for a in &mut answers {
            a.padded.clear();
            a.pad_ot.ciphertexts.iter_mut().for_each(Vec::clear);
        }
        assert_eq!(
            client.on_message(2, 0, "wsum-answer", &(answers, func).to_bytes()),
            Err(ProtocolError::InvalidMessage {
                label: "wsum-answer",
                reason: "retrieved item is not one word",
            })
        );
    }

    #[test]
    fn frequency_counts_keyword() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![9u64, 4, 9, 9, 2, 7, 9, 0];
        let field = Fp64::new(257).unwrap();
        let indices = [0usize, 2, 4, 6, 7];
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
        let got = frequency(&mut t, &pk, &sk, &shares, &[9; 5], &mut rng).unwrap();
        assert_eq!(got, 3);
        // Selection (1 round) + frequency (1 round) = 2 rounds.
        assert_eq!(t.report().half_rounds, 4);
    }

    #[test]
    fn frequency_zero_and_all_matches() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![5u64, 5, 5, 1];
        let field = Fp64::new(101).unwrap();
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &[0, 1, 2], field, &mut rng).unwrap();
        assert_eq!(
            frequency(&mut t, &pk, &sk, &shares, &[5; 3], &mut rng).unwrap(),
            3
        );
        let mut t2 = Transcript::new(1);
        let shares2 = select1(&mut t2, &group, &pk, &sk, &db, &[0, 3], field, &mut rng).unwrap();
        assert_eq!(
            frequency(&mut t2, &pk, &sk, &shares2, &[7; 2], &mut rng).unwrap(),
            0
        );
    }

    #[test]
    fn frequency_per_item_keywords() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![3u64, 8, 15, 8, 42];
        let field = Fp64::new(101).unwrap();
        let indices = [0usize, 1, 2, 4];
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
        // Match pattern: x₀==3 ✓, x₁==9 ✗, x₂==15 ✓, x₄==42 ✓ → 3.
        let got = frequency(&mut t, &pk, &sk, &shares, &[3, 9, 15, 42], &mut rng).unwrap();
        assert_eq!(got, 3);
    }

    #[test]
    fn frequency_transcript_does_not_depend_on_the_keywords() {
        // One keyword repeated m times and m distinct keywords, under one
        // seed: the same labels and bytes in the same order.
        let (group, pk, sk, _) = crypto();
        let db = vec![3u64, 8, 15, 8, 42];
        let field = Fp64::new(101).unwrap();
        let records = |keywords: &[u64]| {
            let mut rng = ChaChaRng::from_u64_seed(0xF4E9);
            let mut t = Transcript::new(1);
            let shares =
                select1(&mut t, &group, &pk, &sk, &db, &[0, 1, 3], field, &mut rng).unwrap();
            let count = frequency(&mut t, &pk, &sk, &shares, keywords, &mut rng).unwrap();
            let records: Vec<_> = t
                .records()
                .iter()
                .map(|r| (r.direction, r.label, r.bytes, r.half_round))
                .collect();
            (count, records)
        };
        let (same, same_records) = records(&[8; 3]);
        let (distinct, distinct_records) = records(&[3, 9, 8]);
        assert_eq!((same, distinct), (2, 2));
        assert_eq!(same_records, distinct_records);
    }

    #[test]
    fn malicious_weighted_client_gets_linear_combination_only() {
        // The counting argument: a client submitting arbitrary coefficient
        // vectors learns *some* linear combination of selected items. We
        // emulate by running with a different weight vector than claimed —
        // the output is exactly that other linear combination.
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..20u64).map(|i| i + 1).collect();
        let field = Fp64::new(65_537).unwrap();
        let indices = [1usize, 5];
        let sneaky_weights = [7u64, 11];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &[&db],
            &indices,
            &sneaky_weights,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            [reference::weighted_sum(&db, &indices, &sneaky_weights) % field.modulus()]
        );
    }
}
