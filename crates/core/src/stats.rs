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
//!   paper's counting argument.
//! * [`average_and_variance`] — the "package": the server keeps the
//!   squared database `x'` alongside `x` and answers the same batched
//!   query against both (plus two functional replies), still one round.
//! * [`frequency`] — the keyword-counting protocol: after any input
//!   selection, one extra round of blinded, permuted comparisons; the
//!   client counts decryptions ≡ 0.

use crate::input_select::{SharesModP, STAT_SECURITY_BITS};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::{Fp64, Nat, Poly, RandomSource};
use spfe_pir::batched;
use spfe_transport::{Channel, ChannelExt, ProtocolError};

/// Encrypts the blinded functional value `Σ-term + p·(R+1)` so the client
/// learns exactly the mod-`p` value.
fn check_capacity<P: HomomorphicPk>(pk: &P, p: u64, m: usize) {
    let bound = Nat::from(p)
        .square()
        .mul_u64(m as u64)
        .add(&Nat::from(p).shl(STAT_SECURITY_BITS + 1));
    assert!(
        &bound < pk.plaintext_modulus(),
        "plaintext modulus too small for field {p} and m={m}"
    );
}

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
/// `E(Σ_k s_k·c_k + p·(R+1))` from the (client-controlled) encrypted
/// coefficients; `label` names the message the coefficients arrived in.
fn functional_reply<P: HomomorphicPk, R: RandomSource + ?Sized>(
    pk: &P,
    field: Fp64,
    s_poly: &Poly,
    coeff_cts: &[Vec<u8>],
    label: &'static str,
    rng: &mut R,
) -> Result<Vec<u8>, ProtocolError> {
    let p = field.modulus();
    let mut acc: Option<P::Ciphertext> = None;
    for (k, ct_bytes) in coeff_cts.iter().enumerate() {
        let s_k = s_poly.coeffs().get(k).copied().unwrap_or(0);
        if s_k == 0 {
            continue;
        }
        let ct = pk
            .ciphertext_from_bytes(ct_bytes)
            .ok_or(ProtocolError::InvalidMessage {
                label,
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

/// The §4 one-round weighted-sum protocol: returns
/// `Σ_j weights[j] · x_{indices[j]} mod p`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if lengths mismatch, values exceed the field, the field is not
/// larger than `n`, or the homomorphic plaintext space is too small (all
/// local setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn weighted_sum<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    weights: &[u64],
    field: Fp64,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let p = field.modulus();
    let m = indices.len();
    assert!(m > 0 && weights.len() == m, "weights/indices mismatch");
    assert!(p > db.len() as u64, "field must exceed n");
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("weighted-sum");

    // Client message: batched SPIR queries + encrypted coefficients.
    let _qg = spfe_obs::span("query-gen");
    let (queries, state) = batched::client_query(group, pk, sk, db.len(), indices, rng);
    let coeffs = functional_coeffs(field, indices, weights);
    let coeff_plains: Vec<Nat> = coeffs.iter().map(|&c| Nat::from(c)).collect();
    let coeff_cts: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, &coeff_plains, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let (queries, coeff_cts) = t.client_to_server(0, "wsum-query", &(queries, coeff_cts))?;
    drop(_qg);

    // Server: mask the database, answer SPIR + the functional.
    let _se = spfe_obs::span("server-eval");
    let s_poly = Poly::random(m.saturating_sub(1), field, rng);
    let masked: Vec<Vec<u64>> = db
        .iter()
        .enumerate()
        .map(|(i, &x)| vec![field.add(x, s_poly.eval(i as u64))])
        .collect();
    let answers = batched::server_answer_words(group, pk, &masked, &queries, rng)?;
    let func = functional_reply(pk, field, &s_poly, &coeff_cts, "wsum-query", rng)?;
    let (answers, func) = t.server_to_client(0, "wsum-answer", &(answers, func))?;
    drop(_se);

    // Client: Σ w_j·x'_{i_j} − Σ w_j·P_s(i_j).
    let _s = spfe_obs::span("reconstruct");
    let mut retrieved = batched::client_decode_words(pk, sk, &state, &answers, 1)?;
    // Fallback leftovers (rare): a second plain exchange.
    if !state.leftovers.is_empty() {
        let flat: Vec<u64> = masked_fallback(
            t,
            group,
            pk,
            sk,
            db,
            &s_poly,
            field,
            indices,
            &state.leftovers,
            rng,
        )?;
        for (&q, v) in state.leftovers.iter().zip(flat) {
            retrieved[q] = vec![v];
        }
    }
    let masked_sum = retrieved.iter().zip(weights).fold(0u64, |acc, (v, &w)| {
        field.add(acc, field.mul(field.from_u64(w), v[0]))
    });
    const BAD_FUNC: ProtocolError = ProtocolError::InvalidMessage {
        label: "wsum-answer",
        reason: "malformed functional reply",
    };
    let func_val = sk.decrypt(&pk.ciphertext_from_bytes(&func).ok_or(BAD_FUNC)?);
    let mask_sum = func_val.rem(&Nat::from(p)).to_u64().ok_or(BAD_FUNC)?;
    Ok(field.sub(masked_sum, mask_sum))
}

/// Fallback retrievals against the same masked database.
#[allow(clippy::too_many_arguments)]
fn masked_fallback<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    s_poly: &Poly,
    field: Fp64,
    indices: &[usize],
    leftovers: &[usize],
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    use spfe_pir::spir;
    let params = spfe_pir::SpirParams::new(group.clone(), db.len());
    let mut queries = Vec::new();
    let mut states = Vec::new();
    for &q in leftovers {
        let (fq, fst) = spir::client_query(&params, pk, sk, indices[q], rng);
        queries.push(fq);
        states.push(fst);
    }
    let queries = t.client_to_server(0, "wsum-fallback-q", &queries)?;
    let masked: Vec<u64> = db
        .iter()
        .enumerate()
        .map(|(i, &x)| field.add(x, s_poly.eval(i as u64)))
        .collect();
    let answers: Vec<spfe_pir::SpirAnswer> = queries
        .iter()
        .map(|fq| spir::server_answer(&params, pk, &masked, fq, rng))
        .collect::<Result<_, _>>()?;
    let answers = t.server_to_client(0, "wsum-fallback-a", &answers)?;
    if answers.len() != states.len() {
        return Err(ProtocolError::InvalidMessage {
            label: "wsum-fallback-a",
            reason: "answer count does not match query count",
        });
    }
    states
        .iter()
        .zip(&answers)
        .map(|(st, a)| spir::client_decode(&params, pk, sk, st, a))
        .collect()
}

/// The §4 average+variance package, one round: the same batched query is
/// answered against both `x` and the squared database; returns
/// `(Σ x_{i_j}, Σ x_{i_j}²) mod p`. The client derives mean and variance.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Same local-setup preconditions as [`weighted_sum`]; squares must also
/// fit the field.
#[allow(clippy::too_many_arguments)]
pub fn average_and_variance<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    db_squared: &[u64],
    indices: &[usize],
    field: Fp64,
    rng: &mut R,
) -> Result<(u64, u64), ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let p = field.modulus();
    let m = indices.len();
    assert!(m > 0);
    assert!(p > db.len() as u64, "field must exceed n");
    assert!(
        db.iter().all(|&v| v < p) && db_squared.iter().all(|&v| v < p),
        "db value exceeds field"
    );
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("avg-var");

    // Client: one query set + coefficients for the all-ones functional
    // (weights 1), sent once but applied to both masking polynomials.
    let (queries, state) = batched::client_query(group, pk, sk, db.len(), indices, rng);
    let ones = vec![1u64; m];
    let coeffs = functional_coeffs(field, indices, &ones);
    let coeff_plains: Vec<Nat> = coeffs.iter().map(|&c| Nat::from(c)).collect();
    let coeff_cts: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, &coeff_plains, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let (queries, coeff_cts) = t.client_to_server(0, "avgvar-query", &(queries, coeff_cts))?;

    // Server: two independent masks; the same query answered twice.
    let s1 = Poly::random(m.saturating_sub(1), field, rng);
    let s2 = Poly::random(m.saturating_sub(1), field, rng);
    let mask = |base: &[u64], s: &Poly| -> Vec<Vec<u64>> {
        base.iter()
            .enumerate()
            .map(|(i, &x)| vec![field.add(x, s.eval(i as u64))])
            .collect()
    };
    let a1 = batched::server_answer_words(group, pk, &mask(db, &s1), &queries, rng)?;
    let a2 = batched::server_answer_words(group, pk, &mask(db_squared, &s2), &queries, rng)?;
    let f1 = functional_reply(pk, field, &s1, &coeff_cts, "avgvar-query", rng)?;
    let f2 = functional_reply(pk, field, &s2, &coeff_cts, "avgvar-query", rng)?;
    let ((a1, a2), (f1, f2)) = t.server_to_client(0, "avgvar-answer", &((a1, a2), (f1, f2)))?;

    assert!(
        state.leftovers.is_empty(),
        "avg/var package requires cuckoo placement to succeed (retry with fresh randomness)"
    );
    const BAD_FUNC: ProtocolError = ProtocolError::InvalidMessage {
        label: "avgvar-answer",
        reason: "malformed functional reply",
    };
    let decode =
        |answers: &[spfe_pir::spir::SpirWordsAnswer], func: &[u8]| -> Result<u64, ProtocolError> {
            let retrieved = batched::client_decode_words(pk, sk, &state, answers, 1)?;
            let masked_sum = retrieved.iter().fold(0u64, |acc, v| field.add(acc, v[0]));
            let func_val = sk.decrypt(&pk.ciphertext_from_bytes(func).ok_or(BAD_FUNC)?);
            let mask_sum = func_val.rem(&Nat::from(p)).to_u64().ok_or(BAD_FUNC)?;
            Ok(field.sub(masked_sum, mask_sum))
        };
    Ok((decode(&a1, &f1)?, decode(&a2, &f2)?))
}

/// Server half of the frequency round: blinds, scales and permutes the
/// comparison ciphertexts. Every input ciphertext is client-controlled.
fn frequency_replies<P, R>(
    pk: &P,
    field: Fp64,
    server_shares: &[u64],
    client_cts: &[Vec<u8>],
    label: &'static str,
    rng: &mut R,
) -> Result<Vec<Vec<u8>>, ProtocolError>
where
    P: HomomorphicPk,
    R: RandomSource + ?Sized,
{
    if client_cts.len() != server_shares.len() {
        return Err(ProtocolError::InvalidMessage {
            label,
            reason: "share count does not match selection size",
        });
    }
    let p = field.modulus();
    let mut replies: Vec<Vec<u8>> = client_cts
        .iter()
        .zip(server_shares)
        .map(|(ct_bytes, &a_j)| {
            let ct = pk
                .ciphertext_from_bytes(ct_bytes)
                .ok_or(ProtocolError::InvalidMessage {
                    label,
                    reason: "share is not a ciphertext",
                })?;
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
    Ok(replies)
}

/// Client half: counts the replies whose decryption is ≡ 0 (mod p).
fn count_zero_replies<P, S>(
    pk: &P,
    sk: &S,
    p: u64,
    expected: usize,
    replies: &[Vec<u8>],
    label: &'static str,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
{
    if replies.len() != expected {
        return Err(ProtocolError::InvalidMessage {
            label,
            reason: "reply count does not match selection size",
        });
    }
    let mut count = 0u64;
    for ct_bytes in replies {
        let ct = pk
            .ciphertext_from_bytes(ct_bytes)
            .ok_or(ProtocolError::InvalidMessage {
                label,
                reason: "reply is not a ciphertext",
            })?;
        if sk.decrypt(&ct).rem(&Nat::from(p)).is_zero() {
            count += 1;
        }
    }
    Ok(count)
}

/// The §4 frequency protocol: given additive shares of the selected items
/// (from any input-selection protocol), one extra round counts how many
/// equal `keyword`.
///
/// The client sends `E(b_j − w)`; the server replies with a random
/// permutation of `E(ρ_j·(a_j + b_j − w) + p·R_j)`; the client counts
/// decryptions divisible by `p`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if shares are empty or the plaintext space too small (local
/// setup bugs, not attacks).
pub fn frequency<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    shares: &SharesModP,
    keyword: u64,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let m = shares.server.len();
    assert!(m > 0 && shares.client.len() == m);
    let p = shares.p;
    let field = Fp64::new(p).expect("share modulus must be prime");
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("frequency");

    // Client: E((b_j − w) mod p).
    let blinded: Vec<Nat> = shares
        .client
        .iter()
        .map(|&b| Nat::from(field.sub(b, field.from_u64(keyword))))
        .collect();
    let client_cts: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, &blinded, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let client_cts = t.client_to_server(0, "freq-blinded-shares", &client_cts)?;

    // Server: ρ_j·(a_j + (b_j − w)) + p·R_j, permuted.
    let replies = frequency_replies(
        pk,
        field,
        &shares.server,
        &client_cts,
        "freq-blinded-shares",
        rng,
    )?;
    let replies = t.server_to_client(0, "freq-replies", &replies)?;

    // Client: count decryptions ≡ 0 (mod p).
    count_zero_replies(pk, sk, p, m, &replies, "freq-replies")
}

/// The generalized frequency protocol with a *different keyword per
/// selected item* — the paper's closing observation that a (even
/// malicious) client's power in the frequency protocol is exactly "a
/// different keyword ... for each selected item", offered here as a
/// feature: count how many `x_{i_j} == keywords[j]`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if lengths mismatch or the plaintext space is too small (local
/// setup bugs, not attacks).
pub fn frequency_multi<P, S, R>(
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
    let m = shares.server.len();
    assert!(m > 0 && shares.client.len() == m && keywords.len() == m);
    let p = shares.p;
    let field = Fp64::new(p).expect("share modulus must be prime");
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("frequency-multi");

    let blinded: Vec<Nat> = shares
        .client
        .iter()
        .zip(keywords)
        .map(|(&b, &w)| Nat::from(field.sub(b, field.from_u64(w))))
        .collect();
    let client_cts: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, &blinded, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let client_cts = t.client_to_server(0, "freqm-blinded-shares", &client_cts)?;

    let replies = frequency_replies(
        pk,
        field,
        &shares.server,
        &client_cts,
        "freqm-blinded-shares",
        rng,
    )?;
    let replies = t.server_to_client(0, "freqm-replies", &replies)?;

    count_zero_replies(pk, sk, p, m, &replies, "freqm-replies")
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
            &mut t, &group, &pk, &sk, &db, &indices, &weights, field, &mut rng,
        )
        .unwrap();
        let expect = reference::weighted_sum(&db, &indices, &weights) % field.modulus();
        assert_eq!(got, expect);
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
            &db,
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
            &db,
            &indices,
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, reference::sum(&db, &indices));
    }

    #[test]
    fn average_and_variance_package() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..36u64).map(|i| (i * 7) % 50 + 1).collect();
        let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
        let field = Fp64::at_least(40_000);
        let indices = [2usize, 11, 30];
        let mut t = Transcript::new(1);
        let (s, ss) = average_and_variance(
            &mut t, &group, &pk, &sk, &db, &sq, &indices, field, &mut rng,
        )
        .unwrap();
        let expect_s = reference::sum(&db, &indices);
        let expect_ss: u64 = indices.iter().map(|&i| db[i] * db[i]).sum();
        assert_eq!((s, ss), (expect_s, expect_ss));
        assert_eq!(t.report().half_rounds, 2, "package stays one round");
    }

    #[test]
    fn frequency_counts_keyword() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![9u64, 4, 9, 9, 2, 7, 9, 0];
        let field = Fp64::new(257).unwrap();
        let indices = [0usize, 2, 4, 6, 7];
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
        let got = frequency(&mut t, &pk, &sk, &shares, 9, &mut rng).unwrap();
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
            frequency(&mut t, &pk, &sk, &shares, 5, &mut rng).unwrap(),
            3
        );
        let mut t2 = Transcript::new(1);
        let shares2 = select1(&mut t2, &group, &pk, &sk, &db, &[0, 3], field, &mut rng).unwrap();
        assert_eq!(
            frequency(&mut t2, &pk, &sk, &shares2, 7, &mut rng).unwrap(),
            0
        );
    }

    #[test]
    fn frequency_multi_per_item_keywords() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![3u64, 8, 15, 8, 42];
        let field = Fp64::new(101).unwrap();
        let indices = [0usize, 1, 2, 4];
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
        // Match pattern: x₀==3 ✓, x₁==9 ✗, x₂==15 ✓, x₄==42 ✓ → 3.
        let got = frequency_multi(&mut t, &pk, &sk, &shares, &[3, 9, 15, 42], &mut rng).unwrap();
        assert_eq!(got, 3);
        // Uniform keywords degenerate to the plain protocol.
        let mut t2 = Transcript::new(1);
        let shares2 = select1(&mut t2, &group, &pk, &sk, &db, &[1, 3], field, &mut rng).unwrap();
        assert_eq!(
            frequency_multi(&mut t2, &pk, &sk, &shares2, &[8, 8], &mut rng).unwrap(),
            2
        );
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
            &db,
            &indices,
            &sneaky_weights,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            reference::weighted_sum(&db, &indices, &sneaky_weights) % field.modulus()
        );
    }
}
