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
//! * [`frequency`] — the keyword-counting protocol: after any input
//!   selection, one extra round of blinded, permuted comparisons; the
//!   client counts decryptions ≡ 0. The keyword may differ per selected
//!   item.

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
/// coefficients of the `wsum-query` message.
fn functional_reply<P: HomomorphicPk, R: RandomSource + ?Sized>(
    pk: &P,
    field: Fp64,
    s_poly: &Poly,
    coeff_cts: &[Vec<u8>],
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

/// The §4 one-round weighted-sum protocol: returns
/// `Σ_j weights[j] · x_{indices[j]} mod p` for every database `x` in
/// `dbs`. One query message serves them all; each database gets its own
/// mask `s_d`, its own `wsum-answer` message and its share of the
/// fallback round. `dbs = [x, x']` with unit weights is the §4
/// average+variance package.
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
    let p = field.modulus();
    let m = indices.len();
    let n = dbs.first().expect("at least one database").len();
    assert!(m > 0 && weights.len() == m, "weights/indices mismatch");
    assert!(dbs.iter().all(|db| db.len() == n), "ragged databases");
    assert!(p > n as u64, "field must exceed n");
    assert!(
        dbs.iter().all(|db| db.iter().all(|&v| v < p)),
        "db value exceeds field"
    );
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("weighted-sum");

    // Client message: batched SPIR queries + encrypted coefficients.
    let _qg = spfe_obs::span("query-gen");
    let (queries, state) = batched::client_query(group, pk, sk, n, indices, rng);
    let coeffs = functional_coeffs(field, indices, weights);
    let coeff_plains: Vec<Nat> = coeffs.iter().map(|&c| Nat::from(c)).collect();
    let coeff_cts: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, &coeff_plains, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let (queries, coeff_cts) = t.client_to_server(0, "wsum-query", &(queries, coeff_cts))?;
    drop(_qg);

    // Server, per database: mask it, answer SPIR + the functional.
    let _se = spfe_obs::span("server-eval");
    let mut masked_dbs = Vec::with_capacity(dbs.len());
    let mut replies = Vec::with_capacity(dbs.len());
    for db in dbs {
        let s_poly = Poly::random(m.saturating_sub(1), field, rng);
        let masked: Vec<u64> = db
            .iter()
            .enumerate()
            .map(|(i, &x)| field.add(x, s_poly.eval(i as u64)))
            .collect();
        let words: Vec<Vec<u64>> = masked.iter().map(|&v| vec![v]).collect();
        let answers = batched::server_answer_words(group, pk, &words, &queries, rng)?;
        let func = functional_reply(pk, field, &s_poly, &coeff_cts, rng)?;
        replies.push(t.server_to_client(0, "wsum-answer", &(answers, func))?);
        masked_dbs.push(masked);
    }
    drop(_se);

    // Client, per database: Σ w_j·x'_{i_j} − Σ w_j·P_s(i_j).
    let _s = spfe_obs::span("reconstruct");
    let mut retrieved: Vec<Vec<Vec<u64>>> = replies
        .iter()
        .map(|(answers, _)| batched::client_decode_words(pk, sk, &state, answers, 1))
        .collect::<Result<_, _>>()?;
    // Fallback leftovers (rare): a second plain exchange.
    if !state.leftovers.is_empty() {
        let fallback = masked_fallback(
            t,
            group,
            pk,
            sk,
            &masked_dbs,
            indices,
            &state.leftovers,
            rng,
        )?;
        for (retrieved, values) in retrieved.iter_mut().zip(fallback) {
            for (&q, v) in state.leftovers.iter().zip(values) {
                retrieved[q] = vec![v];
            }
        }
    }
    const BAD_FUNC: ProtocolError = ProtocolError::InvalidMessage {
        label: "wsum-answer",
        reason: "malformed functional reply",
    };
    retrieved
        .iter()
        .zip(&replies)
        .map(|(retrieved, (_, func))| {
            let masked_sum = retrieved.iter().zip(weights).fold(0u64, |acc, (v, &w)| {
                field.add(acc, field.mul(field.from_u64(w), v[0]))
            });
            let func_val = sk.decrypt(&pk.ciphertext_from_bytes(func).ok_or(BAD_FUNC)?);
            let mask_sum = func_val.rem(&Nat::from(p)).to_u64().ok_or(BAD_FUNC)?;
            Ok(field.sub(masked_sum, mask_sum))
        })
        .collect()
}

/// Fallback retrievals of the `leftovers` queries: one query message, then
/// one answer message per masked database.
#[allow(clippy::too_many_arguments)]
fn masked_fallback<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    masked_dbs: &[Vec<u64>],
    indices: &[usize],
    leftovers: &[usize],
    rng: &mut R,
) -> Result<Vec<Vec<u64>>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    use spfe_pir::spir;
    let params = spfe_pir::SpirParams::new(group.clone(), masked_dbs[0].len());
    let (queries, states): (Vec<_>, Vec<_>) = leftovers
        .iter()
        .map(|&q| spir::client_query(&params, pk, sk, indices[q], rng))
        .unzip();
    let queries = t.client_to_server(0, "wsum-fallback-q", &queries)?;
    let mut replies = Vec::with_capacity(masked_dbs.len());
    for masked in masked_dbs {
        let answers: Vec<spfe_pir::SpirAnswer> = queries
            .iter()
            .map(|fq| spir::server_answer(&params, pk, masked, fq, rng))
            .collect::<Result<_, _>>()?;
        replies.push(t.server_to_client(0, "wsum-fallback-a", &answers)?);
    }
    replies
        .iter()
        .map(|answers| {
            if answers.len() != states.len() {
                return Err(ProtocolError::InvalidMessage {
                    label: "wsum-fallback-a",
                    reason: "answer count does not match query count",
                });
            }
            states
                .iter()
                .zip(answers)
                .map(|(st, a)| spir::client_decode(&params, pk, sk, st, a))
                .collect()
        })
        .collect()
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
/// decryptions divisible by `p`.
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
    let m = shares.server.len();
    assert!(m > 0 && shares.client.len() == m && keywords.len() == m);
    let p = shares.p;
    let field = Fp64::new(p).expect("share modulus must be prime");
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("frequency");

    // Client: E((b_j − w_j) mod p).
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
    let client_cts = t.client_to_server(0, "freq-blinded-shares", &client_cts)?;

    // Server: ρ_j·(a_j + (b_j − w_j)) + p·R_j, permuted. Every input
    // ciphertext is client-controlled.
    const SHARES: &str = "freq-blinded-shares";
    if client_cts.len() != m {
        return Err(ProtocolError::InvalidMessage {
            label: SHARES,
            reason: "share count does not match selection size",
        });
    }
    let mut replies: Vec<Vec<u8>> = client_cts
        .iter()
        .zip(&shares.server)
        .map(|(ct_bytes, &a_j)| {
            let ct = pk
                .ciphertext_from_bytes(ct_bytes)
                .ok_or(ProtocolError::InvalidMessage {
                    label: SHARES,
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
    let replies = t.server_to_client(0, "freq-replies", &replies)?;

    // Client: count decryptions ≡ 0 (mod p).
    if replies.len() != m {
        return Err(ProtocolError::InvalidMessage {
            label: "freq-replies",
            reason: "reply count does not match selection size",
        });
    }
    let mut count = 0u64;
    for ct_bytes in &replies {
        let ct = pk
            .ciphertext_from_bytes(ct_bytes)
            .ok_or(ProtocolError::InvalidMessage {
                label: "freq-replies",
                reason: "reply is not a ciphertext",
            })?;
        if sk.decrypt(&ct).rem(&Nat::from(p)).is_zero() {
            count += 1;
        }
    }
    Ok(count)
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
