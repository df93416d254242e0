//! §3.3 — the input-selection phase: obtaining additive secret shares of
//! the `m` selected items without revealing anything to either party.
//!
//! Three protocols, one per subsection:
//!
//! * [`select1`] (§3.3.1): `m` independent `SPIR(n,1,ℓ)` calls against
//!   per-slot shifted virtual databases `v_i = x_i − a_j`;
//! * [`select2_v1`] / [`select2_v2`] (§3.3.2): one batched `SPIR(n,m,ℓ)`
//!   against a database masked by an `m`-wise independent polynomial
//!   family `{P_s}` (degree-`(m−1)` polynomials), plus a homomorphic
//!   protocol that shares `P_s(I)` — the client encrypting its `m²` index
//!   powers (v1, 1 round) or the server encrypting its `m` coefficients
//!   (v2, 1.5 rounds, only `m` ciphertexts);
//! * [`select3`] (§3.3.3): one batched `SPIR(n,m,κ)` against the database
//!   *encrypted under the server's key*, unblinded by one client message.
//!
//! Shares from `select1`/`select2_*` live in a prime field `Z_p`
//! ([`SharesModP`]); `select3` produces exact additive shares over the
//! integers ([`IntShares`]) via statistical blinding, which compose with
//! any MPC-phase ring (see `two_phase`).

use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::{Fp64, Nat, Poly, RandomSource};
use spfe_pir::spir::{self, SpirParams, SpirQuery};
use spfe_pir::{batched, words};
use spfe_transport::{Channel, ChannelExt, ProtocolError};

/// Statistical blinding bits for integer masking (2⁻⁴⁰ distance).
pub const STAT_SECURITY_BITS: usize = 40;

/// Additive shares over `Z_p`: `(server[j] + client[j]) mod p = x_{i_j}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharesModP {
    /// The field modulus `p`.
    pub p: u64,
    /// Server-side shares.
    pub server: Vec<u64>,
    /// Client-side shares.
    pub client: Vec<u64>,
}

impl SharesModP {
    /// Reconstructs the shared values (test/diagnostic use only — in the
    /// protocol neither party holds both vectors).
    pub fn reconstruct(&self) -> Vec<u64> {
        self.server
            .iter()
            .zip(&self.client)
            .map(|(&a, &b)| ((a as u128 + b as u128) % self.p as u128) as u64)
            .collect()
    }
}

/// Exact additive shares over ℤ: `server[j] − client_neg[j] = x_{i_j}`
/// (the client's share is the *negative* mask `R_j`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntShares {
    /// Server-side values `S_j = x_{i_j} + R_j`.
    pub server: Vec<Nat>,
    /// Client-side masks `R_j`.
    pub client_masks: Vec<Nat>,
}

impl IntShares {
    /// Reconstructs (diagnostics only).
    pub fn reconstruct(&self) -> Vec<Nat> {
        self.server
            .iter()
            .zip(&self.client_masks)
            .map(|(s, r)| s.sub(r))
            .collect()
    }
}

/// §3.3.1 — `m` independent single-item SPIRs against shifted databases.
///
/// One round; cost `m × SPIR(n, 1, ℓ)` (the first reduction of Table 1).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if an index is out of range or a database value ≥ `p` (local
/// setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn select1<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    field: Fp64,
    rng: &mut R,
) -> Result<SharesModP, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let _proto = spfe_obs::span("select1");
    let p = field.modulus();
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    assert!(indices.iter().all(|&i| i < db.len()), "index out of range");
    let params = SpirParams::new(group.clone(), db.len());

    // Client: all m queries in one message.
    let (queries, states) = {
        let _s = spfe_obs::span("query-gen");
        let mut queries = Vec::with_capacity(indices.len());
        let mut states = Vec::with_capacity(indices.len());
        for &i in indices {
            let (q, st) = spir::client_query(&params, pk, sk, i, rng);
            queries.push(q);
            states.push(st);
        }
        (queries, states)
    };
    let queries: Vec<SpirQuery> = t.client_to_server(0, "sel1-queries", &queries)?;

    // Server: per slot, pick a_j and answer against v_i = x_i − a_j.
    let mut server_shares = Vec::with_capacity(indices.len());
    let answers: Vec<spfe_pir::SpirAnswer> = {
        let _s = spfe_obs::span("server-scan");
        queries
            .iter()
            .map(|q| {
                let a_j = field.random(rng);
                server_shares.push(a_j);
                let vdb: Vec<u64> = db.iter().map(|&x| field.sub(x, a_j)).collect();
                spir::server_answer(&params, pk, &vdb, q, rng)
            })
            .collect::<Result<_, _>>()?
    };
    let answers: Vec<spfe_pir::SpirAnswer> = t.server_to_client(0, "sel1-answers", &answers)?;
    if answers.len() != states.len() {
        return Err(ProtocolError::InvalidMessage {
            label: "sel1-answers",
            reason: "wrong number of answers",
        });
    }

    // Client: decode b_j.
    let _s = spfe_obs::span("reconstruct");
    let client_shares: Vec<u64> = states
        .iter()
        .zip(&answers)
        .map(|(st, a)| spir::client_decode(&params, pk, sk, st, a))
        .collect::<Result<_, _>>()?;

    Ok(SharesModP {
        p,
        server: server_shares,
        client: client_shares,
    })
}

/// §3.3.1 written against the paper's SPIR *black box* ([`SpirOracle`]):
/// the same protocol costed under any SPIR instantiation — including the
/// idealized one — which decomposes the SPFE cost into "the SPIR term"
/// and "everything else", as Table 1 does symbolically.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if an index is out of range or a database value ≥ `p` (local
/// setup bugs, not attacks).
pub fn select1_with_oracle<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    oracle: &dyn spfe_pir::SpirOracle,
    db: &[u64],
    indices: &[usize],
    field: Fp64,
    rng: &mut R,
) -> Result<SharesModP, ProtocolError> {
    let _proto = spfe_obs::span("select1-oracle");
    let p = field.modulus();
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    assert!(indices.iter().all(|&i| i < db.len()), "index out of range");
    let mut server_shares = Vec::with_capacity(indices.len());
    let mut client_shares = Vec::with_capacity(indices.len());
    let mut entropy = || rng.next_u64();
    for &i in indices {
        let a_j = {
            // Field-uniform share from the entropy tap.
            let mut v = entropy();
            loop {
                let zone = u64::MAX - u64::MAX % p;
                if v < zone {
                    break v % p;
                }
                v = entropy();
            }
        };
        let vdb: Vec<u64> = db.iter().map(|&x| field.sub(x, a_j)).collect();
        let b_j = oracle.retrieve_one(t, &vdb, i, &mut entropy)?;
        server_shares.push(a_j);
        client_shares.push(b_j);
    }
    Ok(SharesModP {
        p,
        server: server_shares,
        client: client_shares,
    })
}

/// Checks the §3.3.2 no-overflow precondition: homomorphic sums
/// `m·p² + p·2^{σ+1}` must stay below the plaintext modulus.
fn check_hom_capacity<P: HomomorphicPk>(pk: &P, p: u64, m: usize) {
    let bound = Nat::from(p)
        .square()
        .mul_u64(m as u64)
        .add(&Nat::from(p).shl(STAT_SECURITY_BITS + 1));
    assert!(
        &bound < pk.plaintext_modulus(),
        "plaintext modulus too small for field {p} and m={m}"
    );
}

/// Encrypts the integer `Σ-term + p·(R+1) − r` without wraparound: the
/// server/client-side blinding step shared by both §3.3.2 variants.
fn blinded_offset<R: RandomSource + ?Sized>(p: u64, r: u64, rng: &mut R) -> Nat {
    let big_r = Nat::random_bits(rng, STAT_SECURITY_BITS);
    Nat::from(p).mul(&big_r.add(&Nat::one())).sub(&Nat::from(r))
}

/// §3.3.2, first variant — one batched `SPIR(n, m, ℓ)` plus the client
/// encrypting its `m²` index powers (`κ·m²` overhead, 1 round).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the field is smaller than `n`, a value ≥ `p`, or the
/// homomorphic plaintext space cannot hold the blinded sums (local setup
/// bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn select2_v1<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    field: Fp64,
    rng: &mut R,
) -> Result<SharesModP, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let _proto = spfe_obs::span("select2v1");
    let p = field.modulus();
    let m = indices.len();
    assert!(m > 0);
    assert!(
        p > db.len() as u64,
        "field must exceed n for index encoding"
    );
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    check_hom_capacity(pk, p, m);

    // Client message: batched SPIR queries travel inside batched::run below
    // (same round); here the m² encrypted powers E(i_j^k).
    let _qg = spfe_obs::span("query-gen");
    let power_plains: Vec<Nat> = indices
        .iter()
        .flat_map(|&i| {
            let i_f = field.from_u64(i as u64);
            (0..m).map(move |k| Nat::from(field.pow(i_f, k as u64)))
        })
        .collect();
    let powers: Vec<Vec<u8>> = pk
        .encrypt_batch(&power_plains, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let powers: Vec<Vec<u8>> = t.client_to_server(0, "sel2v1-powers", &powers)?;
    if powers.len() != m * m {
        return Err(ProtocolError::InvalidMessage {
            label: "sel2v1-powers",
            reason: "wrong number of encrypted index powers",
        });
    }
    drop(_qg);

    // Server: pick the masking polynomial P_s, mask the database. The
    // masking pass is Ω(n·m) field ops but each item is cheap
    // (`CostClass::Light`): it shards only once the database is large
    // enough to amortize the pool handshake.
    let _se = spfe_obs::span("server-eval");
    let s_poly = Poly::random(m.saturating_sub(1), field, rng);
    let db_idx: Vec<(usize, u64)> = db.iter().copied().enumerate().collect();
    let masked: Vec<u64> =
        spfe_math::par::par_map_cost(spfe_math::par::CostClass::Light, &db_idx, |&(i, x)| {
            field.add(x, s_poly.eval(i as u64))
        });

    // Homomorphic evaluation: E(P_s(i_j) − r_j) with integer-safe blinding.
    // The m² scalar products are rng-free — flatten them into one batch for
    // the worker pool, then draw the blinding serially per slot.
    let mut prod_cts: Vec<P::Ciphertext> = Vec::new();
    let mut prod_consts: Vec<Nat> = Vec::new();
    let mut slot_products: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (j, slot) in slot_products.iter_mut().enumerate() {
        for k in 0..m {
            let s_k = s_poly.coeffs().get(k).copied().unwrap_or(0);
            if s_k == 0 {
                continue;
            }
            let ct = pk.ciphertext_from_bytes(&powers[j * m + k]).ok_or(
                ProtocolError::InvalidMessage {
                    label: "sel2v1-powers",
                    reason: "malformed power ciphertext",
                },
            )?;
            slot.push(prod_cts.len());
            prod_cts.push(ct);
            prod_consts.push(Nat::from(s_k));
        }
    }
    let products = pk.scalar_mul_batch(&prod_cts, &prod_consts);
    let mut server_r = Vec::with_capacity(m);
    let evals: Vec<Vec<u8>> = slot_products
        .iter()
        .map(|slot| {
            let mut acc: Option<P::Ciphertext> = None;
            for &idx in slot {
                acc = Some(match acc {
                    None => products[idx].clone(),
                    Some(prev) => pk.add(&prev, &products[idx]),
                });
            }
            let r_j = field.random(rng);
            server_r.push(r_j);
            let offset = pk.encrypt(&blinded_offset(p, r_j, rng), rng);
            let total = match acc {
                None => offset,
                Some(a) => pk.add(&a, &offset),
            };
            pk.ciphertext_to_bytes(&total)
        })
        .collect();

    drop(_se);

    // Batched SPIR over the masked database (same round as the evals).
    let (retrieved, _) = batched::run(t, group, pk, sk, &masked, indices, rng)?;
    let evals: Vec<Vec<u8>> = t.server_to_client(0, "sel2v1-evals", &evals)?;
    if evals.len() != retrieved.len() {
        return Err(ProtocolError::InvalidMessage {
            label: "sel2v1-evals",
            reason: "wrong number of evaluations",
        });
    }

    // Client: d_j = (P_s(i_j) − r_j) mod p; b_j = x'_{i_j} − d_j.
    let _s = spfe_obs::span("reconstruct");
    let client_shares: Vec<u64> = retrieved
        .iter()
        .zip(&evals)
        .map(|(&xp, ct)| {
            let v = sk.decrypt(&pk.ciphertext_from_bytes(ct).ok_or(
                ProtocolError::InvalidMessage {
                    label: "sel2v1-evals",
                    reason: "malformed evaluation ciphertext",
                },
            )?);
            let d_j = v.rem(&Nat::from(p)).to_u64().expect("fits");
            Ok(field.sub(xp, d_j))
        })
        .collect::<Result<_, ProtocolError>>()?;
    // Server: a_j = −r_j.
    let server_shares: Vec<u64> = server_r.iter().map(|&r| field.neg(r)).collect();

    Ok(SharesModP {
        p,
        server: server_shares,
        client: client_shares,
    })
}

/// §3.3.2, second variant — the server opens by encrypting its `m`
/// coefficients (`κ·m` overhead, 1.5 rounds, provable security only
/// against a semi-honest client).
///
/// Here the homomorphic keys belong to the **server** (`server_pk` /
/// `server_sk`); the client-side SPIR still uses the client's keys.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Same preconditions as [`select2_v1`].
#[allow(clippy::too_many_arguments)]
pub fn select2_v2<PC, SC, PS, SS, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    client_pk: &PC,
    client_sk: &SC,
    server_pk: &PS,
    server_sk: &SS,
    db: &[u64],
    indices: &[usize],
    field: Fp64,
    rng: &mut R,
) -> Result<SharesModP, ProtocolError>
where
    PC: HomomorphicPk,
    SC: HomomorphicSk<PC>,
    PS: HomomorphicPk,
    SS: HomomorphicSk<PS>,
    R: RandomSource + ?Sized,
{
    let _proto = spfe_obs::span("select2v2");
    let p = field.modulus();
    let m = indices.len();
    assert!(m > 0);
    assert!(p > db.len() as u64, "field must exceed n");
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    check_hom_capacity(server_pk, p, m);

    // Half-round 1 (server → client): encrypted coefficients.
    let _open = spfe_obs::span("server-open");
    let s_poly = Poly::random(m.saturating_sub(1), field, rng);
    let coeff_plains: Vec<Nat> = (0..m)
        .map(|k| Nat::from(s_poly.coeffs().get(k).copied().unwrap_or(0)))
        .collect();
    let coeff_cts: Vec<Vec<u8>> = server_pk
        .encrypt_batch(&coeff_plains, rng)
        .iter()
        .map(|ct| server_pk.ciphertext_to_bytes(ct))
        .collect();
    let coeff_cts: Vec<Vec<u8>> = t.server_to_client(0, "sel2v2-coeffs", &coeff_cts)?;
    if coeff_cts.len() != m {
        return Err(ProtocolError::InvalidMessage {
            label: "sel2v2-coeffs",
            reason: "wrong number of coefficient ciphertexts",
        });
    }
    let masked: Vec<u64> = db
        .iter()
        .enumerate()
        .map(|(i, &x)| field.add(x, s_poly.eval(i as u64)))
        .collect();
    drop(_open);

    // Client: E(P_s(i_j) − r_j) as a known linear combination of the
    // encrypted coefficients.
    let _qg = spfe_obs::span("query-gen");
    let mut client_r = Vec::with_capacity(m);
    let blinded: Vec<Vec<u8>> = indices
        .iter()
        .map(|&i| {
            let i_f = field.from_u64(i as u64);
            let mut acc: Option<PS::Ciphertext> = None;
            for (k, ct_bytes) in coeff_cts.iter().enumerate() {
                let c_k = field.pow(i_f, k as u64);
                if c_k == 0 {
                    continue;
                }
                let ct = server_pk.ciphertext_from_bytes(ct_bytes).ok_or(
                    ProtocolError::InvalidMessage {
                        label: "sel2v2-coeffs",
                        reason: "malformed coefficient ciphertext",
                    },
                )?;
                let term = server_pk.mul_const(&ct, &Nat::from(c_k));
                acc = Some(match acc {
                    None => term,
                    Some(prev) => server_pk.add(&prev, &term),
                });
            }
            let r_j = field.random(rng);
            client_r.push(r_j);
            let offset = server_pk.encrypt(&blinded_offset(p, r_j, rng), rng);
            let total = match acc {
                None => offset,
                Some(a) => server_pk.add(&a, &offset),
            };
            Ok(server_pk.ciphertext_to_bytes(&total))
        })
        .collect::<Result<_, ProtocolError>>()?;
    let blinded: Vec<Vec<u8>> = t.client_to_server(0, "sel2v2-blinded", &blinded)?;
    if blinded.len() != m {
        return Err(ProtocolError::InvalidMessage {
            label: "sel2v2-blinded",
            reason: "wrong number of blinded evaluations",
        });
    }
    drop(_qg);

    // Batched SPIR over the masked database (client query + server answer).
    let (retrieved, _) = batched::run(t, group, client_pk, client_sk, &masked, indices, rng)?;

    // Server: decrypts its share component g_j = (P_s(i_j) − r_j) mod p.
    let _s = spfe_obs::span("reconstruct");
    let server_shares: Vec<u64> = blinded
        .iter()
        .map(|ct| {
            let v = server_sk.decrypt(&server_pk.ciphertext_from_bytes(ct).ok_or(
                ProtocolError::InvalidMessage {
                    label: "sel2v2-blinded",
                    reason: "malformed blinded ciphertext",
                },
            )?);
            let g_j = v.rem(&Nat::from(p)).to_u64().expect("fits");
            Ok(field.neg(g_j)) // a_j = −c_j
        })
        .collect::<Result<_, ProtocolError>>()?;
    // Client: b_j = x'_{i_j} − d_j where d_j = r_j.
    let client_shares: Vec<u64> = retrieved
        .iter()
        .zip(&client_r)
        .map(|(&xp, &r)| field.sub(xp, r))
        .collect();

    Ok(SharesModP {
        p,
        server: server_shares,
        client: client_shares,
    })
}

/// §3.3.3 — retrieval from the encrypted database: one batched
/// `SPIR(n, m, κ)` over `E_s(x_i)` plus a single unblinding message.
///
/// The server's homomorphic key pair plays the paper's role of `E`; the
/// client's SPIR keys are separate. Produces exact integer shares
/// (statistically blinded), which compose with any MPC ring.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if an index is out of range or `value_bits` cannot hold some
/// database value (local setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn select3<PC, SC, PS, SS, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    client_pk: &PC,
    client_sk: &SC,
    server_pk: &PS,
    server_sk: &SS,
    db: &[u64],
    indices: &[usize],
    value_bits: usize,
    rng: &mut R,
) -> Result<IntShares, ProtocolError>
where
    PC: HomomorphicPk,
    SC: HomomorphicSk<PC>,
    PS: HomomorphicPk,
    SS: HomomorphicSk<PS>,
    R: RandomSource + ?Sized,
{
    let m = indices.len();
    assert!(m > 0);
    assert!(
        db.iter().all(|&v| v < (1u64 << value_bits.min(63))),
        "db value exceeds value_bits"
    );
    // Blinding must not wrap the server's plaintext space.
    assert!(
        value_bits + STAT_SECURITY_BITS + 2 < server_pk.plaintext_modulus().bit_len(),
        "server plaintext modulus too small"
    );

    let _proto = spfe_obs::span("select3");

    // Setup (uncounted, like key certification): the encrypted database —
    // n public-key operations, batched onto the worker pool.
    let _setup = spfe_obs::span("setup-encrypt-db");
    let plains: Vec<Nat> = db.iter().map(|&x| Nat::from(x)).collect();
    let enc_db: Vec<Vec<u64>> = server_pk
        .encrypt_batch(&plains, rng)
        .iter()
        .map(|ct| words::bytes_to_words(&server_pk.ciphertext_to_bytes(ct)))
        .collect();
    drop(_setup);

    // Round 1: batched SPIR(n, m, κ) for the encrypted items.
    let (retrieved, _) = batched::run_words(t, group, client_pk, client_sk, &enc_db, indices, rng)?;

    // Round 2 (client → server): E_s(x + R_j), rerandomized.
    let _unblind = spfe_obs::span("unblind");
    let ct_len = server_pk.ciphertext_bytes();
    let mut masks = Vec::with_capacity(m);
    let blinded: Vec<Vec<u8>> = retrieved
        .iter()
        .map(|words_vec| {
            let ct = server_pk
                .ciphertext_from_bytes(&words::words_to_bytes(words_vec, ct_len))
                .ok_or(ProtocolError::InvalidMessage {
                    label: "batched-answers",
                    reason: "retrieved item is not a ciphertext",
                })?;
            let r = Nat::random_bits(rng, value_bits + STAT_SECURITY_BITS);
            let sum = server_pk.add(&ct, &server_pk.encrypt(&r, rng));
            masks.push(r);
            Ok(server_pk.ciphertext_to_bytes(&server_pk.rerandomize(&sum, rng)))
        })
        .collect::<Result<_, ProtocolError>>()?;
    let blinded: Vec<Vec<u8>> = t.client_to_server(0, "sel3-blinded", &blinded)?;

    // Server: decrypts S_j = x_{i_j} + R_j (exact integer).
    let server_shares: Vec<Nat> = blinded
        .iter()
        .map(|ct| {
            Ok(
                server_sk.decrypt(&server_pk.ciphertext_from_bytes(ct).ok_or(
                    ProtocolError::InvalidMessage {
                        label: "sel3-blinded",
                        reason: "malformed blinded ciphertext",
                    },
                )?),
            )
        })
        .collect::<Result<_, ProtocolError>>()?;

    Ok(IntShares {
        server: server_shares,
        client_masks: masks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn crypto() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x1337);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        (group, pk, sk, rng)
    }

    fn db(n: usize, p: u64) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 97 + 13) % p.min(1000)).collect()
    }

    #[test]
    fn select1_shares_reconstruct() {
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(65_537).unwrap();
        let database = db(20, field.modulus());
        let indices = [0usize, 7, 19, 7];
        let mut t = Transcript::new(1);
        let shares = select1(
            &mut t, &group, &pk, &sk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        let expect: Vec<u64> = indices.iter().map(|&i| database[i]).collect();
        assert_eq!(shares.reconstruct(), expect);
        assert_eq!(t.report().half_rounds, 2, "one round");
    }

    #[test]
    fn select1_shares_are_individually_uniformish() {
        // Server-side shares are fresh uniform field elements: over runs,
        // the share of a fixed item varies.
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(101).unwrap();
        let database = db(10, 101);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let mut t = Transcript::new(1);
            let shares =
                select1(&mut t, &group, &pk, &sk, &database, &[3], field, &mut rng).unwrap();
            seen.insert(shares.server[0]);
        }
        assert!(seen.len() > 5, "server shares should vary");
    }

    #[test]
    fn select2_v1_shares_reconstruct() {
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(65_537).unwrap();
        let database = db(30, field.modulus());
        let indices = [2usize, 11, 29];
        let mut t = Transcript::new(1);
        let shares = select2_v1(
            &mut t, &group, &pk, &sk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        let expect: Vec<u64> = indices.iter().map(|&i| database[i]).collect();
        assert_eq!(shares.reconstruct(), expect);
        assert_eq!(t.report().half_rounds, 2, "variant 1 is one round");
    }

    #[test]
    fn select2_v2_shares_reconstruct() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let field = Fp64::new(65_537).unwrap();
        let database = db(25, field.modulus());
        let indices = [0usize, 12, 24];
        let mut t = Transcript::new(1);
        let shares = select2_v2(
            &mut t, &group, &pk, &sk, &spk, &ssk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        let expect: Vec<u64> = indices.iter().map(|&i| database[i]).collect();
        assert_eq!(shares.reconstruct(), expect);
        assert_eq!(t.report().half_rounds, 3, "variant 2 is 1.5 rounds");
    }

    #[test]
    fn select2_variants_communication_tradeoff() {
        // v1 carries m² encrypted powers; v2 only 2m ciphertexts — the κm²
        // vs κm column of Table 1.
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let field = Fp64::new(65_537).unwrap();
        let database = db(64, field.modulus());
        let indices: Vec<usize> = (0..8).map(|j| j * 7).collect();
        let mut t1 = Transcript::new(1);
        select2_v1(
            &mut t1, &group, &pk, &sk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        let mut t2 = Transcript::new(1);
        select2_v2(
            &mut t2, &group, &pk, &sk, &spk, &ssk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        let v1_overhead = t1.bytes_for_label("sel2v1-powers");
        let v2_overhead =
            t2.bytes_for_label("sel2v2-coeffs") + t2.bytes_for_label("sel2v2-blinded");
        assert!(
            v1_overhead > 3 * v2_overhead,
            "m² vs m: v1={v1_overhead} v2={v2_overhead}"
        );
    }

    #[test]
    fn select3_integer_shares_reconstruct() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database: Vec<u64> = (0..18u64).map(|i| i * 13 + 1).collect();
        let indices = [4usize, 0, 17];
        let mut t = Transcript::new(1);
        let shares = select3(
            &mut t, &group, &pk, &sk, &spk, &ssk, &database, &indices, 16, &mut rng,
        )
        .unwrap();
        let got = shares.reconstruct();
        for (g, &i) in got.iter().zip(&indices) {
            assert_eq!(*g, Nat::from(database[i]));
        }
    }

    #[test]
    fn select3_server_sees_only_blinded_values() {
        // The server's decrypted S_j = x + R_j with R_j ≫ x: S_j alone is
        // statistically independent of x.
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = vec![1u64, 2, 3, 4];
        let mut t = Transcript::new(1);
        let shares = select3(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &[2],
            8,
            &mut rng,
        )
        .unwrap();
        // The mask has full entropy width.
        assert!(shares.server[0].bit_len() > 8, "share must be blinded");
    }

    #[test]
    fn select1_oracle_real_and_ideal_agree() {
        use spfe_pir::{HomSpir, IdealSpir, SpirOracle};
        let field = Fp64::new(257).unwrap();
        let database: Vec<u64> = (0..30u64).map(|i| i * 7 % 257).collect();
        let indices = [1usize, 15, 29];
        let mut rng = ChaChaRng::from_u64_seed(0x0E);
        let oracles: Vec<Box<dyn SpirOracle>> = vec![
            Box::new(HomSpir::new(3, 128)),
            Box::new(IdealSpir::default()),
        ];
        for oracle in &oracles {
            let mut t = Transcript::new(1);
            let shares = select1_with_oracle(
                &mut t,
                oracle.as_ref(),
                &database,
                &indices,
                field,
                &mut rng,
            )
            .unwrap();
            let expect: Vec<u64> = indices.iter().map(|&i| database[i]).collect();
            assert_eq!(shares.reconstruct(), expect, "{}", oracle.name());
        }
    }

    #[test]
    #[should_panic(expected = "db value exceeds field")]
    fn select1_value_range_checked() {
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(101).unwrap();
        let database = vec![500u64];
        let mut t = Transcript::new(1);
        let _ = select1(&mut t, &group, &pk, &sk, &database, &[0], field, &mut rng);
    }
}
