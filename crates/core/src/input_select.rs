//! §3.3 — the input-selection phase: obtaining additive secret shares of
//! the `m` selected items without revealing anything to either party.
//!
//! Three protocols, one per subsection:
//!
//! * [`select1`] (§3.3.1): `m` independent `SPIR(n,1,ℓ)` calls against
//!   per-slot shifted virtual databases `v_i = x_i − a_j`, written once as
//!   sans-io cores ([`Select1ClientCore`], [`Select1ServerCore`]) that the
//!   two-phase drivers sequence with their second phase;
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
use spfe_pir::spir::{self, SpirAnswer, SpirClientState, SpirParams, SpirQuery};
use spfe_pir::{batched, words};
use spfe_transport::{
    pump, AnswerOnce, Channel, ChannelExt, ClientCore, OneRound, OutMsg, ProtocolError,
    SessionCore, SessionState, Then, Wire,
};
use std::borrow::Cow;

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

/// §3.3.1 — `m` independent single-item SPIRs against shifted databases:
/// [`pump`] over a [`Select1ClientCore`] and a [`Select1ServerCore`],
/// which borrows `db` and `rng`; the shares are read off both cores.
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
    let params = SpirParams::new(group.clone(), db.len());
    let m = indices.len();
    let mut client =
        Select1ClientCore::new(params.clone(), pk.clone(), sk.clone(), field, indices, rng);
    let server = Select1ServerCore::new(params, pk.clone(), field, m, db, rng);
    let mut servers = [Box::new(server)];
    pump(t, &mut client, &mut servers)?;
    let [server] = servers;
    Ok(SharesModP {
        p: field.modulus(),
        server: server.into_parts().0,
        client: client.into_shares().unwrap_or_default(),
    })
}

/// The server half of [`select1`] as a sans-io machine. On the `m` SPIR
/// queries it draws, per slot, a share `a_j` and the SPIR pads, and
/// answers against the shifted database `v_i = x_i − a_j`. A shifted cell
/// is stored in `1..=p` (0 as `p`): the PIR scan skips zero cells, so a
/// zero would make its cost depend on `a_j`.
#[derive(Debug)]
pub struct Select1ServerCore<'a, P: HomomorphicPk, G> {
    once: AnswerOnce,
    params: SpirParams,
    pk: P,
    field: Fp64,
    m: usize,
    db: Cow<'a, [u64]>,
    rng: G,
    shares: Vec<u64>,
}

impl<'a, P: HomomorphicPk, G: RandomSource> Select1ServerCore<'a, P, G> {
    /// A core holding (or borrowing) `db` of `params.n` items, serving
    /// selections of exactly `m` items.
    ///
    /// # Panics
    ///
    /// Panics if `db` does not have `params.n` items or a value is not
    /// below `p`.
    pub fn new(
        params: SpirParams,
        pk: P,
        field: Fp64,
        m: usize,
        db: impl Into<Cow<'a, [u64]>>,
        rng: G,
    ) -> Self {
        let db = db.into();
        assert_eq!(db.len(), params.n, "db size mismatch");
        assert!(
            db.iter().all(|&v| v < field.modulus()),
            "db value exceeds field"
        );
        Select1ServerCore {
            once: AnswerOnce::new(0, "sel1-queries", "sel1-answers"),
            params,
            pk,
            field,
            m,
            db,
            rng,
            shares: Vec::new(),
        }
    }

    /// The server's shares `a_j` (empty before the queries arrive) and
    /// its rng, for the phase that runs on the shares.
    pub fn into_parts(self) -> (Vec<u64>, G) {
        (self.shares, self.rng)
    }
}

impl<P: HomomorphicPk, G: RandomSource> SessionCore for Select1ServerCore<'_, P, G> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let queries = Vec::<SpirQuery>::from_bytes(payload)?;
            if queries.len() != self.m {
                return Err(ProtocolError::InvalidMessage {
                    label: "sel1-queries",
                    reason: "query count does not match the selection size",
                });
            }
            let _s = spfe_obs::span("server-scan");
            let (field, p) = (self.field, self.field.modulus());
            let answers: Vec<SpirAnswer> = queries
                .iter()
                .map(|q| {
                    let a_j = field.random(&mut self.rng);
                    self.shares.push(a_j);
                    let vdb: Vec<u64> = self
                        .db
                        .iter()
                        .map(|&x| match field.sub(x, a_j) {
                            0 => p,
                            v => v,
                        })
                        .collect();
                    spir::server_answer(&self.params, &self.pk, &vdb, q, &mut self.rng)
                })
                .collect::<Result<_, _>>()?;
            Ok(answers.to_bytes())
        })
    }
}

/// The client half of [`select1`]: one SPIR query per selected index,
/// drawn at construction; on the answers, its shares `b_j`, each
/// retrieved cell reduced mod `p`.
#[derive(Debug)]
pub struct Select1ClientCore<P: HomomorphicPk, S: HomomorphicSk<P>> {
    params: SpirParams,
    pk: P,
    sk: S,
    p: u64,
    states: Vec<SpirClientState>,
    round: OneRound<Vec<SpirQuery>, Vec<SpirAnswer>>,
    shares: Option<Vec<u64>>,
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> Select1ClientCore<P, S> {
    /// A client core selecting the items at `indices` of a `params.n`-item
    /// database into shares mod `field`'s `p`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn new<R: RandomSource + ?Sized>(
        params: SpirParams,
        pk: P,
        sk: S,
        field: Fp64,
        indices: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(indices.iter().all(|&i| i < params.n), "index out of range");
        let _s = spfe_obs::span("query-gen");
        let (queries, states) = indices
            .iter()
            .map(|&i| spir::client_query(&params, &pk, &sk, i, rng))
            .unzip();
        Select1ClientCore {
            params,
            pk,
            sk,
            p: field.modulus(),
            states,
            round: OneRound::new("sel1-queries", "sel1-answers", vec![queries]),
            shares: None,
        }
    }

    /// The client's shares `b_j`, once the answers are decoded.
    pub fn into_shares(self) -> Option<Vec<u64>> {
        self.shares
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> SessionCore for Select1ClientCore<P, S> {
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
        let answers = replies.remove(0);
        if answers.len() != self.states.len() {
            return Err(ProtocolError::InvalidMessage {
                label: "sel1-answers",
                reason: "wrong number of answers",
            });
        }
        let _s = spfe_obs::span("reconstruct");
        let shares = self
            .states
            .iter()
            .zip(&answers)
            .map(|(st, a)| {
                Ok(spir::client_decode(&self.params, &self.pk, &self.sk, st, a)? % self.p)
            })
            .collect::<Result<_, ProtocolError>>()?;
        self.shares = Some(shares);
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ClientCore for Select1ClientCore<P, S> {
    /// The wrapping sum of the client's shares: alone, a uniformly random
    /// value, since each share is masked by the server's `a_j`.
    fn digest(&self) -> Option<u64> {
        let shares = self.shares.as_ref()?;
        Some(shares.iter().fold(0u64, |a, &b| a.wrapping_add(b)))
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

/// The client of §3.3.1 followed by the §3.3 phase on the shares for the
/// linear `f = sum`, as one sequenced core: select1's queries, drawn
/// here from `rng`; then one empty `sel1-open-q` request, answered by the
/// server's `Σ a_j mod p`. The digest is `Σ b_j + Σ a_j mod p`, the sum
/// of the selected items mod `p`. The opening reveals only that sum: the
/// individual `a_j`, and so the items, stay masked.
///
/// # Panics
///
/// Panics if an index is out of range.
#[allow(clippy::type_complexity)]
pub fn select1_sum_client<P, S, R>(
    params: SpirParams,
    pk: P,
    sk: S,
    field: Fp64,
    indices: &[usize],
    rng: &mut R,
) -> Then<
    Select1ClientCore<P, S>,
    SumOpenClientCore,
    impl FnOnce(Select1ClientCore<P, S>) -> Result<SumOpenClientCore, ProtocolError>,
>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let phase = spfe_obs::span("select1");
    let select = Select1ClientCore::new(params, pk, sk, field, indices, rng);
    Then::new(select, move |select| {
        let shares = select.into_shares().unwrap_or_default();
        Ok(SumOpenClientCore::new(field, &shares))
    })
    .in_spans(phase, "open-sum")
}

/// The server of §3.3.1 followed by the opening of its shares' sum, as
/// one sequenced core: select1 over `db` for selections of `m` items,
/// then one `sel1-open` reply carrying `Σ a_j mod p`.
///
/// # Panics
///
/// As [`Select1ServerCore::new`].
pub fn select1_sum_server<'a, P, G>(
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
    let select = Select1ServerCore::new(params, pk, field, m, db, rng);
    Then::new(select, move |select| {
        let (shares, _) = select.into_parts();
        Ok(SumOpenServerCore {
            once: AnswerOnce::new(0, "sel1-open-q", "sel1-open"),
            sum: shares.iter().fold(0, |acc, &a| field.add(acc, a)),
        })
    })
}

/// The server half of the opening: answers one empty `sel1-open-q`
/// request with `Σ a_j mod p`.
#[derive(Debug)]
pub struct SumOpenServerCore {
    once: AnswerOnce,
    sum: u64,
}

impl SessionCore for SumOpenServerCore {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            if !payload.is_empty() {
                return Err(ProtocolError::InvalidMessage {
                    label: "sel1-open-q",
                    reason: "the opening request carries no payload",
                });
            }
            let _s = spfe_obs::span("server-eval");
            Ok(self.sum.to_bytes())
        })
    }
}

/// The client half of the opening: sends the empty request, then adds
/// the server's `Σ a_j` to its own `Σ b_j`.
#[derive(Debug)]
pub struct SumOpenClientCore {
    field: Fp64,
    own: u64,
    round: OneRound<[u8; 0], u64>,
    sum: Option<u64>,
}

impl SumOpenClientCore {
    fn new(field: Fp64, shares: &[u64]) -> Self {
        let _s = spfe_obs::span("query-gen");
        SumOpenClientCore {
            field,
            own: shares.iter().fold(0, |acc, &b| field.add(acc, b)),
            round: OneRound::new("sel1-open-q", "sel1-open", vec![[]]),
            sum: None,
        }
    }
}

impl SessionCore for SumOpenClientCore {
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
        let Some(replies) = self.round.receive(server, label, payload)? else {
            return Ok((SessionState::Running, Vec::new()));
        };
        let _s = spfe_obs::span("reconstruct");
        let theirs = replies[0] % self.field.modulus();
        self.sum = Some(self.field.add(self.own, theirs));
        Ok((SessionState::Done, Vec::new()))
    }
}

impl ClientCore for SumOpenClientCore {
    /// The sum of the selected items mod `p`.
    fn digest(&self) -> Option<u64> {
        self.sum
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

/// Asserts the no-overflow precondition of a homomorphic reply that sums
/// `m` products of two field elements and adds a blind `p·R` with
/// `R ≤ 2^{σ+1}` (§3.3.2's server step, §4's weighted-sum functional and
/// frequency comparisons): `m·p² + p·2^{σ+1}` must stay below the
/// plaintext modulus, so the decrypted integer reduced mod `p` is exact.
pub(crate) fn check_hom_capacity<P: HomomorphicPk>(pk: &P, p: u64, m: usize) {
    let bound = Nat::from(p)
        .square()
        .mul_u64(m as u64)
        .add(&Nat::from(p).shl(STAT_SECURITY_BITS + 1));
    assert!(
        &bound < pk.plaintext_modulus(),
        "plaintext modulus too small for field {p} and m={m}"
    );
}

/// Item `x` at index `i` masked by `P_s(i)`, stored in `1..=p` (0 as
/// `p`): the PIR scan skips zero cells, so a zero would make its cost
/// depend on the mask. The client reduces what it retrieves mod `p`.
fn masked_cell(field: Fp64, x: u64, s_poly: &Poly, i: usize) -> u64 {
    match field.add(x, s_poly.eval(i as u64)) {
        0 => field.modulus(),
        v => v,
    }
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
    let powers: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, &power_plains, rng)
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
            masked_cell(field, x, &s_poly, i)
        });

    // Homomorphic evaluation: E(P_s(i_j) − r_j) with integer-safe blinding.
    // Every coefficient is multiplied, zero or not, so the op counts do
    // not depend on P_s (and every power ciphertext is validated). The m²
    // scalar products are rng-free — one batch for the worker pool — then
    // the blinding is drawn serially per slot.
    let prod_cts = powers
        .iter()
        .map(|ct| {
            pk.ciphertext_from_bytes(ct)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "sel2v1-powers",
                    reason: "malformed power ciphertext",
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let prod_consts: Vec<Nat> = (0..m * m)
        .map(|jk| Nat::from(s_poly.coeffs().get(jk % m).copied().unwrap_or(0)))
        .collect();
    let products = pk.scalar_mul_batch(&prod_cts, &prod_consts);
    let mut server_r = Vec::with_capacity(m);
    let evals: Vec<Vec<u8>> = products
        .chunks(m)
        .map(|slot| {
            let r_j = field.random(rng);
            server_r.push(r_j);
            let offset = pk.encrypt(&blinded_offset(p, r_j, rng), rng);
            let total = slot.iter().fold(offset, |acc, term| pk.add(&acc, term));
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
    let evals = evals
        .iter()
        .map(|ct| {
            pk.ciphertext_from_bytes(ct)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "sel2v1-evals",
                    reason: "malformed evaluation ciphertext",
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let client_shares: Vec<u64> = retrieved
        .iter()
        .zip(sk.decrypt_batch(&evals))
        .map(|(&xp, v)| field.sub(xp % p, v.rem(&Nat::from(p)).to_u64().expect("fits")))
        .collect();
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
    let coeff_cts: Vec<Vec<u8>> = server_sk
        .encrypt_batch(server_pk, &coeff_plains, rng)
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
        .map(|(i, &x)| masked_cell(field, x, &s_poly, i))
        .collect();
    drop(_open);

    // Client: E(P_s(i_j) − r_j) as a known linear combination of the
    // encrypted coefficients. Every power is multiplied, zero or not, so
    // the op counts do not depend on the indices.
    let _qg = spfe_obs::span("query-gen");
    let coeff_cts = coeff_cts
        .iter()
        .map(|ct| {
            server_pk
                .ciphertext_from_bytes(ct)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "sel2v2-coeffs",
                    reason: "malformed coefficient ciphertext",
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut client_r = Vec::with_capacity(m);
    let blinded: Vec<Vec<u8>> = indices
        .iter()
        .map(|&i| {
            let i_f = field.from_u64(i as u64);
            let r_j = field.random(rng);
            client_r.push(r_j);
            let offset = server_pk.encrypt(&blinded_offset(p, r_j, rng), rng);
            let total = coeff_cts.iter().enumerate().fold(offset, |acc, (k, ct)| {
                let c_k = field.pow(i_f, k as u64);
                server_pk.add(&acc, &server_pk.mul_const(ct, &Nat::from(c_k)))
            });
            server_pk.ciphertext_to_bytes(&total)
        })
        .collect();
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
        .map(|(&xp, &r)| field.sub(xp % p, r))
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
    let enc_db: Vec<Vec<u64>> = server_sk
        .encrypt_batch(server_pk, &plains, rng)
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
    fn sum_opening_answers_one_empty_request_once() {
        let mut server = SumOpenServerCore {
            once: AnswerOnce::new(0, "sel1-open-q", "sel1-open"),
            sum: 5,
        };
        assert_eq!(
            server.on_message(3, 0, "sel1-open-q", &[0]),
            Err(ProtocolError::InvalidMessage {
                label: "sel1-open-q",
                reason: "the opening request carries no payload",
            })
        );
        let (state, replies) = server.on_message(3, 0, "sel1-open-q", &[]).unwrap();
        assert_eq!(state, SessionState::Done);
        assert_eq!(replies[0].payload, 5u64.to_bytes());
        assert_eq!(
            server.on_message(5, 0, "sel1-open-q", &[]),
            Err(ProtocolError::InvalidMessage {
                label: "sel1-open-q",
                reason: "unexpected message for a one-round server",
            })
        );
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
    #[should_panic(expected = "db value exceeds field")]
    fn select1_value_range_checked() {
        let (group, pk, sk, mut rng) = crypto();
        let field = Fp64::new(101).unwrap();
        let database = vec![500u64];
        let mut t = Transcript::new(1);
        let _ = select1(&mut t, &group, &pk, &sk, &database, &[0], field, &mut rng);
    }
}
