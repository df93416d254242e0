//! §3.1 — the multi-server SPFE protocol from multivariate polynomial
//! evaluation (Lemma 1, Theorem 2).
//!
//! The function `f` is expressed as a polynomial `P` over `F` in the bits
//! of the `m` selected indices (degree ≤ `ℓ·s`, see
//! [`spfe_circuits::formula`]). The client routes its encoded indices
//! through random degree-`t` curves and sends each server one curve point;
//! each server replies with a *single field element* — `P` evaluated at its
//! point (plus the shared blinding `R(α_h)`, `R(0)=0`, for symmetric
//! privacy \[25\]); the client interpolates the degree-`deg(P)·t` univariate
//! polynomial at 0. Server count: `k = deg(P)·t + 1`
//! (`= t·s·log₂ n + 1` for a size-`s` formula — Theorem 2).
//!
//! The tiny per-server replies are the protocol's signature feature: the
//! same query can be answered against several databases (e.g. `x` and the
//! squared `x'` for average+variance, §4) at one extra field element each.
//!
//! The basic protocol is written once, as sans-io cores (DESIGN.md §15):
//! [`run`] pumps [`MsClientCore`] against [`server_cores`] in process, and
//! the networked server hosts the same server cores. The robust and
//! multi-database variants ([`run_robust`], [`run_sum_and_squares`],
//! [`run_many_databases`]) have their own answer formats and still play
//! both parties over the channel, fanning the server evaluations out on
//! the worker pool.

use spfe_circuits::formula::{
    encode_index, eval_formula_poly, index_bits, selector_evals, Formula,
};
use spfe_math::par::{par_map_cost, CostClass};
use spfe_math::{Fp64, Poly, RandomSource};
use spfe_transport::{
    pump, AnswerOnce, Channel, ChannelExt, ClientCore, OneRound, OutMsg, ProtocolError, Reader,
    SessionCore, SessionState, Wire, WireError,
};
use std::borrow::Cow;

/// The function being evaluated, in a representation the protocol can
/// arithmetize.
#[derive(Debug, Clone)]
pub enum MsFunction {
    /// A Boolean formula over `m` single-bit arguments (database must be
    /// 0/1-valued). Polynomial degree `ℓ·s`.
    Formula(Formula),
    /// The sum of `m` field-valued items — degree-1 representation per
    /// slot, so `deg(P) = ℓ` (`s = 1`, the remark after Theorem 2).
    Sum {
        /// Number of selected items.
        m: usize,
    },
}

impl MsFunction {
    /// Number of argument slots `m`.
    pub fn arity(&self) -> usize {
        match self {
            MsFunction::Formula(phi) => phi.arity(),
            MsFunction::Sum { m } => *m,
        }
    }

    /// The paper's formula-size parameter `s`.
    pub fn size(&self) -> usize {
        match self {
            MsFunction::Formula(phi) => phi.size(),
            MsFunction::Sum { .. } => 1,
        }
    }

    /// Total degree of the multivariate polynomial `P` for `ℓ` index bits.
    pub fn poly_degree(&self, ell: usize) -> usize {
        match self {
            MsFunction::Formula(phi) => phi.degree_bound(ell),
            MsFunction::Sum { .. } => ell,
        }
    }

    /// Implicit evaluation of `P` at one field point per slot.
    pub fn eval_at_points(&self, db: &[u64], slot_points: &[Vec<u64>], field: Fp64) -> u64 {
        match self {
            MsFunction::Formula(phi) => eval_formula_poly(phi, db, slot_points, field),
            MsFunction::Sum { m } => {
                assert!(slot_points.len() >= *m);
                selector_evals(db, &slot_points[..*m], field)
                    .into_iter()
                    .fold(0, |acc, v| field.add(acc, v))
            }
        }
    }

    /// Clear-text evaluation on concrete indices (ground truth).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidDatabase`] if a formula is evaluated over a
    /// database that is not 0/1-valued.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range (the caller's own input).
    pub fn eval_clear(
        &self,
        db: &[u64],
        indices: &[usize],
        field: Fp64,
    ) -> Result<u64, ProtocolError> {
        match self {
            MsFunction::Formula(phi) => {
                let args: Vec<bool> = indices
                    .iter()
                    .map(|&i| match db[i] {
                        0 => Ok(false),
                        1 => Ok(true),
                        _ => Err(ProtocolError::InvalidDatabase(
                            "formula SPFE needs a Boolean database",
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(phi.evaluate(&args) as u64)
            }
            MsFunction::Sum { m } => {
                assert!(indices.len() >= *m);
                Ok(indices[..*m]
                    .iter()
                    .fold(0u64, |acc, &i| field.add(acc, field.from_u64(db[i]))))
            }
        }
    }
}

/// Protocol parameters shared by client and servers.
#[derive(Debug, Clone)]
pub struct MultiServerParams {
    /// Privacy threshold `t` (colluding servers tolerated).
    pub t: usize,
    /// Index bits `ℓ = ⌈log₂ n⌉`.
    pub ell: usize,
    /// The field `F` (`|F| > k` and larger than any function value).
    pub field: Fp64,
    /// The function.
    pub function: MsFunction,
}

impl MultiServerParams {
    /// Builds parameters for a database of `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `n == 0`, or the field is smaller than the
    /// required number of evaluation points.
    pub fn new(n: usize, t: usize, field: Fp64, function: MsFunction) -> Self {
        assert!(t >= 1 && n >= 1);
        let ell = index_bits(n);
        let params = MultiServerParams {
            t,
            ell,
            field,
            function,
        };
        assert!(
            (params.num_servers() as u64) < field.modulus(),
            "field too small for {} servers",
            params.num_servers()
        );
        params
    }

    /// Theorem 2's server count: `k = deg(P)·t + 1`.
    pub fn num_servers(&self) -> usize {
        self.function.poly_degree(self.ell) * self.t + 1
    }

    /// Evaluation point of server `h`.
    pub fn alpha(&self, h: usize) -> u64 {
        h as u64 + 1
    }
}

/// Query to one server: one curve point per (slot, index-bit) coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsQuery {
    /// `m` blocks of `ℓ` field elements.
    pub slot_points: Vec<Vec<u64>>,
}

impl Wire for MsQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot_points.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MsQuery {
            slot_points: Vec::<Vec<u64>>::decode(r)?,
        })
    }
}

/// Client: builds the per-server queries for its indices.
///
/// # Panics
///
/// Panics if the index count mismatches the function arity or an index
/// does not fit in `ℓ` bits.
pub fn client_queries<R: RandomSource + ?Sized>(
    params: &MultiServerParams,
    indices: &[usize],
    rng: &mut R,
) -> Vec<MsQuery> {
    let m = params.function.arity();
    assert_eq!(indices.len(), m, "index count must match arity");
    // One random degree-t curve per coordinate of each encoded index.
    let curves: Vec<Vec<Poly>> = indices
        .iter()
        .map(|&i| {
            assert!(i < 1usize << params.ell, "index out of range");
            encode_index(i, params.ell)
                .into_iter()
                .map(|bit| Poly::random_with_constant(bit, params.t, params.field, rng))
                .collect()
        })
        .collect();
    eval_curves_at_servers(params, &curves, params.num_servers())
}

/// Evaluates every coordinate curve at each server's point — rng-free, so
/// the per-server work may shard across the worker pool (ordered by `h`).
/// One item is `m·ℓ` degree-`t` evaluations, about a microsecond: `Light`,
/// since waking the pool would cost more than the work.
fn eval_curves_at_servers(
    params: &MultiServerParams,
    curves: &[Vec<Poly>],
    k: usize,
) -> Vec<MsQuery> {
    let hs: Vec<usize> = (0..k).collect();
    par_map_cost(CostClass::Light, &hs, |&h| {
        let tau = params.alpha(h);
        MsQuery {
            slot_points: curves
                .iter()
                .map(|slot| slot.iter().map(|c| c.eval(tau)).collect())
                .collect(),
        }
    })
}

/// Server `h`: evaluates `P` at the received point, optionally adding the
/// shared blinding polynomial for symmetric privacy.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) query does
/// not carry exactly one `ℓ`-element curve-point block per function slot.
pub fn server_answer(
    params: &MultiServerParams,
    db: &[u64],
    query: &MsQuery,
    blind: Option<(&Poly, usize)>,
) -> Result<u64, ProtocolError> {
    if query.slot_points.len() != params.function.arity()
        || query.slot_points.iter().any(|b| b.len() != params.ell)
    {
        return Err(ProtocolError::InvalidMessage {
            label: "ms-query",
            reason: "curve-point blocks do not match the function shape",
        });
    }
    // Every server evaluation touches the full database once.
    spfe_obs::count(spfe_obs::Op::PirWordsScanned, db.len() as u64);
    let raw = params
        .function
        .eval_at_points(db, &query.slot_points, params.field);
    Ok(match blind {
        None => raw,
        Some((r, h)) => params.field.add(raw, r.eval(params.alpha(h))),
    })
}

/// The shared blinding polynomial `R` (degree `deg(P)·t`, `R(0) = 0`),
/// derived from the servers' common randomness.
pub fn blinding_poly<R: RandomSource + ?Sized>(params: &MultiServerParams, rng: &mut R) -> Poly {
    Poly::random_with_constant(
        0,
        params.function.poly_degree(params.ell) * params.t,
        params.field,
        rng,
    )
}

/// Client: interpolates the `k` answers at `τ = 0`.
pub fn client_reconstruct(params: &MultiServerParams, answers: &[u64]) -> u64 {
    let k = params.num_servers();
    assert!(answers.len() >= k, "need all k answers");
    let xs: Vec<u64> = (0..k).map(|h| params.alpha(h)).collect();
    Poly::interpolate_at(&xs, &answers[..k], 0, params.field)
}

/// Fault-tolerant reconstruction (the remark after Theorem 2: "t′ malicious
/// servers can be tolerated by adding 2t′ additional servers"). Requires
/// `answers.len() ≥ deg + 2·max_faults + 1` points at `α_0 … α_{len−1}`;
/// decodes through up to `max_faults` corrupted answers via
/// Berlekamp–Welch.
///
/// # Errors
///
/// Returns `None` if more than `max_faults` answers are inconsistent.
///
/// # Panics
///
/// Panics if too few answers are supplied for the requested fault budget.
pub fn client_reconstruct_robust(
    params: &MultiServerParams,
    answers: &[u64],
    max_faults: usize,
) -> Option<u64> {
    let deg = params.function.poly_degree(params.ell) * params.t;
    let xs: Vec<u64> = (0..answers.len()).map(|h| params.alpha(h)).collect();
    let p = spfe_math::rs::berlekamp_welch(&xs, answers, deg, max_faults, params.field)?;
    Some(p.eval(0))
}

/// Post-mortem for a failed robust reconstruction: retries decoding with
/// progressively larger fault budgets to count how many answers actually
/// sit off the consensus polynomial; if no budget decodes, every answer is
/// suspect.
fn diagnose_faults(
    params: &MultiServerParams,
    answers: &[u64],
    max_faults: usize,
) -> ProtocolError {
    let deg = params.function.poly_degree(params.ell) * params.t;
    let xs: Vec<u64> = (0..answers.len()).map(|h| params.alpha(h)).collect();
    let max_budget = answers.len().saturating_sub(deg + 1) / 2;
    let observed = (max_faults + 1..=max_budget)
        .find_map(|budget| {
            spfe_math::rs::berlekamp_welch(&xs, answers, deg, budget, params.field).map(|p| {
                xs.iter()
                    .zip(answers)
                    .filter(|&(&x, &a)| p.eval(x) != a)
                    .count()
            })
        })
        .unwrap_or(answers.len());
    ProtocolError::TooManyFaulty {
        tolerated: max_faults,
        observed,
    }
}

/// Runs the protocol with `2·max_faults` extra servers and robust
/// reconstruction: up to `max_faults` servers may answer arbitrarily
/// (simulated by `corrupt`, which may tamper with any answer it is given).
///
/// # Errors
///
/// [`ProtocolError::TooManyFaulty`] with a fault diagnosis when more than
/// `max_faults` answers are inconsistent; any [`ProtocolError`] surfaced
/// by the channel.
///
/// # Panics
///
/// Panics if the channel has fewer than `k + 2·max_faults` servers.
pub fn run_robust<R, C>(
    t: &mut dyn Channel,
    params: &MultiServerParams,
    db: &[u64],
    indices: &[usize],
    max_faults: usize,
    mut corrupt: C,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    R: RandomSource + ?Sized,
    C: FnMut(usize, u64) -> u64,
{
    let k = params.num_servers() + 2 * max_faults;
    assert_eq!(t.num_servers(), k, "need k + 2t' servers");
    let _proto = spfe_obs::span("multiserver-robust");
    let m = params.function.arity();
    assert_eq!(indices.len(), m);
    // Queries for all k servers (same curves, more evaluation points).
    let curves: Vec<Vec<Poly>> = indices
        .iter()
        .map(|&i| {
            encode_index(i, params.ell)
                .into_iter()
                .map(|bit| Poly::random_with_constant(bit, params.t, params.field, rng))
                .collect()
        })
        .collect();
    let queries = eval_curves_at_servers(params, &curves, k);
    let received: Vec<MsQuery> = queries
        .iter()
        .enumerate()
        .map(|(h, q)| t.client_to_server(h, "ms-query", q))
        .collect::<Result<_, _>>()?;
    // Honest evaluation is rng-free → pool (one item = a full Ω(n)
    // server evaluation, so Heavy); corruption and metering stay serial
    // (the corruptor is FnMut and may be stateful).
    let honest: Vec<u64> = par_map_cost(CostClass::Heavy, &received, |q| {
        server_answer(params, db, q, None)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let answers: Vec<u64> = honest
        .iter()
        .enumerate()
        .map(|(h, &a)| t.server_to_client(h, "ms-answer", &corrupt(h, a)))
        .collect::<Result<_, _>>()?;
    match client_reconstruct_robust(params, &answers, max_faults) {
        Some(v) => Ok(v),
        None => Err(diagnose_faults(params, &answers, max_faults)),
    }
}

/// Runs the full 1-round protocol over a metered transcript: [`pump`]
/// over a client core and the `k` server cores, which borrow `db` and
/// answer one after another. With `shared_seed = Some(s)` the servers add
/// the \[25\]-style blinding (the client then learns *only* `f(x_I)` —
/// symmetric privacy).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if the channel's server count differs from `k`.
pub fn run<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &MultiServerParams,
    db: &[u64],
    indices: &[usize],
    shared_seed: Option<u64>,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    assert_eq!(t.num_servers(), params.num_servers(), "server count");
    let _proto = spfe_obs::span("multiserver");
    let mut client = MsClientCore::new(params.clone(), indices, rng);
    pump(t, &mut client, &mut server_cores(params, db, shared_seed))
}

/// The §4 "package": answers the *same* queries against both `x` and the
/// squared database `x'`, returning `(Σ x_i, Σ x_i²)` — two field elements
/// of extra downstream communication total.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if the function is not `Sum` or server counts mismatch.
pub fn run_sum_and_squares<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &MultiServerParams,
    db: &[u64],
    db_squared: &[u64],
    indices: &[usize],
    rng: &mut R,
) -> Result<(u64, u64), ProtocolError> {
    assert!(matches!(params.function, MsFunction::Sum { .. }));
    assert_eq!(t.num_servers(), params.num_servers());
    let _proto = spfe_obs::span("multiserver-sumsq");
    let queries = client_queries(params, indices, rng);
    let received: Vec<MsQuery> = queries
        .iter()
        .enumerate()
        .map(|(h, q)| t.client_to_server(h, "ms-query", q))
        .collect::<Result<_, _>>()?;
    let computed: Vec<(u64, u64)> = par_map_cost(CostClass::Heavy, &received, |q| {
        Ok::<_, ProtocolError>((
            server_answer(params, db, q, None)?,
            server_answer(params, db_squared, q, None)?,
        ))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let mut sum_answers = Vec::with_capacity(received.len());
    let mut sq_answers = Vec::with_capacity(received.len());
    for (h, pair) in computed.iter().enumerate() {
        let (a, b) = t.server_to_client(h, "ms-answer-pair", pair)?;
        sum_answers.push(a);
        sq_answers.push(b);
    }
    Ok((
        client_reconstruct(params, &sum_answers),
        client_reconstruct(params, &sq_answers),
    ))
}

/// §3.1's amortization claim, generalized: "this protocol can be used to
/// compute several statistics on the same data set, or the same statistic
/// over different periods of time, with little additional cost." One query
/// set is answered against every database in `dbs` (e.g. one per time
/// period, or `x` and `x'`), for one extra field element per (server,
/// database).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics on server-count mismatch or ragged database sizes.
pub fn run_many_databases<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &MultiServerParams,
    dbs: &[&[u64]],
    indices: &[usize],
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError> {
    assert!(!dbs.is_empty());
    assert!(dbs.iter().all(|d| d.len() == dbs[0].len()), "ragged dbs");
    assert_eq!(t.num_servers(), params.num_servers());
    let _proto = spfe_obs::span("multiserver-multidb");
    let queries = client_queries(params, indices, rng);
    let received: Vec<MsQuery> = queries
        .iter()
        .enumerate()
        .map(|(h, q)| t.client_to_server(h, "ms-query", q))
        .collect::<Result<_, _>>()?;
    let computed: Vec<Vec<u64>> = par_map_cost(CostClass::Heavy, &received, |q| {
        dbs.iter()
            .map(|db| server_answer(params, db, q, None))
            .collect::<Result<_, _>>()
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let mut per_db_answers: Vec<Vec<u64>> = vec![Vec::with_capacity(received.len()); dbs.len()];
    for (h, answers) in computed.iter().enumerate() {
        let answers = t.server_to_client(h, "ms-answer-multi", answers)?;
        if answers.len() != dbs.len() {
            return Err(ProtocolError::InvalidMessage {
                label: "ms-answer-multi",
                reason: "answer count does not match database count",
            });
        }
        for (d, a) in answers.into_iter().enumerate() {
            per_db_answers[d].push(a);
        }
    }
    Ok(per_db_answers
        .iter()
        .map(|answers| client_reconstruct(params, answers))
        .collect())
}

/// The `k` server cores over `db` (borrowed in process, owned when a
/// networked server hosts them), blinded from `shared_seed` if given.
pub fn server_cores<'a>(
    params: &MultiServerParams,
    db: impl Into<Cow<'a, [u64]>>,
    shared_seed: Option<u64>,
) -> Vec<Box<dyn SessionCore + Send + 'a>> {
    let db = db.into();
    (0..params.num_servers())
        .map(|h| {
            let core = MsServerCore::new(h, params.clone(), db.clone()).with_blind(shared_seed);
            Box::new(core) as Box<dyn SessionCore + Send + 'a>
        })
        .collect()
}

/// Server `h` of the Theorem 2 multi-server SPFE as a sans-io machine.
#[derive(Debug)]
pub struct MsServerCore<'a> {
    once: AnswerOnce,
    params: MultiServerParams,
    db: Cow<'a, [u64]>,
    blind: Option<Poly>,
}

impl<'a> MsServerCore<'a> {
    /// A core for server `index` holding (or borrowing) `db` under
    /// `params`.
    pub fn new(index: usize, params: MultiServerParams, db: impl Into<Cow<'a, [u64]>>) -> Self {
        MsServerCore {
            once: AnswerOnce::new(index, "ms-query", "ms-answer"),
            params,
            db: db.into(),
            blind: None,
        }
    }

    /// With `Some(seed)`, adds the servers' shared blinding polynomial,
    /// re-derived from their common random input (symmetric privacy,
    /// \[25\]); `None` leaves the core unblinded.
    #[must_use]
    pub fn with_blind(mut self, shared_seed: Option<u64>) -> Self {
        self.blind = shared_seed.map(|seed| {
            blinding_poly(
                &self.params,
                &mut spfe_crypto::ChaChaRng::from_u64_seed(seed),
            )
        });
        self
    }
}

impl SessionCore for MsServerCore<'_> {
    fn on_message(
        &mut self,
        _half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let query = MsQuery::from_bytes(payload)?;
            let _s = spfe_obs::span("server-eval");
            let blind = self.blind.as_ref().map(|r| (r, server));
            Ok(server_answer(&self.params, &self.db, &query, blind)?.to_bytes())
        })
    }
}

/// Client half of the Theorem 2 protocol: all `k` queries at start,
/// interpolation once every answer arrived.
#[derive(Debug)]
pub struct MsClientCore {
    params: MultiServerParams,
    round: OneRound<MsQuery, u64>,
    result: Option<u64>,
}

impl MsClientCore {
    /// A client core evaluating the configured function on `indices`; the
    /// random curves are drawn here.
    ///
    /// # Panics
    ///
    /// Panics if the index count mismatches the function arity or an
    /// index does not fit in `ℓ` bits.
    pub fn new<R: RandomSource + ?Sized>(
        params: MultiServerParams,
        indices: &[usize],
        rng: &mut R,
    ) -> Self {
        let _s = spfe_obs::span("query-gen");
        let queries = client_queries(&params, indices, rng);
        MsClientCore {
            params,
            round: OneRound::new("ms-query", "ms-answer", queries),
            result: None,
        }
    }
}

impl SessionCore for MsClientCore {
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
        self.result = Some(client_reconstruct(&self.params, &answers));
        Ok((SessionState::Done, Vec::new()))
    }
}

impl ClientCore for MsClientCore {
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
    use spfe_circuits::formula::BinOp;
    use spfe_math::XorShiftRng;
    use spfe_transport::Transcript;

    fn field() -> Fp64 {
        Fp64::new(1_000_003).unwrap()
    }

    #[test]
    fn sum_function_all_indices() {
        let mut rng = XorShiftRng::new(1);
        let db: Vec<u64> = (0..16u64).map(|i| i * 11 + 2).collect();
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 3 });
        for idx in [[0usize, 1, 2], [5, 5, 5], [15, 0, 7]] {
            let mut tr = Transcript::new(params.num_servers());
            let got = run(&mut tr, &params, &db, &idx, None, &mut rng).unwrap();
            let expect = params.function.eval_clear(&db, &idx, field()).unwrap();
            assert_eq!(got, expect, "{idx:?}");
        }
    }

    #[test]
    fn boolean_formula_spfe() {
        let mut rng = XorShiftRng::new(2);
        let db = vec![1u64, 0, 1, 1, 0, 1, 0, 0];
        let phi = Formula::gate(
            BinOp::Or,
            Formula::gate(BinOp::And, Formula::leaf(0), Formula::leaf(1)),
            Formula::leaf(2),
        );
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Formula(phi));
        for idx in [[0usize, 2, 4], [1, 4, 6], [0, 1, 2], [3, 5, 7]] {
            let mut tr = Transcript::new(params.num_servers());
            let got = run(&mut tr, &params, &db, &idx, None, &mut rng).unwrap();
            let expect = params.function.eval_clear(&db, &idx, field()).unwrap();
            assert_eq!(got, expect, "{idx:?}");
        }
    }

    #[test]
    fn theorem2_server_count() {
        // k = t·s·⌈log₂ n⌉ + 1.
        let phi = Formula::balanced(BinOp::And, 4); // s = 4
        let params = MultiServerParams::new(1024, 2, field(), MsFunction::Formula(phi)); // ℓ = 10
        assert_eq!(params.num_servers(), 2 * 4 * 10 + 1);
        let sum_params = MultiServerParams::new(1024, 3, field(), MsFunction::Sum { m: 5 });
        assert_eq!(sum_params.num_servers(), 3 * 10 + 1); // s = 1
    }

    #[test]
    fn one_round_and_tiny_answers() {
        let mut rng = XorShiftRng::new(3);
        let db: Vec<u64> = (0..64u64).collect();
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 4 });
        let mut tr = Transcript::new(params.num_servers());
        run(&mut tr, &params, &db, &[1, 2, 3, 4], None, &mut rng).unwrap();
        let rep = tr.report();
        assert_eq!(rep.half_rounds, 2);
        // Answers: k single field elements — per-server downstream is 8 bytes.
        assert_eq!(
            rep.server_to_client,
            8 * params.num_servers() as u64,
            "answers must be single field elements"
        );
    }

    #[test]
    fn symmetric_blinding_still_reconstructs() {
        let mut rng = XorShiftRng::new(4);
        let db: Vec<u64> = (0..32u64).map(|i| i + 100).collect();
        let params = MultiServerParams::new(db.len(), 2, field(), MsFunction::Sum { m: 2 });
        let mut tr = Transcript::new(params.num_servers());
        let got = run(&mut tr, &params, &db, &[3, 30], Some(0xB11D), &mut rng).unwrap();
        assert_eq!(got, field().from_u64(db[3] + db[30]));
    }

    #[test]
    fn blinded_answers_hide_intermediate_values() {
        let mut rng = XorShiftRng::new(5);
        let db: Vec<u64> = (0..8u64).collect();
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 1 });
        let queries = client_queries(&params, &[2], &mut rng);
        let mut srng = spfe_crypto::ChaChaRng::from_u64_seed(7);
        let blind = blinding_poly(&params, &mut srng);
        let mut diffs = 0;
        for (h, q) in queries.iter().enumerate() {
            let raw = server_answer(&params, &db, q, None).unwrap();
            let blinded = server_answer(&params, &db, q, Some((&blind, h))).unwrap();
            diffs += (raw != blinded) as usize;
        }
        assert!(diffs > 0);
    }

    #[test]
    fn t_collusion_sees_uniform_points() {
        // Any t servers hold t points of random degree-t curves — as in
        // poly_it, check that a single server's view for two different
        // index vectors is statistically identical.
        let f = Fp64::new(13).unwrap();
        let mut hist = [[0u32; 13]; 2];
        for (slot, idx) in [[0usize, 1], [2usize, 3]].iter().enumerate() {
            let mut rng = XorShiftRng::new(slot as u64 + 10);
            let params = MultiServerParams {
                t: 1,
                ell: 2,
                field: f,
                function: MsFunction::Sum { m: 2 },
            };
            for _ in 0..2600 {
                let qs = client_queries(&params, idx, &mut rng);
                hist[slot][qs[0].slot_points[0][0] as usize] += 1;
            }
        }
        for (v, (&h0, &h1)) in hist[0].iter().zip(&hist[1]).enumerate() {
            let (a, b) = (h0 as f64, h1 as f64);
            assert!((a - b).abs() < 10.0 * ((a + b).sqrt() + 1.0), "v={v}");
        }
    }

    #[test]
    fn sum_and_squares_package() {
        let mut rng = XorShiftRng::new(6);
        let db: Vec<u64> = (1..=32u64).collect();
        let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 3 });
        let idx = [2usize, 7, 30];
        let mut tr = Transcript::new(params.num_servers());
        let (s, ss) = run_sum_and_squares(&mut tr, &params, &db, &sq, &idx, &mut rng).unwrap();
        assert_eq!(s, db[2] + db[7] + db[30]);
        assert_eq!(ss, sq[2] + sq[7] + sq[30]);
        // Still one round, and downstream exactly 2 field elements/server.
        let rep = tr.report();
        assert_eq!(rep.half_rounds, 2);
        assert_eq!(rep.server_to_client, 16 * params.num_servers() as u64);
    }

    #[test]
    fn many_databases_share_one_query() {
        // §3.1 amortization: T time periods answered by one query set.
        let mut rng = XorShiftRng::new(21);
        let periods: Vec<Vec<u64>> = (0..4u64)
            .map(|t| (0..16u64).map(|i| i * 3 + t * 100).collect())
            .collect();
        let refs: Vec<&[u64]> = periods.iter().map(|p| p.as_slice()).collect();
        let params = MultiServerParams::new(16, 1, field(), MsFunction::Sum { m: 2 });
        let idx = [3usize, 9];
        let mut tr = Transcript::new(params.num_servers());
        let sums = run_many_databases(&mut tr, &params, &refs, &idx, &mut rng).unwrap();
        for (s, p) in sums.iter().zip(&periods) {
            assert_eq!(*s, p[3] + p[9]);
        }
        // One round; upstream identical to a single-db run.
        assert_eq!(tr.report().half_rounds, 2);
        let mut tr_single = Transcript::new(params.num_servers());
        run(&mut tr_single, &params, &periods[0], &idx, None, &mut rng).unwrap();
        assert_eq!(
            tr.report().client_to_server,
            tr_single.report().client_to_server,
            "queries must be shared"
        );
    }

    #[test]
    fn server_answers_at_n65536_open_to_the_selected_sum() {
        // The ms-sum benchmark shape: Sum of 4 over 2¹⁶ unreduced words in F_65537.
        let f = Fp64::new(65_537).unwrap();
        let mut rng = XorShiftRng::new(22);
        let db: Vec<u64> = (0..1u64 << 16).map(|_| rng.next_u64()).collect();
        let params = MultiServerParams::new(db.len(), 1, f, MsFunction::Sum { m: 4 });
        let idx = [0usize, 1023, 40_000, 65_535];
        let expect = params.function.eval_clear(&db, &idx, f).unwrap();
        // At the encoded indices themselves the answer is the sum…
        let at_indices = MsQuery {
            slot_points: idx.iter().map(|&i| encode_index(i, params.ell)).collect(),
        };
        assert_eq!(
            server_answer(&params, &db, &at_indices, None).unwrap(),
            expect
        );
        // …and at curve points it interpolates back to it.
        let answers: Vec<u64> = client_queries(&params, &idx, &mut rng)
            .iter()
            .map(|q| server_answer(&params, &db, q, None).unwrap())
            .collect();
        assert_eq!(client_reconstruct(&params, &answers), expect);
    }

    #[test]
    fn robust_reconstruction_survives_byzantine_servers() {
        // The remark after Theorem 2: +2t′ servers tolerate t′ malicious.
        let mut rng = XorShiftRng::new(7);
        let db: Vec<u64> = (0..32u64).map(|i| i * 5 + 3).collect();
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 2 });
        let idx = [4usize, 20];
        let expect = field().from_u64(db[4] + db[20]);
        for faults in [0usize, 1, 2] {
            let k = params.num_servers() + 2 * faults;
            let mut tr = Transcript::new(k);
            // Servers 0..faults lie with garbage.
            let got = run_robust(
                &mut tr,
                &params,
                &db,
                &idx,
                faults,
                |h, honest| if h < faults { honest ^ 0xDEAD } else { honest },
                &mut rng,
            );
            assert_eq!(got, Ok(expect), "faults={faults}");
        }
    }

    #[test]
    fn robust_reconstruction_detects_excess_faults() {
        let mut rng = XorShiftRng::new(8);
        let db: Vec<u64> = (0..16u64).collect();
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 1 });
        let max_faults = 1;
        let k = params.num_servers() + 2 * max_faults;
        let mut tr = Transcript::new(k);
        // 3 > max_faults liars with random garbage: decoding either
        // succeeds with the true value or aborts with a fault diagnosis
        // (never silently garbage that passes the agreement check).
        let got = run_robust(
            &mut tr,
            &params,
            &db,
            &[3],
            max_faults,
            |h, honest| {
                if h < 3 {
                    honest.wrapping_mul(31).wrapping_add(h as u64 + 1) % 1_000_003
                } else {
                    honest
                }
            },
            &mut rng,
        );
        match got {
            Ok(v) => {
                // If decoding claims success it must agree with the honest
                // majority, i.e. equal the true value.
                assert_eq!(v, field().from_u64(db[3]));
            }
            Err(ProtocolError::TooManyFaulty {
                tolerated,
                observed,
            }) => {
                assert_eq!(tolerated, max_faults);
                assert!(observed > tolerated, "diagnosis must exceed budget");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn formula_on_non_boolean_db_is_rejected() {
        let phi = Formula::leaf(0);
        let params = MultiServerParams::new(4, 1, field(), MsFunction::Formula(phi));
        let db = vec![5u64, 1, 0, 1];
        assert_eq!(
            params.function.eval_clear(&db, &[0], field()),
            Err(ProtocolError::InvalidDatabase(
                "formula SPFE needs a Boolean database"
            ))
        );
    }
}
