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
//! same query can be answered against several databases (one per time
//! period, or `x` and the squared `x'` for average+variance, §4) at one
//! extra field element each — [`MultiServerParams::with_databases`]. The
//! remark after Theorem 2, "t′ malicious servers can be tolerated by
//! adding 2t′ additional servers", is [`MultiServerParams::with_faults`]:
//! the client decodes around up to `e` wrong answers with Berlekamp–Welch.
//!
//! The protocol is written once, as sans-io cores (DESIGN.md §15): [`run`]
//! pumps [`MsClientCore`] against [`server_cores`] in process, and the
//! networked server hosts the same server cores.

use spfe_circuits::formula::{
    encode_index, eval_formula_poly, index_bits, selector_evals, Formula,
};
use spfe_math::par::{par_map_cost, CostClass};
use spfe_math::rs::berlekamp_welch;
use spfe_math::{Fp64, Poly, RandomSource};
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, Reader, SessionCore,
    SessionState, Wire, WireError,
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
    /// Fault budget `e`: wrong answers the client decodes around, at two
    /// extra servers each (0: plain interpolation).
    faults: usize,
    /// Number of databases `D` each server answers the one query against
    /// (at least 1).
    databases: usize,
}

impl MultiServerParams {
    /// Builds parameters for one database of `n` items and no fault
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `n == 0`, or the field is smaller than the
    /// required number of evaluation points.
    pub fn new(n: usize, t: usize, field: Fp64, function: MsFunction) -> Self {
        assert!(t >= 1 && n >= 1);
        MultiServerParams {
            t,
            ell: index_bits(n),
            field,
            function,
            faults: 0,
            databases: 1,
        }
        .checked()
    }

    /// With a fault budget of `e`: `2e` more servers, and a client that
    /// decodes around up to `e` wrong answers.
    ///
    /// # Panics
    ///
    /// Panics if the field is smaller than the new server count.
    #[must_use]
    pub fn with_faults(mut self, e: usize) -> Self {
        self.faults = e;
        self.checked()
    }

    /// With `d` databases of one length, all answered against one query.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn with_databases(mut self, d: usize) -> Self {
        assert!(d >= 1, "need at least one database");
        self.databases = d;
        self
    }

    fn checked(self) -> Self {
        assert!(
            (self.num_servers() as u64) < self.field.modulus(),
            "field too small for {} servers",
            self.num_servers()
        );
        self
    }

    /// Degree `deg(P)·t` of the univariate polynomial the answers lie on.
    fn degree(&self) -> usize {
        self.function.poly_degree(self.ell) * self.t
    }

    /// Theorem 2's server count `k = deg(P)·t + 1`, plus `2e`.
    pub fn num_servers(&self) -> usize {
        self.degree() + 1 + 2 * self.faults
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

/// One server's reply: a field element per database, back to back with no
/// length prefix, so a one-database reply is a bare `u64`.
#[derive(Debug)]
struct MsAnswer(Vec<u64>);

impl Wire for MsAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.iter().for_each(|v| v.encode(out));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut values = Vec::with_capacity(r.remaining() / 8);
        while !r.is_exhausted() {
            values.push(u64::decode(r)?);
        }
        Ok(MsAnswer(values))
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
    // Evaluating the curves at each server's point is rng-free, so it may
    // shard across the worker pool (ordered by `h`). One item is `m·ℓ`
    // degree-t evaluations, about a microsecond: `Light`, since waking the
    // pool would cost more than the work.
    let hs: Vec<usize> = (0..params.num_servers()).collect();
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

/// Server `h`: evaluates `P` at the received point over one database,
/// optionally adding that database's blinding polynomial for symmetric
/// privacy.
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

/// A shared blinding polynomial `R` (degree `deg(P)·t`, `R(0) = 0`),
/// derived from the servers' common randomness.
pub fn blinding_poly<R: RandomSource + ?Sized>(params: &MultiServerParams, rng: &mut R) -> Poly {
    Poly::random_with_constant(0, params.degree(), params.field, rng)
}

/// Client: the value at `τ = 0` of the polynomial through one database's
/// answers, in server order. With `e = 0` it interpolates them; otherwise
/// Berlekamp–Welch decodes around up to `e` wrong answers.
///
/// # Errors
///
/// [`ProtocolError::TooManyFaulty`] when more than `e` answers are
/// inconsistent. With exactly `k + 2e` answers no larger budget can
/// decode, so every answer is reported suspect.
///
/// # Panics
///
/// Panics if fewer than `k + 2e` answers are supplied.
pub fn client_reconstruct(
    params: &MultiServerParams,
    answers: &[u64],
) -> Result<u64, ProtocolError> {
    let k = params.num_servers();
    assert!(answers.len() >= k, "need all k + 2e answers");
    let xs: Vec<u64> = (0..k).map(|h| params.alpha(h)).collect();
    let (answers, field) = (&answers[..k], params.field);
    if params.faults == 0 {
        return Ok(Poly::interpolate_at(&xs, answers, 0, field));
    }
    berlekamp_welch(&xs, answers, params.degree(), params.faults, field)
        .map(|p| p.eval(0))
        .ok_or(ProtocolError::TooManyFaulty {
            tolerated: params.faults,
            observed: k,
        })
}

/// Runs the 1-round protocol over a metered transcript: [`pump`] over a
/// client core and the `k + 2e` server cores, which borrow `db` (the `D`
/// databases back to back) and answer one after another. Returns one
/// value per database. With `shared_seed = Some(s)` the servers add the
/// \[25\]-style blinding (the client then learns *only* `f(x_I)` —
/// symmetric privacy).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message; [`ProtocolError::TooManyFaulty`] past the fault budget.
///
/// # Panics
///
/// Panics if the channel's server count differs from `k + 2e`.
pub fn run<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &MultiServerParams,
    db: &[u64],
    indices: &[usize],
    shared_seed: Option<u64>,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError> {
    assert_eq!(t.num_servers(), params.num_servers(), "server count");
    let _proto = spfe_obs::span("multiserver");
    let mut client = MsClientCore::new(params.clone(), indices, rng);
    pump(t, &mut client, &mut server_cores(params, db, shared_seed))?;
    Ok(client.results)
}

/// The `k + 2e` server cores over `db` (borrowed in process, owned when a
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
    /// The `D` databases, back to back.
    db: Cow<'a, [u64]>,
    /// One blinding polynomial per database, or none.
    blinds: Vec<Poly>,
}

impl<'a> MsServerCore<'a> {
    /// A core for server `index` holding (or borrowing) `db` under
    /// `params`: the `D` databases back to back, all of one length.
    ///
    /// # Panics
    ///
    /// Panics if `db` does not split into `D` equal databases.
    pub fn new(index: usize, params: MultiServerParams, db: impl Into<Cow<'a, [u64]>>) -> Self {
        let db = db.into();
        assert_eq!(db.len() % params.databases, 0, "ragged databases");
        MsServerCore {
            once: AnswerOnce::new(index, "ms-query", "ms-answer"),
            params,
            db,
            blinds: Vec::new(),
        }
    }

    /// With `Some(seed)`, adds the servers' shared blinding polynomials,
    /// one per database, drawn in order from their common random input
    /// (symmetric privacy, \[25\]); `None` leaves the core unblinded. One
    /// polynomial shared by all databases would let the client subtract
    /// two answers and learn the difference of the unblinded values.
    #[must_use]
    pub fn with_blind(mut self, shared_seed: Option<u64>) -> Self {
        self.blinds = shared_seed.map_or_else(Vec::new, |seed| {
            let mut rng = spfe_crypto::ChaChaRng::from_u64_seed(seed);
            (0..self.params.databases)
                .map(|_| blinding_poly(&self.params, &mut rng))
                .collect()
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
            let n = self.db.len() / self.params.databases;
            let mut out = Vec::with_capacity(8 * self.params.databases);
            for d in 0..self.params.databases {
                let blind = self.blinds.get(d).map(|r| (r, server));
                let db = &self.db[d * n..(d + 1) * n];
                server_answer(&self.params, db, &query, blind)?.encode(&mut out);
            }
            Ok(out)
        })
    }
}

/// Client half of the Theorem 2 protocol: all `k + 2e` queries at start,
/// one reconstruction per database once every answer arrived.
#[derive(Debug)]
pub struct MsClientCore {
    params: MultiServerParams,
    round: OneRound<MsQuery, MsAnswer>,
    /// One value per database, once done.
    results: Vec<u64>,
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
            results: Vec::new(),
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
        // A reply of any other length is malformed bytes, like a
        // truncated `u64`: a codec error.
        if label == "ms-answer" && payload.len() != 8 * self.params.databases {
            return Err(WireError {
                context: "answer is not one field element per database",
            }
            .into());
        }
        let Some(answers) = self.round.receive(server, label, payload)? else {
            return Ok((SessionState::Running, Vec::new()));
        };
        let _s = spfe_obs::span("reconstruct");
        self.results = (0..self.params.databases)
            .map(|d| {
                let column: Vec<u64> = answers.iter().map(|a| a.0[d]).collect();
                client_reconstruct(&self.params, &column)
            })
            .collect::<Result<_, _>>()?;
        Ok((SessionState::Done, Vec::new()))
    }
}

impl ClientCore for MsClientCore {
    /// The wrapping sum of the per-database values: with one database,
    /// the value itself.
    fn digest(&self) -> Option<u64> {
        (!self.results.is_empty())
            .then(|| self.results.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
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
    use spfe_transport::{FaultAction, FaultPlan, FaultyChannel, Transcript};

    fn field() -> Fp64 {
        Fp64::new(1_000_003).unwrap()
    }

    /// Server `h`'s reply payload to `query`, from a fresh core.
    fn reply(
        params: &MultiServerParams,
        db: &[u64],
        seed: Option<u64>,
        h: usize,
        query: &MsQuery,
    ) -> Vec<u8> {
        let (_, out) = server_cores(params, db, seed)[h]
            .on_message(1, h, "ms-query", &query.to_bytes())
            .unwrap();
        out[0].payload.clone()
    }

    /// A channel whose answers from servers `liars` (first answer message:
    /// index `k`, since [`pump`] sends every query before any reply) get
    /// `lie` added.
    fn lying_channel(
        params: &MultiServerParams,
        liars: std::ops::Range<u64>,
        lie: u64,
    ) -> FaultyChannel {
        let k = params.num_servers() as u64;
        let script = liars.map(|h| (k + h, FaultAction::Byzantine)).collect();
        let mut ch = FaultyChannel::new(k as usize, FaultPlan::scripted(script), 0);
        let field = params.field;
        ch.set_tamper(Box::new(move |label, bytes| {
            assert_eq!(label, "ms-answer");
            let honest = u64::from_bytes(bytes).expect("one-database answers are u64");
            *bytes = field.add(honest, lie).to_bytes();
        }));
        ch
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
            assert_eq!(got, [expect], "{idx:?}");
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
            assert_eq!(got, [expect], "{idx:?}");
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
                                                          // Two more servers per tolerated liar; databases add none.
        let robust = sum_params.with_faults(2).with_databases(3);
        assert_eq!(robust.num_servers(), 3 * 10 + 1 + 4);
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
        // A one-database reply is exactly the bare u64's encoding.
        let query = &client_queries(&params, &[1, 2, 3, 4], &mut rng)[2];
        let value = server_answer(&params, &db, query, None).unwrap();
        assert_eq!(reply(&params, &db, None, 2, query), value.to_bytes());
    }

    #[test]
    fn symmetric_blinding_still_reconstructs() {
        let mut rng = XorShiftRng::new(4);
        let db: Vec<u64> = (0..32u64).map(|i| i + 100).collect();
        let params = MultiServerParams::new(db.len(), 2, field(), MsFunction::Sum { m: 2 });
        let mut tr = Transcript::new(params.num_servers());
        let got = run(&mut tr, &params, &db, &[3, 30], Some(0xB11D), &mut rng).unwrap();
        assert_eq!(got, [field().from_u64(db[3] + db[30])]);
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
            // The core's database-0 blinding is the seed's first draw.
            assert_eq!(reply(&params, &db, Some(7), h, q), blinded.to_bytes());
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
            let params = MultiServerParams::new(4, 1, f, MsFunction::Sum { m: 2 });
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
        let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 3 })
            .with_databases(2);
        let idx = [2usize, 7, 30];
        for seed in [None, Some(0x5EED)] {
            let mut tr = Transcript::new(params.num_servers());
            let got = run(
                &mut tr,
                &params,
                &[&db[..], &sq].concat(),
                &idx,
                seed,
                &mut rng,
            );
            assert_eq!(
                got.unwrap(),
                [db[2] + db[7] + db[30], sq[2] + sq[7] + sq[30]]
            );
            // Still one round, and downstream exactly 2 field elements/server.
            let rep = tr.report();
            assert_eq!(rep.half_rounds, 2);
            assert_eq!(rep.server_to_client, 16 * params.num_servers() as u64);
        }
        // Each database gets its own blinding: over two copies of one
        // database, the two blinded words of a reply differ (one shared
        // polynomial would make them equal, and their difference would
        // leak the unblinded one).
        let query = &client_queries(&params, &idx, &mut rng)[0];
        let bytes = reply(&params, &[&db[..], &db].concat(), Some(0x5EED), 0, query);
        assert_ne!(bytes[..8], bytes[8..]);
    }

    #[test]
    fn many_databases_share_one_query() {
        // §3.1 amortization: T time periods answered by one query set.
        let mut rng = XorShiftRng::new(21);
        let periods: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..16u64).map(move |i| i * 3 + t * 100))
            .collect();
        let one = MultiServerParams::new(16, 1, field(), MsFunction::Sum { m: 2 });
        let params = one.clone().with_databases(4);
        let idx = [3usize, 9];
        let mut tr = Transcript::new(params.num_servers());
        let sums = run(&mut tr, &params, &periods, &idx, None, &mut rng).unwrap();
        let expect: Vec<u64> = periods.chunks(16).map(|p| p[3] + p[9]).collect();
        assert_eq!(sums, expect);
        // One round; upstream identical to a single-db run.
        assert_eq!(tr.report().half_rounds, 2);
        let mut tr_single = Transcript::new(one.num_servers());
        run(&mut tr_single, &one, &periods[..16], &idx, None, &mut rng).unwrap();
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
        assert_eq!(client_reconstruct(&params, &answers), Ok(expect));
    }

    #[test]
    fn robust_reconstruction_survives_byzantine_servers() {
        // The remark after Theorem 2: +2t′ servers tolerate t′ malicious.
        let mut rng = XorShiftRng::new(7);
        let db: Vec<u64> = (0..32u64).map(|i| i * 5 + 3).collect();
        let idx = [4usize, 20];
        let expect = field().from_u64(db[4] + db[20]);
        for faults in [0u64, 1, 2] {
            let params = MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 2 })
                .with_faults(faults as usize);
            // Servers 0..faults lie.
            let mut ch = lying_channel(&params, 0..faults, 0xDEAD);
            let got = run(&mut ch, &params, &db, &idx, Some(0xB11D), &mut rng);
            assert_eq!(got, Ok(vec![expect]), "faults={faults}");
        }
    }

    #[test]
    fn robust_reconstruction_detects_excess_faults() {
        let mut rng = XorShiftRng::new(8);
        let db: Vec<u64> = (0..16u64).collect();
        let params =
            MultiServerParams::new(db.len(), 1, field(), MsFunction::Sum { m: 1 }).with_faults(1);
        // e + 1 and 2e + 1 liars exceed the budget: a typed abort with the
        // fault diagnosis, never a silently wrong value.
        for liars in [2, 3] {
            let mut ch = lying_channel(&params, 0..liars, 31 * liars + 1);
            let got = run(&mut ch, &params, &db, &[3], None, &mut rng);
            assert_eq!(
                got,
                Err(ProtocolError::TooManyFaulty {
                    tolerated: 1,
                    observed: params.num_servers(),
                }),
                "liars={liars}"
            );
        }
    }

    #[test]
    fn answers_of_the_wrong_length_are_typed_errors() {
        let mut rng = XorShiftRng::new(9);
        for databases in [1, 2] {
            let params = MultiServerParams::new(16, 1, field(), MsFunction::Sum { m: 2 })
                .with_databases(databases);
            for len in [
                0,
                7,
                8 * databases - 1,
                8 * databases + 1,
                8 * databases + 8,
            ] {
                let mut client = MsClientCore::new(params.clone(), &[3, 10], &mut rng);
                client.start().unwrap();
                assert_eq!(
                    client
                        .on_message(2, 0, "ms-answer", &vec![0; len])
                        .unwrap_err(),
                    ProtocolError::Codec(WireError {
                        context: "answer is not one field element per database",
                    }),
                    "databases={databases} len={len}"
                );
            }
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
