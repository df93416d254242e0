//! t-private k-server information-theoretic PIR via polynomial interpolation.
//!
//! This is Lemma 1 of the paper (\[5\], instance hiding) specialized to the
//! database selector polynomial: encode index `i` as its `ℓ` bits, so the
//! database becomes the degree-`ℓ` polynomial
//! `P₀(y) = Σ_j x_j·χ_j(y)` (see [`spfe_circuits::formula::selector_eval`]).
//! The client pushes its encoded index through a random degree-`t` curve
//! `c(τ)` with `c(0) = enc(i)`, sends `c(α_h)` to server `h`, and
//! interpolates the degree-`ℓ·t` polynomial `P₀(c(τ))` at `τ = 0` from the
//! `k = ℓ·t + 1` answers. Any `t` servers see `t` points on a random curve —
//! perfect privacy.
//!
//! With the symmetric-privacy extension of \[25\], servers share a random
//! degree-`ℓt` polynomial `R` with `R(0) = 0` and reply `P₀(c(α_h)) + R(α_h)`
//! so the client learns *only* `x_i` (SPIR).

use spfe_circuits::formula::{encode_index, index_bits, selector_eval};
use spfe_math::{Fp64, Poly, RandomSource};
use spfe_transport::{
    Channel, ChannelExt, ClientCore, OutMsg, ProtocolError, Reader, SessionCore, SessionState,
    Wire, WireError,
};

/// Parameters of the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyItParams {
    /// Privacy threshold: number of colluding servers tolerated.
    pub t: usize,
    /// Number of index bits `ℓ`.
    pub ell: usize,
    /// Field for all arithmetic (`p > max(k, data values)`).
    pub field: Fp64,
}

impl PolyItParams {
    /// Parameters for a database of `n` items with threshold `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0` or `n == 0`.
    pub fn new(n: usize, t: usize, field: Fp64) -> Self {
        assert!(t >= 1 && n >= 1);
        PolyItParams {
            t,
            ell: index_bits(n),
            field,
        }
    }

    /// Required number of servers `k = ℓ·t + 1`.
    pub fn num_servers(&self) -> usize {
        self.ell * self.t + 1
    }

    /// The evaluation point `α_h ≠ 0` assigned to server `h`.
    pub fn alpha(&self, server: usize) -> u64 {
        (server as u64) + 1
    }
}

/// Query to one server: a point of the curve, one coordinate per index bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyItQuery {
    /// `c(α_h) ∈ F^ℓ`.
    pub point: Vec<u64>,
}

impl Wire for PolyItQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.point.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolyItQuery {
            point: Vec::<u64>::decode(r)?,
        })
    }
}

/// Client: builds one query per server for `index`.
///
/// # Panics
///
/// Panics if `index` does not fit in `ℓ` bits.
pub fn client_queries<R: RandomSource + ?Sized>(
    params: &PolyItParams,
    index: usize,
    rng: &mut R,
) -> Vec<PolyItQuery> {
    assert!(index < 1usize << params.ell, "index out of range");
    let enc = encode_index(index, params.ell);
    // One random degree-t curve per coordinate, passing through enc at 0.
    let curves: Vec<Poly> = enc
        .iter()
        .map(|&bit| Poly::random_with_constant(bit, params.t, params.field, rng))
        .collect();
    (0..params.num_servers())
        .map(|h| {
            let tau = params.alpha(h);
            PolyItQuery {
                point: curves.iter().map(|c| c.eval(tau)).collect(),
            }
        })
        .collect()
}

/// Server: evaluates the database polynomial at the received point.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) query
/// arity does not match `ℓ`.
pub fn server_answer(
    params: &PolyItParams,
    db: &[u64],
    query: &PolyItQuery,
) -> Result<u64, ProtocolError> {
    if query.point.len() != params.ell {
        return Err(ProtocolError::InvalidMessage {
            label: "polyit-query",
            reason: "query arity does not match index bits",
        });
    }
    spfe_obs::count(spfe_obs::Op::PirWordsScanned, db.len() as u64);
    Ok(selector_eval(db, &query.point, params.field))
}

/// Server with symmetric privacy: adds the shared blinding polynomial's
/// value at this server's point (\[25\]).
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on a malformed query (see
/// [`server_answer`]).
pub fn server_answer_blinded(
    params: &PolyItParams,
    db: &[u64],
    query: &PolyItQuery,
    blind: &Poly,
    server: usize,
) -> Result<u64, ProtocolError> {
    let raw = server_answer(params, db, query)?;
    Ok(params.field.add(raw, blind.eval(params.alpha(server))))
}

/// Generates the servers' shared blinding polynomial `R` (degree `ℓ·t`,
/// `R(0) = 0`) from their common randomness.
pub fn blinding_poly<R: RandomSource + ?Sized>(params: &PolyItParams, rng: &mut R) -> Poly {
    Poly::random_with_constant(0, params.ell * params.t, params.field, rng)
}

/// Client: interpolates the answers at `τ = 0`.
///
/// # Panics
///
/// Panics if fewer than `k` answers are supplied.
pub fn client_reconstruct(params: &PolyItParams, answers: &[u64]) -> u64 {
    let k = params.num_servers();
    assert!(answers.len() >= k, "need all k answers");
    let xs: Vec<u64> = (0..k).map(|h| params.alpha(h)).collect();
    Poly::interpolate_at(&xs, &answers[..k], 0, params.field)
}

/// Runs the full protocol over a metered channel (plain PIR).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the channel server count is not `k` (a driver bug).
pub fn run<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &PolyItParams,
    db: &[u64],
    index: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    assert_eq!(t.num_servers(), params.num_servers());
    let _proto = spfe_obs::span("polyit");
    let queries = {
        let _s = spfe_obs::span("query-gen");
        client_queries(params, index, rng)
    };
    let received: Vec<PolyItQuery> = queries
        .iter()
        .enumerate()
        .map(|(h, q)| t.client_to_server(h, "polyit-query", q))
        .collect::<Result<_, _>>()?;
    let answers: Vec<u64> = {
        let _s = spfe_obs::span("server-scan");
        received
            .iter()
            .enumerate()
            .map(|(h, q)| {
                let a = server_answer(params, db, q)?;
                t.server_to_client(h, "polyit-answer", &a)
            })
            .collect::<Result<_, _>>()?
    };
    let _s = spfe_obs::span("reconstruct");
    Ok(client_reconstruct(params, &answers))
}

/// Runs the full protocol with \[25\]-style symmetric privacy (SPIR): the
/// servers derive a shared blinding polynomial from `shared_seed`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the channel server count is not `k` (a driver bug).
pub fn run_symmetric<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &PolyItParams,
    db: &[u64],
    index: usize,
    shared_seed: u64,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    assert_eq!(t.num_servers(), params.num_servers());
    let _proto = spfe_obs::span("polyit-sym");
    let queries = {
        let _s = spfe_obs::span("query-gen");
        client_queries(params, index, rng)
    };
    let received: Vec<PolyItQuery> = queries
        .iter()
        .enumerate()
        .map(|(h, q)| t.client_to_server(h, "polyit-query", q))
        .collect::<Result<_, _>>()?;
    let answers: Vec<u64> = {
        let _s = spfe_obs::span("server-scan");
        received
            .iter()
            .enumerate()
            .map(|(h, q)| {
                // Each server re-derives the same R from the common random input.
                let mut server_rng = spfe_crypto::ChaChaRng::from_u64_seed(shared_seed);
                let blind = blinding_poly(params, &mut server_rng);
                let a = server_answer_blinded(params, db, q, &blind, h)?;
                t.server_to_client(h, "polyit-answer", &a)
            })
            .collect::<Result<_, _>>()?
    };
    let _s = spfe_obs::span("reconstruct");
    Ok(client_reconstruct(params, &answers))
}

// ---------------------------------------------------------------------------
// Sans-io state machines (DESIGN.md §15) for the plain (unblinded) scheme
// — the configuration the conformance harness runs. They call the same
// client_queries/server_answer/client_reconstruct as the monolithic
// [`run`], so every transport yields identical bytes and op counts.
// ---------------------------------------------------------------------------

/// Server `h` of the k-server interpolation PIR as a sans-io machine.
#[derive(Debug)]
pub struct PolyItServerCore {
    index: usize,
    params: PolyItParams,
    db: Vec<u64>,
    answered: bool,
}

impl PolyItServerCore {
    /// A core for server `index` holding `db` under `params`.
    pub fn new(index: usize, params: PolyItParams, db: Vec<u64>) -> Self {
        PolyItServerCore {
            index,
            params,
            db,
            answered: false,
        }
    }
}

impl SessionCore for PolyItServerCore {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        if label != "polyit-query" || self.answered {
            return Err(ProtocolError::InvalidMessage {
                label: "polyit-query",
                reason: "unexpected message for a poly_it server",
            });
        }
        let query = PolyItQuery::from_bytes(payload)?;
        let answer = server_answer(&self.params, &self.db, &query)?;
        self.answered = true;
        Ok((
            SessionState::Done,
            vec![OutMsg::to_client(
                self.index,
                "polyit-answer",
                answer.to_bytes(),
            )],
        ))
    }
}

/// Client half of the k-server interpolation PIR: all `k` queries at
/// start, reconstruct once every answer arrived.
#[derive(Debug)]
pub struct PolyItClientCore {
    params: PolyItParams,
    queries: Option<Vec<PolyItQuery>>,
    answers: Vec<Option<u64>>,
    result: Option<u64>,
}

impl PolyItClientCore {
    /// A client core retrieving `index`; the random curves are drawn here.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the parameters' `ℓ` bits.
    pub fn new<R: RandomSource + ?Sized>(params: PolyItParams, index: usize, rng: &mut R) -> Self {
        let queries = client_queries(&params, index, rng);
        let k = params.num_servers();
        PolyItClientCore {
            params,
            queries: Some(queries),
            answers: vec![None; k],
            result: None,
        }
    }
}

impl SessionCore for PolyItClientCore {
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let queries = self.queries.take().ok_or(ProtocolError::InvalidMessage {
            label: "polyit-query",
            reason: "poly_it client core started twice",
        })?;
        Ok((
            SessionState::Running,
            queries
                .iter()
                .enumerate()
                .map(|(h, q)| OutMsg::to_server(h, "polyit-query", q.to_bytes()))
                .collect(),
        ))
    }

    fn on_message(
        &mut self,
        _half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        if label != "polyit-answer"
            || server >= self.answers.len()
            || self.answers[server].is_some()
        {
            return Err(ProtocolError::InvalidMessage {
                label: "polyit-answer",
                reason: "unexpected message for the poly_it client",
            });
        }
        self.answers[server] = Some(u64::from_bytes(payload)?);
        if self.answers.iter().all(Option::is_some) {
            let answers: Vec<u64> = self.answers.iter().map(|a| a.unwrap()).collect();
            self.result = Some(client_reconstruct(&self.params, &answers));
            return Ok((SessionState::Done, Vec::new()));
        }
        Ok((SessionState::Running, Vec::new()))
    }
}

impl ClientCore for PolyItClientCore {
    fn digest(&self) -> Option<u64> {
        self.result
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        (label == "polyit-answer").then_some("polyit-answer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_math::XorShiftRng;
    use spfe_transport::Transcript;

    fn field() -> Fp64 {
        Fp64::new(1_000_003).unwrap()
    }

    fn db(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 37 + 5).collect()
    }

    #[test]
    fn server_answers_at_n65536_open_to_the_entry() {
        let f = Fp64::new(65_537).unwrap();
        let mut rng = XorShiftRng::new(3);
        let database: Vec<u64> = (0..1u64 << 16).map(|_| rng.next_u64()).collect();
        let params = PolyItParams::new(database.len(), 1, f);
        for i in [0usize, 1024, 54_321, 65_535] {
            let expect = f.from_u64(database[i]);
            let at_index = PolyItQuery {
                point: encode_index(i, params.ell),
            };
            assert_eq!(
                server_answer(&params, &database, &at_index).unwrap(),
                expect
            );
            let answers: Vec<u64> = client_queries(&params, i, &mut rng)
                .iter()
                .map(|q| server_answer(&params, &database, q).unwrap())
                .collect();
            assert_eq!(client_reconstruct(&params, &answers), expect, "i={i}");
        }
    }

    #[test]
    fn retrieves_every_index_various_t() {
        let mut rng = XorShiftRng::new(1);
        for t_priv in [1usize, 2, 3] {
            let database = db(10);
            let params = PolyItParams::new(database.len(), t_priv, field());
            for i in 0..database.len() {
                let mut tr = Transcript::new(params.num_servers());
                assert_eq!(
                    run(&mut tr, &params, &database, i, &mut rng).unwrap(),
                    database[i],
                    "t={t_priv} i={i}"
                );
            }
        }
    }

    #[test]
    fn server_count_formula() {
        let params = PolyItParams::new(1024, 2, field());
        assert_eq!(params.ell, 10);
        assert_eq!(params.num_servers(), 21); // ℓ·t + 1
    }

    #[test]
    fn one_round_protocol() {
        let mut rng = XorShiftRng::new(2);
        let database = db(16);
        let params = PolyItParams::new(database.len(), 1, field());
        let mut tr = Transcript::new(params.num_servers());
        run(&mut tr, &params, &database, 3, &mut rng).unwrap();
        assert_eq!(tr.report().half_rounds, 2);
    }

    #[test]
    fn t_servers_learn_nothing_perfect() {
        // For t = 2: any 2 servers' views are points of a random degree-2
        // curve; check the exact distribution property on a tiny field by
        // verifying that for fixed servers the pair (q_a, q_b) takes values
        // independent of the index (statistically, same support counts).
        let f = Fp64::new(11).unwrap();
        let params = PolyItParams {
            t: 2,
            ell: 1,
            field: f,
        };
        let runs = 4000;
        let mut hist = [[0u32; 121]; 2];
        for (slot, &index) in [0usize, 1usize].iter().enumerate() {
            let mut rng = XorShiftRng::new(99 + slot as u64);
            for _ in 0..runs {
                let qs = client_queries(&params, index, &mut rng);
                let key = (qs[0].point[0] * 11 + qs[1].point[0]) as usize;
                hist[slot][key] += 1;
            }
        }
        // Chi-square-ish closeness: every cell within generous bounds of the
        // other index's cell.
        for (cell, (&h0, &h1)) in hist[0].iter().zip(&hist[1]).enumerate() {
            let (a, b) = (h0 as f64, h1 as f64);
            assert!(
                (a - b).abs() < 12.0 * ((a + b).sqrt() + 1.0),
                "cell {cell}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn symmetric_variant_returns_item_and_blinds_others() {
        let mut rng = XorShiftRng::new(3);
        let database = db(8);
        let params = PolyItParams::new(database.len(), 1, field());
        let mut tr = Transcript::new(params.num_servers());
        let got = run_symmetric(&mut tr, &params, &database, 5, 0x5EED, &mut rng).unwrap();
        assert_eq!(got, database[5]);
    }

    #[test]
    fn blinded_answers_differ_from_raw() {
        let mut rng = XorShiftRng::new(4);
        let database = db(8);
        let params = PolyItParams::new(database.len(), 1, field());
        let queries = client_queries(&params, 2, &mut rng);
        let blind = blinding_poly(&params, &mut rng);
        let mut any_diff = false;
        for (h, q) in queries.iter().enumerate() {
            let raw = server_answer(&params, &database, q).unwrap();
            let blinded = server_answer_blinded(&params, &database, q, &blind, h).unwrap();
            any_diff |= raw != blinded;
        }
        assert!(any_diff, "blinding had no effect");
        // But reconstruction still works because R(0) = 0.
        let answers: Vec<u64> = queries
            .iter()
            .enumerate()
            .map(|(h, q)| server_answer_blinded(&params, &database, q, &blind, h).unwrap())
            .collect();
        assert_eq!(client_reconstruct(&params, &answers), database[2]);
    }

    #[test]
    fn communication_scales_with_k_and_ell() {
        let mut rng = XorShiftRng::new(5);
        let f = field();
        let mut bytes = Vec::new();
        for n in [16usize, 256, 4096] {
            let database = db(n);
            let params = PolyItParams::new(n, 1, f);
            let mut tr = Transcript::new(params.num_servers());
            run(&mut tr, &params, &database, 1, &mut rng).unwrap();
            bytes.push(tr.report().total_bytes());
        }
        // k·ℓ grows ~ quadratically in ℓ; just check monotone growth and
        // that it stays tiny compared to the database (sublinearity).
        assert!(bytes[0] < bytes[1] && bytes[1] < bytes[2]);
        assert!(
            bytes[2] < 4096 * 8 / 2,
            "should be well below database size"
        );
    }
}
