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
//!   communication `m·SPIR(n,1,κ) + O(κ·C_f)`;
//! * [`run_sum_psm`] — `k`-server, perfectly secure for the sum function
//!   (Example 1): communication `m·PSPIR_k(n,1,ℓ)`, `β = 0`;
//! * [`run_bp_psm`] — `k`-server, perfectly secure for branching programs:
//!   Corollary 4(2), communication `m·PSPIR_k(n,1,O(B_f²))`.

use spfe_circuits::boolean::Circuit;
use spfe_circuits::bp::BranchingProgram;
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::{ChaChaRng, SchnorrGroup};
#[cfg(test)]
use spfe_math::Fp64;
use spfe_math::RandomSource;
use spfe_mpc::garble::{self, Label};
use spfe_mpc::psm;
use spfe_pir::poly_it::{self, PolyItParams};
use spfe_pir::spir::{self, SpirParams, SpirQuery, SpirWordsAnswer};
use spfe_transport::{Channel, ChannelExt, ProtocolError};

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

/// Single-server, computationally secure PSM-SPFE (Corollary 4(1)).
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
    let m = indices.len();
    assert!(m > 0 && item_bits > 0);
    assert_eq!(circuit.num_inputs(), m * item_bits, "circuit arity");
    assert!(indices.iter().all(|&i| i < db.len()), "index out of range");
    assert!(
        db.iter().all(|&v| v < (1u64 << item_bits)),
        "database value exceeds item width"
    );

    let _proto = spfe_obs::span("psm-yao");

    // Round 1, client → server: one SPIR query per slot.
    let params = SpirParams::new(group.clone(), db.len());
    let (queries, states) = {
        let _s = spfe_obs::span("query-gen");
        let mut queries = Vec::with_capacity(m);
        let mut states = Vec::with_capacity(m);
        for &i in indices {
            let (q, st) = spir::client_query(&params, pk, sk, i, rng);
            queries.push(q);
            states.push(st);
        }
        (queries, states)
    };
    let queries: Vec<SpirQuery> = t.client_to_server(0, "psm-spir-queries", &queries)?;

    // Server: garble f from fresh randomness (the PSM common random input),
    // build each player's virtual database of input-label bundles, answer
    // the SPIR queries, and attach p₀ = the garbled circuit.
    let _se = spfe_obs::span("server-eval");
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let (garbled, secrets) = garble::garble(circuit, seed);
    let answers: Vec<SpirWordsAnswer> = queries
        .iter()
        .enumerate()
        .map(|(j, q)| {
            let vdb: Vec<Vec<u64>> = (0..db.len())
                .map(|i| {
                    let mut words = Vec::with_capacity(2 * item_bits);
                    for b in 0..item_bits {
                        let bit = (db[i] >> b) & 1 == 1;
                        let label = secrets.input_label(j * item_bits + b, bit);
                        words.extend(label_to_words(&label));
                    }
                    words
                })
                .collect();
            let scanned = {
                let _s = spfe_obs::span("scan");
                spir::scan_words(&params, pk, &vdb, q)?
            };
            let _s = spfe_obs::span("pad");
            spir::pad_answer_words(&params, pk, &scanned, q, rng)
        })
        .collect::<Result<_, _>>()?;
    drop(_se);
    let (garbled, answers) = t.server_to_client(0, "psm-p0-and-answers", &(garbled, answers))?;

    // Client (referee): decode labels, evaluate the garbled circuit.
    const BAD: ProtocolError = ProtocolError::InvalidMessage {
        label: "psm-p0-and-answers",
        reason: "reply inconsistent with circuit",
    };
    let _s = spfe_obs::span("reconstruct");
    if answers.len() != states.len() || !garble::is_well_formed(circuit, &garbled) {
        return Err(BAD);
    }
    let mut labels = Vec::with_capacity(m * item_bits);
    for (st, a) in states.iter().zip(&answers) {
        let words = spir::client_decode_words(&params, pk, sk, st, a)?;
        if words.len() != 2 * item_bits {
            return Err(BAD);
        }
        for b in 0..item_bits {
            labels.push(words_to_label(&words[2 * b..2 * b + 2]));
        }
    }
    let out = psm::yao::referee(circuit, &garbled, &labels);
    Ok(spfe_mpc::yao2pc::from_bits(&out))
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
    let p = params.field.modulus();
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    assert_eq!(t.num_servers(), params.num_servers());
    let _proto = spfe_obs::span("psm-sum");

    // Client → servers: m poly-IT PIR queries per server.
    let mut per_server: Vec<Vec<poly_it::PolyItQuery>> =
        vec![Vec::with_capacity(m); params.num_servers()];
    for &i in indices {
        let qs = poly_it::client_queries(params, i, rng);
        for (h, q) in qs.into_iter().enumerate() {
            per_server[h].push(q);
        }
    }
    let received: Vec<Vec<poly_it::PolyItQuery>> = per_server
        .iter()
        .enumerate()
        .map(|(h, qs)| t.client_to_server(h, "sumpsm-queries", qs))
        .collect::<Result<_, _>>()?;

    // Servers: virtual database vdb_j[i] = x_i + r_j (mod p), blinded.
    let derive = |seed: u64| -> (Vec<u64>, Vec<spfe_math::Poly>) {
        let mut srng = ChaChaRng::from_u64_seed(seed);
        let mut pads: Vec<u64> = (0..m - 1).map(|_| params.field.random(&mut srng)).collect();
        let total = params.field.sum(&pads);
        pads.push(params.field.neg(total));
        let blinds = (0..m)
            .map(|_| poly_it::blinding_poly(params, &mut srng))
            .collect();
        (pads, blinds)
    };
    let mut per_server_answers: Vec<Vec<u64>> = Vec::with_capacity(params.num_servers());
    for (h, qs) in received.iter().enumerate() {
        if qs.len() != m {
            return Err(ProtocolError::InvalidMessage {
                label: "sumpsm-queries",
                reason: "wrong number of slot queries",
            });
        }
        let (pads, blinds) = derive(shared_seed); // every server re-derives
        let answers: Vec<u64> = qs
            .iter()
            .enumerate()
            .map(|(j, q)| {
                let vdb: Vec<u64> = db.iter().map(|&x| params.field.add(x, pads[j])).collect();
                poly_it::server_answer_blinded(params, &vdb, q, &blinds[j], h)
            })
            .collect::<Result<_, _>>()?;
        let delivered: Vec<u64> = t.server_to_client(h, "sumpsm-answers", &answers)?;
        if delivered.len() != m {
            return Err(ProtocolError::InvalidMessage {
                label: "sumpsm-answers",
                reason: "wrong number of slot answers",
            });
        }
        per_server_answers.push(delivered);
    }

    // Client (referee): reconstruct each PSM message, then sum.
    let mut acc = 0u64;
    for j in 0..m {
        let answers: Vec<u64> = per_server_answers.iter().map(|a| a[j]).collect();
        let msg = poly_it::client_reconstruct(params, &answers);
        acc = params.field.add(acc, msg);
    }
    Ok(acc)
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
    assert_eq!(t.num_servers(), params.num_servers());
    let _proto = spfe_obs::span("psm-bp");
    let field = params.field;
    let d = bp.size() - 1;
    let width = d * d;

    // Client → servers: m queries per server (same as the sum variant).
    let mut per_server: Vec<Vec<poly_it::PolyItQuery>> =
        vec![Vec::with_capacity(m); params.num_servers()];
    for &i in indices {
        let qs = poly_it::client_queries(params, i, rng);
        for (h, q) in qs.into_iter().enumerate() {
            per_server[h].push(q);
        }
    }
    let received: Vec<Vec<poly_it::PolyItQuery>> = per_server
        .iter()
        .enumerate()
        .map(|(h, qs)| t.client_to_server(h, "bppsm-queries", qs))
        .collect::<Result<_, _>>()?;

    // Common randomness: the IK-PSM randomizers + per-(slot, matrix-entry)
    // blinding polynomials.
    let derive = |seed: u64| {
        let mut srng = ChaChaRng::from_u64_seed(seed);
        let mut psm_seed = [0u8; 32];
        srng.fill_bytes(&mut psm_seed);
        let rand = psm::bp::common_randomness(bp, m, field, psm_seed);
        let blinds: Vec<Vec<spfe_math::Poly>> = (0..m)
            .map(|_| {
                (0..width)
                    .map(|_| poly_it::blinding_poly(params, &mut srng))
                    .collect()
            })
            .collect();
        (rand, blinds)
    };

    // Servers answer; server 0 additionally sends p₀ in the clear.
    let (rand0, _) = derive(shared_seed);
    let p0 = psm::bp::p0_message(bp, field, &rand0);
    let p0_entries: Vec<u64> = t.server_to_client(0, "bppsm-p0", &p0.entries().to_vec())?;
    if p0_entries.len() != width {
        return Err(ProtocolError::InvalidMessage {
            label: "bppsm-p0",
            reason: "wrong p0 matrix size",
        });
    }

    let mut per_server_answers: Vec<Vec<Vec<u64>>> = Vec::with_capacity(params.num_servers());
    for (h, qs) in received.iter().enumerate() {
        if qs.len() != m {
            return Err(ProtocolError::InvalidMessage {
                label: "bppsm-queries",
                reason: "wrong number of slot queries",
            });
        }
        let (rand, blinds) = derive(shared_seed);
        let answers: Vec<Vec<u64>> = qs
            .iter()
            .enumerate()
            .map(|(j, q)| {
                // Virtual database: player j's message matrix per item value.
                let msg_for = |bit: bool| {
                    psm::bp::player_message(bp, field, &rand, j, &[(j, bit)])
                        .entries()
                        .to_vec()
                };
                let (msg0, msg1) = (msg_for(false), msg_for(true));
                (0..width)
                    .map(|c| {
                        let vdb: Vec<u64> = db
                            .iter()
                            .map(|&x| if x == 1 { msg1[c] } else { msg0[c] })
                            .collect();
                        poly_it::server_answer_blinded(params, &vdb, q, &blinds[j][c], h)
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let delivered: Vec<Vec<u64>> = t.server_to_client(h, "bppsm-answers", &answers)?;
        if delivered.len() != m || delivered.iter().any(|row| row.len() != width) {
            return Err(ProtocolError::InvalidMessage {
                label: "bppsm-answers",
                reason: "wrong answer matrix shape",
            });
        }
        per_server_answers.push(delivered);
    }

    // Client (referee): reconstruct each player's matrix, sum with p₀, det.
    let mut total = spfe_math::Mat::from_rows(
        (0..d)
            .map(|r| p0_entries[r * d..(r + 1) * d].to_vec())
            .collect(),
        field,
    );
    for j in 0..m {
        let entries: Vec<u64> = (0..width)
            .map(|c| {
                let answers: Vec<u64> = per_server_answers.iter().map(|a| a[j][c]).collect();
                poly_it::client_reconstruct(params, &answers)
            })
            .collect();
        let mat = spfe_math::Mat::from_rows(
            (0..d)
                .map(|r| entries[r * d..(r + 1) * d].to_vec())
                .collect(),
            field,
        );
        total = total.add(&mat);
    }
    let det = total.det();
    Ok(if d % 2 == 1 { field.neg(det) } else { det })
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
