//! The §3.3.4 light-weight secure protocol for arithmetic circuits.
//!
//! The client holds keys to an additively homomorphic scheme over `Z_u`;
//! the server evaluates the circuit gate by gate *under encryption*:
//!
//! * **addition** and **multiplication by a server-known constant** are
//!   local (`E(v₁)·E(v₂)`, `E(v)^a`);
//! * **multiplication of two encrypted values** takes one interaction: the
//!   server blinds `E(v₁+r₁), E(v₂+r₂)`, the client decrypts, returns
//!   `E((v₁+r₁)(v₂+r₂))`, and the server divides off `E(r₁r₂)`,
//!   `E(v₁r₂) = E(v₁)^{r₂}`, `E(v₂r₁) = E(v₂)^{r₁}`.
//!
//! All multiplications at the same depth are batched into one round, so the
//! round complexity is proportional to the circuit's *multiplicative
//! depth*, with a constant number of exponentiations per gate — the
//! paper's claim. The protocol satisfies weak security against a malicious
//! client: the client only ever sees uniformly blinded values, and
//! substituting wrong products only changes which ≤ m-ary function it
//! learns.

use spfe_circuits::arith::{AGate, ArithCircuit};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_math::modular::mod_mul;
use spfe_math::{Nat, RandomSource};
use spfe_transport::{Channel, ChannelExt, ProtocolError};

/// Runs the §3.3.4 protocol over a metered channel.
///
/// The circuit's first `client_inputs.len()` inputs are the client's
/// (transmitted under encryption), the rest are the server's. The client
/// learns the output values; the server learns nothing.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message from the
/// counterparty.
///
/// # Panics
///
/// Panics if the circuit modulus differs from the scheme's plaintext
/// modulus, or input counts mismatch (local setup bugs, not attacks).
pub fn run<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    circuit: &ArithCircuit,
    client_inputs: &[Nat],
    server_inputs: &[Nat],
    rng: &mut R,
) -> Result<Vec<Nat>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    assert_eq!(
        circuit.modulus(),
        pk.plaintext_modulus(),
        "circuit ring must match the encryption's plaintext group"
    );
    assert_eq!(
        client_inputs.len() + server_inputs.len(),
        circuit.num_inputs(),
        "input split mismatch"
    );
    let u = pk.plaintext_modulus().clone();

    // Round 0: client encrypts and sends its inputs.
    let client_cts: Vec<Vec<u8>> = sk
        .encrypt_batch(pk, client_inputs, rng)
        .iter()
        .map(|ct| pk.ciphertext_to_bytes(ct))
        .collect();
    let client_cts: Vec<Vec<u8>> = t.client_to_server(0, "arith-inputs", &client_cts)?;
    if client_cts.len() != client_inputs.len() {
        return Err(ProtocolError::InvalidMessage {
            label: "arith-inputs",
            reason: "wrong number of client input ciphertexts",
        });
    }

    // Server-side state: one ciphertext per wire, filled in dependency order
    // with multiplication gates batched per depth level.
    let gates = circuit.gates();
    let mut enc: Vec<Option<P::Ciphertext>> = vec![None; gates.len()];
    let server_encrypt = |v: &Nat, rng: &mut R| pk.encrypt(v, rng);

    loop {
        // Evaluate everything local until only Muls block progress.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (i, g) in gates.iter().enumerate() {
                if enc[i].is_some() {
                    continue;
                }
                let val = match g {
                    AGate::Input(idx) => {
                        if *idx < client_inputs.len() {
                            Some(pk.ciphertext_from_bytes(&client_cts[*idx]).ok_or(
                                ProtocolError::InvalidMessage {
                                    label: "arith-inputs",
                                    reason: "malformed client input ciphertext",
                                },
                            )?)
                        } else {
                            Some(server_encrypt(
                                &server_inputs[*idx - client_inputs.len()],
                                rng,
                            ))
                        }
                    }
                    AGate::Const(c) => Some(server_encrypt(c, rng)),
                    AGate::Add(a, b) => match (&enc[*a], &enc[*b]) {
                        (Some(x), Some(y)) => Some(pk.add(x, y)),
                        _ => None,
                    },
                    AGate::Sub(a, b) => match (&enc[*a], &enc[*b]) {
                        (Some(x), Some(y)) => Some(pk.sub(x, y)),
                        _ => None,
                    },
                    AGate::MulConst(a, c) => enc[*a].as_ref().map(|x| pk.mul_const(x, c)),
                    AGate::Mul(..) => None, // handled in batches below
                };
                if let Some(v) = val {
                    enc[i] = Some(v);
                    progressed = true;
                }
            }
        }

        // Collect all ready Mul gates (both operands available).
        let ready: Vec<usize> = gates
            .iter()
            .enumerate()
            .filter(|(i, g)| {
                enc[*i].is_none()
                    && matches!(g, AGate::Mul(a, b) if enc[*a].is_some() && enc[*b].is_some())
            })
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            break;
        }

        // One batched interaction round for this multiplication level.
        let mut blinds: Vec<(Nat, Nat)> = Vec::with_capacity(ready.len());
        let mut blinded_pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(ready.len());
        for &i in &ready {
            let AGate::Mul(a, b) = &gates[i] else {
                unreachable!()
            };
            let r1 = Nat::random_below(rng, &u);
            let r2 = Nat::random_below(rng, &u);
            let e1 = pk.add(enc[*a].as_ref().unwrap(), &pk.encrypt(&r1, rng));
            let e2 = pk.add(enc[*b].as_ref().unwrap(), &pk.encrypt(&r2, rng));
            blinded_pairs.push((pk.ciphertext_to_bytes(&e1), pk.ciphertext_to_bytes(&e2)));
            blinds.push((r1, r2));
        }
        let blinded_pairs: Vec<(Vec<u8>, Vec<u8>)> =
            t.server_to_client(0, "arith-mul-blinded", &blinded_pairs)?;

        // Client: decrypt, multiply in the clear, re-encrypt.
        const BAD_BLINDED: ProtocolError = ProtocolError::InvalidMessage {
            label: "arith-mul-blinded",
            reason: "malformed blinded pair",
        };
        let blinded = blinded_pairs
            .iter()
            .flat_map(|(e1, e2)| [e1, e2])
            .map(|e| pk.ciphertext_from_bytes(e).ok_or(BAD_BLINDED))
            .collect::<Result<Vec<_>, _>>()?;
        let prods: Vec<Nat> = sk
            .decrypt_batch(&blinded)
            .chunks(2)
            .map(|v| mod_mul(&v[0], &v[1], &u))
            .collect();
        let products: Vec<Vec<u8>> = sk
            .encrypt_batch(pk, &prods, rng)
            .iter()
            .map(|ct| pk.ciphertext_to_bytes(ct))
            .collect();
        let products: Vec<Vec<u8>> = t.client_to_server(0, "arith-mul-products", &products)?;
        if products.len() != ready.len() {
            return Err(ProtocolError::InvalidMessage {
                label: "arith-mul-products",
                reason: "wrong number of products",
            });
        }

        // Server: unblind E((v₁+r₁)(v₂+r₂)) → E(v₁v₂).
        for ((&i, (r1, r2)), prod_bytes) in ready.iter().zip(&blinds).zip(&products) {
            let AGate::Mul(a, b) = &gates[i] else {
                unreachable!()
            };
            let e = pk
                .ciphertext_from_bytes(prod_bytes)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "arith-mul-products",
                    reason: "malformed product ciphertext",
                })?;
            let v1r2 = pk.mul_const(enc[*a].as_ref().unwrap(), r2);
            let v2r1 = pk.mul_const(enc[*b].as_ref().unwrap(), r1);
            let r1r2 = pk.encrypt(&mod_mul(r1, r2, &u), rng);
            let mut out = pk.sub(&e, &v1r2);
            out = pk.sub(&out, &v2r1);
            out = pk.sub(&out, &r1r2);
            enc[i] = Some(out);
        }
    }

    // Final: server reveals the (re-randomized) outputs; client decrypts.
    let out_cts: Vec<Vec<u8>> = circuit
        .outputs()
        .iter()
        .map(|&o| {
            let ct = enc[o].as_ref().expect("unevaluated output wire");
            pk.ciphertext_to_bytes(&pk.rerandomize(ct, rng))
        })
        .collect();
    let out_cts: Vec<Vec<u8>> = t.server_to_client(0, "arith-outputs", &out_cts)?;
    out_cts
        .iter()
        .map(|b| {
            Ok(sk.decrypt(
                &pk.ciphertext_from_bytes(b)
                    .ok_or(ProtocolError::InvalidMessage {
                        label: "arith-outputs",
                        reason: "malformed output ciphertext",
                    })?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_circuits::arith::{
        arith_sum_and_squares_circuit, arith_sum_circuit, arith_weighted_sum_circuit,
        ArithCircuitBuilder,
    };
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn setup() -> (spfe_crypto::PaillierPk, spfe_crypto::PaillierSk, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0xA21);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (pk, sk, rng)
    }

    fn nats(vals: &[u64]) -> Vec<Nat> {
        vals.iter().map(|&v| Nat::from(v)).collect()
    }

    #[test]
    fn sum_circuit_no_interaction() {
        let (pk, sk, mut rng) = setup();
        let c = arith_sum_circuit(4, pk.n().clone());
        let mut t = Transcript::new(1);
        let out = run(
            &mut t,
            &pk,
            &sk,
            &c,
            &nats(&[10, 20]),
            &nats(&[30, 40]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out, nats(&[100]));
        // No Mul gates → inputs up, outputs down: exactly 1 round.
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn squares_need_one_mul_round() {
        let (pk, sk, mut rng) = setup();
        let c = arith_sum_and_squares_circuit(3, pk.n().clone());
        let mut t = Transcript::new(1);
        let out = run(&mut t, &pk, &sk, &c, &nats(&[3, 4]), &nats(&[5]), &mut rng).unwrap();
        assert_eq!(out, nats(&[12, 50]));
        // inputs (c→s), blinded (s→c), products (c→s), outputs (s→c) = 2 rounds.
        assert_eq!(t.report().half_rounds, 4);
    }

    #[test]
    fn rounds_proportional_to_mul_depth() {
        let (pk, sk, mut rng) = setup();
        // x^8 via repeated squaring: depth 3.
        let mut b = ArithCircuitBuilder::new(pk.n().clone());
        let x = b.input();
        let x2 = b.mul(x, x);
        let x4 = b.mul(x2, x2);
        let x8 = b.mul(x4, x4);
        b.output(x8);
        let c = b.build();
        assert_eq!(c.mul_depth(), 3);
        let mut t = Transcript::new(1);
        let out = run(&mut t, &pk, &sk, &c, &nats(&[3]), &[], &mut rng).unwrap();
        assert_eq!(out, nats(&[6561]));
        // 1 (inputs) + 3 mul rounds + 1 output half = 2 + 3·2 = 8 half-rounds.
        assert_eq!(t.report().half_rounds, 8);
    }

    #[test]
    fn parallel_muls_share_a_round() {
        let (pk, sk, mut rng) = setup();
        // Four independent products: depth 1 → one batched mul round.
        let mut b = ArithCircuitBuilder::new(pk.n().clone());
        let ins = b.inputs(8);
        for i in 0..4 {
            let p = b.mul(ins[2 * i], ins[2 * i + 1]);
            b.output(p);
        }
        let c = b.build();
        let mut t = Transcript::new(1);
        let out = run(
            &mut t,
            &pk,
            &sk,
            &c,
            &nats(&[1, 2, 3, 4]),
            &nats(&[5, 6, 7, 8]),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out, nats(&[2, 12, 30, 56]));
        assert_eq!(t.report().half_rounds, 4, "all muls in one round");
    }

    #[test]
    fn weighted_sum_is_local() {
        let (pk, sk, mut rng) = setup();
        let coeffs = nats(&[3, 0, 7]);
        let c = arith_weighted_sum_circuit(&coeffs, pk.n().clone());
        let mut t = Transcript::new(1);
        let out = run(&mut t, &pk, &sk, &c, &nats(&[10, 99, 2]), &[], &mut rng).unwrap();
        assert_eq!(out, nats(&[44]));
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn subtraction_wraps() {
        let (pk, sk, mut rng) = setup();
        let mut b = ArithCircuitBuilder::new(pk.n().clone());
        let x = b.input();
        let y = b.input();
        let d = b.sub(x, y);
        b.output(d);
        let c = b.build();
        let mut t = Transcript::new(1);
        let out = run(&mut t, &pk, &sk, &c, &nats(&[5]), &nats(&[8]), &mut rng).unwrap();
        assert_eq!(out[0], pk.n().sub(&Nat::from(3u64)));
    }

    #[test]
    fn works_over_goldwasser_micali_z2() {
        // The protocol is generic over the homomorphic scheme: with GM the
        // ring is Z₂, addition is XOR and multiplication is AND — a tiny
        // secure Boolean computation without garbling.
        use spfe_crypto::GoldwasserMicali;
        let mut rng = ChaChaRng::from_u64_seed(0x62);
        let (pk, sk) = GoldwasserMicali::keygen(128, &mut rng);
        let mut b = ArithCircuitBuilder::new(Nat::from(2u64));
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let xy = b.mul(x, y); // AND
        let out = b.add(xy, z); // XOR
        b.output(out);
        let c = b.build();
        for bits in 0u64..8 {
            let (xv, yv, zv) = (bits & 1, (bits >> 1) & 1, (bits >> 2) & 1);
            let mut t = Transcript::new(1);
            let got = run(
                &mut t,
                &pk,
                &sk,
                &c,
                &nats(&[xv, yv]),
                &nats(&[zv]),
                &mut rng,
            )
            .unwrap();
            assert_eq!(got, nats(&[(xv & yv) ^ zv]), "bits={bits:03b}");
        }
    }

    #[test]
    #[should_panic(expected = "circuit ring")]
    fn modulus_mismatch_rejected() {
        let (pk, sk, mut rng) = setup();
        let c = arith_sum_circuit(2, Nat::from(97u64));
        let mut t = Transcript::new(1);
        let _ = run(&mut t, &pk, &sk, &c, &nats(&[1]), &nats(&[2]), &mut rng);
    }
}
