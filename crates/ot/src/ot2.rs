//! 1-out-of-2 oblivious transfer (Naor–Pinkas style, ref. \[38\]).
//!
//! The base OT of the workspace: the receiver holds a choice bit `b`, the
//! sender holds two equal-length messages `m₀, m₁`; the receiver learns
//! `m_b` and nothing about `m_{1−b}`, the sender learns nothing about `b`.
//! Security is computational (DDH in a Schnorr group) against semi-honest
//! parties — the paper's `SPIR(2, 1, κ)` unit, consumed by the Yao garbling
//! of `spfe-mpc` and the SPIR transforms of `spfe-pir`.
//!
//! Protocol (one round after a reusable setup message):
//!
//! 1. Sender publishes a random group element `C` (reusable across many
//!    transfers).
//! 2. Receiver picks `k`, sets `PK_b = g^k` and sends `PK₀`
//!    (sender derives `PK₁ = C / PK₀`).
//! 3. Sender picks `r₀, r₁` and sends
//!    `(g^{r₀}, H(PK₀^{r₀}) ⊕ m₀)` and `(g^{r₁}, H(PK₁^{r₁}) ⊕ m₁)`.
//! 4. Receiver recovers `m_b = H((g^{r_b})^k) ⊕ c_b`.

use spfe_crypto::sha256::prf;
use spfe_crypto::SchnorrGroup;
use spfe_math::{Nat, RandomSource};
use spfe_transport::{ProtocolError, Reader, Wire, WireError};

/// Sender's reusable setup message: the "forced" public key base `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtSetup {
    /// Random group element.
    pub c: Nat,
}

impl Wire for OtSetup {
    fn encode(&self, out: &mut Vec<u8>) {
        self.c.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OtSetup { c: Nat::decode(r)? })
    }
}

/// Receiver's query: `PK₀`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtQuery {
    /// The public key for branch 0.
    pub pk0: Nat,
}

impl Wire for OtQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pk0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OtQuery {
            pk0: Nat::decode(r)?,
        })
    }
}

/// Sender's transfer message: two ElGamal-style branches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtTransfer {
    /// `g^{r₀}`.
    pub g_r0: Nat,
    /// `m₀ ⊕ H(PK₀^{r₀})`.
    pub c0: Vec<u8>,
    /// `g^{r₁}`.
    pub g_r1: Nat,
    /// `m₁ ⊕ H(PK₁^{r₁})`.
    pub c1: Vec<u8>,
}

impl Wire for OtTransfer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.g_r0.encode(out);
        self.c0.encode(out);
        self.g_r1.encode(out);
        self.c1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OtTransfer {
            g_r0: Nat::decode(r)?,
            c0: Vec::<u8>::decode(r)?,
            g_r1: Nat::decode(r)?,
            c1: Vec::<u8>::decode(r)?,
        })
    }
}

/// Receiver state held between query and output.
#[derive(Debug, Clone)]
pub struct OtReceiverState {
    k: Nat,
    choice: bool,
}

/// Expands a group element into a `len`-byte pad.
fn pad_from_point(point: &Nat, len: usize, tag: u8) -> Vec<u8> {
    let seed = point.to_be_bytes();
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u64;
    while out.len() < len {
        let block = prf(
            &seed,
            b"spfe-ot2-pad",
            &[&[tag][..], &counter.to_le_bytes()].concat(),
        );
        let take = (len - out.len()).min(block.len());
        out.extend_from_slice(&block[..take]);
        counter += 1;
    }
    out
}

fn xor_into(mut data: Vec<u8>, pad: &[u8]) -> Vec<u8> {
    for (d, p) in data.iter_mut().zip(pad) {
        *d ^= p;
    }
    data
}

/// Sender setup: samples the reusable element `C`.
pub fn sender_setup<R: RandomSource + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> OtSetup {
    // C = g^c for random c keeps C in the prime-order subgroup.
    let c = group.pow(group.g(), &group.random_exponent(rng));
    OtSetup { c }
}

/// Deterministic setup from a nothing-up-my-sleeve element: no party knows
/// `log_g C`, so the sender need not transmit a setup message at all. This
/// keeps OT-using protocols at one round.
pub fn deterministic_setup(group: &SchnorrGroup, label: &[u8]) -> OtSetup {
    OtSetup {
        c: group.hash_to_group(label),
    }
}

/// Receiver: builds the query for `choice` and the state to finish later.
pub fn receiver_choose<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    setup: &OtSetup,
    choice: bool,
    rng: &mut R,
) -> (OtQuery, OtReceiverState) {
    let k = group.random_exponent(rng);
    let pk_choice = group.pow(group.g(), &k);
    let pk0 = if choice {
        // PK₀ = C / PK₁
        group.mul(&setup.c, &group.inv(&pk_choice))
    } else {
        pk_choice
    };
    (OtQuery { pk0 }, OtReceiverState { k, choice })
}

/// Sender: answers a query with both encrypted branches.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (receiver-controlled) `PK₀`
/// is zero or not below `p`: it has no inverse to derive `PK₁` from.
/// Nothing is drawn from `rng` or counted then.
///
/// # Panics
///
/// Panics if `m0` and `m1` have different lengths.
pub fn sender_transfer<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    setup: &OtSetup,
    query: &OtQuery,
    m0: &[u8],
    m1: &[u8],
    rng: &mut R,
) -> Result<OtTransfer, ProtocolError> {
    assert_eq!(m0.len(), m1.len(), "OT messages must have equal length");
    let pk0 = &query.pk0;
    if pk0.is_zero() || pk0 >= group.p() {
        return Err(ProtocolError::InvalidMessage {
            label: "ot2-query",
            reason: "base OT query outside the group",
        });
    }
    spfe_obs::count(spfe_obs::Op::Ot2Transfer, 1);
    let pk1 = group.mul(&setup.c, &group.inv(pk0));
    let r0 = group.random_exponent(rng);
    let r1 = group.random_exponent(rng);
    let g_r0 = group.pow(group.g(), &r0);
    let g_r1 = group.pow(group.g(), &r1);
    let pad0 = pad_from_point(&group.pow(pk0, &r0), m0.len(), 0);
    let pad1 = pad_from_point(&group.pow(&pk1, &r1), m1.len(), 1);
    Ok(OtTransfer {
        g_r0,
        c0: xor_into(m0.to_vec(), &pad0),
        g_r1,
        c1: xor_into(m1.to_vec(), &pad1),
    })
}

/// Receiver: recovers `m_choice`.
pub fn receiver_output(
    group: &SchnorrGroup,
    state: &OtReceiverState,
    transfer: &OtTransfer,
) -> Vec<u8> {
    let (g_r, ct, tag) = if state.choice {
        (&transfer.g_r1, &transfer.c1, 1)
    } else {
        (&transfer.g_r0, &transfer.c0, 0)
    };
    let pad = pad_from_point(&group.pow(g_r, &state.k), ct.len(), tag);
    xor_into(ct.clone(), &pad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_crypto::ChaChaRng;

    fn group_and_rng() -> (SchnorrGroup, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0x07);
        let group = SchnorrGroup::generate(96, &mut rng);
        (group, rng)
    }

    #[test]
    fn receiver_gets_chosen_message() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        for choice in [false, true] {
            let (q, st) = receiver_choose(&group, &setup, choice, &mut rng);
            let t =
                sender_transfer(&group, &setup, &q, b"zero-msg", b"one-msgg", &mut rng).unwrap();
            let out = receiver_output(&group, &st, &t);
            let expect: &[u8] = if choice { b"one-msgg" } else { b"zero-msg" };
            assert_eq!(out, expect, "choice={choice}");
        }
    }

    #[test]
    fn other_branch_is_garbage() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        let (q, st) = receiver_choose(&group, &setup, false, &mut rng);
        let t = sender_transfer(&group, &setup, &q, b"aaaaaaaa", b"bbbbbbbb", &mut rng).unwrap();
        // Decrypting the wrong branch with the receiver's key fails.
        let wrong_pad = pad_from_point(&group.pow(&t.g_r1, &st.k), 8, 1);
        let wrong = xor_into(t.c1.clone(), &wrong_pad);
        assert_ne!(wrong, b"bbbbbbbb");
    }

    #[test]
    fn queries_hide_choice_bit_structurally() {
        // Both choice values produce queries that are valid group elements;
        // over many runs the PK₀ distribution is fresh-random either way.
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        let (q0, _) = receiver_choose(&group, &setup, false, &mut rng);
        let (q1, _) = receiver_choose(&group, &setup, true, &mut rng);
        assert_ne!(q0.pk0, q1.pk0);
        assert!(q0.pk0 < *group.p());
        assert!(q1.pk0 < *group.p());
    }

    #[test]
    fn setup_is_reusable_across_transfers() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        for i in 0u8..5 {
            let choice = i % 2 == 1;
            let (q, st) = receiver_choose(&group, &setup, choice, &mut rng);
            let m0 = vec![i; 4];
            let m1 = vec![i + 100; 4];
            let t = sender_transfer(&group, &setup, &q, &m0, &m1, &mut rng).unwrap();
            let out = receiver_output(&group, &st, &t);
            assert_eq!(out, if choice { m1 } else { m0 });
        }
    }

    #[test]
    fn messages_roundtrip_on_wire() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        let bytes = setup.to_bytes();
        assert_eq!(OtSetup::from_bytes(&bytes).unwrap(), setup);
        let (q, _) = receiver_choose(&group, &setup, true, &mut rng);
        assert_eq!(OtQuery::from_bytes(&q.to_bytes()).unwrap(), q);
        let t = sender_transfer(&group, &setup, &q, b"xy", b"zw", &mut rng).unwrap();
        assert_eq!(OtTransfer::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_messages_rejected() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        let (q, _) = receiver_choose(&group, &setup, false, &mut rng);
        let _ = sender_transfer(&group, &setup, &q, b"a", b"bb", &mut rng);
    }

    #[test]
    fn query_outside_the_group_is_a_typed_error() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        for pk0 in [Nat::zero(), group.p().clone(), group.p().add(&Nat::one())] {
            let q = OtQuery { pk0 };
            let before = rng.clone().next_u64();
            let r = sender_transfer(&group, &setup, &q, b"m0", b"m1", &mut rng);
            assert!(matches!(r, Err(ProtocolError::InvalidMessage { .. })));
            assert_eq!(rng.clone().next_u64(), before, "no randomness drawn");
        }
    }

    #[test]
    fn empty_messages_work() {
        let (group, mut rng) = group_and_rng();
        let setup = sender_setup(&group, &mut rng);
        let (q, st) = receiver_choose(&group, &setup, true, &mut rng);
        let t = sender_transfer(&group, &setup, &q, b"", b"", &mut rng).unwrap();
        assert!(receiver_output(&group, &st, &t).is_empty());
    }
}
