//! 1-out-of-n oblivious transfer from `log n` base OTs (Naor–Pinkas \[36,38\]).
//!
//! The sender holds `n` equal-length messages; the receiver learns exactly
//! the one at its index. Construction: the sender samples `L = ⌈log₂ n⌉`
//! key *pairs*; item `i` is encrypted under the XOR of pads derived from the
//! keys selected by the bits of `i`; the receiver obtains its `L` keys via
//! `L` parallel `ot2` executions. All messages for all `L`
//! OTs travel together, so the protocol keeps OT₂'s single round.
//!
//! This is the paper's `SPIR(n, 1, ℓ)` when the `n` messages are the
//! database (symmetric privacy holds because the receiver learns keys for
//! exactly one index combination).

use crate::ot2::{self, OtQuery, OtReceiverState, OtSetup, OtTransfer};
use spfe_crypto::sha256::prf;
use spfe_crypto::SchnorrGroup;
use spfe_math::RandomSource;
use spfe_transport::{ProtocolError, Reader, Wire, WireError};

/// Key length for the per-bit keys.
const KEY_LEN: usize = 16;

/// Number of selection bits for `n` items.
pub fn selection_bits(n: usize) -> usize {
    assert!(n >= 1);
    ((usize::BITS - (n - 1).leading_zeros()).max(1)) as usize
}

/// Receiver query: one base-OT query per selection bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtnQuery {
    /// Base-OT queries, one per bit (LSB first).
    pub bit_queries: Vec<OtQuery>,
}

impl Wire for OtnQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bit_queries.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OtnQuery {
            bit_queries: Vec::<OtQuery>::decode(r)?,
        })
    }
}

/// Sender answer: base-OT transfers for the keys plus all encrypted items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OtnAnswer {
    /// Base-OT transfers (one per selection bit).
    pub bit_transfers: Vec<OtTransfer>,
    /// `n` encrypted items.
    pub ciphertexts: Vec<Vec<u8>>,
}

impl Wire for OtnAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bit_transfers.encode(out);
        self.ciphertexts.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OtnAnswer {
            bit_transfers: Vec::<OtTransfer>::decode(r)?,
            ciphertexts: Vec::<Vec<u8>>::decode(r)?,
        })
    }
}

/// Receiver state across the round.
#[derive(Debug, Clone)]
pub struct OtnReceiverState {
    index: usize,
    bit_states: Vec<OtReceiverState>,
}

/// Pad for item `i` derived from one per-bit key.
fn item_pad(key: &[u8], item: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u64;
    while out.len() < len {
        let block = prf(
            key,
            b"spfe-ot-n-item",
            &[&(item as u64).to_le_bytes()[..], &counter.to_le_bytes()].concat(),
        );
        let take = (len - out.len()).min(block.len());
        out.extend_from_slice(&block[..take]);
        counter += 1;
    }
    out
}

/// Receiver: builds the query for `index` out of `n` items.
///
/// # Panics
///
/// Panics if `index >= n` or `n == 0`.
pub fn receiver_choose<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    setup: &OtSetup,
    n: usize,
    index: usize,
    rng: &mut R,
) -> (OtnQuery, OtnReceiverState) {
    assert!(index < n, "index out of range");
    let bits = selection_bits(n);
    let mut bit_queries = Vec::with_capacity(bits);
    let mut bit_states = Vec::with_capacity(bits);
    for b in 0..bits {
        let choice = (index >> b) & 1 == 1;
        let (q, st) = ot2::receiver_choose(group, setup, choice, rng);
        bit_queries.push(q);
        bit_states.push(st);
    }
    (
        OtnQuery { bit_queries },
        OtnReceiverState { index, bit_states },
    )
}

/// Sender: answers with key transfers and all encrypted items.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (receiver-controlled) query
/// has the wrong number of bit queries, or a bit query outside the group
/// (see [`ot2::sender_transfer`]).
///
/// # Panics
///
/// Panics if items have unequal lengths or `items` is empty.
pub fn sender_answer<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    setup: &OtSetup,
    query: &OtnQuery,
    items: &[Vec<u8>],
    rng: &mut R,
) -> Result<OtnAnswer, ProtocolError> {
    assert!(!items.is_empty());
    let len = items[0].len();
    assert!(
        items.iter().all(|m| m.len() == len),
        "items must have equal length"
    );
    let bits = selection_bits(items.len());
    if query.bit_queries.len() != bits {
        return Err(ProtocolError::InvalidMessage {
            label: "otn-query",
            reason: "bit query arity mismatches the items",
        });
    }
    // Each answer also counts its `log n` base `Ot2Transfer`s below.
    spfe_obs::count(spfe_obs::Op::OtnTransfer, 1);

    // Sample key pairs.
    let mut keys = Vec::with_capacity(bits);
    for _ in 0..bits {
        let mut k0 = vec![0u8; KEY_LEN];
        let mut k1 = vec![0u8; KEY_LEN];
        rng.fill_bytes(&mut k0);
        rng.fill_bytes(&mut k1);
        keys.push((k0, k1));
    }

    // Transfer each key pair through a base OT.
    let bit_transfers = keys
        .iter()
        .zip(&query.bit_queries)
        .map(|((k0, k1), q)| ot2::sender_transfer(group, setup, q, k0, k1, rng))
        .collect::<Result<_, _>>()?;

    // Encrypt every item under its bit-selected keys.
    let ciphertexts = items
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut ct = m.clone();
            for (b, (k0, k1)) in keys.iter().enumerate() {
                let key = if (i >> b) & 1 == 1 { k1 } else { k0 };
                for (c, p) in ct.iter_mut().zip(item_pad(key, i, len)) {
                    *c ^= p;
                }
            }
            ct
        })
        .collect();

    Ok(OtnAnswer {
        bit_transfers,
        ciphertexts,
    })
}

/// Receiver: decrypts its chosen item.
///
/// # Panics
///
/// Panics if the answer shape does not match the receiver state.
pub fn receiver_output(
    group: &SchnorrGroup,
    state: &OtnReceiverState,
    answer: &OtnAnswer,
) -> Vec<u8> {
    assert_eq!(answer.bit_transfers.len(), state.bit_states.len());
    assert!(state.index < answer.ciphertexts.len());
    let mut item = answer.ciphertexts[state.index].clone();
    let len = item.len();
    for (st, tr) in state.bit_states.iter().zip(&answer.bit_transfers) {
        let key = ot2::receiver_output(group, st, tr);
        for (c, p) in item.iter_mut().zip(item_pad(&key, state.index, len)) {
            *c ^= p;
        }
    }
    item
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ot2::sender_setup;
    use spfe_crypto::ChaChaRng;

    fn setup() -> (SchnorrGroup, OtSetup, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0x0123);
        let group = SchnorrGroup::generate(96, &mut rng);
        let s = sender_setup(&group, &mut rng);
        (group, s, rng)
    }

    #[test]
    fn selection_bits_known() {
        assert_eq!(selection_bits(1), 1);
        assert_eq!(selection_bits(2), 1);
        assert_eq!(selection_bits(3), 2);
        assert_eq!(selection_bits(16), 4);
        assert_eq!(selection_bits(17), 5);
    }

    #[test]
    fn all_indices_of_small_database() {
        let (group, s, mut rng) = setup();
        let items: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i, i * 2, i * 3]).collect();
        for index in 0..items.len() {
            let (q, st) = receiver_choose(&group, &s, items.len(), index, &mut rng);
            let a = sender_answer(&group, &s, &q, &items, &mut rng).unwrap();
            assert_eq!(receiver_output(&group, &st, &a), items[index], "i={index}");
        }
    }

    #[test]
    fn power_of_two_database() {
        let (group, s, mut rng) = setup();
        let items: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10]).collect();
        let (q, st) = receiver_choose(&group, &s, 8, 6, &mut rng);
        let a = sender_answer(&group, &s, &q, &items, &mut rng).unwrap();
        assert_eq!(receiver_output(&group, &st, &a), vec![6u8; 10]);
    }

    #[test]
    fn non_chosen_items_stay_hidden() {
        let (group, s, mut rng) = setup();
        let items: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let (q, st) = receiver_choose(&group, &s, 4, 1, &mut rng);
        let a = sender_answer(&group, &s, &q, &items, &mut rng).unwrap();
        // Attempt to decrypt a different index with the received keys: the
        // keys obtained are for index 1's bits, so index 2 (differing in
        // both bits) stays encrypted.
        let mut forged = a.ciphertexts[2].clone();
        for (b, (bst, tr)) in st.bit_states.iter().zip(&a.bit_transfers).enumerate() {
            let key = ot2::receiver_output(&group, bst, tr);
            let _ = b;
            for (c, p) in forged.iter_mut().zip(item_pad(&key, 2, 8)) {
                *c ^= p;
            }
        }
        assert_ne!(forged, items[2]);
    }

    #[test]
    fn single_item_database() {
        let (group, s, mut rng) = setup();
        let items = vec![b"only".to_vec()];
        let (q, st) = receiver_choose(&group, &s, 1, 0, &mut rng);
        let a = sender_answer(&group, &s, &q, &items, &mut rng).unwrap();
        assert_eq!(receiver_output(&group, &st, &a), b"only");
    }

    #[test]
    fn wire_roundtrip() {
        let (group, s, mut rng) = setup();
        let items: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 4]).collect();
        let (q, st) = receiver_choose(&group, &s, 3, 2, &mut rng);
        let q2 = OtnQuery::from_bytes(&q.to_bytes()).unwrap();
        let a = sender_answer(&group, &s, &q2, &items, &mut rng).unwrap();
        let a2 = OtnAnswer::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(receiver_output(&group, &st, &a2), items[2]);
    }

    #[test]
    fn malformed_queries_are_typed_errors() {
        let (group, s, mut rng) = setup();
        let items: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let (q, _) = receiver_choose(&group, &s, 4, 1, &mut rng);
        let mut short = q.clone();
        short.bit_queries.pop();
        let mut zero = q.clone();
        zero.bit_queries[1].pk0 = spfe_math::Nat::zero();
        for bad in [short, zero] {
            let r = sender_answer(&group, &s, &bad, &items, &mut rng);
            assert!(matches!(r, Err(ProtocolError::InvalidMessage { .. })));
        }
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_index_rejected() {
        let (group, s, mut rng) = setup();
        let _ = receiver_choose(&group, &s, 4, 4, &mut rng);
    }
}
