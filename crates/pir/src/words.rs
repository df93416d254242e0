//! Multi-word items — `SPIR(n, m, ℓ)` for `ℓ > 64` bits.
//!
//! The paper's protocols retrieve items of several lengths: `log n`-bit
//! field elements (§3.3.2), `κ`-bit encryptions (§3.3.3), and `κ·w`-bit
//! garbled-label bundles (§3.2). An item of `ℓ` bits travels as `⌈ℓ/64⌉`
//! little-endian words, and the word-level SPIR of [`crate::spir`]
//! (`*_words`) and [`crate::batched::run_words`] retrieve it whole: one
//! query shared by every word, the pads of all words in one OT, so the
//! upstream is width-independent and only the downstream grows with `ℓ`.
//! This module holds the byte ↔ word packing.

/// Packs bytes into little-endian u64 words (zero-padded).
pub fn bytes_to_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect()
}

/// Unpacks little-endian u64 words into `len` bytes.
///
/// # Panics
///
/// Panics if `len > 8 * words.len()`.
pub fn words_to_bytes(words: &[u64], len: usize) -> Vec<u8> {
    assert!(len <= 8 * words.len());
    let mut out = Vec::with_capacity(len);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched;
    use crate::spir::{self, SpirParams};
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
    use spfe_transport::Transcript;

    fn setup() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x30D5);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (group, pk, sk, rng)
    }

    fn items(n: usize, w: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| {
                (0..w)
                    .map(|c| (i * 1000 + c) as u64 + u64::MAX / 2)
                    .collect()
            })
            .collect()
    }

    /// One multi-word item through the word-level SPIR phases: query,
    /// scan-and-pad answer, unpad.
    fn retrieve_one(db: &[Vec<u64>], index: usize) -> Vec<u64> {
        let (group, pk, sk, mut rng) = setup();
        let params = SpirParams::new(group, db.len());
        let (q, state) = spir::client_query(&params, &pk, &sk, index, &mut rng);
        let a = spir::server_answer_words(&params, &pk, db, &q, &mut rng).unwrap();
        assert_eq!(a.padded.len(), db[0].len(), "one padded answer per word");
        spir::client_decode_words(&params, &pk, &sk, &state, &a).unwrap()
    }

    #[test]
    fn retrieve_one_multiword() {
        let db = items(9, 3);
        for i in [0usize, 4, 8] {
            assert_eq!(retrieve_one(&db, i), db[i]);
        }
    }

    #[test]
    fn retrieve_many_multiword() {
        let (group, pk, sk, mut rng) = setup();
        let db = items(30, 2);
        let indices = [1usize, 13, 29];
        let mut t = Transcript::new(1);
        let (got, stats) =
            batched::run_words(&mut t, &group, &pk, &sk, &db, &indices, &mut rng).unwrap();
        for (g, &i) in got.iter().zip(&indices) {
            assert_eq!(*g, db[i]);
        }
        assert!(stats.bucket_queries > 0);
    }

    #[test]
    fn byte_word_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 33] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let words = bytes_to_words(&bytes);
            assert_eq!(words_to_bytes(&words, len), bytes, "len={len}");
        }
    }

    #[test]
    fn max_value_words_survive() {
        // Chunks equal to u64::MAX must round-trip through the homomorphic
        // layer (they are < the 128-bit plaintext modulus).
        let db = vec![vec![u64::MAX, 0], vec![1, u64::MAX - 1]];
        assert_eq!(retrieve_one(&db, 0), db[0]);
        assert_eq!(retrieve_one(&db, 1), db[1]);
    }
}
