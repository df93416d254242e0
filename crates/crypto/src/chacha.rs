//! ChaCha20 stream cipher and the derived cryptographic RNG.
//!
//! ChaCha20 (RFC 8439) is the workspace's only symmetric primitive for key
//! streams: it backs [`ChaChaRng`] (the cryptographically secure
//! [`RandomSource`]), the garbled-circuit PRF, and PRG-based virtual-database
//! expansion in the PIR substrate.

use spfe_math::RandomSource;

/// ChaCha20 state constants ("expand 32-byte k").
const CONSTANTS: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 block for `(key, counter, nonce)`.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Produces `len` keystream bytes for `(key, nonce)` starting at block 0 —
/// the PRG `G : {0,1}^κ → {0,1}^*` used to expand short seeds into long
/// pads (garbled-circuit key expansion, PIR virtual databases).
pub fn keystream(key: &[u8; 32], nonce: &[u8; 12], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u32;
    while out.len() < len {
        let block = chacha20_block(key, counter, nonce);
        let take = (len - out.len()).min(64);
        out.extend_from_slice(&block[..take]);
        counter = counter.checked_add(1).expect("keystream too long");
    }
    out
}

/// XORs the ChaCha20 keystream into `data` (encrypt == decrypt).
pub fn xor_keystream(key: &[u8; 32], nonce: &[u8; 12], data: &mut [u8]) {
    let ks = keystream(key, nonce, data.len());
    for (d, k) in data.iter_mut().zip(ks) {
        *d ^= k;
    }
}

/// A cryptographically secure RNG built on the ChaCha20 block function.
///
/// # Examples
///
/// ```
/// use spfe_crypto::ChaChaRng;
/// use spfe_math::RandomSource;
/// let mut rng = ChaChaRng::from_seed([7u8; 32]);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    counter: u32,
    buf: [u8; 64],
    pos: usize,
}

impl ChaChaRng {
    /// Deterministic generator from a 32-byte seed (tests, shared PSM
    /// randomness, PRG expansion).
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng {
            key: seed,
            counter: 0,
            buf: [0u8; 64],
            pos: 64,
        }
    }

    /// Deterministic generator from a `u64` seed (convenience for tests).
    pub fn from_u64_seed(seed: u64) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        Self::from_seed(key)
    }

    /// Generator seeded with 32 bytes drawn from `rng`: a stream of its
    /// own that later draws take, so they leave `rng` where it is.
    pub fn from_rng<R: RandomSource + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::from_seed(seed)
    }

    /// Generator seeded from the operating system (`/dev/urandom`).
    ///
    /// # Panics
    ///
    /// Panics if the OS entropy source cannot be read.
    pub fn from_os_entropy() -> Self {
        use std::io::Read;
        let mut seed = [0u8; 32];
        let mut f = std::fs::File::open("/dev/urandom").expect("no OS entropy source available");
        f.read_exact(&mut seed).expect("failed to read OS entropy");
        Self::from_seed(seed)
    }

    fn refill(&mut self) {
        self.buf = chacha20_block(&self.key, self.counter, &[0u8; 12]);
        self.counter = self.counter.wrapping_add(1);
        if self.counter == 0 {
            // Ratchet the key on counter wrap (once per 256 GiB).
            let rekey = chacha20_block(&self.key, u32::MAX, &[0xffu8; 12]);
            self.key.copy_from_slice(&rekey[..32]);
        }
        self.pos = 0;
    }
}

impl RandomSource for ChaChaRng {
    fn next_u64(&mut self) -> u64 {
        if self.pos + 8 > 64 {
            self.refill();
        }
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }

    fn fill_bytes(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            if self.pos >= 64 {
                self.refill();
            }
            *b = self.buf[self.pos];
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 §2.3.2.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        let expect_start = [0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15];
        assert_eq!(&block[..8], &expect_start);
        let expect_end = [0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e];
        assert_eq!(&block[56..], &expect_end);
    }

    #[test]
    fn keystream_is_prefix_consistent() {
        let key = [3u8; 32];
        let nonce = [5u8; 12];
        let long = keystream(&key, &nonce, 200);
        let short = keystream(&key, &nonce, 70);
        assert_eq!(&long[..70], &short[..]);
    }

    #[test]
    fn xor_keystream_roundtrip() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        let mut data = b"selective private function evaluation".to_vec();
        let orig = data.clone();
        xor_keystream(&key, &nonce, &mut data);
        assert_ne!(data, orig);
        xor_keystream(&key, &nonce, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn rng_deterministic_and_seed_sensitive() {
        let mut a = ChaChaRng::from_u64_seed(1);
        let mut b = ChaChaRng::from_u64_seed(1);
        let mut c = ChaChaRng::from_u64_seed(2);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(ChaChaRng::from_u64_seed(1).next_u64(), c.next_u64());
    }

    #[test]
    fn os_entropy_generators_differ() {
        let mut a = ChaChaRng::from_os_entropy();
        let mut b = ChaChaRng::from_os_entropy();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_matches_next_u64_stream() {
        let mut a = ChaChaRng::from_u64_seed(5);
        let mut b = ChaChaRng::from_u64_seed(5);
        let mut buf = [0u8; 16];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1);
    }
}
