//! Per-party view fingerprints: the leakage-audit layer (DESIGN.md §14).
//!
//! The paper's security claims are *view* claims: each server's view of a
//! session must be distributed independently of the client's secrets
//! (indices, weights, the selected statistic), and the client's view must
//! reveal nothing about the database beyond the agreed output. The cost
//! probes in this crate never look at views; this module makes the
//! *observable shape* of a view a first-class, hashable object.
//!
//! A [`PartyView`] is the ordered sequence of messages one party observes
//! — `(half_round, sent/received, label, byte length)` per message — plus,
//! for the client only, the session's deterministic op-counter vector (op
//! attribution is process-global, so it cannot be split per server; the
//! client sees every message and drives every decryption, making the
//! session tally part of *its* view). [`PartyView::fingerprint`] hashes a
//! canonical, injective serialization of that data (the `spfe-view/v1`
//! layout) with the module's own SHA-256.
//!
//! What fingerprint equality proves — and doesn't: two runs with the same
//! fingerprints exchanged byte-for-byte *equally sized* messages with the
//! same labels and round structure and did the same deterministic work.
//! It says nothing about message *contents* (a view-shape gate cannot see
//! a key leaked inside a fixed-size ciphertext), and a differential sweep
//! over secrets only certifies the secrets actually swept. See DESIGN.md
//! §14 for the full contract.
//!
//! This module is deliberately dependency-free and feature-independent:
//! fingerprints compute identically with or without `obs-alloc`, so one
//! audit baseline gates every build.

/// Version tag mixed into every canonical serialization; bump on any
/// layout change so old and new fingerprints can never collide.
pub const VIEW_SCHEMA: &str = "spfe-view/v1";

/// The observing party of a [`PartyView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Party {
    /// The client: sees every message of the session.
    Client,
    /// Server `i`: sees only the messages on its own wire.
    Server(usize),
}

impl Party {
    /// Stable machine-readable name (`client`, `server0`, `server1`, …).
    pub fn name(self) -> String {
        match self {
            Party::Client => "client".to_owned(),
            Party::Server(i) => format!("server{i}"),
        }
    }
}

/// One message as observed by one party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewEvent {
    /// Half-round during which the message crossed the wire.
    pub half_round: u32,
    /// `true` when the observing party sent the message, `false` when it
    /// received it.
    pub sent: bool,
    /// Protocol-level wire label (e.g. `"spir-query"`).
    pub label: String,
    /// Serialized size in bytes.
    pub bytes: u64,
}

/// The ordered, shape-only view of one party over one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartyView {
    /// Whose view this is.
    pub party: Party,
    /// Every message the party observed, in wire order.
    pub events: Vec<ViewEvent>,
    /// `(op name, count)` pairs folded into the fingerprint — the
    /// session's deterministic op vector for the client, empty for
    /// servers (see the module docs).
    pub ops: Vec<(String, u64)>,
}

impl PartyView {
    /// A view with no messages and no op vector.
    pub fn new(party: Party) -> Self {
        PartyView {
            party,
            events: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Total bytes observed, split `(sent, received)`.
    pub fn byte_totals(&self) -> (u64, u64) {
        let mut sent = 0;
        let mut received = 0;
        for e in &self.events {
            if e.sent {
                sent += e.bytes;
            } else {
                received += e.bytes;
            }
        }
        (sent, received)
    }

    /// Per-label byte totals in first-use order.
    pub fn bytes_by_label(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for e in &self.events {
            match out.iter_mut().find(|(l, _)| *l == e.label) {
                Some((_, b)) => *b += e.bytes,
                None => out.push((e.label.clone(), e.bytes)),
            }
        }
        out
    }

    /// The canonical `spfe-view/v1` serialization the fingerprint hashes.
    ///
    /// Injective by construction: every variable-length field is length-
    /// prefixed and every section is count-prefixed, so distinct views
    /// serialize to distinct byte strings.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * 24);
        out.extend_from_slice(VIEW_SCHEMA.as_bytes());
        out.push(0);
        match self.party {
            Party::Client => out.push(0xC1),
            Party::Server(i) => {
                out.push(0x51);
                out.extend_from_slice(&(i as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.half_round.to_le_bytes());
            out.push(e.sent as u8);
            out.extend_from_slice(&(e.label.len() as u64).to_le_bytes());
            out.extend_from_slice(e.label.as_bytes());
            out.extend_from_slice(&e.bytes.to_le_bytes());
        }
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for (name, count) in &self.ops {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    /// SHA-256 of [`PartyView::canonical_bytes`].
    pub fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.canonical_bytes())
    }

    /// The fingerprint as lowercase hex (the form reports and baselines
    /// store).
    pub fn fingerprint_hex(&self) -> String {
        to_hex(&self.fingerprint())
    }
}

/// Renders bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// The session's deterministic op vector in the `(name, count)` form
/// [`PartyView::ops`] stores: nonzero deterministic counters only, in
/// [`crate::Op::ALL`] order.
pub fn deterministic_ops(snapshot: &crate::OpsSnapshot) -> Vec<(String, u64)> {
    snapshot
        .deterministic_part()
        .nonzero()
        .map(|(op, c)| (op.name().to_owned(), c))
        .collect()
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4). `spfe-obs` is a dependency-free leaf crate, so it
// carries its own compact implementation rather than pulling in
// `spfe-crypto` (which depends on this crate).
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data` (one-shot).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(half_round: u32, sent: bool, label: &str, bytes: u64) -> ViewEvent {
        ViewEvent {
            half_round,
            sent,
            label: label.to_owned(),
            bytes,
        }
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise the multi-block path (> 64 bytes).
        assert_eq!(
            to_hex(&sha256(&[0x61u8; 100])),
            "2816597888e4a0d3a36b82b83316ab32680eb8f00f8cd3b904d681246d285a0e"
        );
    }

    #[test]
    fn identical_views_fingerprint_identically() {
        let mk = || {
            let mut v = PartyView::new(Party::Server(1));
            v.events = vec![ev(1, false, "q", 128), ev(2, true, "a", 256)];
            v
        };
        assert_eq!(mk().fingerprint(), mk().fingerprint());
        assert_eq!(mk().fingerprint_hex().len(), 64);
    }

    #[test]
    fn any_single_field_change_changes_the_fingerprint() {
        let base = {
            let mut v = PartyView::new(Party::Client);
            v.events = vec![ev(1, true, "q", 128), ev(2, false, "a", 256)];
            v.ops = vec![("modexp".to_owned(), 7)];
            v
        };
        let fp = base.fingerprint();
        let mut label = base.clone();
        label.events[0].label = "qq".to_owned();
        assert_ne!(label.fingerprint(), fp);
        let mut bytes = base.clone();
        bytes.events[1].bytes += 1;
        assert_ne!(bytes.fingerprint(), fp);
        let mut dir = base.clone();
        dir.events[0].sent = false;
        assert_ne!(dir.fingerprint(), fp);
        let mut round = base.clone();
        round.events[1].half_round = 3;
        assert_ne!(round.fingerprint(), fp);
        let mut party = base.clone();
        party.party = Party::Server(0);
        assert_ne!(party.fingerprint(), fp);
        let mut ops = base.clone();
        ops.ops[0].1 = 8;
        assert_ne!(ops.fingerprint(), fp);
    }

    #[test]
    fn event_order_is_part_of_the_fingerprint() {
        let mut a = PartyView::new(Party::Client);
        a.events = vec![ev(1, true, "q", 8), ev(1, true, "r", 8)];
        let mut b = PartyView::new(Party::Client);
        b.events = vec![ev(1, true, "r", 8), ev(1, true, "q", 8)];
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn canonical_serialization_has_no_framing_ambiguity() {
        // One event labeled "ab" vs one labeled "a" followed by junk that
        // could alias it under a non-length-prefixed layout.
        let mut a = PartyView::new(Party::Client);
        a.events = vec![ev(0, true, "ab", 1)];
        let mut b = PartyView::new(Party::Client);
        b.events = vec![ev(0, true, "a", 1), ev(0, true, "b", 1)];
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // An op vector entry is not confusable with an event either.
        let mut c = PartyView::new(Party::Client);
        c.ops = vec![("x".to_owned(), 1)];
        let mut d = PartyView::new(Party::Client);
        d.events = vec![ev(0, false, "x", 1)];
        assert_ne!(c.fingerprint(), d.fingerprint());
    }

    #[test]
    fn byte_totals_and_labels_attribute_by_direction_and_first_use() {
        let mut v = PartyView::new(Party::Server(0));
        v.events = vec![
            ev(1, false, "q", 100),
            ev(2, true, "a", 40),
            ev(3, false, "q", 28),
        ];
        assert_eq!(v.byte_totals(), (40, 128));
        assert_eq!(
            v.bytes_by_label(),
            vec![("q".to_owned(), 128), ("a".to_owned(), 40)]
        );
    }

    #[test]
    fn party_names_are_stable() {
        assert_eq!(Party::Client.name(), "client");
        assert_eq!(Party::Server(0).name(), "server0");
        assert_eq!(Party::Server(11).name(), "server11");
    }
}
