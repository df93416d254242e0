//! The classic 2-server XOR PIR of Chor–Goldreich–Kushilevitz–Sudan \[17\].
//!
//! The client sends a uniformly random subset `S ⊆ [n]` to server 1 and
//! `S Δ {i}` to server 2; each server replies with the XOR of the items in
//! the received subset; XOR-ing the two replies yields item `i`. Each
//! server's view is a uniformly random subset — information-theoretic
//! client privacy against one server. Communication: `n` bits up and one
//! item down, per server.
//!
//! Each party is written once, as a sans-io core (DESIGN.md §15): [`run`]
//! pumps [`Xor2ClientCore`] against [`server_cores`] in process, and the
//! networked server hosts the same server cores.

use spfe_math::RandomSource;
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, Reader, SessionCore,
    SessionState, Wire, WireError,
};
use std::borrow::Cow;

/// A query: a subset of `[n]` as a packed bitmask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xor2Query {
    /// Packed selection bits (LSB-first within each byte).
    pub mask: Vec<u8>,
    /// Number of database items the mask covers.
    pub n: usize,
}

impl Wire for Xor2Query {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        self.mask.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        let mask = Vec::<u8>::decode(r)?;
        if mask.len() != n.div_ceil(8) {
            return Err(WireError {
                context: "xor2 mask length mismatch",
            });
        }
        Ok(Xor2Query { mask, n })
    }
}

impl Xor2Query {
    fn bit(&self, i: usize) -> bool {
        (self.mask[i / 8] >> (i % 8)) & 1 == 1
    }

    fn flip(&mut self, i: usize) {
        self.mask[i / 8] ^= 1 << (i % 8);
    }
}

/// Client: builds the query pair for item `index`.
///
/// # Panics
///
/// Panics if `index >= n` or `n == 0`.
pub fn client_query<R: RandomSource + ?Sized>(
    n: usize,
    index: usize,
    rng: &mut R,
) -> (Xor2Query, Xor2Query) {
    assert!(n > 0 && index < n, "index out of range");
    let mut mask = vec![0u8; n.div_ceil(8)];
    rng.fill_bytes(&mut mask);
    // Clear padding bits beyond n so both servers see canonical masks.
    if !n.is_multiple_of(8) {
        let last = mask.len() - 1;
        mask[last] &= (1u8 << (n % 8)) - 1;
    }
    let q1 = Xor2Query { mask, n };
    let mut q2 = q1.clone();
    q2.flip(index);
    (q1, q2)
}

/// Server: XOR of the selected items.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) query
/// length does not match the database.
///
/// # Panics
///
/// Panics on a ragged database (the server's own data).
pub fn server_answer(db: &[Vec<u8>], query: &Xor2Query) -> Result<Vec<u8>, ProtocolError> {
    if db.len() != query.n {
        return Err(ProtocolError::InvalidMessage {
            label: "pir2-query",
            reason: "query does not match database size",
        });
    }
    spfe_obs::count(spfe_obs::Op::PirWordsScanned, db.len() as u64);
    let len = db.first().map_or(0, |v| v.len());
    let mut acc = vec![0u8; len];
    for (i, item) in db.iter().enumerate() {
        assert_eq!(item.len(), len, "ragged database items");
        if query.bit(i) {
            for (a, &b) in acc.iter_mut().zip(item) {
                *a ^= b;
            }
        }
    }
    Ok(acc)
}

/// Client: combines the two answers.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (server-controlled) answers
/// have different lengths.
pub fn client_combine(a1: &[u8], a2: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if a1.len() != a2.len() {
        return Err(ProtocolError::InvalidMessage {
            label: "pir2-answer",
            reason: "answer lengths differ",
        });
    }
    Ok(a1.iter().zip(a2).map(|(&x, &y)| x ^ y).collect())
}

/// Runs the full 2-server protocol over a metered channel, returning the
/// retrieved item: [`pump`] over a client core and both server cores,
/// which borrow `db`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if the channel does not have exactly 2 servers, or on index
/// out of range (both driver bugs, not attacks).
pub fn run<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    db: &[Vec<u8>],
    index: usize,
    rng: &mut R,
) -> Result<Vec<u8>, ProtocolError> {
    assert_eq!(t.num_servers(), 2, "xor2 PIR needs exactly 2 servers");
    let _proto = spfe_obs::span("pir2");
    let mut client = Xor2ClientCore::new(db.len(), index, rng);
    pump(t, &mut client, &mut server_cores(db))?;
    Ok(client.item.expect("pump returns once the item is combined"))
}

/// The two server cores over `db`: borrowed in process, owned when a
/// networked server hosts them.
pub fn server_cores<'a>(
    db: impl Into<Cow<'a, [Vec<u8>]>>,
) -> Vec<Box<dyn SessionCore + Send + 'a>> {
    let db = db.into();
    (0..2)
        .map(|i| Box::new(Xor2ServerCore::new(i, db.clone())) as Box<dyn SessionCore + Send + 'a>)
        .collect()
}

/// Server half of 2-server XOR PIR as a sans-io state machine: one query
/// in, one answer out.
#[derive(Debug)]
pub struct Xor2ServerCore<'a> {
    once: AnswerOnce,
    db: Cow<'a, [Vec<u8>]>,
}

impl<'a> Xor2ServerCore<'a> {
    /// A core for server `index` holding (or borrowing) `db`.
    pub fn new(index: usize, db: impl Into<Cow<'a, [Vec<u8>]>>) -> Self {
        Xor2ServerCore {
            once: AnswerOnce::new(index, "pir2-query", "pir2-answer"),
            db: db.into(),
        }
    }
}

impl SessionCore for Xor2ServerCore<'_> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let query = Xor2Query::from_bytes(payload)?;
            let _s = spfe_obs::span("server-scan");
            Ok(server_answer(&self.db, &query)?.to_bytes())
        })
    }
}

/// Client half of 2-server XOR PIR: emits both queries at start, combines
/// the two answers. All randomness is consumed at construction.
#[derive(Debug)]
pub struct Xor2ClientCore {
    round: OneRound<Xor2Query, Vec<u8>>,
    item: Option<Vec<u8>>,
}

impl Xor2ClientCore {
    /// A client core retrieving `index` from an `n`-item database.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n` or `n == 0`.
    pub fn new<R: RandomSource + ?Sized>(n: usize, index: usize, rng: &mut R) -> Self {
        let _s = spfe_obs::span("query-gen");
        let (q1, q2) = client_query(n, index, rng);
        Xor2ClientCore {
            round: OneRound::new("pir2-query", "pir2-answer", vec![q1, q2]),
            item: None,
        }
    }

    /// The retrieved item, once the session is done.
    pub fn item(&self) -> Option<&[u8]> {
        self.item.as_deref()
    }
}

impl SessionCore for Xor2ClientCore {
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
        self.item = Some(client_combine(&answers[0], &answers[1])?);
        Ok((SessionState::Done, Vec::new()))
    }
}

impl ClientCore for Xor2ClientCore {
    /// Digest convention of the conformance harness: the byte-sum of the
    /// retrieved item.
    fn digest(&self) -> Option<u64> {
        self.item
            .as_ref()
            .map(|item| item.iter().map(|&b| u64::from(b)).sum())
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_math::XorShiftRng;
    use spfe_transport::Transcript;

    fn db(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn retrieves_every_index() {
        let mut rng = XorShiftRng::new(1);
        let database = db(13, 5);
        for i in 0..13 {
            let mut t = Transcript::new(2);
            assert_eq!(
                run(&mut t, &database, i, &mut rng).unwrap(),
                database[i],
                "i={i}"
            );
        }
    }

    #[test]
    fn communication_is_n_bits_up_item_down() {
        let mut rng = XorShiftRng::new(2);
        let n = 64;
        let database = db(n, 16);
        let mut t = Transcript::new(2);
        run(&mut t, &database, 7, &mut rng).unwrap();
        let rep = t.report();
        assert_eq!(rep.half_rounds, 2); // one round
                                        // Up: 2 masks of n/8 bytes + framing; down: 2 items of 16 bytes + framing.
        assert!(rep.client_to_server >= 2 * (n as u64 / 8));
        assert!(rep.client_to_server < 2 * (n as u64 / 8) + 64);
        assert!(rep.server_to_client >= 32);
    }

    #[test]
    fn queries_differ_exactly_at_index() {
        let mut rng = XorShiftRng::new(3);
        let (q1, q2) = client_query(20, 11, &mut rng);
        for i in 0..20 {
            if i == 11 {
                assert_ne!(q1.bit(i), q2.bit(i));
            } else {
                assert_eq!(q1.bit(i), q2.bit(i));
            }
        }
    }

    #[test]
    fn single_query_is_uniform_ish() {
        // Each server individually sees a random mask: over many runs, each
        // bit is set about half the time regardless of the target index.
        let mut rng = XorShiftRng::new(4);
        let n = 16;
        let runs = 400;
        let mut counts = vec![0u32; n];
        for _ in 0..runs {
            let (q1, _) = client_query(n, 3, &mut rng);
            for (i, c) in counts.iter_mut().enumerate() {
                *c += q1.bit(i) as u32;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (runs / 4..3 * runs / 4).contains(&(c as usize)),
                "bit {i} set {c}/{runs} times"
            );
        }
    }

    #[test]
    fn padding_bits_are_clear() {
        let mut rng = XorShiftRng::new(5);
        let (q1, q2) = client_query(13, 5, &mut rng);
        for q in [&q1, &q2] {
            assert_eq!(q.mask[1] >> 5, 0, "padding bits must be zero");
        }
    }

    #[test]
    fn one_byte_items_and_single_item_db() {
        let mut rng = XorShiftRng::new(6);
        let database = vec![vec![42u8]];
        let mut t = Transcript::new(2);
        assert_eq!(run(&mut t, &database, 0, &mut rng).unwrap(), vec![42u8]);
    }
}
