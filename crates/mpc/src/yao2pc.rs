//! 1-round secure two-party computation from Yao garbling + OT — the
//! paper's `MPC(m, s)` primitive with cost `m × SPIR(2,1,κ) + O(κ·s)`.
//!
//! Convention: the circuit's first `server_bits.len()` inputs belong to the
//! garbler (server), the rest to the evaluator (client). The client opens
//! the round with one base-OT query per input bit (the deterministic OT
//! setup removes the server-first setup flow); the server replies with the
//! garbled circuit, its own active input labels, and the OT transfers of
//! the client's labels. The client evaluates and learns the output — and
//! only the output (weak-security discussion of §3.3: a malicious client
//! can substitute its *own* share bits, which changes only which function
//! of ≤ m positions it learns). [`run`] is `pump` over the two sans-io
//! cores, [`YaoClientCore`] and [`YaoServerCore`].

use crate::garble::{self, GarbledCircuit, Label};
use spfe_circuits::boolean::Circuit;
use spfe_crypto::SchnorrGroup;
use spfe_math::RandomSource;
use spfe_ot::ot2;
use spfe_transport::{
    pump, AnswerOnce, Channel, ClientCore, OneRound, OutMsg, ProtocolError, Reader, SessionCore,
    SessionState, Wire, WireError,
};
use std::borrow::Cow;

/// Domain label for the deterministic OT setup.
const OT_LABEL: &[u8] = b"spfe-yao2pc-input-ot";

/// Client's opening message: one OT query per client input bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YaoQuery {
    /// OT queries, one per client input bit in order.
    pub label_ots: Vec<ot2::OtQuery>,
}

impl Wire for YaoQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label_ots.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(YaoQuery {
            label_ots: Vec::<ot2::OtQuery>::decode(r)?,
        })
    }
}

/// Server's reply: garbled circuit + garbler labels + OT transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YaoReply {
    /// The garbled tables/decode info.
    pub garbled: GarbledCircuit,
    /// Active labels of the server's own inputs.
    pub server_labels: Vec<Label>,
    /// OT transfers carrying the client's input labels.
    pub label_transfers: Vec<ot2::OtTransfer>,
}

impl Wire for YaoReply {
    fn encode(&self, out: &mut Vec<u8>) {
        self.garbled.encode(out);
        self.server_labels.encode(out);
        self.label_transfers.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(YaoReply {
            garbled: GarbledCircuit::decode(r)?,
            server_labels: Vec::<Label>::decode(r)?,
            label_transfers: Vec::<ot2::OtTransfer>::decode(r)?,
        })
    }
}

/// Client state across the round.
#[derive(Debug)]
pub struct YaoClientState {
    ot_states: Vec<ot2::OtReceiverState>,
}

/// Client: builds the OT queries for its input bits.
pub fn client_query<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    client_bits: &[bool],
    rng: &mut R,
) -> (YaoQuery, YaoClientState) {
    let setup = ot2::deterministic_setup(group, OT_LABEL);
    let mut label_ots = Vec::with_capacity(client_bits.len());
    let mut ot_states = Vec::with_capacity(client_bits.len());
    for &bit in client_bits {
        let (q, st) = ot2::receiver_choose(group, &setup, bit, rng);
        label_ots.push(q);
        ot_states.push(st);
    }
    (YaoQuery { label_ots }, YaoClientState { ot_states })
}

/// Server: garbles and answers.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) query
/// arity does not fit the circuit's input split, or a label-OT query is
/// outside the group.
pub fn server_reply<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    circuit: &Circuit,
    server_bits: &[bool],
    query: &YaoQuery,
    rng: &mut R,
) -> Result<YaoReply, ProtocolError> {
    let n_client = query.label_ots.len();
    if server_bits.len() + n_client != circuit.num_inputs() {
        return Err(ProtocolError::InvalidMessage {
            label: "yao-query",
            reason: "input split does not match circuit",
        });
    }
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let (garbled, secrets) = garble::garble(circuit, seed);
    let server_labels = server_bits
        .iter()
        .enumerate()
        .map(|(i, &b)| secrets.input_label(i, b))
        .collect();
    let setup = ot2::deterministic_setup(group, OT_LABEL);
    let label_transfers = query
        .label_ots
        .iter()
        .enumerate()
        .map(|(j, q)| {
            let (l0, l1) = secrets.input_label_pair(server_bits.len() + j);
            ot2::sender_transfer(group, &setup, q, &l0, &l1, rng)
        })
        .collect::<Result<_, _>>()?;
    Ok(YaoReply {
        garbled,
        server_labels,
        label_transfers,
    })
}

/// Client: recovers its labels and evaluates.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on a structurally inconsistent
/// (server-controlled) reply: wrong OT/label arity, wrong label size, or a
/// garbled circuit that does not match the agreed circuit shape.
pub fn client_evaluate(
    group: &SchnorrGroup,
    circuit: &Circuit,
    state: &YaoClientState,
    reply: &YaoReply,
) -> Result<Vec<bool>, ProtocolError> {
    const BAD: ProtocolError = ProtocolError::InvalidMessage {
        label: "yao-reply",
        reason: "reply inconsistent with circuit",
    };
    if state.ot_states.len() != reply.label_transfers.len()
        || reply.server_labels.len() + state.ot_states.len() != circuit.num_inputs()
        || !garble::is_well_formed(circuit, &reply.garbled)
    {
        return Err(BAD);
    }
    let mut labels: Vec<Label> = reply.server_labels.clone();
    for (st, tr) in state.ot_states.iter().zip(&reply.label_transfers) {
        let bytes = ot2::receiver_output(group, st, tr);
        labels.push(Label::try_from(bytes.as_slice()).map_err(|_| BAD)?);
    }
    Ok(garble::evaluate(circuit, &reply.garbled, &labels))
}

/// Runs the full 1-round protocol over a metered channel: [`pump`] over
/// a [`YaoClientCore`] and a [`YaoServerCore`], which borrow `circuit`
/// and `rng`. Returns the output bits (known to the client).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
pub fn run<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    circuit: &Circuit,
    server_bits: &[bool],
    client_bits: &[bool],
    rng: &mut R,
) -> Result<Vec<bool>, ProtocolError> {
    let mut client = YaoClientCore::new(group.clone(), Cow::Borrowed(circuit), client_bits, rng);
    let server = YaoServerCore::new(
        group.clone(),
        Cow::Borrowed(circuit),
        server_bits.to_vec(),
        rng,
    );
    pump(t, &mut client, &mut [Box::new(server)])?;
    Ok(client.output.unwrap_or_default())
}

/// The garbler's half of [`run`] as a sans-io machine: on the client's
/// OT queries it garbles `circuit` and replies with its own input labels
/// and the label transfers, drawing the garbling seed and the OT
/// randomness from `rng`.
#[derive(Debug)]
pub struct YaoServerCore<'a, G> {
    once: AnswerOnce,
    group: SchnorrGroup,
    circuit: Cow<'a, Circuit>,
    server_bits: Vec<bool>,
    rng: G,
}

impl<'a, G: RandomSource> YaoServerCore<'a, G> {
    /// A garbler holding its input bits `server_bits`, the circuit's
    /// first inputs.
    pub fn new(
        group: SchnorrGroup,
        circuit: Cow<'a, Circuit>,
        server_bits: Vec<bool>,
        rng: G,
    ) -> Self {
        YaoServerCore {
            once: AnswerOnce::new(0, "yao-query", "yao-reply"),
            group,
            circuit,
            server_bits,
            rng,
        }
    }
}

impl<G: RandomSource> SessionCore for YaoServerCore<'_, G> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.once.answer(label, || {
            let query = YaoQuery::from_bytes(payload)?;
            let reply = server_reply(
                &self.group,
                &self.circuit,
                &self.server_bits,
                &query,
                &mut self.rng,
            )?;
            Ok(reply.to_bytes())
        })
    }
}

/// The evaluator's half of [`run`]: one OT query per input bit, drawn at
/// construction; on the reply, the circuit's output bits.
#[derive(Debug)]
pub struct YaoClientCore<'a> {
    group: SchnorrGroup,
    circuit: Cow<'a, Circuit>,
    state: YaoClientState,
    round: OneRound<YaoQuery, YaoReply>,
    output: Option<Vec<bool>>,
}

impl<'a> YaoClientCore<'a> {
    /// An evaluator holding `client_bits`, the circuit's last inputs.
    pub fn new<R: RandomSource + ?Sized>(
        group: SchnorrGroup,
        circuit: Cow<'a, Circuit>,
        client_bits: &[bool],
        rng: &mut R,
    ) -> Self {
        let (query, state) = client_query(&group, client_bits, rng);
        YaoClientCore {
            group,
            circuit,
            state,
            round: OneRound::new("yao-query", "yao-reply", vec![query]),
            output: None,
        }
    }

    /// The circuit's output bits, once evaluated.
    pub fn output(&self) -> Option<&[bool]> {
        self.output.as_deref()
    }
}

impl SessionCore for YaoClientCore<'_> {
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
        let Some(replies) = self.round.receive(server, label, payload)? else {
            return Ok((SessionState::Running, Vec::new()));
        };
        self.output = Some(client_evaluate(
            &self.group,
            &self.circuit,
            &self.state,
            &replies[0],
        )?);
        Ok((SessionState::Done, Vec::new()))
    }
}

impl ClientCore for YaoClientCore<'_> {
    /// The output bits, little-endian, folded into 64 bits by XOR: the
    /// output value itself when it fits.
    fn digest(&self) -> Option<u64> {
        let bits = self.output.as_ref()?;
        Some(
            bits.iter()
                .enumerate()
                .fold(0, |acc, (i, &b)| acc ^ (u64::from(b) << (i % 64))),
        )
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.round.static_label(label)
    }
}

/// Packs a `u64` into `width` little-endian bits.
pub fn to_bits(v: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (v >> i) & 1 == 1).collect()
}

/// Unpacks little-endian bits into a `u64`.
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_circuits::builders::{bits_for, share_sum_mod_circuit, sum_circuit};
    use spfe_crypto::ChaChaRng;
    use spfe_transport::Transcript;

    fn setup() -> (SchnorrGroup, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0x2FC);
        (SchnorrGroup::generate(96, &mut rng), rng)
    }

    #[test]
    fn computes_sum_of_split_inputs() {
        let (group, mut rng) = setup();
        // Sum of 4 words: server holds 2, client holds 2.
        let c = sum_circuit(4, 4);
        let server_vals = [3u64, 9];
        let client_vals = [14u64, 1];
        let server_bits: Vec<bool> = server_vals.iter().flat_map(|&v| to_bits(v, 4)).collect();
        let client_bits: Vec<bool> = client_vals.iter().flat_map(|&v| to_bits(v, 4)).collect();
        let mut t = Transcript::new(1);
        let out = run(&mut t, &group, &c, &server_bits, &client_bits, &mut rng).unwrap();
        assert_eq!(from_bits(&out), 27);
        assert_eq!(t.report().half_rounds, 2, "must be one round");
    }

    #[test]
    fn share_reconstruction_inside_mpc() {
        // The actual SPFE MPC phase: f(x) from additive shares mod p.
        let (group, mut rng) = setup();
        let p = 97u64;
        let m = 3;
        let w = bits_for(p - 1);
        let c = share_sum_mod_circuit(m, p);
        let xs = [50u64, 96, 20];
        let a_shares = [13u64, 55, 96];
        let b_shares: Vec<u64> = xs
            .iter()
            .zip(&a_shares)
            .map(|(&x, &a)| (x + p - a) % p)
            .collect();
        let server_bits: Vec<bool> = a_shares.iter().flat_map(|&v| to_bits(v, w)).collect();
        let client_bits: Vec<bool> = b_shares.iter().flat_map(|&v| to_bits(v, w)).collect();
        let mut t = Transcript::new(1);
        let out = run(&mut t, &group, &c, &server_bits, &client_bits, &mut rng).unwrap();
        assert_eq!(from_bits(&out), xs.iter().sum::<u64>() % p);
    }

    #[test]
    fn all_client_inputs() {
        let (group, mut rng) = setup();
        let c = sum_circuit(2, 3);
        let client_bits: Vec<bool> = [5u64, 6].iter().flat_map(|&v| to_bits(v, 3)).collect();
        let mut t = Transcript::new(1);
        let out = run(&mut t, &group, &c, &[], &client_bits, &mut rng).unwrap();
        assert_eq!(from_bits(&out), 11);
    }

    #[test]
    fn all_server_inputs() {
        let (group, mut rng) = setup();
        let c = sum_circuit(2, 3);
        let server_bits: Vec<bool> = [5u64, 6].iter().flat_map(|&v| to_bits(v, 3)).collect();
        let mut t = Transcript::new(1);
        let out = run(&mut t, &group, &c, &server_bits, &[], &mut rng).unwrap();
        assert_eq!(from_bits(&out), 11);
    }

    #[test]
    fn cost_splits_as_table1_says() {
        // Communication = |garbled circuit| (κ·C_f term) + per-client-bit OT
        // (m × SPIR(2,1,κ) term).
        let (group, mut rng) = setup();
        let c = sum_circuit(4, 4);
        let client_bits = vec![true; 8];
        let server_bits = vec![false; 8];
        let mut t = Transcript::new(1);
        run(&mut t, &group, &c, &server_bits, &client_bits, &mut rng).unwrap();
        let rep = t.report();
        // The reply dominates (garbled circuit ≫ queries).
        assert!(rep.server_to_client > rep.client_to_server);
        // Doubling the circuit roughly doubles the reply.
        let c2 = sum_circuit(8, 4);
        let mut t2 = Transcript::new(1);
        run(&mut t2, &group, &c2, &[false; 16], &[true; 16], &mut rng).unwrap();
        let ratio = t2.report().server_to_client as f64 / rep.server_to_client as f64;
        assert!(ratio > 1.4 && ratio < 3.0, "ratio {ratio}");
    }

    /// A client-chosen label-OT `PK₀` of 0 or `p` has no group inverse:
    /// the reply is a typed error, not a panic in the OT sender.
    #[test]
    fn label_ot_query_outside_the_group_is_a_typed_error() {
        let (group, mut rng) = setup();
        let c = sum_circuit(2, 3);
        let (q, _) = client_query(&group, &to_bits(6, 3), &mut rng);
        for pk0 in [spfe_math::Nat::zero(), group.p().clone()] {
            let mut bad = q.clone();
            bad.label_ots[1].pk0 = pk0;
            let r = server_reply(&group, &c, &to_bits(5, 3), &bad, &mut rng);
            assert!(matches!(r, Err(ProtocolError::InvalidMessage { .. })));
        }
    }

    #[test]
    fn bit_helpers_roundtrip() {
        for v in [0u64, 1, 255, 12345] {
            assert_eq!(from_bits(&to_bits(v, 20)), v);
        }
    }
}
