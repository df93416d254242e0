//! Sans-io session cores: protocol state machines with the transport
//! fully external.
//!
//! A [`SessionCore`] is one party's half of a protocol as a pure message
//! processor — *message in → new state + messages out* — with no channel,
//! socket, rng, or clock inside. The driver that owns the transport feeds
//! it delivered bytes and carries its emissions; the same core therefore
//! runs unchanged over the in-memory [`Transcript`](crate::Transcript),
//! the fault-injecting [`crate::FaultyChannel`], or a TCP stream, and the
//! conformance matrix (`tests/net_conformance.rs`) proves all three
//! produce byte-identical transcripts.
//!
//! [`pump`] is the in-memory driver: it runs a client core against a set
//! of server cores over any [`Channel`], phase by phase (all client →
//! server messages of a burst, then all server replies in server order).
//! A protocol's in-process `run()` is `pump` over its cores, and the
//! networked client delivers in the same order, so the metered half-round
//! structure — and hence every audit fingerprint — is one and the same
//! in memory and over a socket.

use crate::channel::{deliver_with_retry, Channel};
use crate::error::ProtocolError;
use crate::lamport::Lamport;
use crate::meter::Direction;
use crate::wire::Wire;
use spfe_obs::SpanGuard;

/// Where a session core stands after processing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// More messages are expected.
    Running,
    /// The core has produced its final output (or sent its last message).
    Done,
}

/// A message a core asks its driver to deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutMsg {
    /// The server on the non-client end of the message.
    pub server: usize,
    /// Direction (`true` = client → server).
    pub client_to_server: bool,
    /// Protocol label (the label the transcript meters).
    pub label: &'static str,
    /// The `Wire` encoding of the protocol message.
    pub payload: Vec<u8>,
}

impl OutMsg {
    /// A client → server message.
    pub fn to_server(server: usize, label: &'static str, payload: Vec<u8>) -> OutMsg {
        OutMsg {
            server,
            client_to_server: true,
            label,
            payload,
        }
    }

    /// A server → client message from server `server`.
    pub fn to_client(server: usize, label: &'static str, payload: Vec<u8>) -> OutMsg {
        OutMsg {
            server,
            client_to_server: false,
            label,
            payload,
        }
    }
}

/// One party's half of a protocol as an explicit state machine.
///
/// Object-safe; implementations live next to the protocol code they
/// extract (e.g. `spfe_pir::xor2::Xor2ServerCore`). A client core
/// consumes all its randomness at construction, so its behaviour is a
/// pure function of the messages fed to it. A client core that draws
/// again after the server has answered (a [`Then`] whose second phase
/// encrypts or picks OT choices) seeds one generator from the caller's
/// rng at construction, after its opening draws, and takes every later
/// draw from that stream. A server core that draws while answering
/// (pads, OT keys, masks) holds its rng: the caller's, borrowed, in
/// process, or its own fresh one when a networked server hosts it.
pub trait SessionCore {
    /// Messages to send before anything is received (client cores emit
    /// their opening queries here; server cores usually emit nothing).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the core cannot open the session.
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        Ok((SessionState::Running, Vec::new()))
    }

    /// Feeds one delivered message: `server` is the peer on the other end
    /// (for a server core, its own index), `half_round` the receiver-side
    /// half-round counter, `payload` the bytes as seen by this party.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on malformed bytes or protocol violations; the
    /// driver aborts the session and surfaces the error.
    fn on_message(
        &mut self,
        half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError>;
}

/// The message discipline of a one-round server core: exactly one
/// `query`-labelled message in, one `reply`-labelled answer out.
#[derive(Debug)]
pub struct AnswerOnce {
    server: usize,
    query: &'static str,
    reply: &'static str,
    answered: bool,
}

impl AnswerOnce {
    /// Server `server`'s discipline for the `query` → `reply` exchange.
    pub fn new(server: usize, query: &'static str, reply: &'static str) -> Self {
        AnswerOnce {
            server,
            query,
            reply,
            answered: false,
        }
    }

    /// Answers the one query with the bytes `answer` produces.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidMessage`] for a foreign label or a second
    /// query; any error of `answer`.
    pub fn answer(
        &mut self,
        label: &str,
        answer: impl FnOnce() -> Result<Vec<u8>, ProtocolError>,
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.accept(label)?;
        let payload = answer()?;
        self.answered = true;
        let reply = OutMsg::to_client(self.server, self.reply, payload);
        Ok((SessionState::Done, vec![reply]))
    }

    /// Answers the one query with one `reply`-labelled message per payload
    /// `answer` produces, in order (one per database, say).
    ///
    /// # Errors
    ///
    /// As [`AnswerOnce::answer`].
    pub fn answer_each(
        &mut self,
        label: &str,
        answer: impl FnOnce() -> Result<Vec<Vec<u8>>, ProtocolError>,
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        self.accept(label)?;
        let payloads = answer()?;
        self.answered = true;
        let replies = payloads
            .into_iter()
            .map(|payload| OutMsg::to_client(self.server, self.reply, payload))
            .collect();
        Ok((SessionState::Done, replies))
    }

    fn accept(&self, label: &str) -> Result<(), ProtocolError> {
        if label != self.query || self.answered {
            return Err(ProtocolError::InvalidMessage {
                label: self.query,
                reason: "unexpected message for a one-round server",
            });
        }
        Ok(())
    }
}

/// The message discipline of a one-round client core: one `query`
/// message `Q` to each server at start, then one `reply` from each
/// server (or [`OneRound::with_replies`] of them), decoded as `A`.
#[derive(Debug)]
pub struct OneRound<Q, A> {
    query: &'static str,
    reply: &'static str,
    queries: Option<Vec<Q>>,
    /// Server `h`'s replies fill the `h`-th chunk of `replies` slots.
    answers: Vec<Option<A>>,
    replies: usize,
}

impl<Q: Wire, A: Wire> OneRound<Q, A> {
    /// A round sending `queries[h]` to server `h`.
    pub fn new(query: &'static str, reply: &'static str, queries: Vec<Q>) -> Self {
        let answers = queries.iter().map(|_| None).collect();
        OneRound {
            query,
            reply,
            queries: Some(queries),
            answers,
            replies: 1,
        }
    }

    /// A round in which every server sends `replies` replies to its query.
    ///
    /// # Panics
    ///
    /// Panics if `replies == 0`.
    #[must_use]
    pub fn with_replies(mut self, replies: usize) -> Self {
        assert!(replies >= 1, "a round needs a reply");
        self.answers = (0..self.answers.len() * replies).map(|_| None).collect();
        self.replies = replies;
        self
    }

    /// The opening burst: every query, encoded.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidMessage`] if the round was already started.
    pub fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let queries = self.queries.take().ok_or(ProtocolError::InvalidMessage {
            label: self.query,
            reason: "client core started twice",
        })?;
        let outs = queries
            .iter()
            .enumerate()
            .map(|(h, q)| OutMsg::to_server(h, self.query, q.to_bytes()))
            .collect();
        Ok((SessionState::Running, outs))
    }

    /// Records a reply of server `server`; once every server has sent all
    /// its replies, returns them in server order (each server's in
    /// arrival order).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidMessage`] for a foreign label, a reply
    /// before the round started, an unknown server or a reply past its
    /// count; a decode error for malformed bytes.
    pub fn receive(
        &mut self,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<Option<Vec<A>>, ProtocolError> {
        let unexpected = ProtocolError::InvalidMessage {
            label: self.reply,
            reason: "unexpected message for a one-round client",
        };
        if label != self.reply || self.queries.is_some() {
            return Err(unexpected);
        }
        let slot = self
            .answers
            .chunks_mut(self.replies)
            .nth(server)
            .and_then(|chunk| chunk.iter_mut().find(|a| a.is_none()))
            .ok_or(unexpected)?;
        *slot = Some(A::from_bytes(payload)?);
        if !self.answers.iter().all(Option::is_some) {
            return Ok(None);
        }
        Ok(std::mem::take(&mut self.answers).into_iter().collect())
    }

    /// [`ClientCore::static_label`] for this round's reply label.
    pub fn static_label(&self, label: &str) -> Option<&'static str> {
        (label == self.reply).then_some(self.reply)
    }
}

/// A client-side [`SessionCore`] that reduces the protocol result to the
/// `u64` digest convention the conformance harness uses.
pub trait ClientCore: SessionCore {
    /// The digest of the protocol result, once [`SessionState::Done`].
    fn digest(&self) -> Option<u64>;

    /// Maps a wire label back into the protocol's static label set, so a
    /// networked driver can meter received frames with the same
    /// `&'static str` labels the in-memory transcript uses. `None` marks
    /// the label as foreign to this protocol.
    fn static_label(&self, label: &str) -> Option<&'static str>;
}

/// Two cores run back to back as one: `A` until it is done, then `B`,
/// built from `A` by `build` (which consumes `A`: its results and, on a
/// server, its rng). The client side emits `B`'s opening burst in the
/// step that finishes `A`, so the phase switch costs no extra half-round;
/// the server side builds `B` as soon as `A` has answered.
pub struct Then<A, B, F> {
    first: Option<A>,
    second: Option<B>,
    build: Option<F>,
    /// A client's open phase span, and the name of the second phase's.
    span: Option<SpanGuard>,
    next_span: &'static str,
}

impl<A, B, F> Then<A, B, F>
where
    A: SessionCore,
    B: SessionCore,
    F: FnOnce(A) -> Result<B, ProtocolError>,
{
    /// Runs `first`, then the core `build` makes from it.
    pub fn new(first: A, build: F) -> Self {
        Then {
            first: Some(first),
            second: None,
            build: Some(build),
            span: None,
            next_span: "",
        }
    }

    /// Runs the phases inside spans, for the client: `open` (opened
    /// around the construction of `first`) until `first` is done, then a
    /// span named `next` until the second phase is done. Held across
    /// steps, each span also covers the deliveries of its phase, as the
    /// span of a phase run alone does. Server cores run unspanned, so in
    /// process their phase spans nest under the client's.
    #[must_use]
    pub fn in_spans(mut self, open: SpanGuard, next: &'static str) -> Self {
        self.span = Some(open);
        self.next_span = next;
        self
    }

    /// The second phase's core, once the first is done.
    pub fn second(&self) -> Option<&B> {
        self.second.as_ref()
    }

    /// Moves on to `B` once `A` reports [`SessionState::Done`].
    fn advance(
        &mut self,
        state: SessionState,
        mut outs: Vec<OutMsg>,
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        if state == SessionState::Running {
            return Ok((state, outs));
        }
        let (Some(first), Some(build)) = (self.first.take(), self.build.take()) else {
            return Err(ended());
        };
        if self.span.take().is_some() {
            self.span = Some(spfe_obs::span(self.next_span));
        }
        let mut second = build(first)?;
        let (state, opening) = second.start()?;
        outs.extend(opening);
        self.second = Some(second);
        Ok((self.close_when_done(state), outs))
    }

    fn close_when_done(&mut self, state: SessionState) -> SessionState {
        if state == SessionState::Done {
            self.span = None;
        }
        state
    }
}

fn ended() -> ProtocolError {
    ProtocolError::InvalidMessage {
        label: "session",
        reason: "message after the sequenced session ended",
    }
}

impl<A, B, F> SessionCore for Then<A, B, F>
where
    A: SessionCore,
    B: SessionCore,
    F: FnOnce(A) -> Result<B, ProtocolError>,
{
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let (state, outs) = self.first.as_mut().ok_or_else(ended)?.start()?;
        self.advance(state, outs)
    }

    fn on_message(
        &mut self,
        half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        if let Some(second) = self.second.as_mut() {
            let (state, outs) = second.on_message(half_round, server, label, payload)?;
            return Ok((self.close_when_done(state), outs));
        }
        let first = self.first.as_mut().ok_or_else(ended)?;
        let (state, outs) = first.on_message(half_round, server, label, payload)?;
        self.advance(state, outs)
    }
}

impl<A, B, F> ClientCore for Then<A, B, F>
where
    A: ClientCore,
    B: ClientCore,
    F: FnOnce(A) -> Result<B, ProtocolError>,
{
    /// The second phase's digest.
    fn digest(&self) -> Option<u64> {
        self.second.as_ref().and_then(B::digest)
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        match (&self.first, &self.second) {
            (Some(first), _) => first.static_label(label),
            (None, Some(second)) => second.static_label(label),
            (None, None) => None,
        }
    }
}

/// Runs a client core against its server cores over any [`Channel`],
/// phase-synchronized: each burst delivers every client → server message
/// (feeding the server cores), then every server reply in server order.
/// Server cores may borrow their data and the caller's rng (`S` need be
/// neither `Send` nor `'static`), so an in-process run need not copy a
/// database per server. Transient transport faults are retried with the
/// same bounded policy as [`crate::ChannelExt`].
///
/// # Errors
///
/// Any [`ProtocolError`] surfaced by the transport or either side's core,
/// or [`ProtocolError::InvalidMessage`] if the client core stops without
/// a digest.
pub fn pump<S: SessionCore + ?Sized>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientCore,
    servers: &mut [Box<S>],
) -> Result<u64, ProtocolError> {
    for s in servers.iter_mut() {
        // Server cores may not speak first in this driver family.
        let (_, outs) = s.start()?;
        if !outs.is_empty() {
            return Err(ProtocolError::InvalidMessage {
                label: "session",
                reason: "server core tried to speak before the client",
            });
        }
    }
    let (mut state, mut outbox) = client.start()?;
    let mut half_round = 0u32;
    // Causal clocks for the trace journal: one per party, stamped once
    // per *logical* delivery (a retried delivery reuses its stamp), so
    // stamps stay strictly monotone per party under masked faults.
    let mut client_clock = Lamport::new();
    let mut server_clocks = vec![Lamport::new(); servers.len()];
    // A channel that journals the frames it carries (a relay socket) is
    // not journalled twice.
    let journal = !ch.journals_frames();
    let frame_event = |send, label, bytes: usize, half_round, stamp| {
        if journal {
            spfe_obs::net_frame_event(send, label, bytes as u64, half_round, stamp);
        }
    };
    while !outbox.is_empty() {
        let mut replies: Vec<OutMsg> = Vec::new();
        half_round += 1;
        for m in outbox.drain(..) {
            let OutMsg {
                server,
                client_to_server,
                label,
                payload,
            } = m;
            if !client_to_server || server >= servers.len() {
                return Err(ProtocolError::InvalidMessage {
                    label,
                    reason: "client core emitted a misdirected message",
                });
            }
            let stamp = client_clock.tick();
            frame_event(true, label, payload.len(), half_round, stamp);
            let delivered =
                deliver_with_retry(ch, Direction::ClientToServer(server), label, &payload)?;
            // Only the delivered copy stays alive while the receiver runs.
            drop(payload);
            let recv = server_clocks[server].observe(stamp);
            frame_event(false, label, delivered.len(), half_round, recv);
            let (_, outs) = servers[server].on_message(half_round, server, label, &delivered)?;
            replies.extend(outs);
        }
        half_round += 1;
        let mut next: Vec<OutMsg> = Vec::new();
        for m in replies {
            let OutMsg {
                server,
                client_to_server,
                label,
                payload,
            } = m;
            if client_to_server || server >= servers.len() {
                return Err(ProtocolError::InvalidMessage {
                    label,
                    reason: "server core emitted a misdirected message",
                });
            }
            let stamp = server_clocks[server].tick();
            frame_event(true, label, payload.len(), half_round, stamp);
            let delivered =
                deliver_with_retry(ch, Direction::ServerToClient(server), label, &payload)?;
            drop(payload);
            let recv = client_clock.observe(stamp);
            frame_event(false, label, delivered.len(), half_round, recv);
            let (s, outs) = client.on_message(half_round, server, label, &delivered)?;
            state = s;
            next.extend(outs);
        }
        outbox = next;
        if state == SessionState::Done && outbox.is_empty() {
            break;
        }
        if outbox.is_empty() && state == SessionState::Running {
            return Err(ProtocolError::InvalidMessage {
                label: "session",
                reason: "session stalled: no messages in flight and client not done",
            });
        }
    }
    client.digest().ok_or(ProtocolError::InvalidMessage {
        label: "session",
        reason: "client core finished without a digest",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Transcript;

    /// Toy protocol: client sends `x` to each server, server replies
    /// `x + server`, client sums the replies.
    struct ToyClient {
        round: OneRound<u64, u64>,
        sum: Option<u64>,
    }

    impl SessionCore for ToyClient {
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
            self.sum = Some(answers.iter().sum());
            Ok((SessionState::Done, Vec::new()))
        }
    }

    impl ClientCore for ToyClient {
        fn digest(&self) -> Option<u64> {
            self.sum
        }
        fn static_label(&self, label: &str) -> Option<&'static str> {
            self.round.static_label(label)
        }
    }

    struct ToyServer {
        once: AnswerOnce,
    }

    impl SessionCore for ToyServer {
        fn on_message(
            &mut self,
            _half_round: u32,
            server: usize,
            label: &str,
            payload: &[u8],
        ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
            self.once.answer(label, || {
                Ok((u64::from_bytes(payload)? + server as u64).to_bytes())
            })
        }
    }

    #[test]
    fn one_round_disciplines_reject_strangers_and_repeats() {
        let mut server = AnswerOnce::new(0, "toy-q", "toy-a");
        assert!(
            server.answer("toy-a", || Ok(vec![])).is_err(),
            "foreign label"
        );
        assert!(server.answer("toy-q", || Ok(vec![])).is_ok());
        assert!(
            server.answer("toy-q", || Ok(vec![])).is_err(),
            "second query"
        );

        let mut round = OneRound::<u64, u64>::new("toy-q", "toy-a", vec![1, 2]);
        let one = 1u64.to_bytes();
        assert!(round.receive(0, "toy-a", &one).is_err(), "before start");
        assert!(round.start().is_ok());
        assert!(round.start().is_err(), "started twice");
        assert!(round.receive(2, "toy-a", &one).is_err(), "unknown server");
        assert!(round.receive(0, "toy-q", &one).is_err(), "foreign label");
        assert_eq!(round.receive(0, "toy-a", &one), Ok(None));
        assert!(round.receive(0, "toy-a", &one).is_err(), "second reply");
        assert_eq!(round.receive(1, "toy-a", &one), Ok(Some(vec![1, 1])));
        assert!(round.receive(1, "toy-a", &one).is_err(), "after completion");

        // Two replies per server, returned in server order.
        let mut round = OneRound::<u64, u64>::new("toy-q", "toy-a", vec![1, 2]).with_replies(2);
        round.start().unwrap();
        let (two, three) = (2u64.to_bytes(), 3u64.to_bytes());
        assert_eq!(round.receive(1, "toy-a", &two), Ok(None));
        assert_eq!(round.receive(0, "toy-a", &one), Ok(None));
        assert_eq!(round.receive(1, "toy-a", &three), Ok(None));
        assert!(round.receive(1, "toy-a", &one).is_err(), "third reply");
        assert_eq!(round.receive(0, "toy-a", &one), Ok(Some(vec![1, 1, 2, 3])));

        let mut server = AnswerOnce::new(1, "toy-q", "toy-a");
        let (state, outs) = server
            .answer_each("toy-q", || Ok(vec![vec![1], vec![2]]))
            .unwrap();
        assert_eq!(state, SessionState::Done);
        let payloads: Vec<_> = outs
            .iter()
            .map(|m| (m.server, m.label, &m.payload[..]))
            .collect();
        assert_eq!(
            payloads,
            [(1, "toy-a", &[1u8][..]), (1, "toy-a", &[2u8][..])]
        );
        assert!(
            server.answer_each("toy-q", || Ok(vec![])).is_err(),
            "second query"
        );
    }

    #[test]
    fn pump_runs_the_toy_protocol() {
        let k = 3;
        let mut client = ToyClient {
            round: OneRound::new("toy-q", "toy-a", vec![10; k]),
            sum: None,
        };
        let mut servers: Vec<Box<dyn SessionCore + Send>> = (0..k)
            .map(|index| {
                let once = AnswerOnce::new(index, "toy-q", "toy-a");
                Box::new(ToyServer { once }) as Box<dyn SessionCore + Send>
            })
            .collect();
        let mut t = Transcript::new(k);
        let got = pump(&mut t, &mut client, &mut servers).unwrap();
        assert_eq!(got, 33);
        let rep = t.report();
        assert_eq!(rep.half_rounds, 2, "one full round");
        assert_eq!(rep.messages, 2 * k as u64);
    }

    #[test]
    fn pump_surfaces_misdirected_messages() {
        struct Bad;
        impl SessionCore for Bad {
            fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
                Ok((
                    SessionState::Running,
                    vec![OutMsg::to_server(5, "bad", vec![])],
                ))
            }
            fn on_message(
                &mut self,
                _: u32,
                _: usize,
                _: &str,
                _: &[u8],
            ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
                unreachable!()
            }
        }
        impl ClientCore for Bad {
            fn digest(&self) -> Option<u64> {
                None
            }
            fn static_label(&self, _: &str) -> Option<&'static str> {
                None
            }
        }
        let mut t = Transcript::new(1);
        let err = pump::<dyn SessionCore>(&mut t, &mut Bad, &mut []).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidMessage { .. }));
    }
}
