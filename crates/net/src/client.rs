//! The networked client runner: drives a sans-io [`ClientCore`] over a
//! connected stream, metering every frame on a local [`Transcript`]
//! (which journals nothing) and journalling it once, as a Lamport-stamped
//! `NetSend`/`NetRecv` instant.
//!
//! [`run_core`] delivers messages in the same phase order as
//! [`spfe_transport::pump`] — every client → server message of a burst,
//! then the server replies in arrival order (which, over one ordered
//! stream and a sequential peer, is server order) — so the metered
//! transcript, and hence the digest, per-label byte totals, and the
//! `spfe-view/v1` fingerprints, are byte-identical to the in-memory run
//! of the same core — which is what the harness driver's `run` pumps.
//!
//! [`run_driver`] is the convenience entry point the `spfe-client` binary
//! and the conformance matrix use: it looks the driver's client core up
//! in `spfe::harness` and returns the digest plus the client-side
//! transcript.

use spfe::harness;
use spfe_obs::trace as journal;
use spfe_transport::frame::{read_frame, read_frame_traced, write_frame};
use spfe_transport::{
    ClientCore, Direction, Frame, FrameKind, Lamport, ProtocolError, SessionMode, SessionState,
    Transcript,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A fresh process-unique session identifier.
pub fn next_session_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The result of one networked driver run.
#[derive(Debug)]
pub struct NetRun {
    /// The protocol digest (same convention as the harness driver table).
    pub digest: u64,
    /// The client-side metered transcript.
    pub transcript: Transcript,
    /// The mode the session ran in: always [`SessionMode::Compute`].
    pub mode: SessionMode,
}

fn invalid(reason: &'static str) -> ProtocolError {
    ProtocolError::InvalidMessage {
        label: "net-msg",
        reason,
    }
}

/// Drives `core` over `stream` in compute mode: handshake, burst-wise
/// message exchange, Bye. Returns the digest and the metered transcript.
/// `driver` is the harness driver the Hello names.
///
/// # Errors
///
/// Any transport, framing, or core [`ProtocolError`]; a read deadline on
/// the stream surfaces as [`ProtocolError::Timeout`].
pub fn run_core<S: Read + Write>(
    mut stream: S,
    driver: &'static str,
    core: &mut dyn ClientCore,
    num_servers: usize,
    session: u64,
) -> Result<(u64, Transcript), ProtocolError> {
    let hello = Frame {
        kind: FrameKind::Hello,
        client_to_server: true,
        session,
        half_round: 0,
        server: 0,
        label: driver.to_owned(),
        payload: vec![SessionMode::Compute as u8],
    };
    write_frame(&mut stream, &hello, 0, "net-hello")?;
    let ack = read_frame(&mut stream, 0, "net-hello")?;
    if ack.kind == FrameKind::Error {
        return Err(ProtocolError::InvalidMessage {
            label: "net-hello",
            reason: "peer rejected the session",
        });
    }
    if ack.kind != FrameKind::Hello || ack.session != session {
        return Err(ProtocolError::InvalidMessage {
            label: "net-hello",
            reason: "malformed hello acknowledgement",
        });
    }
    spfe_obs::net_session_event(true, session, driver, SessionMode::Compute as u8);
    let mut transcript = Transcript::new(num_servers);
    let mut clock = Lamport::new();
    let (mut state, mut outbox) = core.start()?;
    let mut expected = 0usize;
    while !(state == SessionState::Done && outbox.is_empty() && expected == 0) {
        // Burst-send everything the core queued, in emission order.
        for m in outbox.drain(..) {
            if !m.client_to_server || m.server >= num_servers {
                return Err(invalid("client core emitted a misdirected message"));
            }
            transcript.record_raw(
                Direction::ClientToServer(m.server),
                m.label,
                m.payload.len(),
            );
            let frame = Frame::msg(
                true,
                session,
                transcript.report().half_rounds,
                m.server,
                m.label,
                m.payload,
            );
            let stamp = clock.tick();
            if journal::tracing() {
                let ctx = Frame::trace_ctx(true, session, frame.half_round, stamp);
                write_frame(&mut stream, &ctx, m.server, m.label)?;
                spfe_obs::net_frame_event(
                    true,
                    m.label,
                    frame.payload.len() as u64,
                    frame.half_round,
                    stamp,
                );
            }
            write_frame(&mut stream, &frame, m.server, m.label)?;
            expected += 1;
        }
        if state == SessionState::Done && expected == 0 {
            break;
        }
        if expected == 0 {
            return Err(invalid("session stalled: no messages in flight"));
        }
        // One reply per delivered message in this protocol family.
        let (frame, carried) = read_frame_traced(&mut stream, 0, "net-msg")?;
        let recv_stamp = clock.observe(carried.unwrap_or(0));
        expected -= 1;
        match frame.kind {
            FrameKind::Msg if frame.session == session => {
                let server = frame.server as usize;
                if server >= num_servers {
                    return Err(invalid("reply from an unknown server"));
                }
                let label = core
                    .static_label(&frame.label)
                    .ok_or_else(|| invalid("reply label is foreign to this protocol"))?;
                spfe_obs::net_frame_event(
                    false,
                    label,
                    frame.payload.len() as u64,
                    frame.half_round,
                    recv_stamp,
                );
                transcript.record_raw(
                    Direction::ServerToClient(server),
                    label,
                    frame.payload.len(),
                );
                let (s, outs) = core.on_message(
                    transcript.report().half_rounds,
                    server,
                    &frame.label,
                    &frame.payload,
                )?;
                state = s;
                outbox.extend(outs);
            }
            FrameKind::Error => return Err(invalid("server aborted the session")),
            _ => return Err(invalid("unexpected frame from server")),
        }
    }
    let bye = Frame {
        kind: FrameKind::Bye,
        client_to_server: true,
        session,
        half_round: transcript.report().half_rounds,
        server: 0,
        label: String::new(),
        payload: Vec::new(),
    };
    let stamp = clock.tick();
    if journal::tracing() {
        let ctx = Frame::trace_ctx(true, session, bye.half_round, stamp);
        let _ = write_frame(&mut stream, &ctx, 0, "net-bye");
        spfe_obs::net_frame_event(true, "net-bye", 0, bye.half_round, stamp);
    }
    let _ = write_frame(&mut stream, &bye, 0, "net-bye");
    spfe_obs::net_session_event(false, session, driver, SessionMode::Compute as u8);
    let digest = core
        .digest()
        .ok_or_else(|| invalid("client core finished without a digest"))?;
    Ok((digest, transcript))
}

/// Runs harness driver `name` over TCP: its client core against the
/// server cores the peer hosts for it.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] for an unknown driver name, else as
/// [`run_core`].
pub fn run_driver(
    addr: &str,
    name: &str,
    deadline: Option<Duration>,
) -> Result<NetRun, ProtocolError> {
    let d = harness::driver(name).ok_or(ProtocolError::InvalidMessage {
        label: "net-hello",
        reason: "unknown driver name",
    })?;
    let mut core = d.client_core();
    let stream = connect(addr, deadline)?;
    let (digest, transcript) =
        run_core(stream, d.name, core.as_mut(), d.servers, next_session_id())?;
    Ok(NetRun {
        digest,
        transcript,
        mode: SessionMode::Compute,
    })
}

/// A held-open metrics scrape connection (one TCP connect amortized
/// over many probes — what `spfe-client stats --watch` uses).
///
/// Each [`StatsConn::fetch`] sends one [`FrameKind::Stats`] request and
/// returns the rendered snapshot; the server answers on the same
/// connection until it is dropped.
#[derive(Debug)]
pub struct StatsConn {
    stream: TcpStream,
    session: u64,
}

impl StatsConn {
    /// Connects to a running `spfe-server` for scraping.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerCrashed`] when the connect fails, else any
    /// socket-configuration error.
    pub fn connect(addr: &str, deadline: Option<Duration>) -> Result<StatsConn, ProtocolError> {
        Ok(StatsConn {
            stream: connect(addr, deadline)?,
            session: next_session_id(),
        })
    }

    /// Fetches one snapshot: Prometheus text exposition when `prom`,
    /// `spfe-metrics/v1` JSON otherwise.
    ///
    /// # Errors
    ///
    /// Any transport error, or [`ProtocolError::InvalidMessage`] when the
    /// peer answers with anything but a UTF-8 Stats frame.
    pub fn fetch(&mut self, prom: bool) -> Result<String, ProtocolError> {
        let request = Frame {
            kind: FrameKind::Stats,
            client_to_server: true,
            session: self.session,
            half_round: 0,
            server: 0,
            label: "stats".to_owned(),
            payload: vec![u8::from(prom)],
        };
        write_frame(&mut self.stream, &request, 0, "net-stats")?;
        let reply = read_frame(&mut self.stream, 0, "net-stats")?;
        if reply.kind != FrameKind::Stats {
            return Err(ProtocolError::InvalidMessage {
                label: "net-stats",
                reason: "peer did not answer the stats request",
            });
        }
        String::from_utf8(reply.payload).map_err(|_| ProtocolError::InvalidMessage {
            label: "net-stats",
            reason: "stats payload is not UTF-8",
        })
    }
}

/// One-shot metrics scrape: connect, fetch one snapshot, hang up.
///
/// # Errors
///
/// As [`StatsConn::connect`] / [`StatsConn::fetch`].
pub fn fetch_stats(
    addr: &str,
    prom: bool,
    deadline: Option<Duration>,
) -> Result<String, ProtocolError> {
    StatsConn::connect(addr, deadline)?.fetch(prom)
}

fn connect(addr: &str, deadline: Option<Duration>) -> Result<TcpStream, ProtocolError> {
    let stream =
        TcpStream::connect(addr).map_err(|_| ProtocolError::ServerCrashed { server: 0 })?;
    // Each burst is a few small frames answered by the peer: without
    // TCP_NODELAY, Nagle holds the tail frame for the peer's delayed ACK.
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(deadline))
        .and_then(|()| stream.set_write_timeout(deadline))
        .map_err(|_| ProtocolError::InvalidMessage {
            label: "net-hello",
            reason: "could not configure the socket",
        })?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io;

    /// An in-memory server that answers reads from a scripted queue of
    /// frames and swallows writes.
    struct Script(VecDeque<u8>);

    impl Script {
        fn replying(frames: &[Frame]) -> Script {
            Script(frames.iter().flat_map(Frame::to_bytes).collect())
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len());
            for (b, v) in buf.iter_mut().zip(self.0.drain(..n)) {
                *b = v;
            }
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame(kind: FrameKind, session: u64) -> Frame {
        Frame {
            kind,
            client_to_server: false,
            session,
            half_round: 0,
            server: 0,
            label: "xor2".to_owned(),
            payload: vec![SessionMode::Compute as u8],
        }
    }

    fn xor2_over(script: Script, session: u64) -> Result<(u64, Transcript), ProtocolError> {
        let mut core = harness::net_client_core("xor2").expect("xor2 core");
        run_core(script, "xor2", core.as_mut(), 2, session)
    }

    #[test]
    fn rejected_hello_is_typed() {
        let script = Script::replying(&[frame(FrameKind::Error, 5)]);
        assert_eq!(
            xor2_over(script, 5).unwrap_err(),
            ProtocolError::InvalidMessage {
                label: "net-hello",
                reason: "peer rejected the session",
            }
        );
    }

    #[test]
    fn error_frame_aborts_with_invalid_message() {
        let script = Script::replying(&[frame(FrameKind::Hello, 4), frame(FrameKind::Error, 4)]);
        assert_eq!(
            xor2_over(script, 4).unwrap_err(),
            invalid("server aborted the session")
        );
    }

    #[test]
    fn eof_mid_session_is_a_typed_crash() {
        let script = Script::replying(&[frame(FrameKind::Hello, 3)]);
        assert!(matches!(
            xor2_over(script, 3).unwrap_err(),
            ProtocolError::ServerCrashed { .. }
        ));
    }
}
