//! A metered [`Channel`] over a byte stream.
//!
//! [`SocketChannel`] wraps any `Read + Write` stream (a `TcpStream` in
//! production, an in-memory duplex in tests) and implements the same
//! byte-level channel contract as [`Transcript`]: every `transfer_raw`
//! frames the bytes ([`crate::frame`]), sends them to the peer, and
//! meters the delivery on an internal transcript — so per-label comm
//! bytes, half-round structure, and party-view fingerprints are computed
//! exactly as for an in-memory run.
//!
//! Two session modes exist (declared in the Hello frame):
//!
//! * **Relay** — the peer echoes every `Msg` frame back. The channel
//!   returns the echoed payload as "the bytes seen by the receiver",
//!   which lets *every* `spfe::harness` driver run over a real socket
//!   unchanged: the driver still plays both sides in process (a cored
//!   driver by pumping its own client and server cores), but each
//!   message physically crosses the network. This is the blanket adapter
//!   the cross-transport conformance matrix runs on.
//! * **Compute** — the peer hosts genuine server state machines
//!   ([`crate::session::SessionCore`]); the client side is driven by a
//!   networked runner (in `spfe-net`), not through this channel.
//!
//! **Deadlines and poisoning.** Stream deadlines are configured on the
//! underlying socket by the caller; an expired read surfaces as
//! [`ProtocolError::Timeout`]. After any I/O failure the channel is
//! *poisoned*: the stream may be mid-frame, so resynchronization is
//! unsound, and every later transfer fails fast with the original error.
//! Under the bounded-retry policy a poisoned channel therefore burns the
//! remaining attempts instantly — a stalled server costs one deadline,
//! not [`crate::MAX_ATTEMPTS`] of them.

use crate::channel::Channel;
use crate::error::ProtocolError;
use crate::frame::{read_frame, read_frame_traced, write_frame, Frame, FrameKind};
use crate::lamport::Lamport;
use crate::meter::{Direction, Transcript};
use spfe_obs::trace as journal;
use std::io::{Read, Write};

/// How the peer should treat this session (the byte carried in Hello).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Echo every frame back (the blanket adapter for in-process drivers).
    Relay = 0,
    /// Host the protocol's server state machines.
    Compute = 1,
}

/// A metered channel that frames every message over a byte stream.
#[derive(Debug)]
pub struct SocketChannel<S: Read + Write> {
    stream: S,
    session: u64,
    driver: String,
    mode: SessionMode,
    transcript: Transcript,
    poisoned: Option<ProtocolError>,
    /// Per-session causal clock for distributed tracing: ticked once per
    /// logical send, merged on every receive (DESIGN.md §17).
    lamport: Lamport,
}

impl<S: Read + Write> SocketChannel<S> {
    /// Opens a relay session for `driver` over `stream`: sends Hello and
    /// waits for the peer's Hello acknowledgement.
    ///
    /// # Errors
    ///
    /// Any transport or framing [`ProtocolError`] during the handshake,
    /// or [`ProtocolError::InvalidMessage`] if the peer rejects the
    /// session.
    pub fn connect(
        mut stream: S,
        num_servers: usize,
        driver: &str,
        mode: SessionMode,
        session: u64,
    ) -> Result<Self, ProtocolError> {
        let hello = Frame {
            kind: FrameKind::Hello,
            client_to_server: true,
            session,
            half_round: 0,
            server: 0,
            label: driver.to_owned(),
            payload: vec![mode as u8],
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
        spfe_obs::net_session_event(true, session, driver, mode as u8);
        Ok(SocketChannel {
            stream,
            session,
            driver: driver.to_owned(),
            mode,
            transcript: Transcript::new(num_servers),
            poisoned: None,
            lamport: Lamport::new(),
        })
    }

    /// The session identifier negotiated at Hello.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends a graceful session close. Errors are deliberately swallowed:
    /// Bye is a courtesy, the session result is already decided.
    pub fn bye(&mut self) {
        let bye = Frame {
            kind: FrameKind::Bye,
            client_to_server: true,
            session: self.session,
            half_round: self.transcript.report().half_rounds,
            server: 0,
            label: String::new(),
            payload: Vec::new(),
        };
        let stamp = self.lamport.tick();
        if journal::tracing() {
            let ctx = Frame::trace_ctx(true, self.session, bye.half_round, stamp);
            let _ = write_frame(&mut self.stream, &ctx, 0, "net-bye");
            spfe_obs::net_frame_event(true, "net-bye", 0, bye.half_round, stamp);
        }
        let _ = write_frame(&mut self.stream, &bye, 0, "net-bye");
        spfe_obs::net_session_event(false, self.session, &self.driver, self.mode as u8);
    }

    fn poison(&mut self, e: ProtocolError) -> ProtocolError {
        self.poisoned = Some(e.clone());
        e
    }

    fn roundtrip(
        &mut self,
        dir: Direction,
        label: &'static str,
        bytes: &[u8],
    ) -> Result<Vec<u8>, ProtocolError> {
        let frame = Frame::msg(
            matches!(dir, Direction::ClientToServer(_)),
            self.session,
            self.transcript.report().half_rounds,
            dir.server(),
            label,
            bytes.to_vec(),
        );
        let stamp = self.lamport.tick();
        if journal::tracing() {
            let ctx = Frame::trace_ctx(
                frame.client_to_server,
                self.session,
                frame.half_round,
                stamp,
            );
            write_frame(&mut self.stream, &ctx, dir.server(), label)?;
            spfe_obs::net_frame_event(true, label, bytes.len() as u64, frame.half_round, stamp);
        }
        write_frame(&mut self.stream, &frame, dir.server(), label)?;
        let (echo, carried) = read_frame_traced(&mut self.stream, dir.server(), label)?;
        let recv_stamp = self.lamport.observe(carried.unwrap_or(0));
        spfe_obs::net_frame_event(
            false,
            label,
            echo.payload.len() as u64,
            echo.half_round,
            recv_stamp,
        );
        match echo.kind {
            FrameKind::Msg if echo.session == self.session && echo.label == label => {
                Ok(echo.payload)
            }
            FrameKind::Error => Err(ProtocolError::InvalidMessage {
                label,
                reason: "peer aborted the session",
            }),
            _ => Err(ProtocolError::InvalidMessage {
                label,
                reason: "relay echoed a different frame",
            }),
        }
    }
}

impl<S: Read + Write> Channel for SocketChannel<S> {
    fn num_servers(&self) -> usize {
        self.transcript.num_servers()
    }

    fn begin_round(&mut self) {
        self.transcript.begin_round();
    }

    fn transfer_raw(
        &mut self,
        dir: Direction,
        label: &'static str,
        bytes: &[u8],
    ) -> Result<Vec<u8>, ProtocolError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.roundtrip(dir, label, bytes) {
            Ok(delivered) => {
                // Metered only after the delivery succeeded, mirroring the
                // faulty channel's "meter what was actually delivered".
                self.transcript.record_raw(dir, label, bytes.len());
                Ok(delivered)
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    fn transcript(&self) -> &Transcript {
        &self.transcript
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io;

    /// An in-memory peer that answers reads from a scripted queue and
    /// records writes.
    #[derive(Debug)]
    struct Script {
        replies: VecDeque<u8>,
        written: Vec<u8>,
    }

    impl Script {
        fn relay_for(frames: &[Frame]) -> Script {
            let mut replies = VecDeque::new();
            for f in frames {
                replies.extend(f.to_bytes());
            }
            Script {
                replies,
                written: Vec::new(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.replies.is_empty() {
                return Ok(0);
            }
            let n = buf.len().min(self.replies.len());
            for b in buf.iter_mut().take(n) {
                *b = self.replies.pop_front().unwrap();
            }
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn hello_ack(session: u64) -> Frame {
        Frame {
            kind: FrameKind::Hello,
            client_to_server: false,
            session,
            half_round: 0,
            server: 0,
            label: "toy".to_owned(),
            payload: vec![1],
        }
    }

    #[test]
    fn relay_transfer_meters_like_a_transcript() {
        let echo = Frame::msg(true, 9, 0, 0, "q", vec![1, 2, 3]);
        let script = Script::relay_for(&[hello_ack(9), echo]);
        let mut ch = SocketChannel::connect(script, 1, "toy", SessionMode::Relay, 9).unwrap();
        let got = ch
            .transfer_raw(Direction::ClientToServer(0), "q", &[1, 2, 3])
            .unwrap();
        assert_eq!(got, vec![1, 2, 3]);
        let rep = ch.transcript().report();
        assert_eq!(
            (rep.messages, rep.half_rounds, rep.client_to_server),
            (1, 1, 3)
        );
    }

    #[test]
    fn eof_poisons_the_channel() {
        let script = Script::relay_for(&[hello_ack(3)]);
        let mut ch = SocketChannel::connect(script, 1, "toy", SessionMode::Relay, 3).unwrap();
        let err = ch
            .transfer_raw(Direction::ClientToServer(0), "q", &[0])
            .unwrap_err();
        assert!(matches!(err, ProtocolError::ServerCrashed { .. }));
        // Poisoned: instant same error, nothing metered.
        let again = ch
            .transfer_raw(Direction::ClientToServer(0), "q", &[0])
            .unwrap_err();
        assert_eq!(again, err);
        assert_eq!(ch.transcript().report().messages, 0);
    }

    #[test]
    fn error_frame_aborts_with_invalid_message() {
        let abort = Frame {
            kind: FrameKind::Error,
            client_to_server: false,
            session: 4,
            half_round: 0,
            server: 0,
            label: "q".to_owned(),
            payload: b"nope".to_vec(),
        };
        let script = Script::relay_for(&[hello_ack(4), abort]);
        let mut ch = SocketChannel::connect(script, 1, "toy", SessionMode::Relay, 4).unwrap();
        let err = ch
            .transfer_raw(Direction::ClientToServer(0), "q", &[0])
            .unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidMessage { .. }));
    }

    #[test]
    fn rejected_hello_is_typed() {
        let reject = Frame {
            kind: FrameKind::Error,
            client_to_server: false,
            session: 5,
            half_round: 0,
            server: 0,
            label: "toy".to_owned(),
            payload: b"unknown driver".to_vec(),
        };
        let script = Script::relay_for(&[reject]);
        let err = SocketChannel::connect(script, 1, "toy", SessionMode::Relay, 5).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::InvalidMessage {
                label: "net-hello",
                ..
            }
        ));
    }
}
