//! The channel abstraction protocol drivers run over.
//!
//! Drivers take `&mut dyn Channel` instead of a concrete [`Transcript`], so
//! the same code runs over the honest metered channel *and* over the
//! fault-injecting [`crate::FaultyChannel`] of the adversarial conformance
//! suite. The trait itself is byte-level and object-safe; the typed
//! [`ChannelExt::client_to_server`]/[`ChannelExt::server_to_client`]
//! helpers layer the [`Wire`] codec plus deterministic bounded retry on
//! top, so every driver gets the same fault-masking policy for free:
//!
//! * **transient** faults (drop, timeout, crash) are retried up to
//!   [`MAX_ATTEMPTS`] times, with a crashed server first healed by an
//!   honest replacement ([`Channel::heal_server`]);
//! * **permanent** faults (malformed bytes, protocol violations, more than
//!   `t` misbehaving servers) surface immediately as a typed
//!   [`ProtocolError`].
//!
//! Retries re-send the *already encoded* bytes, so no client-side crypto
//! work is repeated: the deterministic op-counter subset of `spfe-obs` is
//! identical whether a fault fired and was masked or never fired at all.

use crate::error::ProtocolError;
use crate::meter::{Direction, Transcript};
use crate::wire::Wire;

/// Maximum delivery attempts per message (first try + retries).
pub const MAX_ATTEMPTS: u32 = 4;

/// A client ↔ k-server message channel with deterministic fault semantics.
///
/// Object-safe: drivers hold `&mut dyn Channel`. [`Transcript`] is the
/// honest implementation; [`crate::FaultyChannel`] injects seeded faults.
pub trait Channel {
    /// Number of servers on this channel.
    fn num_servers(&self) -> usize;

    /// Explicitly starts a new client-initiated round.
    fn begin_round(&mut self);

    /// Delivers `bytes` in direction `dir`, returning the bytes as seen by
    /// the receiver (possibly tampered by a faulty transport).
    ///
    /// # Errors
    ///
    /// Transient transport faults ([`ProtocolError::is_transient`]) or a
    /// permanent abort such as [`ProtocolError::TooManyFaulty`].
    fn transfer_raw(
        &mut self,
        dir: Direction,
        label: &'static str,
        bytes: &[u8],
    ) -> Result<Vec<u8>, ProtocolError>;

    /// Read-only view of the underlying metered transcript (for cost
    /// reports; faulty channels meter only what was actually delivered).
    fn transcript(&self) -> &Transcript;

    /// Replaces a crashed/misbehaving server with an honest one.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::TooManyFaulty`] when the fault budget `t` is
    /// exhausted and the execution must abort with a diagnosis instead.
    fn heal_server(&mut self, _server: usize) -> Result<(), ProtocolError> {
        Ok(())
    }

    /// Current value of the deterministic tick clock (0 on honest
    /// channels, which never delay).
    fn clock(&self) -> u64 {
        0
    }
}

impl Channel for Transcript {
    fn num_servers(&self) -> usize {
        Transcript::num_servers(self)
    }

    fn begin_round(&mut self) {
        Transcript::begin_round(self);
    }

    fn transfer_raw(
        &mut self,
        dir: Direction,
        label: &'static str,
        bytes: &[u8],
    ) -> Result<Vec<u8>, ProtocolError> {
        self.record_raw(dir, label, bytes.len());
        Ok(bytes.to_vec())
    }

    fn transcript(&self) -> &Transcript {
        self
    }
}

/// Typed send/receive over any [`Channel`], with bounded retry.
///
/// Blanket-implemented; `use spfe_transport::ChannelExt` and call
/// [`ChannelExt::client_to_server`] on a `&mut dyn Channel`.
pub trait ChannelExt: Channel {
    /// Sends `msg` from the client to server `server` and returns the
    /// value as decoded by the receiving side.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] once transient faults exhaust the retry budget,
    /// or immediately on permanent faults (malformed delivery, exhausted
    /// server-fault tolerance).
    ///
    /// # Panics
    ///
    /// Panics if `server >= num_servers` (a driver bug, not an attack).
    fn client_to_server<T: Wire>(
        &mut self,
        server: usize,
        label: &'static str,
        msg: &T,
    ) -> Result<T, ProtocolError> {
        send(self, Direction::ClientToServer(server), label, msg)
    }

    /// Sends `msg` from server `server` to the client; see
    /// [`ChannelExt::client_to_server`] for the error contract.
    ///
    /// # Errors
    ///
    /// As for [`ChannelExt::client_to_server`].
    ///
    /// # Panics
    ///
    /// Panics if `server >= num_servers`.
    fn server_to_client<T: Wire>(
        &mut self,
        server: usize,
        label: &'static str,
        msg: &T,
    ) -> Result<T, ProtocolError> {
        send(self, Direction::ServerToClient(server), label, msg)
    }
}

impl<C: Channel + ?Sized> ChannelExt for C {}

/// Delivers already-encoded bytes with the shared bounded-retry policy:
/// transient faults are retried up to [`MAX_ATTEMPTS`] times (healing a
/// crashed server first), permanent faults surface immediately. This is
/// the raw primitive under [`ChannelExt`]; the sans-io
/// [`crate::session::pump`] uses it too, so core-driven and channel-driven
/// protocols mask faults alike. Every in-process delivery passes here, so
/// this is where it is journalled: one `WireUp`/`WireDown` event with the
/// delivered length per delivered message, none for a failed attempt.
///
/// # Errors
///
/// [`ProtocolError::RetriesExhausted`] once transient faults outlast the
/// budget; any permanent [`ProtocolError`] as soon as it occurs.
///
/// # Panics
///
/// Panics if the directed server index is out of range (a driver bug).
pub fn deliver_with_retry<C: Channel + ?Sized>(
    ch: &mut C,
    dir: Direction,
    label: &'static str,
    bytes: &[u8],
) -> Result<Vec<u8>, ProtocolError> {
    let server = dir.server();
    assert!(server < ch.num_servers(), "server index out of range");
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            spfe_obs::count(spfe_obs::Op::Retries, 1);
            spfe_obs::retry_event(label, server, u64::from(attempt));
        }
        match ch.transfer_raw(dir, label, bytes) {
            Ok(delivered) => {
                let up = matches!(dir, Direction::ClientToServer(_));
                spfe_obs::wire_event(up, server, label, delivered.len() as u64);
                return Ok(delivered);
            }
            Err(e) if e.is_transient() => {
                if let ProtocolError::ServerCrashed { server } = e {
                    // Abort with diagnosis once the fault budget is spent.
                    ch.heal_server(server)?;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(ProtocolError::RetriesExhausted {
        server,
        label,
        attempts: MAX_ATTEMPTS,
    })
}

/// One encode, up to [`MAX_ATTEMPTS`] deliveries, one decode.
fn send<C: Channel + ?Sized, T: Wire>(
    ch: &mut C,
    dir: Direction,
    label: &'static str,
    msg: &T,
) -> Result<T, ProtocolError> {
    let bytes = msg.to_bytes();
    let delivered = deliver_with_retry(ch, dir, label, &bytes)?;
    T::from_bytes(&delivered).map_err(ProtocolError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_is_an_honest_channel() {
        let mut t = Transcript::new(2);
        let ch: &mut dyn Channel = &mut t;
        let v: u64 = ch.client_to_server(1, "q", &7u64).unwrap();
        assert_eq!(v, 7);
        let r: Vec<u8> = ch.server_to_client(1, "a", &vec![9u8, 9]).unwrap();
        assert_eq!(r, vec![9, 9]);
        assert_eq!(ch.transcript().report().messages, 2);
        assert_eq!(ch.clock(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_server_index_panics_through_channel() {
        let mut t = Transcript::new(1);
        let ch: &mut dyn Channel = &mut t;
        let _ = ch.client_to_server(3, "q", &1u64);
    }
}
