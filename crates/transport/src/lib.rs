//! # spfe-transport
//!
//! The measurement substrate of the SPFE reproduction: a byte-exact message
//! codec ([`Wire`]) and a metered in-memory channel ([`Transcript`]) that
//! records per-message sizes, directions, and the paper's round structure
//! (including half rounds). Every protocol in `spfe-core` runs over a
//! [`Transcript`], so the benchmark harness reads off *exact* communication
//! costs — the quantity Table 1 and §3–§4 of the paper reason about.
//!
//! See DESIGN.md §4: substituting a metered in-memory channel for a real
//! network preserves exactly what the paper measures (bits transferred and
//! rounds), with zero noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod error;
pub mod fault;
pub mod frame;
pub mod lamport;
pub mod meter;
pub mod session;
pub mod socket;
pub mod wire;

pub use channel::{deliver_with_retry, Channel, ChannelExt, MAX_ATTEMPTS};
pub use error::ProtocolError;
pub use fault::{FaultAction, FaultPlan, FaultyChannel, TamperHook, DEFAULT_TIMEOUT_TICKS};
pub use frame::{Frame, FrameKind, HEADER_LEN, MAGIC, MAX_LABEL_LEN, MAX_PAYLOAD_LEN, VERSION};
pub use lamport::Lamport;
pub use meter::{CommReport, Direction, FlowMeter, MessageRecord, Transcript};
pub use session::{
    pump, AnswerOnce, ClientCore, OneRound, OutMsg, SessionCore, SessionState, Then,
};
pub use socket::{SessionMode, SocketChannel};
pub use wire::{Reader, Wire, WireError};
