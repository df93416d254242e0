//! # spfe-net
//!
//! The networked SPFE service: a TCP server hosting protocol sessions and
//! a client runner that drives sans-io session cores
//! ([`spfe_transport::SessionCore`]) over real sockets.
//!
//! The layer is deliberately thin — all protocol logic lives in the cores
//! and all metering in [`spfe_transport::Transcript`] — so a networked run
//! is the *same computation* as an in-memory run, with only the byte
//! carrier swapped. DESIGN.md §15 documents the contract; the
//! cross-transport conformance matrix (`tests/net_conformance.rs`) holds
//! it in place.
//!
//! * [`Server`] — a `TcpListener` accept loop with one thread per
//!   session, serving both Hello modes: **relay** (echo every frame; the
//!   blanket adapter that runs every harness driver, both parties in
//!   process, over TCP unchanged) and **compute** (host the genuine
//!   server state machines from `spfe::harness::net_server_cores`: the
//!   twelve cored drivers, among them the §3.2 PSM-SPFE, the §4
//!   statistics and the two-phase §3.3 SPFE; input_select, whose digest
//!   sums both parties' shares, runs relay only).
//! * [`run_core`] / [`run_driver`] — the client side: drive a
//!   [`spfe_transport::ClientCore`] over a connected stream in the same
//!   phase order as [`spfe_transport::pump`], metering every frame on a
//!   local transcript so digests, per-label comm bytes, and audit
//!   fingerprints are byte-identical to the in-memory run.
//! * **Operational telemetry** (DESIGN.md §16) — every session settles
//!   into a [`spfe_obs::metrics::Metrics`] registry (typed failure
//!   taxonomy, per-driver latency histograms, byte totals), scrapeable
//!   live over the same listener via [`fetch_stats`] /
//!   `spfe-client stats`, with `SPFE_LOG`-gated JSONL session logs on
//!   stderr. The registry's per-driver byte and half-round totals match
//!   the client-side transcripts *exactly* — the conformance contract
//!   `tests/net_metrics.rs` pins down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;

pub use client::{
    fetch_stats, next_session_id, run_core, run_driver, run_driver_relay, NetRun, StatsConn,
};
pub use server::{classify_failure, Server, ServerConfig};
