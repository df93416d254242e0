//! Workspace-wide instrumentation: spans, op counters, cost reports.
//!
//! The paper's claims are *cost* claims — communication in bits and rounds,
//! and server/client work in modular exponentiations, encryptions, OT
//! executions and PIR cells scanned (Table 1, §3–§4). `spfe-transport`
//! meters the communication side; this crate meters the computation side
//! and merges both into one machine-readable [`CostReport`].
//!
//! Three pieces:
//!
//! * **Op counters** ([`count`], [`Op`]) — process-global tallies of the
//!   crypto/math hot-path operations, implemented as sharded relaxed
//!   atomics so the worker pool of `spfe-math::par` can increment from any
//!   thread without contention. Because every probe site counts *work
//!   items* (not scheduling events), the deterministic subset of counters
//!   is identical at `SPFE_THREADS=1` and `SPFE_THREADS=N` — addition
//!   commutes, so shard totals are independent of which thread did what.
//!   Scheduler gauges (`Pool*`) are explicitly excluded from that contract
//!   via [`Op::deterministic`].
//! * **Spans** ([`span`]) — hierarchical wall-clock timers for protocol
//!   phases (`query-gen`, `server-scan`, `reconstruct`, …). Nesting is
//!   tracked per thread; aggregates are keyed by the full `/`-joined path.
//! * **Reports** ([`CostReport`]) — span timings + op counters + the
//!   communication breakdown + heap counters in one struct, with Markdown
//!   and JSON renderers ([`suite_json`] emits the `spfe-cost-report/v3`
//!   schema that `spfe-tables --json` writes to `BENCH_costs.json`;
//!   [`parse_suite`] reads v3 and the older v2/v1 back).
//! * **Heap profiling** ([`mem`]) — with the opt-in `obs-alloc` feature a
//!   counting `#[global_allocator]` attributes allocation counts/bytes to
//!   the open span and tracks the live/peak heap gauge; without it the
//!   probes compile out and every heap field reads 0.
//!
//! Beyond the aggregates, the [`trace`] module keeps an opt-in *event
//! journal*: with [`trace::set_tracing`] on, every span open/close, op
//! delta, wire message, fault injection and retry becomes a timestamped
//! event, exportable via [`export`] as Perfetto `trace_event` JSON or a
//! flamegraph folded-stack file. Spans additionally feed a log-bucketed
//! latency [`histo::Histo`] per path, surfaced as `p50_ns`/`p95_ns`/
//! `p99_ns` on [`SpanStat`].
//!
//! There is one build of the probes: every crate in the workspace records
//! through them, so no downstream crate ever writes a `cfg`. Only the
//! heap allocator hook is opt-in (`obs-alloc`).
//!
//! # Examples
//!
//! ```
//! use spfe_obs as obs;
//! obs::reset();
//! {
//!     let _g = obs::span("server-scan");
//!     obs::count(obs::Op::Modexp, 3);
//! }
//! let ops = obs::ops_snapshot();
//! assert_eq!(ops.get(obs::Op::Modexp), 3);
//! ```

pub mod audit;
mod counter;
pub mod export;
pub mod histo;
pub mod json;
pub mod mem;
pub mod metrics;
mod report;
mod span;
pub mod suite;
pub mod trace;

pub use counter::{count, ops_snapshot, reset_ops, Op, OpsSnapshot};
pub use mem::{alloc_enabled, reset_mem, MemDelta, MemStat};
pub use report::{
    suite_json, CommStat, CostReport, LabelStat, OpStat, SCHEMA, SCHEMA_V1, SCHEMA_V2,
};
pub use span::{reset_spans, span, spans_snapshot, SpanGuard, SpanStat};
pub use suite::{parse_suite, Suite};
pub use trace::{
    fault_event, net_frame_event, net_session_event, retry_event, unpack_net_stamp, view_event,
    wire_event,
};

/// Clears all op counters, span aggregates and windowed heap tallies
/// (start of a measurement). The trace journal has its own window control
/// ([`trace::reset`], [`trace::take`]) so one timeline can cover several
/// measured runs.
pub fn reset() {
    reset_ops();
    reset_spans();
    reset_mem();
}

/// Tests across this crate's modules share the process-global span
/// registry and trace journal; they serialize on one lock.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}
