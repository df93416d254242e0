//! The operational metrics registry behind the networked SPFE service
//! (DESIGN.md §16).
//!
//! The in-process observability stack (spans, op counters, cost reports)
//! measures *one* protocol execution under a harness; this module is the
//! complement for a *running server*: process-lifetime counters, gauges,
//! and per-driver latency histograms that an operator can scrape off the
//! live listener. Three pieces:
//!
//! * **[`Metrics`]** — the lock-light registry. Session and byte counters
//!   are relaxed atomics (the per-frame hot path takes no lock); the
//!   per-`(driver, mode)` aggregates — wall-clock [`Histo`]s and byte /
//!   half-round totals — are folded under a mutex exactly once per
//!   session close, which is cold by construction.
//! * **[`MetricsSnapshot`]** — a point-in-time copy, rendered as the
//!   `spfe-metrics/v1` JSON document ([`MetricsSnapshot::to_json`], read
//!   back by [`parse_snapshot`]) or as Prometheus text exposition
//!   ([`MetricsSnapshot::prometheus`]) for a scrape pipeline.
//! * **[`SessionLogRecord`]** — one structured JSONL line per session on
//!   stderr, behind the `SPFE_LOG` environment switch ([`log_enabled`]);
//!   the default is quiet.
//!
//! Failures are classified into the stable [`FailureKind`] taxonomy
//! instead of one opaque `failed` counter, so dashboards (and
//! `tests/net_timeout.rs`) can tell a handshake timeout from a codec
//! rejection. Operational telemetry is part of the service, not of the
//! benchmark harness: every server answers scrapes.

use crate::histo::Histo;
use crate::json::{self, escape, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Schema tag of the snapshot document.
pub const METRICS_SCHEMA: &str = "spfe-metrics/v1";

/// The stable failure taxonomy for networked sessions.
///
/// Names are wire-stable: they appear in the JSON snapshot, the
/// Prometheus `kind` label, and session log lines, and `serve-report`
/// diffs them across snapshots — renaming one is a schema change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The peer went quiet before the session was established.
    HandshakeTimeout = 0,
    /// A read or write deadline expired mid-session.
    TransferTimeout = 1,
    /// A frame failed validation (bad magic, version, bounds, UTF-8).
    CodecReject = 2,
    /// A well-formed frame violated the session protocol (wrong kind,
    /// unknown mode or driver, misdirected or rejected message).
    ProtocolError = 3,
    /// The connection was reset, closed mid-frame, or otherwise failed
    /// at the I/O layer.
    Io = 4,
    /// A completed run returned the wrong digest (client-side check).
    DigestMismatch = 5,
    /// The session thread panicked (caught at the session boundary).
    Panic = 6,
}

impl FailureKind {
    /// Every kind, in stable rendering order.
    pub const ALL: [FailureKind; 7] = [
        FailureKind::HandshakeTimeout,
        FailureKind::TransferTimeout,
        FailureKind::CodecReject,
        FailureKind::ProtocolError,
        FailureKind::Io,
        FailureKind::DigestMismatch,
        FailureKind::Panic,
    ];

    /// The wire-stable name.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::HandshakeTimeout => "handshake-timeout",
            FailureKind::TransferTimeout => "transfer-timeout",
            FailureKind::CodecReject => "codec-reject",
            FailureKind::ProtocolError => "protocol-error",
            FailureKind::Io => "io",
            FailureKind::DigestMismatch => "driver-digest-mismatch",
            FailureKind::Panic => "panic",
        }
    }

    /// Resolves a wire name back to the kind.
    pub fn from_name(name: &str) -> Option<FailureKind> {
        FailureKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// What one closed session transferred, as the registry folds it.
///
/// The serving side fills this from a `FlowMeter` over the session's
/// frames; the client side fills it from its metered transcript. Either
/// way the fields agree — that equivalence is what `tests/net_metrics.rs`
/// pins down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionUsage {
    /// Payload bytes, client → server.
    pub bytes_in: u64,
    /// Payload bytes, server → client.
    pub bytes_out: u64,
    /// Protocol messages, client → server.
    pub frames_in: u64,
    /// Protocol messages, server → client.
    pub frames_out: u64,
    /// Half-rounds of the session (transcript convention).
    pub half_rounds: u64,
    /// Wall-clock duration of the session in microseconds.
    pub wall_micros: u64,
}

/// Per-`(driver, mode)` aggregate, folded once per session close.
#[derive(Debug)]
struct DriverStats {
    driver: String,
    mode: String,
    sessions: u64,
    completed: u64,
    failed: u64,
    bytes_in: u64,
    bytes_out: u64,
    half_rounds: u64,
    wall_sum_micros: u64,
    wall: Histo,
}

/// The registry: process-lifetime operational counters for a server (or
/// client) handling networked SPFE sessions.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    opened: AtomicU64,
    completed: AtomicU64,
    active: AtomicU64,
    stats_probes: AtomicU64,
    failures: [AtomicU64; FailureKind::ALL.len()],
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    drivers: Mutex<Vec<DriverStats>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

fn lock_drivers(m: &Mutex<Vec<DriverStats>>) -> MutexGuard<'_, Vec<DriverStats>> {
    // A panicking session thread can only poison this lock between two
    // consistent fold states; the counters inside stay meaningful.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Metrics {
    /// A fresh registry; uptime counts from here.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            opened: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            active: AtomicU64::new(0),
            stats_probes: AtomicU64::new(0),
            failures: Default::default(),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            drivers: Mutex::new(Vec::new()),
        }
    }

    /// A session began (first frame activity on a connection). Pairs
    /// with exactly one [`Metrics::session_closed`].
    pub fn session_opened(&self) {
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A metrics scrape was answered (tracked apart from sessions so
    /// monitoring does not inflate the session counters it reports).
    pub fn stats_probe(&self) {
        self.stats_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// One protocol message moved; the per-frame hot path (no lock).
    pub fn transfer(&self, client_to_server: bool, bytes: u64) {
        if client_to_server {
            self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
            self.frames_in.fetch_add(1, Ordering::Relaxed);
        } else {
            self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
            self.frames_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A session ended; folds its usage into the per-driver aggregates
    /// and settles the outcome counters. `outcome` is `Ok(())` for a
    /// clean close, or the failure classification.
    pub fn session_closed(
        &self,
        driver: &str,
        mode: &str,
        outcome: Result<(), FailureKind>,
        usage: SessionUsage,
    ) {
        // The outcome counters move under the drivers lock, the one a
        // snapshot reads them under, so no snapshot shows a session as
        // closed before its driver row has it.
        let mut drivers = lock_drivers(&self.drivers);
        self.active.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(()) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(kind) => {
                self.failures[kind as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = match drivers
            .iter_mut()
            .find(|d| d.driver == driver && d.mode == mode)
        {
            Some(d) => d,
            None => {
                drivers.push(DriverStats {
                    driver: driver.to_owned(),
                    mode: mode.to_owned(),
                    sessions: 0,
                    completed: 0,
                    failed: 0,
                    bytes_in: 0,
                    bytes_out: 0,
                    half_rounds: 0,
                    wall_sum_micros: 0,
                    wall: Histo::new(),
                });
                drivers.last_mut().expect("just pushed")
            }
        };
        entry.sessions += 1;
        match outcome {
            Ok(()) => entry.completed += 1,
            Err(_) => entry.failed += 1,
        }
        entry.bytes_in += usage.bytes_in;
        entry.bytes_out += usage.bytes_out;
        entry.half_rounds += usage.half_rounds;
        entry.wall_sum_micros += usage.wall_micros;
        entry.wall.record(usage.wall_micros);
    }

    /// Sessions opened so far.
    pub fn sessions_opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Sessions that closed cleanly.
    pub fn sessions_completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Sessions torn down on any failure (sum over the taxonomy).
    pub fn sessions_failed(&self) -> u64 {
        self.failures
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Failures of one specific kind.
    pub fn failures(&self, kind: FailureKind) -> u64 {
        self.failures[kind as usize].load(Ordering::Relaxed)
    }

    /// Sessions currently in flight.
    pub fn sessions_active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Metrics scrapes answered.
    pub fn stats_probes(&self) -> u64 {
        self.stats_probes.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter and aggregate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Held until the counters below are read (see `session_closed`).
        let rows = lock_drivers(&self.drivers);
        let drivers = rows
            .iter()
            .map(|d| DriverSnapshot {
                driver: d.driver.clone(),
                mode: d.mode.clone(),
                sessions: d.sessions,
                completed: d.completed,
                failed: d.failed,
                bytes_in: d.bytes_in,
                bytes_out: d.bytes_out,
                half_rounds: d.half_rounds,
                wall_count: d.wall.count(),
                wall_sum_micros: d.wall_sum_micros,
                p50_micros: d.wall.p50(),
                p95_micros: d.wall.p95(),
                p99_micros: d.wall.p99(),
                buckets: d.wall.nonzero_buckets().collect(),
            })
            .collect();
        MetricsSnapshot {
            uptime_micros: self.started.elapsed().as_micros() as u64,
            sessions_opened: self.sessions_opened(),
            sessions_completed: self.sessions_completed(),
            sessions_active: self.sessions_active(),
            stats_probes: self.stats_probes(),
            failures: FailureKind::ALL
                .iter()
                .map(|&k| (k, self.failures(k)))
                .collect(),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            drivers,
        }
    }
}

/// One driver × mode row of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverSnapshot {
    /// Driver (experiment) name from the Hello frame.
    pub driver: String,
    /// `relay` or `compute`.
    pub mode: String,
    /// Sessions closed under this key (clean or failed).
    pub sessions: u64,
    /// Clean closes.
    pub completed: u64,
    /// Failed closes.
    pub failed: u64,
    /// Payload bytes, client → server, summed over sessions.
    pub bytes_in: u64,
    /// Payload bytes, server → client, summed over sessions.
    pub bytes_out: u64,
    /// Half-rounds summed over sessions.
    pub half_rounds: u64,
    /// Wall-clock samples in the histogram.
    pub wall_count: u64,
    /// Exact sum of session wall times in microseconds.
    pub wall_sum_micros: u64,
    /// Median session wall time (log2-bucket upper bound clamped into the
    /// sampled range).
    pub p50_micros: u64,
    /// 95th-percentile session wall time.
    pub p95_micros: u64,
    /// 99th-percentile session wall time.
    pub p99_micros: u64,
    /// `(bucket upper bound, count)` for every nonzero bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Microseconds since the registry was created.
    pub uptime_micros: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions closed cleanly.
    pub sessions_completed: u64,
    /// Sessions currently in flight.
    pub sessions_active: u64,
    /// Metrics scrapes answered.
    pub stats_probes: u64,
    /// Failure counters, one per [`FailureKind`], in `ALL` order.
    pub failures: Vec<(FailureKind, u64)>,
    /// Payload bytes, client → server, process lifetime.
    pub bytes_in: u64,
    /// Payload bytes, server → client, process lifetime.
    pub bytes_out: u64,
    /// Protocol messages, client → server.
    pub frames_in: u64,
    /// Protocol messages, server → client.
    pub frames_out: u64,
    /// Per-driver aggregates in first-session order.
    pub drivers: Vec<DriverSnapshot>,
}

impl MetricsSnapshot {
    /// Failed sessions (sum over the taxonomy).
    pub fn sessions_failed(&self) -> u64 {
        self.failures.iter().map(|&(_, n)| n).sum()
    }

    /// The counter for one failure kind.
    pub fn failure(&self, kind: FailureKind) -> u64 {
        self.failures
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0, |&(_, n)| n)
    }

    /// Total payload bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// The per-driver row for `(driver, mode)`, if any session ran it.
    pub fn driver(&self, driver: &str, mode: &str) -> Option<&DriverSnapshot> {
        self.drivers
            .iter()
            .find(|d| d.driver == driver && d.mode == mode)
    }

    /// Renders the `spfe-metrics/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
        out.push_str(&format!("  \"uptime_micros\": {},\n", self.uptime_micros));
        out.push_str(&format!(
            "  \"sessions\": {{\"opened\": {}, \"completed\": {}, \"failed\": {}, \
             \"active\": {}, \"stats_probes\": {}}},\n",
            self.sessions_opened,
            self.sessions_completed,
            self.sessions_failed(),
            self.sessions_active,
            self.stats_probes
        ));
        let kinds: Vec<String> = self
            .failures
            .iter()
            .map(|(k, n)| format!("\"{}\": {n}", k.name()))
            .collect();
        out.push_str(&format!("  \"failures\": {{{}}},\n", kinds.join(", ")));
        out.push_str(&format!(
            "  \"bytes\": {{\"in\": {}, \"out\": {}}},\n",
            self.bytes_in, self.bytes_out
        ));
        out.push_str(&format!(
            "  \"frames\": {{\"in\": {}, \"out\": {}}},\n",
            self.frames_in, self.frames_out
        ));
        out.push_str("  \"drivers\": [");
        for (i, d) in self.drivers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = d
                .buckets
                .iter()
                .map(|&(le, n)| format!("[{le}, {n}]"))
                .collect();
            out.push_str(&format!(
                "\n    {{\"driver\": \"{}\", \"mode\": \"{}\", \"sessions\": {}, \
                 \"completed\": {}, \"failed\": {}, \"bytes_in\": {}, \"bytes_out\": {}, \
                 \"half_rounds\": {}, \"wall_micros\": {{\"count\": {}, \"sum\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{}]}}}}",
                escape(&d.driver),
                escape(&d.mode),
                d.sessions,
                d.completed,
                d.failed,
                d.bytes_in,
                d.bytes_out,
                d.half_rounds,
                d.wall_count,
                d.wall_sum_micros,
                d.p50_micros,
                d.p95_micros,
                d.p99_micros,
                buckets.join(", ")
            ));
        }
        if !self.drivers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders Prometheus text exposition (format 0.0.4): counters,
    /// gauges, and one cumulative histogram per driver × mode.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        out.push_str(&format!(
            "# HELP spfe_uptime_seconds Seconds since the metrics registry was created.\n\
             # TYPE spfe_uptime_seconds gauge\nspfe_uptime_seconds {}\n",
            self.uptime_micros as f64 / 1e6
        ));
        counter(
            &mut out,
            "spfe_sessions_opened_total",
            "Sessions opened.",
            self.sessions_opened,
        );
        counter(
            &mut out,
            "spfe_sessions_completed_total",
            "Sessions closed cleanly.",
            self.sessions_completed,
        );
        out.push_str(
            "# HELP spfe_sessions_failed_total Sessions torn down, by failure kind.\n\
             # TYPE spfe_sessions_failed_total counter\n",
        );
        for &(kind, n) in &self.failures {
            out.push_str(&format!(
                "spfe_sessions_failed_total{{kind=\"{}\"}} {n}\n",
                prom_escape(kind.name())
            ));
        }
        gauge(
            &mut out,
            "spfe_sessions_active",
            "Sessions currently in flight.",
            self.sessions_active,
        );
        counter(
            &mut out,
            "spfe_stats_probes_total",
            "Metrics scrapes answered.",
            self.stats_probes,
        );
        out.push_str(
            "# HELP spfe_bytes_total Protocol payload bytes, by logical direction.\n\
             # TYPE spfe_bytes_total counter\n",
        );
        out.push_str(&format!(
            "spfe_bytes_total{{direction=\"in\"}} {}\n",
            self.bytes_in
        ));
        out.push_str(&format!(
            "spfe_bytes_total{{direction=\"out\"}} {}\n",
            self.bytes_out
        ));
        out.push_str(
            "# HELP spfe_frames_total Protocol messages, by logical direction.\n\
             # TYPE spfe_frames_total counter\n",
        );
        out.push_str(&format!(
            "spfe_frames_total{{direction=\"in\"}} {}\n",
            self.frames_in
        ));
        out.push_str(&format!(
            "spfe_frames_total{{direction=\"out\"}} {}\n",
            self.frames_out
        ));
        if !self.drivers.is_empty() {
            out.push_str(
                "# HELP spfe_driver_sessions_total Sessions closed, by driver and mode.\n\
                 # TYPE spfe_driver_sessions_total counter\n",
            );
            for d in &self.drivers {
                out.push_str(&format!(
                    "spfe_driver_sessions_total{{{}}} {}\n",
                    driver_labels(d),
                    d.sessions
                ));
            }
            out.push_str(
                "# HELP spfe_driver_failed_total Failed sessions, by driver and mode.\n\
                 # TYPE spfe_driver_failed_total counter\n",
            );
            for d in &self.drivers {
                out.push_str(&format!(
                    "spfe_driver_failed_total{{{}}} {}\n",
                    driver_labels(d),
                    d.failed
                ));
            }
            out.push_str(
                "# HELP spfe_driver_bytes_total Payload bytes, by driver, mode and direction.\n\
                 # TYPE spfe_driver_bytes_total counter\n",
            );
            for d in &self.drivers {
                out.push_str(&format!(
                    "spfe_driver_bytes_total{{{},direction=\"in\"}} {}\n",
                    driver_labels(d),
                    d.bytes_in
                ));
                out.push_str(&format!(
                    "spfe_driver_bytes_total{{{},direction=\"out\"}} {}\n",
                    driver_labels(d),
                    d.bytes_out
                ));
            }
            out.push_str(
                "# HELP spfe_driver_half_rounds_total Half-rounds, by driver and mode.\n\
                 # TYPE spfe_driver_half_rounds_total counter\n",
            );
            for d in &self.drivers {
                out.push_str(&format!(
                    "spfe_driver_half_rounds_total{{{}}} {}\n",
                    driver_labels(d),
                    d.half_rounds
                ));
            }
            out.push_str(
                "# HELP spfe_session_wall_micros Session wall time in microseconds.\n\
                 # TYPE spfe_session_wall_micros histogram\n",
            );
            for d in &self.drivers {
                let labels = driver_labels(d);
                // Emit the full stable bound ladder, occupied or not, so a
                // scrape pipeline sees the same bucket schema on every
                // scrape (the JSON snapshot stays nonzero-only).
                let mut cumulative = 0u64;
                let mut occupied = d.buckets.iter().peekable();
                for le in crate::histo::bucket_bounds() {
                    while let Some(&&(bound, n)) = occupied.peek() {
                        if bound > le {
                            break;
                        }
                        cumulative = cumulative.saturating_add(n);
                        occupied.next();
                    }
                    out.push_str(&format!(
                        "spfe_session_wall_micros_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
                    ));
                }
                out.push_str(&format!(
                    "spfe_session_wall_micros_bucket{{{labels},le=\"+Inf\"}} {}\n",
                    d.wall_count
                ));
                out.push_str(&format!(
                    "spfe_session_wall_micros_sum{{{labels}}} {}\n",
                    d.wall_sum_micros
                ));
                out.push_str(&format!(
                    "spfe_session_wall_micros_count{{{labels}}} {}\n",
                    d.wall_count
                ));
            }
        }
        out
    }
}

fn driver_labels(d: &DriverSnapshot) -> String {
    format!(
        "driver=\"{}\",mode=\"{}\"",
        prom_escape(&d.driver),
        prom_escape(&d.mode)
    )
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
pub fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn get_u64(doc: &Json, ctx: &str, path: &[&str]) -> Result<u64, String> {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("{ctx}: missing `{}`", path.join(".")))?;
    }
    node.as_u64()
        .ok_or_else(|| format!("{ctx}: `{}` is not a u64", path.join(".")))
}

/// Parses a `spfe-metrics/v1` document back into a snapshot.
///
/// # Errors
///
/// A human-readable message on malformed JSON, a wrong `schema` tag, or
/// a missing/ill-typed field.
pub fn parse_snapshot(src: &str) -> Result<MetricsSnapshot, String> {
    let doc = json::parse(src)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field")?;
    if schema != METRICS_SCHEMA {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let ctx = "metrics";
    let failures_obj = doc.get("failures").ok_or("missing `failures`")?;
    let mut failures = Vec::with_capacity(FailureKind::ALL.len());
    for kind in FailureKind::ALL {
        failures.push((kind, get_u64(failures_obj, ctx, &[kind.name()])?));
    }
    let mut drivers = Vec::new();
    for (i, entry) in doc
        .get("drivers")
        .and_then(Json::as_arr)
        .ok_or("missing `drivers` array")?
        .iter()
        .enumerate()
    {
        let ctx = format!("drivers[{i}]");
        let text = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("{ctx}: missing `{key}`"))
        };
        let mut buckets = Vec::new();
        for pair in entry
            .get("wall_micros")
            .and_then(|w| w.get("buckets"))
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: missing `wall_micros.buckets`"))?
        {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{ctx}: bucket is not a [le, count] pair"))?;
            buckets.push((
                pair[0]
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: bucket bound is not a u64"))?,
                pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: bucket count is not a u64"))?,
            ));
        }
        drivers.push(DriverSnapshot {
            driver: text("driver")?,
            mode: text("mode")?,
            sessions: get_u64(entry, &ctx, &["sessions"])?,
            completed: get_u64(entry, &ctx, &["completed"])?,
            failed: get_u64(entry, &ctx, &["failed"])?,
            bytes_in: get_u64(entry, &ctx, &["bytes_in"])?,
            bytes_out: get_u64(entry, &ctx, &["bytes_out"])?,
            half_rounds: get_u64(entry, &ctx, &["half_rounds"])?,
            wall_count: get_u64(entry, &ctx, &["wall_micros", "count"])?,
            wall_sum_micros: get_u64(entry, &ctx, &["wall_micros", "sum"])?,
            p50_micros: get_u64(entry, &ctx, &["wall_micros", "p50"])?,
            p95_micros: get_u64(entry, &ctx, &["wall_micros", "p95"])?,
            p99_micros: get_u64(entry, &ctx, &["wall_micros", "p99"])?,
            buckets,
        });
    }
    Ok(MetricsSnapshot {
        uptime_micros: get_u64(&doc, ctx, &["uptime_micros"])?,
        sessions_opened: get_u64(&doc, ctx, &["sessions", "opened"])?,
        sessions_completed: get_u64(&doc, ctx, &["sessions", "completed"])?,
        sessions_active: get_u64(&doc, ctx, &["sessions", "active"])?,
        stats_probes: get_u64(&doc, ctx, &["sessions", "stats_probes"])?,
        failures,
        bytes_in: get_u64(&doc, ctx, &["bytes", "in"])?,
        bytes_out: get_u64(&doc, ctx, &["bytes", "out"])?,
        frames_in: get_u64(&doc, ctx, &["frames", "in"])?,
        frames_out: get_u64(&doc, ctx, &["frames", "out"])?,
        drivers,
    })
}

/// Whether structured session logs are enabled: `SPFE_LOG` set to
/// anything other than empty, `0`, or `off`. Cached on first read.
pub fn log_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("SPFE_LOG")
            .map(|v| !v.is_empty() && v != "0" && v != "off")
            .unwrap_or(false)
    })
}

/// The next per-process session-log sequence number (starting at 1).
///
/// Wall clocks can repeat or step backwards between two log lines; the
/// sequence number is what gives a JSONL stream a total order a log
/// collector can sort and gap-check on. Monotonic per process, shared
/// across threads.
pub fn next_log_seq() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One structured session log line (JSONL on stderr, `SPFE_LOG`-gated).
#[derive(Debug, Clone)]
pub struct SessionLogRecord<'a> {
    /// Per-process monotonic sequence number ([`next_log_seq`]).
    pub seq: u64,
    /// Unix epoch microseconds when the session closed.
    pub ts_micros: u64,
    /// Session identifier from the Hello frame.
    pub session: u64,
    /// Peer address (`host:port`) as the server saw it.
    pub peer: &'a str,
    /// Driver / experiment id.
    pub driver: &'a str,
    /// `relay`, `compute`, or `client`.
    pub mode: &'a str,
    /// `ok` or a [`FailureKind`] name.
    pub outcome: &'a str,
    /// Wall-clock duration of the session in microseconds.
    pub wall_micros: u64,
    /// Payload bytes, client → server.
    pub bytes_in: u64,
    /// Payload bytes, server → client.
    pub bytes_out: u64,
    /// Half-rounds of the session.
    pub half_rounds: u64,
}

impl SessionLogRecord<'_> {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn render(&self) -> String {
        format!(
            "{{\"event\": \"session\", \"seq\": {}, \"ts_micros\": {}, \"session\": {}, \
             \"peer\": \"{}\", \"driver\": \"{}\", \"mode\": \"{}\", \
             \"outcome\": \"{}\", \"wall_micros\": {}, \"bytes_in\": {}, \
             \"bytes_out\": {}, \"half_rounds\": {}}}",
            self.seq,
            self.ts_micros,
            self.session,
            escape(self.peer),
            escape(self.driver),
            escape(self.mode),
            escape(self.outcome),
            self.wall_micros,
            self.bytes_in,
            self.bytes_out,
            self.half_rounds
        )
    }

    /// Writes the record to stderr if `SPFE_LOG` enables logging.
    pub fn emit(&self) {
        if log_enabled() {
            eprintln!("{}", self.render());
        }
    }
}

/// Unix epoch time in microseconds (for [`SessionLogRecord::ts_micros`]).
pub fn epoch_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(bytes_in: u64, bytes_out: u64, half_rounds: u64, wall: u64) -> SessionUsage {
        SessionUsage {
            bytes_in,
            bytes_out,
            frames_in: 1,
            frames_out: 1,
            half_rounds,
            wall_micros: wall,
        }
    }

    fn sample_registry() -> Metrics {
        let m = Metrics::new();
        for _ in 0..3 {
            m.session_opened();
        }
        m.transfer(true, 100);
        m.transfer(false, 40);
        m.transfer(true, 7);
        m.session_closed("hom_pir", "compute", Ok(()), usage(100, 40, 2, 900));
        m.session_closed("hom_pir", "compute", Ok(()), usage(7, 0, 1, 80_000));
        m.session_closed(
            "spir",
            "relay",
            Err(FailureKind::TransferTimeout),
            usage(0, 0, 0, 50),
        );
        m.stats_probe();
        m
    }

    #[test]
    fn registry_counts_sessions_failures_and_bytes() {
        let m = sample_registry();
        assert_eq!(m.sessions_opened(), 3);
        assert_eq!(m.sessions_completed(), 2);
        assert_eq!(m.sessions_failed(), 1);
        assert_eq!(m.failures(FailureKind::TransferTimeout), 1);
        assert_eq!(m.failures(FailureKind::CodecReject), 0);
        assert_eq!(m.sessions_active(), 0);
        assert_eq!(m.stats_probes(), 1);
        let snap = m.snapshot();
        assert_eq!((snap.bytes_in, snap.bytes_out), (107, 40));
        assert_eq!((snap.frames_in, snap.frames_out), (2, 1));
        assert_eq!(snap.sessions_failed(), 1);
        assert_eq!(snap.failure(FailureKind::TransferTimeout), 1);
        let hp = snap.driver("hom_pir", "compute").expect("hom_pir row");
        assert_eq!(hp.sessions, 2);
        assert_eq!(hp.completed, 2);
        assert_eq!((hp.bytes_in, hp.bytes_out, hp.half_rounds), (107, 40, 3));
        assert_eq!(hp.wall_sum_micros, 80_900);
        assert!(hp.p50_micros >= 900 && hp.p99_micros >= 80_000);
        assert_eq!(snap.driver("spir", "relay").unwrap().failed, 1);
        assert!(snap.driver("spir", "compute").is_none());
    }

    #[test]
    fn opened_equals_completed_plus_failed_plus_active() {
        let m = sample_registry();
        m.session_opened(); // one still in flight
        let snap = m.snapshot();
        assert_eq!(
            snap.sessions_opened,
            snap.sessions_completed + snap.sessions_failed() + snap.sessions_active
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = sample_registry().snapshot();
        let doc = snap.to_json();
        let parsed = parse_snapshot(&doc).expect("own rendering parses");
        assert_eq!(parsed, snap);
        // And the document is plain valid JSON for foreign consumers.
        assert!(json::parse(&doc).is_ok());
    }

    #[test]
    fn parse_rejects_foreign_and_broken_documents() {
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot("{\"schema\": \"spfe-cost-report/v3\"}").is_err());
        let mut doc = sample_registry().snapshot().to_json();
        doc = doc.replace("\"opened\"", "\"reopened\"");
        assert!(parse_snapshot(&doc).is_err());
    }

    #[test]
    fn empty_registry_snapshot_is_valid() {
        let snap = Metrics::new().snapshot();
        assert_eq!(parse_snapshot(&snap.to_json()).expect("parses"), snap);
        let prom = snap.prometheus();
        assert!(prom.contains("spfe_sessions_opened_total 0"));
        assert!(!prom.contains("spfe_driver_sessions_total{"));
    }

    #[test]
    fn failure_names_roundtrip_and_stay_stable() {
        for kind in FailureKind::ALL {
            assert_eq!(FailureKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FailureKind::from_name("nope"), None);
        // The taxonomy is wire-stable: renames are schema changes.
        let names: Vec<&str> = FailureKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "handshake-timeout",
                "transfer-timeout",
                "codec-reject",
                "protocol-error",
                "io",
                "driver-digest-mismatch",
                "panic"
            ]
        );
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let snap = sample_registry().snapshot();
        let prom = snap.prometheus();
        assert!(prom.contains("spfe_sessions_opened_total 3"));
        assert!(prom.contains("spfe_sessions_failed_total{kind=\"transfer-timeout\"} 1"));
        assert!(prom.contains("spfe_bytes_total{direction=\"in\"} 107"));
        assert!(prom.contains("spfe_driver_sessions_total{driver=\"hom_pir\",mode=\"compute\"} 2"));
        // Histogram invariants: buckets cumulative, +Inf equals _count.
        let inf: Vec<&str> = prom
            .lines()
            .filter(|l| l.contains("le=\"+Inf\"") && l.contains("driver=\"hom_pir\""))
            .collect();
        assert_eq!(inf.len(), 1);
        assert!(inf[0].ends_with(" 2"));
        assert!(prom
            .contains("spfe_session_wall_micros_sum{driver=\"hom_pir\",mode=\"compute\"} 80900"));
        // Every line is either a comment or `name{labels} value`.
        for line in prom.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "value parses: {line}");
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "metric name is sane: {line}"
            );
        }
    }

    #[test]
    fn prometheus_histogram_emits_the_full_bucket_ladder() {
        let snap = sample_registry().snapshot();
        let prom = snap.prometheus();
        // One cumulative series per stable bound, occupied or not, plus
        // +Inf — the exposition schema does not depend on the samples.
        for d in &snap.drivers {
            let labels = format!("driver=\"{}\",mode=\"{}\"", d.driver, d.mode);
            let buckets: Vec<&str> = prom
                .lines()
                .filter(|l| l.starts_with("spfe_session_wall_micros_bucket") && l.contains(&labels))
                .collect();
            assert_eq!(buckets.len(), crate::histo::NUM_BUCKETS + 1, "{labels}");
            // Empty low buckets are present with a cumulative count of 0.
            assert!(buckets[0].contains("le=\"0\"") && buckets[0].ends_with(" 0"));
            // Cumulative counts are monotone and end at the sample count.
            let counts: Vec<u64> = buckets
                .iter()
                .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
                .collect();
            assert!(counts.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*counts.last().unwrap(), d.wall_count);
            assert!(buckets.last().unwrap().contains("le=\"+Inf\""));
        }
    }

    #[test]
    fn prometheus_label_escaping() {
        assert_eq!(prom_escape("plain"), "plain");
        assert_eq!(prom_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let m = Metrics::new();
        m.session_opened();
        m.session_closed("we\"ird\\name", "relay", Ok(()), usage(1, 1, 1, 1));
        let prom = m.snapshot().prometheus();
        assert!(prom.contains("driver=\"we\\\"ird\\\\name\""));
    }

    #[test]
    fn histogram_folding_matches_at_one_and_four_threads() {
        // The per-driver latency fold must be schedule-invariant: the same
        // multiset of session closes folded from 1 thread and from 4
        // concurrent threads yields identical quantiles and totals.
        let samples: Vec<u64> = (0..400u64).map(|i| (i * i + 1) % 100_000).collect();
        let single = Metrics::new();
        for &s in &samples {
            single.session_opened();
            single.session_closed("d", "compute", Ok(()), usage(s, 2 * s, 2, s));
        }
        let folded = std::sync::Arc::new(Metrics::new());
        let mut handles = Vec::new();
        for chunk in samples.chunks(samples.len() / 4) {
            let m = std::sync::Arc::clone(&folded);
            let chunk = chunk.to_vec();
            handles.push(std::thread::spawn(move || {
                for s in chunk {
                    m.session_opened();
                    m.session_closed("d", "compute", Ok(()), usage(s, 2 * s, 2, s));
                }
            }));
        }
        for h in handles {
            h.join().expect("fold thread");
        }
        let mut a = single.snapshot();
        let mut b = folded.snapshot();
        a.uptime_micros = 0;
        b.uptime_micros = 0;
        assert_eq!(a, b, "fold is schedule-invariant");
        let d = a.driver("d", "compute").unwrap();
        assert_eq!(d.wall_count, samples.len() as u64);
        assert_eq!(d.wall_sum_micros, samples.iter().sum::<u64>());
        assert!(d.p50_micros <= d.p95_micros && d.p95_micros <= d.p99_micros);
    }

    #[test]
    fn session_log_line_is_valid_json() {
        let rec = SessionLogRecord {
            seq: 7,
            ts_micros: 1_700_000_000_000_000,
            session: 42,
            peer: "127.0.0.1:5000",
            driver: "hom_pir",
            mode: "compute",
            outcome: "ok",
            wall_micros: 1234,
            bytes_in: 10,
            bytes_out: 20,
            half_rounds: 2,
        };
        let line = rec.render();
        let doc = json::parse(&line).expect("log line is JSON");
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("session"));
        assert_eq!(doc.get("session").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("bytes_out").and_then(Json::as_u64), Some(20));
        // Hostile driver names stay inside the string literal.
        let hostile = SessionLogRecord {
            driver: "x\",\n\"inject",
            ..rec
        };
        assert!(json::parse(&hostile.render()).is_ok());
    }

    #[test]
    fn session_log_seq_roundtrips_and_is_monotonic() {
        // The seq field survives a render → parse roundtrip.
        let rec = SessionLogRecord {
            seq: next_log_seq(),
            ts_micros: 123,
            session: 1,
            peer: "local",
            driver: "d",
            mode: "relay",
            outcome: "ok",
            wall_micros: 1,
            bytes_in: 0,
            bytes_out: 0,
            half_rounds: 0,
        };
        let doc = json::parse(&rec.render()).expect("log line is JSON");
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(rec.seq));
        // The allocator is monotonic (and strictly increasing) per
        // process, even when other threads draw from it concurrently.
        let a = next_log_seq();
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..100).map(|_| next_log_seq()).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("seq thread"))
            .collect();
        let b = next_log_seq();
        assert!(a >= 1 && b > a);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "no two lines share a sequence number");
        assert!(all.iter().all(|&s| a < s && s < b));
    }
}
