//! The SPFE session server: a TCP accept loop multiplexing concurrent
//! sessions, one thread per connection.
//!
//! Each connection carries exactly one session, opened by a Hello frame
//! whose label names the driver and whose payload carries
//! [`SessionMode::Compute`] (any other mode byte is refused with an Error
//! frame) — or a [`FrameKind::Stats`] scrape, answered with a
//! live `spfe-metrics/v1` snapshot on the same listener (DESIGN.md §16).
//! Sessions are fully isolated: a connection that stalls, dies
//! mid-protocol, sends garbage, or even panics its session thread poisons
//! only its own session — the accept loop and every other session keep
//! running, which is the property `tests/net_timeout.rs` pins down.
//!
//! Every session settles into the operational [`Metrics`] registry:
//! opened/completed counters, the typed [`FailureKind`] taxonomy instead
//! of one opaque `failed` count, and a per-`(driver, mode)` row of bytes,
//! frames, half-rounds and wall-clock histogram, folded at close from the
//! session's [`FlowMeter`] — the one record the server keeps of each
//! frame. A received frame is journalled once its core has answered,
//! under its own label only if the core accepted it, so the journal's
//! labels stay within the protocols' static sets whatever the network
//! sends. Rows are keyed by the harness driver's own name, so a Hello
//! naming no known driver folds into one `unknown` row however many
//! distinct names the network sends. With
//! `SPFE_LOG` set, each session additionally emits one structured JSONL
//! line on stderr ([`SessionLogRecord`]).
//!
//! Shutdown is cooperative: [`Server::shutdown`] flips a flag and nudges
//! the accept loop awake with a loopback connection, then joins it. It
//! then shuts down every live session's socket, which ends each session
//! at its next socket call, and joins the session threads. No signal
//! handling, no non-std dependencies.

use spfe::harness;
use spfe_obs::metrics::{
    epoch_micros, FailureKind, Metrics, MetricsSnapshot, SessionLogRecord, SessionUsage,
};
use spfe_obs::trace as journal;
use spfe_transport::frame::{read_frame_or_eof, read_frame_or_eof_traced, write_frame};
use spfe_transport::{
    FlowMeter, Frame, FrameKind, Lamport, ProtocolError, SessionCore, SessionMode,
};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection read deadline. A session whose client goes quiet
    /// for longer is torn down (its thread exits); other sessions are
    /// unaffected. `None` waits forever.
    pub read_deadline: Option<Duration>,
    /// Fault injection for tests: a Hello naming this driver makes the
    /// session thread panic mid-handshake, exercising the unwind-capture
    /// path (counted as [`FailureKind::Panic`]). Never set in production.
    pub inject_panic_driver: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_deadline: Some(Duration::from_secs(30)),
            inject_panic_driver: None,
        }
    }
}

/// A running SPFE session server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    accept: Option<JoinHandle<()>>,
    /// Sessions not yet joined (see [`accept_loop`]).
    sessions: Arc<Mutex<Vec<LiveSession>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from binding the listener.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::new());
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let sessions = Arc::clone(&sessions);
            std::thread::spawn(move || accept_loop(&listener, &config, &stop, &metrics, &sessions))
        };
        Ok(Server {
            addr: local,
            stop,
            metrics,
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry (shared with the accept loop).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time copy of every operational counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Sessions opened so far (a connection that showed frame activity;
    /// clean connect-and-close probes and metrics scrapes are excluded).
    pub fn sessions_opened(&self) -> u64 {
        self.metrics.sessions_opened()
    }

    /// Sessions that ran to a clean close (Bye or clean EOF).
    pub fn sessions_completed(&self) -> u64 {
        self.metrics.sessions_completed()
    }

    /// Sessions torn down on an error, summed over the failure taxonomy.
    pub fn sessions_failed(&self) -> u64 {
        self.metrics.sessions_failed()
    }

    /// Sessions torn down with one specific [`FailureKind`].
    pub fn failures(&self, kind: FailureKind) -> u64 {
        self.metrics.failures(kind)
    }

    /// Stops accepting, wakes the accept loop, and joins it. Then shuts
    /// down every live session's socket in both directions and joins the
    /// session threads. A session waiting on its client (an idle
    /// connection, a `--watch` scraper) ends at once; one mid-step ends
    /// at its next write or read. Frames the client already sent are
    /// still read (Linux keeps a shut-down socket's receive queue), so a
    /// session whose Bye has arrived completes normally.
    /// Once this returns every session has settled into the metrics
    /// registry and flushed its trace journal.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() awake with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let sessions = std::mem::take(&mut *lock(&self.sessions));
        for s in &sessions {
            if let Some(socket) = s.socket.upgrade() {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        for s in sessions {
            let _ = s.thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maps a session-stage [`ProtocolError`] into the failure taxonomy.
/// `handshake` is true until the Hello acknowledgement was written.
pub fn classify_failure(handshake: bool, e: &ProtocolError) -> FailureKind {
    match e {
        ProtocolError::Codec(_) => FailureKind::CodecReject,
        ProtocolError::Timeout { .. } if handshake => FailureKind::HandshakeTimeout,
        ProtocolError::Timeout { .. } | ProtocolError::RetriesExhausted { .. } => {
            FailureKind::TransferTimeout
        }
        ProtocolError::ServerCrashed { .. } | ProtocolError::Dropped { .. } => FailureKind::Io,
        _ => FailureKind::ProtocolError,
    }
}

/// A session thread and a weak handle on its socket, through which
/// [`Server::shutdown`] ends the session's blocking reads. The thread
/// holds the only strong handle, so the socket closes when it exits.
#[derive(Debug)]
struct LiveSession {
    thread: JoinHandle<()>,
    socket: Weak<TcpStream>,
}

/// Locks the session list; a panic while it was held cannot leave it
/// inconsistent (every update is one retain and one push), so poisoning
/// is recovered.
fn lock(sessions: &Mutex<Vec<LiveSession>>) -> std::sync::MutexGuard<'_, Vec<LiveSession>> {
    sessions.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Accepts connections until `stop`, one session thread each. Finished
/// sessions are dropped from the list as new ones arrive, so a
/// long-running server keeps only live ones; [`Server::shutdown`] ends
/// and joins the rest.
fn accept_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    stop: &AtomicBool,
    metrics: &Arc<Metrics>,
    sessions: &Mutex<Vec<LiveSession>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = Arc::new(stream);
        let socket = Arc::downgrade(&stream);
        let config = config.clone();
        let metrics = Arc::clone(metrics);
        let thread = std::thread::spawn(move || run_session(&stream, &config, &metrics));
        let mut live = lock(sessions);
        live.retain(|s| !s.thread.is_finished());
        live.push(LiveSession { thread, socket });
    }
}

/// How a session ended when no failure tore it down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEnd {
    /// Clean EOF before any frame (the shutdown nudge, port scanners):
    /// not a session, nothing counted.
    Noop,
    /// A metrics scrape; tracked as `stats_probes`, not as a session.
    Stats,
    /// A session that ran to Bye or clean EOF.
    Completed,
}

/// A torn-down session: the classification plus the underlying error.
#[derive(Debug)]
struct SessionFailure {
    kind: FailureKind,
    #[allow(dead_code)] // kept for debug formatting in logs/tests
    error: ProtocolError,
}

/// What the session thread knows about itself, shared across the unwind
/// boundary so a panicking session still settles its partial accounting.
#[derive(Debug, Default)]
struct SessionCtx {
    session: u64,
    /// The harness driver the Hello named; empty until the driver table
    /// knows the name.
    driver: &'static str,
    /// `compute` once the Hello was accepted (and the session's open
    /// journalled); empty before.
    mode: &'static str,
    opened: bool,
    flow: FlowMeter,
}

fn lock_ctx<'a>(ctx: &'a Mutex<SessionCtx>) -> std::sync::MutexGuard<'a, SessionCtx> {
    ctx.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts the session as opened exactly once (first frame activity).
fn ensure_opened(ctx: &Mutex<SessionCtx>, metrics: &Metrics) {
    let mut c = lock_ctx(ctx);
    if !c.opened {
        c.opened = true;
        metrics.session_opened();
    }
}

/// Builds a classified failure, making sure the session was counted as
/// opened first so `opened == completed + failed + active` always holds.
fn fail(
    ctx: &Mutex<SessionCtx>,
    metrics: &Metrics,
    handshake: bool,
    error: ProtocolError,
) -> SessionFailure {
    ensure_opened(ctx, metrics);
    SessionFailure {
        kind: classify_failure(handshake, &error),
        error,
    }
}

/// Runs one connection to completion and settles its metrics + log line.
fn run_session(mut stream: &TcpStream, config: &ServerConfig, metrics: &Arc<Metrics>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    let start = Instant::now();
    let ctx = Mutex::new(SessionCtx::default());
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve_connection(&mut stream, config, metrics, &ctx)
    }));
    let ctx = ctx.into_inner().unwrap_or_else(PoisonError::into_inner);
    let outcome: Result<(), FailureKind> = match &result {
        Ok(Ok(SessionEnd::Noop)) | Ok(Ok(SessionEnd::Stats)) => return,
        Ok(Ok(SessionEnd::Completed)) => Ok(()),
        Ok(Err(f)) => Err(f.kind),
        Err(_) => {
            // The session thread panicked. The unwind is contained here:
            // count it, log it, and let the thread exit quietly.
            if !ctx.opened {
                metrics.session_opened();
            }
            Err(FailureKind::Panic)
        }
    };
    let usage = SessionUsage {
        bytes_in: ctx.flow.bytes_in,
        bytes_out: ctx.flow.bytes_out,
        frames_in: ctx.flow.frames_in,
        frames_out: ctx.flow.frames_out,
        half_rounds: u64::from(ctx.flow.half_rounds()),
        wall_micros: start.elapsed().as_micros() as u64,
    };
    let or_unknown = |name: &'static str| if name.is_empty() { "unknown" } else { name };
    let (driver, mode) = (or_unknown(ctx.driver), or_unknown(ctx.mode));
    metrics.session_closed(driver, mode, outcome, usage);
    // Close the per-session span in this thread's trace journal; the
    // settle path runs even when the session failed or panicked, so a
    // captured server journal always balances its session slices.
    if !ctx.mode.is_empty() {
        spfe_obs::net_session_event(false, ctx.session, driver, SessionMode::Compute as u8);
    }
    SessionLogRecord {
        seq: spfe_obs::metrics::next_log_seq(),
        ts_micros: epoch_micros(),
        session: ctx.session,
        peer: &peer,
        driver,
        mode,
        outcome: match outcome {
            Ok(()) => "ok",
            Err(kind) => kind.name(),
        },
        wall_micros: usage.wall_micros,
        bytes_in: usage.bytes_in,
        bytes_out: usage.bytes_out,
        half_rounds: usage.half_rounds,
    }
    .emit();
}

/// Sends an Error frame (best effort).
fn send_error(stream: &mut &TcpStream, session: u64, label: &str, reason: &'static str) {
    let frame = Frame {
        kind: FrameKind::Error,
        client_to_server: false,
        session,
        half_round: 0,
        server: 0,
        label: label.to_owned(),
        payload: reason.as_bytes().to_vec(),
    };
    let _ = write_frame(stream, &frame, 0, "net-error");
}

/// Refuses the session: an Error frame to the peer, a classified
/// protocol failure here.
fn refuse(
    stream: &mut &TcpStream,
    ctx: &Mutex<SessionCtx>,
    metrics: &Metrics,
    handshake: bool,
    session: u64,
    label: &str,
    reason: &'static str,
) -> SessionFailure {
    send_error(stream, session, label, reason);
    let e = ProtocolError::InvalidMessage {
        label: "net-session",
        reason,
    };
    fail(ctx, metrics, handshake, e)
}

/// Runs one session (or scrape) on the session's own thread.
fn serve_connection(
    stream: &mut &TcpStream,
    config: &ServerConfig,
    metrics: &Metrics,
    ctx: &Mutex<SessionCtx>,
) -> Result<SessionEnd, SessionFailure> {
    // TCP_NODELAY: replies are small frames the client waits on, which
    // Nagle would hold for the client's delayed ACK.
    if stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(config.read_deadline))
        .and_then(|()| stream.set_write_timeout(config.read_deadline))
        .is_err()
    {
        return Err(fail(
            ctx,
            metrics,
            true,
            ProtocolError::InvalidMessage {
                label: "net-session",
                reason: "could not configure the socket",
            },
        ));
    }
    let hello = match read_frame_or_eof(stream, true, 0, "net-hello") {
        // The shutdown nudge (and port scanners) connect and immediately
        // close; that is a no-op, not a failed session.
        Ok(None) => return Ok(SessionEnd::Noop),
        Ok(Some(f)) => f,
        Err(e) => return Err(fail(ctx, metrics, true, e)),
    };
    if hello.kind == FrameKind::Stats {
        return Ok(stats_session(stream, metrics, hello));
    }
    ensure_opened(ctx, metrics);
    let driver = harness::driver(&hello.label);
    let session = hello.session;
    {
        let mut c = lock_ctx(ctx);
        c.session = session;
        c.driver = driver.map_or("", |d| d.name);
    }
    let reject = |stream: &mut &TcpStream, label: &str, reason| {
        Err(refuse(stream, ctx, metrics, true, session, label, reason))
    };
    if hello.kind != FrameKind::Hello {
        return reject(stream, "", "expected a hello frame");
    }
    if hello.payload.first() != Some(&(SessionMode::Compute as u8)) {
        return reject(stream, &hello.label, "unknown session mode");
    }
    let Some(driver) = driver else {
        return reject(stream, &hello.label, "unknown driver");
    };
    lock_ctx(ctx).mode = "compute";
    spfe_obs::net_session_event(true, session, driver.name, SessionMode::Compute as u8);
    if config.inject_panic_driver.as_deref() == Some(driver.name) {
        panic!("injected session panic (ServerConfig::inject_panic_driver)");
    }
    let mut cores = driver.hosted_cores();
    let ack = Frame {
        kind: FrameKind::Hello,
        client_to_server: false,
        session,
        half_round: 0,
        server: 0,
        label: hello.label.clone(),
        payload: vec![SessionMode::Compute as u8],
    };
    if let Err(e) = write_frame(stream, &ack, 0, "net-hello") {
        return Err(fail(ctx, metrics, true, e));
    }
    compute_session(stream, session, &mut cores, metrics, ctx).map(|()| SessionEnd::Completed)
}

/// Answers [`FrameKind::Stats`] requests until the scraper hangs up.
/// Scrapes are best effort and never count as session failures; each
/// answered request bumps `stats_probes`. The request payload selects
/// the format: `[0]` (or empty) = `spfe-metrics/v1` JSON, `[1]` =
/// Prometheus text exposition.
fn stats_session(stream: &mut &TcpStream, metrics: &Metrics, first: Frame) -> SessionEnd {
    let mut request = first;
    loop {
        metrics.stats_probe();
        let snap = metrics.snapshot();
        let (label, body) = if request.payload.first() == Some(&1) {
            ("prom", snap.prometheus())
        } else {
            ("json", snap.to_json())
        };
        let reply = Frame {
            kind: FrameKind::Stats,
            client_to_server: false,
            session: request.session,
            half_round: 0,
            server: 0,
            label: label.to_owned(),
            payload: body.into_bytes(),
        };
        if write_frame(stream, &reply, 0, "net-stats").is_err() {
            return SessionEnd::Stats;
        }
        request = match read_frame_or_eof(stream, true, 0, "net-stats") {
            // `--watch` holds the connection and sends further Stats
            // frames; anything else ends the scrape.
            Ok(Some(f)) if f.kind == FrameKind::Stats => f,
            _ => return SessionEnd::Stats,
        };
    }
}

/// Compute mode: feed each Msg frame to the addressed server core and
/// write its replies back, until every core is consumed (the client sends
/// Bye) or an error tears the session down. Incoming frames meter as
/// client → server traffic, originated replies as server → client, each
/// once, on the session's [`FlowMeter`]. An incoming frame is journalled
/// once its core has returned: under its own label if the core accepted
/// it, else under [`journal::REJECTED_LABEL`], so no peer can make the
/// journal intern a label outside the protocols' static sets.
fn compute_session(
    stream: &mut &TcpStream,
    session: u64,
    cores: &mut [Box<dyn SessionCore + Send>],
    metrics: &Metrics,
    ctx: &Mutex<SessionCtx>,
) -> Result<(), SessionFailure> {
    let proto = |ctx: &Mutex<SessionCtx>, e: ProtocolError| fail(ctx, metrics, false, e);
    let reject = |stream: &mut &TcpStream, label: &str, reason| {
        Err(refuse(stream, ctx, metrics, false, session, label, reason))
    };
    for core in cores.iter_mut() {
        let (_, outs) = match core.start() {
            Ok(r) => r,
            Err(e) => return Err(proto(ctx, e)),
        };
        if !outs.is_empty() {
            return reject(stream, "", "server core tried to speak first");
        }
    }
    let mut clock = Lamport::new();
    loop {
        let (frame, carried) = match read_frame_or_eof_traced(stream, true, 0, "net-compute") {
            Ok(None) => return Ok(()),
            Ok(Some(got)) => got,
            Err(e) => return Err(proto(ctx, e)),
        };
        let recv_stamp = clock.observe(carried.unwrap_or(0));
        match frame.kind {
            FrameKind::Bye => {
                lock_ctx(ctx).flow.observe_bye(&frame, recv_stamp);
                return Ok(());
            }
            FrameKind::Msg if frame.session == session => {
                lock_ctx(ctx).flow.meter_msg(&frame);
                let journal_recv = |label: &str| {
                    let bytes = frame.payload.len() as u64;
                    spfe_obs::net_frame_event(false, label, bytes, frame.half_round, recv_stamp);
                };
                let idx = frame.server as usize;
                if idx >= cores.len() {
                    journal_recv(journal::REJECTED_LABEL);
                    return reject(stream, &frame.label, "message addresses an unknown server");
                }
                let step =
                    cores[idx].on_message(frame.half_round, idx, &frame.label, &frame.payload);
                journal_recv(match step {
                    Ok(_) => &frame.label,
                    Err(_) => journal::REJECTED_LABEL,
                });
                let (_, outs) = match step {
                    Ok(r) => r,
                    Err(e) => {
                        let reason = "server core rejected the message";
                        send_error(stream, session, &frame.label, reason);
                        return Err(proto(ctx, e));
                    }
                };
                for m in outs {
                    if m.client_to_server {
                        return reject(
                            stream,
                            m.label,
                            "server core emitted a misdirected message",
                        );
                    }
                    let reply = Frame {
                        kind: FrameKind::Msg,
                        client_to_server: false,
                        session,
                        half_round: frame.half_round + 1,
                        server: m.server as u32,
                        label: m.label.to_owned(),
                        payload: m.payload,
                    };
                    let stamp = clock.tick();
                    lock_ctx(ctx).flow.observe_msg(&reply, stamp);
                    if journal::tracing() {
                        let ctx_frame = Frame::trace_ctx(false, session, reply.half_round, stamp);
                        if let Err(e) = write_frame(stream, &ctx_frame, m.server, m.label) {
                            return Err(proto(ctx, e));
                        }
                    }
                    if let Err(e) = write_frame(stream, &reply, m.server, m.label) {
                        return Err(proto(ctx, e));
                    }
                }
            }
            _ => return reject(stream, &frame.label, "unexpected frame in compute session"),
        }
    }
}
