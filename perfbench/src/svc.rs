//! `svc-compute`: two closed-loop clients against an in-process
//! `spfe_net::Server` on 127.0.0.1. One request is a batch of the
//! compute-mode harness drivers (those the server hosts real cores for:
//! xor2, hom_pir, poly_it, multiserver) in a seeded order, each a TCP
//! session through `spfe_net::run_driver`.
//!
//! The relay-mode drivers are not in the measured batch: their many
//! ping-pong wakeups make batch latency swing with host CPU steal far
//! beyond any usable bound. The traced run still times every one of the 13
//! drivers over TCP and in memory for the `net.*` per-layer rows.

use crate::calib::Probe;
use crate::inputs;
use crate::run::{closed_loop, Config, LoopResult, Outcome, Repeats, Report, Setups};
use crate::stats::median;
use crate::trace::{SpanIndex, TracedClient, TracedServer, Tracer};
use spfe::harness::{self, Driver};
use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
use spfe_net::{run_driver, NetRun, Server, ServerConfig};
use spfe_obs::metrics::MetricsSnapshot;
use spfe_transport::frame::{read_frame, write_frame};
use spfe_transport::{pump, Direction, Frame, FrameKind, SessionMode, Transcript};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients (and so concurrent connections).
const CLIENTS: usize = 2;
/// Distinct seeded batch orders.
const INPUTS: usize = 8;
/// Timed set-ups per run (after an untimed one); `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Per-driver samples of the per-layer passes: relay drivers over TCP,
/// every driver in memory.
const PASS_REPS: usize = 7;
/// Client-side read/write deadline per session.
const DEADLINE: Duration = Duration::from_secs(30);
/// First request number of the per-layer passes (distinct from the
/// measured loop's).
const PASS_REQUESTS: u64 = 1 << 40;

/// One set-up: the harness fixture's key generation (the same seed and
/// sizes as `spfe::harness::fx`) plus binding the server.
fn setup() -> Server {
    let mut rng = ChaChaRng::from_u64_seed(0xADE5);
    black_box(SchnorrGroup::generate(96, &mut rng));
    black_box(Paillier::keygen(160, &mut rng));
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind a loopback port")
}

/// Waits until every session the server opened has settled (completed or
/// failed) and returns that snapshot.
fn settled(server: &Server) -> MetricsSnapshot {
    let until = Instant::now() + Duration::from_secs(10);
    loop {
        let s = server.snapshot();
        if s.sessions_active == 0 || Instant::now() >= until {
            return s;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One TCP session of `d`, inside a `net.session` span, with its digest
/// checked.
fn session(addr: &str, d: &Driver, tracer: &Tracer) -> Result<NetRun, String> {
    match tracer.span("net.session", d.name, || {
        run_driver(addr, d.name, Some(DEADLINE))
    }) {
        Ok(run) if run.digest == d.expect => Ok(run),
        Ok(run) => Err(format!("{}: digest {} != {}", d.name, run.digest, d.expect)),
        Err(e) => Err(format!("{}: {e:?}", d.name)),
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Arc<Tracer>, report: &mut Report) {
    let drivers = harness::drivers();
    let batch: Vec<&Driver> = drivers
        .iter()
        .filter(|d| harness::NET_CORE_DRIVERS.contains(&d.name))
        .collect();
    let orders = inputs::driver_orders(cfg.seed, batch.len(), INPUTS);

    let probe = Probe::new();
    let (server, setup_s) = Setups::time(&probe, SETUP_REPS, setup);
    let addr = server.local_addr().to_string();
    let fx = harness::fx();
    report.note(format!(
        "keys: paillier {} bits, schnorr group {} bits (harness fixture)",
        fx.pk.n().bit_len(),
        fx.group.p().bit_len()
    ));

    // Warm-up pass over all 13 drivers (untimed): lazy fixtures, pool
    // workers, first connects. It records each driver's mode, and the
    // batch drivers' transcripts give the codec workload.
    let mut warm = Vec::new();
    for d in &drivers {
        let run = session(&addr, d, &Tracer::new(false)).expect("warm-up session");
        let mode = match run.mode {
            SessionMode::Relay => "relay",
            SessionMode::Compute => "compute",
        };
        report.note(format!("mode {} {mode}", d.name));
        if batch.iter().any(|b| b.name == d.name) {
            warm.push(run);
        }
    }

    let repeats = Repeats::new(INPUTS);
    let request = |j: u64, tracer: &Arc<Tracer>| {
        let input = (j % INPUTS as u64) as usize;
        tracer.request(j, "request", || {
            let mut out = Outcome::default();
            for &i in &orders[input] {
                out.sessions += 1;
                match session(&addr, batch[i], tracer) {
                    Ok(run) => out.comm_bytes += run.transcript.report().total_bytes(),
                    Err(e) => {
                        out.fail(e);
                        return out;
                    }
                }
            }
            if let Err(e) = repeats.check(input, out.comm_bytes) {
                out.fail(e);
            }
            out
        })
    };

    let before = settled(&server);
    if !cfg.trace {
        let r = closed_loop(
            CLIENTS,
            cfg.seconds,
            0,
            INPUTS as u64,
            tracer,
            Some(&probe),
            &request,
        );
        report.tally(&r);
        report.end_to_end(&r, &setup_s);
        report.set("comm_bytes_per_request", repeats.mean());
        check_server(report, &before, &settled(&server), &r);
        return;
    }

    let untraced = Tracer::new(false);
    let half = cfg.seconds / 2.0;
    let base = closed_loop(CLIENTS, half, 0, INPUTS as u64, &untraced, None, &request);
    report.tally(&base);
    report.wall(&base);
    let mid = settled(&server);
    check_server(report, &before, &mid, &base);
    let ops0 = spfe_obs::ops_snapshot();
    let traced = closed_loop(
        CLIENTS,
        half,
        base.requests,
        INPUTS as u64,
        tracer,
        None,
        &request,
    );
    let ops1 = spfe_obs::ops_snapshot();
    report.tally(&traced);
    let after = settled(&server);
    check_server(report, &mid, &after, &traced);
    crate::layers::ops_per_request(report, &ops0, &ops1, traced.requests);
    report.set(
        "obs.trace_overhead_ratio",
        median(&traced.latencies_ms) / median(&base.latencies_ms),
    );
    let frames = (after.frames_in + after.frames_out) - (mid.frames_in + mid.frames_out);
    report.set(
        "net.server_frames_per_request",
        frames as f64 / traced.requests as f64,
    );

    // Per-layer passes, one session at a time: the relay drivers over TCP,
    // then every driver in memory — the same computation without sockets.
    let mut relay = LoopResult::default();
    let mut j = PASS_REQUESTS;
    for d in drivers
        .iter()
        .filter(|d| !batch.iter().any(|b| b.name == d.name))
    {
        for _ in 0..PASS_REPS {
            j += 1;
            relay.sessions += 1;
            if let Err(e) = tracer.request(j, "relay.request", || session(&addr, d, tracer)) {
                relay.failed += 1;
                relay.errors.push(e);
            }
        }
    }
    report.tally(&relay);
    let end = settled(&server);
    check_server(report, &after, &end, &relay);
    report.set(
        "net.server_failed",
        (end.sessions_failed() - before.sessions_failed()) as f64,
    );
    for d in &drivers {
        for _ in 0..PASS_REPS {
            j += 1;
            let digest = tracer.request(j, "mem.request", || in_memory(d, tracer));
            if digest != Ok(d.expect) {
                report
                    .problems
                    .push(format!("{}: in-memory digest {digest:?}", d.name));
            }
        }
    }

    let spans = SpanIndex::new(tracer.spans());
    let mut pump_overhead = 0.0;
    for d in &drivers {
        let tcp = median(&spans.per_request(&["net.session"], Some(d.name)));
        let mem = median(&spans.per_request(&["mem.session"], Some(d.name)));
        report.set(&format!("net.session_ms.{}", d.name), tcp);
        report.set(&format!("net.overhead_ms.{}", d.name), tcp - mem);
        let pumped = spans.self_per_request(&["pump"], Some(d.name));
        if !pumped.is_empty() {
            pump_overhead += median(&pumped);
        }
    }
    report.set("transport.pump_overhead_ms", pump_overhead);
    report.note(format!(
        "transport.pump_overhead_ms base: in-memory runs of the {} batch drivers, summed",
        batch.len()
    ));
    let frames = batch_frames(&warm);
    report.set("transport.codec_us_per_request", codec_us(&frames, tracer));
    report.note(format!(
        "transport.codec_us_per_request base: the {} frames of one batch, encoded and decoded in memory",
        frames.len()
    ));
}

/// One in-memory run of `d` inside a `mem.session` span: `pump` over the
/// harness cores for compute-mode drivers, the monolithic driver over a
/// `Transcript` for the rest.
fn in_memory(d: &Driver, tracer: &Arc<Tracer>) -> Result<u64, spfe_transport::ProtocolError> {
    tracer.span("mem.session", d.name, || {
        match harness::net_client_core(d.name) {
            Some(mut client) => {
                let cores = harness::net_server_cores(d.name).expect("server cores");
                let mut servers = TracedServer::wrap(cores, tracer);
                let mut t = Transcript::new(d.servers);
                let mut traced = TracedClient {
                    inner: client.as_mut(),
                    tracer,
                };
                tracer.span("pump", d.name, || pump(&mut t, &mut traced, &mut servers))
            }
            None => (d.run)(&mut Transcript::new(d.servers)),
        }
    })
}

/// Cross-checks the server's tallies between two snapshots against what
/// the clients saw in `r`.
fn check_server(
    report: &mut Report,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    r: &LoopResult,
) {
    let failed = after.sessions_failed() - before.sessions_failed();
    let completed = after.sessions_completed - before.sessions_completed;
    report.note(format!(
        "server: {completed} sessions completed, {failed} failed; clients: {} ok, {} failed",
        r.sessions - r.failed,
        r.failed
    ));
    if failed != r.failed || completed != r.sessions - r.failed {
        report.problems.push(format!(
            "server tallies ({completed} completed, {failed} failed) disagree with the clients ({} ok, {} failed)",
            r.sessions - r.failed,
            r.failed
        ));
    }
}

/// The frames of one batch as client and server exchange them: per session
/// a Hello, its acknowledgement and a Bye, and every metered message.
fn batch_frames(runs: &[NetRun]) -> Vec<Frame> {
    let control = |kind, client_to_server| Frame {
        kind,
        client_to_server,
        session: 1,
        half_round: 0,
        server: 0,
        label: "driver".to_owned(),
        payload: vec![1],
    };
    let mut frames = Vec::new();
    for run in runs {
        frames.push(control(FrameKind::Hello, true));
        frames.push(control(FrameKind::Hello, false));
        for m in run.transcript.records() {
            frames.push(Frame::msg(
                matches!(m.direction, Direction::ClientToServer(_)),
                1,
                m.half_round,
                m.direction.server(),
                m.label,
                vec![0xA5; m.bytes],
            ));
        }
        frames.push(control(FrameKind::Bye, true));
    }
    frames
}

/// Median time to encode `frames` into one buffer and decode them back, µs.
fn codec_us(frames: &[Frame], tracer: &Tracer) -> f64 {
    tracer.span("codec", "", || {
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut buf = Vec::new();
        while samples.len() < 200 || start.elapsed() < Duration::from_millis(300) {
            let t = Instant::now();
            buf.clear();
            for f in frames {
                write_frame(&mut buf, f, 0, "codec").expect("in-memory write");
            }
            let mut rd = Cursor::new(&buf);
            for _ in frames {
                black_box(read_frame(&mut rd, 0, "codec").expect("in-memory read"));
            }
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&samples)
    })
}
