//! The metrics-conformance contract (DESIGN.md §16): the server's
//! operational telemetry is not a rough gauge but an *exact* mirror of
//! the client-side metered transcripts — per-driver session counts, byte
//! totals in both directions, and half-round structure all match to the
//! unit. On top of that, the scrape endpoint must serve well-formed
//! `spfe-metrics/v1` JSON (roundtripping through `spfe-obs::json`) and
//! Prometheus text exposition over the same TCP listener, failures must
//! land in the right [`FailureKind`] bucket, and a panicking session
//! thread must be contained, counted, and survivable.

mod common;
use common::*;

use spfe::transport::frame::{read_frame, write_frame};
use spfe::transport::{Frame, FrameKind, SessionMode};
use spfe_bench::serve;
use spfe_net::{fetch_stats, run_driver, Server, ServerConfig};
use spfe_obs::metrics::{parse_snapshot, FailureKind, MetricsSnapshot};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Session threads settle their accounting asynchronously after the
/// client returns; poll until the expected number of sessions closed.
fn wait_settled(server: &Server, opened: u64) -> MetricsSnapshot {
    let start = Instant::now();
    loop {
        let snap = server.snapshot();
        if snap.sessions_opened >= opened && snap.sessions_active == 0 {
            return snap;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "sessions never settled: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole contract: after sessions of two drivers, the server's
/// per-driver rows equal the client transcripts exactly — sessions,
/// bytes in/out, half-rounds — and the JSON scraped over the wire parses
/// back to the same counters.
#[test]
fn server_metrics_match_client_transcripts_exactly() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    // Two sessions of the same driver (aggregates must add up)…
    let mut hom_pir_reports = Vec::new();
    for _ in 0..2 {
        let run = run_driver(&addr, "hom_pir", Some(DEADLINE)).expect("hom_pir over TCP");
        assert_eq!(run.mode, spfe::transport::SessionMode::Compute);
        hom_pir_reports.push(run.transcript.report());
    }
    // …and one of another (rows must not mix).
    let xor2 = run_driver(&addr, "xor2", Some(DEADLINE)).expect("xor2 over TCP");
    let xor2_report = xor2.transcript.report();

    let snap = wait_settled(&server, 3);
    assert_eq!(snap.sessions_opened, 3);
    assert_eq!(snap.sessions_completed, 3);
    assert_eq!(snap.sessions_failed(), 0);

    let hp = snap
        .driver("hom_pir", "compute")
        .expect("hom_pir/compute row");
    assert_eq!(hp.sessions, 2);
    assert_eq!(hp.completed, 2);
    assert_eq!(
        hp.bytes_in,
        hom_pir_reports
            .iter()
            .map(|r| r.client_to_server)
            .sum::<u64>(),
        "server-metered client->server bytes must equal the client transcripts"
    );
    assert_eq!(
        hp.bytes_out,
        hom_pir_reports
            .iter()
            .map(|r| r.server_to_client)
            .sum::<u64>()
    );
    assert_eq!(
        hp.half_rounds,
        hom_pir_reports
            .iter()
            .map(|r| u64::from(r.half_rounds))
            .sum::<u64>(),
        "Bye carries the final transcript stamp; the server must agree"
    );

    let xr = snap.driver("xor2", "compute").expect("xor2/compute row");
    assert_eq!((xr.sessions, xr.completed), (1, 1));
    assert_eq!(xr.bytes_in, xor2_report.client_to_server);
    assert_eq!(xr.bytes_out, xor2_report.server_to_client);
    assert_eq!(xr.half_rounds, u64::from(xor2_report.half_rounds));

    // Global byte totals are the sum of the per-driver rows — scrape
    // traffic never inflates them.
    assert_eq!(snap.bytes_in, hp.bytes_in + xr.bytes_in);
    assert_eq!(snap.bytes_out, hp.bytes_out + xr.bytes_out);

    // The same snapshot over the wire: scraped JSON parses back with
    // identical session/byte counters and passes the health gate.
    let wire = fetch_stats(&addr, false, Some(DEADLINE)).expect("stats scrape");
    let parsed = parse_snapshot(&wire).expect("scraped snapshot parses");
    assert_eq!(parsed.sessions_opened, snap.sessions_opened);
    assert_eq!(parsed.sessions_completed, snap.sessions_completed);
    assert_eq!(
        (parsed.bytes_in, parsed.bytes_out),
        (snap.bytes_in, snap.bytes_out)
    );
    assert_eq!(parsed.drivers, snap.drivers);
    assert!(
        serve::check_health(&parsed).ok(),
        "healthy after clean runs"
    );

    // Scrapes are probes, not sessions.
    let after = server.snapshot();
    assert_eq!(after.sessions_opened, 3);
    assert!(after.stats_probes >= 1);
}

/// The same listener answers Prometheus text exposition, well-formed:
/// counter TYPE lines, cumulative histogram with an `+Inf` bucket whose
/// count equals `_count`, and label values drawn from the driver rows.
#[test]
fn prometheus_exposition_over_the_wire_is_wellformed() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    run_driver(&addr, "xor2", Some(DEADLINE)).expect("xor2 run");
    wait_settled(&server, 1);

    let prom = fetch_stats(&addr, true, Some(DEADLINE)).expect("prom scrape");
    assert!(prom.ends_with('\n'), "exposition must end with a newline");
    for needle in [
        "# TYPE spfe_sessions_opened_total counter",
        "spfe_sessions_opened_total 1",
        "# TYPE spfe_session_wall_micros histogram",
        "spfe_session_wall_micros_bucket{",
        "le=\"+Inf\"",
        "spfe_bytes_total{direction=\"in\"}",
        "mode=\"compute\"",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    // Every failure kind is exported, zero or not, so dashboards can
    // query a stable series set.
    for kind in FailureKind::ALL {
        let series = format!("spfe_sessions_failed_total{{kind=\"{}\"}}", kind.name());
        assert!(prom.contains(&series), "missing series `{series}`");
    }
}

/// Failures land in their taxonomy bucket: a garbage first frame is a
/// codec reject; a client that connects and stalls mid-handshake is a
/// handshake timeout; a Hello in the retired relay mode, and each of 200
/// Hellos naming distinct unknown drivers, is refused with an Error
/// frame, a protocol error. Rows are keyed by known driver names only:
/// every session without one folds into a single `unknown` row, and the
/// server still serves afterwards. Each failed session still counts as
/// opened, so the `opened == completed + failed + active` invariant
/// holds throughout.
#[test]
fn failure_kinds_are_counted_in_the_right_bucket() {
    let _ = fx();
    let config = ServerConfig {
        read_deadline: Some(Duration::from_millis(200)),
        inject_panic_driver: None,
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr_sock = server.local_addr();
    let addr = addr_sock.to_string();

    // Codec reject: a first frame that cannot be a header.
    {
        let mut garbage = TcpStream::connect(addr_sock).expect("connect");
        garbage
            .write_all(b"XXXXGARBAGEXXXXGARBAGEXXXXGARBAGE")
            .unwrap();
        let _ = garbage.flush();
    }
    // Handshake timeout: two header bytes, then silence past the deadline.
    let staller = TcpStream::connect(addr_sock).expect("connect");
    (&staller).write_all(&[0x53, 0x50]).unwrap();

    // A Hello the server must refuse with an Error frame.
    let refused = |label: String, mode: SessionMode| {
        let mut probe = TcpStream::connect(addr_sock).expect("connect");
        probe.set_read_timeout(Some(DEADLINE)).unwrap();
        let hello = Frame {
            kind: FrameKind::Hello,
            client_to_server: true,
            session: 1,
            half_round: 0,
            server: 0,
            label,
            payload: vec![mode as u8],
        };
        write_frame(&mut probe, &hello, 0, "net-hello").unwrap();
        let reply = read_frame(&mut probe, 0, "net-hello").expect("the refusal");
        assert_eq!(reply.kind, FrameKind::Error, "{:?} is refused", hello.label);
    };
    // Retired mode: a Hello with mode byte 0.
    refused("xor2".to_owned(), SessionMode::Relay);
    // Hostile names: each refused, none granted a row of its own.
    const HOSTILE: u64 = 200;
    for i in 0..HOSTILE {
        refused(format!("no-such-driver-{i}"), SessionMode::Compute);
    }

    // A clean session afterwards: failures must not disturb it.
    run_driver(&addr, "xor2", Some(DEADLINE)).expect("clean session");

    let start = Instant::now();
    let snap = loop {
        let snap = server.snapshot();
        if snap.sessions_failed() >= 3 + HOSTILE {
            break snap;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "failures never counted: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    drop(staller);

    assert_eq!(server.failures(FailureKind::CodecReject), 1);
    assert_eq!(server.failures(FailureKind::HandshakeTimeout), 1);
    assert_eq!(server.failures(FailureKind::ProtocolError), 1 + HOSTILE);
    assert_eq!(snap.sessions_completed, 1);
    let unknown: Vec<_> = snap
        .drivers
        .iter()
        .filter(|d| d.driver == "unknown")
        .collect();
    assert_eq!(unknown.len(), 1, "one unknown row: {:?}", snap.drivers);
    // The hostile Hellos, the garbage frame and the staller.
    assert_eq!(
        (unknown[0].sessions, unknown[0].failed),
        (HOSTILE + 2, HOSTILE + 2)
    );
    assert_eq!(snap.drivers.len(), 3, "unknown, xor2 refused, xor2 served");
    assert_eq!(
        snap.sessions_opened,
        snap.sessions_completed + snap.sessions_failed() + snap.sessions_active,
        "opened must equal completed + failed + active: {snap:?}"
    );
}

/// A panicking session thread (fault-injected) is contained by the
/// unwind boundary: counted as [`FailureKind::Panic`], the accept loop
/// keeps serving, and later sessions of other drivers complete.
#[test]
fn session_panic_is_contained_counted_and_survivable() {
    let _ = fx();
    let config = ServerConfig {
        read_deadline: Some(Duration::from_secs(30)),
        inject_panic_driver: Some("xor2".to_owned()),
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();
    let table = drivers();

    run_driver(&addr, "xor2", Some(Duration::from_secs(5)))
        .expect_err("session against a panicking thread must fail client-side");

    let start = Instant::now();
    while server.failures(FailureKind::Panic) == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "panic never counted: {:?}",
            server.snapshot()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.failures(FailureKind::Panic), 1);

    // The multiplexer survived: an untainted driver still serves.
    let run = run_driver(&addr, "hom_pir", Some(DEADLINE)).expect("post-panic session");
    let d = table.iter().find(|d| d.name == "hom_pir").unwrap();
    assert_eq!(run.digest, d.expect);
    let snap = wait_settled(&server, 2);
    assert_eq!(snap.sessions_completed, 1);
    assert_eq!(snap.sessions_failed(), 1);
    let row = snap
        .driver("xor2", "compute")
        .expect("panicked row is folded");
    assert_eq!((row.sessions, row.failed), (1, 1));
}
