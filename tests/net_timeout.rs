//! Deadline and fault behaviour of the networked service (DESIGN.md §15):
//! a stalling peer surfaces as a typed [`ProtocolError::Timeout`] within
//! the configured deadline (not a hang), a client session costs one
//! deadline however many messages it had in flight, and a session killed
//! mid-protocol leaves the server's other sessions fully functional.

mod common;
use common::*;

use spfe::transport::frame::{read_frame, write_frame};
use spfe::transport::{Frame, FrameKind, ProtocolError, SessionMode};
use spfe_net::{next_session_id, run_core, run_driver, Server, ServerConfig, StatsConn};
use spfe_obs::metrics::FailureKind;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(300);
/// Generous wall-clock bound: one deadline plus scheduling slack — the
/// point is "bounded by the deadline", not "takes forever".
const BOUND: Duration = Duration::from_secs(5);

fn connect_with_deadline(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(DEADLINE)).unwrap();
    s.set_write_timeout(Some(DEADLINE)).unwrap();
    s
}

/// Runs xor2's client core over a fresh connection to `addr`.
fn xor2_session(addr: SocketAddr) -> Result<(u64, spfe::transport::Transcript), ProtocolError> {
    let mut core = net_client_core("xor2").expect("xor2 core");
    run_core(
        connect_with_deadline(addr),
        "xor2",
        core.as_mut(),
        2,
        next_session_id(),
    )
}

/// Opens a compute session for `driver` by hand: Hello, then the
/// server's acknowledgement. Returns the stream and the session id.
fn hello(addr: SocketAddr, driver: &str) -> (TcpStream, u64) {
    let mut stream = connect_with_deadline(addr);
    let session = next_session_id();
    let hello = Frame {
        kind: FrameKind::Hello,
        client_to_server: true,
        session,
        half_round: 0,
        server: 0,
        label: driver.to_owned(),
        payload: vec![SessionMode::Compute as u8],
    };
    write_frame(&mut stream, &hello, 0, "net-hello").expect("hello");
    let ack = read_frame(&mut stream, 0, "net-hello").expect("hello acknowledgement");
    assert_eq!((ack.kind, ack.session), (FrameKind::Hello, session));
    (stream, session)
}

/// A server that accepts and then never answers: the Hello handshake
/// itself must time out, typed and bounded.
#[test]
fn stalling_server_times_out_the_handshake() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the connection open, answering nothing.
        std::thread::sleep(Duration::from_secs(6));
        drop(stream);
    });
    let start = Instant::now();
    let err = xor2_session(addr).expect_err("handshake against a mute server must fail");
    assert!(
        matches!(
            err,
            ProtocolError::Timeout {
                label: "net-hello",
                ..
            }
        ),
        "expected a typed handshake timeout, got {err:?}"
    );
    assert!(
        start.elapsed() < BOUND,
        "timeout took {:?}, deadline is {DEADLINE:?}",
        start.elapsed()
    );
    drop(hold); // detach; the holder thread exits on its own clock
}

/// A server that completes the handshake and then goes mute: the
/// session times out on its first reply, typed, after one deadline —
/// xor2 has two queries in flight, but a session waits once, not once
/// per message.
#[test]
fn stalling_server_times_out_one_deadline_total() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_frame(&mut stream, 0, "t").unwrap();
        let ack = Frame {
            kind: FrameKind::Hello,
            client_to_server: false,
            session: hello.session,
            half_round: 0,
            server: 0,
            label: hello.label.clone(),
            payload: hello.payload.clone(),
        };
        write_frame(&mut stream, &ack, 0, "t").unwrap();
        // Swallow everything after the handshake, reply to nothing.
        let mut sink = [0u8; 1024];
        while let Ok(n) = stream.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    let start = Instant::now();
    let err = xor2_session(addr).expect_err("a session against a mute server must fail");
    assert!(
        matches!(
            err,
            ProtocolError::Timeout {
                label: "net-msg",
                ..
            }
        ),
        "expected a typed reply timeout, got {err:?}"
    );
    assert!(
        start.elapsed() < BOUND,
        "the session took {:?}; it must cost one deadline",
        start.elapsed()
    );
    drop(peer);
}

/// Killing one session mid-protocol must not disturb the multiplexer:
/// other concurrent sessions — and sessions opened afterwards — still
/// complete with correct digests.
#[test]
fn killed_session_leaves_other_sessions_serving() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr_sock = server.local_addr();
    let addr = addr_sock.to_string();

    // Session A: handshake, one live exchange, then die mid-protocol.
    let (mut victim, session) = hello(addr_sock, "xor2");
    let query = net_client_core("xor2")
        .expect("xor2 core")
        .start()
        .expect("xor2 queries")
        .1
        .remove(0);
    let frame = Frame::msg(true, session, 1, query.server, query.label, query.payload);
    write_frame(&mut victim, &frame, query.server, query.label).expect("victim query");
    let reply = read_frame(&mut victim, 0, "victim").expect("victim reply");
    assert_eq!(
        (reply.kind, reply.label.as_str()),
        (FrameKind::Msg, "pir2-answer")
    );
    drop(victim); // no Bye: the connection just dies mid-session

    // Session B: feed the server a garbage frame so its session thread
    // errors out (not merely EOF).
    {
        use std::io::Write;
        let mut garbage = TcpStream::connect(addr_sock).expect("garbage connect");
        garbage
            .write_all(b"XXXXGARBAGEXXXXGARBAGEXXXXGARBAGE")
            .unwrap();
        let _ = garbage.flush();
    }

    // Sessions C…: full driver runs, concurrently, all correct.
    let table = drivers();
    let handles: Vec<_> = ["xor2", "poly_it", "hom_pir"]
        .iter()
        .map(|name| {
            let addr = addr.clone();
            let name = (*name).to_owned();
            std::thread::spawn(move || {
                let run = run_driver(&addr, &name, Some(Duration::from_secs(30)))
                    .expect("post-kill session");
                (name, run.digest)
            })
        })
        .collect();
    for h in handles {
        let (name, digest) = h.join().expect("session thread");
        let d = table.iter().find(|d| d.name == name).unwrap();
        assert_eq!(
            digest, d.expect,
            "[{name}] session after a killed session must still be correct"
        );
    }

    // The failure taxonomy pins down *which* disruption was counted:
    // the victim's silent disconnect is a clean EOF (completed), the
    // garbage frame is exactly one codec reject — not a generic "failed"
    // blur. Session threads settle asynchronously; poll until they do.
    let start = Instant::now();
    let snap = loop {
        let snap = server.snapshot();
        if snap.sessions_opened >= 5 && snap.sessions_active == 0 {
            break snap;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "sessions never settled: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(snap.sessions_opened, 5);
    assert_eq!(
        snap.sessions_completed, 4,
        "victim EOF + three driver runs all complete: {snap:?}"
    );
    assert_eq!(snap.sessions_failed(), 1);
    assert_eq!(
        server.failures(FailureKind::CodecReject),
        1,
        "the garbage frame must be counted as a codec reject, not io/protocol"
    );
}

/// Shutdown must not wait on clients that never hang up: a held-open
/// metrics scrape (`spfe-client stats --watch`), a connection that never
/// says Hello, and a session idle after its handshake, all on a
/// server with no read deadline. Each is ended by shutdown and settled
/// into the registry before it returns.
#[test]
fn shutdown_is_bounded_with_held_open_connections() {
    let _ = fx();
    let config = ServerConfig {
        read_deadline: None,
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr_sock = server.local_addr();
    let addr = addr_sock.to_string();

    let mut watcher = StatsConn::connect(&addr, Some(BOUND)).expect("scrape connect");
    watcher.fetch(false).expect("first scrape");
    let _mute = TcpStream::connect(addr_sock).expect("mute connect");
    let _idle = hello(addr_sock, "xor2");
    // Let the mute connection's session thread start its Hello read.
    std::thread::sleep(Duration::from_millis(50));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(start.elapsed());
        server
    });
    let took = done_rx
        .recv_timeout(BOUND)
        .expect("shutdown must not wait for clients that never hang up");
    assert!(took < BOUND, "shutdown took {took:?}");
    let server = stopper.join().expect("shutdown thread");

    let snap = server.snapshot();
    assert_eq!(snap.sessions_active, 0, "every session settled: {snap:?}");
    assert_eq!(snap.sessions_opened, 1, "only the idle session opened");
    assert_eq!(snap.sessions_completed, 1, "{snap:?}");
    assert_eq!(snap.stats_probes, 1);
    assert!(
        watcher.fetch(false).is_err(),
        "the scrape connection is closed by shutdown"
    );
}
