//! Cross-process session-trace merging (DESIGN.md §17).
//!
//! `spfe-client --trace` and `spfe-server --trace` each write a Perfetto
//! JSON journal of their own half of a networked run: per-session slices
//! plus one Lamport-stamped instant per wire send/receive. The two files
//! share no wall clock — each process stamps microseconds from its own
//! trace epoch — so this module correlates them *causally*: the client's
//! n-th send of a session must pair with the server's n-th receive on
//! the same ordered stream, and the receiver's Lamport stamp must be
//! strictly greater than the sender's.
//!
//! [`parse_party`] reads one party's journal back into structured form;
//! [`merge`] pairs the two parties' wire events, checks the causal gate,
//! and renders one merged Perfetto timeline: one process track per party
//! (plus an `on-wire` track of synthesized transfer slices), flow-event
//! arrows from every send to its matching receive, and the server's
//! clock shifted by the midpoint of the feasibility interval that the
//! matched pairs induce. The *gate* never consults timestamps — wall
//! clocks are cosmetic; causal consistency is decided by Lamport stamps,
//! pair counts, and byte totals alone, so the check is deterministic
//! under arbitrary scheduling.
//!
//! The `spfe-tables net-trace` subcommand is the CLI wrapper; the CI
//! smoke stage runs it over the journals captured alongside the fifo
//! smoke run and fails the build on any violation.

use spfe_obs::json::{self, escape, Json};

/// One session slice of a party's journal: `session:<driver>` with the
/// `(session, mode)` tag from the open event.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSlice {
    /// Session identifier (from the Hello frame).
    pub session: u64,
    /// Driver (experiment) name.
    pub driver: String,
    /// Session mode code (1 = compute, the only mode a server accepts).
    pub mode: u64,
    /// Journal thread the session ran on.
    pub tid: u64,
    /// Slice begin, microseconds in the party's own clock.
    pub begin_us: f64,
    /// Slice end, microseconds in the party's own clock.
    pub end_us: f64,
}

/// One Lamport-stamped wire instant of a party's journal.
#[derive(Debug, Clone, PartialEq)]
pub struct NetEvent {
    /// The session the event belongs to (0 when outside any slice).
    pub session: u64,
    /// Journal thread.
    pub tid: u64,
    /// Event time, microseconds in the party's own clock.
    pub ts_us: f64,
    /// Protocol label of the frame.
    pub label: String,
    /// `true` for a send, `false` for a receive.
    pub send: bool,
    /// Payload bytes of the frame.
    pub bytes: u64,
    /// Half-round counter carried on the frame.
    pub half_round: u64,
    /// The party's Lamport stamp at the event.
    pub lamport: u64,
}

/// One party's journal, parsed back from its Perfetto JSON export.
#[derive(Debug, Clone, Default)]
pub struct PartyTrace {
    /// Session slices, in journal order.
    pub sessions: Vec<SessionSlice>,
    /// Wire events, in journal order, session-attributed.
    pub events: Vec<NetEvent>,
}

impl PartyTrace {
    /// The session slice for `session`, if the party journalled it.
    pub fn session(&self, session: u64) -> Option<&SessionSlice> {
        self.sessions.iter().find(|s| s.session == session)
    }

    /// Wire events of one session with the given direction, journal order.
    pub fn session_events(&self, session: u64, send: bool) -> Vec<&NetEvent> {
        self.events
            .iter()
            .filter(|e| e.session == session && e.send == send)
            .collect()
    }
}

/// Parses one party's `--trace` output back into structured form.
///
/// Net instants are attributed to the enclosing session slice on the
/// same journal thread (the exporters emit each thread's events in
/// order, so a per-thread stack of open slices is exact).
///
/// # Errors
///
/// A human-readable message on malformed JSON or a document without a
/// `traceEvents` array.
pub fn parse_party(src: &str) -> Result<PartyTrace, String> {
    let doc = json::parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut party = PartyTrace::default();
    // Per-thread stack of indices into `party.sessions` still open.
    let mut open: Vec<(u64, Vec<usize>)> = Vec::new();
    let stack_of = |open: &mut Vec<(u64, Vec<usize>)>, tid: u64| -> usize {
        match open.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                open.push((tid, Vec::new()));
                open.len() - 1
            }
        }
    };
    for e in events {
        let cat = e.get("cat").and_then(Json::as_str).unwrap_or("");
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        match (cat, ph) {
            ("session", "B") => {
                let name = e.get("name").and_then(Json::as_str).unwrap_or("");
                let driver = name.strip_prefix("session:").unwrap_or(name).to_owned();
                let args = e.get("args");
                let session = args
                    .and_then(|a| a.get("session"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                let mode = args
                    .and_then(|a| a.get("mode"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                let idx = party.sessions.len();
                party.sessions.push(SessionSlice {
                    session,
                    driver,
                    mode,
                    tid,
                    begin_us: ts,
                    end_us: ts,
                });
                let s = stack_of(&mut open, tid);
                open[s].1.push(idx);
            }
            ("session", "E") => {
                let s = stack_of(&mut open, tid);
                if let Some(idx) = open[s].1.pop() {
                    party.sessions[idx].end_us = ts;
                }
            }
            ("net", _) => {
                let s = stack_of(&mut open, tid);
                let session = open[s]
                    .1
                    .last()
                    .map_or(0, |&idx| party.sessions[idx].session);
                let args = e.get("args");
                let field = |key: &str| args.and_then(|a| a.get(key)).and_then(Json::as_u64);
                party.events.push(NetEvent {
                    session,
                    tid,
                    ts_us: ts,
                    label: e
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    send: args.and_then(|a| a.get("dir")).and_then(Json::as_str) == Some("send"),
                    bytes: field("bytes").unwrap_or(0),
                    half_round: field("half_round").unwrap_or(0),
                    lamport: field("lamport").unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    Ok(party)
}

/// A matched send → receive pair across the two parties.
#[derive(Debug, Clone)]
struct Flow {
    session: u64,
    label: String,
    /// `true`: client sent, server received.
    client_to_server: bool,
    send_ts_us: f64,
    recv_ts_us: f64,
    send_tid: u64,
    recv_tid: u64,
    send_lamport: u64,
    recv_lamport: u64,
    half_round: u64,
}

/// The outcome of one merge: violations (empty means the merged timeline
/// is causally consistent) plus summary counters for the report line.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// The experiment / capture id the merge was run under.
    pub id: String,
    /// Sessions present on both sides.
    pub sessions: usize,
    /// Matched send → receive pairs (flow arrows in the timeline).
    pub flows: usize,
    /// Microseconds added to server timestamps in the merged timeline.
    pub offset_us: f64,
    /// Every causal-consistency violation found, human-readable.
    pub violations: Vec<String>,
}

impl MergeReport {
    /// One summary line for logs: id, counters, verdict.
    pub fn summary(&self) -> String {
        if self.violations.is_empty() {
            format!(
                "net-trace {}: sessions={} flows={} offset_us={:.3} causally consistent",
                self.id, self.sessions, self.flows, self.offset_us
            )
        } else {
            format!(
                "net-trace {}: sessions={} flows={} violations={}",
                self.id,
                self.sessions,
                self.flows,
                self.violations.len()
            )
        }
    }
}

/// Pairs one direction of one session and appends the matched flows,
/// checking the Lamport gate, label agreement, and byte agreement.
fn pair_direction(
    session: u64,
    client_to_server: bool,
    sends: &[&NetEvent],
    recvs: &[&NetEvent],
    flows: &mut Vec<Flow>,
    violations: &mut Vec<String>,
) {
    let dir = if client_to_server {
        "client->server"
    } else {
        "server->client"
    };
    if sends.len() != recvs.len() {
        violations.push(format!(
            "session {session}: {dir} sent {} frames but {} were received",
            sends.len(),
            recvs.len()
        ));
    }
    for (s, r) in sends.iter().zip(recvs.iter()) {
        if s.label != r.label {
            violations.push(format!(
                "session {session}: {dir} pairing mismatch: sent \"{}\", received \"{}\"",
                s.label, r.label
            ));
        }
        if s.bytes != r.bytes {
            violations.push(format!(
                "session {session}: {dir} \"{}\": sent {} bytes, received {}",
                s.label, s.bytes, r.bytes
            ));
        }
        if r.lamport <= s.lamport {
            violations.push(format!(
                "session {session}: {dir} \"{}\": receive stamp {} is not after send stamp {}",
                s.label, r.lamport, s.lamport
            ));
        }
        flows.push(Flow {
            session,
            label: s.label.clone(),
            client_to_server,
            send_ts_us: s.ts_us,
            recv_ts_us: r.ts_us,
            send_tid: s.tid,
            recv_tid: r.tid,
            send_lamport: s.lamport,
            recv_lamport: r.lamport,
            half_round: s.half_round,
        });
    }
}

/// Merges a client and a server journal into one Perfetto timeline and
/// runs the causal-consistency gate. Returns the rendered timeline and
/// the report; the timeline is produced even when the gate fails, so a
/// violating run can still be inspected.
pub fn merge(id: &str, client: &PartyTrace, server: &PartyTrace) -> (String, MergeReport) {
    let mut violations = Vec::new();
    let mut flows: Vec<Flow> = Vec::new();
    // Session sets must agree before pairing makes sense.
    for s in &client.sessions {
        if server.session(s.session).is_none() {
            violations.push(format!(
                "session {} ({}): journalled by the client only",
                s.session, s.driver
            ));
        }
    }
    for s in &server.sessions {
        if client.session(s.session).is_none() {
            violations.push(format!(
                "session {} ({}): journalled by the server only",
                s.session, s.driver
            ));
        }
    }
    let mut common = 0usize;
    for cs in &client.sessions {
        let Some(ss) = server.session(cs.session) else {
            continue;
        };
        common += 1;
        if cs.driver != ss.driver || cs.mode != ss.mode {
            violations.push(format!(
                "session {}: parties disagree on (driver, mode): client ({}, {}), server ({}, {})",
                cs.session, cs.driver, cs.mode, ss.driver, ss.mode
            ));
        }
        pair_direction(
            cs.session,
            true,
            &client.session_events(cs.session, true),
            &server.session_events(cs.session, false),
            &mut flows,
            &mut violations,
        );
        pair_direction(
            cs.session,
            false,
            &server.session_events(cs.session, true),
            &client.session_events(cs.session, false),
            &mut flows,
            &mut violations,
        );
        // Half-round counters are carried on the frames themselves, so
        // the deepest half-round each side journalled must agree.
        let depth = |p: &PartyTrace| {
            p.events
                .iter()
                .filter(|e| e.session == cs.session)
                .map(|e| e.half_round)
                .max()
                .unwrap_or(0)
        };
        let (cd, sd) = (depth(client), depth(server));
        if cd != sd {
            violations.push(format!(
                "session {}: half-round depth disagrees: client {cd}, server {sd}",
                cs.session
            ));
        }
    }
    // Cosmetic clock alignment: shift server time so every matched pair
    // is feasible (send before receive) where possible. Each pair bounds
    // the offset on one side; take the midpoint of the interval.
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for f in &flows {
        if f.client_to_server {
            // client send + 0 <= server recv + offset
            lo = lo.max(f.send_ts_us - f.recv_ts_us);
        } else {
            // server send + offset <= client recv
            hi = hi.min(f.recv_ts_us - f.send_ts_us);
        }
    }
    let offset_us = match (lo.is_finite(), hi.is_finite()) {
        (true, true) => (lo + hi) / 2.0,
        (true, false) => lo,
        (false, true) => hi,
        (false, false) => 0.0,
    };
    let report = MergeReport {
        id: id.to_owned(),
        sessions: common,
        flows: flows.len(),
        offset_us,
        violations,
    };
    (render(id, client, server, &flows, offset_us), report)
}

const CLIENT_PID: u64 = 1;
const SERVER_PID: u64 = 2;
const WIRE_PID: u64 = 3;

fn ts(us: f64) -> String {
    format!("{us:.3}")
}

/// Renders the merged Perfetto timeline: metadata naming the three
/// process tracks, both parties' session slices and wire instants
/// (server clock shifted by `offset_us`), one flow arrow per matched
/// pair, and one synthesized `on-wire` slice per pair showing the frame
/// in transit.
fn render(
    id: &str,
    client: &PartyTrace,
    server: &PartyTrace,
    flows: &[Flow],
    offset_us: f64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"spfe-net-trace/v1\",\"id\":\"{}\",\"server_offset_us\":{:.3}}},\"traceEvents\":[",
        escape(id),
        offset_us
    ));
    let mut first = true;
    let mut emit = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    for (pid, name) in [
        (CLIENT_PID, "spfe-client"),
        (SERVER_PID, "spfe-server"),
        (WIRE_PID, "on-wire"),
    ] {
        emit(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    let party = |out: &mut String,
                 emit: &mut dyn FnMut(&mut String, String),
                 p: &PartyTrace,
                 pid: u64,
                 shift: f64| {
        for s in &p.sessions {
            emit(out, format!(
                "{{\"name\":\"session:{}\",\"cat\":\"session\",\"ph\":\"B\",\"ts\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"session\":{},\"mode\":{}}}}}",
                escape(&s.driver), ts(s.begin_us + shift), s.tid, s.session, s.mode
            ));
            emit(out, format!(
                "{{\"name\":\"session:{}\",\"cat\":\"session\",\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\"tid\":{}}}",
                escape(&s.driver), ts(s.end_us.max(s.begin_us) + shift), s.tid
            ));
        }
        for e in &p.events {
            let dir = if e.send { "send" } else { "recv" };
            emit(out, format!(
                "{{\"name\":\"{}\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"dir\":\"{dir}\",\"bytes\":{},\"half_round\":{},\"lamport\":{},\"session\":{}}}}}",
                escape(&e.label), ts(e.ts_us + shift), e.tid, e.bytes, e.half_round, e.lamport, e.session
            ));
        }
    };
    party(&mut out, &mut emit, client, CLIENT_PID, 0.0);
    party(&mut out, &mut emit, server, SERVER_PID, offset_us);
    for (i, f) in flows.iter().enumerate() {
        let (send_pid, recv_pid, send_shift, recv_shift) = if f.client_to_server {
            (CLIENT_PID, SERVER_PID, 0.0, offset_us)
        } else {
            (SERVER_PID, CLIENT_PID, offset_us, 0.0)
        };
        let send_ts = f.send_ts_us + send_shift;
        let recv_ts = f.recv_ts_us + recv_shift;
        emit(&mut out, format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{i},\"ts\":{},\"pid\":{send_pid},\"tid\":{}}}",
            escape(&f.label), ts(send_ts), f.send_tid
        ));
        emit(&mut out, format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{i},\"ts\":{},\"pid\":{recv_pid},\"tid\":{}}}",
            escape(&f.label), ts(recv_ts), f.recv_tid
        ));
        // The synthesized in-transit slice: one wire track per session.
        let dur = (recv_ts - send_ts).max(0.001);
        emit(&mut out, format!(
            "{{\"name\":\"{}\",\"cat\":\"wire-span\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur:.3},\"pid\":{WIRE_PID},\"tid\":{},\"args\":{{\"half_round\":{},\"lamport_send\":{},\"lamport_recv\":{}}}}}",
            escape(&f.label), ts(send_ts), f.session, f.half_round, f.send_lamport, f.recv_lamport
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_obs::export::perfetto_json;
    use spfe_obs::trace::{Event, EventKind, ThreadTrace, Trace};

    fn stamp(half_round: u64, lamport: u64) -> u64 {
        (half_round << 32) | lamport
    }

    fn ev(kind: EventKind, t_ns: u64, label: &'static str, a: u64, b: u64) -> Event {
        Event {
            kind,
            t_ns,
            label,
            a,
            b,
        }
    }

    /// One session 7: the client sends q (64 B) and bye, the server
    /// answers q with a (32 B). Stamps follow the wire protocol: client
    /// tick=1, server observe→2 tick=3, client observe→4; bye tick=5,
    /// server observe→6.
    fn sample_parties() -> (PartyTrace, PartyTrace) {
        let client = Trace {
            threads: vec![ThreadTrace {
                thread: 0,
                events: vec![
                    ev(EventKind::NetSessionOpen, 0, "xor2", 7, 1),
                    ev(EventKind::NetSend, 1_000, "q", 64, stamp(1, 1)),
                    ev(EventKind::NetRecv, 5_000, "a", 32, stamp(2, 4)),
                    ev(EventKind::NetSend, 6_000, "net-bye", 0, stamp(2, 5)),
                    ev(EventKind::NetSessionClose, 7_000, "xor2", 7, 1),
                ],
                dropped: 0,
            }],
            cap: 64,
        };
        // The server clock is offset (its own epoch): everything ~1 ms
        // "earlier" than the client's, which alignment must absorb.
        let server = Trace {
            threads: vec![ThreadTrace {
                thread: 9,
                events: vec![
                    ev(EventKind::NetSessionOpen, 100, "xor2", 7, 1),
                    ev(EventKind::NetRecv, 500, "q", 64, stamp(1, 2)),
                    ev(EventKind::NetSend, 900, "a", 32, stamp(2, 3)),
                    ev(EventKind::NetRecv, 1_500, "net-bye", 0, stamp(2, 6)),
                    ev(EventKind::NetSessionClose, 1_600, "xor2", 7, 1),
                ],
                dropped: 0,
            }],
            cap: 64,
        };
        (
            parse_party(&perfetto_json(&client)).unwrap(),
            parse_party(&perfetto_json(&server)).unwrap(),
        )
    }

    #[test]
    fn parse_party_reads_back_sessions_and_stamped_events() {
        let (client, _) = sample_parties();
        assert_eq!(client.sessions.len(), 1);
        let s = &client.sessions[0];
        assert_eq!((s.session, s.driver.as_str(), s.mode), (7, "xor2", 1));
        assert!(s.begin_us < s.end_us);
        assert_eq!(client.events.len(), 3);
        let q = &client.events[0];
        assert_eq!((q.session, q.label.as_str(), q.send), (7, "q", true));
        assert_eq!((q.bytes, q.half_round, q.lamport), (64, 1, 1));
        // Events outside any session slice attribute to session 0.
        let stray = parse_party(
            "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"net\",\"ph\":\"i\",\"ts\":1,\
             \"pid\":1,\"tid\":2,\"args\":{\"dir\":\"send\",\"bytes\":3,\"half_round\":1,\
             \"lamport\":1}}]}",
        )
        .unwrap();
        assert_eq!(stray.events[0].session, 0);
    }

    #[test]
    fn merge_of_a_consistent_run_passes_the_gate() {
        let (client, server) = sample_parties();
        let (timeline, report) = merge("e1", &client, &server);
        assert_eq!(report.violations, Vec::<String>::new());
        assert_eq!(report.sessions, 1);
        assert_eq!(report.flows, 3, "q out, a back, bye");
        // The merged document is valid JSON with both process tracks,
        // per-pair flow arrows, and synthesized on-wire slices.
        let doc = json::parse(&timeline).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"spfe-client") && names.contains(&"spfe-server"));
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("s"), 3, "one flow start per matched pair");
        assert_eq!(count("f"), 3, "one flow finish per matched pair");
        assert_eq!(count("X"), 3, "one on-wire slice per matched pair");
        // Alignment made every on-wire slice start at its (aligned) send.
        for e in events {
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn merge_flags_causal_violations() {
        let (client, mut server) = sample_parties();
        // Regress the server's receive stamp below the client's send
        // stamp.
        server.events[0].lamport = 1; // was 2, client sent with 1
        let (_, report) = merge("e1", &client, &server);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("not after send stamp")));
    }

    #[test]
    fn merge_flags_count_depth_and_membership_mismatches() {
        let (client, server) = sample_parties();
        // Missing server side entirely.
        let (_, report) = merge("e1", &client, &PartyTrace::default());
        assert!(report.violations.iter().any(|v| v.contains("client only")));
        // Dropped reply: server send unpaired and depth mismatch paths.
        let mut lossy = server.clone();
        lossy.events.retain(|e| !(e.send && e.label == "a"));
        let (_, report) = merge("e1", &client, &lossy);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("frames") && v.contains("received")));
        // Byte tampering on the paired frame.
        let mut tampered = server.clone();
        tampered.events[0].bytes = 63;
        let (_, report) = merge("e1", &client, &tampered);
        assert!(report.violations.iter().any(|v| v.contains("bytes")));
    }
}
