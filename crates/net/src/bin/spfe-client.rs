//! The SPFE network client binary.
//!
//! ```text
//! spfe-client [run] --addr HOST:PORT [--deadline-ms MS] [--trace PATH] TARGET...
//! spfe-client stats --addr HOST:PORT [--prom] [--watch] [--interval-ms MS] [--count N]
//! ```
//!
//! Each `TARGET` is a harness driver name (`xor2`, `hom_pir`, …), an
//! experiment id from the audit table (`e1`, `e2`, `e11`, …), which
//! expands to that experiment's driver list, or `all`, which expands to
//! every row of the driver table in table order. Every driver runs over
//! TCP, its client core against the server cores the peer hosts, and its
//! digest is checked against the driver table's expected value. Exit
//! status is 0 only if every run completed with the
//! right digest; on failure the exit summary breaks the failures down by
//! [`FailureKind`]. Set `SPFE_LOG=1` for per-run JSONL log lines on
//! stderr, mirroring the server's session logs. The leading `run`
//! keyword is optional and names the default subcommand.
//!
//! `--trace PATH` turns the client's trace journal on for the whole run
//! and writes it as a Perfetto JSON timeline on exit: per-session slices
//! plus one Lamport-stamped instant per wire send/receive (DESIGN.md
//! §17). Pair it with `spfe-server --trace` and merge the two files with
//! `spfe-tables net-trace` for a cross-process timeline.
//!
//! The `stats` subcommand scrapes the live metrics endpoint of a running
//! `spfe-server`: `spfe-metrics/v1` JSON by default, Prometheus text
//! exposition with `--prom`. `--watch` keeps one connection open and
//! re-fetches every `--interval-ms` (default 1000) until interrupted or
//! `--count` snapshots have been printed; when the server restarts
//! between probes (uptime or session counters regress, or the held-open
//! connection drops), the watcher prints a reset notice and reconnects
//! instead of aborting the watch.

use spfe::harness;
use spfe::transport::CommReport;
use spfe_bench::audit::AUDIT_GROUPS;
use spfe_net::{classify_failure, run_driver, StatsConn};
use spfe_obs::metrics::{epoch_micros, FailureKind, SessionLogRecord};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: spfe-client [run] --addr HOST:PORT [--deadline-ms MS] [--trace PATH] TARGET..."
    );
    eprintln!("       spfe-client stats --addr HOST:PORT [--prom] [--watch] [--interval-ms MS] [--count N]");
    eprintln!(
        "  TARGET: a driver name (xor2, hom_pir, ...), an experiment id (e1, e2, ...) or all"
    );
    eprintln!("  --trace PATH: write the client trace journal as a Perfetto JSON timeline");
    std::process::exit(2);
}

fn expand(target: &str) -> Vec<String> {
    if target == "all" {
        return harness::drivers()
            .iter()
            .map(|d| d.name.to_owned())
            .collect();
    }
    if let Some((_, group)) = AUDIT_GROUPS.iter().find(|(id, _)| *id == target) {
        return group.iter().map(|d| (*d).to_owned()).collect();
    }
    vec![target.to_owned()]
}

/// The restart-detection marks of one scrape: `(uptime_micros,
/// sessions_opened)`. Both only ever grow within one server process, so
/// either regressing between two probes means the process was replaced.
fn watch_marks(body: &str, prom: bool) -> Option<(u64, u64)> {
    if prom {
        let mut uptime = None;
        let mut opened = None;
        for line in body.lines() {
            if let Some(v) = line.strip_prefix("spfe_uptime_seconds ") {
                uptime = v.trim().parse::<f64>().ok().map(|s| (s * 1e6) as u64);
            } else if let Some(v) = line.strip_prefix("spfe_sessions_opened_total ") {
                opened = v.trim().parse::<u64>().ok();
            }
        }
        Some((uptime?, opened?))
    } else {
        let snap = spfe_obs::metrics::parse_snapshot(body).ok()?;
        Some((snap.uptime_micros, snap.sessions_opened))
    }
}

/// `spfe-client stats ...`: scrape the live metrics endpoint.
fn stats_main(args: &[String]) -> ! {
    let mut addr: Option<String> = None;
    let mut deadline_ms = 30_000u64;
    let mut prom = false;
    let mut watch = false;
    let mut interval_ms = 1_000u64;
    let mut count = 0u64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--addr" => {
                addr = Some(value(i));
                i += 2;
            }
            "--deadline-ms" => {
                deadline_ms = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--interval-ms" => {
                interval_ms = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--count" => {
                count = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--prom" => {
                prom = true;
                i += 1;
            }
            "--watch" => {
                watch = true;
                i += 1;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let addr = addr.unwrap_or_else(|| usage());
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    let limit = if count > 0 {
        count
    } else if watch {
        u64::MAX
    } else {
        1
    };
    let mut conn = match StatsConn::connect(&addr, deadline) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("spfe-client: stats connect failed: {e}");
            std::process::exit(1);
        }
    };
    let mut fetched = 0u64;
    let mut last_marks: Option<(u64, u64)> = None;
    while fetched < limit {
        if fetched > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        match conn.fetch(prom) {
            Ok(body) => {
                // A server restart resets the registry: uptime or the
                // opened counter stepping backwards between two probes is
                // a new process, not drift — note it and keep watching.
                if watch {
                    if let Some(marks) = watch_marks(&body, prom) {
                        if let Some((last_uptime, last_opened)) = last_marks {
                            if marks.0 < last_uptime || marks.1 < last_opened {
                                eprintln!(
                                    "spfe-client: server restart detected \
                                     (uptime or session counters regressed); counters reset"
                                );
                            }
                        }
                        last_marks = Some(marks);
                    }
                }
                use std::io::Write;
                let mut out = std::io::stdout().lock();
                // A closed pipe (e.g. `... | head`) ends the scrape
                // cleanly; println! would panic on it.
                if writeln!(out, "{body}").and_then(|()| out.flush()).is_err() {
                    std::process::exit(0);
                }
            }
            Err(e) if watch => {
                // The held-open connection died — the usual sign the
                // server went away mid-watch. Reconnect once; only a
                // failed reconnect ends the watch.
                match StatsConn::connect(&addr, deadline) {
                    Ok(c) => {
                        eprintln!(
                            "spfe-client: stats connection dropped ({e}); \
                             server restart detected, reconnected"
                        );
                        conn = c;
                        continue;
                    }
                    Err(e2) => {
                        eprintln!("spfe-client: stats fetch failed: {e}; reconnect failed: {e2}");
                        std::process::exit(1);
                    }
                }
            }
            Err(e) => {
                eprintln!("spfe-client: stats fetch failed: {e}");
                std::process::exit(1);
            }
        }
        fetched += 1;
    }
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("stats") {
        stats_main(&args[1..]);
    }
    // `run` is the default subcommand; the bare form stays valid.
    if args.first().map(String::as_str) == Some("run") {
        args.remove(0);
    }
    let mut addr: Option<String> = None;
    let mut deadline_ms = 30_000u64;
    let mut trace_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--addr" => {
                addr = Some(value(i));
                i += 2;
            }
            "--deadline-ms" => {
                deadline_ms = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--trace" => {
                trace_path = Some(value(i));
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                targets.push(other.to_owned());
                i += 1;
            }
        }
    }
    let addr = addr.unwrap_or_else(|| usage());
    if targets.is_empty() {
        usage();
    }
    if trace_path.is_some() {
        spfe_obs::trace::set_tracing(true);
    }
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    // Failures by kind for the exit summary, digest mismatches included
    // (only the client can detect those).
    let mut failures = [0u64; FailureKind::ALL.len()];
    for target in &targets {
        for name in expand(target) {
            let Some(expect) = harness::driver(&name).map(|d| d.expect) else {
                eprintln!("FAIL {name}: unknown driver");
                failures[FailureKind::ProtocolError as usize] += 1;
                continue;
            };
            let start = Instant::now();
            let run = run_driver(&addr, &name, deadline);
            let wall_micros = start.elapsed().as_micros() as u64;
            let (mode, outcome, rep) = match &run {
                Ok(r) if r.digest == expect => {
                    let rep = r.transcript.report();
                    println!(
                        "ok {name} mode=compute digest={} bytes={} half_rounds={}",
                        r.digest,
                        rep.total_bytes(),
                        rep.half_rounds
                    );
                    ("compute", Ok(()), rep)
                }
                Ok(r) => {
                    eprintln!("FAIL {name}: digest {} != expected {expect}", r.digest);
                    let mismatch = Err(FailureKind::DigestMismatch);
                    ("compute", mismatch, r.transcript.report())
                }
                Err(e) => {
                    eprintln!("FAIL {name}: {e}");
                    let kind = Err(classify_failure(false, e));
                    ("client", kind, CommReport::default())
                }
            };
            if let Err(kind) = outcome {
                failures[kind as usize] += 1;
            }
            SessionLogRecord {
                seq: spfe_obs::metrics::next_log_seq(),
                ts_micros: epoch_micros(),
                session: 0,
                peer: &addr,
                driver: &name,
                mode,
                outcome: match outcome {
                    Ok(()) => "ok",
                    Err(kind) => kind.name(),
                },
                wall_micros,
                bytes_in: rep.client_to_server,
                bytes_out: rep.server_to_client,
                half_rounds: u64::from(rep.half_rounds),
            }
            .emit();
        }
    }
    // Write the trace journal before settling the exit status so failed
    // runs still leave a timeline to debug with.
    if let Some(path) = &trace_path {
        let trace = spfe_obs::trace::take();
        if let Err(e) = std::fs::write(path, spfe_obs::export::perfetto_json(&trace)) {
            eprintln!("spfe-client: could not write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
    let failed: u64 = failures.iter().sum();
    if failed > 0 {
        let breakdown: Vec<String> = FailureKind::ALL
            .iter()
            .zip(failures)
            .filter(|&(_, n)| n > 0)
            .map(|(k, n)| format!("{}={n}", k.name()))
            .collect();
        eprintln!("{failed} failure(s): {}", breakdown.join(" "));
        std::process::exit(1);
    }
}
