//! The experiment harness: regenerates every table/figure-equivalent of the
//! paper (DESIGN.md §3, E1–E10) and prints them as Markdown.
//!
//! Run with: `cargo run --release -p spfe-bench --bin spfe-tables`
//! (append experiment ids, e.g. `e1`, to run a subset; unknown ids abort
//! with the list of available ones). With `--json` the run also writes
//! `BENCH_costs.json` — the `spfe-cost-report/v3` suite merging spans
//! (with latency quantiles and the heap axis), op counters, and per-label
//! communication for every measured execution. Subcommands:
//!
//! * `validate [paths...]` — re-parses each document (cost-report suite
//!   v3 or the older v2/v1, or an `spfe-audit/v1` leakage audit,
//!   reporting which) and fails on schema drift; with several files it
//!   prints a per-schema tally at the end.
//! * `audit [driver|eN|all ...] [--json] [--check] [--accept]
//!   [--baseline PATH]` — the differential obliviousness gate (DESIGN.md
//!   §14): re-runs every selected harness driver over its secret-input
//!   variants and the masked fault seeds, prints per-party view
//!   fingerprints, writes `spfe-audit/v1` JSON (`--json`), and compares
//!   against / blesses the committed `BENCH_audit.json` baseline
//!   (`--check` / `--accept`).
//! * `trace <id> [--weight <op>|allocs|alloc_bytes]` — re-runs one
//!   experiment with the event journal on and writes `<id>.trace.json`
//!   (Perfetto/Chrome `trace_event` format) plus `<id>.folded`
//!   (flamegraph folded stacks, wall-time weighted; `--weight` adds a
//!   counter-weighted `<id>.<weight>.folded` — the alloc weights need an
//!   `obs-alloc` build).
//! * `mem <id>` — re-runs one experiment at one thread with the
//!   instrumented allocator and prints the per-span heap table (needs an
//!   `obs-alloc` build).
//! * `trend --baseline A --current B [--threshold PCT] [--json]
//!   [--accept]` — compares two suites on deterministic op counters, comm
//!   bytes, and (single-thread only) span call counts and, for
//!   instrumented baselines, heap counters, exiting nonzero on any change
//!   to a counter, comm total or span count and on heap growth past the
//!   threshold (default 5%); `--json` prints every delta
//!   machine-readably; `--accept` instead copies `B` over `A` to bless an
//!   intentional change.
//! * `trend --scaling [--scan PATH] [--min-n N] [--speedup PCT]
//!   [--overhead PCT]` — the parallel-scaling gate over
//!   `BENCH_pir_scan.json`: on a machine with `cores ≥ threads` the
//!   multi-thread scan must beat serial by ≥ `--speedup` (default 10%) at
//!   every `n ≥ --min-n` (default 4096); with fewer cores the gate
//!   degrades to a pool-overhead bound of `--overhead` (default 10%).
//! * `serve-report SNAPSHOT [--baseline EARLIER]` — the service-health
//!   gate over `spfe-metrics/v1` snapshots scraped from a running
//!   `spfe-server` (`spfe-client stats`): absolute health rules (zero
//!   failed sessions, nonzero traffic, registry invariants), plus — with
//!   `--baseline` — a drift diff against an earlier scrape of the same
//!   run that pinpoints which failure kind fired inside the window.
//!
//! Setting `SPFE_TRACE=1` makes a normal table run also record the journal
//! and write `spfe.trace.json`/`spfe.folded` covering every experiment
//! executed.

use spfe::circuits::builders::sum_circuit;
use spfe::circuits::formula::index_bits;
use spfe::core::baseline;
use spfe::core::input_select;
use spfe::core::multiserver::{self, MsFunction, MultiServerParams};
use spfe::core::psm_spfe;
use spfe::core::security::table1;
use spfe::core::stats;
use spfe::core::two_phase;
use spfe::core::{ProtocolMeta, Statistic};
use spfe::mpc::psm;
use spfe::pir;
use spfe_bench::*;

/// Every runnable experiment: id, one-line description, entry point.
const EXPERIMENTS: &[(&str, &str, fn())] = &[
    (
        "e1",
        "Table 1 — single-server SPFE constructions",
        e1_table1,
    ),
    ("e2", "Theorem 2 — multi-server SPFE", e2_theorem2),
    ("e3", "Example 1 + Corollary 4 — PSM communication", e3_psm),
    (
        "e4",
        "§3.3 input selection (covers E5 too)",
        e4_e5_input_selection,
    ),
    ("e6", "§4 weighted sum vs linear baseline", e6_weighted_sum),
    ("e7", "§4 average+variance package", e7_package),
    ("e8", "§4 frequency counting", e8_frequency),
    ("e9", "sublinearity crossover", e9_crossover),
    (
        "e10",
        "batched SPIR(n,m) vs m independent SPIR(n,1)",
        e10_batched,
    ),
    ("e11", "PIR recursion ablation", e11_recursion),
    ("e12", "SPIR as a black box", e12_spir_blackbox),
    (
        "pir-scan",
        "server column scan, serial vs worker pool",
        pir_scan,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    match args.first().map(String::as_str) {
        Some("validate") => {
            validate_cmd(&args[1..]);
            return;
        }
        Some("trace") => {
            trace_cmd(&args[1..]);
            return;
        }
        Some("mem") => {
            mem_cmd(&args[1..]);
            return;
        }
        Some("trend") => {
            trend_cmd(&args[1..]);
            return;
        }
        Some("audit") => {
            audit_cmd(&args[1..]);
            return;
        }
        Some("serve-report") => {
            serve_report_cmd(&args[1..]);
            return;
        }
        Some("net-trace") => {
            net_trace_cmd(&args[1..]);
            return;
        }
        _ => {}
    }

    let mut json = false;
    let mut selected: Vec<&str> = Vec::new();
    for arg in &args {
        if arg == "--json" {
            json = true;
            continue;
        }
        let id = canonical_id(arg);
        let Some(exp) = EXPERIMENTS.iter().find(|(k, _, _)| *k == id) else {
            eprintln!("error: unknown experiment id `{arg}`");
            list_ids();
            std::process::exit(2);
        };
        if !selected.contains(&exp.0) {
            selected.push(exp.0);
        }
    }

    let env_trace = std::env::var("SPFE_TRACE").is_ok_and(|v| v == "1");
    if env_trace {
        spfe_obs::trace::reset();
        spfe_obs::trace::set_tracing(true);
    }

    println!("# SPFE experiment tables (generated by spfe-tables)");
    for (id, _, run) in EXPERIMENTS {
        if selected.is_empty() || selected.contains(id) {
            run();
        }
    }

    if env_trace {
        spfe_obs::trace::set_tracing(false);
        let trace = spfe_obs::trace::take();
        write_trace_artifacts("spfe", &trace, None);
    }

    if json {
        let reports = take_costs();
        let threads = spfe::math::par::threads();
        std::fs::write("BENCH_costs.json", spfe_obs::suite_json(threads, &reports))
            .expect("write BENCH_costs.json");
        println!("\nwrote BENCH_costs.json ({} reports)", reports.len());
    }
}

/// Resolves a user-facing experiment id to its canonical lowercase form.
/// E4 and E5 share one table, so `e5` is an alias for `e4` everywhere an
/// id is accepted.
fn canonical_id(raw: &str) -> String {
    let lower = raw.to_lowercase();
    if lower == "e5" {
        "e4".to_owned()
    } else {
        lower
    }
}

fn list_ids() {
    eprintln!("available ids:");
    for (k, what, _) in EXPERIMENTS {
        eprintln!("  {k:<9} {what}");
    }
    eprintln!(
        "  (plus the `validate [paths...]`, `trace <id> [--weight <op>]`, `mem <id>`, \
         `trend --baseline A --current B`, `audit [driver|eN|all]`, \
         `serve-report SNAPSHOT [--baseline EARLIER]`, and \
         `net-trace <id> --merge CLIENT SERVER [-o OUT] [--metrics SNAPSHOT]` \
         subcommands and the `--json` flag)"
    );
}

/// `validate [paths...]`: checks each document — cost-report suite
/// (v1/v2/v3), `spfe-audit/v1` leakage audit, or `spfe-metrics/v1`
/// operational snapshot, dispatching on the `schema` field — and, given
/// several, prints a per-schema tally. Exits nonzero if any file fails.
fn validate_cmd(args: &[String]) {
    use spfe_bench::audit::DocKind;
    let default = ["BENCH_costs.json".to_owned()];
    let paths: &[String] = if args.is_empty() { &default } else { args };
    let mut by_version = [0usize; 3]; // cost v1, v2, v3
    let mut audits = 0usize;
    let mut metrics = 0usize;
    let mut failures = 0usize;
    for path in paths {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| spfe_bench::audit::validate_doc(&src));
        match checked {
            Ok((summary, kind)) => {
                println!("{path}: {summary}");
                match kind {
                    DocKind::Audit => audits += 1,
                    DocKind::Metrics => metrics += 1,
                    DocKind::Cost(version) => {
                        if let Some(slot) = by_version.get_mut(version as usize - 1) {
                            *slot += 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                failures += 1;
            }
        }
    }
    if paths.len() > 1 {
        println!(
            "schemas: v1={} v2={} v3={} audit={audits} metrics={metrics} \
             ({} file(s), {} failure(s))",
            by_version[0],
            by_version[1],
            by_version[2],
            paths.len(),
            failures
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// `net-trace <id> --merge CLIENT SERVER [-o OUT] [--metrics SNAPSHOT]`:
/// merges a client and a server `--trace` journal of the same networked
/// run into one Perfetto timeline (DESIGN.md §17) and gates on causal
/// consistency: every receive's Lamport stamp after its matching send,
/// per-session pair counts and half-round depths equal on both sides,
/// and — with `--metrics` — the server journal's byte totals equal to
/// the metrics registry's. Exits nonzero on any violation; the merged
/// timeline is still written so a failing run can be inspected.
fn net_trace_cmd(args: &[String]) {
    use spfe_bench::nettrace;
    let usage = || -> ! {
        eprintln!(
            "usage: spfe-tables net-trace <id> --merge CLIENT SERVER [-o OUT] \
             [--metrics SNAPSHOT]"
        );
        std::process::exit(2);
    };
    let mut id: Option<&str> = None;
    let mut client_path: Option<&str> = None;
    let mut server_path: Option<&str> = None;
    let mut out_path: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--merge" => {
                client_path = it.next().map(String::as_str);
                server_path = it.next().map(String::as_str);
                if server_path.is_none() {
                    eprintln!("error: --merge needs CLIENT and SERVER trace paths");
                    usage();
                }
            }
            "-o" | "--out" => {
                out_path = it.next().map(String::as_str);
                if out_path.is_none() {
                    eprintln!("error: -o needs a path");
                    usage();
                }
            }
            "--metrics" => {
                metrics_path = it.next().map(String::as_str);
                if metrics_path.is_none() {
                    eprintln!("error: --metrics needs a path");
                    usage();
                }
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown net-trace argument `{other}`");
                usage();
            }
            other if id.is_none() => id = Some(other),
            _ => usage(),
        }
    }
    let (Some(id), Some(client_path), Some(server_path)) = (id, client_path, server_path) else {
        usage();
    };
    let load_party = |path: &str| -> nettrace::PartyTrace {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
        nettrace::parse_party(&src).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        })
    };
    let client = load_party(client_path);
    let server = load_party(server_path);
    let (timeline, mut report) = nettrace::merge(id, &client, &server);
    if let Some(path) = metrics_path {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
        let snap = spfe_obs::metrics::parse_snapshot(&src).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
        report
            .violations
            .extend(nettrace::check_against_metrics(&server, &snap));
    }
    let out_path = out_path.map_or_else(|| format!("{id}.net-trace.json"), str::to_owned);
    if let Err(e) = std::fs::write(&out_path, &timeline) {
        eprintln!("error: writing {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{}", report.summary());
    println!("wrote {out_path}");
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("violation: {v}");
        }
        std::process::exit(1);
    }
}

/// `serve-report SNAPSHOT [--baseline EARLIER]`: the service-health gate
/// over `spfe-metrics/v1` snapshots (DESIGN.md §16). Always applies the
/// absolute health rules to `SNAPSHOT` (no failed sessions, nonzero
/// traffic, registry invariants intact); with `--baseline` additionally
/// diffs against an earlier scrape of the same server run, flagging any
/// failure counter that grew inside the window and any monotonic counter
/// that went backwards. Exits nonzero on any violation.
fn serve_report_cmd(args: &[String]) {
    use spfe_bench::serve;
    let mut snapshot_path: Option<&str> = None;
    let mut baseline_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                let Some(path) = it.next() else {
                    eprintln!("error: --baseline needs a path");
                    std::process::exit(2);
                };
                baseline_path = Some(path);
            }
            other if other.starts_with("--") => {
                eprintln!("error: unknown serve-report argument `{other}`");
                eprintln!("usage: spfe-tables serve-report SNAPSHOT [--baseline EARLIER]");
                std::process::exit(2);
            }
            other => snapshot_path = Some(other),
        }
    }
    let Some(snapshot_path) = snapshot_path else {
        eprintln!("usage: spfe-tables serve-report SNAPSHOT [--baseline EARLIER]");
        std::process::exit(2);
    };
    let load = |path: &str| -> spfe_obs::metrics::MetricsSnapshot {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
        spfe_obs::metrics::parse_snapshot(&src).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        })
    };
    let snap = load(snapshot_path);
    println!(
        "serve-report: {} session(s) opened, {} completed, {} failed, {} over {} driver row(s)",
        snap.sessions_opened,
        snap.sessions_completed,
        snap.sessions_failed(),
        fmt_bytes(snap.bytes_total()),
        snap.drivers.len()
    );
    let mut violations = serve::check_health(&snap).violations;
    if let Some(baseline_path) = baseline_path {
        let base = load(baseline_path);
        let drift = serve::compare_snapshots(&base, &snap).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        for d in drift.deltas.iter().filter(|d| d.baseline != d.current) {
            println!(
                "  delta {}: {} -> {}{}",
                d.metric,
                d.baseline,
                d.current,
                if d.flagged { "  [FLAGGED]" } else { "" }
            );
        }
        violations.extend(drift.violations);
    }
    if violations.is_empty() {
        println!("serve-report: OK — healthy service, no failure drift");
        return;
    }
    for v in &violations {
        eprintln!("SERVE VIOLATION {v}");
    }
    eprintln!("serve-report: {} violation(s)", violations.len());
    std::process::exit(1);
}

/// `audit [selectors...] [--json] [--check] [--accept] [--baseline PATH]`:
/// the differential obliviousness gate (DESIGN.md §14). Selectors are
/// harness driver names (`xor2`, `spir`, …), experiment ids (`e1`, …,
/// mapped to the drivers they exercise), or `all` (the default). Every
/// selected driver is swept over its secret-input variants and the masked
/// fault seeds; `--json` writes the `spfe-audit/v1` document, `--check`
/// compares fingerprints against the committed baseline, `--accept`
/// blesses the current sweep as the new baseline.
fn audit_cmd(args: &[String]) {
    use spfe_bench::audit::{self, AUDIT_GROUPS, AUDIT_SEEDS};
    let mut json = false;
    let mut check = false;
    let mut accept = false;
    let mut baseline_path = "BENCH_audit.json".to_owned();
    let mut selectors: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--check" => check = true,
            "--accept" => accept = true,
            "--baseline" => {
                let Some(path) = it.next() else {
                    eprintln!("error: --baseline needs a path");
                    std::process::exit(2);
                };
                baseline_path = path.clone();
            }
            other if other.starts_with("--") => {
                eprintln!("error: unknown audit argument `{other}`");
                eprintln!(
                    "usage: spfe-tables audit [driver|eN|all ...] [--json] [--check] \
                     [--accept] [--baseline PATH]"
                );
                std::process::exit(2);
            }
            other => selectors.push(canonical_id(other)),
        }
    }

    let table = spfe::harness::drivers();
    let mut names: Vec<&str> = Vec::new();
    let push = |names: &mut Vec<&str>, n: &'static str| {
        if !names.contains(&n) {
            names.push(n);
        }
    };
    if selectors.is_empty() || selectors.iter().any(|s| s == "all") {
        for d in &table {
            push(&mut names, d.name);
        }
    }
    for sel in &selectors {
        if sel == "all" {
            continue;
        }
        if let Some(d) = table.iter().find(|d| d.name == *sel) {
            push(&mut names, d.name);
        } else if let Some((_, group)) = AUDIT_GROUPS.iter().find(|(id, _)| id == sel) {
            for n in *group {
                push(&mut names, n);
            }
        } else {
            eprintln!("error: unknown audit selector `{sel}`");
            eprintln!("drivers:");
            for d in &table {
                eprintln!("  {}", d.name);
            }
            eprintln!("experiment groups:");
            for (id, group) in AUDIT_GROUPS {
                eprintln!("  {id:<4} -> {}", group.join(", "));
            }
            std::process::exit(2);
        }
    }

    let threads = spfe::math::par::threads();
    let reports: Vec<audit::AuditReport> = table
        .iter()
        .filter(|d| names.contains(&d.name))
        .map(audit::audit_driver)
        .collect();

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            let (client_sent, client_recv) = r
                .parties
                .first()
                .map(|p| (p.sent_bytes, p.recv_bytes))
                .unwrap_or((0, 0));
            vec![
                r.driver.clone(),
                if r.ok() { "ok".into() } else { "LEAK".into() },
                r.servers.to_string(),
                r.parties
                    .first()
                    .map(|p| p.fingerprint[..16].to_owned())
                    .unwrap_or_default(),
                fmt_bytes(client_sent),
                fmt_bytes(client_recv),
            ]
        })
        .collect();
    print_table(
        &format!(
            "AUDIT — view-shape fingerprints ({} variant(s) × honest+{} masked seed(s))",
            spfe::harness::NUM_VARIANTS,
            AUDIT_SEEDS.len()
        ),
        &[
            "driver",
            "verdict",
            "servers",
            "client fp (prefix)",
            "client sent",
            "client recv",
        ],
        &rows,
    );

    let mut leaks = 0usize;
    for r in &reports {
        for d in &r.divergences {
            eprintln!("LEAK {}: {d}", r.driver);
        }
        if !r.ok() {
            leaks += 1;
        }
    }

    if accept {
        std::fs::write(&baseline_path, audit::audit_json(threads, &reports)).unwrap_or_else(|e| {
            eprintln!("error: writing {baseline_path}: {e}");
            std::process::exit(1);
        });
        println!(
            "accepted: wrote {baseline_path} ({} driver(s))",
            reports.len()
        );
    } else if json {
        let out = if selectors.len() == 1 && selectors[0] != "all" {
            format!("{}.audit.json", selectors[0])
        } else {
            "BENCH_audit.json".to_owned()
        };
        std::fs::write(&out, audit::audit_json(threads, &reports)).unwrap_or_else(|e| {
            eprintln!("error: writing {out}: {e}");
            std::process::exit(1);
        });
        println!("wrote {out} ({} driver(s))", reports.len());
    }

    if check {
        let src = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!(
                "error: {baseline_path}: {e} (generate one with `spfe-tables audit --accept`)"
            );
            std::process::exit(1);
        });
        let base = audit::parse_audit(&src).unwrap_or_else(|e| {
            eprintln!("error: {baseline_path}: {e}");
            std::process::exit(1);
        });
        let diffs = audit::compare_audits(&base, &reports);
        if diffs.is_empty() {
            println!(
                "audit: OK — {} driver(s) match the baseline at threads={threads}",
                reports.len()
            );
        } else {
            for d in &diffs {
                eprintln!("AUDIT DRIFT {d}");
            }
            eprintln!(
                "audit: {} divergence(s) vs {baseline_path}; if the wire format changed \
                 intentionally, re-bless with `spfe-tables audit --accept` (see EXPERIMENTS.md)",
                diffs.len()
            );
            std::process::exit(1);
        }
    }

    if leaks > 0 {
        eprintln!("audit: {leaks} driver(s) with a leak verdict");
        std::process::exit(1);
    }
}

/// `trace <id> [--weight <op>|allocs|alloc_bytes]`: re-runs one experiment
/// with the event journal on and writes the Perfetto JSON + folded-stack
/// artifacts.
fn trace_cmd(args: &[String]) {
    use spfe_obs::export::FoldWeight;
    let mut id: Option<&str> = None;
    let mut weight: Option<(FoldWeight, String)> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--weight" => {
                let Some(name) = it.next() else {
                    eprintln!("error: --weight needs an op name (e.g. `modexp`) or a heap weight");
                    std::process::exit(2);
                };
                let w = match name.as_str() {
                    "allocs" => FoldWeight::Allocs,
                    "alloc_bytes" => FoldWeight::AllocBytes,
                    other => {
                        let Some(op) = spfe_obs::Op::from_name(other) else {
                            eprintln!("error: unknown weight `{other}`; known weights:");
                            eprintln!("  allocs");
                            eprintln!("  alloc_bytes");
                            for op in spfe_obs::Op::ALL {
                                eprintln!("  {}", op.name());
                            }
                            std::process::exit(2);
                        };
                        FoldWeight::Op(op)
                    }
                };
                if matches!(w, FoldWeight::Allocs | FoldWeight::AllocBytes)
                    && !spfe_obs::alloc_enabled()
                {
                    eprintln!(
                        "error: `--weight {name}` needs the instrumented allocator; rebuild \
                         with `--features obs-alloc`"
                    );
                    std::process::exit(1);
                }
                weight = Some((w, name.clone()));
            }
            a => id = Some(a),
        }
    }
    let Some(id) = id else {
        eprintln!("usage: spfe-tables trace <experiment-id> [--weight <op>|allocs|alloc_bytes]");
        list_ids();
        std::process::exit(2);
    };
    let lower = canonical_id(id);
    let Some(&(id, _, run)) = EXPERIMENTS.iter().find(|(k, _, _)| *k == lower) else {
        eprintln!("error: unknown experiment id `{id}`");
        list_ids();
        std::process::exit(2);
    };
    // One thread: op deltas are attributed to the enclosing span on the
    // recording thread, so the single-threaded timeline is the complete,
    // fully attributed one.
    spfe::math::par::set_threads(Some(1));
    spfe_obs::trace::reset();
    spfe_obs::reset();
    spfe_obs::trace::set_tracing(true);
    run();
    spfe_obs::trace::set_tracing(false);
    let trace = spfe_obs::trace::take();
    spfe::math::par::set_threads(None);
    let _ = take_costs(); // drop the measurement side of the traced run
    write_trace_artifacts(id, &trace, weight);
}

/// Writes `<stem>.trace.json` + `<stem>.folded` (+ `<stem>.<weight>.folded`).
fn write_trace_artifacts(
    stem: &str,
    trace: &spfe_obs::trace::Trace,
    weight: Option<(spfe_obs::export::FoldWeight, String)>,
) {
    use spfe_obs::export::{folded, perfetto_json, FoldWeight};
    if trace.total_events() == 0 {
        eprintln!("error: empty trace — nothing was recorded");
        std::process::exit(1);
    }
    let json_path = format!("{stem}.trace.json");
    std::fs::write(&json_path, perfetto_json(trace)).expect("write trace json");
    let folded_path = format!("{stem}.folded");
    std::fs::write(&folded_path, folded(trace, FoldWeight::WallNs)).expect("write folded");
    println!(
        "wrote {json_path} ({} events, {} dropped, {} thread(s)) and {folded_path}",
        trace.total_events(),
        trace.total_dropped(),
        trace.threads.len()
    );
    if let Some((w, name)) = weight {
        let path = format!("{stem}.{name}.folded");
        std::fs::write(&path, folded(trace, w)).expect("write weighted folded");
        println!("wrote {path} (weighted by `{name}`)");
    }
    println!("open the .trace.json in ui.perfetto.dev or chrome://tracing");
}

/// `mem <id>`: re-runs one experiment at one thread with the instrumented
/// allocator and prints the per-span heap attribution tables.
fn mem_cmd(args: &[String]) {
    let Some(raw) = args.first() else {
        eprintln!("usage: spfe-tables mem <experiment-id>");
        list_ids();
        std::process::exit(2);
    };
    let lower = canonical_id(raw);
    let Some(&(id, _, run)) = EXPERIMENTS.iter().find(|(k, _, _)| *k == lower) else {
        eprintln!("error: unknown experiment id `{raw}`");
        list_ids();
        std::process::exit(2);
    };
    if !spfe_obs::alloc_enabled() {
        eprintln!(
            "error: built without the `obs-alloc` feature; the allocator counts nothing. \
             Rebuild with `cargo run --release -p spfe-bench --features obs-alloc --bin \
             spfe-tables -- mem {id}`"
        );
        std::process::exit(1);
    }
    // One thread: span-attributed heap deltas are complete and
    // deterministic only on the recording thread (DESIGN.md §12).
    spfe::math::par::set_threads(Some(1));
    let _ = take_costs();
    run();
    spfe::math::par::set_threads(None);
    let reports = take_costs();
    if reports.is_empty() {
        eprintln!("error: experiment `{id}` produced no cost reports");
        std::process::exit(1);
    }
    for r in &reports {
        let rows: Vec<Vec<String>> = r
            .spans
            .iter()
            .filter(|s| s.alloc_bytes > 0 || s.peak_live_bytes > 0)
            .map(|s| {
                vec![
                    s.path.clone(),
                    s.calls.to_string(),
                    s.allocs.to_string(),
                    fmt_bytes(s.alloc_bytes),
                    fmt_bytes(s.peak_live_bytes),
                ]
            })
            .collect();
        print_table(
            &format!(
                "MEM {} / {} — span-attributed heap",
                r.experiment, r.protocol
            ),
            &["span", "calls", "allocs", "alloc bytes", "peak live"],
            &rows,
        );
        println!(
            "totals: {} allocs / {} allocated · {} reallocs · peak live {}",
            r.mem.allocs,
            fmt_bytes(r.mem.alloc_bytes),
            r.mem.reallocs,
            fmt_bytes(r.mem.peak_live_bytes)
        );
    }
}

/// `trend --baseline A --current B [--threshold PCT] [--json] [--accept]`
/// or `trend --scaling [--scan PATH] [--min-n N] [--speedup PCT]
/// [--overhead PCT]`.
fn trend_cmd(args: &[String]) {
    let mut baseline: Option<&str> = None;
    let mut current: Option<&str> = None;
    let mut threshold = 5.0f64;
    let mut accept = false;
    let mut json = false;
    let mut scaling = false;
    let mut scan_path = "BENCH_pir_scan.json";
    let mut min_n = 4_096u64;
    let mut speedup_pct = 10.0f64;
    let mut overhead_pct = 10.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take_value = |flag: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        let parse_num = |flag: &str, v: &str| -> f64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: {flag} needs a number");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(take_value("--baseline")),
            "--current" => current = Some(take_value("--current")),
            "--threshold" => threshold = parse_num("--threshold", take_value("--threshold")),
            "--accept" => accept = true,
            "--json" => json = true,
            "--scaling" => scaling = true,
            "--scan" => scan_path = take_value("--scan"),
            "--min-n" => min_n = parse_num("--min-n", take_value("--min-n")) as u64,
            "--speedup" => speedup_pct = parse_num("--speedup", take_value("--speedup")),
            "--overhead" => overhead_pct = parse_num("--overhead", take_value("--overhead")),
            other => {
                eprintln!("error: unknown trend argument `{other}`");
                eprintln!(
                    "usage: spfe-tables trend --baseline A --current B \
                     [--threshold PCT] [--json] [--accept]\n\
                     \x20      spfe-tables trend --scaling [--scan PATH] [--min-n N] \
                     [--speedup PCT] [--overhead PCT]"
                );
                std::process::exit(2);
            }
        }
    }
    if scaling {
        scaling_cmd(scan_path, min_n, speedup_pct, overhead_pct);
        return;
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!(
            "usage: spfe-tables trend --baseline A --current B [--threshold PCT] \
             [--json] [--accept]\n\
             \x20      spfe-tables trend --scaling [--scan PATH] [--min-n N] \
             [--speedup PCT] [--overhead PCT]"
        );
        std::process::exit(2);
    };
    if accept {
        std::fs::copy(current, baseline).unwrap_or_else(|e| {
            eprintln!("error: copying {current} over {baseline}: {e}");
            std::process::exit(1);
        });
        println!("accepted: {current} is the new baseline at {baseline}");
        return;
    }
    let load = |path: &str| -> spfe_obs::Suite {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
        spfe_obs::parse_suite(&src).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        })
    };
    let base = load(baseline);
    let cur = load(current);
    let out = spfe_bench::trend::compare_suites(&base, &cur, threshold).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if json {
        println!("{}", trend_json(&out, threshold));
        if !out.regressions.is_empty() {
            std::process::exit(1);
        }
        return;
    }
    println!(
        "trend: {} pair(s), {} metric(s) compared at threshold {threshold}%",
        out.pairs_compared, out.metrics_compared
    );
    for d in out
        .deltas
        .iter()
        .filter(|d| !d.gated && d.baseline != d.current)
    {
        println!(
            "  info {}/{} {}: {} -> {} (not gated)",
            d.experiment, d.protocol, d.metric, d.baseline, d.current
        );
    }
    if out.regressions.is_empty() {
        println!(
            "trend: OK — no deterministic counter, comm byte or span count changed, \
             no heap total regressed"
        );
        return;
    }
    for r in &out.regressions {
        let kind = if r.exact {
            "baseline stale: re-accept"
        } else {
            "REGRESSION"
        };
        eprintln!(
            "{kind} {}/{} {}: {} -> {} ({:+.1}%)",
            r.experiment,
            r.protocol,
            r.metric,
            r.baseline,
            r.current,
            r.pct()
        );
    }
    eprintln!(
        "trend: {} gated metric(s) failed; a deterministic counter, comm total \
         or span count that moved at all means the baseline is stale — rerun with \
         `trend --accept` after committing an intentional cost change (see \
         EXPERIMENTS.md)",
        out.regressions.len()
    );
    std::process::exit(1);
}

/// `trend --scaling`: the parallel-scaling gate over `BENCH_pir_scan.json`
/// (see [`spfe_bench::trend::check_scaling`] for the hardware-aware rules).
fn scaling_cmd(scan_path: &str, min_n: u64, speedup_pct: f64, overhead_pct: f64) {
    use spfe_bench::trend::{check_scaling, parse_scan, ScalingRule};
    let src = std::fs::read_to_string(scan_path).unwrap_or_else(|e| {
        eprintln!("error: {scan_path}: {e}");
        std::process::exit(1);
    });
    let rows = parse_scan(&src).unwrap_or_else(|e| {
        eprintln!("error: {scan_path}: {e}");
        std::process::exit(1);
    });
    let verdicts = check_scaling(&rows, min_n, speedup_pct, overhead_pct).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let mut failed = 0usize;
    for v in &verdicts {
        let rule = match v.rule {
            ScalingRule::Speedup(pct) => format!("speedup ≥ {pct}% (cores ≥ threads)"),
            ScalingRule::OverheadBound(pct) => {
                format!(
                    "overhead ≤ {pct}% ({} core(s) < {} threads)",
                    v.cores, v.threads
                )
            }
        };
        let status = if v.pass { "ok  " } else { "FAIL" };
        println!(
            "scaling {status} n={}: {} threads {:.2}ms vs serial {:.2}ms — {:.2}x [{rule}]",
            v.n,
            v.threads,
            v.parallel_ns as f64 / 1e6,
            v.serial_ns as f64 / 1e6,
            v.speedup,
        );
        if !v.pass {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "scaling: {failed} of {} size(s) failed the gate; \
             regenerate with `spfe-tables pir-scan` on quiet hardware \
             or investigate the pool (see EXPERIMENTS.md)",
            verdicts.len()
        );
        std::process::exit(1);
    }
    println!("scaling: OK — all {} size(s) passed", verdicts.len());
}

/// Renders a [`spfe_bench::trend::TrendReport`] as the `trend --json`
/// document: the verdict plus every per-(experiment, protocol) delta with
/// its gating status, in the hand-built style of the suite renderer.
fn trend_json(out: &spfe_bench::trend::TrendReport, threshold: f64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"spfe-trend-report/v1\",\n");
    s.push_str(&format!(
        "  \"verdict\": \"{}\",\n",
        if out.regressions.is_empty() {
            "ok"
        } else {
            "regressed"
        }
    ));
    s.push_str(&format!("  \"threshold_pct\": {threshold},\n"));
    s.push_str(&format!("  \"pairs_compared\": {},\n", out.pairs_compared));
    s.push_str(&format!(
        "  \"metrics_compared\": {},\n",
        out.metrics_compared
    ));
    s.push_str(&format!("  \"regressions\": {},\n", out.regressions.len()));
    s.push_str("  \"deltas\": [");
    for (i, d) in out.deltas.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let pct = d.pct();
        let pct_json = if pct.is_finite() {
            format!("{pct:.4}")
        } else {
            "null".to_owned()
        };
        s.push_str(&format!(
            "\n    {{\"experiment\": \"{}\", \"protocol\": \"{}\", \"metric\": \"{}\", \
             \"baseline\": {}, \"current\": {}, \"pct\": {}, \"gated\": {}, \"flagged\": {}}}",
            d.experiment, d.protocol, d.metric, d.baseline, d.current, pct_json, d.gated, d.flagged
        ));
    }
    s.push_str("\n  ]\n}");
    s
}

/// PIR-SCAN — the parallel kernel engine: serial vs worker-pool timing of
/// the server's Ω(n) column scan, together with the query/answer wire
/// sizes. Thread counts beyond the machine's core count are still measured
/// (they exercise the pool) but cannot speed anything up; the JSON is the
/// honest record either way. Emits `BENCH_pir_scan.json` in the current
/// directory alongside the Markdown table.
fn pir_scan() {
    use spfe::math::par;
    use spfe::pir::hom_pir::{self, Layout};
    use spfe::transport::Wire;
    use std::time::Instant;
    let mut b = Bench::new();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    // Recorded per row so the `trend --scaling` gate can tell real
    // non-scaling from a machine that physically cannot run the threads.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for n in [256usize, 1_024, 4_096] {
        let db = make_db(n, 1_000);
        let layout = Layout::square(n);
        let q = hom_pir::client_query(&b.pk, &b.sk, &layout, n / 2, &mut b.rng);
        let bytes_up = q.to_bytes().len();
        let baseline = hom_pir::server_answer(&b.pk, &layout, &db, &q).unwrap();
        let bytes_down = hom_pir::answer_to_wire(&b.pk, &baseline).to_bytes().len();
        for threads in [1usize, 4] {
            par::set_threads(Some(threads));
            // Warm-up rep that doubles as the determinism check: the scan
            // must be bit-identical at every thread count.
            let ans = hom_pir::server_answer(&b.pk, &layout, &db, &q).unwrap();
            assert_eq!(ans, baseline, "scan result depends on thread count");
            let reps: u32 = if n <= 1_024 { 5 } else { 3 };
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(hom_pir::server_answer(&b.pk, &layout, &db, &q).unwrap());
            }
            let ns_per_query = (start.elapsed().as_nanos() / u128::from(reps)) as u64;
            par::set_threads(None);
            rows.push(vec![
                n.to_string(),
                threads.to_string(),
                fmt_dur(std::time::Duration::from_nanos(ns_per_query)),
                fmt_bytes(bytes_up as u64),
                fmt_bytes(bytes_down as u64),
            ]);
            json.push(format!(
                "{{\"n\":{n},\"threads\":{threads},\"cores\":{cores},\
                 \"ns_per_query\":{ns_per_query},\
                 \"bytes_up\":{bytes_up},\"bytes_down\":{bytes_down}}}"
            ));
        }
    }
    print_table(
        "PIR-SCAN — server column scan, serial vs worker pool",
        &["n", "threads", "time/query", "up", "down"],
        &rows,
    );
    let payload = format!("[\n  {}\n]\n", json.join(",\n  "));
    std::fs::write("BENCH_pir_scan.json", payload).expect("write BENCH_pir_scan.json");
    println!("\nwrote BENCH_pir_scan.json ({} entries)", json.len());
}

/// E12 — the SPIR black box (§1.2): §3.3.1+Yao costed under the real
/// SPIR and under the ideal one, decomposing the cost into "the SPIR term"
/// vs protocol overhead. The ideal column is arithmetic on the real run's
/// per-label bytes: its `sel1-queries` and `sel1-answers` bytes are
/// replaced by `2·κ·m` — one κ-byte encrypted index up and one κ-byte
/// padded item down per selected item, the least a 1-round SPIR sends
/// (κ = 16 bytes).
fn e12_spir_blackbox() {
    const KAPPA_BYTES: u64 = 16;
    let b = Bench::new();
    let n = 1_024;
    let db = make_db(n, 500);
    let field = field_for(n, 8, 500);
    let mut rows = Vec::new();
    for m in [2usize, 4, 8] {
        let indices = make_indices(n, m);
        let mut rng = spfe::crypto::ChaChaRng::from_u64_seed(0xE12);
        let mut spir_bytes = 0;
        let meas = measure_as("e12", &format!("select1+yao m={m}"), 1, |t| {
            let got = two_phase::run_select1_yao(
                t,
                &b.group,
                &b.pk,
                &b.sk,
                &db,
                &indices,
                &Statistic::Sum,
                field,
                &mut rng,
            )
            .unwrap();
            let expect = indices
                .iter()
                .fold(0u64, |a, &i| (a + db[i]) % field.modulus());
            assert_eq!(got[0], expect);
            spir_bytes = t.bytes_for_label("sel1-queries") + t.bytes_for_label("sel1-answers");
        });
        let real = meas.comm.total_bytes();
        let ideal_spir = 2 * KAPPA_BYTES * m as u64;
        rows.push(vec![
            m.to_string(),
            fmt_bytes(real),
            fmt_bytes(real - spir_bytes + ideal_spir),
            format!(
                "{:.0}%",
                100.0 * (spir_bytes - ideal_spir) as f64 / spir_bytes as f64
            ),
        ]);
    }
    print_table(
        &format!("E12 / SPIR as a black box — §3.3.1+Yao sum, n = {n}"),
        &[
            "m",
            "real SPIR total",
            "ideal-SPIR total",
            "share of cost in the SPIR box",
        ],
        &rows,
    );
}

/// E11 — PIR recursion ablation (\[32\]'s recursion; DESIGN.md §6): the
/// depth-2 `(F·n)^{1/3}` scheme vs the depth-1 `√n` scheme.
fn e11_recursion() {
    let mut b = Bench::new();
    let mut rows = Vec::new();
    for n in [1_024usize, 8_192, 65_536] {
        let db = make_db(n, 1_000);
        let idx = n / 2;
        let sqrt = measure_as("e11", &format!("hompir n={n}"), 1, |t| {
            assert_eq!(
                pir::hom_pir::run(t, &b.pk, &b.sk, &db, idx, &mut b.rng).unwrap(),
                db[idx]
            );
        });
        let rec = measure_as("e11", &format!("recursive n={n}"), 1, |t| {
            assert_eq!(
                pir::recursive::run(t, &b.pk, &b.sk, &db, idx, &mut b.rng).unwrap(),
                db[idx]
            );
        });
        rows.push(vec![
            n.to_string(),
            format!(
                "{} ({})",
                fmt_bytes(sqrt.comm.total_bytes()),
                fmt_dur(sqrt.elapsed)
            ),
            format!(
                "{} ({})",
                fmt_bytes(rec.comm.total_bytes()),
                fmt_dur(rec.elapsed)
            ),
            format!(
                "{:.2}x",
                sqrt.comm.total_bytes() as f64 / rec.comm.total_bytes() as f64
            ),
        ]);
    }
    print_table(
        "E11 / PIR recursion ablation — depth-1 (√n) vs depth-2 ((F·n)^{1/3})",
        &[
            "n",
            "sqrt scheme (bytes, time)",
            "recursive (bytes, time)",
            "comm saving",
        ],
        &rows,
    );
}

fn meta_cells(meta: &ProtocolMeta, m: &Measurement) -> Vec<String> {
    vec![
        meta.section.to_string(),
        format!("{}", m.comm.rounds()),
        meta.rounds_str(),
        fmt_bytes(m.comm.client_to_server),
        fmt_bytes(m.comm.server_to_client),
        fmt_bytes(m.comm.total_bytes()),
        fmt_dur(m.elapsed),
        meta.security.to_string(),
        if meta.arithmetic_scalable {
            "yes"
        } else {
            "no"
        }
        .to_string(),
        meta.complexity.to_string(),
    ]
}

/// E1 — Table 1: the four single-server constructions (plus §3.2) at a
/// fixed workload.
fn e1_table1() {
    let mut b = Bench::new();
    let n = 1_024;
    let m = 4;
    let db = make_db(n, 256);
    let indices = make_indices(n, m);
    let truth: u64 = indices.iter().map(|&i| db[i]).sum();
    let field = field_for(n, m, 256);
    let mut rows = Vec::new();

    let circuit = sum_circuit(m, 8);
    let meas = measure_as("e1", "psm-yao", 1, |t| {
        let got = psm_spfe::run_yao_psm(
            t, &b.group, &b.pk, &b.sk, &db, &indices, &circuit, 8, &mut b.rng,
        )
        .unwrap();
        assert_eq!(got, truth);
    });
    rows.push(meta_cells(&table1::PSM, &meas));

    let meas = measure_as("e1", "select1+yao", 1, |t| {
        let got = two_phase::run_select1_yao(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &db,
            &indices,
            &Statistic::Sum,
            field,
            &mut b.rng,
        )
        .unwrap();
        assert_eq!(got[0], truth % field.modulus());
    });
    rows.push(meta_cells(&table1::SELECT1, &meas));

    let meas = measure_as("e1", "select2v1+yao", 1, |t| {
        let got = two_phase::run_select2v1_yao(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &db,
            &indices,
            &Statistic::Sum,
            field,
            &mut b.rng,
        )
        .unwrap();
        assert_eq!(got[0], truth % field.modulus());
    });
    rows.push(meta_cells(&table1::SELECT2_V1, &meas));

    let meas = measure_as("e1", "select2v2+yao", 1, |t| {
        let got = two_phase::run_select2v2_yao(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &b.spk,
            &b.ssk,
            &db,
            &indices,
            &Statistic::Sum,
            field,
            &mut b.rng,
        )
        .unwrap();
        assert_eq!(got[0], truth % field.modulus());
    });
    rows.push(meta_cells(&table1::SELECT2_V2, &meas));

    let meas = measure_as("e1", "select3+arith", 1, |t| {
        let got = two_phase::run_select3_arith(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &b.spk,
            &b.ssk,
            &db,
            &indices,
            &Statistic::Sum,
            &mut b.rng,
        )
        .unwrap();
        assert_eq!(got[0].to_u64().unwrap(), truth);
    });
    rows.push(meta_cells(&table1::SELECT3, &meas));

    print_table(
        &format!("E1 / Table 1 — single-server SPFE, f = sum, n = {n}, m = {m}"),
        &[
            "section",
            "rounds",
            "(paper)",
            "up",
            "down",
            "total",
            "time",
            "security",
            "arith?",
            "paper complexity",
        ],
        &rows,
    );
}

/// E2 — Theorem 2: servers and communication of the §3.1 protocol.
fn e2_theorem2() {
    let mut b = Bench::new();
    let mut rows = Vec::new();
    for n in [256usize, 4_096, 65_536] {
        for t_priv in [1usize, 2] {
            let m = 4;
            let db = make_db(n, 1_000);
            let indices = make_indices(n, m);
            let field = field_for(n, m, 1_000);
            let params = MultiServerParams::new(n, t_priv, field, MsFunction::Sum { m });
            let k = params.num_servers();
            let truth: u64 = indices.iter().map(|&i| db[i]).sum();
            let meas = measure_as("e2", &format!("multiserver n={n} t={t_priv}"), k, |t| {
                let got = multiserver::run(t, &params, &db, &indices, Some(7), &mut b.rng).unwrap();
                assert_eq!(got, [truth % field.modulus()]);
            });
            let ell = index_bits(n);
            rows.push(vec![
                n.to_string(),
                t_priv.to_string(),
                format!("{k} (= t·log₂n+1 = {})", t_priv * ell + 1),
                fmt_bytes(meas.comm.total_bytes()),
                fmt_bytes(meas.comm.server_to_client / k as u64),
                format!("{}", meas.comm.rounds()),
                fmt_dur(meas.elapsed),
            ]);
        }
    }
    print_table(
        "E2 / Theorem 2 — multi-server SPFE (f = sum, m = 4, s = 1)",
        &[
            "n",
            "t",
            "servers k",
            "total comm",
            "per-server down",
            "rounds",
            "time",
        ],
        &rows,
    );
}

/// E3 — Example 1 & Corollary 4: PSM communication components.
fn e3_psm() {
    let mut rows = Vec::new();
    for m in [2usize, 4, 8, 16] {
        // Sum PSM: α = one field element, β = 0.
        let seed = [3u8; 32];
        let msg = psm::sum::player_message(0, m, 123, 1 << 20, seed);
        let _ = msg;
        // Yao PSM over the m-input 8-bit sum circuit.
        let circuit = sum_circuit(m, 8);
        let p0 = psm::yao::p0_message(&circuit, seed);
        let beta = spfe::mpc::garble::garbled_size(&p0) as u64;
        let alpha = 8 * spfe::mpc::garble::LABEL_LEN as u64; // 8 bits·κ
        rows.push(vec![
            m.to_string(),
            "8 B / 0 B".to_string(),
            format!("{} / {}", fmt_bytes(alpha), fmt_bytes(beta)),
            circuit.size().to_string(),
        ]);
    }
    print_table(
        "E3 / Example 1 + Corollary 4 — PSM communication (α per player / β extra)",
        &["m", "sum-PSM (α/β)", "Yao-PSM (α/β)", "C_f (gates)"],
        &rows,
    );
}

/// E4 + E5 — the three input-selection protocols across m.
fn e4_e5_input_selection() {
    let mut b = Bench::new();
    let n = 1_024;
    let db = make_db(n, 500);
    let field = field_for(n, 32, 500);
    let mut rows = Vec::new();
    for m in [2usize, 4, 8, 16] {
        let indices = make_indices(n, m);
        let check = |shares: &input_select::SharesModP| {
            let rec = shares.reconstruct();
            for (r, &i) in rec.iter().zip(&indices) {
                assert_eq!(*r, db[i]);
            }
        };

        let m1 = measure_as("e4", &format!("select1 m={m}"), 1, |t| {
            let s =
                input_select::select1(t, &b.group, &b.pk, &b.sk, &db, &indices, field, &mut b.rng)
                    .unwrap();
            check(&s);
        });
        let m2 = measure_as("e4", &format!("select2v1 m={m}"), 1, |t| {
            let s = input_select::select2_v1(
                t, &b.group, &b.pk, &b.sk, &db, &indices, field, &mut b.rng,
            )
            .unwrap();
            check(&s);
        });
        let m3 = measure_as("e4", &format!("select2v2 m={m}"), 1, |t| {
            let s = input_select::select2_v2(
                t, &b.group, &b.pk, &b.sk, &b.spk, &b.ssk, &db, &indices, field, &mut b.rng,
            )
            .unwrap();
            check(&s);
        });
        let m4 = measure_as("e4", &format!("select3 m={m}"), 1, |t| {
            let s = input_select::select3(
                t, &b.group, &b.pk, &b.sk, &b.spk, &b.ssk, &db, &indices, 16, &mut b.rng,
            )
            .unwrap();
            let rec = s.reconstruct();
            for (r, &i) in rec.iter().zip(&indices) {
                assert_eq!(r.to_u64().unwrap(), db[i]);
            }
        });
        rows.push(vec![
            m.to_string(),
            format!(
                "{} ({})",
                fmt_bytes(m1.comm.total_bytes()),
                fmt_dur(m1.elapsed)
            ),
            format!(
                "{} ({})",
                fmt_bytes(m2.comm.total_bytes()),
                fmt_dur(m2.elapsed)
            ),
            format!(
                "{} ({})",
                fmt_bytes(m3.comm.total_bytes()),
                fmt_dur(m3.elapsed)
            ),
            format!(
                "{} ({})",
                fmt_bytes(m4.comm.total_bytes()),
                fmt_dur(m4.elapsed)
            ),
        ]);
    }
    print_table(
        &format!("E4+E5 / §3.3 input selection — total bytes (time), n = {n}"),
        &[
            "m",
            "§3.3.1 m×SPIR",
            "§3.3.2 v1 (κm²)",
            "§3.3.2 v2 (κm)",
            "§3.3.3 enc-db",
        ],
        &rows,
    );
}

/// E6 — the §4 weighted-sum protocol across n, against the linear baseline.
fn e6_weighted_sum() {
    let mut b = Bench::new();
    let m = 4;
    let mut rows = Vec::new();
    for n in [1_024usize, 4_096, 16_384, 65_536] {
        let db = make_db(n, 1_000);
        let indices = make_indices(n, m);
        let weights = vec![1u64, 2, 3, 4];
        let field = field_for(n, 10 * m, 1_000);
        let truth: u64 = indices.iter().zip(&weights).map(|(&i, &w)| db[i] * w).sum();
        let meas = measure_as("e6", &format!("weighted-sum n={n}"), 1, |t| {
            let got = stats::weighted_sum(
                t,
                &b.group,
                &b.pk,
                &b.sk,
                &[&db],
                &indices,
                &weights,
                field,
                &mut b.rng,
            )
            .unwrap();
            assert_eq!(got, [truth % field.modulus()]);
        });
        let buy = baseline::buy_cost_bytes(n, 64);
        rows.push(vec![
            n.to_string(),
            fmt_bytes(meas.comm.total_bytes()),
            format!("{}", meas.comm.rounds()),
            fmt_dur(meas.elapsed),
            fmt_bytes(buy),
            format!("{:.1}x", buy as f64 / meas.comm.total_bytes() as f64),
        ]);
    }
    print_table(
        "E6 / §4 weighted sum — 1-round protocol vs shipping the database (m = 4)",
        &[
            "n",
            "SPFE bytes",
            "rounds",
            "time",
            "buy-db bytes",
            "saving",
        ],
        &rows,
    );
}

/// E7 — the average+variance package vs two independent runs.
fn e7_package() {
    let mut b = Bench::new();
    let n = 4_096;
    let m = 4;
    let db = make_db(n, 300);
    let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
    let indices = make_indices(n, m);
    let field = field_for(n, m, 90_000);

    let pkg = measure_as("e7", "avg-var package", 1, |t| {
        let w = vec![1u64; m];
        let got = stats::weighted_sum(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &[&db, &sq],
            &indices,
            &w,
            field,
            &mut b.rng,
        )
        .unwrap();
        let es: u64 = indices.iter().map(|&i| db[i]).sum();
        let ess: u64 = indices.iter().map(|&i| sq[i]).sum();
        assert_eq!(got, [es, ess]);
    });
    let two = measure_as("e7", "two weighted-sum runs", 1, |t| {
        let w = vec![1u64; m];
        stats::weighted_sum(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &[&db],
            &indices,
            &w,
            field,
            &mut b.rng,
        )
        .unwrap();
        stats::weighted_sum(
            t,
            &b.group,
            &b.pk,
            &b.sk,
            &[&sq],
            &indices,
            &w,
            field,
            &mut b.rng,
        )
        .unwrap();
    });
    print_table(
        &format!("E7 / §4 average+variance package, n = {n}, m = {m}"),
        &["approach", "up", "down", "total", "rounds", "time"],
        &[
            vec![
                "package (1 query, 2 answers)".into(),
                fmt_bytes(pkg.comm.client_to_server),
                fmt_bytes(pkg.comm.server_to_client),
                fmt_bytes(pkg.comm.total_bytes()),
                format!("{}", pkg.comm.rounds()),
                fmt_dur(pkg.elapsed),
            ],
            vec![
                "two independent sum runs".into(),
                fmt_bytes(two.comm.client_to_server),
                fmt_bytes(two.comm.server_to_client),
                fmt_bytes(two.comm.total_bytes()),
                format!("{}", two.comm.rounds()),
                fmt_dur(two.elapsed),
            ],
        ],
    );
}

/// E8 — §4 frequency: tailored protocol vs the generic Yao route.
fn e8_frequency() {
    let mut b = Bench::new();
    let n = 1_024;
    let db = make_db(n, 50);
    let field = field_for(n, 16, 50);
    let keyword = db[7];
    let mut rows = Vec::new();
    for m in [4usize, 8, 16] {
        let indices = make_indices(n, m);
        let truth = indices.iter().filter(|&&i| db[i] == keyword).count() as u64;
        let tailored = measure_as("e8", &format!("frequency-tailored m={m}"), 1, |t| {
            let shares =
                input_select::select1(t, &b.group, &b.pk, &b.sk, &db, &indices, field, &mut b.rng)
                    .unwrap();
            let keywords = vec![keyword; m];
            let got = stats::frequency(t, &b.pk, &b.sk, &shares, &keywords, &mut b.rng).unwrap();
            assert_eq!(got, truth);
        });
        let generic = measure_as("e8", &format!("frequency-generic m={m}"), 1, |t| {
            let got = two_phase::run_select1_yao(
                t,
                &b.group,
                &b.pk,
                &b.sk,
                &db,
                &indices,
                &Statistic::Frequency { keyword },
                field,
                &mut b.rng,
            )
            .unwrap();
            assert_eq!(got[0], truth);
        });
        rows.push(vec![
            m.to_string(),
            format!(
                "{} ({})",
                fmt_bytes(tailored.comm.total_bytes()),
                fmt_dur(tailored.elapsed)
            ),
            format!(
                "{} ({})",
                fmt_bytes(generic.comm.total_bytes()),
                fmt_dur(generic.elapsed)
            ),
            format!(
                "{:.2}x",
                generic.comm.total_bytes() as f64 / tailored.comm.total_bytes() as f64
            ),
        ]);
    }
    print_table(
        &format!("E8 / §4 frequency counting, n = {n}"),
        &[
            "m",
            "tailored §4 (bytes, time)",
            "generic Yao route",
            "generic/tailored",
        ],
        &rows,
    );
}

/// E9 — sublinearity crossover: SPFE vs linear baselines across n.
fn e9_crossover() {
    let mut b = Bench::new();
    let m = 4;
    let mut rows = Vec::new();
    for n in [256usize, 1_024, 4_096, 16_384, 65_536] {
        let db = make_db(n, 60);
        let indices = make_indices(n, m);
        let field = field_for(n, m, 60);
        let truth: u64 = indices.iter().map(|&i| db[i]).sum();
        let spfe = measure_as("e9", &format!("weighted-sum n={n}"), 1, |t| {
            let got = stats::weighted_sum(
                t,
                &b.group,
                &b.pk,
                &b.sk,
                &[&db],
                &indices,
                &[1, 1, 1, 1],
                field,
                &mut b.rng,
            )
            .unwrap();
            assert_eq!(got, [truth]);
        });
        let buy = baseline::buy_cost_bytes(n, 64);
        let yao = baseline::generic_yao_cost_estimate(n, m, 6);
        let spfe_b = spfe.comm.total_bytes();
        rows.push(vec![
            n.to_string(),
            fmt_bytes(spfe_b),
            fmt_bytes(buy),
            fmt_bytes(yao),
            if spfe_b < buy && spfe_b < yao {
                "SPFE"
            } else if buy <= yao {
                "buy-db"
            } else {
                "Yao"
            }
            .to_string(),
        ]);
    }
    print_table(
        "E9 / sublinearity crossover — weighted sum (m = 4) vs linear baselines",
        &[
            "n",
            "SPFE (measured)",
            "buy-db (n·8B)",
            "generic Yao (κ·n)",
            "cheapest",
        ],
        &rows,
    );
}

/// E10 — batched SPIR(n, m) vs m independent SPIR(n, 1): the footnote-2
/// claim, in communication and server computation.
fn e10_batched() {
    let mut b = Bench::new();
    let n = 4_096;
    let db = make_db(n, 1_000);
    let mut rows = Vec::new();
    for m in [2usize, 4, 8, 16, 32] {
        let indices = make_indices(n, m);
        let batched = measure_as("e10", &format!("batched m={m}"), 1, |t| {
            let (vals, stats) =
                pir::batched::run(t, &b.group, &b.pk, &b.sk, &db, &indices, &mut b.rng).unwrap();
            assert_eq!(stats.fallbacks, 0, "m={m}");
            for (v, &i) in vals.iter().zip(&indices) {
                assert_eq!(*v, db[i]);
            }
        });
        let params = pir::SpirParams::new(b.group.clone(), n);
        let indep = measure_as("e10", &format!("independent-spir m={m}"), 1, |t| {
            for &i in &indices {
                let got = pir::spir::run(t, &params, &b.pk, &b.sk, &db, i, &mut b.rng).unwrap();
                assert_eq!(got, db[i]);
            }
        });
        rows.push(vec![
            m.to_string(),
            format!(
                "{} ({})",
                fmt_bytes(batched.comm.total_bytes()),
                fmt_dur(batched.elapsed)
            ),
            format!(
                "{} ({})",
                fmt_bytes(indep.comm.total_bytes()),
                fmt_dur(indep.elapsed)
            ),
            format!(
                "{:.2}x / {:.2}x",
                indep.comm.total_bytes() as f64 / batched.comm.total_bytes() as f64,
                indep.elapsed.as_secs_f64() / batched.elapsed.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        &format!("E10 / batched SPIR(n,m) vs m × SPIR(n,1), n = {n}"),
        &[
            "m",
            "batched (bytes, time)",
            "independent",
            "savings (comm / time)",
        ],
        &rows,
    );
}
