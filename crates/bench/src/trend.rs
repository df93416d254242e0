//! The cost-trend regression gate: compare two cost-report suites.
//!
//! The workspace's determinism contract (DESIGN.md §8) makes this gate
//! noise-free: deterministic op counters and metered comm bytes are
//! bit-identical across reruns, thread counts, and fault seeds, so any
//! delta between a committed baseline `BENCH_costs.json` and a fresh run
//! is a real change in protocol cost. [`compare_suites`] therefore flags
//! *any* change to one of them, in either direction, as a stale baseline
//! to re-accept — a shrink is as much a change as a growth, and a kernel
//! that miscounts low must not pass. `spfe-tables trend` turns the result
//! into an exit code for CI.
//!
//! Wall-clock times and scheduler/fault gauges are deliberately *not*
//! compared — they vary run to run and would make the gate flaky.
//!
//! Span call counts join the gate at `threads == 1` on both sides: each
//! span path's `calls` is held exactly there (`span:<path>:calls`), so a
//! change that adds, drops or repeats a protocol phase shows without a
//! hand diff; at more threads the rows are informational.
//!
//! The heap axis (schema v3) joins the gate with its own rules: at
//! `threads == 1` on both sides, `mem:allocs` and `mem:alloc_bytes` are
//! deterministic (DESIGN.md §12) and gate on growth past the percentage
//! threshold — but only when the baseline actually carries heap data
//! (`mem.allocs > 0`), so a v3 baseline produced without `obs-alloc`
//! never flags an instrumented run. `mem:peak_live_bytes` is reported in [`TrendReport::deltas`] but
//! never gated: the high-water mark depends on allocator reuse and, at
//! `SPFE_THREADS > 1`, on scheduling.

use spfe_obs::{CostReport, Suite};
use std::collections::BTreeMap;

/// One gated metric that failed the gate: a deterministic counter, comm
/// total or span call count that changed at all, or a heap total that
/// grew past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment id of the offending report.
    pub experiment: String,
    /// Protocol variant of the offending report.
    pub protocol: String,
    /// Metric name (`op:<name>`, `comm:<direction>_bytes`,
    /// `span:<path>:calls`, or `mem:<field>`).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Whether the metric is held exactly (a deterministic op counter,
    /// comm total or span call count): then the baseline is stale and
    /// must be re-accepted, whichever way the value moved.
    pub exact: bool,
}

impl Regression {
    /// Percentage growth over baseline (`inf` when the baseline is 0).
    pub fn pct(&self) -> f64 {
        pct(self.baseline, self.current)
    }
}

/// One metric comparison, whether or not it flagged — the full record
/// behind `spfe-tables trend --json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Experiment id of the compared report.
    pub experiment: String,
    /// Protocol variant of the compared report.
    pub protocol: String,
    /// Metric name (`op:<name>`, `comm:<direction>_bytes`,
    /// `span:<path>:calls`, or `mem:<field>`).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Whether this metric participates in the gate. Informational
    /// metrics (`mem:peak_live_bytes`, heap counters outside the
    /// single-thread regime) are reported but can never flag.
    pub gated: bool,
    /// Whether this metric is gated and failed its rule: any change for
    /// a deterministic counter or comm total, growth past the threshold
    /// for a heap total.
    pub flagged: bool,
}

impl Delta {
    /// Percentage growth over baseline (`inf` when the baseline is 0,
    /// negative when the metric shrank).
    pub fn pct(&self) -> f64 {
        pct(self.baseline, self.current)
    }
}

fn pct(baseline: u64, current: u64) -> f64 {
    if baseline == 0 {
        if current == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (current as f64 - baseline as f64) / baseline as f64
    }
}

/// Outcome of a baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// `(experiment, protocol)` pairs present in both suites.
    pub pairs_compared: usize,
    /// Individual *gated* metric comparisons performed (informational
    /// deltas are excluded so the gate's coverage figure stays honest).
    pub metrics_compared: usize,
    /// Gated metrics that failed their rule, in report order.
    pub regressions: Vec<Regression>,
    /// Every comparison performed, flagged or not, in report order.
    pub deltas: Vec<Delta>,
}

/// The metrics the gate covers for one report: every *deterministic* op
/// counter plus the two comm byte totals. Missing ops count as 0, so an
/// op appearing only in one suite is still compared.
fn metrics(report: &CostReport) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in &report.ops {
        if s.op.deterministic() {
            out.insert(format!("op:{}", s.op.name()), s.count);
        }
    }
    out.insert("comm:up_bytes".into(), report.comm.up_bytes);
    out.insert("comm:down_bytes".into(), report.comm.down_bytes);
    out
}

/// The heap metrics for one pair of reports: `(metric, baseline, current,
/// gated)`. Emitted only when either side carries heap data at all, so
/// pre-v3 baselines and non-`obs-alloc` runs produce no `mem:` rows.
fn mem_metrics(
    baseline: &Suite,
    base: &CostReport,
    current: &Suite,
    cur: &CostReport,
) -> Vec<(&'static str, u64, u64, bool)> {
    if base.mem.allocs == 0 && cur.mem.allocs == 0 {
        return Vec::new();
    }
    // Alloc count/bytes are deterministic only in the single-thread
    // regime, and comparing an instrumented run against an uninstrumented
    // baseline (allocs == 0) would always flag; outside that regime the
    // rows are informational.
    let gate = baseline.threads == 1 && current.threads == 1 && base.mem.allocs > 0;
    vec![
        ("mem:allocs", base.mem.allocs, cur.mem.allocs, gate),
        (
            "mem:alloc_bytes",
            base.mem.alloc_bytes,
            cur.mem.alloc_bytes,
            gate,
        ),
        // The high-water mark depends on allocator reuse: never gated.
        (
            "mem:peak_live_bytes",
            base.mem.peak_live_bytes,
            cur.mem.peak_live_bytes,
            false,
        ),
    ]
}

/// The span-call metrics for one pair of reports: `(metric, baseline,
/// current, gated)` per span path in either report, `span:<path>:calls`.
/// A path's call count is fixed by the protocol's control flow, so it is
/// held exactly — but only in the single-thread regime, like the heap
/// totals. Span paths are per thread: a span opened inside a pool job
/// nests under the caller's path only when the job runs on the calling
/// thread, so at more threads the rows are informational.
fn span_metrics(
    baseline: &Suite,
    base: &CostReport,
    current: &Suite,
    cur: &CostReport,
) -> Vec<(String, u64, u64, bool)> {
    let gate = baseline.threads == 1 && current.threads == 1;
    let mut calls: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in &base.spans {
        calls.entry(&s.path).or_default().0 = s.calls;
    }
    for s in &cur.spans {
        calls.entry(&s.path).or_default().1 = s.calls;
    }
    calls
        .into_iter()
        .map(|(path, (b, c))| (format!("span:{path}:calls"), b, c, gate))
        .collect()
}

/// Compares `current` against `baseline`, flagging every deterministic
/// counter or comm byte total that differs at all (in either direction),
/// and every gated heap total that grew more than `threshold_pct` percent
/// (going from 0 to nonzero always flags; a heap shrink never does). Heap
/// counters join the gate under the conditions in the module docs; every
/// comparison — gated or informational — is recorded in
/// [`TrendReport::deltas`].
///
/// # Errors
///
/// When the suites share no `(experiment, protocol)` pair — a gate that
/// compares nothing must fail loudly rather than pass vacuously.
pub fn compare_suites(
    baseline: &Suite,
    current: &Suite,
    threshold_pct: f64,
) -> Result<TrendReport, String> {
    let mut rep = TrendReport {
        pairs_compared: 0,
        metrics_compared: 0,
        regressions: Vec::new(),
        deltas: Vec::new(),
    };
    for cur in &current.reports {
        let Some(base) = baseline.find(&cur.experiment, &cur.protocol) else {
            continue;
        };
        rep.pairs_compared += 1;
        let base_metrics = metrics(base);
        let cur_metrics = metrics(cur);
        let mut keys: Vec<&String> = base_metrics.keys().chain(cur_metrics.keys()).collect();
        keys.sort();
        keys.dedup();
        // (metric, baseline, current, gated, exact)
        let mut rows: Vec<(String, u64, u64, bool, bool)> = keys
            .into_iter()
            .map(|key| {
                let b = base_metrics.get(key).copied().unwrap_or(0);
                let c = cur_metrics.get(key).copied().unwrap_or(0);
                (key.clone(), b, c, true, true)
            })
            .collect();
        rows.extend(
            span_metrics(baseline, base, current, cur)
                .into_iter()
                .map(|(k, b, c, gated)| (k, b, c, gated, true)),
        );
        rows.extend(
            mem_metrics(baseline, base, current, cur)
                .into_iter()
                .map(|(k, b, c, gated)| (k.to_owned(), b, c, gated, false)),
        );
        for (metric, b, c, gated, exact) in rows {
            if gated {
                rep.metrics_compared += 1;
            }
            let failed = if exact {
                c != b
            } else {
                c as f64 > b as f64 * (1.0 + threshold_pct / 100.0)
            };
            let flagged = gated && failed;
            if flagged {
                rep.regressions.push(Regression {
                    experiment: cur.experiment.clone(),
                    protocol: cur.protocol.clone(),
                    metric: metric.clone(),
                    baseline: b,
                    current: c,
                    exact,
                });
            }
            rep.deltas.push(Delta {
                experiment: cur.experiment.clone(),
                protocol: cur.protocol.clone(),
                metric,
                baseline: b,
                current: c,
                gated,
                flagged,
            });
        }
    }
    if rep.pairs_compared == 0 {
        return Err(format!(
            "no (experiment, protocol) pair in common: baseline has {} report(s), \
             current has {} — nothing to compare",
            baseline.reports.len(),
            current.reports.len()
        ));
    }
    Ok(rep)
}

/// The report rows of a suite document, one per line as
/// [`spfe_obs::suite_json`] renders them, without indent or comma.
fn report_lines(src: &str, reports: usize) -> Result<Vec<&str>, String> {
    let rows: Vec<&str> = src
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with("{\"experiment\""))
        .collect();
    if rows.len() != reports {
        return Err(format!("{reports} report(s) on {} line(s)", rows.len()));
    }
    Ok(rows)
}

/// The suite `trend --accept` writes over the baseline: `current`, except
/// that a row whose gated metrics all equal the baseline's keeps the
/// baseline's bytes, wall-clock fields included. Only new and moved rows
/// change, so a re-accept shows in review exactly which rows moved; rows
/// gone from `current` are dropped. Suites of different thread counts
/// gate different metrics, so then `current` is taken whole.
///
/// # Errors
///
/// When either document does not parse as a suite or does not hold one
/// report per line.
pub fn accept(baseline_src: &str, current_src: &str) -> Result<String, String> {
    let base = spfe_obs::parse_suite(baseline_src).map_err(|e| format!("baseline: {e}"))?;
    let cur = spfe_obs::parse_suite(current_src).map_err(|e| format!("current: {e}"))?;
    let base_rows = report_lines(baseline_src, base.reports.len())?;
    let cur_rows = report_lines(current_src, cur.reports.len())?;
    if base.threads != cur.threads {
        return Ok(current_src.to_owned());
    }
    let deltas = compare_suites(&base, &cur, 0.0).map_or_else(|_| Vec::new(), |r| r.deltas);
    let mut doc = current_src.to_owned();
    for (r, row) in cur.reports.iter().zip(cur_rows) {
        let same = |e: &str, p: &str| e == r.experiment && p == r.protocol;
        let moved = deltas
            .iter()
            .any(|d| d.gated && d.baseline != d.current && same(&d.experiment, &d.protocol));
        let kept = base
            .reports
            .iter()
            .position(|b| same(&b.experiment, &b.protocol));
        if let (false, Some(j)) = (moved, kept) {
            doc = doc.replacen(row, base_rows[j], 1);
        }
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// The parallel-scaling gate: `spfe-tables trend --scaling`.
// ---------------------------------------------------------------------------

/// One measurement row of `BENCH_pir_scan.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRow {
    /// Database size.
    pub n: u64,
    /// Worker-pool thread count the row was measured at.
    pub threads: u64,
    /// Wall time per scan.
    pub ns_per_query: u64,
    /// CPU cores available on the measuring machine (0 = unknown — rows
    /// written before the field existed).
    pub cores: u64,
}

/// Which rule [`check_scaling`] applied to a size, decided by the
/// hardware the rows were measured on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingRule {
    /// `cores ≥ threads`: the pool has real parallel hardware, so the
    /// multi-thread scan must beat serial by at least this percentage.
    Speedup(f64),
    /// `cores < threads` (including unknown cores): no speedup is
    /// physically possible, so the gate degrades to an overhead bound —
    /// the pool must cost at most this percentage over serial.
    OverheadBound(f64),
}

/// One size's verdict from [`check_scaling`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingVerdict {
    /// Database size.
    pub n: u64,
    /// Thread count of the parallel row.
    pub threads: u64,
    /// Cores recorded for the parallel row.
    pub cores: u64,
    /// Serial (threads = 1) wall time.
    pub serial_ns: u64,
    /// Parallel wall time.
    pub parallel_ns: u64,
    /// `serial / parallel` (> 1 means the pool won).
    pub speedup: f64,
    /// The rule this size was held to.
    pub rule: ScalingRule,
    /// Whether the rule was satisfied.
    pub pass: bool,
}

/// Parses the `BENCH_pir_scan.json` array into [`ScanRow`]s. Rows without
/// a `cores` field (pre-gate baselines) parse with `cores = 0`.
///
/// # Errors
///
/// On malformed JSON or a row missing `n` / `threads` / `ns_per_query`.
pub fn parse_scan(src: &str) -> Result<Vec<ScanRow>, String> {
    let doc = spfe_obs::json::parse(src)?;
    let arr = doc.as_arr().ok_or("scan file: expected a JSON array")?;
    arr.iter()
        .enumerate()
        .map(|(i, row)| {
            let field = |key: &str| {
                row.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("scan row {i}: missing or non-integer `{key}`"))
            };
            Ok(ScanRow {
                n: field("n")?,
                threads: field("threads")?,
                ns_per_query: field("ns_per_query")?,
                cores: row.get("cores").and_then(|v| v.as_u64()).unwrap_or(0),
            })
        })
        .collect()
}

/// The parallel-scaling gate over a set of [`ScanRow`]s: for every size
/// `n ≥ min_n` that has both a serial and a multi-thread row, require
///
/// * **speedup ≥ `min_speedup_pct`** when the rows were measured on a
///   machine with at least as many cores as pool threads (the CI rule:
///   4 threads must beat 1 by ≥ 10% at n ≥ 4096), or
/// * **overhead ≤ `max_overhead_pct`** when the machine cannot run the
///   threads concurrently (`cores < threads`) — a single-core box can
///   never show a speedup, but the persistent pool must still be close to
///   free, which is exactly the property the spawn-per-call engine lacked.
///
/// Wall-clock is inherently noisy, which is why this gate (unlike the
/// deterministic counter gate) only runs against sizes big enough for the
/// signal to dominate and with a generous threshold.
///
/// # Errors
///
/// When no size `≥ min_n` has both a serial and a parallel row — a gate
/// that checks nothing must fail loudly.
pub fn check_scaling(
    rows: &[ScanRow],
    min_n: u64,
    min_speedup_pct: f64,
    max_overhead_pct: f64,
) -> Result<Vec<ScalingVerdict>, String> {
    let mut verdicts = Vec::new();
    let mut sizes: Vec<u64> = rows.iter().map(|r| r.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for n in sizes.into_iter().filter(|&n| n >= min_n) {
        let serial = rows.iter().find(|r| r.n == n && r.threads == 1);
        let parallel = rows.iter().find(|r| r.n == n && r.threads > 1);
        let (Some(s), Some(p)) = (serial, parallel) else {
            continue;
        };
        let speedup = s.ns_per_query as f64 / (p.ns_per_query as f64).max(1.0);
        let (rule, pass) = if p.cores >= p.threads {
            let rule = ScalingRule::Speedup(min_speedup_pct);
            (rule, speedup >= 1.0 + min_speedup_pct / 100.0)
        } else {
            let rule = ScalingRule::OverheadBound(max_overhead_pct);
            (rule, speedup >= 1.0 / (1.0 + max_overhead_pct / 100.0))
        };
        verdicts.push(ScalingVerdict {
            n,
            threads: p.threads,
            cores: p.cores,
            serial_ns: s.ns_per_query,
            parallel_ns: p.ns_per_query,
            speedup,
            rule,
            pass,
        });
    }
    if verdicts.is_empty() {
        return Err(format!(
            "no size ≥ {min_n} with both a serial and a parallel row — \
             regenerate the scan file (`spfe-tables pir-scan`)"
        ));
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_obs::{CommStat, MemStat, Op, OpStat, SpanStat};

    fn report(experiment: &str, protocol: &str, modexps: u64, up: u64) -> CostReport {
        CostReport {
            experiment: experiment.into(),
            protocol: protocol.into(),
            elapsed_ns: 1_000,
            spans: Vec::new(),
            ops: vec![
                OpStat {
                    op: Op::Modexp,
                    count: modexps,
                },
                OpStat {
                    op: Op::Retries, // gauge: must be ignored
                    count: 1,
                },
            ],
            comm: CommStat {
                up_bytes: up,
                down_bytes: 50,
                messages: 2,
                half_rounds: 2,
                labels: Vec::new(),
            },
            mem: MemStat::default(),
        }
    }

    #[test]
    fn accept_splices_only_rows_that_moved() {
        let base = [10, 20, 30, 40].map(|n| report("e1", &format!("p{n}"), n, n));
        let base_doc = spfe_obs::suite_json(1, &base);
        // Every fresh row has new timings; only p20 moved a gated counter,
        // `new` is new and p40 is gone.
        let mut cur = base[..3].to_vec();
        cur.iter_mut().for_each(|r| r.elapsed_ns += 777);
        cur[1].ops[0].count = 21;
        cur.push(report("e2", "new", 1, 1));
        let cur_doc = spfe_obs::suite_json(1, &cur);
        let out = accept(&base_doc, &cur_doc).unwrap();
        let rows = |doc| report_lines(doc, 4).unwrap();
        let (old, fresh) = (rows(&base_doc), rows(&cur_doc));
        assert_eq!(rows(&out), [old[0], fresh[1], old[2], fresh[3]]);
        assert_eq!(
            spfe_obs::parse_suite(&out).unwrap().reports[1].ops[0].count,
            21
        );
        // Re-accepting the result over itself changes no byte; mixed
        // thread counts take the current suite whole.
        assert_eq!(accept(&out, &out).unwrap(), out);
        let other = spfe_obs::suite_json(4, &cur);
        assert_eq!(accept(&base_doc, &other).unwrap(), other);
    }

    fn mem_report(experiment: &str, allocs: u64, bytes: u64, peak: u64) -> CostReport {
        let mut r = report(experiment, "p", 100, 1_000);
        r.mem = MemStat {
            allocs,
            alloc_bytes: bytes,
            free_bytes: bytes / 2,
            reallocs: 1,
            live_bytes: bytes / 2,
            peak_live_bytes: peak,
        };
        r
    }

    fn suite(reports: Vec<CostReport>) -> Suite {
        Suite {
            version: 2,
            threads: 1,
            reports,
        }
    }

    fn suite_at(threads: u64, reports: Vec<CostReport>) -> Suite {
        Suite {
            version: 3,
            threads,
            reports,
        }
    }

    #[test]
    fn unchanged_rerun_has_no_regressions() {
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 100, 1_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.pairs_compared, 1);
        assert!(out.regressions.is_empty(), "{out:?}");
        // modexp + up_bytes + down_bytes (retries is a gauge, excluded).
        assert_eq!(out.metrics_compared, 3);
    }

    #[test]
    fn counter_growth_past_threshold_flags() {
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 110, 1_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.regressions.len(), 1, "{out:?}");
        let r = &out.regressions[0];
        assert_eq!(r.metric, "op:modexp");
        assert_eq!((r.baseline, r.current), (100, 110));
        assert!(r.exact);
        assert!((r.pct() - 10.0).abs() < 1e-9);
    }

    /// The threshold covers heap totals only: a deterministic counter or
    /// comm total growing by less than it still flags.
    #[test]
    fn growth_within_threshold_passes() {
        let base = suite_at(1, vec![mem_report("e1", 100, 10_000, 4_096)]);
        let cur = suite_at(1, vec![mem_report("e1", 104, 10_400, 4_096)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 104, 1_040)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        let flagged: Vec<&str> = out.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(flagged, ["comm:up_bytes", "op:modexp"], "{out:?}");
    }

    #[test]
    fn comm_bytes_growth_flags() {
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 100, 1_200)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].metric, "comm:up_bytes");
    }

    /// A deterministic counter or comm total that shrank is a stale
    /// baseline too: a kernel that miscounts low must not pass.
    #[test]
    fn deterministic_shrink_flags_as_stale() {
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 99, 100)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.regressions.len(), 2, "{out:?}");
        assert!(out.regressions.iter().all(|r| r.exact && r.pct() < 0.0));
        let flagged: Vec<&str> = out.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(flagged, ["comm:up_bytes", "op:modexp"]);
    }

    #[test]
    fn zero_baseline_going_nonzero_always_flags() {
        let base = suite(vec![report("e1", "p", 0, 1_000)]);
        let cur = suite(vec![report("e1", "p", 1, 1_000)]);
        let out = compare_suites(&base, &cur, 50.0).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].pct().is_infinite());
    }

    #[test]
    fn gauge_counters_are_ignored() {
        let mut cur_report = report("e1", "p", 100, 1_000);
        cur_report.ops[1].count = 1_000_000; // retries explode: fault noise
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![cur_report]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
    }

    #[test]
    fn unmatched_reports_are_skipped_but_matches_compare() {
        let base = suite(vec![
            report("e1", "p", 100, 1_000),
            report("e2", "q", 7, 10),
        ]);
        let cur = suite(vec![
            report("e1", "p", 200, 1_000),
            report("e9", "new", 1, 1),
        ]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.pairs_compared, 1);
        assert_eq!(out.regressions.len(), 1);
    }

    #[test]
    fn disjoint_suites_error() {
        let base = suite(vec![report("e1", "p", 1, 1)]);
        let cur = suite(vec![report("e2", "q", 1, 1)]);
        assert!(compare_suites(&base, &cur, 5.0).is_err());
    }

    #[test]
    fn deltas_record_every_comparison_even_when_nothing_flags() {
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 100, 1_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.deltas.len(), 3, "{out:?}");
        assert!(out.deltas.iter().all(|d| d.gated && !d.flagged));
        let metrics: Vec<&str> = out.deltas.iter().map(|d| d.metric.as_str()).collect();
        assert_eq!(metrics, ["comm:down_bytes", "comm:up_bytes", "op:modexp"]);
    }

    #[test]
    fn heap_growth_flags_in_the_single_thread_regime() {
        let base = suite_at(1, vec![mem_report("e1", 100, 10_000, 4_096)]);
        let cur = suite_at(1, vec![mem_report("e1", 100, 12_000, 4_096)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert_eq!(out.regressions.len(), 1, "{out:?}");
        assert_eq!(out.regressions[0].metric, "mem:alloc_bytes");
        // op:modexp + 2 comm + mem:allocs + mem:alloc_bytes (peak is
        // informational and excluded from the coverage count).
        assert_eq!(out.metrics_compared, 5);
        assert_eq!(out.deltas.len(), 6);
    }

    #[test]
    fn heap_is_informational_against_an_uninstrumented_baseline() {
        // v3 baseline produced without obs-alloc: mem.allocs == 0.
        let base = suite_at(1, vec![report("e1", "p", 100, 1_000)]);
        let cur = suite_at(1, vec![mem_report("e1", 500, 50_000, 9_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
        assert_eq!(out.metrics_compared, 3);
        let allocs = out
            .deltas
            .iter()
            .find(|d| d.metric == "mem:allocs")
            .unwrap();
        assert!(!allocs.gated && !allocs.flagged);
        assert_eq!((allocs.baseline, allocs.current), (0, 500));
    }

    #[test]
    fn heap_is_informational_outside_single_thread() {
        let base = suite_at(4, vec![mem_report("e1", 100, 10_000, 4_096)]);
        let cur = suite_at(4, vec![mem_report("e1", 1_000, 100_000, 40_960)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
        assert!(out
            .deltas
            .iter()
            .filter(|d| d.metric.starts_with("mem:"))
            .all(|d| !d.gated));
    }

    #[test]
    fn peak_live_bytes_never_flags() {
        let base = suite_at(1, vec![mem_report("e1", 100, 10_000, 1_000)]);
        let cur = suite_at(1, vec![mem_report("e1", 100, 10_000, 100_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
        let peak = out
            .deltas
            .iter()
            .find(|d| d.metric == "mem:peak_live_bytes")
            .unwrap();
        assert!(!peak.gated);
        assert_eq!((peak.baseline, peak.current), (1_000, 100_000));
    }

    #[test]
    fn heap_shrink_is_never_a_regression() {
        let base = suite_at(1, vec![mem_report("e1", 1_000, 100_000, 50_000)]);
        let cur = suite_at(1, vec![mem_report("e1", 100, 10_000, 5_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
        let allocs = out.deltas.iter().find(|d| d.metric == "mem:allocs");
        assert!(allocs.is_some_and(|d| d.gated && !d.flagged), "{out:?}");
    }

    fn span_report(calls: &[(&str, u64)]) -> CostReport {
        let mut r = report("e1", "p", 100, 1_000);
        r.spans = calls
            .iter()
            .map(|&(path, calls)| SpanStat {
                path: path.into(),
                calls,
                ns: 1_000 * calls,
                p50_ns: 1_000,
                p95_ns: 1_000,
                p99_ns: 1_000,
                allocs: 0,
                alloc_bytes: 0,
                peak_live_bytes: 0,
            })
            .collect();
        r
    }

    #[test]
    fn span_calls_are_held_exactly_in_the_single_thread_regime() {
        let base = span_report(&[("p", 1), ("p/scan", 4)]);
        let same = compare_suites(
            &suite_at(1, vec![base.clone()]),
            &suite_at(1, vec![base.clone()]),
            5.0,
        )
        .unwrap();
        assert!(same.regressions.is_empty(), "{same:?}");
        // modexp + 2 comm + 2 span paths.
        assert_eq!(same.metrics_compared, 5);
        // A repeated phase and a new path both flag, in either direction.
        let cur = span_report(&[("p", 1), ("p/scan", 3), ("p/extra", 1)]);
        let out = compare_suites(&suite_at(1, vec![base]), &suite_at(1, vec![cur]), 5.0).unwrap();
        let flagged: Vec<&str> = out.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            flagged,
            ["span:p/extra:calls", "span:p/scan:calls"],
            "{out:?}"
        );
        assert!(out.regressions.iter().all(|r| r.exact));
    }

    #[test]
    fn span_calls_are_informational_outside_single_thread() {
        let base = suite_at(4, vec![span_report(&[("p", 1), ("p/scan", 4)])]);
        let cur = suite_at(1, vec![span_report(&[("p", 2)])]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.regressions.is_empty(), "{out:?}");
        let spans: Vec<&Delta> = out
            .deltas
            .iter()
            .filter(|d| d.metric.starts_with("span:"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|d| !d.gated && !d.flagged));
    }

    #[test]
    fn zero_mem_reports_add_no_mem_deltas() {
        let base = suite(vec![report("e1", "p", 100, 1_000)]);
        let cur = suite(vec![report("e1", "p", 100, 1_000)]);
        let out = compare_suites(&base, &cur, 5.0).unwrap();
        assert!(out.deltas.iter().all(|d| !d.metric.starts_with("mem:")));
    }

    // --- the scaling gate ---

    fn scan(n: u64, threads: u64, ns: u64, cores: u64) -> ScanRow {
        ScanRow {
            n,
            threads,
            ns_per_query: ns,
            cores,
        }
    }

    #[test]
    fn scaling_speedup_rule_passes_on_real_parallel_hardware() {
        // 4 cores, 4 threads, 2× faster: comfortably over the 10% bar.
        let rows = [scan(4096, 1, 20_000_000, 4), scan(4096, 4, 10_000_000, 4)];
        let out = check_scaling(&rows, 4096, 10.0, 10.0).unwrap();
        assert_eq!(out.len(), 1);
        let v = &out[0];
        assert!(v.pass, "{v:?}");
        assert!(matches!(v.rule, ScalingRule::Speedup(_)));
        assert!((v.speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_speedup_rule_flags_a_pool_that_does_not_scale() {
        // 4 cores available but the pool only breaks even: gate fails.
        let rows = [scan(4096, 1, 20_000_000, 4), scan(4096, 4, 19_500_000, 4)];
        let out = check_scaling(&rows, 4096, 10.0, 10.0).unwrap();
        assert!(!out[0].pass, "{:?}", out[0]);
    }

    #[test]
    fn scaling_degrades_to_overhead_bound_on_a_small_machine() {
        // 1 core: no speedup possible, but ≤10% overhead passes…
        let rows = [scan(4096, 1, 20_000_000, 1), scan(4096, 4, 21_000_000, 1)];
        let out = check_scaling(&rows, 4096, 10.0, 10.0).unwrap();
        assert!(out[0].pass, "{:?}", out[0]);
        assert!(matches!(out[0].rule, ScalingRule::OverheadBound(_)));
        // …while the seed's spawn-per-call engine at +30% would not.
        let rows = [scan(4096, 1, 20_000_000, 1), scan(4096, 4, 26_000_000, 1)];
        let out = check_scaling(&rows, 4096, 10.0, 10.0).unwrap();
        assert!(!out[0].pass, "{:?}", out[0]);
    }

    #[test]
    fn scaling_ignores_sizes_below_min_n() {
        let rows = [
            scan(256, 1, 1_000, 4),
            scan(256, 4, 5_000, 4), // tiny size allowed to be slower
            scan(4096, 1, 20_000_000, 4),
            scan(4096, 4, 10_000_000, 4),
        ];
        let out = check_scaling(&rows, 4096, 10.0, 10.0).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].n, 4096);
        assert!(out[0].pass);
    }

    #[test]
    fn scaling_errors_when_nothing_qualifies() {
        let rows = [scan(256, 1, 1_000, 4), scan(256, 4, 900, 4)];
        assert!(check_scaling(&rows, 4096, 10.0, 10.0).is_err());
        assert!(check_scaling(&[], 4096, 10.0, 10.0).is_err());
    }

    #[test]
    fn scan_rows_parse_with_and_without_cores() {
        let src = r#"[
            {"n":4096,"threads":1,"ns_per_query":100,"bytes_up":1,"bytes_down":2,"cores":4},
            {"n":4096,"threads":4,"ns_per_query":50,"bytes_up":1,"bytes_down":2}
        ]"#;
        let rows = parse_scan(src).unwrap();
        assert_eq!(rows[0], scan(4096, 1, 100, 4));
        assert_eq!(rows[1].cores, 0, "missing cores parses as unknown");
        assert!(parse_scan("{}").is_err());
        assert!(parse_scan("[{\"n\":1}]").is_err());
    }
}
