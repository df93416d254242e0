//! The differential obliviousness audit behind `spfe-tables audit`
//! (DESIGN.md §14).
//!
//! For one driver from [`spfe::harness`], [`audit_driver`] re-runs the
//! protocol over every secret-input variant and every masked fault plan,
//! collects the per-party view fingerprints ([`spfe::obs::audit`]), and
//! reduces them to three verdicts:
//!
//! * **correctness** — every run returned its variant's expected digest;
//! * **server_oblivious** — no server-observable fingerprint moved when
//!   the client's secrets changed;
//! * **fault_masked** — no party's fingerprint (client included) moved
//!   under a masked-drop schedule at either audit seed.
//!
//! [`audit_json`] renders the sweep as the `spfe-audit/v1` document that
//! `BENCH_audit.json` stores; [`parse_audit`] reads it back and
//! [`compare_audits`] diffs a fresh sweep against the committed baseline —
//! the CI gate, in the mold of the `trend` cost gate.

use spfe::harness::{Driver, NUM_VARIANTS};
use spfe::obs::audit::{deterministic_ops, PartyView};
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel};
use spfe_obs::json::{self, escape, Json};

/// Schema tag of the audit document.
pub const AUDIT_SCHEMA: &str = "spfe-audit/v1";

/// The two fixed masked-drop fault seeds every audit sweeps. CI reruns
/// the whole gate under different `SPFE_THREADS` settings instead of
/// different seeds: the thread axis is outside the process's control.
pub const AUDIT_SEEDS: [u64; 2] = [11, 77];

/// Per-mille drop rate of the masked fault plans (mirrors the
/// fault-determinism suite).
const DROP_PER_MILLE: u32 = 300;

/// Experiment ids mapped to the drivers whose protocols they exercise, so
/// `spfe-tables audit e1` audits the Table 1 constructions and CI can
/// upload per-experiment artifacts.
pub const AUDIT_GROUPS: &[(&str, &[&str])] = &[
    ("e1", &["hom_pir", "spir", "psm_spfe", "two_phase"]),
    ("e2", &["xor2", "poly_it", "multiserver"]),
    ("e3", &["psm_spfe"]),
    ("e4", &["input_select"]),
    ("e6", &["weighted_sum"]),
    ("e7", &["two_phase", "weighted_sum"]),
    ("e8", &["frequency"]),
    ("e9", &["hom_pir"]),
    ("e10", &["batched", "spir"]),
    ("e11", &["recursive", "hom_pir"]),
    ("e12", &["spir", "universal"]),
];

/// One party's entry in an audit report: the canonical (variant 0,
/// honest) view reduced to its fingerprint and byte breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartyReport {
    /// `client`, `server0`, `server1`, …
    pub party: String,
    /// Lowercase-hex `spfe-view/v1` fingerprint.
    pub fingerprint: String,
    /// Messages the party observed.
    pub events: u64,
    /// Bytes the party sent.
    pub sent_bytes: u64,
    /// Bytes the party received.
    pub recv_bytes: u64,
    /// Per-label byte totals in first-use order.
    pub labels: Vec<(String, u64)>,
}

/// The audit result for one driver.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Driver name from the harness table.
    pub driver: String,
    /// Number of servers the protocol runs against.
    pub servers: usize,
    /// Every run returned its variant's expected digest.
    pub correctness: bool,
    /// Server fingerprints are bit-identical across secret variants.
    pub server_oblivious: bool,
    /// Every fingerprint is bit-identical across masked fault seeds.
    pub fault_masked: bool,
    /// Human-readable descriptions of every divergence found.
    pub divergences: Vec<String>,
    /// Canonical per-party views (variant 0, honest plan).
    pub parties: Vec<PartyReport>,
}

impl AuditReport {
    /// The overall verdict.
    pub fn ok(&self) -> bool {
        self.correctness && self.server_oblivious && self.fault_masked
    }
}

/// Runs driver `d` at secret variant `v` under `plan`; returns the digest
/// and the per-party views with the deterministic op vector folded into
/// the client's view. Op counters are process-global: callers must not
/// run audits concurrently.
fn views_under(d: &Driver, v: usize, plan: FaultPlan) -> (Result<u64, String>, Vec<PartyView>) {
    // Warm the lazily generated crypto fixture first: the very first run
    // in a process would otherwise count the one-off keygen modexps into
    // its op vector and diverge from every later run.
    let _ = spfe::harness::fx();
    spfe_obs::reset();
    let mut ch = FaultyChannel::new(d.servers, plan, 0);
    let got = (d.run_variant)(&mut ch, v).map_err(|e| e.to_string());
    let mut views = ch.inner().party_views();
    views[0].ops = deterministic_ops(&spfe_obs::ops_snapshot());
    (got, views)
}

fn fingerprints(views: &[PartyView]) -> Vec<String> {
    views.iter().map(|pv| pv.fingerprint_hex()).collect()
}

/// The differential sweep for one driver: [`NUM_VARIANTS`] secret
/// variants × (honest + [`AUDIT_SEEDS`] masked-drop plans).
pub fn audit_driver(d: &Driver) -> AuditReport {
    let mut divergences = Vec::new();
    let mut correctness = true;
    let mut server_oblivious = true;
    let mut fault_masked = true;
    let mut canonical: Vec<PartyReport> = Vec::new();
    let mut server_baseline: Option<Vec<String>> = None;

    for v in 0..NUM_VARIANTS {
        let expect = (d.expect_variant)(v);
        let (got, honest_views) = views_under(d, v, FaultPlan::honest());
        match got {
            Ok(val) if val == expect => {}
            Ok(val) => {
                correctness = false;
                divergences.push(format!("v{v}/honest: digest {val} != expected {expect}"));
            }
            Err(e) => {
                correctness = false;
                divergences.push(format!("v{v}/honest: failed: {e}"));
            }
        }
        let honest_fps = fingerprints(&honest_views);

        if v == 0 {
            canonical = honest_views
                .iter()
                .map(|pv| {
                    let (sent_bytes, recv_bytes) = pv.byte_totals();
                    PartyReport {
                        party: pv.party.name(),
                        fingerprint: pv.fingerprint_hex(),
                        events: pv.events.len() as u64,
                        sent_bytes,
                        recv_bytes,
                        labels: pv.bytes_by_label(),
                    }
                })
                .collect();
        }

        // The gate itself: server views must not move with the secrets.
        // (The client's view legitimately varies — it knows its secrets.)
        let server_fps: Vec<String> = honest_fps[1..].to_vec();
        match &server_baseline {
            None => server_baseline = Some(server_fps),
            Some(base) => {
                for (i, (a, b)) in base.iter().zip(&server_fps).enumerate() {
                    if a != b {
                        server_oblivious = false;
                        divergences.push(format!(
                            "v{v}: server{i} fingerprint moved with the secrets"
                        ));
                    }
                }
            }
        }

        // Masked drops must leave every party's fingerprint untouched.
        for seed in AUDIT_SEEDS {
            let plan = FaultPlan::with_rate(seed, FaultAction::Drop, DROP_PER_MILLE);
            let (got, faulty_views) = views_under(d, v, plan);
            match got {
                Ok(val) if val == expect => {}
                Ok(val) => {
                    correctness = false;
                    divergences.push(format!("v{v}/seed{seed}: digest {val} != {expect}"));
                }
                Err(e) => {
                    correctness = false;
                    divergences.push(format!("v{v}/seed{seed}: failed: {e}"));
                }
            }
            let faulty_fps = fingerprints(&faulty_views);
            for (i, (a, b)) in honest_fps.iter().zip(&faulty_fps).enumerate() {
                if a != b {
                    fault_masked = false;
                    let who = if i == 0 {
                        "client".to_owned()
                    } else {
                        format!("server{}", i - 1)
                    };
                    divergences.push(format!(
                        "v{v}/seed{seed}: {who} fingerprint moved under masked drops"
                    ));
                }
            }
        }
    }

    AuditReport {
        driver: d.name.to_owned(),
        servers: d.servers,
        correctness,
        server_oblivious,
        fault_masked,
        divergences,
        parties: canonical,
    }
}

/// Renders a sweep as the `spfe-audit/v1` JSON document.
pub fn audit_json(threads: usize, reports: &[AuditReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{AUDIT_SCHEMA}\",\n"));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"variants\": {NUM_VARIANTS},\n"));
    s.push_str(&format!(
        "  \"fault_seeds\": [{}],\n",
        AUDIT_SEEDS.map(|x| x.to_string()).join(", ")
    ));
    s.push_str("  \"reports\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\n");
        s.push_str(&format!("      \"driver\": \"{}\",\n", escape(&r.driver)));
        s.push_str(&format!("      \"servers\": {},\n", r.servers));
        s.push_str(&format!(
            "      \"verdict\": \"{}\",\n",
            if r.ok() { "ok" } else { "leak" }
        ));
        s.push_str(&format!("      \"correctness\": {},\n", r.correctness));
        s.push_str(&format!(
            "      \"server_oblivious\": {},\n",
            r.server_oblivious
        ));
        s.push_str(&format!("      \"fault_masked\": {},\n", r.fault_masked));
        s.push_str("      \"divergences\": [");
        for (j, d) in r.divergences.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", escape(d)));
        }
        s.push_str("],\n");
        s.push_str("      \"parties\": [");
        for (j, p) in r.parties.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n        {{\"party\": \"{}\", \"fingerprint\": \"{}\", \"events\": {}, \
                 \"sent_bytes\": {}, \"recv_bytes\": {}, \"labels\": [",
                escape(&p.party),
                escape(&p.fingerprint),
                p.events,
                p.sent_bytes,
                p.recv_bytes
            ));
            for (k, (label, bytes)) in p.labels.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"label\": \"{}\", \"bytes\": {bytes}}}",
                    escape(label)
                ));
            }
            s.push_str("]}");
        }
        s.push_str("\n      ]\n    }");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// A parsed `spfe-audit/v1` document (the baseline side of the gate).
#[derive(Debug, Clone)]
pub struct AuditDoc {
    /// `threads` the document was recorded at (informational: fingerprints
    /// must be thread-independent, so the gate ignores it).
    pub threads: u64,
    /// Variants swept.
    pub variants: u64,
    /// Fault seeds swept.
    pub seeds: Vec<u64>,
    /// Per-driver summaries.
    pub reports: Vec<ParsedReport>,
}

/// One driver's entry of a parsed audit document.
#[derive(Debug, Clone)]
pub struct ParsedReport {
    /// Driver name.
    pub driver: String,
    /// Overall verdict was `ok`.
    pub ok: bool,
    /// `(party, fingerprint)` pairs in document order.
    pub parties: Vec<(String, String)>,
}

fn field<'j>(j: &'j Json, key: &str, ctx: &str) -> Result<&'j Json, String> {
    j.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

/// Parses and structurally validates an `spfe-audit/v1` document.
pub fn parse_audit(src: &str) -> Result<AuditDoc, String> {
    let root = json::parse(src)?;
    let schema = field(&root, "schema", "root")?
        .as_str()
        .ok_or("`schema` is not a string")?;
    if schema != AUDIT_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{AUDIT_SCHEMA}`"));
    }
    let threads = field(&root, "threads", "root")?
        .as_u64()
        .ok_or("`threads` is not a number")?;
    let variants = field(&root, "variants", "root")?
        .as_u64()
        .ok_or("`variants` is not a number")?;
    let seeds = field(&root, "fault_seeds", "root")?
        .as_arr()
        .ok_or("`fault_seeds` is not an array")?
        .iter()
        .map(|s| s.as_u64().ok_or_else(|| "bad fault seed".to_owned()))
        .collect::<Result<Vec<_>, _>>()?;
    let raw = field(&root, "reports", "root")?
        .as_arr()
        .ok_or("`reports` is not an array")?;
    if raw.is_empty() {
        return Err("empty `reports` array".into());
    }
    let mut reports = Vec::with_capacity(raw.len());
    for r in raw {
        let driver = field(r, "driver", "report")?
            .as_str()
            .ok_or("`driver` is not a string")?
            .to_owned();
        let ctx = format!("report `{driver}`");
        let verdict = field(r, "verdict", &ctx)?
            .as_str()
            .ok_or("`verdict` is not a string")?;
        if verdict != "ok" && verdict != "leak" {
            return Err(format!("{ctx}: unknown verdict `{verdict}`"));
        }
        let mut parties = Vec::new();
        for p in field(r, "parties", &ctx)?
            .as_arr()
            .ok_or("`parties` is not an array")?
        {
            let party = field(p, "party", &ctx)?
                .as_str()
                .ok_or("`party` is not a string")?
                .to_owned();
            let fp = field(p, "fingerprint", &ctx)?
                .as_str()
                .ok_or("`fingerprint` is not a string")?;
            if fp.len() != 64 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{ctx}/{party}: fingerprint is not 64 hex chars"));
            }
            parties.push((party, fp.to_owned()));
        }
        if parties.is_empty() {
            return Err(format!("{ctx}: no parties"));
        }
        reports.push(ParsedReport {
            driver,
            ok: verdict == "ok",
            parties,
        });
    }
    Ok(AuditDoc {
        threads,
        variants,
        seeds,
        reports,
    })
}

/// Diffs a fresh sweep against the committed baseline. Empty result =
/// gate passes. The `threads` axis is deliberately ignored: CI runs the
/// same gate at several `SPFE_THREADS` settings against one baseline.
pub fn compare_audits(baseline: &AuditDoc, current: &[AuditReport]) -> Vec<String> {
    let mut diffs = Vec::new();
    for cur in current {
        if !cur.ok() {
            for d in &cur.divergences {
                diffs.push(format!("{}: {d}", cur.driver));
            }
            if cur.divergences.is_empty() {
                diffs.push(format!("{}: verdict is not ok", cur.driver));
            }
        }
        let Some(base) = baseline.reports.iter().find(|b| b.driver == cur.driver) else {
            diffs.push(format!("{}: missing from the baseline", cur.driver));
            continue;
        };
        if !base.ok {
            diffs.push(format!("{}: baseline verdict is not ok", cur.driver));
        }
        for p in &cur.parties {
            match base.parties.iter().find(|(name, _)| *name == p.party) {
                None => diffs.push(format!(
                    "{}/{}: missing from the baseline",
                    cur.driver, p.party
                )),
                Some((_, fp)) if *fp != p.fingerprint => diffs.push(format!(
                    "{}/{}: fingerprint {}… != baseline {}…",
                    cur.driver,
                    p.party,
                    &p.fingerprint[..12],
                    &fp[..12]
                )),
                Some(_) => {}
            }
        }
        if base.parties.len() != cur.parties.len() {
            diffs.push(format!(
                "{}: {} parties vs {} in the baseline",
                cur.driver,
                cur.parties.len(),
                base.parties.len()
            ));
        }
    }
    for base in &baseline.reports {
        if !current.iter().any(|c| c.driver == base.driver) {
            diffs.push(format!("{}: in the baseline but not audited", base.driver));
        }
    }
    diffs
}

/// What kind of document a `spfe-tables validate` input turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// A cost-report suite at schema version 1–3.
    Cost(u32),
    /// An `spfe-audit/v1` leakage-audit document.
    Audit,
    /// An `spfe-metrics/v1` operational-telemetry snapshot.
    Metrics,
}

/// Validates one document of any family — cost suite (v1/v2/v3), audit,
/// or metrics snapshot — dispatching on the `schema` field. Returns the
/// human summary line (without the path prefix) and the detected kind.
pub fn validate_doc(src: &str) -> Result<(String, DocKind), String> {
    let schema = json::parse(src)?
        .get("schema")
        .and_then(|s| s.as_str().map(str::to_owned))
        .ok_or("missing `schema` field")?;
    if schema == spfe_obs::metrics::METRICS_SCHEMA {
        let snap = spfe_obs::metrics::parse_snapshot(src)?;
        return Ok((
            format!(
                "valid {} — {} session(s) ({} failed), {} driver row(s), {} byte(s)",
                spfe_obs::metrics::METRICS_SCHEMA,
                snap.sessions_opened,
                snap.sessions_failed(),
                snap.drivers.len(),
                snap.bytes_total()
            ),
            DocKind::Metrics,
        ));
    }
    if schema == AUDIT_SCHEMA {
        let doc = parse_audit(src)?;
        let leaks: Vec<&str> = doc
            .reports
            .iter()
            .filter(|r| !r.ok)
            .map(|r| r.driver.as_str())
            .collect();
        if !leaks.is_empty() {
            return Err(format!("audit verdict `leak` for: {}", leaks.join(", ")));
        }
        return Ok((
            format!(
                "valid {AUDIT_SCHEMA} — {} driver(s), {} variant(s), {} seed(s), all verdicts ok",
                doc.reports.len(),
                doc.variants,
                doc.seeds.len()
            ),
            DocKind::Audit,
        ));
    }
    let suite = spfe_obs::parse_suite(src)?;
    if suite.reports.is_empty() {
        return Err("empty `reports` array".into());
    }
    let modexps: u64 = suite
        .reports
        .iter()
        .map(|r| r.op_count(spfe_obs::Op::Modexp))
        .sum();
    if modexps == 0 {
        return Err("no nonzero `modexp` counter in any report".into());
    }
    Ok((
        format!(
            "valid {} — {} report(s), {modexps} modexps, threads={}",
            suite.schema(),
            suite.reports.len(),
            suite.threads
        ),
        DocKind::Cost(suite.version),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(fp_seed: u8) -> AuditReport {
        let fp = |tag: u8| spfe::obs::audit::to_hex(&spfe::obs::audit::sha256(&[tag, fp_seed]));
        AuditReport {
            driver: "xor2".into(),
            servers: 2,
            correctness: true,
            server_oblivious: true,
            fault_masked: true,
            divergences: vec![],
            parties: vec![
                PartyReport {
                    party: "client".into(),
                    fingerprint: fp(0),
                    events: 4,
                    sent_bytes: 100,
                    recv_bytes: 40,
                    labels: vec![("q".into(), 100), ("a".into(), 40)],
                },
                PartyReport {
                    party: "server0".into(),
                    fingerprint: fp(1),
                    events: 2,
                    sent_bytes: 20,
                    recv_bytes: 50,
                    labels: vec![("q".into(), 50), ("a".into(), 20)],
                },
                PartyReport {
                    party: "server1".into(),
                    fingerprint: fp(2),
                    events: 2,
                    sent_bytes: 20,
                    recv_bytes: 50,
                    labels: vec![("q".into(), 50), ("a".into(), 20)],
                },
            ],
        }
    }

    #[test]
    fn audit_json_roundtrips_through_parse_audit() {
        let reports = [sample_report(7)];
        let doc = parse_audit(&audit_json(4, &reports)).expect("roundtrip");
        assert_eq!(doc.threads, 4);
        assert_eq!(doc.variants, NUM_VARIANTS as u64);
        assert_eq!(doc.seeds, AUDIT_SEEDS.to_vec());
        assert_eq!(doc.reports.len(), 1);
        assert!(doc.reports[0].ok);
        assert_eq!(doc.reports[0].parties.len(), 3);
        assert_eq!(doc.reports[0].parties[0].0, "client");
        assert_eq!(
            doc.reports[0].parties[1].1,
            reports[0].parties[1].fingerprint
        );
    }

    #[test]
    fn compare_detects_fingerprint_drift_and_missing_drivers() {
        let base = parse_audit(&audit_json(1, &[sample_report(7)])).unwrap();
        assert!(compare_audits(&base, &[sample_report(7)]).is_empty());

        // A different fingerprint set against the same baseline.
        let drifted = compare_audits(&base, &[sample_report(8)]);
        assert!(
            drifted.iter().any(|d| d.contains("fingerprint")),
            "{drifted:?}"
        );

        // A driver the baseline never saw.
        let mut renamed = sample_report(7);
        renamed.driver = "novel".into();
        let diffs = compare_audits(&base, &[renamed]);
        assert!(diffs
            .iter()
            .any(|d| d.contains("missing from the baseline")));
        assert!(diffs.iter().any(|d| d.contains("not audited")));
    }

    #[test]
    fn compare_flags_leak_verdicts_on_either_side() {
        let mut leaky = sample_report(7);
        leaky.server_oblivious = false;
        leaky.divergences.push("v1: server0 moved".into());
        let base = parse_audit(&audit_json(1, &[sample_report(7)])).unwrap();
        let diffs = compare_audits(&base, &[leaky.clone()]);
        assert!(diffs.iter().any(|d| d.contains("server0 moved")));

        let leaky_base = parse_audit(&audit_json(1, &[leaky])).unwrap();
        let diffs = compare_audits(&leaky_base, &[sample_report(7)]);
        assert!(diffs.iter().any(|d| d.contains("baseline verdict")));
    }

    /// A minimal but complete v1 cost suite (mirrors the fixture the
    /// `spfe-obs` suite tests pin).
    const COST_V1_DOC: &str = r#"{
      "schema": "spfe-cost-report/v1",
      "threads": 1,
      "reports": [
        {"experiment":"e1","protocol":"p","elapsed_ns":9,
         "spans":[{"path":"s","calls":1,"ns":7}],
         "ops":[{"name":"modexp","count":3,"deterministic":true}],
         "comm":{"up_bytes":1,"down_bytes":2,"messages":1,"half_rounds":1,
                 "labels":[{"label":"q","up_bytes":1,"up_msgs":1,"down_bytes":0,"down_msgs":0}]}}
      ]
    }"#;

    #[test]
    fn validate_doc_classifies_mixed_schema_files() {
        let audit = audit_json(1, &[sample_report(3)]);
        let (summary, kind) = validate_doc(&audit).expect("audit doc");
        assert_eq!(kind, DocKind::Audit);
        assert!(summary.contains("spfe-audit/v1"));
        assert!(validate_doc("{\"schema\": \"spfe-audit/v1\", \"threads\": 1}").is_err());
        assert!(validate_doc("{\"threads\": 1}").is_err());

        // A mixed batch — an audit doc and a metrics snapshot between
        // cost suites of different versions — classifies file-by-file,
        // the tally `validate` prints: v1=1 v3=1 audit=1 metrics=1.
        let cost_v3 = spfe_obs::suite_json(
            2,
            &[spfe_obs::CostReport {
                experiment: "e1".into(),
                protocol: "spir".into(),
                ops: vec![spfe_obs::OpStat {
                    op: spfe_obs::Op::Modexp,
                    count: 17,
                }],
                ..Default::default()
            }],
        );
        let registry = spfe_obs::metrics::Metrics::new();
        registry.session_opened();
        registry.session_closed(
            "xor2",
            "relay",
            Ok(()),
            spfe_obs::metrics::SessionUsage {
                bytes_in: 64,
                bytes_out: 32,
                ..Default::default()
            },
        );
        let metrics_doc = registry.snapshot().to_json();
        let (summary, kind) = validate_doc(&metrics_doc).expect("metrics doc");
        assert_eq!(kind, DocKind::Metrics);
        assert!(summary.contains("spfe-metrics/v1"));
        let mut audits = 0usize;
        let mut metrics = 0usize;
        let mut by_version = [0usize; 3];
        for doc in [
            COST_V1_DOC,
            audit.as_str(),
            cost_v3.as_str(),
            metrics_doc.as_str(),
        ] {
            let (_, kind) = validate_doc(doc).expect("each mixed file is valid");
            match kind {
                DocKind::Audit => audits += 1,
                DocKind::Metrics => metrics += 1,
                DocKind::Cost(v) => by_version[v as usize - 1] += 1,
            }
        }
        assert_eq!(audits, 1);
        assert_eq!(metrics, 1);
        assert_eq!(by_version, [1, 0, 1]);
    }

    #[test]
    fn audit_verdict_leak_fails_validation() {
        let mut leaky = sample_report(7);
        leaky.fault_masked = false;
        let doc = audit_json(1, &[leaky]);
        let err = validate_doc(&doc).unwrap_err();
        assert!(err.contains("leak"), "{err}");
    }
}
