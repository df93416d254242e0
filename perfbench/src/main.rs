//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <svc-compute|hom-scan|ms-sum> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Measures client-observed SPFE sessions through the system's public entry
//! points only: TCP sessions through `spfe_net::Server::bind` and
//! `spfe_net::run_driver`, in-process sessions through
//! `spfe_transport::pump`, kernel unit costs through direct calls into
//! `spfe-crypto`, `spfe-math` and `spfe-circuits`. Every answer is checked.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload again with the benchmark's own spans on and reports the
//! per-layer metrics, writing the spans to
//! `<target>/perfbench-out/trace-<workload>-<seed>.json` at exit. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed session,
//! wrong answer, disagreeing tally, failed reconciliation, or deterministic
//! metric that differs from an earlier same-seed run of the same source
//! tree makes it exit with code 1.

mod calib;
mod env;
mod inproc;
mod inputs;
mod kernels;
mod layers;
mod run;
mod stats;
mod svc;
mod trace;

use run::{Config, Report};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <svc-compute|hom-scan|ms-sum> --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["svc-compute", "hom-scan", "ms-sum"];

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad("out of range 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// Runs one workload and returns its report (metrics for the run's mode).
fn execute(
    workload: &str,
    cfg: &Config,
    env: &env::Env,
    tracer: &std::sync::Arc<Tracer>,
) -> Report {
    let mut report = Report::default();
    let (key, db) = match workload {
        "svc-compute" => {
            svc::run(cfg, tracer, &mut report);
            (None, None)
        }
        "hom-scan" => {
            let p = inproc::run_hom_scan(cfg, tracer, &mut report);
            (Some((p.pk, p.sk)), None)
        }
        "ms-sum" => (None, Some(inproc::run_ms_sum(cfg, tracer, &mut report).db)),
        other => unreachable!("workload {other} passed argument checks"),
    };
    if cfg.trace {
        // Kernel unit costs at the hom-scan key size and over an ms-sum
        // database, whichever workload ran.
        let (pk, sk) = key.unwrap_or_else(inproc::hom_key);
        let db =
            db.unwrap_or_else(|| inputs::database(cfg.seed, inproc::MS_N, inproc::VALUE_BOUND));
        let params = inproc::ms_params();
        let k = params.num_servers();
        let costs = kernels::measure(&pk, &sk, &db, params.field, k, tracer);
        layers::ledger(&mut report, &costs, k, inproc::MS_M, env.threads);
    }
    report
}

/// The metrics this run must report, with units, in report order.
fn catalog(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        run::per_layer_catalog()
    } else {
        run::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, cfg } = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = env::Env::probe();
    println!(
        "env workload={workload} seed={} seconds={} trace={} nproc={} threads={} SPFE_THREADS={} features=default(obs on, obs-alloc {}) commit={} tree={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        env.nproc,
        env.threads,
        env.spfe_threads_env.as_deref().unwrap_or("unset"),
        if env.obs_alloc { "on" } else { "off" },
        env.commit.as_deref().unwrap_or("unknown"),
        env.tree,
    );
    let tracer = Tracer::new(cfg.trace);
    let mut report = execute(&workload, &cfg, &env, &tracer);
    for line in &report.notes {
        println!("{line}");
    }

    let mut metrics = Vec::new();
    for (name, unit) in catalog(cfg.trace) {
        let mut value = report.metrics.get(&name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!cfg.trace && !report.metrics.contains_key(&name)) {
            report.problems.push(format!("metric {name} = {value}"));
            value = 0.0;
        }
        println!("metric {name} {value} {unit}");
        metrics.push((name, value, unit));
    }

    let deterministic: Vec<(String, f64)> = metrics
        .iter()
        .filter(|(n, _, _)| {
            if cfg.trace {
                run::is_deterministic_layer(n)
            } else {
                n == "comm_bytes_per_request"
            }
        })
        .map(|(n, v, _)| (n.clone(), *v))
        .collect();
    let out = env::out_dir();
    let key = format!(
        "{}-{workload}-{}-t{}",
        env.tree,
        cfg.seed,
        u8::from(cfg.trace)
    );
    match env::check_deterministic(&out, &key, &deterministic) {
        Ok(diff) if diff.is_empty() => {}
        Ok(diff) => report.problems.push(format!(
            "deterministic metrics differ from an earlier run with seed {}: {}",
            cfg.seed,
            diff.join(", ")
        )),
        Err(e) => report.problems.push(format!("determinism record: {e}")),
    }
    if cfg.trace {
        let path = out.join(format!("trace-{workload}-{}.json", cfg.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => report
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    for p in &report.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Op counters are process-wide: workload runs must not overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(workload: &str, seed: u64, trace: bool) -> Report {
        let _guard = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cfg = Config {
            seed,
            seconds: 0.0,
            trace,
        };
        let tracer = Tracer::new(trace);
        let report = execute(workload, &cfg, &env::Env::probe(), &tracer);
        assert!(
            report.problems.is_empty(),
            "{workload}: {:?}",
            report.problems
        );
        assert_eq!(report.failed, 0, "{workload}");
        assert!(report.attempted > 0, "{workload}");
        for (name, _) in catalog(trace) {
            let v = report.metrics.get(&name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            if !trace {
                assert!(v > 0.0, "{workload}: {name} = {v}");
            }
        }
        report
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&args("--workload ms-sum --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(a.workload, "ms-sum");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 2.5, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload ms-sum --seed x --seconds 1 --trace 0",
            "--workload ms-sum --seed 1 --seconds 1 --trace 2",
            "--workload ms-sum --seed 1 --seconds 1",
            "--workload ms-sum --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let mut expected: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
        expected.extend(catalog(false).into_iter().map(|(n, _)| n));
        expected.extend(catalog(true).into_iter().map(|(n, _)| n));
        assert_eq!(names, expected);
        for (name, unit) in catalog(false).into_iter().chain(catalog(true)) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }

    /// Two same-seed runs must agree on every deterministic metric.
    fn same_deterministic_metrics(a: &Report, b: &Report, trace: bool) {
        for (name, _) in catalog(trace) {
            if run::is_deterministic_layer(&name) || name == "comm_bytes_per_request" {
                assert_eq!(a.metrics.get(&name), b.metrics.get(&name), "{name}");
            }
        }
    }

    #[test]
    fn smoke_svc_compute_and_same_seed_repeats_deterministic_metrics() {
        for trace in [false, true] {
            let a = smoke("svc-compute", 11, trace);
            let b = smoke("svc-compute", 11, trace);
            same_deterministic_metrics(&a, &b, trace);
        }
    }

    #[test]
    fn smoke_hom_scan() {
        smoke("hom-scan", 12, false);
        smoke("hom-scan", 12, true);
    }

    #[test]
    fn smoke_ms_sum() {
        smoke("ms-sum", 13, false);
        smoke("ms-sum", 13, true);
    }
}
