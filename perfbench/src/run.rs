//! The closed request loop and the report every workload fills in.

use crate::calib::{normalise, process_cpu_ms, Cost, Probe};
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload seed (inputs and order only).
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one request did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Sessions attempted.
    pub sessions: u64,
    /// Sessions that failed: an error, a timeout, or a wrong answer.
    pub failed: u64,
    /// Client-transcript payload bytes, up plus down.
    pub comm_bytes: u64,
    /// The first failure, described.
    pub error: Option<String>,
}

impl Outcome {
    /// Records one failed session.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.error.get_or_insert(why);
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Wall-clock request latencies in ms, in completion order per client.
    pub latencies_ms: Vec<f64>,
    /// What each request cost, when the loop was probed.
    pub costs: Vec<Cost>,
    /// Process CPU time over the loop, less the probes', ms.
    pub cpu_ms: f64,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests completed.
    pub requests: u64,
    /// Sessions attempted.
    pub sessions: u64,
    /// Sessions failed.
    pub failed: u64,
    /// Client-transcript bytes over all requests.
    pub comm_bytes: u64,
    /// Wall time from the first request's start to the last one's end.
    pub wall_s: f64,
    /// Failure descriptions.
    pub errors: Vec<String>,
}

impl LoopResult {
    /// CPU time per request at the nominal host speed, ms, or `None` for
    /// an unprobed loop. With one client nothing else runs during a
    /// request, so it is the median over requests of each one's process CPU
    /// time scaled by its own probe. With more, requests overlap: it is the
    /// loop's process CPU time (client and server threads alike, less the
    /// probes') over the requests, scaled by the median probe.
    pub fn nominal_cpu_ms(&self) -> Option<f64> {
        if self.costs.is_empty() {
            return None;
        }
        if self.clients == 1 {
            let per_request: Vec<f64> = self.costs.iter().map(Cost::nominal_cpu_ms).collect();
            return Some(median(&per_request));
        }
        let probes: Vec<f64> = self.costs.iter().map(|c| c.probe_ms).collect();
        Some(normalise(
            self.cpu_ms / self.requests as f64,
            median(&probes),
        ))
    }
}

/// A request: `(request number, tracer) → outcome`. Request `j` uses input
/// `j mod` the workload's input count.
pub type RequestFn<'a> = dyn Fn(u64, &Arc<Tracer>) -> Outcome + Sync + 'a;

/// Runs `clients` closed-loop clients — each sends its next request only
/// when the previous one completed — for `seconds`, and at least until
/// request numbers `first..first + min_requests` have all been issued. A
/// failure stops every client after its current request. With a `probe`,
/// each request is preceded by one and its cost recorded.
pub fn closed_loop(
    clients: usize,
    seconds: f64,
    first: u64,
    min_requests: u64,
    tracer: &Arc<Tracer>,
    probe: Option<&Probe>,
    request: &RequestFn<'_>,
) -> LoopResult {
    let next = AtomicU64::new(first);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let cpu0 = process_cpu_ms();
    let deadline = start + Duration::from_secs_f64(seconds);
    let total = Mutex::new(LoopResult::default());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed)
                    || (j >= first + min_requests && Instant::now() >= deadline)
                {
                    break;
                }
                let t = Instant::now();
                let (out, cost) = match probe {
                    Some(p) => {
                        let (out, cost) = p.measure(|| request(j, tracer));
                        (out, Some(cost))
                    }
                    None => (request(j, tracer), None),
                };
                let mut r = total.lock().expect("loop totals poisoned");
                r.requests += 1;
                r.sessions += out.sessions;
                r.failed += out.failed;
                r.comm_bytes += out.comm_bytes;
                if let Some(e) = out.error {
                    r.errors.push(e);
                    stop.store(true, Ordering::Relaxed);
                }
                if let Some(c) = cost {
                    r.costs.push(c);
                }
                r.latencies_ms
                    .push(cost.map_or_else(|| t.elapsed().as_secs_f64() * 1e3, |c| c.wall_ms));
            });
        }
    });
    let mut r = total.into_inner().expect("loop totals poisoned");
    r.wall_s = start.elapsed().as_secs_f64();
    r.clients = clients;
    r.cpu_ms = process_cpu_ms() - cpu0 - r.costs.iter().map(|c| c.probe_cpu_ms).sum::<f64>();
    r
}

/// Remembers a value per input and flags a repeat that differs: the same
/// input must give the same transcript size every time.
#[derive(Debug)]
pub struct Repeats(Mutex<Vec<Option<u64>>>);

impl Repeats {
    /// A record for `inputs` distinct inputs.
    pub fn new(inputs: usize) -> Repeats {
        Repeats(Mutex::new(vec![None; inputs]))
    }

    /// Records `value` for `input`; an error if an earlier run of the same
    /// input recorded something else.
    pub fn check(&self, input: usize, value: u64) -> Result<(), String> {
        let mut seen = self.0.lock().expect("repeat record poisoned");
        match seen[input] {
            Some(v) if v != value => Err(format!(
                "input {input} gave {value} transcript bytes, earlier {v}"
            )),
            _ => {
                seen[input] = Some(value);
                Ok(())
            }
        }
    }

    /// The mean over inputs seen so far (all of them, once the loop ran
    /// every input at least once).
    pub fn mean(&self) -> f64 {
        let seen = self.0.lock().expect("repeat record poisoned");
        let vals: Vec<u64> = seen.iter().flatten().copied().collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    }
}

/// What each timed set-up cost.
#[derive(Debug, Default)]
pub struct Setups(pub Vec<Cost>);

impl Setups {
    /// Runs `setup` once untimed — the process's first set-up pays for cold
    /// caches and page faults that later ones do not — then `reps` times,
    /// each measured next to `probe`. Returns the last result with the
    /// costs.
    pub fn time<T>(probe: &Probe, reps: usize, setup: impl Fn() -> T) -> (T, Setups) {
        let mut last = setup();
        let mut costs = Vec::new();
        for _ in 0..reps {
            let (v, cost) = probe.measure(&setup);
            costs.push(cost);
            last = v;
        }
        (last, Setups(costs))
    }

    /// The median set-up CPU time at the nominal host speed, s.
    pub fn nominal_cpu_s(&self) -> f64 {
        let s: Vec<f64> = self.0.iter().map(|c| c.nominal_cpu_ms() / 1e3).collect();
        median(&s)
    }
}

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_ms_per_request", "ms"),
    ("comm_bytes_per_request", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with units, in report order. A workload that
/// does not reach a layer reports 0 for it.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let drivers: Vec<&str> = spfe::harness::drivers().iter().map(|d| d.name).collect();
    let mut out = vec![
        ("wall.latency_p50_ms".to_owned(), "ms"),
        ("wall.sessions_per_s".to_owned(), "1/s"),
    ];
    for d in &drivers {
        out.push((format!("net.session_ms.{d}"), "ms"));
    }
    for d in &drivers {
        out.push((format!("net.overhead_ms.{d}"), "ms"));
    }
    let fixed: [(&str, &'static str); 27] = [
        ("net.server_frames_per_request", "count"),
        ("net.server_failed", "count"),
        ("transport.pump_overhead_ms", "ms"),
        ("transport.codec_us_per_request", "us"),
        ("pir.hom_pir.query_gen_ms", "ms"),
        ("pir.hom_pir.server_ms", "ms"),
        ("pir.hom_pir.decode_ms", "ms"),
        ("core.multiserver.query_gen_ms", "ms"),
        ("core.multiserver.server_ms", "ms"),
        ("core.multiserver.reconstruct_ms", "ms"),
        ("crypto.paillier.encrypt_us", "us"),
        ("crypto.paillier.decrypt_us", "us"),
        ("crypto.paillier.add_us", "us"),
        ("crypto.paillier.mul_const_us", "us"),
        ("crypto.explained_ratio", "ratio"),
        ("math.montgomery.pow_us", "us"),
        ("math.poly.interpolate_at_us", "us"),
        ("circuits.selector_eval_ms", "ms"),
        ("core.explained_ratio", "ratio"),
        ("ops.modexp", "count"),
        ("ops.paillier_encrypt", "count"),
        ("ops.paillier_decrypt", "count"),
        ("ops.hom_add", "count"),
        ("ops.hom_scalar_mul", "count"),
        ("ops.ot2_transfer", "count"),
        ("ops.pir_words_scanned", "count"),
        ("obs.trace_overhead_ratio", "ratio"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// The per-layer metrics that must repeat exactly for a given seed.
pub fn is_deterministic_layer(name: &str) -> bool {
    name.starts_with("ops.") || name == "net.server_frames_per_request"
}

/// A workload's result: metrics by name, the session tally, and notes for
/// the human-readable part of the output.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name (end-to-end or per-layer, by run mode).
    pub metrics: BTreeMap<String, f64>,
    /// Sessions attempted in the measured loops.
    pub attempted: u64,
    /// Sessions failed in the measured loops.
    pub failed: u64,
    /// Correctness failures found (wrong answers, mismatched tallies,
    /// failed reconciliation).
    pub problems: Vec<String>,
    /// Lines printed before the result: environment, bases, checks.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Folds a measured loop into the session tally and problem list.
    pub fn tally(&mut self, r: &LoopResult) {
        self.attempted += r.sessions;
        self.failed += r.failed;
        self.problems.extend(r.errors.iter().cloned());
    }

    /// Sets the wall-clock metrics of a measured loop: median request
    /// latency and completed sessions per second.
    pub fn wall(&mut self, r: &LoopResult) {
        self.set("wall.latency_p50_ms", median(&r.latencies_ms));
        self.set(
            "wall.sessions_per_s",
            (r.sessions - r.failed) as f64 / r.wall_s,
        );
    }

    /// Sets the end-to-end metrics a probed loop and the timed set-ups
    /// give, and notes the wall-clock latency, its tail and the failure
    /// ratio next to them.
    pub fn end_to_end(&mut self, r: &LoopResult, setup: &Setups) {
        self.set("setup_s", setup.nominal_cpu_s());
        let wall: Vec<f64> = setup.0.iter().map(|c| c.wall_ms / 1e3).collect();
        let cpu: Vec<f64> = setup.0.iter().map(|c| c.cpu_ms / 1e3).collect();
        self.note(format!(
            "setup: {} reps, median {} s wall, {} s CPU",
            setup.0.len(),
            median(&wall),
            median(&cpu)
        ));
        let cpu_ms = r.nominal_cpu_ms().expect("the measured loop is probed");
        self.set("cpu_ms_per_request", cpu_ms);
        let probes: Vec<f64> = r.costs.iter().map(|c| c.probe_ms).collect();
        self.note(format!(
            "cpu: {cpu_ms} ms per request at nominal speed ({} ms raw mean; probe median {} ms, nominal {} ms)",
            r.cpu_ms / r.requests as f64,
            median(&probes),
            crate::calib::NOMINAL_MS,
        ));
        self.set("peak_rss_mb", crate::env::peak_rss_mb());
        self.wall(r);
        self.note(format!(
            "wall: latency_p50_ms {} ms, sessions_per_s {} 1/s",
            self.metrics["wall.latency_p50_ms"], self.metrics["wall.sessions_per_s"]
        ));
        self.note(format!(
            "samples {} requests, {} sessions in {:.3} s",
            r.requests, r.sessions, r.wall_s
        ));
        match crate::stats::tail(&r.latencies_ms) {
            Some((p, v)) => self.note(format!("latency_tail_ms {v} ms (p{p})")),
            None => self.note(format!(
                "latency_tail_ms omitted: {} samples leave fewer than {} beyond p75",
                r.latencies_ms.len(),
                crate::stats::MIN_BEYOND
            )),
        }
        self.note(format!(
            "fail_ratio {} ratio",
            r.failed as f64 / r.sessions.max(1) as f64
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_runs_the_minimum_and_numbers_requests() {
        let tracer = Tracer::new(false);
        let seen = Mutex::new(Vec::new());
        let r = closed_loop(2, 0.0, 10, 6, &tracer, None, &|j, _| {
            seen.lock().unwrap().push(j);
            Outcome {
                sessions: 1,
                comm_bytes: 3,
                ..Outcome::default()
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (10..16).collect::<Vec<_>>());
        assert_eq!((r.requests, r.sessions, r.comm_bytes), (6, 6, 18));
        assert_eq!(r.latencies_ms.len(), 6);
    }

    #[test]
    fn a_failure_stops_the_loop() {
        let tracer = Tracer::new(false);
        let r = closed_loop(1, 60.0, 0, 0, &tracer, None, &|j, _| {
            let mut o = Outcome {
                sessions: 1,
                ..Outcome::default()
            };
            if j == 2 {
                o.fail("boom".to_owned());
            }
            o
        });
        assert_eq!((r.requests, r.failed), (3, 1));
        assert_eq!(r.errors, ["boom"]);
    }

    #[test]
    fn repeats_flag_a_changed_transcript() {
        let r = Repeats::new(2);
        assert!(r.check(0, 10).is_ok());
        assert!(r.check(0, 10).is_ok());
        assert!(r.check(1, 20).is_ok());
        assert!(r.check(1, 21).is_err());
        assert_eq!(r.mean(), 15.0);
    }
}
