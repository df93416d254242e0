//! The in-process workloads, one session at a time through
//! `spfe_transport::pump` over a `Transcript`, with the public client and
//! server cores:
//!
//! * `hom-scan` — √n homomorphic PIR, 2048-bit Paillier, n = 1024;
//! * `ms-sum` — Theorem 2 multi-server SPFE, f = sum of m = 4, t = 1,
//!   n = 65 536, so k = 17 servers (the EXPERIMENTS.md E2 row).
//!
//! They run in process because the TCP server hosts only the canonical
//! n = 16 fixtures; `pump` delivers messages in the TCP client's phase
//! order, and the conformance matrix pins the two runs byte-identical.

use crate::calib::Probe;
use crate::inputs;
use crate::run::{closed_loop, Config, Outcome, Repeats, Report, Setups};
use crate::stats::median;
use crate::trace::{SpanIndex, TracedClient, TracedServer, Tracer};
use spfe_core::multiserver::{MsClientCore, MsFunction, MsServerCore, MultiServerParams};
use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk};
use spfe_math::Fp64;
use spfe_pir::hom_pir::{HomPirClientCore, HomPirServerCore};
use spfe_transport::{pump, ClientCore, SessionCore, Transcript};
use std::sync::Arc;

/// The `hom-scan` Paillier modulus size.
pub const HOM_KEY_BITS: usize = 2048;
const HOM_KEY_SEED: u64 = 0x4B45_5953;
const HOM_N: usize = 1024;
/// Database values lie below this bound in both workloads.
pub const VALUE_BOUND: u64 = 1000;
/// The `ms-sum` database size.
pub const MS_N: usize = 65_536;
/// The `ms-sum` number of summed items.
pub const MS_M: usize = 4;
const MS_T: usize = 1;

/// The fixed `hom-scan` key pair (not seed-dependent: keys are fixtures).
pub fn hom_key() -> (PaillierPk, PaillierSk) {
    Paillier::keygen(HOM_KEY_BITS, &mut ChaChaRng::from_u64_seed(HOM_KEY_SEED))
}

/// The `ms-sum` parameters; the field exceeds n and any sum of m values.
pub fn ms_params() -> MultiServerParams {
    let field = Fp64::at_least((MS_N as u64).max(MS_M as u64 * VALUE_BOUND) + 1);
    MultiServerParams::new(MS_N, MS_T, field, MsFunction::Sum { m: MS_M })
}

/// A protocol whose sessions the workload runs: fresh cores per session.
trait Protocol: Sync {
    fn servers(&self) -> usize;
    fn client(&self, input: usize, rng_seed: u64) -> Box<dyn ClientCore>;
    fn server_cores(&self) -> Vec<Box<dyn SessionCore + Send>>;
    fn expect(&self, input: usize) -> u64;
}

/// `hom-scan` state: the key, the database and the seeded indices.
pub struct HomScan {
    /// Public key.
    pub pk: PaillierPk,
    /// Secret key.
    pub sk: PaillierSk,
    db: Vec<u64>,
    indices: Vec<usize>,
}

impl Protocol for HomScan {
    fn servers(&self) -> usize {
        1
    }
    fn client(&self, input: usize, rng_seed: u64) -> Box<dyn ClientCore> {
        let mut rng = ChaChaRng::from_u64_seed(rng_seed);
        Box::new(HomPirClientCore::new(
            self.pk.clone(),
            self.sk.clone(),
            self.db.len(),
            self.indices[input],
            &mut rng,
        ))
    }
    fn server_cores(&self) -> Vec<Box<dyn SessionCore + Send>> {
        vec![Box::new(HomPirServerCore::new(
            self.pk.clone(),
            self.db.clone(),
        ))]
    }
    fn expect(&self, input: usize) -> u64 {
        self.db[self.indices[input]]
    }
}

/// `ms-sum` state: parameters, the database and the seeded index sets.
pub struct MsSum {
    params: MultiServerParams,
    /// The database (also the selector-evaluation kernel's input).
    pub db: Vec<u64>,
    indices: Vec<Vec<usize>>,
}

impl Protocol for MsSum {
    fn servers(&self) -> usize {
        self.params.num_servers()
    }
    fn client(&self, input: usize, rng_seed: u64) -> Box<dyn ClientCore> {
        let mut rng = ChaChaRng::from_u64_seed(rng_seed);
        Box::new(MsClientCore::new(
            self.params.clone(),
            &self.indices[input],
            &mut rng,
        ))
    }
    fn server_cores(&self) -> Vec<Box<dyn SessionCore + Send>> {
        (0..self.servers())
            .map(|h| {
                Box::new(MsServerCore::new(h, self.params.clone(), self.db.clone()))
                    as Box<dyn SessionCore + Send>
            })
            .collect()
    }
    fn expect(&self, input: usize) -> u64 {
        let field = self.params.field;
        self.indices[input]
            .iter()
            .fold(0, |acc, &i| field.add(acc, field.from_u64(self.db[i])))
    }
}

/// Runs `hom-scan`; returns its state for the kernel measurements.
pub fn run_hom_scan(cfg: &Config, tracer: &Arc<Tracer>, report: &mut Report) -> HomScan {
    let seed = cfg.seed;
    let setup = || {
        let (pk, sk) = hom_key();
        let db = inputs::database(seed, HOM_N, VALUE_BOUND);
        let indices = inputs::index_sets(seed, HOM_N, 1, 4)
            .into_iter()
            .map(|s| s[0])
            .collect();
        let proto = HomScan {
            pk,
            sk,
            db,
            indices,
        };
        drop(proto.server_cores());
        proto
    };
    report.note(format!("keys: paillier {HOM_KEY_BITS} bits; n = {HOM_N}"));
    sessions(
        cfg,
        tracer,
        report,
        setup,
        15,
        4,
        "pir.hom_pir",
        "decode_ms",
    )
}

/// Runs `ms-sum`; returns its state for the kernel measurements.
pub fn run_ms_sum(cfg: &Config, tracer: &Arc<Tracer>, report: &mut Report) -> MsSum {
    let seed = cfg.seed;
    let setup = || {
        let proto = MsSum {
            params: ms_params(),
            db: inputs::database(seed, MS_N, VALUE_BOUND),
            indices: inputs::index_sets(seed, MS_N, MS_M, 8),
        };
        drop(proto.server_cores());
        proto
    };
    let proto = sessions(
        cfg,
        tracer,
        report,
        setup,
        51,
        8,
        "core.multiserver",
        "reconstruct_ms",
    );
    report.note(format!(
        "params: n = {MS_N}, m = {MS_M}, t = {MS_T}, k = {} servers, field p = {}",
        proto.servers(),
        proto.params.field.modulus()
    ));
    proto
}

/// The shared session workload: `setup_reps` timed set-ups after an
/// untimed one, a warm-up session, then one client in a closed loop over
/// `distinct` seeded inputs. The set-ups and the untraced loop's requests
/// are costed in CPU time at the nominal host speed (see [`crate::calib`]).
/// Phase metrics go under `layer` (`<layer>.query_gen_ms`,
/// `<layer>.server_ms`, `<layer>.<last_phase>`).
#[allow(clippy::too_many_arguments)]
fn sessions<P: Protocol>(
    cfg: &Config,
    tracer: &Arc<Tracer>,
    report: &mut Report,
    setup: impl Fn() -> P,
    setup_reps: usize,
    distinct: usize,
    layer: &str,
    last_phase: &str,
) -> P {
    let probe = Probe::new();
    let (proto, setup_s) = Setups::time(&probe, setup_reps, setup);

    let repeats = Repeats::new(distinct);
    let session = |j: u64, tracer: &Arc<Tracer>| {
        let input = (j % distinct as u64) as usize;
        let (got, comm, leftovers) = tracer.request(j, "session", || {
            let rng_seed = inputs::request_seed(cfg.seed, input);
            let mut client = tracer.span("core.client.new", "", || proto.client(input, rng_seed));
            let mut servers = tracer.span("core.server.new", "", || {
                TracedServer::wrap(proto.server_cores(), tracer)
            });
            let mut t = Transcript::new(proto.servers());
            let mut traced = TracedClient {
                inner: client.as_mut(),
                tracer,
            };
            let got = tracer.span("pump", "", || pump(&mut t, &mut traced, &mut servers));
            let comm = t.report().total_bytes();
            (got, comm, (client, servers, t))
        });
        drop(leftovers);
        let mut out = Outcome {
            sessions: 1,
            comm_bytes: comm,
            ..Outcome::default()
        };
        match got {
            Ok(v) if v == proto.expect(input) => {}
            Ok(v) => out.fail(format!(
                "input {input}: answer {v} != {}",
                proto.expect(input)
            )),
            Err(e) => out.fail(format!("input {input}: {e:?}")),
        }
        if let Err(e) = repeats.check(input, comm) {
            out.fail(e);
        }
        out
    };

    let untraced = Tracer::new(false);
    let warm = session(u64::MAX, &untraced);
    if let Some(e) = warm.error {
        report.problems.push(format!("warm-up: {e}"));
    }
    if !cfg.trace {
        let r = closed_loop(
            1,
            cfg.seconds,
            0,
            distinct as u64,
            &untraced,
            Some(&probe),
            &session,
        );
        report.tally(&r);
        report.end_to_end(&r, &setup_s);
        report.set("comm_bytes_per_request", repeats.mean());
        return proto;
    }

    let half = cfg.seconds / 2.0;
    let base = closed_loop(1, half, 0, distinct as u64, &untraced, None, &session);
    report.tally(&base);
    report.wall(&base);
    let ops0 = spfe_obs::ops_snapshot();
    let traced = closed_loop(
        1,
        half,
        base.requests,
        distinct as u64,
        tracer,
        None,
        &session,
    );
    let ops1 = spfe_obs::ops_snapshot();
    report.tally(&traced);
    crate::layers::ops_per_request(report, &ops0, &ops1, traced.requests);
    report.set(
        "obs.trace_overhead_ratio",
        median(&traced.latencies_ms) / median(&base.latencies_ms),
    );

    let spans = SpanIndex::new(tracer.spans());
    let m = |names: &[&str]| median(&spans.per_request(names, None));
    report.set(
        &format!("{layer}.query_gen_ms"),
        m(&["core.client.new", "core.client.start"]),
    );
    report.set(
        &format!("{layer}.server_ms"),
        m(&["core.server.on_message"]),
    );
    report.set(
        &format!("{layer}.{last_phase}"),
        m(&["core.client.on_message"]),
    );
    report.note(format!(
        "{layer}: server core construction {} ms per session (not in server_ms)",
        m(&["core.server.new"])
    ));
    let pump_self = spans.self_per_request(&["pump"], None);
    report.set("transport.pump_overhead_ms", median(&pump_self));
    reconcile(report, &spans, &pump_self);
    proto
}

/// Core-call spans plus pump overhead must add up to the session span.
fn reconcile(report: &mut Report, spans: &SpanIndex, pump_self: &[f64]) {
    let session = spans.per_request(&["session"], None);
    let calls = spans.per_request(
        &[
            "core.client.new",
            "core.server.new",
            "core.client.start",
            "core.server.start",
            "core.server.on_message",
            "core.client.on_message",
        ],
        None,
    );
    let residual: Vec<f64> = session
        .iter()
        .zip(&calls)
        .zip(pump_self)
        .map(|((s, c), p)| s - c - p)
        .collect();
    let (s, c, p, r) = (
        median(&session),
        median(&calls),
        median(pump_self),
        median(&residual),
    );
    report.note(format!(
        "reconcile: session p50 {s:.3} ms = core calls {c:.3} ms + pump overhead {p:.3} ms + residual {r:.4} ms ({:.3}%)",
        100.0 * r / s
    ));
    if session.len() != calls.len() || r.abs() > (0.02 * s).max(0.5) {
        report
            .problems
            .push(format!("reconciliation: residual {r:.4} ms of {s:.3} ms"));
    }
}
