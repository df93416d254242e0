//! Shared harness for the SPFE experiment suite.
//!
//! Each experiment in DESIGN.md §3 has a row-producer here (exact
//! communication/round measurements via [`Transcript`]); the
//! `spfe-tables` binary prints the paper-style tables recorded in
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod audit;
pub mod nettrace;
pub mod serve;
pub mod trend;

use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::{CommReport, Transcript};
use spfe_obs::CostReport;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic crypto setup shared by all experiments (fixed seed so the
/// tables are reproducible; the *protocol* randomness is still fresh per
/// run from the returned RNG).
pub struct Bench {
    /// Group for OTs.
    pub group: SchnorrGroup,
    /// Client Paillier keys.
    pub pk: PaillierPk,
    /// Client Paillier secret.
    pub sk: PaillierSk,
    /// Server Paillier keys (for §3.3.2v2 / §3.3.3).
    pub spk: PaillierPk,
    /// Server Paillier secret.
    pub ssk: PaillierSk,
    /// Protocol randomness.
    pub rng: ChaChaRng,
}

impl Bench {
    /// Standard setup: 96-bit Schnorr group, 160-bit Paillier moduli —
    /// small enough to sweep `n` quickly, large enough that every
    /// plaintext-capacity precondition of the protocols holds. Key sizes
    /// scale all κ-terms together, so the byte and half-round columns keep
    /// their shape (DESIGN.md §4, substitution 4). Time does not: modexp
    /// grows about cubically in κ while garbling and hashing do not grow,
    /// so computation rankings measured at these keys understate the
    /// Paillier and ElGamal protocols (ROADMAP: the κ-profile item).
    pub fn new() -> Self {
        let mut rng = ChaChaRng::from_u64_seed(0xBEAC);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        Bench {
            group,
            pk,
            sk,
            spk,
            ssk,
            rng,
        }
    }
}

impl Default for Bench {
    fn default() -> Self {
        Self::new()
    }
}

/// A synthetic database of `n` values in `[0, max)` (deterministic).
pub fn make_db(n: usize, max: u64) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 0x9E37 + 0x79B9) % max).collect()
}

/// `m` well-spread indices into `[0, n)` (deterministic).
pub fn make_indices(n: usize, m: usize) -> Vec<usize> {
    (0..m).map(|j| (j * 2_654_435_761) % n).collect()
}

/// A field safely above `n` and any sum of `m` values below `max`.
pub fn field_for(n: usize, m: usize, max: u64) -> Fp64 {
    Fp64::at_least((n as u64).max(m as u64 * max) + 1)
}

/// One measured protocol execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Communication totals.
    pub comm: CommReport,
    /// Wall-clock duration of the complete (client+server) execution.
    pub elapsed: Duration,
}

/// Runs `f` against a fresh transcript and captures both cost dimensions.
pub fn measure<F: FnOnce(&mut Transcript)>(num_servers: usize, f: F) -> Measurement {
    let mut t = Transcript::new(num_servers);
    let start = Instant::now();
    f(&mut t);
    Measurement {
        comm: t.report(),
        elapsed: start.elapsed(),
    }
}

/// Cost reports collected by [`measure_as`] since the last [`take_costs`].
static COSTS: Mutex<Vec<CostReport>> = Mutex::new(Vec::new());

/// Like [`measure`], but also assembles a full [`CostReport`] — spans, op
/// counters, and per-label communication — for the execution and appends it
/// to the global collection drained by [`take_costs`].
///
/// The global span/counter state is reset before `f` runs, so each
/// measurement window is self-contained; callers must not nest or
/// interleave `measure_as` calls across threads.
pub fn measure_as<F: FnOnce(&mut Transcript)>(
    experiment: &str,
    protocol: &str,
    num_servers: usize,
    f: F,
) -> Measurement {
    let mut t = Transcript::new(num_servers);
    spfe_obs::reset();
    let start = Instant::now();
    f(&mut t);
    let elapsed = start.elapsed();
    let report = CostReport::assemble(
        experiment,
        protocol,
        elapsed.as_nanos() as u64,
        spfe_obs::spans_snapshot(),
        &spfe_obs::ops_snapshot(),
        t.comm_stat(),
        spfe_obs::mem::snapshot(),
    );
    COSTS.lock().unwrap().push(report);
    Measurement {
        comm: t.report(),
        elapsed,
    }
}

/// Drains every report collected by [`measure_as`] so far.
pub fn take_costs() -> Vec<CostReport> {
    std::mem::take(&mut COSTS.lock().unwrap())
}

/// Formats a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Formats a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0} µs", d.as_secs_f64() * 1e6)
    }
}

/// Prints a Markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe::transport::ChannelExt;

    #[test]
    fn deterministic_workloads() {
        assert_eq!(make_db(10, 100), make_db(10, 100));
        assert_eq!(make_indices(100, 5), make_indices(100, 5));
        assert!(make_indices(100, 5).iter().all(|&i| i < 100));
        assert!(make_db(50, 7).iter().all(|&v| v < 7));
    }

    #[test]
    fn field_covers_inputs() {
        let f = field_for(1000, 8, 500);
        assert!(f.modulus() > 4000);
        assert!(f.modulus() > 1000);
    }

    #[test]
    fn measure_captures_both_dimensions() {
        let m = measure(1, |t| {
            let _ = t.client_to_server(0, "x", &42u64).unwrap();
        });
        assert_eq!(m.comm.messages, 1);
    }

    #[test]
    fn measure_as_collects_cost_reports() {
        let _ = take_costs(); // drain anything a parallel test left behind
        let m = measure_as("eX", "ping", 1, |t| {
            let _ = t.client_to_server(0, "ping-q", &7u64).unwrap();
            let _ = t.server_to_client(0, "ping-a", &8u64).unwrap();
        });
        assert_eq!(m.comm.messages, 2);
        let costs = take_costs();
        let r = costs.iter().find(|r| r.experiment == "eX").unwrap();
        assert_eq!(r.protocol, "ping");
        assert_eq!(r.comm.messages, 2);
        assert_eq!(r.comm.labels.len(), 2);
        assert!(take_costs().iter().all(|r| r.experiment != "eX"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(100), "100 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 << 20).contains("MiB"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
    }
}
