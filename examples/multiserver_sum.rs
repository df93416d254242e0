//! The §3.1 multi-server protocol with information-theoretic privacy.
//!
//! When the database is replicated (for fault tolerance or content
//! distribution), the client gets *perfect* privacy against up to `t`
//! colluding servers, each server answers with a **single field element**,
//! and the same query can be reused against several databases — here the
//! values and their squares, giving average + variance in one round
//! (Theorem 2 + the §4 package).
//!
//! Run with: `cargo run --example multiserver_sum`

use spfe::core::multiserver::{run, MsFunction, MultiServerParams};
use spfe::crypto::ChaChaRng;
use spfe::math::Fp64;
use spfe::transport::Transcript;

fn main() {
    let mut rng = ChaChaRng::from_os_entropy();

    let n = 4_096;
    let purchases: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 500).collect();
    let squares: Vec<u64> = purchases.iter().map(|&v| v * v).collect();
    // Each server holds both databases, back to back.
    let both = [&purchases[..], &squares].concat();
    let sample = [17usize, 250, 3_000, 4_095];

    for t_priv in [1usize, 2, 3] {
        let field = Fp64::at_least(260_000 * sample.len() as u64 + n as u64);
        let params = MultiServerParams::new(n, t_priv, field, MsFunction::Sum { m: sample.len() })
            .with_databases(2);
        let k = params.num_servers();

        let mut transcript = Transcript::new(k);
        let sums = run(&mut transcript, &params, &both, &sample, None, &mut rng)
            .expect("honest transport");
        let (sum, sum_sq) = (sums[0], sums[1]);

        let expect: u64 = sample.iter().map(|&i| purchases[i]).sum();
        let expect_sq: u64 = sample.iter().map(|&i| squares[i]).sum();
        assert_eq!((sum, sum_sq), (expect, expect_sq));

        let report = transcript.report();
        println!(
            "t={t_priv}: k = t·log₂(n)+1 = {k} servers | sum={sum} sumsq={sum_sq} | \
             {} bytes total, {} bytes down ({} per server) | {} round",
            report.total_bytes(),
            report.server_to_client,
            report.server_to_client / k as u64,
            report.rounds(),
        );
    }

    println!(
        "\nEvery server saw only points of random degree-t curves: any t of\n\
         them combined learn information-theoretically nothing about the sample."
    );
}
