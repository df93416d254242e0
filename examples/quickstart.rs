//! Quickstart: privately compute the sum of selected database items.
//!
//! A client picks `m` record indices; the server holds the database. After
//! one protocol round the client knows the sum of exactly those records,
//! the server has learned nothing about which records were touched, and
//! the total traffic is far below shipping the database.
//!
//! Run with: `cargo run --example quickstart`

use spfe::core::stats::weighted_sum;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::Transcript;

fn main() {
    let mut rng = ChaChaRng::from_os_entropy();

    // --- Setup (once per client/server relationship) -------------------
    let group = SchnorrGroup::generate(128, &mut rng);
    let (pk, sk) = Paillier::keygen(256, &mut rng); // client's keys
    println!("setup: Schnorr group + Paillier keys generated");

    // --- The server's private database ---------------------------------
    let n = 100_000;
    let salaries: Vec<u64> = (0..n as u64)
        .map(|i| 30_000 + (i * 7_919) % 30_000)
        .collect();
    println!("server: database of {n} salaries");

    // --- The client's private selection --------------------------------
    let sample = [12usize, 7_077, 34_821, 60_002, 99_999];
    let weights = [1u64; 5];
    println!("client: wants the sum of {} hidden records", sample.len());

    // --- One round of the §4 weighted-sum protocol ----------------------
    let field = Fp64::at_least(n as u64 + 60_000 * sample.len() as u64);
    let mut transcript = Transcript::new(1);
    let sum = weighted_sum(
        &mut transcript,
        &group,
        &pk,
        &sk,
        &[&salaries],
        &sample,
        &weights,
        field,
        &mut rng,
    )
    .expect("honest transport")[0];

    let expected: u64 = sample.iter().map(|&i| salaries[i]).sum();
    assert_eq!(sum, expected);

    let report = transcript.report();
    println!(
        "\nresult: private sum = {sum} (average {})",
        sum / sample.len() as u64
    );
    println!("rounds: {}", report.rounds());
    println!(
        "communication: {} bytes up, {} bytes down ({} total)",
        report.client_to_server,
        report.server_to_client,
        report.total_bytes()
    );
    println!(
        "vs. buying the database: {} bytes ({}x more)",
        n * 8,
        (n as u64 * 8) / report.total_bytes().max(1)
    );
}
