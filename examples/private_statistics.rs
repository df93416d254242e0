//! Private statistics over a census-style database — the paper's §1
//! motivating scenario, end to end.
//!
//! The database pairs *public* attributes (zip code, age bracket) with
//! *private* salaries. A market-research client selects its sample from the
//! public attributes, then privately computes average **and variance** of
//! the private salaries of that sample (the §4 "package"), without the
//! database owner ever learning which population the client studies.
//!
//! Run with: `cargo run --example private_statistics`

use spfe::core::database::Database;
use spfe::core::stats::weighted_sum;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::Transcript;

fn main() {
    let mut rng = ChaChaRng::from_os_entropy();
    let group = SchnorrGroup::generate(128, &mut rng);
    let (pk, sk) = Paillier::keygen(320, &mut rng);

    // The server's census database: public (zip, age), private (salary).
    let db = Database::census(2_000, &mut rng);
    println!("server: census database with {} records", db.len());

    // Client-side selection from PUBLIC data only: a specific age bracket.
    let bracket = 7u8;
    let mut sample = db.select_by_age(bracket);
    sample.truncate(8); // pay for a sample of 8
    assert!(!sample.is_empty(), "bracket not represented; rerun");
    println!(
        "client: studying age bracket {bracket} — sample of {} records (indices hidden from server)",
        sample.len()
    );

    // The server keeps x and x' = x² side by side (the §4 package): one
    // unit-weight query, answered against both.
    let squared = db.squared();
    let max_sq = squared.iter().copied().max().unwrap();
    let field = Fp64::at_least(max_sq * sample.len() as u64 + db.len() as u64 + 1);

    let mut t = Transcript::new(1);
    let sums = weighted_sum(
        &mut t,
        &group,
        &pk,
        &sk,
        &[db.values(), &squared],
        &sample,
        &vec![1; sample.len()],
        field,
        &mut rng,
    )
    .expect("honest transport");
    let (sum, sum_sq) = (sums[0], sums[1]);

    let m = sample.len() as u64;
    let mean = sum / m;
    // Population variance = E[x²] − E[x]² (integer approximation).
    let variance = sum_sq / m - mean * mean;
    println!("\nprivate average salary: {mean}");
    println!(
        "private salary std-dev: ~{}",
        (variance as f64).sqrt() as u64
    );

    // Verify against the clear-text ground truth.
    let clear_sum: u64 = sample.iter().map(|&i| db.values()[i]).sum();
    let clear_sq: u64 = sample.iter().map(|&i| squared[i]).sum();
    assert_eq!((sum, sum_sq), (clear_sum, clear_sq));

    let report = t.report();
    println!(
        "\nprotocol: {} round(s), {} bytes total (database is {} bytes)",
        report.rounds(),
        report.total_bytes(),
        db.len() * 8,
    );
}
