//! §4 frequency counting: how many of the selected records equal a keyword?
//!
//! Two ways to get the same answer:
//! 1. the tailored §4 protocol — input selection, then one round of
//!    blinded, permuted comparisons (the client counts zero decryptions);
//! 2. the generic route — §3.3.1 input selection + a Yao-garbled
//!    share-reconstructing frequency circuit.
//!
//! Run with: `cargo run --example keyword_frequency`

use spfe::core::input_select::select1;
use spfe::core::stats::frequency;
use spfe::core::two_phase::run_select1_yao;
use spfe::core::Statistic;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::Transcript;

fn main() {
    let mut rng = ChaChaRng::from_os_entropy();
    let group = SchnorrGroup::generate(128, &mut rng);
    let (pk, sk) = Paillier::keygen(256, &mut rng);

    // Database of product codes; the client wants to know how often code 42
    // appears among its (hidden) sample.
    let n = 500;
    let codes: Vec<u64> = (0..n as u64).map(|i| (i * i + 3 * i) % 100).collect();
    // Pick the keyword so the sample actually contains matches: records 42,
    // 142, 242 share the same code ((i² + 3i) mod 100 is periodic in 100).
    let sample = [5usize, 42, 142, 123, 242, 480];
    let keyword = codes[42];
    let truth = sample.iter().filter(|&&i| codes[i] == keyword).count() as u64;
    let field = Fp64::at_least((n as u64).max(101)); // p > n and > values

    // Route 1: the tailored §4 protocol.
    let mut t1 = Transcript::new(1);
    let shares = select1(&mut t1, &group, &pk, &sk, &codes, &sample, field, &mut rng)
        .expect("honest transport");
    let keywords = vec![keyword; sample.len()];
    let freq1 =
        frequency(&mut t1, &pk, &sk, &shares, &keywords, &mut rng).expect("honest transport");
    println!(
        "§4 tailored protocol : frequency = {freq1} | {} rounds, {} bytes",
        t1.report().rounds(),
        t1.report().total_bytes()
    );

    // Route 2: generic two-phase SPFE with a garbled frequency circuit.
    let mut t2 = Transcript::new(1);
    let freq2 = run_select1_yao(
        &mut t2,
        &group,
        &pk,
        &sk,
        &codes,
        &sample,
        &Statistic::Frequency { keyword },
        field,
        &mut rng,
    )
    .expect("honest transport")[0];
    println!(
        "generic Yao route    : frequency = {freq2} | {} rounds, {} bytes",
        t2.report().rounds(),
        t2.report().total_bytes()
    );

    assert_eq!(freq1, truth);
    assert_eq!(freq2, truth);
    println!(
        "\nboth agree with the ground truth: {truth} of {} selected records match",
        sample.len()
    );
    println!(
        "the tailored protocol saves {} bytes over the generic route",
        t2.report().total_bytes() - t1.report().total_bytes()
    );
}
