//! Security-property tests: empirical checks of the paper's privacy and
//! secrecy claims (§2), at the protocol level.
//!
//! These are *statistical* tests for the information-theoretic claims
//! (exact distribution equality, sampled) and *structural* tests for the
//! computational ones (what each party's view contains).

use spfe::core::input_select::select1;
use spfe::core::multiserver::{client_queries, MsFunction, MultiServerParams};
use spfe::core::stats;
use spfe::core::two_phase;
use spfe::core::Statistic;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
use spfe::math::{Fp64, RandomSource};
use spfe::transport::Transcript;
use std::collections::HashMap;

/// §3.1 client privacy: the joint view of any t = 2 servers is identically
/// distributed regardless of the client's indices.
#[test]
fn multiserver_t_collusion_view_is_index_independent() {
    let f = Fp64::new(17).unwrap();
    let params = MultiServerParams::new(4, 2, f, MsFunction::Sum { m: 1 }); // ℓ = 2
    let runs = 4000;
    // Collusion = servers 0 and 1; joint view = their two query vectors.
    let mut hists: Vec<HashMap<Vec<u64>, u32>> = vec![HashMap::new(), HashMap::new()];
    for (slot, &index) in [0usize, 3usize].iter().enumerate() {
        let mut rng = ChaChaRng::from_u64_seed(100 + slot as u64);
        for _ in 0..runs {
            let qs = client_queries(&params, &[index], &mut rng);
            let mut view = qs[0].slot_points[0].clone();
            view.extend(&qs[1].slot_points[0]);
            *hists[slot].entry(view).or_insert(0) += 1;
        }
    }
    let keys: std::collections::HashSet<_> =
        hists[0].keys().chain(hists[1].keys()).cloned().collect();
    for k in keys {
        let a = *hists[0].get(&k).unwrap_or(&0) as f64;
        let b = *hists[1].get(&k).unwrap_or(&0) as f64;
        assert!(
            (a - b).abs() <= 10.0 * ((a + b).sqrt() + 1.0),
            "view {k:?}: {a} vs {b}"
        );
    }
}

/// §3.1 database secrecy ([25] blinding): with the blinding polynomial the
/// client's residual information — the interpolated polynomial beyond its
/// value at 0 — is uniformly random.
#[test]
fn multiserver_blinding_randomizes_off_zero_values() {
    let f = Fp64::new(101).unwrap();
    let db: Vec<u64> = (0..8u64).collect();
    let params = MultiServerParams::new(db.len(), 1, f, MsFunction::Sum { m: 1 });
    let mut rng = ChaChaRng::from_u64_seed(7);
    let mut first_answers = std::collections::HashSet::new();
    for seed in 0..30u64 {
        let queries = client_queries(&params, &[3], &mut rng);
        let mut srng = ChaChaRng::from_u64_seed(seed);
        let blind = spfe::core::multiserver::blinding_poly(&params, &mut srng);
        let a0 =
            spfe::core::multiserver::server_answer(&params, &db, &queries[0], Some((&blind, 0)))
                .unwrap();
        first_answers.insert(a0);
    }
    // Across 30 independent blindings the same server's answer varies.
    assert!(first_answers.len() > 20, "blinding must randomize answers");
}

/// Input-selection shares look uniform to each party individually.
#[test]
fn share_marginals_are_uniform() {
    let mut rng = ChaChaRng::from_u64_seed(0x5EC);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let field = Fp64::new(31).unwrap();
    let db: Vec<u64> = (0..10u64).map(|i| i % 31).collect();
    let mut client_hist = [0u32; 31];
    let runs = 600;
    for _ in 0..runs {
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &[4], field, &mut rng).unwrap();
        client_hist[shares.client[0] as usize] += 1;
    }
    // Every residue should appear, none dominating.
    let max = *client_hist.iter().max().unwrap();
    let min = *client_hist.iter().min().unwrap();
    assert!(min > 0, "some residue never appeared: {client_hist:?}");
    assert!(max < runs / 5, "distribution too peaked: {client_hist:?}");
}

/// §3.3 weak security: a malicious client shifting shares learns exactly
/// f(x_I + Δ) — tested for the sum and frequency statistics.
#[test]
fn malicious_share_shift_changes_only_the_arguments() {
    let mut rng = ChaChaRng::from_u64_seed(0xBAD);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let field = Fp64::new(257).unwrap();
    let db = vec![100u64, 50, 42, 7, 42];
    let indices = [2usize, 4];

    // Honest frequency of 42 = 2; a client shifting its first share by 1
    // queries (x₀+1, x₁) instead and must see frequency 1.
    let mut t = Transcript::new(1);
    let mut shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
    shares.client[0] = field.add(shares.client[0], 1);
    let shifted = two_phase::yao_phase(
        &mut t,
        &group,
        &shares,
        &Statistic::Frequency { keyword: 42 },
        &mut rng,
    )
    .unwrap();
    assert_eq!(shifted, vec![1], "client learned f on shifted inputs only");
}

/// §4 weighted sum, the counting argument: any coefficient vector the
/// client submits corresponds to some linear combination of the selected
/// (masked) items — equivalently, for every weight vector the output is
/// exactly that combination. Property-tested over random weights.
#[test]
fn weighted_sum_counting_argument() {
    let mut rng = ChaChaRng::from_u64_seed(0xC0);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let field = Fp64::new(65_537).unwrap();
    let db: Vec<u64> = (0..30u64).map(|i| i * 3 + 5).collect();
    let indices = [1usize, 10, 20];
    for trial in 0..5u64 {
        let weights: Vec<u64> = (0..3).map(|k| (trial * 7 + k + 1) % 100).collect();
        let mut t = Transcript::new(1);
        let got = stats::weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &[&db],
            &indices,
            &weights,
            field,
            &mut rng,
        )
        .unwrap();
        let expect = indices.iter().zip(&weights).fold(0u64, |acc, (&i, &w)| {
            field.add(acc, field.mul(field.from_u64(w), field.from_u64(db[i])))
        });
        assert_eq!(got, [expect], "weights {weights:?}");
    }
}

/// The frequency protocol's permutation hides *which* selected items
/// matched: the client sees only the multiset of blinded comparisons.
#[test]
fn frequency_hides_match_positions() {
    let mut rng = ChaChaRng::from_u64_seed(0xF2E);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let field = Fp64::new(101).unwrap();
    // Two databases with the keyword in different positions.
    let db_a = vec![9u64, 1, 2];
    let db_b = vec![1u64, 2, 9];
    let mut counts = Vec::new();
    for db in [&db_a, &db_b] {
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, db, &[0, 1, 2], field, &mut rng).unwrap();
        counts.push(stats::frequency(&mut t, &pk, &sk, &shares, &[9; 3], &mut rng).unwrap());
    }
    assert_eq!(counts, vec![1, 1], "same count regardless of position");
}

/// Paillier ciphertexts in queries are semantically secure: two queries
/// for different indices are byte-wise unrelated fresh encryptions (no
/// deterministic structure to compare).
#[test]
fn pir_queries_are_probabilistic() {
    let mut rng = ChaChaRng::from_u64_seed(0x9E9);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let layout = spfe::pir::Layout::square(16);
    let q1 = spfe::pir::hom_pir::client_query(&pk, &sk, &layout, 3, &mut rng);
    let q2 = spfe::pir::hom_pir::client_query(&pk, &sk, &layout, 3, &mut rng);
    assert_ne!(
        q1.row_selector, q2.row_selector,
        "same index must yield fresh ciphertexts"
    );
}

/// The servers in the sum-PSM construction see only m independent PIR
/// queries; the PSM pads ensure the m reconstructed messages are uniform
/// subject to their sum.
#[test]
fn sum_psm_messages_leak_only_the_sum() {
    use spfe::mpc::psm::sum;
    let modulus = 11u64;
    // Two input vectors with equal sum.
    let xs_a = [3u64, 7]; // sum 10
    let xs_b = [9u64, 1]; // sum 10
    let runs = 3000;
    let mut hists = [HashMap::new(), HashMap::new()];
    let mut seeder = ChaChaRng::from_u64_seed(0xAB);
    for (slot, xs) in [xs_a, xs_b].iter().enumerate() {
        for _ in 0..runs {
            let mut seed = [0u8; 32];
            let r = seeder.next_u64();
            seed[..8].copy_from_slice(&r.to_le_bytes());
            let msgs: Vec<u64> = xs
                .iter()
                .enumerate()
                .map(|(j, &y)| sum::player_message(j, 2, y, modulus, seed))
                .collect();
            *hists[slot].entry(msgs).or_insert(0u32) += 1;
        }
    }
    let keys: std::collections::HashSet<_> =
        hists[0].keys().chain(hists[1].keys()).cloned().collect();
    for k in keys {
        let a = *hists[0].get(&k).unwrap_or(&0) as f64;
        let b = *hists[1].get(&k).unwrap_or(&0) as f64;
        assert!(
            (a - b).abs() <= 10.0 * ((a + b).sqrt() + 1.0),
            "messages {k:?}: {a} vs {b}"
        );
    }
}
