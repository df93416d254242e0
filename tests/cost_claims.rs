//! Cost-claim tests: the paper's asymptotic statements, checked on real
//! transcripts. Each test names the claim it reproduces; the benchmark
//! harness produces the full tables (EXPERIMENTS.md), these tests pin the
//! *shape* so regressions fail CI.

use spfe::circuits::builders::sum_circuit;
use spfe::core::baseline;
use spfe::core::multiserver::{MsFunction, MultiServerParams};
use spfe::core::psm_spfe;
use spfe::core::stats;
use spfe::core::two_phase;
use spfe::core::Statistic;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::Transcript;

fn setup() -> (SchnorrGroup, PaillierPk, PaillierSk, ChaChaRng) {
    let mut rng = ChaChaRng::from_u64_seed(0xC057);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    (group, pk, sk, rng)
}

/// §1.1: SPFE communication is sublinear in n; generic solutions are
/// linear. Measure both and find the crossover direction.
#[test]
fn spfe_beats_linear_baselines_for_small_m() {
    let (group, pk, sk, mut rng) = setup();
    let n = 32_768;
    let db: Vec<u64> = (0..n as u64).map(|i| i % 64).collect();
    let indices = [7usize, 99, 1_000, 31_000];
    let field = Fp64::at_least(n as u64 + 300);

    let mut t_spfe = Transcript::new(1);
    stats::weighted_sum(
        &mut t_spfe,
        &group,
        &pk,
        &sk,
        &[&db],
        &indices,
        &[1, 1, 1, 1],
        field,
        &mut rng,
    )
    .unwrap();
    let spfe_bytes = t_spfe.report().total_bytes();

    let mut t_buy = Transcript::new(1);
    baseline::buy_the_database(&mut t_buy, &db, &indices, &Statistic::Sum).unwrap();
    let buy_bytes = t_buy.report().total_bytes();

    let yao_bytes = baseline::generic_yao_cost_estimate(n, indices.len(), 6);

    assert!(
        spfe_bytes < buy_bytes,
        "SPFE ({spfe_bytes}) must beat buying the db ({buy_bytes}) at n={n}"
    );
    assert!(
        spfe_bytes < yao_bytes,
        "SPFE ({spfe_bytes}) must beat generic Yao ({yao_bytes}) at n={n}"
    );
}

/// Theorem 2: multi-server communication ≈ k·(m·ℓ+1) field elements with
/// k = t·ℓ+1 for the sum function; in particular it grows with log n, not n.
#[test]
fn multiserver_communication_tracks_theorem2_formula() {
    let mut rng = ChaChaRng::from_u64_seed(2);
    let field = Fp64::at_least(1 << 30);
    let m = 3;
    let mut measured = Vec::new();
    for n in [256usize, 4_096, 65_536] {
        let db: Vec<u64> = (0..n as u64).map(|i| i % 100).collect();
        let params = MultiServerParams::new(n, 1, field, MsFunction::Sum { m });
        let k = params.num_servers();
        let mut t = Transcript::new(k);
        spfe::core::multiserver::run(&mut t, &params, &db, &[1, n / 2, n - 1], None, &mut rng)
            .unwrap();
        let bytes = t.report().total_bytes();
        // Formula: k queries of m·ℓ elements + k answers (8 bytes each),
        // plus framing. ℓ = log₂ n, k = ℓ+1.
        let ell = spfe::circuits::formula::index_bits(n);
        let formula = (k * (m * ell + 1) * 8) as u64;
        assert!(
            bytes < 3 * formula,
            "n={n}: measured {bytes} vs formula {formula}"
        );
        measured.push(bytes);
    }
    // 256 → 65536 multiplies n by 256 but bytes only by ~(16·17)/(8·9) ≈ 3.8.
    let growth = measured[2] as f64 / measured[0] as f64;
    assert!(growth < 6.0, "log-scaling violated: {measured:?}");
}

/// Corollary 4(1) cost split: in the PSM construction the p₀ term is
/// O(κ·C_f) — doubling the circuit roughly doubles the garbled-circuit
/// bytes but leaves the per-slot SPIR cost unchanged.
#[test]
fn psm_cost_split_matches_corollary4() {
    let (group, pk, sk, mut rng) = setup();
    let db: Vec<u64> = (0..64u64).map(|i| i % 16).collect();
    let indices = [1usize, 2, 3];

    let mut t_small = Transcript::new(1);
    let c_small = sum_circuit(3, 4);
    psm_spfe::run_yao_psm(
        &mut t_small,
        &group,
        &pk,
        &sk,
        &db,
        &indices,
        &c_small,
        4,
        &mut rng,
    )
    .unwrap();

    // Same m (same SPIR cost) but a bigger f: sum of squares-scale circuit.
    let mut t_big = Transcript::new(1);
    let c_big = spfe::circuits::builders::sum_of_squares_circuit(3, 4);
    psm_spfe::run_yao_psm(
        &mut t_big, &group, &pk, &sk, &db, &indices, &c_big, 4, &mut rng,
    )
    .unwrap();

    // Upstream (SPIR queries) identical arity → nearly identical bytes.
    let up_s = t_small.report().client_to_server;
    let up_b = t_big.report().client_to_server;
    assert!(
        (up_s as f64 / up_b as f64 - 1.0).abs() < 0.05,
        "upstream must not depend on C_f: {up_s} vs {up_b}"
    );
    // Downstream grows with C_f.
    assert!(t_big.report().server_to_client > t_small.report().server_to_client);
}

/// Table 1, κm² vs κm: the §3.3.2 variants' homomorphic overhead.
#[test]
fn select2_overhead_quadratic_vs_linear_in_m() {
    let (group, pk, sk, mut rng) = setup();
    let (spk, ssk) = Paillier::keygen(160, &mut rng);
    let n = 256;
    let db: Vec<u64> = (0..n as u64).map(|i| i % 100).collect();
    let field = Fp64::at_least(n as u64 + 1_000);

    let mut v1_overheads = Vec::new();
    let mut v2_overheads = Vec::new();
    for m in [4usize, 8] {
        let indices: Vec<usize> = (0..m).map(|j| j * 31 % n).collect();
        let mut t1 = Transcript::new(1);
        spfe::core::input_select::select2_v1(
            &mut t1, &group, &pk, &sk, &db, &indices, field, &mut rng,
        )
        .unwrap();
        v1_overheads.push(t1.bytes_for_label("sel2v1-powers"));
        let mut t2 = Transcript::new(1);
        spfe::core::input_select::select2_v2(
            &mut t2, &group, &pk, &sk, &spk, &ssk, &db, &indices, field, &mut rng,
        )
        .unwrap();
        v2_overheads
            .push(t2.bytes_for_label("sel2v2-coeffs") + t2.bytes_for_label("sel2v2-blinded"));
    }
    // Doubling m quadruples v1's overhead but only doubles v2's.
    let v1_growth = v1_overheads[1] as f64 / v1_overheads[0] as f64;
    let v2_growth = v2_overheads[1] as f64 / v2_overheads[0] as f64;
    assert!(v1_growth > 3.5 && v1_growth < 4.5, "κm²: {v1_growth}");
    assert!(v2_growth > 1.8 && v2_growth < 2.2, "κm: {v2_growth}");
}

/// Footnote 2 / §3.3: batched SPIR(n, m) beats m × SPIR(n, 1) — measured
/// through complete protocols: select2 (batched) vs select1 (independent)
/// at growing m.
#[test]
fn batched_selection_beats_independent_at_large_m() {
    let (group, pk, sk, mut rng) = setup();
    let n = 1_024;
    let db: Vec<u64> = (0..n as u64).map(|i| i % 50).collect();
    let field = Fp64::at_least(n as u64 + 500);
    let m = 16;
    let indices: Vec<usize> = (0..m).map(|j| (j * 61 + 3) % n).collect();

    let mut t_ind = Transcript::new(1);
    spfe::core::input_select::select1(&mut t_ind, &group, &pk, &sk, &db, &indices, field, &mut rng)
        .unwrap();
    let ind_bytes = t_ind.report().total_bytes();

    let mut t_bat = Transcript::new(1);
    let (_, stats) =
        spfe::pir::batched::run(&mut t_bat, &group, &pk, &sk, &db, &indices, &mut rng).unwrap();
    assert_eq!(stats.fallbacks, 0);
    let bat_bytes = t_bat.report().total_bytes();

    assert!(
        bat_bytes < ind_bytes,
        "batched {bat_bytes} must beat independent {ind_bytes} at m={m}"
    );
}

/// §4: the average+variance package costs one round; its upstream is
/// exactly one weighted-sum run's (the same query message serves both
/// databases), and its total is less than two independent runs.
#[test]
fn avg_var_package_cheaper_than_two_runs() {
    let (group, pk, sk, _) = setup();
    let n = 512;
    let db: Vec<u64> = (0..n as u64).map(|i| i % 40 + 1).collect();
    let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
    let indices = [3usize, 200, 501];
    let field = Fp64::at_least(n as u64 + 5_000 * 3);
    // One seed per run, so every run draws the same client query.
    let run = |t: &mut Transcript, dbs: &[&[u64]]| {
        let mut rng = ChaChaRng::from_u64_seed(0xA7A7);
        stats::weighted_sum(
            t,
            &group,
            &pk,
            &sk,
            dbs,
            &indices,
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap()
    };

    let mut t_pkg = Transcript::new(1);
    run(&mut t_pkg, &[&db, &sq]);
    let mut t_two = Transcript::new(1);
    run(&mut t_two, &[&db]);
    let one_run_upstream = t_two.report().client_to_server;
    run(&mut t_two, &[&sq]);

    assert_eq!(t_pkg.report().half_rounds, 2);
    assert_eq!(
        t_pkg.report().client_to_server,
        one_run_upstream,
        "the package sends one run's query, and nothing more"
    );
    assert!(t_pkg.report().total_bytes() < t_two.report().total_bytes());
}

/// Table 1 round column, all five constructions (measured, not asserted
/// from metadata).
#[test]
fn table1_round_column_measured() {
    let (group, pk, sk, mut rng) = setup();
    let (spk, ssk) = Paillier::keygen(160, &mut rng);
    let db: Vec<u64> = (0..64u64).map(|i| i % 32).collect();
    let indices = [1usize, 30, 63];
    let field = Fp64::at_least(1 << 9);
    let circuit = sum_circuit(3, 5);

    let mut t = Transcript::new(1);
    psm_spfe::run_yao_psm(
        &mut t, &group, &pk, &sk, &db, &indices, &circuit, 5, &mut rng,
    )
    .unwrap();
    assert_eq!(t.report().half_rounds, 2, "§3.2: 1 round");

    let mut t = Transcript::new(1);
    two_phase::run_select1_yao(
        &mut t,
        &group,
        &pk,
        &sk,
        &db,
        &indices,
        &Statistic::Sum,
        field,
        &mut rng,
    )
    .unwrap();
    assert_eq!(t.report().half_rounds, 4, "§3.3.1: 2 rounds");

    let mut t = Transcript::new(1);
    two_phase::run_select2v1_yao(
        &mut t,
        &group,
        &pk,
        &sk,
        &db,
        &indices,
        &Statistic::Sum,
        field,
        &mut rng,
    )
    .unwrap();
    assert_eq!(t.report().half_rounds, 4, "§3.3.2/v1: 2 rounds");

    let mut t = Transcript::new(1);
    two_phase::run_select2v2_yao(
        &mut t,
        &group,
        &pk,
        &sk,
        &spk,
        &ssk,
        &db,
        &indices,
        &Statistic::Sum,
        field,
        &mut rng,
    )
    .unwrap();
    assert_eq!(t.report().half_rounds, 5, "§3.3.2/v2: 2.5 rounds");

    let mut t = Transcript::new(1);
    two_phase::run_select3_arith(
        &mut t,
        &group,
        &pk,
        &sk,
        &spk,
        &ssk,
        &db,
        &indices,
        &Statistic::Sum,
        &mut rng,
    )
    .unwrap();
    assert_eq!(t.report().half_rounds, 4, "§3.3.3: 2 rounds");
}
