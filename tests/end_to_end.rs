//! Cross-crate integration tests: every SPFE construction against the same
//! databases and ground truth, exercising the full stack (math → crypto →
//! ot/pir → mpc → core) through the public facade.

use spfe::circuits::builders::{frequency_circuit, sum_circuit};
use spfe::circuits::formula::{BinOp, Formula};
use spfe::core::database::{reference, Database};
use spfe::core::input_select::select1;
use spfe::core::multiserver::{self, MsFunction, MultiServerParams};
use spfe::core::psm_spfe;
use spfe::core::stats;
use spfe::core::two_phase;
use spfe::core::Statistic;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe::math::{Fp64, XorShiftRng};
use spfe::pir::poly_it::PolyItParams;
use spfe::transport::Transcript;

struct Setup {
    group: SchnorrGroup,
    pk: PaillierPk,
    sk: PaillierSk,
    spk: PaillierPk,
    ssk: PaillierSk,
    rng: ChaChaRng,
}

fn setup() -> Setup {
    let mut rng = ChaChaRng::from_u64_seed(0xE2E);
    let group = SchnorrGroup::generate(96, &mut rng);
    let (pk, sk) = Paillier::keygen(160, &mut rng);
    let (spk, ssk) = Paillier::keygen(160, &mut rng);
    Setup {
        group,
        pk,
        sk,
        spk,
        ssk,
        rng,
    }
}

#[test]
fn all_five_singleserver_constructions_agree() {
    let mut s = setup();
    let db: Vec<u64> = (0..128u64).map(|i| (i * 29 + 7) % 200).collect();
    let indices = [5usize, 63, 99, 127];
    let truth = reference::sum(&db, &indices);
    let field = Fp64::at_least(1_000);

    // §3.2 PSM.
    let circuit = sum_circuit(indices.len(), 8);
    let mut t = Transcript::new(1);
    let got = psm_spfe::run_yao_psm(
        &mut t, &s.group, &s.pk, &s.sk, &db, &indices, &circuit, 8, &mut s.rng,
    )
    .unwrap();
    assert_eq!(got, truth, "§3.2");

    // §3.3.1 + Yao.
    let mut t = Transcript::new(1);
    let got = two_phase::run_select1_yao(
        &mut t,
        &s.group,
        &s.pk,
        &s.sk,
        &db,
        &indices,
        &Statistic::Sum,
        field,
        &mut s.rng,
    )
    .unwrap();
    assert_eq!(got[0], truth, "§3.3.1");

    // §3.3.2 v1 + Yao.
    let mut t = Transcript::new(1);
    let got = two_phase::run_select2v1_yao(
        &mut t,
        &s.group,
        &s.pk,
        &s.sk,
        &db,
        &indices,
        &Statistic::Sum,
        field,
        &mut s.rng,
    )
    .unwrap();
    assert_eq!(got[0], truth, "§3.3.2/v1");

    // §3.3.2 v2 + Yao.
    let mut t = Transcript::new(1);
    let got = two_phase::run_select2v2_yao(
        &mut t,
        &s.group,
        &s.pk,
        &s.sk,
        &s.spk,
        &s.ssk,
        &db,
        &indices,
        &Statistic::Sum,
        field,
        &mut s.rng,
    )
    .unwrap();
    assert_eq!(got[0], truth, "§3.3.2/v2");

    // §3.3.3 + §3.3.4.
    let mut t = Transcript::new(1);
    let got = two_phase::run_select3_arith(
        &mut t,
        &s.group,
        &s.pk,
        &s.sk,
        &s.spk,
        &s.ssk,
        &db,
        &indices,
        &Statistic::Sum,
        &mut s.rng,
    )
    .unwrap();
    assert_eq!(got[0].to_u64().unwrap(), truth, "§3.3.3");
}

#[test]
fn multi_server_and_single_server_agree() {
    let mut s = setup();
    let db: Vec<u64> = (0..64u64).map(|i| i * 3 + 1).collect();
    let indices = [0usize, 31, 63];
    let truth = reference::sum(&db, &indices);
    let field = Fp64::at_least(1_000);

    let params = MultiServerParams::new(db.len(), 2, field, MsFunction::Sum { m: 3 });
    let mut t = Transcript::new(params.num_servers());
    let ms = multiserver::run(&mut t, &params, &db, &indices, Some(42), &mut s.rng).unwrap();
    assert_eq!(ms, [truth]);

    let mut t = Transcript::new(1);
    let ws = stats::weighted_sum(
        &mut t,
        &s.group,
        &s.pk,
        &s.sk,
        &[&db],
        &indices,
        &[1, 1, 1],
        field,
        &mut s.rng,
    )
    .unwrap();
    assert_eq!(ws, [truth]);
}

#[test]
fn census_workload_full_pipeline() {
    let mut s = setup();
    let mut wrng = XorShiftRng::new(0xCE25);
    let db = Database::census(400, &mut wrng);
    let bracket = db.public()[10].age_bracket;
    let mut sample = db.select_by_age(bracket);
    sample.truncate(6);
    assert!(sample.len() >= 2);

    let field = db.field_for_sums(sample.len());
    let mut t = Transcript::new(1);
    let got = stats::weighted_sum(
        &mut t,
        &s.group,
        &s.pk,
        &s.sk,
        &[db.values()],
        &sample,
        &vec![1; sample.len()],
        field,
        &mut s.rng,
    )
    .unwrap();
    assert_eq!(got, [reference::sum(db.values(), &sample)]);
}

#[test]
fn boolean_formula_spfe_multiserver() {
    let mut s = setup();
    // "was product A patented AND (B OR C)?" over a Boolean database.
    let db: Vec<u64> = (0..32).map(|i| (i % 3 == 0) as u64).collect();
    let phi = Formula::gate(
        BinOp::And,
        Formula::leaf(0),
        Formula::gate(BinOp::Or, Formula::leaf(1), Formula::leaf(2)),
    );
    let field = Fp64::at_least(10_000);
    let params = MultiServerParams::new(db.len(), 1, field, MsFunction::Formula(phi.clone()));
    for indices in [[0usize, 3, 7], [1, 2, 4], [30, 9, 6]] {
        let mut t = Transcript::new(params.num_servers());
        let got = multiserver::run(&mut t, &params, &db, &indices, None, &mut s.rng).unwrap();
        let expect = phi.evaluate(&[
            db[indices[0]] == 1,
            db[indices[1]] == 1,
            db[indices[2]] == 1,
        ]);
        assert_eq!(got, [expect as u64], "{indices:?}");
    }
}

#[test]
fn bp_psm_matches_formula_semantics() {
    let mut s = setup();
    let db: Vec<u64> = (0..16).map(|i| (i % 2) as u64).collect();
    let bp = spfe::circuits::BranchingProgram::and_of(3);
    let field = Fp64::at_least(1_000_003);
    let params = PolyItParams::new(db.len(), 1, field);
    let indices = [1usize, 3, 5]; // all odd → all 1 → AND = 1
    let mut t = Transcript::new(params.num_servers());
    let got = psm_spfe::run_bp_psm(&mut t, &params, &bp, &db, &indices, 9, &mut s.rng).unwrap();
    assert_eq!(got, 1);
    let indices2 = [0usize, 3, 5]; // db[0] = 0 → AND = 0
    let mut t2 = Transcript::new(params.num_servers());
    let got2 = psm_spfe::run_bp_psm(&mut t2, &params, &bp, &db, &indices2, 10, &mut s.rng).unwrap();
    assert_eq!(got2, 0);
}

#[test]
fn frequency_both_routes_agree_on_census_data() {
    let mut s = setup();
    let db = vec![10u64, 20, 10, 30, 10, 20, 40, 10];
    let indices = [0usize, 2, 3, 4, 7];
    let keyword = 10u64;
    let truth = reference::frequency(&db, &indices, keyword);
    let field = Fp64::at_least(101);

    let mut t = Transcript::new(1);
    let shares = select1(
        &mut t, &s.group, &s.pk, &s.sk, &db, &indices, field, &mut s.rng,
    )
    .unwrap();
    let f1 = stats::frequency(
        &mut t,
        &s.pk,
        &s.sk,
        &shares,
        &vec![keyword; indices.len()],
        &mut s.rng,
    )
    .unwrap();

    let mut t2 = Transcript::new(1);
    let f2 = two_phase::run_select1_yao(
        &mut t2,
        &s.group,
        &s.pk,
        &s.sk,
        &db,
        &indices,
        &Statistic::Frequency { keyword },
        field,
        &mut s.rng,
    )
    .unwrap()[0];

    // And the PSM route with a frequency circuit.
    let circuit = frequency_circuit(indices.len(), 6, keyword);
    let mut t3 = Transcript::new(1);
    let f3 = psm_spfe::run_yao_psm(
        &mut t3, &s.group, &s.pk, &s.sk, &db, &indices, &circuit, 6, &mut s.rng,
    )
    .unwrap();

    assert_eq!(f1, truth);
    assert_eq!(f2, truth);
    assert_eq!(f3, truth);
}

#[test]
fn goldwasser_micali_as_alternative_scheme() {
    // The HomomorphicPk abstraction lets GM stand in where plaintexts are
    // bits: here, a toy select1 over Z_2 with the Boolean Yao phase.
    use spfe::crypto::{GoldwasserMicali, HomomorphicPk, HomomorphicSk};
    let mut rng = ChaChaRng::from_u64_seed(0x6A11);
    let (gpk, gsk) = GoldwasserMicali::keygen(128, &mut rng);
    // XOR-share a bit through the GM layer.
    let x = spfe::math::Nat::one();
    let a = spfe::math::Nat::zero();
    let ct = gpk.add(&gpk.encrypt(&x, &mut rng), &gpk.encrypt(&a, &mut rng));
    assert_eq!(gsk.decrypt(&ct), spfe::math::Nat::one());
}
