//! Property-based end-to-end tests: protocol correctness over randomized
//! databases, index sets, and parameters, plus decoder robustness against
//! arbitrary bytes.
//!
//! Crypto setup is expensive, so fixtures are shared through a `OnceLock`
//! and the case counts kept moderate.

use proptest::prelude::*;
use spfe::core::input_select;
use spfe::core::multiserver::{self, MsFunction, MultiServerParams};
use spfe::core::stats;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::{Transcript, Wire};
use std::sync::{Mutex, OnceLock};

struct Fixture {
    group: SchnorrGroup,
    pk: PaillierPk,
    sk: PaillierSk,
    spk: PaillierPk,
    ssk: PaillierSk,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaChaRng::from_u64_seed(0x9209);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        Fixture {
            group,
            pk,
            sk,
            spk,
            ssk,
        }
    })
}

fn rng() -> &'static Mutex<ChaChaRng> {
    static RNG: OnceLock<Mutex<ChaChaRng>> = OnceLock::new();
    RNG.get_or_init(|| Mutex::new(ChaChaRng::from_u64_seed(0xF00D)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_select1_reconstructs_any_db(
        db in proptest::collection::vec(0u64..60_000, 4..40),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..6),
    ) {
        let f = fixture();
        let mut r = rng().lock().unwrap();
        let field = Fp64::new(65_537).unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(db.len())).collect();
        let mut t = Transcript::new(1);
        let shares =
            input_select::select1(&mut t, &f.group, &f.pk, &f.sk, &db, &indices, field, &mut *r)
                .unwrap();
        let expect: Vec<u64> = indices.iter().map(|&i| db[i]).collect();
        prop_assert_eq!(shares.reconstruct(), expect);
    }

    #[test]
    fn prop_select3_reconstructs_any_db(
        db in proptest::collection::vec(0u64..1_000, 4..30),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..5),
    ) {
        let f = fixture();
        let mut r = rng().lock().unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(db.len())).collect();
        let mut t = Transcript::new(1);
        let shares = input_select::select3(
            &mut t, &f.group, &f.pk, &f.sk, &f.spk, &f.ssk, &db, &indices, 10, &mut *r,
        )
        .unwrap();
        let got = shares.reconstruct();
        for (g, &i) in got.iter().zip(&indices) {
            prop_assert_eq!(g.to_u64().unwrap(), db[i]);
        }
    }

    #[test]
    fn prop_weighted_sum_any_weights(
        db in proptest::collection::vec(0u64..500, 8..40),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 2..5),
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut r = rng().lock().unwrap();
        let field = Fp64::new(65_537).unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(db.len())).collect();
        let weights: Vec<u64> = (0..indices.len() as u64).map(|k| (seed >> (k % 8)) % 16).collect();
        let mut t = Transcript::new(1);
        let got = stats::weighted_sum(
            &mut t, &f.group, &f.pk, &f.sk, &[&db], &indices, &weights, field, &mut *r,
        )
        .unwrap();
        let expect = indices
            .iter()
            .zip(&weights)
            .fold(0u64, |acc, (&i, &w)| {
                field.add(acc, field.mul(field.from_u64(w), field.from_u64(db[i])))
            });
        prop_assert_eq!(got, vec![expect]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_multiserver_sum_any_db(
        db in proptest::collection::vec(0u64..10_000, 2..64),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 1..5),
        t_priv in 1usize..3,
    ) {
        let mut r = rng().lock().unwrap();
        let field = Fp64::new(1_000_003).unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(db.len())).collect();
        let params =
            MultiServerParams::new(db.len(), t_priv, field, MsFunction::Sum { m: indices.len() });
        let mut t = Transcript::new(params.num_servers());
        let got = multiserver::run(&mut t, &params, &db, &indices, None, &mut *r).unwrap();
        let expect = indices.iter().fold(0u64, |a, &i| field.add(a, db[i]));
        prop_assert_eq!(got, vec![expect]);
    }

    #[test]
    fn prop_decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Every protocol message decoder must reject arbitrary bytes with
        // an error, never a panic.
        let _ = spfe::pir::SpirQuery::from_bytes(&bytes);
        let _ = spfe::pir::SpirAnswer::from_bytes(&bytes);
        let _ = spfe::pir::spir::SpirWordsAnswer::from_bytes(&bytes);
        let _ = spfe::pir::xor2::Xor2Query::from_bytes(&bytes);
        let _ = spfe::pir::hom_pir::HomPirQuery::from_bytes(&bytes);
        let _ = spfe::pir::poly_it::PolyItQuery::from_bytes(&bytes);
        let _ = spfe::ot::OtSetup::from_bytes(&bytes);
        let _ = spfe::ot::OtnQuery::from_bytes(&bytes);
        let _ = spfe::ot::OtnAnswer::from_bytes(&bytes);
        let _ = spfe::mpc::GarbledCircuit::from_bytes(&bytes);
        let _ = spfe::pir::recursive::RecursiveQuery::from_bytes(&bytes);
        let _ = spfe::core::multiserver::MsQuery::from_bytes(&bytes);
        let _ = spfe::math::Nat::from_bytes(&bytes);
    }

    #[test]
    fn prop_real_message_truncations_and_bit_flips_stay_typed(
        cut in any::<proptest::sample::Index>(),
        bit in any::<proptest::sample::Index>(),
    ) {
        // Valid encodings of *real* protocol messages (not just garbage):
        // every strict prefix must be rejected with a WireError, and any
        // single-bit flip must decode or error — never panic. This is the
        // byte-level half of the adversarial conformance contract
        // (DESIGN.md §10); tests/adversarial.rs drives the same faults
        // through the full drivers.
        fn check<T: Wire>(name: &str, v: &T, cut: &proptest::sample::Index, bit: &proptest::sample::Index) {
            let enc = v.to_bytes();
            assert!(T::from_bytes(&enc).is_ok(), "{name}: valid encoding rejected");
            let keep = cut.index(enc.len());
            assert!(
                T::from_bytes(&enc[..keep]).is_err(),
                "{name}: strict prefix {keep}/{} decoded",
                enc.len()
            );
            let mut flipped = enc.clone();
            let b = bit.index(flipped.len() * 8);
            flipped[b / 8] ^= 1 << (b % 8);
            let _ = T::from_bytes(&flipped);
        }
        let f = fixture();
        let mut r = rng().lock().unwrap();
        let db: Vec<u64> = (0..16u64).map(|i| (i * 7 + 3) % 50).collect();
        let field = Fp64::at_least(1_000);

        let (q1, _q2) = spfe::pir::xor2::client_query(db.len(), 5, &mut *r);
        check("xor2-query", &q1, &cut, &bit);

        let layout = spfe::pir::hom_pir::Layout::square(db.len());
        let hq = spfe::pir::hom_pir::client_query(&f.pk, &f.sk, &layout, 3, &mut *r);
        check("hom-pir-query", &hq, &cut, &bit);

        let params = spfe::pir::SpirParams::new(f.group.clone(), db.len());
        let (sq, _st) = spfe::pir::spir::client_query(&params, &f.pk, &f.sk, 7, &mut *r);
        let sa = spfe::pir::spir::server_answer(&params, &f.pk, &db, &sq, &mut *r).unwrap();
        check("spir-query", &sq, &cut, &bit);
        check("spir-answer", &sa, &cut, &bit);

        let pparams = spfe::pir::poly_it::PolyItParams::new(db.len(), 1, field);
        let pqs = spfe::pir::poly_it::client_queries(&pparams, 5, &mut *r);
        check("poly-it-queries", &pqs, &cut, &bit);

        let mparams = MultiServerParams::new(db.len(), 1, field, MsFunction::Sum { m: 2 });
        let mqs = multiserver::client_queries(&mparams, &[3, 10], &mut *r);
        check("ms-queries", &mqs, &cut, &bit);

        let circuit = spfe::circuits::builders::sum_circuit(2, 4);
        let (gc, _secrets) = spfe::mpc::garble::garble(&circuit, [7u8; 32]);
        check("garbled-circuit", &gc, &cut, &bit);

        let (yq, _yst) = spfe::mpc::yao2pc::client_query(&f.group, &[true, false, true], &mut *r);
        check("yao-query", &yq, &cut, &bit);
    }

    #[test]
    fn prop_share_shift_weak_security(
        db in proptest::collection::vec(0u64..100, 4..20),
        pick in any::<proptest::sample::Index>(),
        delta in 1u64..100,
    ) {
        // Weak security, property-tested: any client-side share shift Δ
        // yields exactly f(x + Δ).
        let f = fixture();
        let mut r = rng().lock().unwrap();
        let field = Fp64::new(257).unwrap();
        let i = pick.index(db.len());
        let mut t = Transcript::new(1);
        let mut shares =
            input_select::select1(&mut t, &f.group, &f.pk, &f.sk, &db, &[i], field, &mut *r)
                .unwrap();
        shares.client[0] = field.add(shares.client[0], field.from_u64(delta));
        let got = spfe::core::two_phase::yao_phase(
            &mut t,
            &f.group,
            &shares,
            &spfe::core::Statistic::Sum,
            &mut *r,
        )
        .unwrap();
        prop_assert_eq!(got[0], field.add(field.from_u64(db[i]), field.from_u64(delta)));
    }
}
