//! Micro-benchmarks of the substrates: the constant factors behind every
//! protocol cost (modular exponentiation, homomorphic operations, garbling,
//! interpolation, symmetric primitives).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spfe::circuits::builders::sum_circuit;
use spfe::crypto::{
    chacha, ChaChaRng, HomomorphicPk, HomomorphicScheme, HomomorphicSk, Paillier, Sha256,
};
use spfe::math::{modular, Fp64, Montgomery, Nat, Poly, XorShiftRng};
use spfe::mpc::garble;
use std::hint::black_box;

fn bench_bignum(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(1);
    let mut group = c.benchmark_group("bignum");
    let a = Nat::random_bits(&mut rng, 1024);
    let b = Nat::random_bits(&mut rng, 1024);
    group.bench_function("mul_1024", |bench| bench.iter(|| black_box(&a * &b)));
    let m = Nat::random_exact_bits(&mut rng, 512);
    group.bench_function("div_rem_2048_by_512", |bench| {
        let big = a.mul(&b);
        bench.iter(|| black_box(big.div_rem(&m)))
    });
    let modulus = {
        let mut v = Nat::random_exact_bits(&mut rng, 512);
        v.set_bit(0, true);
        v
    };
    let mont = Montgomery::new(modulus.clone());
    let base = Nat::random_bits(&mut rng, 512);
    let exp = Nat::random_bits(&mut rng, 512);
    group.bench_function("modexp_512", |bench| {
        bench.iter(|| black_box(mont.pow(&base, &exp)))
    });
    group.bench_function("mod_inv_512", |bench| {
        bench.iter(|| black_box(modular::mod_inv(&base, &modulus)))
    });
    group.finish();
}

fn bench_paillier(c: &mut Criterion) {
    let mut rng = ChaChaRng::from_u64_seed(1);
    let (pk, sk) = Paillier::keygen(512, &mut rng);
    let mut group = c.benchmark_group("paillier_512");
    group.sample_size(20);
    let m = Nat::from(123_456u64);
    group.bench_function("encrypt", |bench| {
        bench.iter(|| black_box(pk.encrypt(&m, &mut rng)))
    });
    let ct = pk.encrypt(&m, &mut rng);
    group.bench_function("decrypt", |bench| bench.iter(|| black_box(sk.decrypt(&ct))));
    group.bench_function("add", |bench| bench.iter(|| black_box(pk.add(&ct, &ct))));
    group.bench_function("mul_const_20bit", |bench| {
        bench.iter(|| black_box(pk.mul_const(&ct, &Nat::from(777_777u64))))
    });
    group.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetric");
    let data = vec![0xABu8; 1 << 16];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_64k", |bench| {
        bench.iter(|| black_box(Sha256::digest(&data)))
    });
    group.bench_function("chacha20_64k", |bench| {
        bench.iter(|| black_box(chacha::keystream(&[7u8; 32], &[0u8; 12], data.len())))
    });
    group.finish();
}

fn bench_garbling(c: &mut Criterion) {
    let mut group = c.benchmark_group("garbling");
    for m in [4usize, 16] {
        let circuit = sum_circuit(m, 8);
        group.bench_function(format!("garble_sum_m{m}"), |bench| {
            bench.iter(|| black_box(garble::garble(&circuit, [1u8; 32])))
        });
        let (gc, secrets) = garble::garble(&circuit, [1u8; 32]);
        let labels: Vec<garble::Label> = (0..circuit.num_inputs())
            .map(|i| secrets.input_label(i, i % 2 == 0))
            .collect();
        group.bench_function(format!("evaluate_sum_m{m}"), |bench| {
            bench.iter(|| black_box(garble::evaluate(&circuit, &gc, &labels)))
        });
    }
    group.finish();
}

fn bench_polynomials(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(2);
    let f = Fp64::at_least(1 << 61);
    let mut group = c.benchmark_group("polynomials");
    for deg in [16usize, 64, 256] {
        let p = Poly::random(deg, f, &mut rng);
        let xs: Vec<u64> = (1..=(deg as u64 + 1)).collect();
        let ys = p.eval_many(&xs);
        group.bench_function(format!("interpolate_at0_deg{deg}"), |bench| {
            bench.iter(|| black_box(Poly::interpolate_at(&xs, &ys, 0, f)))
        });
    }
    // The selector-polynomial evaluation that dominates §3.1 server work.
    let db: Vec<u64> = (0..65_536u64).map(|i| i % 997).collect();
    let ell = spfe::circuits::formula::index_bits(db.len());
    let point: Vec<u64> = (0..ell).map(|_| f.random(&mut rng)).collect();
    group.bench_function("selector_eval_n65536", |bench| {
        bench.iter(|| black_box(spfe::circuits::formula::selector_eval(&db, &point, f)))
    });
    // The largest field: the lazy inner product reduces every 4 terms.
    let f63 = Fp64::new(9_223_372_036_854_775_783).expect("largest prime below 2^63");
    let point63: Vec<u64> = (0..ell).map(|_| f63.random(&mut rng)).collect();
    group.bench_function("selector_eval_n65536_p63", |bench| {
        bench.iter(|| black_box(spfe::circuits::formula::selector_eval(&db, &point63, f63)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bignum,
    bench_paillier,
    bench_symmetric,
    bench_garbling,
    bench_polynomials
);
criterion_main!(benches);
