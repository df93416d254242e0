//! E10 — the (S)PIR substrate: single vs batched retrieval, plus the
//! information-theoretic schemes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spfe::math::{Fp64, XorShiftRng};
use spfe::pir::poly_it::{self, PolyItParams};
use spfe::pir::{batched, spir, xor2, SpirParams};
use spfe::transport::Transcript;
use spfe_bench::{make_db, make_indices, Bench};
use std::hint::black_box;

fn bench_single_spir_scaling(c: &mut Criterion) {
    let mut b = Bench::new();
    let mut group = c.benchmark_group("spir_single");
    group.sample_size(10);
    for n in [256usize, 1_024, 4_096] {
        let db = make_db(n, 1_000);
        let params = SpirParams::new(b.group.clone(), n);
        group.bench_with_input(BenchmarkId::new("n", n), &n, |bench, _| {
            bench.iter(|| {
                let mut t = Transcript::new(1);
                black_box(spir::run(
                    &mut t,
                    &params,
                    &b.pk,
                    &b.sk,
                    &db,
                    n / 2,
                    &mut b.rng,
                ))
            })
        });
    }
    group.finish();
}

/// The tentpole measurement: the server's Ω(n) PIR scan, serial (1 thread)
/// vs the worker pool (4 threads). Transcripts are byte-identical either
/// way; only wall-clock may differ.
fn bench_parallel_scan(c: &mut Criterion) {
    use spfe::math::par;
    use spfe::pir::hom_pir::{self, Layout};
    let mut b = Bench::new();
    let mut group = c.benchmark_group("pir_scan_threads");
    group.sample_size(10);
    for n in [1_024usize, 4_096] {
        let db = make_db(n, 1_000);
        let layout = Layout::square(n);
        let q = hom_pir::client_query(&b.pk, &b.sk, &layout, n / 2, &mut b.rng);
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(&format!("n{n}_threads"), threads),
                &threads,
                |bench, &threads| {
                    par::set_threads(Some(threads));
                    bench.iter(|| black_box(hom_pir::server_answer(&b.pk, &layout, &db, &q)));
                    par::set_threads(None);
                },
            );
        }
    }
    group.finish();
}

fn bench_batched_vs_independent(c: &mut Criterion) {
    let mut b = Bench::new();
    let n = 2_048;
    let db = make_db(n, 1_000);
    let mut group = c.benchmark_group("spir_batched_vs_independent");
    group.sample_size(10);
    for m in [4usize, 16] {
        let indices = make_indices(n, m);
        group.bench_with_input(BenchmarkId::new("batched_m", m), &m, |bench, _| {
            bench.iter(|| {
                let mut t = Transcript::new(1);
                black_box(batched::run(
                    &mut t, &b.group, &b.pk, &b.sk, &db, &indices, &mut b.rng,
                ))
            })
        });
        let params = SpirParams::new(b.group.clone(), n);
        group.bench_with_input(BenchmarkId::new("independent_m", m), &m, |bench, _| {
            bench.iter(|| {
                let mut t = Transcript::new(1);
                for &i in &indices {
                    black_box(
                        spir::run(&mut t, &params, &b.pk, &b.sk, &db, i, &mut b.rng).unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

fn bench_recursion_ablation(c: &mut Criterion) {
    let mut b = Bench::new();
    let mut group = c.benchmark_group("pir_recursion");
    group.sample_size(10);
    for n in [1_024usize, 8_192] {
        let db = make_db(n, 1_000);
        group.bench_with_input(BenchmarkId::new("sqrt_n", n), &n, |bench, _| {
            bench.iter(|| {
                let mut t = Transcript::new(1);
                black_box(spfe::pir::hom_pir::run(
                    &mut t,
                    &b.pk,
                    &b.sk,
                    &db,
                    n / 2,
                    &mut b.rng,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("cube_root_n", n), &n, |bench, _| {
            bench.iter(|| {
                let mut t = Transcript::new(1);
                black_box(spfe::pir::recursive::run(
                    &mut t,
                    &b.pk,
                    &b.sk,
                    &db,
                    n / 2,
                    &mut b.rng,
                ))
            })
        });
    }
    group.finish();
}

fn bench_it_schemes(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(5);
    let n = 4_096;
    let mut group = c.benchmark_group("pir_information_theoretic");
    group.sample_size(20);

    let byte_db: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 256) as u8; 8]).collect();
    group.bench_function("xor2_2server", |bench| {
        bench.iter(|| {
            let mut t = Transcript::new(2);
            black_box(xor2::run(&mut t, &byte_db, n / 3, &mut rng))
        })
    });

    let db = make_db(n, 1_000);
    let field = Fp64::at_least(1 << 20);
    let params = PolyItParams::new(n, 1, field);
    let k = params.num_servers();
    group.bench_function("poly_it_kserver", |bench| {
        bench.iter(|| {
            let mut t = Transcript::new(k);
            black_box(poly_it::run(&mut t, &params, &db, n / 3, None, &mut rng))
        })
    });
    group.bench_function("poly_it_symmetric", |bench| {
        bench.iter(|| {
            let mut t = Transcript::new(k);
            black_box(poly_it::run(&mut t, &params, &db, n / 3, Some(9), &mut rng))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_spir_scaling,
    bench_parallel_scan,
    bench_batched_vs_independent,
    bench_recursion_ablation,
    bench_it_schemes
);
criterion_main!(benches);
