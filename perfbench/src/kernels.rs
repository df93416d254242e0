//! Kernel unit costs, from direct calls into `spfe-crypto`, `spfe-math`
//! and `spfe-circuits`. Each is the median of repeated single calls.

use crate::trace::Tracer;
use spfe_circuits::formula::selector_eval;
use spfe_crypto::{ChaChaRng, HomomorphicPk, HomomorphicSk, PaillierPk, PaillierSk};
use spfe_math::{Fp64, Montgomery, Nat, Poly};
use std::hint::black_box;
use std::time::Instant;

/// Median single-call costs of the kernels the workloads lean on.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// Paillier encryption, µs.
    pub encrypt_us: f64,
    /// Paillier decryption, µs.
    pub decrypt_us: f64,
    /// Homomorphic addition, µs.
    pub add_us: f64,
    /// Homomorphic multiplication by a scalar below 1000 (the `hom-scan`
    /// database range), µs.
    pub mul_const_us: f64,
    /// Montgomery exponentiation mod N² with a full-width exponent, µs.
    pub pow_us: f64,
    /// Lagrange interpolation at 0 through 17 points, µs.
    pub interpolate_at_us: f64,
    /// One selector-polynomial evaluation over the `ms-sum` database, ms.
    pub selector_eval_ms: f64,
}

/// Times `f` one call at a time until it ran at least `min_reps` times and
/// for at least `min_secs`; returns the median call time in µs.
fn median_us(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&samples)
}

/// Measures every kernel: Paillier and Montgomery at the key `pk`/`sk`
/// (the `hom-scan` size), interpolation at `k` points and selector
/// evaluation over `db` in `field`.
pub fn measure(
    pk: &PaillierPk,
    sk: &PaillierSk,
    db: &[u64],
    field: Fp64,
    k: usize,
    tracer: &Tracer,
) -> KernelCosts {
    let mut rng = ChaChaRng::from_u64_seed(0x5EED_CAFE);
    let ct_a = pk.encrypt(&Nat::from(17u64), &mut rng);
    let ct_b = pk.encrypt(&Nat::from(25u64), &mut rng);
    let small = Nat::from(999u64);
    let span = |name: &'static str, f: &mut dyn FnMut() -> f64| tracer.span("kernel", name, f);

    let encrypt_us = span("paillier.encrypt", &mut || {
        median_us(5, 0.3, || {
            black_box(pk.encrypt(black_box(&small), &mut rng));
        })
    });
    let decrypt_us = span("paillier.decrypt", &mut || {
        median_us(5, 0.3, || {
            black_box(sk.decrypt(black_box(&ct_a)));
        })
    });
    let add_us = span("paillier.add", &mut || {
        median_us(200, 0.1, || {
            black_box(pk.add(black_box(&ct_a), black_box(&ct_b)));
        })
    });
    let mul_const_us = span("paillier.mul_const", &mut || {
        median_us(100, 0.1, || {
            black_box(pk.mul_const(black_box(&ct_a), black_box(&small)));
        })
    });

    let n_sq = pk.n_squared().clone();
    let mont = Montgomery::new(n_sq.clone());
    let mut rng = ChaChaRng::from_u64_seed(0x5EED_BEEF);
    let base = Nat::random_below(&mut rng, &n_sq);
    let exp = Nat::random_exact_bits(&mut rng, n_sq.bit_len());
    let pow_us = span("montgomery.pow", &mut || {
        median_us(5, 0.3, || {
            black_box(mont.pow(black_box(&base), black_box(&exp)));
        })
    });

    let xs: Vec<u64> = (1..=k as u64).collect();
    let ys: Vec<u64> = xs.iter().map(|_| field.random(&mut rng)).collect();
    let interpolate_at_us = span("poly.interpolate_at", &mut || {
        median_us(1000, 0.05, || {
            black_box(Poly::interpolate_at(
                black_box(&xs),
                black_box(&ys),
                0,
                field,
            ));
        })
    });

    let ell = spfe_circuits::formula::index_bits(db.len());
    let y: Vec<u64> = (0..ell).map(|_| field.random(&mut rng)).collect();
    let selector_eval_ms = span("circuits.selector_eval", &mut || {
        median_us(5, 0.1, || {
            black_box(selector_eval(black_box(db), black_box(&y), field));
        })
    }) / 1e3;

    KernelCosts {
        encrypt_us,
        decrypt_us,
        add_us,
        mul_const_us,
        pow_us,
        interpolate_at_us,
        selector_eval_ms,
    }
}
