//! Modular arithmetic over [`Nat`]: gcd, modular inverse, exponentiation,
//! Jacobi symbol, and CRT recombination.

use crate::int::{Int, Sign};
use crate::montgomery::Montgomery;
use crate::nat::Nat;

/// Greatest common divisor (binary GCD).
pub fn gcd(a: &Nat, b: &Nat) -> Nat {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let mut a = a.clone();
    let mut b = b.clone();
    let shift = a.trailing_zeros().min(b.trailing_zeros());
    a = a.shr(a.trailing_zeros());
    loop {
        b = b.shr(b.trailing_zeros());
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b = b.sub(&a);
        if b.is_zero() {
            return a.shl(shift);
        }
    }
}

/// Extended Euclidean algorithm: returns `(g, s, t)` with `s*a + t*b = g = gcd(a, b)`.
pub fn ext_gcd(a: &Nat, b: &Nat) -> (Nat, Int, Int) {
    let mut r0 = Int::from_nat(a.clone());
    let mut r1 = Int::from_nat(b.clone());
    let mut s0 = Int::one();
    let mut s1 = Int::zero();
    let mut t0 = Int::zero();
    let mut t1 = Int::one();
    while !r1.is_zero() {
        let (q, _) = r0.magnitude().div_rem(r1.magnitude());
        let q = Int::from_nat(q); // r0, r1 stay non-negative throughout
        let r2 = &r0 - &q.mul(&r1);
        let s2 = &s0 - &q.mul(&s1);
        let t2 = &t0 - &q.mul(&t1);
        r0 = r1;
        r1 = r2;
        s0 = s1;
        s1 = s2;
        t0 = t1;
        t1 = t2;
    }
    (r0.magnitude().clone(), s0, t0)
}

/// Modular inverse of `a` modulo `m`, if `gcd(a, m) == 1`.
///
/// # Errors
///
/// Returns `None` when the inverse does not exist.
pub fn mod_inv(a: &Nat, m: &Nat) -> Option<Nat> {
    let a = a.rem(m);
    let (g, s, _) = ext_gcd(&a, m);
    if !g.is_one() {
        return None;
    }
    Some(s.rem_euclid(m))
}

/// `(a + b) mod m` for `a, b < m`.
pub fn mod_add(a: &Nat, b: &Nat, m: &Nat) -> Nat {
    let s = a + b;
    if &s >= m {
        s.sub(m)
    } else {
        s
    }
}

/// `(a - b) mod m` for `a, b < m`.
pub fn mod_sub(a: &Nat, b: &Nat, m: &Nat) -> Nat {
    if a >= b {
        a.sub(b)
    } else {
        m.sub(b).add(a)
    }
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &Nat, b: &Nat, m: &Nat) -> Nat {
    (a * b).rem(m)
}

/// `-a mod m` for `a < m`.
pub fn mod_neg(a: &Nat, m: &Nat) -> Nat {
    if a.is_zero() {
        Nat::zero()
    } else {
        m.sub(a)
    }
}

/// `base^exp mod m`.
///
/// Uses Montgomery exponentiation for odd moduli and plain square-and-multiply
/// otherwise.
///
/// # Panics
///
/// Panics if `m` is zero; `0^0 mod 1 == 0` by convention of residues mod 1.
pub fn mod_pow(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    assert!(!m.is_zero(), "zero modulus");
    if m.is_one() {
        return Nat::zero();
    }
    if m.is_odd() && m.bit_len() > 64 {
        let mont = Montgomery::new(m.clone());
        return mont.pow(base, exp);
    }
    let mut result = Nat::one();
    let mut b = base.rem(m);
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = mod_mul(&result, &b, m);
        }
        if i + 1 < exp.bit_len() {
            b = mod_mul(&b, &b, m);
        }
    }
    result
}

/// Jacobi symbol `(a/n)` for odd `n > 0`; returns -1, 0 or 1.
///
/// # Panics
///
/// Panics if `n` is even or zero.
pub fn jacobi(a: &Nat, n: &Nat) -> i32 {
    assert!(n.is_odd() && !n.is_zero(), "jacobi requires odd n > 0");
    let mut a = a.rem(n);
    let mut n = n.clone();
    let mut result = 1i32;
    while !a.is_zero() {
        let tz = a.trailing_zeros();
        if tz % 2 == 1 {
            // (2/n) = -1 iff n ≡ 3,5 (mod 8)
            let n_mod8 = n.limbs().first().copied().unwrap_or(0) & 7;
            if n_mod8 == 3 || n_mod8 == 5 {
                result = -result;
            }
        }
        a = a.shr(tz);
        // Quadratic reciprocity: flip if both ≡ 3 (mod 4).
        let a_mod4 = a.limbs().first().copied().unwrap_or(0) & 3;
        let n_mod4 = n.limbs().first().copied().unwrap_or(0) & 3;
        if a_mod4 == 3 && n_mod4 == 3 {
            result = -result;
        }
        std::mem::swap(&mut a, &mut n);
        a = a.rem(&n);
    }
    if n.is_one() {
        result
    } else {
        0
    }
}

/// Chinese-remainder recombination: the unique `x mod (m1*m2)` with
/// `x ≡ r1 (mod m1)` and `x ≡ r2 (mod m2)`, for coprime moduli.
///
/// # Errors
///
/// Returns `None` if `m1` and `m2` are not coprime.
pub fn crt_pair(r1: &Nat, m1: &Nat, r2: &Nat, m2: &Nat) -> Option<Nat> {
    Some(garner(r1, m1, r2, m2, &mod_inv(m1, m2)?))
}

/// [`crt_pair`] with Garner's constant `m1_inv = m1⁻¹ mod m2` precomputed,
/// for callers that recombine over the same moduli many times. The result
/// is below `m1·m2` when `r1 < m1`.
pub fn garner(r1: &Nat, m1: &Nat, r2: &Nat, m2: &Nat, m1_inv: &Nat) -> Nat {
    // x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2)
    let diff = mod_sub(&r2.rem(m2), &r1.rem(m2), m2);
    r1.add(&m1.mul(&mod_mul(&diff, m1_inv, m2)))
}

/// Integer square root via Newton's method: `floor(sqrt(n))`.
pub fn isqrt(n: &Nat) -> Nat {
    if n.is_zero() {
        return Nat::zero();
    }
    let mut x = Nat::one().shl(n.bit_len().div_ceil(2));
    loop {
        // x' = (x + n/x) / 2
        let next = (&x + &(n / &x)).shr(1);
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// Signed representative of `a mod m` in `(-m/2, m/2]`.
pub fn centered(a: &Nat, m: &Nat) -> Int {
    let a = a.rem(m);
    let half = m.shr(1);
    if a > half {
        Int::from_sign_mag(Sign::Negative, m.sub(&a))
    } else {
        Int::from_nat(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(v: u64) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn gcd_known() {
        assert_eq!(gcd(&n(48), &n(36)), n(12));
        assert_eq!(gcd(&n(17), &n(13)), n(1));
        assert_eq!(gcd(&Nat::zero(), &n(5)), n(5));
        assert_eq!(gcd(&n(5), &Nat::zero()), n(5));
    }

    #[test]
    fn ext_gcd_bezout() {
        let (g, s, t) = ext_gcd(&n(240), &n(46));
        assert_eq!(g, n(2));
        let lhs = &s.mul(&Int::from(240u64)) + &t.mul(&Int::from(46u64));
        assert_eq!(lhs, Int::from(2u64));
    }

    #[test]
    fn mod_inv_works_and_fails() {
        let inv = mod_inv(&n(3), &n(7)).unwrap();
        assert_eq!(inv, n(5));
        assert!(mod_inv(&n(6), &n(9)).is_none());
    }

    #[test]
    fn mod_pow_known() {
        assert_eq!(mod_pow(&n(2), &n(10), &n(1000)), n(24));
        assert_eq!(mod_pow(&n(5), &Nat::zero(), &n(7)), n(1));
        assert_eq!(mod_pow(&n(0), &n(5), &n(7)), Nat::zero());
    }

    #[test]
    fn mod_pow_fermat_large_odd() {
        // p = 2^127 - 1 (Mersenne prime); a^(p-1) ≡ 1 mod p.
        let p = Nat::from((1u128 << 127) - 1);
        let a = Nat::from(0x1234_5678_9abc_def0u64);
        assert_eq!(mod_pow(&a, &p.sub(&Nat::one()), &p), Nat::one());
    }

    #[test]
    fn jacobi_known() {
        // (1/9) = 1, (2/15) = 1, (7/15) = -1
        assert_eq!(jacobi(&n(1), &n(9)), 1);
        assert_eq!(jacobi(&n(2), &n(15)), 1);
        assert_eq!(jacobi(&n(7), &n(15)), -1);
        assert_eq!(jacobi(&n(15), &n(15)), 0);
    }

    #[test]
    fn jacobi_matches_euler_for_prime() {
        // For prime p, (a/p) ≡ a^((p-1)/2) mod p.
        let p = n(1_000_003);
        for a in [2u64, 3, 5, 10, 999_999] {
            let e = mod_pow(&n(a), &p.sub(&Nat::one()).shr(1), &p);
            let sym = jacobi(&n(a), &p);
            let expect = if e.is_one() {
                1
            } else if e.is_zero() {
                0
            } else {
                -1
            };
            assert_eq!(sym, expect, "a={a}");
        }
    }

    #[test]
    fn crt_recombines() {
        let x = crt_pair(&n(2), &n(3), &n(3), &n(5)).unwrap();
        assert_eq!(x, n(8));
        assert!(crt_pair(&n(1), &n(4), &n(2), &n(6)).is_none());
    }

    #[test]
    fn isqrt_known() {
        assert_eq!(isqrt(&Nat::zero()), Nat::zero());
        assert_eq!(isqrt(&n(1)), n(1));
        assert_eq!(isqrt(&n(15)), n(3));
        assert_eq!(isqrt(&n(16)), n(4));
        assert_eq!(isqrt(&n(17)), n(4));
    }

    #[test]
    fn centered_representative() {
        assert_eq!(centered(&n(6), &n(7)), Int::from(-1i64));
        assert_eq!(centered(&n(3), &n(7)), Int::from(3i64));
    }

    proptest! {
        #[test]
        fn prop_gcd_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            fn g(mut a: u64, mut b: u64) -> u64 {
                while b != 0 { let t = a % b; a = b; b = t; }
                a
            }
            prop_assert_eq!(gcd(&n(a), &n(b)).to_u64().unwrap(), g(a, b));
        }

        #[test]
        fn prop_mod_inv_is_inverse(a in 1u64..u64::MAX, m in 2u64..u64::MAX) {
            if let Some(inv) = mod_inv(&n(a), &n(m)) {
                prop_assert_eq!(mod_mul(&n(a % m), &inv, &n(m)), Nat::one());
            }
        }

        #[test]
        fn prop_mod_pow_matches_naive(b in 0u64..1000, e in 0u64..24, m in 2u64..10_000) {
            let naive = (0..e).fold(1u128, |acc, _| acc * b as u128 % m as u128);
            prop_assert_eq!(mod_pow(&n(b), &n(e), &n(m)).to_u64().unwrap(), naive as u64);
        }

        #[test]
        fn prop_isqrt_invariant(v_hex in "[0-9a-f]{1,40}") {
            let v = Nat::from_hex(&v_hex).unwrap();
            let r = isqrt(&v);
            prop_assert!(r.square() <= v);
            prop_assert!((&r + &Nat::one()).square() > v);
        }

        #[test]
        fn prop_mod_add_sub_cancel(a in any::<u64>(), b in any::<u64>(), m in 2u64..u64::MAX) {
            let (am, bm) = (n(a % m), n(b % m));
            let s = mod_add(&am, &bm, &n(m));
            prop_assert_eq!(mod_sub(&s, &bm, &n(m)), am);
        }
    }
}
