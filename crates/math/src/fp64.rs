//! Fast dynamic prime fields with word-sized moduli.
//!
//! [`Fp64`] is the workhorse field of the SPFE protocols: the multi-server
//! multivariate-polynomial protocol (§3.1 of the paper), the polynomial-masked
//! input selection (§3.3.2), and the statistical protocols (§4) all compute in
//! `Z_p` for a prime `p` chosen per-instance (e.g. `p > n`, or `p` larger than
//! the maximum possible sum). Elements are plain `u64` residues; all
//! arithmetic routes through `u128` intermediates.

use crate::prime::{is_prime_u64, next_prime_u64};
use crate::rand_src::RandomSource;

/// A prime field `Z_p` with `p < 2^63`.
///
/// # Examples
///
/// ```
/// use spfe_math::Fp64;
/// let f = Fp64::new(101).unwrap();
/// let a = f.from_u64(70);
/// let b = f.from_u64(50);
/// assert_eq!(f.add(a, b), 19);
/// assert_eq!(f.mul(f.inv(a).unwrap(), a), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp64 {
    p: u64,
}

impl Fp64 {
    /// Creates the field `Z_p`.
    ///
    /// # Errors
    ///
    /// Returns `None` if `p` is not prime or `p >= 2^63`.
    pub fn new(p: u64) -> Option<Self> {
        if p >= 1 << 63 || !is_prime_u64(p) {
            return None;
        }
        Some(Fp64 { p })
    }

    /// The smallest prime field with `p >= min` (and `p < 2^63`).
    ///
    /// # Panics
    ///
    /// Panics if no such prime exists below `2^63`.
    pub fn at_least(min: u64) -> Self {
        // `next_prime_u64` returns a proven prime: only the bound is left.
        let p = next_prime_u64(min.max(2));
        assert!(p < 1 << 63, "prime exceeds 2^63");
        Fp64 { p }
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Canonical representative of `v mod p`.
    pub fn from_u64(&self, v: u64) -> u64 {
        v % self.p
    }

    /// Canonical representative of a signed value.
    pub fn from_i64(&self, v: i64) -> u64 {
        (v.rem_euclid(self.p as i64)) as u64
    }

    /// `(a + b) mod p` for canonical `a`, `b`.
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        let s = a + b;
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    /// `(a - b) mod p`.
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// `-a mod p`.
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.p);
        if a == 0 {
            0
        } else {
            self.p - a
        }
    }

    /// `(a * b) mod p`.
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        (a as u128 * b as u128 % self.p as u128) as u64
    }

    /// `a^e mod p`.
    pub fn pow(&self, mut a: u64, mut e: u64) -> u64 {
        debug_assert!(a < self.p);
        let mut acc = 1u64 % self.p;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, a);
            }
            a = self.mul(a, a);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse, if `a != 0`.
    ///
    /// # Errors
    ///
    /// Returns `None` for `a == 0`.
    pub fn inv(&self, a: u64) -> Option<u64> {
        if a == 0 {
            return None;
        }
        // Fermat: a^(p-2).
        Some(self.pow(a, self.p - 2))
    }

    /// Batch inversion (Montgomery's trick): inverts all non-zero inputs with
    /// a single field inversion.
    ///
    /// # Panics
    ///
    /// Panics if any input is zero.
    pub fn batch_inv(&self, values: &[u64]) -> Vec<u64> {
        if values.is_empty() {
            return Vec::new();
        }
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = 1u64;
        for &v in values {
            assert_ne!(v, 0, "batch_inv of zero");
            prefix.push(acc);
            acc = self.mul(acc, v);
        }
        let mut inv_acc = self.inv(acc).expect("product non-zero");
        let mut out = vec![0u64; values.len()];
        for i in (0..values.len()).rev() {
            out[i] = self.mul(inv_acc, prefix[i]);
            inv_acc = self.mul(inv_acc, values[i]);
        }
        out
    }

    /// `a / b mod p`.
    ///
    /// # Errors
    ///
    /// Returns `None` for `b == 0`.
    pub fn div(&self, a: u64, b: u64) -> Option<u64> {
        Some(self.mul(a, self.inv(b)?))
    }

    /// Uniformly random field element.
    pub fn random<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_below(self.p)
    }

    /// Uniformly random non-zero field element.
    pub fn random_nonzero<R: RandomSource + ?Sized>(&self, rng: &mut R) -> u64 {
        1 + rng.next_below(self.p - 1)
    }

    /// Sum of a slice of canonical elements.
    pub fn sum(&self, values: &[u64]) -> u64 {
        values.iter().fold(0, |acc, &v| self.add(acc, v))
    }

    /// Inner product `Σ a_i · b_i mod p`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn inner_product(&self, a: &[u64], b: &[u64]) -> u64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .fold(0, |acc, (&x, &y)| self.add(acc, self.mul(x, y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_src::XorShiftRng;
    use proptest::prelude::*;

    #[test]
    fn construction() {
        assert!(Fp64::new(101).is_some());
        assert!(Fp64::new(100).is_none());
        assert!(Fp64::new(u64::MAX).is_none());
        assert_eq!(Fp64::at_least(1000).modulus(), 1009);
    }

    #[test]
    fn field_axioms_small() {
        let f = Fp64::new(7).unwrap();
        for a in 0..7 {
            for b in 0..7 {
                assert_eq!(f.add(a, b), (a + b) % 7);
                assert_eq!(f.sub(f.add(a, b), b), a);
                assert_eq!(f.mul(a, b), a * b % 7);
            }
            if a != 0 {
                assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
            }
        }
    }

    #[test]
    fn batch_inv_matches_single() {
        let f = Fp64::at_least(1 << 61);
        let vals: Vec<u64> = (1..50u64).map(|i| i * 12_345 + 7).collect();
        let batch = f.batch_inv(&vals);
        for (v, inv) in vals.iter().zip(&batch) {
            assert_eq!(*inv, f.inv(*v).unwrap());
        }
        assert!(f.batch_inv(&[]).is_empty());
    }

    #[test]
    fn inner_product_known() {
        let f = Fp64::new(11).unwrap();
        assert_eq!(f.inner_product(&[1, 2, 3], &[4, 5, 6]), (4 + 10 + 18) % 11);
    }

    #[test]
    fn random_nonzero_never_zero() {
        let f = Fp64::new(3).unwrap();
        let mut rng = XorShiftRng::new(9);
        for _ in 0..100 {
            assert_ne!(f.random_nonzero(&mut rng), 0);
        }
    }

    proptest! {
        #[test]
        fn prop_axioms_large_modulus(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let f = Fp64::at_least((1 << 62) + 1);
            let (a, b, c) = (f.from_u64(a), f.from_u64(b), f.from_u64(c));
            // Associativity + commutativity + distributivity.
            prop_assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
            prop_assert_eq!(f.mul(a, b), f.mul(b, a));
            prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
            // Inverses.
            prop_assert_eq!(f.add(a, f.neg(a)), 0);
            if a != 0 {
                prop_assert_eq!(f.mul(a, f.inv(a).unwrap()), 1);
            }
        }

        #[test]
        fn prop_pow_matches_repeated_mul(a in any::<u64>(), e in 0u64..64) {
            let f = Fp64::at_least(1 << 32);
            let a = f.from_u64(a);
            let mut expect = 1u64;
            for _ in 0..e { expect = f.mul(expect, a); }
            prop_assert_eq!(f.pow(a, e), expect);
        }

        #[test]
        fn prop_from_i64_consistent(v in any::<i64>()) {
            let f = Fp64::new(1_000_003).unwrap();
            let r = f.from_i64(v);
            prop_assert!(r < f.modulus());
            prop_assert_eq!(f.from_i64(v + 1_000_003), r);
        }
    }
}
