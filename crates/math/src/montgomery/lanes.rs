//! Eight same-exponent powers at once: the AVX-512 IFMA lane kernel
//! behind [`super::Montgomery::pow_batch`].
//!
//! A lane vector holds one radix-2⁵² digit of eight numbers, one number
//! per 64-bit lane, so a `d`-digit number set is `d` vectors. With
//! `d = ⌈(bits(n) + 2)/52⌉` digits, `R = 2^(52d) > 4n`, and the
//! almost-Montgomery product `AMM(a, b) = (a·b + m·n)/R` of operands
//! below `2n` stays below `2n` without any subtraction: `a·b < 4n²` and
//! `m·n < R·n` give `AMM < n·(4n/R + 1) < 2n`. The bound needs only
//! `a·b < R·n`, so a plain value below `R` times `R² mod n` enters the
//! domain too. Products are `_mm512_madd52lo/hi_epu64` on 52-bit digits;
//! each row of the product adds at most four 52-bit terms to a digit, so
//! 64-bit accumulators hold `d` rows without normalising until the end
//! of the product (for `d` below 2¹⁰).
//!
//! All lanes walk one fixed-window chain over the shared exponent. The
//! result leaves the domain as `AMM(x, 1) ≤ n` and takes one conditional
//! subtraction.
//!
//! Unsafe is confined to this module: the `#[target_feature]` entry
//! [`pow`] calls once, after run-time detection, and the aligned
//! loads/stores between [`Lane`] and `__m512i`.
#![allow(unsafe_code)]

use super::on_stack;
use crate::nat::Nat;

/// Numbers per lane vector.
pub(super) const LANES: usize = 8;

/// Bits per digit.
const DIGIT_BITS: usize = 52;

const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// One digit of eight numbers, one per lane; aligned for whole-vector
/// loads.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
pub(super) struct Lane(pub(super) [u64; LANES]);

/// Stack scratch tiers (lane vectors), as in the scalar kernel: a small
/// job must not zero a large one's table. The large tier holds a width-4
/// table plus its working rows at 40 digits (a 2048-bit key's `p²`), a
/// width-5 one at 20 (its `p`) and a width-3 one at 79 (its `n²`) in
/// 52 KiB. Wider windows would save 1–12% of the products for about
/// twice the stack, which a process keeps resident per thread.
const SCRATCH_SMALL: usize = 128;
const SCRATCH_LARGE: usize = 832;

/// Runs `f` on `len ≤ SCRATCH_LARGE` zeroed lane vectors on the stack.
pub(super) fn with_lanes<T>(len: usize, f: impl FnOnce(&mut [Lane]) -> T) -> T {
    if len <= SCRATCH_SMALL {
        on_stack::<Lane, SCRATCH_SMALL, T>(len, f)
    } else {
        on_stack::<Lane, SCRATCH_LARGE, T>(len, f)
    }
}

/// Whether this CPU runs the kernel (checked once per call; the standard
/// library caches the detection).
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The lane constants of one modulus.
#[derive(Debug, Clone)]
pub(super) struct LaneConsts {
    /// Digits per number.
    pub(super) d: usize,
    /// `n` in 52-bit digits.
    n: Vec<u64>,
    /// `−n⁻¹ mod 2⁵²`.
    n0_inv: u64,
    /// `R² mod n` in 52-bit digits.
    r2: Vec<u64>,
}

impl LaneConsts {
    /// The constants for odd `n` with `−n⁻¹ mod 2⁶⁴ = n0_inv`.
    pub(super) fn new(n: &Nat, n0_inv: u64) -> Self {
        let d = (n.bit_len() + 2).div_ceil(DIGIT_BITS);
        let r2 = Nat::one().shl(2 * DIGIT_BITS * d).rem(n);
        LaneConsts {
            d,
            n: digits(n.limbs()).take(d).collect(),
            n0_inv: n0_inv & DIGIT_MASK,
            r2: digits(r2.limbs()).take(d).collect(),
        }
    }

    /// The window width for an exponent of `bits` bits: the scalar
    /// kernel's width, narrowed until the table and working rows fit the
    /// large scratch tier; `None` when even width 1 does not.
    pub(super) fn window(&self, bits: usize) -> Option<usize> {
        (1..=super::window_bits(bits))
            .rev()
            .find(|&w| self.scratch_len(w) <= SCRATCH_LARGE)
    }

    /// Lane vectors one power uses at window width `w`: `n`, the table,
    /// the accumulator and the product output.
    fn scratch_len(&self, w: usize) -> usize {
        ((1 << w) + 2) * self.d
    }
}

/// The 52-bit digits of a little-endian limb slice, low first, then
/// zeros without end.
pub(super) fn digits(limbs: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let limb = |i: usize| limbs.get(i).copied().unwrap_or(0);
    (0..).map(move |j: usize| {
        let (pos, shift) = ((DIGIT_BITS * j) / 64, (DIGIT_BITS * j) % 64);
        let bits = (limb(pos) as u128 | (limb(pos + 1) as u128) << 64) >> shift;
        bits as u64 & DIGIT_MASK
    })
}

/// Packs 52-bit digits, low first, into the little-endian limbs `out`;
/// `out` must hold every nonzero bit.
pub(super) fn limbs_from_digits(digits: impl IntoIterator<Item = u64>, out: &mut [u64]) {
    out.fill(0);
    for (j, dig) in digits.into_iter().enumerate().filter(|&(_, g)| g != 0) {
        let (pos, shift) = ((DIGIT_BITS * j) / 64, (DIGIT_BITS * j) % 64);
        let bits = (dig as u128) << shift;
        out[pos] |= bits as u64;
        if (bits >> 64) != 0 {
            out[pos + 1] |= (bits >> 64) as u64;
        }
    }
}

/// Raises each lane of `x` (`c.d` digit vectors, every lane value below
/// `R`) to `exp` modulo `n`, in place; each lane ends fully reduced.
///
/// # Panics
///
/// Panics unless this CPU has the kernel's features, `exp` is nonzero,
/// `x` holds `c.d` vectors and `c.window(exp.bit_len())` is `Some`.
pub(super) fn pow(c: &LaneConsts, x: &mut [Lane], exp: &Nat) {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    assert!(!exp.is_zero() && x.len() == c.d, "lane power shape");
    let win = c.window(exp.bit_len()).expect("lane scratch fits");
    with_lanes(c.scratch_len(win), |s| {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` just confirmed avx512f and avx512ifma on
        // this CPU, the only requirement of the target-feature function.
        unsafe {
            ifma::pow(c, x, exp, win, s);
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no lane kernel off x86_64: {:?}", s.len());
    })
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{Lane, LaneConsts, DIGIT_MASK};
    use crate::nat::Nat;
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn ld(l: &Lane) -> __m512i {
        // SAFETY: `Lane` is 64 initialised bytes aligned to 64.
        unsafe { _mm512_load_si512(l.0.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn st(l: &mut Lane, v: __m512i) {
        // SAFETY: `Lane` is 64 writable bytes aligned to 64.
        unsafe { _mm512_store_si512(l.0.as_mut_ptr().cast(), v) }
    }

    /// `out = AMM(a, b)` with normalised digits; `n` holds the modulus
    /// digits broadcast. `out` must not alias `a` or `b`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm(a: &[Lane], b: &[Lane], n: &[Lane], n0_inv: __m512i, out: &mut [Lane]) {
        let d = out.len();
        let (a, b, n) = (&a[..d], &b[..d], &n[..d]);
        let zero = _mm512_setzero_si512();
        out.fill(Lane::default());
        for bl in b {
            let bi = ld(bl);
            // Row i: t = (t + a·b_i + m·n) / 2⁵², the division folded into
            // the store index as in the scalar CIOS kernel.
            let x0 = _mm512_madd52lo_epu64(ld(&out[0]), ld(&a[0]), bi);
            let m = _mm512_madd52lo_epu64(zero, x0, n0_inv);
            let x0 = _mm512_madd52lo_epu64(x0, m, ld(&n[0]));
            let mut carry = _mm512_srli_epi64::<52>(x0);
            let (mut a_prev, mut n_prev) = (ld(&a[0]), ld(&n[0]));
            for j in 1..d {
                let (aj, nj) = (ld(&a[j]), ld(&n[j]));
                let mut t = _mm512_add_epi64(ld(&out[j]), carry);
                t = _mm512_madd52lo_epu64(t, aj, bi);
                t = _mm512_madd52lo_epu64(t, m, nj);
                t = _mm512_madd52hi_epu64(t, a_prev, bi);
                t = _mm512_madd52hi_epu64(t, m, n_prev);
                st(&mut out[j - 1], t);
                (a_prev, n_prev, carry) = (aj, nj, zero);
            }
            let t = _mm512_madd52hi_epu64(carry, a_prev, bi);
            st(&mut out[d - 1], _mm512_madd52hi_epu64(t, m, n_prev));
        }
        normalize(out);
    }

    /// Carries every digit above 52 bits into the next one.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn normalize(t: &mut [Lane]) {
        let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
        let mut carry = _mm512_setzero_si512();
        for l in t {
            let v = _mm512_add_epi64(ld(l), carry);
            carry = _mm512_srli_epi64::<52>(v);
            st(l, _mm512_and_si512(v, mask));
        }
    }

    /// Writes the digits of `v` broadcast to every lane into `out`.
    #[target_feature(enable = "avx512f")]
    fn broadcast(v: &[u64], out: &mut [Lane]) {
        for (l, &dig) in out.iter_mut().zip(v) {
            st(l, _mm512_set1_epi64(dig as i64));
        }
    }

    /// The fixed-window power of the module docs; `s` holds
    /// `c.scratch_len(win)` vectors.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow(c: &LaneConsts, x: &mut [Lane], exp: &Nat, win: usize, s: &mut [Lane]) {
        let d = c.d;
        let entries = (1 << win) - 1;
        let (n, rest) = s.split_at_mut(d);
        let (table, work) = rest.split_at_mut(entries * d);
        let (mut acc, mut tmp) = work.split_at_mut(d);
        broadcast(&c.n, n);
        let n0_inv = _mm512_set1_epi64(c.n0_inv as i64);
        // table[e − 1] = x^e·R: x·R = AMM(x, R² mod n).
        broadcast(&c.r2, acc);
        amm(x, acc, n, n0_inv, &mut table[..d]);
        for e in 1..entries {
            let (done, next) = table.split_at_mut(e * d);
            amm(&done[(e - 1) * d..], &done[..d], n, n0_inv, &mut next[..d]);
        }
        let entry = |e: usize| &table[(e - 1) * d..][..d];
        let bits = exp.bit_len();
        let top = bits.div_ceil(win) - 1;
        acc.copy_from_slice(entry(super::super::digit(exp, top * win, win)));
        for i in (0..top).rev() {
            for _ in 0..win {
                amm(acc, acc, n, n0_inv, tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let e = super::super::digit(exp, i * win, win);
            if e != 0 {
                amm(acc, entry(e), n, n0_inv, tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        // Leave the domain: AMM(acc, 1) ≤ n, then subtract n where ≥ n.
        x.fill(Lane::default());
        st(&mut x[0], _mm512_set1_epi64(1));
        amm(acc, x, n, n0_inv, tmp);
        let mut borrow = _mm512_setzero_si512();
        for ((l, t), nl) in x.iter_mut().zip(tmp.iter()).zip(n.iter()) {
            let diff = _mm512_sub_epi64(_mm512_sub_epi64(ld(t), ld(nl)), borrow);
            borrow = _mm512_srli_epi64::<63>(diff);
            st(
                l,
                _mm512_and_si512(diff, _mm512_set1_epi64(DIGIT_MASK as i64)),
            );
        }
        let keep = _mm512_cmpneq_epi64_mask(borrow, _mm512_setzero_si512());
        for (l, t) in x.iter_mut().zip(tmp.iter()) {
            st(l, _mm512_mask_mov_epi64(ld(l), keep, ld(t)));
        }
    }
}
