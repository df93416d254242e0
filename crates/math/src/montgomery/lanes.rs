//! Eight numbers at once: the AVX-512 IFMA lane kernels of the digit walk
//! for eight same-exponent powers ([`SameExpLanes`]) and for eight columns
//! of one [`super::MultiPow`] table ([`StrausLanes`]).
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
//! A batch power's lanes share each digit and one stack table of `x^e·R`.
//! A fold keeps one column per lane and gathers each lane's entry per
//! digit vector. One builder, [`powers`], fills both tables. Results leave
//! the domain as `AMM(x, 1) ≤ n` and one conditional subtraction.
//!
//! Unsafe is confined to this module: calls into `#[target_feature]` code
//! after run-time detection, aligned loads/stores between [`Lane`] and
//! `__m512i`, and the bounds-checked table gathers.
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
/// twice the stack, which a process keeps resident per thread. A Straus
/// walk keeps its table on the heap and needs four rows here.
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

/// Digits per number for a modulus of `bits` bits: `R = 2^(52d) > 4n`.
pub(super) fn digits_for(bits: usize) -> usize {
    (bits + 2).div_ceil(DIGIT_BITS)
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
    /// `R mod n` in 52-bit digits: one in the domain.
    pub(super) one: Vec<u64>,
}

impl LaneConsts {
    /// The constants for odd `n` with `−n⁻¹ mod 2⁶⁴ = n0_inv`.
    pub(super) fn new(n: &Nat, n0_inv: u64) -> Self {
        let d = digits_for(n.bit_len());
        let r = Nat::one().shl(DIGIT_BITS * d).rem(n);
        let r2 = Nat::one().shl(2 * DIGIT_BITS * d).rem(n);
        LaneConsts {
            d,
            n: digits(n.limbs()).take(d).collect(),
            n0_inv: n0_inv & DIGIT_MASK,
            r2: digits(r2.limbs()).take(d).collect(),
            one: digits(r.limbs()).take(d).collect(),
        }
    }

    /// The window width for an exponent of `bits` bits: the scalar
    /// kernel's width, narrowed until `n`, the table and the two working
    /// rows fit the large scratch tier; `None` when even width 1 does not.
    pub(super) fn window(&self, bits: usize) -> Option<usize> {
        (1..=super::window_bits(bits))
            .rev()
            .find(|&w| self.fits((1 << w) + 2))
    }

    /// Whether `rows` numbers fit the scratch.
    pub(super) fn fits(&self, rows: usize) -> bool {
        rows * self.d <= SCRATCH_LARGE
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

/// Appends the first `count` lanes of `x` (digit vectors, low first) to
/// `out` as numbers of `k` limbs, which must hold every nonzero bit.
pub(super) fn push_lanes(x: &[Lane], count: usize, k: usize, out: &mut Vec<Nat>) {
    for lane in 0..count {
        let mut limbs = vec![0; k];
        for (j, v) in x.iter().enumerate().filter(|(_, v)| v.0[lane] != 0) {
            let (pos, shift) = ((DIGIT_BITS * j) / 64, (DIGIT_BITS * j) % 64);
            let bits = (v.0[lane] as u128) << shift;
            limbs[pos] |= bits as u64;
            if (bits >> 64) != 0 {
                limbs[pos + 1] |= (bits >> 64) as u64;
            }
        }
        out.push(Nat::from_limbs(limbs));
    }
}

/// Writes the digits of `v` broadcast to every lane into `out`.
fn broadcast(v: &[u64], out: &mut [Lane]) {
    for (l, &dig) in out.iter_mut().zip(v) {
        l.0 = [dig; LANES];
    }
}

/// The frame of every lane job: runs `f(n, rest)` on `rows` numbers of
/// zeroed stack lanes, the first holding `n` broadcast. Panics unless this
/// CPU has the kernel's features and `c.fits(rows)`.
pub(super) fn frame<T>(
    c: &LaneConsts,
    rows: usize,
    f: impl FnOnce(&[Lane], &mut [Lane]) -> T,
) -> T {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    assert!(c.fits(rows), "lane scratch");
    with_lanes(rows * c.d, |s| {
        let (n, rest) = s.split_at_mut(c.d);
        broadcast(&c.n, n);
        f(n, rest)
    })
}

/// The lane table builder, in a [`frame`]: calls `f(e, x^e·R)` for
/// `e = 1..=count` (`count ≥ 1`), each lane on its own, where `load`
/// writes `x` (lanes below `R`). `s` holds at least three entries: `x·R`,
/// then each later power in the next, `row[e] = row[e − 1]·row[0]`; past
/// the end the last moves back to the second. The powers stay below `2n`.
pub(super) fn powers(
    c: &LaneConsts,
    n: &[Lane],
    s: &mut [Lane],
    load: impl FnOnce(&mut [Lane]),
    count: usize,
    mut f: impl FnMut(usize, &[Lane]),
) {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    let (d, slots) = (c.d, s.len() / c.d);
    assert!(slots >= 3, "lane power shape");
    let (first, rest) = s.split_at_mut(d);
    let (x, r2) = rest.split_at_mut(d);
    load(x);
    broadcast(&c.r2, r2);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `available()` just confirmed avx512f and avx512ifma.
    unsafe {
        // x·R = AMM(x, R² mod n).
        ifma::amm(x, r2, n, c.n0_inv, first);
    }
    f(1, first);
    let mut at = 1;
    for e in 2..=count {
        if at == slots {
            s.copy_within((slots - 1) * d..slots * d, d);
            at = 2;
        }
        let (done, next) = s.split_at_mut(at * d);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        unsafe {
            ifma::amm(&done[(at - 1) * d..], done, n, c.n0_inv, &mut next[..d]);
        }
        f(e, &next[..d]);
        at += 1;
    }
}

/// Eight accumulators in the domain below `2n`, one per lane, and a
/// scratch row: the product and the exit of both lane kernels.
struct Acc<'a> {
    c: &'a LaneConsts,
    n: &'a [Lane],
    acc: &'a mut [Lane],
    tmp: &'a mut [Lane],
}

impl<'a> Acc<'a> {
    /// The accumulator and scratch rows at the front of `s`, in a
    /// [`frame`] with `n`, and the rest of `s`.
    fn split(c: &'a LaneConsts, n: &'a [Lane], s: &'a mut [Lane]) -> (Self, &'a mut [Lane]) {
        let (acc, rest) = s.split_at_mut(c.d);
        let (tmp, rest) = rest.split_at_mut(c.d);
        (Acc { c, n, acc, tmp }, rest)
    }

    /// `acc ← AMM(acc, b)`, or `AMM(acc, acc)` for `None`.
    fn mul(&mut self, b: Option<&[Lane]>) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Acc` exists only inside a `frame`, after
        // `available()` confirmed avx512f and avx512ifma.
        unsafe {
            ifma::amm(
                self.acc,
                b.unwrap_or(self.acc),
                self.n,
                self.c.n0_inv,
                self.tmp,
            );
        }
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    /// Leaves the domain into `x`, each lane fully reduced.
    fn leave(&mut self, x: &mut [Lane]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `mul`.
        unsafe {
            ifma::leave(self.acc, self.n, self.c.n0_inv, x, self.tmp);
        }
    }
}

/// Raises each lane of `x` (`c.d` digit vectors, lanes below `R`) in
/// place, fully reduced, to the exponent that `walk` drives through a
/// [`SameExpLanes`] kernel over `x^e·R` for every non-zero `win`-bit `e`.
pub(super) fn same_exp(
    c: &LaneConsts,
    win: usize,
    x: &mut [Lane],
    walk: impl FnOnce(&mut SameExpLanes<'_>),
) {
    let count = (1 << win) - 1;
    frame(c, count + 3, |n, s| {
        // Entry e lands at (e − 1)·d: `s` holds them all.
        powers(c, n, s, |v| v.copy_from_slice(x), count, |_, _| ());
        let (table, rest) = s.split_at_mut(count * c.d);
        let mut kernel = SameExpLanes {
            a: Acc::split(c, n, rest).0,
            table,
        };
        walk(&mut kernel);
        kernel.a.leave(x);
    })
}

/// The same-exponent lane kernel: every lane takes the entry of the shared
/// digit `digits[0]`, `x^e·R` at `(e − 1)·d` of `table`.
pub(super) struct SameExpLanes<'a> {
    a: Acc<'a>,
    table: &'a [Lane],
}

impl super::StrausKernel for SameExpLanes<'_> {
    fn square(&mut self) {
        self.a.mul(None);
    }

    /// The walk multiplies by non-zero digits only: digit 0 comes only as
    /// the load of one for a zero exponent.
    fn mul(&mut self, _row: usize, digits: &[usize], load: bool) {
        let d = self.a.c.d;
        let entry = |e: usize| &self.table[(e - 1) * d..][..d];
        match (digits[0], load) {
            (0, true) => broadcast(&self.a.c.one, self.a.acc),
            (e, true) => self.a.acc.copy_from_slice(entry(e)),
            (e, false) => self.a.mul(Some(entry(e))),
        }
    }
}

/// The gathering lane kernel: one column per lane, over a table of
/// `c.d`-digit entries `slot` words apart, `per_row` a row after slot 0,
/// which holds one for zero digits and idle lanes.
pub(super) struct StrausLanes<'a> {
    a: Acc<'a>,
    table: &'a [u64],
    slot: usize,
    per_row: usize,
    op: &'a mut [Lane],
}

/// Runs `f` on a [`StrausLanes`] kernel over `table` in a four-row
/// [`frame`]; panics unless `slot ≥ c.d`.
pub(super) fn straus<T>(
    c: &LaneConsts,
    table: &[u64],
    slot: usize,
    per_row: usize,
    f: impl FnOnce(&mut StrausLanes<'_>) -> T,
) -> T {
    assert!(slot >= c.d, "lane Straus shape");
    frame(c, 4, |n, s| {
        let (a, op) = Acc::split(c, n, s);
        f(&mut StrausLanes {
            a,
            table,
            slot,
            per_row,
            op,
        })
    })
}

impl super::StrausKernel for StrausLanes<'_> {
    fn square(&mut self) {
        self.a.mul(None);
    }

    /// Every lane past `digits` takes the one entry.
    fn mul(&mut self, row: usize, digits: &[usize], load: bool) {
        let idx: [usize; LANES] = std::array::from_fn(|l| match digits.get(l) {
            Some(&e) if e != 0 => 1 + row * self.per_row + e - 1,
            _ => 0,
        });
        let last = idx.iter().max().map_or(0, |&i| i * self.slot + self.a.c.d);
        assert!(last <= self.table.len(), "table entry out of range");
        let dst = if load {
            &mut *self.a.acc
        } else {
            &mut *self.op
        };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `StrausLanes` exists only inside a `frame`, after
        // `available()` confirmed avx512f, and every gathered word lies
        // below `last`, which is within the table.
        unsafe {
            ifma::gather(self.table, self.slot, &idx, dst);
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no lane kernel off x86_64: {}", dst.len());
        if !load {
            self.a.mul(Some(self.op));
        }
    }
}

impl StrausLanes<'_> {
    /// Leaves the domain: each lane's result, fully reduced.
    pub(super) fn finish(&mut self) -> &[Lane] {
        self.a.leave(self.op);
        self.op
    }
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{Lane, DIGIT_MASK};
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
    /// digits broadcast, `n0_inv` is `−n⁻¹ mod 2⁵²`. `out` must not alias
    /// `a` or `b`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn amm(a: &[Lane], b: &[Lane], n: &[Lane], n0_inv: u64, out: &mut [Lane]) {
        let n0_inv = _mm512_set1_epi64(n0_inv as i64);
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

    /// `out[j]` = word `idx[l]·slot + j` of `table` in lane `l`, for every
    /// digit vector `j` of `out`.
    ///
    /// # Safety
    ///
    /// Every `idx[l]·slot + out.len()` must be at most `table.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gather(table: &[u64], slot: usize, idx: &[usize; 8], out: &mut [Lane]) {
        let at = |l: usize| (idx[l] * slot) as i64;
        let offsets = _mm512_set_epi64(at(7), at(6), at(5), at(4), at(3), at(2), at(1), at(0));
        for (j, o) in out.iter_mut().enumerate() {
            // SAFETY: word `idx[l]·slot + j` is in the table (the caller's
            // contract), and scale 8 makes the offsets count words.
            let v = unsafe { _mm512_i64gather_epi64::<8>(offsets, table.as_ptr().add(j).cast()) };
            st(o, v);
        }
    }

    /// Leaves the domain into `x`: `AMM(acc, 1) ≤ n`, then `n` subtracted
    /// where the result is at least `n`. `tmp` is scratch.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn leave(acc: &[Lane], n: &[Lane], n0_inv: u64, x: &mut [Lane], tmp: &mut [Lane]) {
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
