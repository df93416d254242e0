//! Eight numbers at once: the AVX-512 IFMA lane kernel behind
//! [`super::Montgomery::pow_batch`] (eight same-exponent powers) and the
//! [`super::MultiPow`] column fold (eight columns of one Straus table).
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
//! A batch power walks one fixed-window chain over the shared exponent in
//! all lanes. A Straus fold ([`StrausLanes`]) keeps one column per lane
//! and multiplies each lane by the table entry of its own digit, gathered
//! per digit vector. Either result leaves the domain as `AMM(x, 1) ≤ n`
//! and takes one conditional subtraction.
//!
//! Unsafe is confined to this module: the calls into the
//! `#[target_feature]` code from [`pow`], [`powers`] and [`StrausLanes`],
//! each made only after run-time detection, the aligned loads/stores
//! between [`Lane`] and `__m512i`, and the bounds-checked table gathers.
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

    /// Whether a Straus walk's four working rows fit the scratch.
    pub(super) fn straus_fits(&self) -> bool {
        4 * self.d <= SCRATCH_LARGE
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

/// Calls `f(e, x^e·R)` for `e = 1..=count` in order, where `load` writes
/// the numbers `x` (`c.d` digit vectors, every lane value below `R`) and
/// each lane is raised on its own: the rows of a [`super::MultiPow`]
/// table. The powers stay in the domain, below `2n`, as operands of later
/// products.
///
/// # Panics
///
/// Panics unless this CPU has the kernel's features and
/// `c.straus_fits()`.
pub(super) fn powers(
    c: &LaneConsts,
    load: impl FnOnce(&mut [Lane]),
    count: usize,
    mut f: impl FnMut(usize, &[Lane]),
) {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    assert!(c.straus_fits(), "lane power shape");
    let d = c.d;
    with_lanes(4 * d, |s| {
        let (n, rest) = s.split_at_mut(d);
        let (first, rest) = rest.split_at_mut(d);
        let (mut cur, mut next) = rest.split_at_mut(d);
        load(next);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` just confirmed avx512f and avx512ifma.
        unsafe {
            ifma::broadcast(&c.n, n);
            // x·R = AMM(x, R² mod n).
            ifma::broadcast(&c.r2, cur);
            ifma::amm_n0(next, cur, n, c.n0_inv, first);
        }
        if count > 0 {
            f(1, first);
        }
        cur.copy_from_slice(first);
        for e in 2..=count {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            unsafe {
                ifma::amm_n0(cur, first, n, c.n0_inv, next);
            }
            f(e, next);
            std::mem::swap(&mut cur, &mut next);
        }
    })
}

/// The [`super::MultiPow`] walk's lane kernel: one column per lane, each
/// lane's accumulator in the domain below `2n`, over a table of
/// [`LaneConsts::d`]-digit entries, one every `slot` words.
pub(super) struct StrausLanes<'a> {
    c: &'a LaneConsts,
    table: &'a [u64],
    slot: usize,
    /// Table entries per row ([`super::entry_slot`]).
    per_row: usize,
    n: &'a [Lane],
    acc: &'a mut [Lane],
    tmp: &'a mut [Lane],
    op: &'a mut [Lane],
}

/// Runs `f` on a [`StrausLanes`] kernel over `table`.
///
/// # Panics
///
/// Panics unless this CPU has the kernel's features, `c.straus_fits()`
/// and `slot ≥ c.d`.
pub(super) fn straus<T>(
    c: &LaneConsts,
    table: &[u64],
    slot: usize,
    per_row: usize,
    f: impl FnOnce(&mut StrausLanes<'_>) -> T,
) -> T {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    assert!(c.straus_fits() && slot >= c.d, "lane Straus shape");
    let d = c.d;
    with_lanes(4 * d, |s| {
        let (n, rest) = s.split_at_mut(d);
        let (acc, rest) = rest.split_at_mut(d);
        let (tmp, op) = rest.split_at_mut(d);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` just confirmed avx512f and avx512ifma.
        unsafe {
            ifma::broadcast(&c.n, n);
        }
        f(&mut StrausLanes {
            c,
            table,
            slot,
            per_row,
            n,
            acc,
            tmp,
            op,
        })
    })
}

impl super::StrausKernel for StrausLanes<'_> {
    fn square(&mut self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `StrausLanes` exists only inside `straus`, after
        // `available()` confirmed avx512f and avx512ifma.
        unsafe {
            ifma::amm_n0(self.acc, self.acc, self.n, self.c.n0_inv, self.tmp);
        }
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    /// Every lane past `digits` takes the one entry.
    fn mul(&mut self, row: usize, digits: &[usize], load: bool) {
        let idx: [usize; LANES] = std::array::from_fn(|l| {
            super::entry_slot(self.per_row, row, digits.get(l).copied().unwrap_or(0))
        });
        let last = idx.iter().max().map_or(0, |&i| i * self.slot + self.c.d);
        assert!(last <= self.table.len(), "table entry out of range");
        let dst = if load { &mut *self.acc } else { &mut *self.op };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `StrausLanes` exists only after `available()` confirmed
        // avx512f and avx512ifma, and every gathered word lies below
        // `last`, which is within the table.
        unsafe {
            ifma::gather(self.table, self.slot, &idx, dst);
            if !load {
                ifma::amm_n0(self.acc, self.op, self.n, self.c.n0_inv, self.tmp);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no lane kernel off x86_64: {}", dst.len());
        if !load {
            std::mem::swap(&mut self.acc, &mut self.tmp);
        }
    }
}

impl StrausLanes<'_> {
    /// Leaves the domain; [`StrausLanes::lane`] then reads each lane's
    /// result, fully reduced.
    pub(super) fn finish(&mut self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `square`.
        unsafe {
            ifma::leave(self.acc, self.n, self.c.n0_inv, self.op, self.tmp);
        }
    }

    /// The digits of lane `l` after [`StrausLanes::finish`], low first.
    pub(super) fn lane(&self, l: usize) -> impl Iterator<Item = u64> + '_ {
        self.op.iter().map(move |v| v.0[l])
    }
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

    /// [`amm`] with `−n⁻¹ mod 2⁵²` given as a word.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn amm_n0(a: &[Lane], b: &[Lane], n: &[Lane], n0_inv: u64, out: &mut [Lane]) {
        amm(a, b, n, _mm512_set1_epi64(n0_inv as i64), out);
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

    /// Writes the digits of `v` broadcast to every lane into `out`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn broadcast(v: &[u64], out: &mut [Lane]) {
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
        leave(acc, n, c.n0_inv, x, tmp);
    }

    /// Leaves the domain into `x`: `AMM(acc, 1) ≤ n`, then `n` subtracted
    /// where the result is at least `n`. `tmp` is scratch.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn leave(acc: &[Lane], n: &[Lane], n0_inv: u64, x: &mut [Lane], tmp: &mut [Lane]) {
        x.fill(Lane::default());
        st(&mut x[0], _mm512_set1_epi64(1));
        amm_n0(acc, x, n, n0_inv, tmp);
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
