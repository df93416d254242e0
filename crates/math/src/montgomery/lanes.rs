//! Eight numbers at once: the AVX-512 IFMA lane kernels of the digit walk
//! for eight powers, each with its own modulus and exponent
//! ([`PowLanes`]), and for eight columns of one [`super::MultiPow`] table
//! ([`StrausLanes`]).
//!
//! A lane vector holds one radix-2⁵² digit of eight numbers, one number
//! per 64-bit lane, so a `d`-digit number set is `d` vectors. Each lane
//! works modulo its own `n` ([`Moduli`]: its digits, `−n⁻¹` and `R² mod n`
//! lane by lane), all at one digit count `d ≥ ⌈(bits(n) + 2)/52⌉`, so
//! `R = 2^(52d) > 4n` in every lane and the almost-Montgomery product
//! `AMM(a, b) = (a·b + m·n)/R` of operands below `2n` stays below `2n`
//! without any subtraction: `a·b < 4n²` and `m·n < R·n` give
//! `AMM < n·(4n/R + 1) < 2n`. The bound needs only `a·b < R·n`, so a
//! plain value below `R` times `R² mod n` enters the domain too. Products
//! are `_mm512_madd52lo/hi_epu64` on 52-bit digits; each row of the
//! product adds at most four 52-bit terms to a digit, so 64-bit
//! accumulators hold `d` rows without normalising until the end of the
//! product (for `d` below 2¹⁰).
//!
//! A batch power keeps one stack table of `x^e·R`, lane by lane. Where
//! every lane's digit is equal, all lanes take that entry's digit vectors;
//! otherwise each lane gathers its own. A fold keeps one column per lane
//! and gathers each lane's entry per digit vector. One builder,
//! [`powers`], fills both tables. Results leave the domain as
//! `AMM(x, 1) ≤ n` and one conditional subtraction.
//!
//! Unsafe is confined to this module: calls into `#[target_feature]` code
//! after run-time detection, aligned loads/stores between [`Lane`] and
//! `__m512i`, the word view of a lane table, and the bounds-checked table
//! gathers.
#![allow(unsafe_code)]

use super::on_stack;
use crate::nat::Nat;

/// Numbers per lane vector.
pub(super) const LANES: usize = 8;

/// Bits per digit.
const DIGIT_BITS: usize = 52;

const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Every lane, as a lane mask.
const ALL: u8 = u8::MAX;

/// One digit of eight numbers, one per lane; aligned for whole-vector
/// loads.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
pub(super) struct Lane(pub(super) [u64; LANES]);

/// The words of `rows`, lane by lane within each row.
fn words(rows: &[Lane]) -> &[u64] {
    // SAFETY: `Lane` is `repr(C)` around `[u64; LANES]` with no padding
    // (64 bytes, aligned to 64), so `rows` is `LANES·rows.len()`
    // initialised, aligned `u64`s, borrowed here for as long as `rows`.
    unsafe { std::slice::from_raw_parts(rows.as_ptr().cast(), rows.len() * LANES) }
}

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
    /// The constants for odd `n` with `−n⁻¹ mod 2⁶⁴ = n0_inv` at `d`
    /// digits, at least [`digits_for`] `n`'s bits: a modulus that shares
    /// walks with wider ones takes their digit count.
    pub(super) fn new(n: &Nat, n0_inv: u64, d: usize) -> Self {
        assert!(d >= digits_for(n.bit_len()), "too few lane digits");
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

/// The moduli of one lane job: lane `l` works modulo `self.0[l]`, every
/// one at the same digit count.
#[derive(Clone, Copy)]
pub(super) struct Moduli<'a>([&'a LaneConsts; LANES]);

impl<'a> Moduli<'a> {
    /// Lane `l` modulo `consts[l]`. Panics unless they share one digit
    /// count.
    pub(super) fn new(consts: [&'a LaneConsts; LANES]) -> Self {
        assert!(
            consts.iter().all(|c| c.d == consts[0].d),
            "lane moduli of one digit count"
        );
        Moduli(consts)
    }

    /// Digits per number.
    pub(super) fn d(&self) -> usize {
        self.0[0].d
    }

    /// Writes the digits of `field` of each lane's constants into that
    /// lane of `out`, for the lanes in `mask`.
    fn fill(&self, field: impl Fn(&LaneConsts) -> &[u64], mask: u8, out: &mut [Lane]) {
        for (l, c) in self.0.iter().enumerate() {
            if mask >> l & 1 == 1 {
                for (row, &dig) in out.iter_mut().zip(field(c)) {
                    row.0[l] = dig;
                }
            }
        }
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

/// Lane `lane` of `x` (digit vectors, low first) as a number of `k`
/// limbs, which must hold every nonzero bit.
pub(super) fn lane_nat(x: &[Lane], lane: usize, k: usize) -> Nat {
    let mut limbs = vec![0; k];
    for (j, v) in x.iter().enumerate().filter(|(_, v)| v.0[lane] != 0) {
        let (pos, shift) = ((DIGIT_BITS * j) / 64, (DIGIT_BITS * j) % 64);
        let bits = (v.0[lane] as u128) << shift;
        limbs[pos] |= bits as u64;
        if (bits >> 64) != 0 {
            limbs[pos + 1] |= (bits >> 64) as u64;
        }
    }
    Nat::from_limbs(limbs)
}

/// A lane job's moduli as vectors: each lane's modulus digits and its
/// `−n⁻¹ mod 2⁵²`. One exists only inside [`frame`], on a CPU with the
/// kernel.
pub(super) struct Frame<'a> {
    m: Moduli<'a>,
    n: &'a [Lane],
    n0_inv: Lane,
}

/// The frame of every lane job: runs `f` on the [`Frame`] of `m` and
/// `rows − 1` numbers of zeroed stack lanes. Panics unless this CPU has
/// the kernel's features and `rows` numbers fit the scratch.
pub(super) fn frame<T>(
    m: &Moduli<'_>,
    rows: usize,
    f: impl FnOnce(&Frame<'_>, &mut [Lane]) -> T,
) -> T {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    assert!(m.0[0].fits(rows), "lane scratch");
    let d = m.d();
    with_lanes(rows * d, |s| {
        let (n, rest) = s.split_at_mut(d);
        m.fill(|c| &c.n, ALL, n);
        let n0_inv = Lane(std::array::from_fn(|l| m.0[l].n0_inv));
        f(&Frame { m: *m, n, n0_inv }, rest)
    })
}

/// The lane table builder, in a [`frame`]: calls `f(e, x^e·R)` for
/// `e = 1..=count` (`count ≥ 1`), each lane on its own, where `load`
/// writes `x` (lanes below `R`). `s` holds at least three entries: `x·R`,
/// then each later power in the next, `row[e] = row[e − 1]·row[0]`; past
/// the end the last moves back to the second. The powers stay below `2n`.
pub(super) fn powers(
    fr: &Frame<'_>,
    s: &mut [Lane],
    load: impl FnOnce(&mut [Lane]),
    count: usize,
    mut f: impl FnMut(usize, &[Lane]),
) {
    assert!(available(), "lane kernel needs avx512f and avx512ifma");
    let d = fr.m.d();
    let slots = s.len() / d;
    assert!(slots >= 3, "lane power shape");
    let (first, rest) = s.split_at_mut(d);
    let (x, r2) = rest.split_at_mut(d);
    load(x);
    fr.m.fill(|c| &c.r2, ALL, r2);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `available()` just confirmed avx512f and avx512ifma.
    unsafe {
        // x·R = AMM(x, R² mod n).
        ifma::amm(x, r2, fr.n, &fr.n0_inv, first);
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
            ifma::amm(
                &done[(at - 1) * d..],
                done,
                fr.n,
                &fr.n0_inv,
                &mut next[..d],
            );
        }
        f(e, &next[..d]);
        at += 1;
    }
}

/// Eight accumulators in the domain below `2n`, one per lane, and a
/// scratch row: the product and the exit of both lane kernels.
struct Acc<'a> {
    fr: &'a Frame<'a>,
    acc: &'a mut [Lane],
    tmp: &'a mut [Lane],
}

impl<'a> Acc<'a> {
    /// The accumulator and scratch rows at the front of `s`, in the
    /// [`frame`] `fr`, and the rest of `s`.
    fn split(fr: &'a Frame<'a>, s: &'a mut [Lane]) -> (Self, &'a mut [Lane]) {
        let d = fr.m.d();
        let (acc, rest) = s.split_at_mut(d);
        let (tmp, rest) = rest.split_at_mut(d);
        (Acc { fr, acc, tmp }, rest)
    }

    /// `acc ← AMM(acc, b)`, or `AMM(acc, acc)` for `None`; the old
    /// accumulator stays in `tmp`.
    fn mul(&mut self, b: Option<&[Lane]>) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Acc` exists only inside a `frame`, after
        // `available()` confirmed avx512f and avx512ifma.
        unsafe {
            ifma::amm(
                self.acc,
                b.unwrap_or(self.acc),
                self.fr.n,
                &self.fr.n0_inv,
                self.tmp,
            );
        }
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    /// Takes back the old accumulator, from before the last [`Acc::mul`],
    /// in the lanes of `mask`.
    fn keep(&mut self, mask: u8) {
        for (a, t) in self.acc.iter_mut().zip(self.tmp.iter()) {
            for l in (0..LANES).filter(|l| mask >> l & 1 == 1) {
                a.0[l] = t.0[l];
            }
        }
    }

    /// Loads one (`R mod n`) into the lanes of `mask`.
    fn load_one(&mut self, mask: u8) {
        self.fr.m.fill(|c| &c.one, mask, self.acc);
    }

    /// Leaves the domain into `x`, each lane fully reduced.
    fn leave(&mut self, x: &mut [Lane]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `mul`.
        unsafe {
            ifma::leave(self.acc, self.fr.n, &self.fr.n0_inv, x, self.tmp);
        }
    }
}

/// Raises each lane of `x` (`m.d()` digit vectors, lanes below `R`) in
/// place, fully reduced, to the exponent that `walk` drives through a
/// [`PowLanes`] kernel over `x^e·R` for every non-zero `win`-bit `e`.
pub(super) fn pow(
    m: &Moduli<'_>,
    win: usize,
    x: &mut [Lane],
    walk: impl FnOnce(&mut PowLanes<'_>),
) {
    let count = (1 << win) - 1;
    frame(m, count + 3, |fr, s| {
        // Entry e lands at (e − 1)·d: `s` holds them all.
        powers(fr, s, |v| v.copy_from_slice(x), count, |_, _| ());
        let (table, rest) = s.split_at_mut(count * fr.m.d());
        let mut kernel = PowLanes {
            a: Acc::split(fr, rest).0,
            table,
            op: x,
        };
        walk(&mut kernel);
        kernel.a.leave(kernel.op);
    })
}

/// The power lane kernel: each lane takes the entry of its own digit,
/// `x^e·R` at `(e − 1)·d` of `table` in that lane. Lanes past the walk's
/// digits take the first lane's digit. `op` holds gathered entries.
pub(super) struct PowLanes<'a> {
    a: Acc<'a>,
    table: &'a [Lane],
    op: &'a mut [Lane],
}

impl super::StrausKernel for PowLanes<'_> {
    fn square(&mut self) {
        self.a.mul(None);
    }

    /// Where every lane's digit is equal, all lanes take that entry's
    /// digit vectors as they are (a zero digit only comes as the load of
    /// one for a zero exponent). Otherwise each lane gathers its own
    /// entry, and a lane whose digit is zero gathers entry 1 and then
    /// keeps its accumulator (a product by one) or loads one.
    fn mul(&mut self, _row: usize, digits: &[usize], load: bool) {
        let d = self.a.fr.m.d();
        let e: [usize; LANES] =
            std::array::from_fn(|l| digits.get(l).copied().unwrap_or(digits[0]));
        if e.iter().all(|&el| el == e[0]) {
            let entry = |e: usize| &self.table[(e - 1) * d..][..d];
            match (e[0], load) {
                (0, true) => self.a.load_one(ALL),
                (0, false) => {}
                (e, true) => self.a.acc.copy_from_slice(entry(e)),
                (e, false) => self.a.mul(Some(entry(e))),
            }
            return;
        }
        let zeros = (0..LANES).fold(0u8, |mask, l| mask | u8::from(e[l] == 0) << l);
        let offsets: [usize; LANES] = std::array::from_fn(|l| (e[l].max(1) - 1) * d * LANES + l);
        let table = words(self.table);
        let last = offsets.iter().max().map_or(0, |&o| o + (d - 1) * LANES);
        assert!(last < table.len(), "table entry out of range");
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `PowLanes` exists only inside a `frame`, after
        // `available()` confirmed avx512f, and every gathered word lies
        // at most at `last`, which is within the table.
        unsafe {
            ifma::gather(table, &offsets, LANES, self.op);
        }
        if load {
            self.a.acc.copy_from_slice(self.op);
            self.a.load_one(zeros);
        } else {
            self.a.mul(Some(self.op));
            self.a.keep(zeros);
        }
    }
}

/// The gathering lane kernel: one column per lane, over a table of
/// `d`-digit entries `slot` words apart, `per_row` a row after slot 0,
/// which holds one for zero digits and idle lanes.
pub(super) struct StrausLanes<'a> {
    a: Acc<'a>,
    table: &'a [u64],
    slot: usize,
    per_row: usize,
    op: &'a mut [Lane],
}

/// Runs `f` on a [`StrausLanes`] kernel over `table` in a four-row
/// [`frame`] with every lane modulo `c`; panics unless `slot ≥ c.d`.
pub(super) fn straus<T>(
    c: &LaneConsts,
    table: &[u64],
    slot: usize,
    per_row: usize,
    f: impl FnOnce(&mut StrausLanes<'_>) -> T,
) -> T {
    assert!(slot >= c.d, "lane Straus shape");
    frame(&Moduli::new([c; LANES]), 4, |fr, s| {
        let (a, op) = Acc::split(fr, s);
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
        let offsets: [usize; LANES] = std::array::from_fn(|l| match digits.get(l) {
            Some(&e) if e != 0 => (row * self.per_row + e) * self.slot,
            _ => 0,
        });
        let d = self.a.fr.m.d();
        let last = offsets.iter().max().map_or(0, |&o| o + d - 1);
        assert!(last < self.table.len(), "table entry out of range");
        let dst = if load {
            &mut *self.a.acc
        } else {
            &mut *self.op
        };
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `StrausLanes` exists only inside a `frame`, after
        // `available()` confirmed avx512f, and every gathered word lies
        // at most at `last`, which is within the table.
        unsafe {
            ifma::gather(self.table, &offsets, 1, dst);
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

    /// `out = AMM(a, b)` with normalised digits; `n` holds each lane's
    /// modulus digits, `n0_inv` each lane's `−n⁻¹ mod 2⁵²`. `out` must not
    /// alias `a` or `b`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn amm(a: &[Lane], b: &[Lane], n: &[Lane], n0_inv: &Lane, out: &mut [Lane]) {
        let n0_inv = ld(n0_inv);
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

    /// `out[j]` = word `offsets[l] + j·stride` of `table` in lane `l`, for
    /// every digit vector `j` of `out`.
    ///
    /// # Safety
    ///
    /// Every `offsets[l] + (out.len() − 1)·stride` must be below
    /// `table.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gather(
        table: &[u64],
        offsets: &[usize; 8],
        stride: usize,
        out: &mut [Lane],
    ) {
        let at = |l: usize| offsets[l] as i64;
        let offsets = _mm512_set_epi64(at(7), at(6), at(5), at(4), at(3), at(2), at(1), at(0));
        for (j, o) in out.iter_mut().enumerate() {
            // SAFETY: word `offsets[l] + j·stride` is in the table (the
            // caller's contract), and scale 8 makes the offsets count
            // words.
            let v = unsafe {
                _mm512_i64gather_epi64::<8>(offsets, table.as_ptr().add(j * stride).cast())
            };
            st(o, v);
        }
    }

    /// Leaves the domain into `x`: `AMM(acc, 1) ≤ n`, then `n` subtracted
    /// in each lane where the result is at least its `n`. `tmp` is scratch.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn leave(acc: &[Lane], n: &[Lane], n0_inv: &Lane, x: &mut [Lane], tmp: &mut [Lane]) {
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
