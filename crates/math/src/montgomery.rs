//! Montgomery-form modular arithmetic for odd moduli.
//!
//! [`Montgomery`] precomputes the constants for REDC reduction and provides
//! fast repeated multiplication/exponentiation — the inner loop of Paillier,
//! Goldwasser–Micali, ElGamal and the Naor–Pinkas oblivious transfer.
//!
//! Every power is one digit walk, [`straus_walk`]: a single power is one
//! row and one column, the fixed-base comb ([`FixedBasePow`]) one row per
//! window at one position, a batch power ([`pow_chains`]) one row with a
//! column per lane, each lane with its own modulus and exponent, a Straus
//! fold ([`MultiPow`]) one row per base. Its kernels are a fused CIOS
//! multiply-and-reduce on limb-slice scratch ([`StrausCios`]) and, on CPUs
//! with AVX-512 IFMA, a power and a gathering lane kernel
//! (`montgomery/lanes.rs`), with the same results and heap tallies. A power allocates its scratch once
//! (on the stack up to the window table of a 4096-bit modulus) and touches
//! the heap again only for its result.

use crate::nat::Nat;
use std::cell::Cell;
use std::sync::OnceLock;

mod lanes;

// Stack scratch tiers (limbs). Zeroing the scratch is part of every call,
// so a product at a small modulus must not pay for a window table's worth.

/// Products and ladders up to ~20 limbs.
const SCRATCH_SMALL: usize = 64;
/// A width-6 window table plus two working slots (65 slots of `k + 1`
/// limbs) up to 65 limbs — a 2048-bit Paillier key's `n²` has 64 — in
/// 34 KiB. Larger jobs take one heap buffer.
const SCRATCH_LARGE: usize = 65 * 66;

/// One stack scratch tier: runs `f` on the first `len` of `N` zeroed
/// elements, out of line so that a short job's frame neither reserves nor
/// zeroes a larger tier.
#[inline(never)]
fn on_stack<E: Copy + Default, const N: usize, T>(len: usize, f: impl FnOnce(&mut [E]) -> T) -> T {
    f(&mut [E::default(); N][..len])
}

/// Runs `f` on `len` zeroed limbs of scratch: on the stack when they fit,
/// otherwise in a single heap buffer.
fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [u64]) -> T) -> T {
    if len <= SCRATCH_SMALL {
        on_stack::<u64, SCRATCH_SMALL, T>(len, f)
    } else if len <= SCRATCH_LARGE {
        on_stack::<u64, SCRATCH_LARGE, T>(len, f)
    } else {
        f(&mut vec![0u64; len])
    }
}

/// Fixed-window width for an exponent of `bits` bits: the table costs
/// `2^w - 2` products and the walk about `bits / w`, so wider windows pay
/// off only for longer exponents. Width 1 is the plain square-and-multiply
/// ladder (homomorphic scalar weights, small plaintexts).
fn window_bits(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        240..=671 => 5,
        _ => 6,
    }
}

/// The `width`-bit digit of `exp` starting at bit `lo`.
fn digit(exp: &Nat, lo: usize, width: usize) -> usize {
    (0..width).fold(0, |d, b| d | (usize::from(exp.bit(lo + b)) << b))
}

/// `true` iff little-endian limb slice `a >= b` (missing high limbs are
/// treated as zero).
fn slice_ge(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len().max(b.len())).rev() {
        let ai = a.get(i).copied().unwrap_or(0);
        let bi = b.get(i).copied().unwrap_or(0);
        if ai != bi {
            return ai > bi;
        }
    }
    true
}

/// In-place `a += b` over `a`'s length; requires no carry out of it.
fn slice_add(a: &mut [u64], b: &[u64]) {
    let mut carry = 0u64;
    for (i, ai) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (s1, c1) = ai.overflowing_add(bi);
        let (s2, c2) = s1.overflowing_add(carry);
        *ai = s2;
        carry = c1 as u64 + c2 as u64;
    }
    debug_assert_eq!(carry, 0);
}

/// In-place `a -= b`; requires `a >= b` as limb slices.
fn slice_sub(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, ai) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = b1 as u64 + b2 as u64;
    }
    debug_assert_eq!(borrow, 0);
}

/// A Montgomery reduction context for an odd modulus `n`.
///
/// # Examples
///
/// ```
/// use spfe_math::{Montgomery, Nat};
/// let ctx = Montgomery::new(Nat::from(101u64));
/// let r = ctx.pow(&Nat::from(3u64), &Nat::from(100u64));
/// assert_eq!(r, Nat::one()); // Fermat
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Nat,
    /// Number of limbs in `n`.
    k: usize,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R mod n` where `R = 2^(64k)` — the Montgomery form of 1 — as
    /// exactly `k` limbs.
    one: Vec<u64>,
    /// `R^2 mod n` as exactly `k` limbs — converts into Montgomery form.
    r2: Vec<u64>,
    /// Digits per number on the lane kernel: this modulus's own count, or
    /// the widest of a [`Montgomery::new_set`].
    lane_digits: usize,
    /// The lane kernel's constants, built the first time a group of bases
    /// runs on it.
    lanes: OnceLock<lanes::LaneConsts>,
}

impl Montgomery {
    /// Creates a context for odd modulus `n > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or `n <= 1`.
    pub fn new(n: Nat) -> Self {
        assert!(n.is_odd() && !n.is_one(), "Montgomery requires odd n > 1");
        let k = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n0 mod 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();
        let padded = |v: Nat| {
            let mut l = v.limbs().to_vec();
            l.resize(k, 0);
            l
        };
        let one = padded(Nat::one().shl(64 * k).rem(&n));
        let r2 = padded(Nat::one().shl(128 * k).rem(&n));
        Montgomery {
            lane_digits: lanes::digits_for(n.bit_len()),
            n,
            k,
            n0_inv,
            one,
            r2,
            lanes: OnceLock::new(),
        }
    }

    /// Contexts for moduli whose powers share lane walks
    /// ([`pow_chains`]). A lane walk runs at one digit count, so each
    /// context's lane constants are built at the count of the widest
    /// modulus of the set; otherwise each is [`Montgomery::new`].
    ///
    /// # Panics
    ///
    /// Panics if a modulus is even or at most 1.
    pub fn new_set<const N: usize>(ns: [Nat; N]) -> [Montgomery; N] {
        let d = ns.iter().map(|n| lanes::digits_for(n.bit_len())).max();
        ns.map(|n| Montgomery {
            lane_digits: d.unwrap_or(0),
            ..Montgomery::new(n)
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &Nat {
        &self.n
    }

    /// The fused CIOS multiply-and-reduce kernel: writes `a·b·R⁻¹ mod n`
    /// into `t[..k]`.
    ///
    /// `a` is any slice of at most `k` limbs (missing high limbs read as
    /// zero); `b` must hold exactly `k` limbs with value below `n`; `t`
    /// must hold exactly `k + 1` limbs and may contain stale data — it is
    /// zeroed here, which is what lets callers ping-pong two scratch slots
    /// through an entire exponentiation without touching the allocator.
    /// `t` must not alias the operands.
    ///
    /// Each outer step adds `a_i·b` and `m·n` in one pass with two carry
    /// chains and folds the division by `2^64` into the store index. The
    /// running value stays below `b + n < 2n`, so `t[k]` only ever holds
    /// the final carry and one conditional subtraction reduces the result.
    fn cios_into(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k;
        let n = self.n.limbs();
        assert!(a.len() <= k && b.len() == k && t.len() == k + 1);
        debug_assert!(!slice_ge(b, n), "CIOS inner operand must be reduced");
        t.fill(0);
        let a_limbs = a.iter().copied().chain(std::iter::repeat(0)).take(k);
        for ai in a_limbs {
            let x = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (x as u64).wrapping_mul(self.n0_inv);
            let y = (x as u64) as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(y as u64, 0);
            let (mut c1, mut c2) = (x >> 64, y >> 64);
            // Limb j of the sum lands in limb j − 1: walk overlapping
            // (t[j − 1], t[j]) pairs as cells, zipped with b and n, so the
            // loop carries no bounds checks.
            let cells = Cell::from_mut(&mut t[..]).as_slice_of_cells();
            for ((pair, &bj), &nj) in cells.windows(2).zip(&b[1..]).zip(&n[1..]) {
                let x = pair[1].get() as u128 + ai as u128 * bj as u128 + c1;
                let y = (x as u64) as u128 + m as u128 * nj as u128 + c2;
                pair[0].set(y as u64);
                c1 = x >> 64;
                c2 = y >> 64;
            }
            let x = t[k] as u128 + c1 + c2;
            t[k - 1] = x as u64;
            t[k] = (x >> 64) as u64;
        }
        if slice_ge(t, n) {
            slice_sub(t, n);
        }
    }

    /// Writes `a mod n` into the `k`-limb slot `out` for a limb slice `a`
    /// of any length, without touching the heap: a copy when `a < n`,
    /// otherwise Horner's rule over `k`-limb chunks `c` from the top,
    /// `x ← x·R + c`, with `x·R = CIOS(x, R²)` and `c mod n = CIOS(c, R)`.
    fn load_reduced(&self, a: &[u64], out: &mut [u64]) {
        let k = self.k;
        out.fill(0);
        if a.len() <= k && !slice_ge(a, self.n.limbs()) {
            out[..a.len()].copy_from_slice(a);
            return;
        }
        with_scratch(2 * (k + 1), |s| {
            let (shifted, chunk) = s.split_at_mut(k + 1);
            for (i, c) in a.chunks(k).rev().enumerate() {
                self.cios_into(c, &self.one, chunk);
                if i > 0 {
                    self.cios_into(out, &self.r2, shifted);
                    slice_add(chunk, shifted);
                    if slice_ge(chunk, self.n.limbs()) {
                        slice_sub(chunk, self.n.limbs());
                    }
                }
                out.copy_from_slice(&chunk[..k]);
            }
        });
    }

    /// `a·R mod n` into the `k`-limb slot `out`, for a limb slice `a` of
    /// any length; `t` is `k + 1` limbs of scratch.
    fn to_mont(&self, a: &[u64], out: &mut [u64], t: &mut [u64]) {
        self.load_reduced(a, out);
        self.cios_into(out, &self.r2, t);
        out.copy_from_slice(&t[..self.k]);
    }

    /// The table row builder: with `x·R` in the first slot of `row`, slot
    /// `d < count` (slots `slot ≥ k` limbs apart) gets `x^(d+1)·R` as
    /// `row[d] = row[d − 1]·row[0]`; `t` is `k + 1` limbs of scratch.
    fn powers(&self, row: &mut [u64], slot: usize, count: usize, t: &mut [u64]) {
        let k = self.k;
        for d in 1..count {
            self.cios_into(&row[(d - 1) * slot..][..k], &row[..k], t);
            row[d * slot..][..k].copy_from_slice(&t[..k]);
        }
    }

    /// `base^exp mod n` by fixed-window Montgomery exponentiation.
    pub fn pow(&self, base: &Nat, exp: &Nat) -> Nat {
        spfe_obs::count(spfe_obs::Op::Modexp, 1);
        self.pow_uncounted(base, exp)
    }

    /// [`Montgomery::pow`] without the op count. The caller counts: a key
    /// holder that splits one logical exponentiation into several powers
    /// modulo the factors of a modulus (CRT Paillier) counts a single
    /// [`spfe_obs::Op::Modexp`], the same as the full-modulus power it
    /// replaces, so op counts do not depend on who computes.
    pub fn pow_uncounted(&self, base: &Nat, exp: &Nat) -> Nat {
        let mut out = vec![0; self.k];
        self.pow_into(base.limbs(), exp, &mut out);
        Nat::from_limbs(out)
    }

    /// `base^exp mod n` into the `k`-limb slot `out`, for a limb slice
    /// `base` of any length, over a table of `base^d` in `k + 1`-limb
    /// slots; the heap is touched only for a table too large for the stack.
    fn pow_into(&self, base: &[u64], exp: &Nat, out: &mut [u64]) {
        let (k, w) = (self.k, self.k + 1);
        let win = window_bits(exp.bit_len());
        let per_row = (1 << win) - 1;
        with_scratch((per_row + 2) * w, |s| {
            let (table, work) = s.split_at_mut(per_row * w);
            self.to_mont(base, &mut table[..k], &mut work[..w]);
            self.powers(table, w, per_row, &mut work[..w]);
            let mut kernel = StrausCios::new(self, table, w, per_row, work);
            pow_walk(&mut kernel, &[exp], win);
            out.copy_from_slice(kernel.leave());
        })
    }

    /// `base^exp mod n` for every base, in order: [`pow_chains`] with one
    /// step, so bit-identical to mapping [`Montgomery::pow_uncounted`] over
    /// `bases`, and likewise uncounted.
    pub fn pow_batch(&self, bases: &[&Nat], exp: &Nat) -> Vec<Nat> {
        let step = [(self, exp)];
        pow_chains(bases, |_| &step)
    }

    /// The lane kernel's constants, built on first use. Only CPUs with
    /// the kernel build them, so their few allocations stay out of the
    /// deterministic heap tallies, which must not depend on the host.
    fn lane_consts(&self) -> &lanes::LaneConsts {
        self.lanes.get_or_init(|| {
            let _host_dependent = spfe_obs::mem::pause();
            lanes::LaneConsts::new(&self.n, self.n0_inv, self.lane_digits)
        })
    }

    /// `(a * b) mod n` for plain (non-Montgomery) residues: two fused
    /// Montgomery products, `(a·b·R⁻¹)·R²·R⁻¹ = a·b mod n`, instead of a
    /// double-width product followed by long division. Operands at or
    /// above `n` are reduced first.
    pub fn mul_mod(&self, a: &Nat, b: &Nat) -> Nat {
        let (k, w) = (self.k, self.k + 1);
        with_scratch(3 * w, |s| {
            let (bs, rest) = s.split_at_mut(w);
            let (t1, t2) = rest.split_at_mut(w);
            self.load_reduced(a.limbs(), &mut t2[..k]);
            self.load_reduced(b.limbs(), &mut bs[..k]);
            self.cios_into(&t2[..k], &bs[..k], t1);
            self.cios_into(&t1[..k], &self.r2, t2);
            Nat::from_limbs(t2[..k].to_vec())
        })
    }
}

/// Bases per lane exponentiation: [`Montgomery::pow_batch`] runs each
/// group of this many as one. Callers that split a batch across the
/// worker pool split it at this size.
pub const POW_BATCH_GROUP: usize = lanes::LANES;

/// The fewest bases, by modulus limbs `k`, for which one lane
/// exponentiation beats the scalar kernel base by base. The lane kernel
/// pays for all eight lanes whatever the group holds: one group costs
/// about two scalar powers at 1–2 limbs, 1.0–1.4 at 3–8 and 0.8 from 12
/// up (DESIGN §8), so singles stay scalar everywhere.
fn lane_min_group(k: usize) -> usize {
    match k {
        1..=2 => 3,
        _ => 2,
    }
}

/// Whether this CPU runs the lane kernels of [`pow_chains`] and
/// [`MultiPow`]: AVX-512 IFMA, detected at run time.
pub fn lanes_available() -> bool {
    lanes::available()
}

/// One power of a chain ([`pow_chains`]): the context of its modulus and
/// its exponent.
pub type PowStep<'a> = (&'a Montgomery, &'a Nat);

/// `bases[i]` raised to the exponent of each step of `chain(i)` in turn,
/// modulo that step's modulus, for every `i`, in order: bit-identical to
/// mapping [`Montgomery::pow_uncounted`] step by step, and likewise
/// uncounted. The moduli of a chain must not decrease, so each
/// intermediate residue is a valid input of the next step; it stays in
/// the kernel's own form (limb slices, or lane digits), not a [`Nat`].
///
/// Groups of up to eight consecutive bases run as one lane walk per step
/// on CPUs with AVX-512 IFMA, one base per lane, each lane with its own
/// modulus and exponent, when the group fills enough lanes to beat
/// separate powers at its modulus width (DESIGN §8), its chains have one
/// length and each step's moduli share a lane digit count (one width, or
/// one [`Montgomery::new_set`]). Every other group, and every group on
/// other CPUs, runs the scalar kernel base by base. Either way each
/// result is one heap allocation.
pub fn pow_chains<'a>(bases: &[&Nat], chain: impl Fn(usize) -> &'a [PowStep<'a>]) -> Vec<Nat> {
    let mut out = Vec::with_capacity(bases.len());
    for (g, group) in bases.chunks(lanes::LANES).enumerate() {
        let chains: [&[PowStep<'a>]; lanes::LANES] =
            std::array::from_fn(|l| chain(g * lanes::LANES + l.min(group.len() - 1)));
        let chains = &chains[..group.len()];
        if lanes_pay(chains) {
            lane_chain(group, chains, &mut out);
        } else {
            out.extend(group.iter().zip(chains).map(|(b, c)| scalar_chain(b, c)));
        }
    }
    out
}

/// Whether a group runs `chains`, one per filled lane, on the lane
/// kernel: the CPU has it, the lanes filled reach the crossover for the
/// narrowest first modulus, the chains have one length, and at each step
/// the exponents are non-zero, the moduli share a digit count and the
/// power fits the lane scratch.
fn lanes_pay(chains: &[&[PowStep<'_>]]) -> bool {
    let first = chains[0];
    let k = chains.iter().map(|c| c[0].0.k).min().unwrap_or(1);
    lanes::available()
        && chains.len() >= lane_min_group(k)
        && chains.iter().all(|c| c.len() == first.len())
        && (0..first.len()).all(|s| {
            let bits = chains.iter().map(|c| c[s].1.bit_len()).max().unwrap_or(0);
            chains
                .iter()
                .all(|c| !c[s].1.is_zero() && c[s].0.lane_digits == first[s].0.lane_digits)
                && first[s].0.lane_consts().window(bits).is_some()
        })
}

/// One base through `steps` on the scalar kernel, intermediates in stack
/// limbs.
fn scalar_chain(base: &Nat, steps: &[PowStep<'_>]) -> Nat {
    let k_max = steps.iter().map(|(m, _)| m.k).max().unwrap_or(1);
    with_scratch(2 * k_max, |s| {
        let (mut cur, mut next) = s.split_at_mut(k_max);
        let mut k_cur = 0;
        for (i, &(m, e)) in steps.iter().enumerate() {
            let input = if i == 0 { base.limbs() } else { &cur[..k_cur] };
            m.pow_into(input, e, &mut next[..m.k]);
            std::mem::swap(&mut cur, &mut next);
            k_cur = m.k;
        }
        Nat::from_limbs(cur[..k_cur].to_vec())
    })
}

/// A group of at most eight bases through their `chains` on the lane
/// kernel, one base per lane; results are appended to `out` in order.
fn lane_chain(group: &[&Nat], chains: &[&[PowStep<'_>]], out: &mut Vec<Nat>) {
    let at = |s: usize, l: usize| chains[l.min(chains.len() - 1)][s];
    let steps = chains[0].len();
    lanes::with_lanes(at(steps - 1, 0).0.lane_digits, |x| {
        load_lanes(group, |l| at(0, l).0, x);
        // Each step leaves its residues below its moduli, valid
        // (zero-extended) inputs of the next, no narrower step.
        for s in 0..steps {
            let consts: [&lanes::LaneConsts; lanes::LANES] =
                std::array::from_fn(|l| at(s, l).0.lane_consts());
            let m = lanes::Moduli::new(consts);
            let exps: [&Nat; lanes::LANES] = std::array::from_fn(|l| at(s, l).1);
            let exps = &exps[..group.len()];
            let bits = exps.iter().map(|e| e.bit_len()).max().unwrap_or(0);
            let win = consts[0].window(bits).expect("lane scratch fits");
            // Lanes that share one exponent walk it as one column.
            let cols = if exps.iter().all(|e| *e == exps[0]) {
                1
            } else {
                exps.len()
            };
            lanes::pow(&m, win, &mut x[..m.d()], |kernel| {
                pow_walk(kernel, &exps[..cols], win)
            });
        }
        out.extend((0..group.len()).map(|l| lanes::lane_nat(x, l, at(steps - 1, l).0.k)));
    })
}

/// Loads at most eight bases, each reduced mod the modulus of its lane's
/// context `ctx(lane)`, into the lanes of `x`, one base per lane.
fn load_lanes<'a>(group: &[&Nat], ctx: impl Fn(usize) -> &'a Montgomery, x: &mut [lanes::Lane]) {
    let k = (0..group.len()).map(|l| ctx(l).k).max().unwrap_or(1);
    with_scratch(k, |limbs| {
        for (lane, base) in group.iter().enumerate() {
            let m = ctx(lane);
            m.load_reduced(base.limbs(), &mut limbs[..m.k]);
            for (v, dig) in x.iter_mut().zip(lanes::digits(&limbs[..m.k])) {
                v.0[lane] = dig;
            }
        }
    });
}

/// Window width (bits) of the [`FixedBasePow`] comb tables.
const FB_WINDOW: usize = 4;

/// Nonzero digits per [`FixedBasePow`] window.
const FB_DIGITS: usize = (1 << FB_WINDOW) - 1;

/// Precomputed fixed-base exponentiation.
///
/// The SPFE protocols exponentiate the *same* base over and over: ElGamal
/// raises `g` and `y` once per encryption, the Naor–Pinkas OT raises the
/// group generator per transfer. [`Montgomery::pow`] pays `bit_len`
/// squarings per call; this comb table pays them **once**: for every
/// 4-bit window `w` of a future exponent it stores `base^(d · 2^(4w))` (in
/// Montgomery form) for each digit `d ∈ [1, 16)`, so [`FixedBasePow::pow`]
/// is a product of at most `⌈max_exp_bits / 4⌉` of them, no squarings, a
/// ~4–5× saving in products. Construction costs about three plain powers,
/// so the table amortizes after a handful of uses.
///
/// The table is immutable after construction and `Send + Sync`, so pool
/// workers (see [`crate::par`]) share one table by reference.
///
/// # Examples
///
/// ```
/// use spfe_math::{FixedBasePow, Montgomery, Nat};
/// use std::sync::Arc;
/// let ctx = Arc::new(Montgomery::new(Nat::from(1_000_003u64)));
/// let fb = FixedBasePow::new(Arc::clone(&ctx), &Nat::from(5u64), 64);
/// let e = Nat::from(123_456u64);
/// assert_eq!(fb.pow(&e), ctx.pow(&Nat::from(5u64), &e));
/// ```
#[derive(Debug, Clone)]
pub struct FixedBasePow {
    mont: std::sync::Arc<Montgomery>,
    /// The base, reduced mod `n` (for exponents past the table).
    base: Nat,
    /// Number of windows in the table.
    windows: usize,
    /// Flat table of `k`-limb slots: slot `w · FB_DIGITS + d - 1` holds
    /// `base^(d << (FB_WINDOW * w))` in Montgomery form.
    table: Vec<u64>,
}

impl FixedBasePow {
    /// Builds the comb table for exponents up to `max_exp_bits` bits.
    ///
    /// Larger exponents still work (see [`FixedBasePow::pow`]) but fall
    /// back to the generic square-and-multiply path.
    pub fn new(mont: std::sync::Arc<Montgomery>, base: &Nat, max_exp_bits: usize) -> Self {
        let k = mont.k;
        let windows = max_exp_bits.max(1).div_ceil(FB_WINDOW);
        let base = base.rem(&mont.n);
        let mut table = vec![0u64; windows * FB_DIGITS * k];
        with_scratch(k + 1, |t| {
            mont.to_mont(base.limbs(), &mut table[..k], t);
            // Row w holds base^(d·16^w); the sixteenth power of its first
            // entry is the first entry of row w + 1.
            for w in 0..windows {
                let count = FB_DIGITS + usize::from(w + 1 < windows);
                mont.powers(&mut table[w * FB_DIGITS * k..], k, count, t);
            }
        });
        FixedBasePow {
            mont,
            base,
            windows,
            table,
        }
    }

    /// The modulus this table lives over.
    pub fn modulus(&self) -> &Nat {
        self.mont.modulus()
    }

    /// The largest exponent bit-length served from the table.
    pub fn capacity_bits(&self) -> usize {
        self.windows * FB_WINDOW
    }

    /// `base^exp mod n` by the comb walk ([`comb_walk`]).
    ///
    /// Exponents longer than [`FixedBasePow::capacity_bits`] are handled
    /// correctly via the generic path (at generic speed).
    pub fn pow(&self, exp: &Nat) -> Nat {
        spfe_obs::count(spfe_obs::Op::FixedBaseExp, 1);
        if exp.bit_len() > self.capacity_bits() {
            // The generic path also counts an `Op::Modexp`.
            return self.mont.pow(&self.base, exp);
        }
        let k = self.mont.k;
        with_scratch(2 * (k + 1), |s| {
            let mut kernel = StrausCios::new(&self.mont, &self.table, k, FB_DIGITS, s);
            comb_walk(&mut kernel, exp, self.windows);
            Nat::from_limbs(kernel.leave().to_vec())
        })
    }
}

/// Byte budget of a [`MultiPow`] table. At a 2048-bit Paillier key's `n²`
/// (79 lane digits a slot) and 32 bases it admits width 3 (139 KiB); the
/// unconstrained optimum there, width 5 (613 KiB), saves few products and
/// costs its whole table in resident memory per query (DESIGN §8).
const MULTI_POW_TABLE_BYTES: usize = 144 << 10;

/// Widest [`MultiPow`] window considered.
const MULTI_POW_MAX_WINDOW: usize = 8;

/// Words per [`MultiPow`] table slot at modulus `n`: the wider of the
/// scalar kernel's `k` limbs and the lane kernel's digits, so the table's
/// size, and with it the heap tallies, does not depend on the CPU.
fn multi_pow_slot(mont: &Montgomery) -> usize {
    mont.k.max(mont.lane_digits)
}

/// The [`MultiPow`] window width for `bases` bases in slots of `slot`
/// words raised to exponents of up to `bits` bits in `uses`
/// multi-exponentiations: the width minimising the product count —
/// `bases·(2^w − 1)` for the table plus `uses·(bases·⌈bits/w⌉ + bits)` for
/// the walks, every digit counted — among the widths whose table (the
/// entries and one slot for one) fits [`MULTI_POW_TABLE_BYTES`]. Width 1
/// always qualifies. The lane kernel divides both terms by eight alike, so
/// one rule serves both kernels.
fn multi_pow_window(bases: usize, slot: usize, bits: usize, uses: usize) -> usize {
    let entries = |w: usize| bases * ((1 << w) - 1);
    (1..=MULTI_POW_MAX_WINDOW)
        .filter(|&w| w == 1 || (1 + entries(w)) * slot * 8 <= MULTI_POW_TABLE_BYTES)
        .min_by_key(|&w| entries(w) + uses * (bases * bits.div_ceil(w) + bits))
        .unwrap_or(1)
}

/// The fewest columns, by modulus limbs `k`, for which a [`MultiPow`]
/// table built and walked on the lane kernel beats the scalar kernel
/// column by column (DESIGN §8). A lane walk costs the same whatever its
/// fill and pays a fixed cost per product (gathers, digits of eight
/// columns), so narrow moduli need fuller groups than
/// [`lane_min_group`]'s batch powers; from 10 limbs one column pays.
fn lane_min_cols(k: usize) -> usize {
    match k {
        1 => 5,
        2..=5 => 4,
        6..=9 => 2,
        _ => 1,
    }
}

/// Whether a [`MultiPow`] table at `mont` for `uses` columns is built and
/// walked on the lane kernel: the CPU has it, a lane group of the job is
/// full enough at this modulus width, and the walk's rows fit the lane
/// scratch.
fn lane_fold_pays(mont: &Montgomery, uses: usize) -> bool {
    lanes::available()
        && uses.min(lanes::LANES) >= lane_min_cols(mont.k)
        && mont.lane_consts().fits(4)
}

/// Straus multi-exponentiation over a fixed list of bases:
/// `Π_r base_r^{e_r} mod n` for many exponent vectors.
///
/// A homomorphic PIR column is exactly this product over the query's
/// encrypted row selectors. The table stores `base_r^d` in Montgomery
/// form for every digit `d ∈ [1, 2^w)`, plus one entry for one, built once
/// for all columns; the walk ([`straus_walk`]) shares one chain of `w`
/// squarings per digit position across every base. Per product of `rows`
/// exponents of `b` bits that is at most `b + rows·⌈b/w⌉` products, where
/// separate [`Montgomery::pow`] calls spend about `rows·b` on squarings
/// alone. On CPUs with AVX-512 IFMA, a job with enough columns at its
/// modulus width builds the table eight bases at a time on the lanes and
/// walks eight columns at a time, one per lane (DESIGN §8); otherwise
/// column by column on CIOS. The window width `w` is derived from the
/// shape of the job (see [`MultiPow::new`]). Nothing here is counted:
/// callers count the logical operations a multi-exponentiation replaces.
#[derive(Debug)]
pub struct MultiPow<'a> {
    mont: &'a Montgomery,
    /// Window width in bits.
    win: usize,
    /// Number of bases.
    bases: usize,
    /// Words per table slot ([`multi_pow_slot`]).
    slot: usize,
    /// The lane constants when the table is in lane form.
    lanes: Option<&'a lanes::LaneConsts>,
    /// Flat table of slots: slot `1 + r·(2^win − 1) + d − 1` holds
    /// `base_r^d` in the kernel's Montgomery form — `k` limbs below `n`,
    /// or lane digits below `2n` with one in slot 0 (the scalar walk reads
    /// one from the context; the slot stays so the size is the same).
    table: Vec<u64>,
}

impl<'a> MultiPow<'a> {
    /// Builds the table for `bases` (reduced mod `n` on entry), sized for
    /// `uses` multi-exponentiations with exponents of up to `exp_bits`
    /// bits: the window width minimises the total product count among the
    /// widths whose table fits a fixed byte budget. Longer exponents are
    /// still handled correctly by [`MultiPow::pow_batch`].
    pub fn new(mont: &'a Montgomery, bases: &[&Nat], exp_bits: usize, uses: usize) -> Self {
        Self::build(mont, bases, exp_bits, uses, lane_fold_pays(mont, uses))
    }

    /// [`MultiPow::new`] on the lane kernel or the scalar one.
    fn build(
        mont: &'a Montgomery,
        bases: &[&Nat],
        exp_bits: usize,
        uses: usize,
        lanes: bool,
    ) -> Self {
        let (k, slot) = (mont.k, multi_pow_slot(mont));
        let win = multi_pow_window(bases.len(), slot, exp_bits, uses);
        let per_row = (1 << win) - 1;
        let mut table = vec![0u64; (1 + bases.len() * per_row) * slot];
        let (one, rows) = table.split_at_mut(slot);
        let lanes = lanes.then(|| mont.lane_consts());
        match lanes {
            Some(c) => {
                one[..c.d].copy_from_slice(&c.one);
                let group_len = lanes::LANES * per_row * slot;
                for (group, rows) in bases.chunks(lanes::LANES).zip(rows.chunks_mut(group_len)) {
                    let load = |x: &mut [lanes::Lane]| load_lanes(group, |_| mont, x);
                    lanes::frame(&lanes::Moduli::new([c; lanes::LANES]), 4, |fr, s| {
                        lanes::powers(fr, s, load, per_row, |e, v| {
                            for (lane, row) in rows.chunks_exact_mut(per_row * slot).enumerate() {
                                let entry = &mut row[(e - 1) * slot..][..c.d];
                                for (w, dig) in entry.iter_mut().zip(v) {
                                    *w = dig.0[lane];
                                }
                            }
                        })
                    });
                }
            }
            None => with_scratch(k + 1, |t| {
                for (base, row) in bases.iter().zip(rows.chunks_exact_mut(per_row * slot)) {
                    mont.to_mont(base.limbs(), &mut row[..k], t);
                    mont.powers(row, slot, per_row, t);
                }
            }),
        }
        MultiPow {
            mont,
            win,
            bases: bases.len(),
            slot,
            lanes,
            table,
        }
    }

    /// `Π_r base_r^{col[r]} mod n` for each column `col` of exponents, in
    /// order; `1 mod n` for a column of zeros. Each result is one heap
    /// allocation, on either kernel.
    ///
    /// # Panics
    ///
    /// Panics unless each column holds exactly one exponent per base.
    pub fn pow_batch<C: AsRef<[Nat]>>(&self, cols: &[C]) -> Vec<Nat> {
        for col in cols {
            assert_eq!(col.as_ref().len(), self.bases, "one exponent per base");
        }
        let (mont, k) = (self.mont, self.mont.k);
        let per_row = (1 << self.win) - 1;
        let mut out = Vec::with_capacity(cols.len());
        match self.lanes {
            Some(c) => {
                for group in cols.chunks(lanes::LANES) {
                    lanes::straus(c, &self.table, self.slot, per_row, |kernel| {
                        self.walk(kernel, group);
                        let v = kernel.finish();
                        out.extend((0..group.len()).map(|l| lanes::lane_nat(v, l, k)));
                    });
                }
            }
            None => with_scratch(2 * (k + 1), |s| {
                let table = &self.table[self.slot..];
                let mut kernel = StrausCios::new(mont, table, self.slot, per_row, s);
                for col in cols.chunks(1) {
                    self.walk(&mut kernel, col);
                    out.push(Nat::from_limbs(kernel.leave().to_vec()));
                }
            }),
        }
        out
    }

    /// The Straus walk: one row per base, one column per exponent vector
    /// of `cols` (at most eight), the digit positions of the longest.
    fn walk<C: AsRef<[Nat]>>(&self, kernel: &mut impl StrausKernel, cols: &[C]) {
        let exps = cols.iter().flat_map(|c| c.as_ref());
        let positions = exps.map(Nat::bit_len).max().unwrap_or(0).div_ceil(self.win);
        let shape = [self.bases, cols.len(), positions];
        straus_walk(kernel, self.win, shape, |c, r, lo| {
            digit(&cols[c].as_ref()[r], lo, self.win)
        });
    }
}

/// A product kernel under [`straus_walk`]: one accumulator per column.
trait StrausKernel {
    /// `acc ← acc²` in every column.
    fn square(&mut self);

    /// `acc ← acc · entry(row, digits[c])` in every column `c`, or
    /// `acc ← entry(row, digits[c])` when `load`; digit 0 takes one.
    fn mul(&mut self, row: usize, digits: &[usize], load: bool);
}

/// The scalar [`StrausKernel`]: one column, CIOS products, `base_r^d` in
/// the `slot`-limb slot `r·per_row + d − 1` of `table`, digit 0 `R mod n`.
struct StrausCios<'a> {
    mont: &'a Montgomery,
    table: &'a [u64],
    slot: usize,
    per_row: usize,
    acc: &'a mut [u64],
    tmp: &'a mut [u64],
}

impl StrausKernel for StrausCios<'_> {
    fn square(&mut self) {
        let k = self.mont.k;
        self.mont
            .cios_into(&self.acc[..k], &self.acc[..k], self.tmp);
        std::mem::swap(&mut self.acc, &mut self.tmp);
    }

    fn mul(&mut self, row: usize, digits: &[usize], load: bool) {
        let k = self.mont.k;
        let entry = match digits[0] {
            0 => &self.mont.one[..],
            d => &self.table[(row * self.per_row + d - 1) * self.slot..][..k],
        };
        if load {
            self.acc[..k].copy_from_slice(entry);
        } else {
            self.mont.cios_into(&self.acc[..k], entry, self.tmp);
            std::mem::swap(&mut self.acc, &mut self.tmp);
        }
    }
}

impl<'a> StrausCios<'a> {
    /// The kernel over `table`, working in `s` (`2(k + 1)` limbs).
    fn new(
        mont: &'a Montgomery,
        table: &'a [u64],
        slot: usize,
        per_row: usize,
        s: &'a mut [u64],
    ) -> Self {
        let (acc, tmp) = s.split_at_mut(mont.k + 1);
        StrausCios {
            mont,
            table,
            slot,
            per_row,
            acc,
            tmp,
        }
    }

    /// Leaves the Montgomery domain: the plain residue, `k` limbs.
    fn leave(&mut self) -> &[u64] {
        let k = self.mont.k;
        self.mont.cios_into(&[1], &self.acc[..k], self.tmp);
        &self.tmp[..k]
    }
}

/// The walk of one exponent per column, for one base or up to eight
/// lanes: one row, `⌈bits/win⌉` positions of the longest exponent.
fn pow_walk(kernel: &mut impl StrausKernel, exps: &[&Nat], win: usize) {
    let positions = exps.iter().map(|e| e.bit_len()).max().unwrap_or(0);
    straus_walk(
        kernel,
        win,
        [1, exps.len(), positions.div_ceil(win)],
        |c, _, lo| digit(exps[c], lo, win),
    );
}

/// The [`FixedBasePow`] comb walk: one row per 4-bit window of `exp`, all
/// at one digit position, so no squarings.
fn comb_walk(kernel: &mut impl StrausKernel, exp: &Nat, windows: usize) {
    straus_walk(kernel, FB_WINDOW, [windows, 1, 1], |_, r, _| {
        digit(exp, r * FB_WINDOW, FB_WINDOW)
    });
}

/// The one digit walk of every power, over `[rows, cols, positions]`:
/// rows of table entries, up to eight columns and digit positions of
/// `win` bits, `digit(col, row, lo)` being the digit of a column and row
/// at bit `lo`. Positions run top down: `win` squarings per position
/// shared by every row and column, then one product per row by each
/// column's table entry, skipped where every column's digit is zero. The
/// first product loads the accumulator, so no squaring comes before it;
/// an input of zeros alone loads one.
fn straus_walk<K: StrausKernel>(
    kernel: &mut K,
    win: usize,
    shape: [usize; 3],
    digit: impl Fn(usize, usize, usize) -> usize,
) {
    let [rows, cols, positions] = shape;
    assert!(cols <= lanes::LANES, "one column per lane");
    let mut digits = [0; lanes::LANES];
    let digits = &mut digits[..cols];
    let mut loaded = false;
    for i in (0..positions).rev() {
        if loaded {
            for _ in 0..win {
                kernel.square();
            }
        }
        for r in 0..rows {
            for (c, d) in digits.iter_mut().enumerate() {
                *d = digit(c, r, i * win);
            }
            if digits.iter().any(|&d| d != 0) {
                kernel.mul(r, digits, !loaded);
                loaded = true;
            }
        }
    }
    if !loaded {
        digits.fill(0);
        kernel.mul(0, digits, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular;
    use crate::rand_src::{RandomSource, XorShiftRng};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// `a·b·R⁻¹ mod n` through the CIOS kernel (`a`, `b` reduced).
    fn cios(ctx: &Montgomery, a: &Nat, b: &Nat) -> Nat {
        let mut bs = vec![0u64; ctx.k];
        ctx.load_reduced(b.limbs(), &mut bs);
        let mut t = vec![0u64; ctx.k + 1];
        ctx.cios_into(a.limbs(), &bs, &mut t);
        Nat::from_limbs(t[..ctx.k].to_vec())
    }

    /// Montgomery form `a·R mod n`, by definition.
    fn to_mont(ctx: &Montgomery, a: &Nat) -> Nat {
        a.shl(64 * ctx.k).rem(&ctx.n)
    }

    /// Square-and-multiply with schoolbook products and long division —
    /// independent of the Montgomery kernel (`modular::mod_pow` is not:
    /// it calls [`Montgomery::pow`] for wide odd moduli).
    fn naive_pow(base: &Nat, exp: &Nat, n: &Nat) -> Nat {
        let mut acc = Nat::one().rem(n);
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul(&acc).rem(n);
            if exp.bit(i) {
                acc = acc.mul(base).rem(n);
            }
        }
        acc
    }

    /// A random odd modulus of exactly `k` limbs.
    fn odd_modulus(rng: &mut XorShiftRng, k: usize) -> Nat {
        let mut n = Nat::random_exact_bits(rng, 64 * k);
        n.set_bit(0, true);
        n
    }

    #[test]
    fn roundtrip_mont_form() {
        let ctx = Montgomery::new(Nat::from(1_000_003u64));
        for v in [0u64, 1, 2, 999_999, 1_000_002] {
            let a = Nat::from(v);
            let am = cios(&ctx, &a, &Nat::from_limbs(ctx.r2.clone()));
            assert_eq!(am, to_mont(&ctx, &a));
            assert_eq!(cios(&ctx, &Nat::one(), &am), a);
        }
    }

    #[test]
    fn pow_matches_naive_small() {
        let ctx = Montgomery::new(Nat::from(10_007u64));
        let mut expect = 1u64;
        for e in 0..50u64 {
            let got = ctx.pow(&Nat::from(5u64), &Nat::from(e));
            assert_eq!(got.to_u64().unwrap(), expect, "e={e}");
            expect = expect * 5 % 10_007;
        }
    }

    #[test]
    fn pow_large_modulus_fermat() {
        // 2^255 - 19 is prime.
        let p = Nat::one().shl(255).sub(&Nat::from(19u64));
        let ctx = Montgomery::new(p.clone());
        let a = Nat::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        assert_eq!(ctx.pow(&a, &p.sub(&Nat::one())), Nat::one());
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = Montgomery::new(Nat::from(100u64));
    }

    /// Pool workers borrow one shared context/table instead of cloning per
    /// cell — compile-time proof they may.
    #[test]
    fn contexts_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Montgomery>();
        assert_send_sync::<FixedBasePow>();
        assert_send_sync::<&Montgomery>();
        assert_send_sync::<&FixedBasePow>();
    }

    #[test]
    fn fixed_base_matches_generic_pow() {
        let ctx = Arc::new(Montgomery::new(Nat::from(1_000_003u64)));
        let base = Nat::from(12_345u64);
        let fb = FixedBasePow::new(Arc::clone(&ctx), &base, 64);
        for e in [0u64, 1, 2, 15, 16, 17, 255, 1_000_002, u64::MAX] {
            let e = Nat::from(e);
            assert_eq!(fb.pow(&e), ctx.pow(&base, &e), "e={}", e.to_dec());
        }
        // At the table's edge: full capacity with every window digit
        // non-zero, and one bit past it (the fallback).
        let mut rng = XorShiftRng::new(0xFB_0022);
        for k in [1, 2, 32, 64] {
            let n = odd_modulus(&mut rng, k);
            let a = Nat::random_below(&mut rng, &n);
            let fb = FixedBasePow::new(Arc::new(Montgomery::new(n.clone())), &a, 96);
            let full = Nat::one().shl(fb.capacity_bits()).sub(&Nat::one());
            for e in [
                full,
                Nat::random_exact_bits(&mut rng, fb.capacity_bits() + 1),
            ] {
                assert_eq!(fb.pow(&e), naive_pow(&a, &e, &n), "k={k}");
            }
        }
    }

    #[test]
    fn fixed_base_large_modulus_and_overflow_fallback() {
        let p = Nat::one().shl(255).sub(&Nat::from(19u64));
        let ctx = Arc::new(Montgomery::new(p.clone()));
        let base = Nat::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        // Capacity deliberately below the exponent size: the fallback path
        // must still be correct.
        let fb = FixedBasePow::new(Arc::clone(&ctx), &base, 64);
        let big_e = p.sub(&Nat::one());
        assert!(big_e.bit_len() > fb.capacity_bits());
        assert_eq!(fb.pow(&big_e), Nat::one()); // Fermat
                                                // And a full-capacity table agrees with the generic path.
        let fb = FixedBasePow::new(Arc::clone(&ctx), &base, 255);
        let e = Nat::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(fb.pow(&e), ctx.pow(&base, &e));
    }

    #[test]
    fn fixed_base_zero_exponent_and_base_reduction() {
        let ctx = Arc::new(Montgomery::new(Nat::from(101u64)));
        // Base above the modulus is reduced on entry, like Montgomery::pow.
        let fb = FixedBasePow::new(Arc::clone(&ctx), &Nat::from(305u64), 16);
        assert_eq!(fb.pow(&Nat::zero()), Nat::one());
        assert_eq!(
            fb.pow(&Nat::from(7u64)),
            ctx.pow(&Nat::from(305u64), &Nat::from(7u64))
        );
    }

    /// The widths a real key lands on (32 limbs = `p²` of a 2048-bit
    /// Paillier key, 64 = its `n²`), either side of the old 24-limb
    /// Karatsuba cutover, and 70 limbs, whose width-6 window table
    /// outgrows the stack scratch: short and full-width `pow`, `mul_mod`
    /// and `FixedBasePow::pow` against schoolbook references.
    #[test]
    fn wide_moduli_match_schoolbook_references() {
        let mut rng = XorShiftRng::new(0x00C1_0520);
        for k in [20, 24, 25, 32, 64, 70] {
            let n = odd_modulus(&mut rng, k);
            let ctx = Arc::new(Montgomery::new(n.clone()));
            let a = Nat::random_below(&mut rng, &n);
            let b = Nat::random_below(&mut rng, &n);
            assert_eq!(ctx.mul_mod(&a, &b), a.mul(&b).rem(&n), "k={k}");
            let short = Nat::random_bits(&mut rng, 32);
            assert_eq!(ctx.pow(&a, &short), naive_pow(&a, &short, &n), "k={k}");
            let full = Nat::random_exact_bits(&mut rng, 64 * k);
            assert_eq!(ctx.pow(&a, &full), naive_pow(&a, &full, &n), "k={k}");
            let fb = FixedBasePow::new(Arc::clone(&ctx), &a, 128);
            let e = Nat::random_bits(&mut rng, 128);
            assert_eq!(fb.pow(&e), naive_pow(&a, &e, &n), "k={k}");
            if k == 64 {
                assert_eq!(ctx.pow(&a, &Nat::zero()), Nat::one());
                assert_eq!(ctx.pow_uncounted(&b, &Nat::zero()), Nat::one());
            }
        }
    }

    /// Logs what the walk asks of its kernel: `s`quare, `l`oad, load of
    /// `1` (every digit zero) and `p`roduct.
    #[derive(Default)]
    struct Log(String);

    impl StrausKernel for Log {
        fn square(&mut self) {
            self.0.push('s');
        }

        fn mul(&mut self, _row: usize, digits: &[usize], load: bool) {
            let zero = digits.iter().all(|&d| d == 0);
            assert!(load || !zero, "a product by one");
            self.0.push(if !load {
                'p'
            } else if zero {
                '1'
            } else {
                'l'
            });
        }
    }

    /// The walk's product sequence for each shape: a single power of
    /// `bits` bits at width `w` loads its top digit, then per lower digit
    /// squares `w` times (`w·(⌈bits/w⌉ − 1)` in all) and multiplies if the
    /// digit is non-zero; a comb loads its first non-zero window and
    /// multiplies in the others, with no squaring; an input of zeros loads
    /// one and does nothing else.
    #[test]
    fn straus_walk_issues_one_product_per_nonzero_digit() {
        // Whether `e`'s `w`-bit digit `i` is non-zero, by shifts.
        let nonzero = |e: u128, w: usize, i: usize| {
            e.checked_shr((i * w) as u32).unwrap_or(0) & ((1 << w) - 1) != 0
        };
        let mut rng = XorShiftRng::new(0x5A1C_0022);
        for bits in [1usize, 2, 5, 23, 24, 64, 100, 128] {
            let top = 1u128 << (bits - 1);
            let random =
                top | (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) & (top - 1);
            for e in [top, top | 1, random, u128::MAX >> (128 - bits)] {
                for w in 1..=6 {
                    let tail: String = (0..bits.div_ceil(w) - 1)
                        .rev()
                        .map(|i| "s".repeat(w) + if nonzero(e, w, i) { "p" } else { "" })
                        .collect();
                    let mut log = Log::default();
                    pow_walk(&mut log, &[&Nat::from(e)], w);
                    assert_eq!(log.0, format!("l{tail}"), "e={e:#x} w={w}");
                }
                let windows = bits.div_ceil(4) + 2;
                let products = (0..windows).filter(|&i| nonzero(e, 4, i)).count() - 1;
                let mut log = Log::default();
                comb_walk(&mut log, &Nat::from(e), windows);
                assert_eq!(log.0, format!("l{}", "p".repeat(products)), "comb e={e:#x}");
            }
        }
        for w in 1..=6 {
            let mut log = Log::default();
            pow_walk(&mut log, &[&Nat::zero()], w);
            comb_walk(&mut log, &Nat::zero(), w);
            straus_walk(&mut log, w, [5, lanes::LANES, 4], |_, _, _| 0);
            assert_eq!(log.0, "111", "w={w}");
        }
    }

    /// `Π_r naive_pow(base_r, exp_r)`: the multi-exponentiation by
    /// definition, through the schoolbook reference.
    fn naive_multi_pow(bases: &[Nat], exps: &[Nat], n: &Nat) -> Nat {
        bases
            .iter()
            .zip(exps)
            .fold(Nat::one().rem(n), |acc, (b, e)| {
                acc.mul(&naive_pow(&b.rem(n), e, n)).rem(n)
            })
    }

    fn multi_pow(ctx: &Montgomery, bases: &[Nat], exps: &[Nat], exp_bits: usize) -> Nat {
        let bases: Vec<&Nat> = bases.iter().collect();
        let mut out = MultiPow::new(ctx, &bases, exp_bits, 4).pow_batch(&[exps]);
        out.pop().expect("one column")
    }

    /// The widths a 2048-bit key lands on (32 and 64 limbs) and 70 limbs:
    /// all-zero and single-digit exponent vectors, mixed exponent lengths
    /// with zeros among them, an unreduced and a zero base, and exponents
    /// longer than the table was sized for.
    #[test]
    fn multi_pow_matches_product_of_naive_pows() {
        let mut rng = XorShiftRng::new(0x5742_0500);
        for k in [32, 64, 70] {
            let n = odd_modulus(&mut rng, k);
            let ctx = Montgomery::new(n.clone());
            let mut bases: Vec<Nat> = (0..5).map(|_| Nat::random_below(&mut rng, &n)).collect();
            bases.push(Nat::random_bits(&mut rng, 64 * k + 9)); // unreduced
            let zeros = vec![Nat::zero(); bases.len()];
            assert_eq!(multi_pow(&ctx, &bases, &zeros, 10), Nat::one(), "k={k}");
            let mut one_digit = zeros.clone();
            one_digit[3] = Nat::one();
            assert_eq!(multi_pow(&ctx, &bases, &one_digit, 10), bases[3], "k={k}");
            let exps: Vec<Nat> = [1, 10, 0, 64, 130, 33]
                .iter()
                .map(|&bits| match bits {
                    0 => Nat::zero(),
                    _ => Nat::random_exact_bits(&mut rng, bits),
                })
                .collect();
            let expect = naive_multi_pow(&bases, &exps, &n);
            for sized_for in [1, 64, 130] {
                assert_eq!(multi_pow(&ctx, &bases, &exps, sized_for), expect, "k={k}");
            }
            let mut with_zero_base = bases.clone();
            with_zero_base[2] = Nat::zero();
            assert_eq!(
                multi_pow(&ctx, &with_zero_base, &exps, 64),
                naive_multi_pow(&with_zero_base, &exps, &n),
                "k={k} zero base, zero exponent"
            );
            let mut hits_zero = exps.clone();
            hits_zero[2] = Nat::from(5u64);
            assert_eq!(
                multi_pow(&ctx, &with_zero_base, &hits_zero, 64),
                Nat::zero()
            );
        }
    }

    /// The width rule: the cheapest width whose table fits the budget.
    #[test]
    fn multi_pow_window_fits_the_table_budget() {
        // A 32×32 scan of 10-bit cells under a 2048-bit key (n²: 64 limbs,
        // 79 lane digits a slot): width 5 would need fewest products but
        // 613 KiB of table.
        let n_sq = Montgomery::new(Nat::one().shl(4095).add(&Nat::one()));
        assert_eq!(multi_pow_slot(&n_sq), 79);
        assert_eq!(multi_pow_window(32, 79, 10, 32), 3);
        assert_eq!(multi_pow_window(32, 1, 10, 32), 5);
        // Past the budget even at width 2, width 1 still qualifies.
        assert_eq!(multi_pow_window(4096, 79, 64, 4096), 1);
        // Nothing to walk: the smallest table wins.
        assert_eq!(multi_pow_window(32, 79, 0, 32), 1);
    }

    /// Says on stderr whether this host ran the lane kernel, so a run
    /// with `--nocapture` shows which path the batch tests covered.
    fn report_lane_path(test: &str) {
        if lanes::available() {
            eprintln!("{test}: lane kernel ran (avx512ifma)");
        } else {
            eprintln!("{test}: no avx512ifma, only the scalar fallback ran");
        }
    }

    /// `pow_batch` against `pow_uncounted` over `bases` at `exps`, at every
    /// batch length that splits into full and partial lane groups.
    fn check_batch(ctx: &Montgomery, bases: &[Nat], exps: &[Nat], what: &str) {
        for e in exps {
            let want: Vec<Nat> = bases.iter().map(|b| ctx.pow_uncounted(b, e)).collect();
            for len in [1, 7, 8, 9, 17] {
                let batch: Vec<&Nat> = bases.iter().cycle().take(len).collect();
                let want: Vec<Nat> = want.iter().cycle().take(len).cloned().collect();
                assert_eq!(ctx.pow_batch(&batch, e), want, "{what} len={len} e={e:?}");
            }
        }
    }

    /// Bases for a batch at modulus `n`: random residues, zero, `n − 1`,
    /// `n` itself and unreduced values of one and several limbs past `n`.
    fn batch_bases(rng: &mut XorShiftRng, n: &Nat) -> Vec<Nat> {
        let mut bases: Vec<Nat> = (0..4).map(|_| Nat::random_below(rng, n)).collect();
        let k = n.limbs().len();
        bases.extend([
            Nat::zero(),
            n.sub(&Nat::one()),
            n.clone(),
            Nat::random_bits(rng, 64 * k + 9),
            Nat::random_bits(rng, 64 * (3 * k + 1)),
        ]);
        bases
    }

    /// Every width from 1 to 70 limbs with exponents 0, 1 and short ones,
    /// full-width exponents at the widths a 2048-bit key lands on and
    /// either side of them.
    #[test]
    fn pow_batch_matches_pow_uncounted_at_every_width() {
        report_lane_path("pow_batch_matches_pow_uncounted_at_every_width");
        let mut rng = XorShiftRng::new(0x1F3A_0808);
        for k in 1..=70 {
            let n = odd_modulus(&mut rng, k);
            let ctx = Montgomery::new(n.clone());
            let mut exps = vec![Nat::zero(), Nat::one(), Nat::random_bits(&mut rng, 40)];
            if [1, 2, 3, 16, 32, 33, 64, 70].contains(&k) {
                exps.push(Nat::random_exact_bits(&mut rng, 64 * k));
            }
            check_batch(&ctx, &batch_bases(&mut rng, &n), &exps, &format!("k={k}"));
        }
    }

    /// Moduli whose bit length is ≡ 50, 51 or 0 mod 52 sit at the edge of
    /// the lane kernel's `R > 4n` margin (a digit more or less), and the
    /// base `n − 1` drives its products to their bounds.
    #[test]
    fn pow_batch_at_digit_boundaries() {
        report_lane_path("pow_batch_at_digit_boundaries");
        let mut rng = XorShiftRng::new(0x52_0052);
        for digits in [1, 2, 10, 20, 39, 40, 79] {
            for rem in [50, 51, 52] {
                let bits = 52 * digits + rem;
                let mut n = Nat::random_exact_bits(&mut rng, bits);
                n.set_bit(0, true);
                let ctx = Montgomery::new(n.clone());
                let exps = [
                    Nat::random_bits(&mut rng, 33),
                    Nat::random_exact_bits(&mut rng, bits.min(700)),
                ];
                check_batch(
                    &ctx,
                    &batch_bases(&mut rng, &n),
                    &exps,
                    &format!("bits={bits}"),
                );
            }
        }
    }

    /// `pow_chains` against the scalar powers step by step: the two-step
    /// lift chain (`·^e mod p`, then `·^p mod p²`) of one modulus, and the
    /// chains of `p` and of `q` in the lanes of one group, as the CRT
    /// halves of a Paillier key hold them, on `Montgomery::new` contexts
    /// (each at its own digit count, scalar where those differ) and on
    /// `new_set` ones (one digit count).
    #[test]
    fn pow_chains_match_powers_in_turn() {
        report_lane_path("pow_chains_match_powers_in_turn");
        let mut rng = XorShiftRng::new(0x7E4_0002);
        // (64, 79): p² and q² take 3 and 4 lane digits; (100, 103): p
        // and q take 2 and 3.
        for (bits_p, bits_q) in [(40, 41), (64, 79), (100, 103), (1023, 1024)] {
            let odd = |rng: &mut XorShiftRng, bits: usize| {
                let mut n = Nat::random_exact_bits(rng, bits);
                n.set_bit(0, true);
                n
            };
            let (p, q) = (odd(&mut rng, bits_p), odd(&mut rng, bits_q));
            let (e_p, e_q) = (Nat::random_exact_bits(&mut rng, bits_p), q.clone());
            let bases = batch_bases(&mut rng, &p.square());
            let plain = [p.clone(), q.clone()].map(Montgomery::new);
            let squares = [p.square(), q.square()].map(Montgomery::new);
            let set = Montgomery::new_set([p.clone(), q.clone()]);
            let set_sq = Montgomery::new_set([p.square(), q.square()]);
            for (ctx, sq) in [(&plain, &squares), (&set, &set_sq)] {
                let halves = [
                    [(&ctx[0], &e_p), (&sq[0], &p)],
                    [(&ctx[1], &e_q), (&sq[1], &q)],
                ];
                let scalar = |b: &Nat, h: &[PowStep<'_>]| {
                    h.iter().fold(b.clone(), |x, (m, e)| m.pow_uncounted(&x, e))
                };
                for len in [1, 3, 4, 5, 7, 8, 9, 17] {
                    let batch: Vec<&Nat> = bases.iter().cycle().take(len).collect();
                    let what = format!("bits={bits_p},{bits_q} len={len}");
                    let want: Vec<Nat> = batch.iter().map(|b| scalar(b, &halves[0])).collect();
                    assert_eq!(pow_chains(&batch, |_| &halves[0]), want, "{what}");
                    // Both halves of every base, packed p first, then q.
                    let both: Vec<&Nat> = batch.iter().chain(&batch).copied().collect();
                    let want: Vec<Nat> = both
                        .iter()
                        .enumerate()
                        .map(|(i, b)| scalar(b, &halves[usize::from(i >= len)]))
                        .collect();
                    let got = pow_chains(&both, |i| &halves[usize::from(i >= len)]);
                    assert_eq!(got, want, "both halves, {what}");
                }
            }
        }
    }

    /// The crossover table sends full groups to the lane kernel wherever
    /// the CPU has it, and singles never. It counts filled lanes, whatever
    /// their moduli, and lanes share a walk only at one digit count.
    #[test]
    fn lane_dispatch_follows_the_crossover_table() {
        let mut rng = XorShiftRng::new(3);
        let e = Nat::from(65_537u64);
        for k in [1, 2, 3, 32] {
            let ctx = Montgomery::new(odd_modulus(&mut rng, k));
            let one = [(&ctx, &e)];
            assert_eq!(lanes_pay(&[&one[..]; 8]), lanes::available(), "k={k}");
            assert!(!lanes_pay(&[&one[..]]), "k={k}");
            assert!(!lanes_pay(&[&[(&ctx, &Nat::zero())][..]; 8]), "k={k}");
            // Two lanes, each with its own modulus and exponent: on the
            // lanes from 3 limbs, as two bases of one modulus are.
            let (other, three) = (Montgomery::new(odd_modulus(&mut rng, k)), Nat::from(3u64));
            let two = [&one[..], &[(&other, &three)][..]];
            assert_eq!(lanes_pay(&two), k >= 3 && lanes::available(), "k={k}");
            assert_eq!(lanes_pay(&[&one[..]; 2]), k >= 3 && lanes::available());
        }
        // 1038 and 1039 bits: 20 and 21 lane digits.
        let [mut n, mut wide] = [1038, 1039].map(|b| Nat::random_exact_bits(&mut rng, b));
        n.set_bit(0, true);
        wide.set_bit(0, true);
        let mixed = [Montgomery::new(n.clone()), Montgomery::new(wide.clone())];
        let set = Montgomery::new_set([n, wide]);
        for (ctx, shares) in [(&mixed, false), (&set, true)] {
            let (a, b) = ([(&ctx[0], &e)], [(&ctx[1], &e)]);
            assert_eq!(lanes_pay(&[&a[..], &b[..]]), shares && lanes::available());
        }
    }

    /// `cols` columns of exponents over `rows` bases: an all-zero column,
    /// random lengths up to `bits` with zeros among them, and one column
    /// of exponents longer than a table sized for `bits` serves.
    fn fold_columns(rng: &mut XorShiftRng, rows: usize, cols: usize, bits: usize) -> Vec<Vec<Nat>> {
        (0..cols)
            .map(|c| {
                (0..rows)
                    .map(|r| match (c % 4, (r + c) % 5) {
                        (0, _) | (_, 0) => Nat::zero(),
                        (3, 1) => Nat::random_exact_bits(rng, 3 * bits + 7),
                        _ => {
                            let len = 1 + rng.next_u64() as usize % bits;
                            Nat::random_bits(rng, len)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The lane fold (on CPUs with AVX-512 IFMA) against the scalar
    /// `MultiPow` and the schoolbook product of powers: at every width a
    /// key lands on and either side of the lane kernel's crossover, at
    /// column counts that split into full and partial lane groups, with
    /// all-zero columns, a zero base, an unreduced base and exponents
    /// longer than the table was sized for.
    #[test]
    fn lane_fold_matches_scalar_and_naive_multi_pow() {
        report_lane_path("lane_fold_matches_scalar_and_naive_multi_pow");
        let mut rng = XorShiftRng::new(0x57A5_0808);
        for k in [1, 2, 3, 5, 16, 32, 64, 70] {
            let n = odd_modulus(&mut rng, k);
            let ctx = Montgomery::new(n.clone());
            let mut bases: Vec<Nat> = (0..9).map(|_| Nat::random_below(&mut rng, &n)).collect();
            bases[2] = Nat::zero();
            bases[5] = Nat::random_bits(&mut rng, 64 * k + 9);
            let refs: Vec<&Nat> = bases.iter().collect();
            for cols in [1, 7, 8, 9, 17] {
                let exps = fold_columns(&mut rng, bases.len(), cols, 12);
                let lane = MultiPow::build(&ctx, &refs, 12, cols, lanes::available());
                let scalar = MultiPow::build(&ctx, &refs, 12, cols, false);
                let got = lane.pow_batch(&exps);
                assert_eq!(got, scalar.pow_batch(&exps), "k={k} cols={cols}");
                for (c, col) in exps.iter().enumerate().filter(|(c, _)| c % 3 == 0) {
                    let want = naive_multi_pow(&bases, col, &n);
                    assert_eq!(got[c], want, "k={k} cols={cols} col={c}");
                }
                assert_eq!(got[0], Nat::one(), "k={k}: all-zero column");
            }
        }
    }

    /// Folds go to the lanes from the crossover's column count, wherever
    /// the CPU has the kernel, and never below it.
    #[test]
    fn lane_fold_dispatch_follows_the_crossover_table() {
        let mut rng = XorShiftRng::new(5);
        for k in [1, 2, 3, 5, 32, 64] {
            let ctx = Montgomery::new(odd_modulus(&mut rng, k));
            let min = lane_min_cols(k);
            assert_eq!(lane_fold_pays(&ctx, 32), lanes::available(), "k={k}");
            assert_eq!(lane_fold_pays(&ctx, min), lanes::available(), "k={k}");
            assert!(!lane_fold_pays(&ctx, min - 1), "k={k}");
        }
    }

    proptest! {
        #[test]
        fn prop_multi_pow_matches_naive(
            bases in proptest::collection::vec(any::<u64>(), 1..6),
            exps in proptest::collection::vec(any::<u64>(), 6..7),
            shifts in proptest::collection::vec(0u32..65, 6..7),
            m in (1u64<<32)..u64::MAX,
        ) {
            let n = Nat::from(m | 1);
            let ctx = Montgomery::new(n.clone());
            let bases: Vec<Nat> = bases.into_iter().map(Nat::from).collect();
            // Exponents of every length from 0 to 64 bits.
            let exps: Vec<Nat> = exps
                .iter()
                .zip(&shifts)
                .take(bases.len())
                .map(|(&e, &s)| Nat::from(e.checked_shr(s).unwrap_or(0)))
                .collect();
            prop_assert_eq!(multi_pow(&ctx, &bases, &exps, 64), naive_multi_pow(&bases, &exps, &n));
        }

        #[test]
        fn prop_fixed_base_matches_generic(b in any::<u64>(), e in any::<u64>(), m in (1u64<<32)..u64::MAX) {
            let m = m | 1;
            let ctx = Arc::new(Montgomery::new(Nat::from(m)));
            let fb = FixedBasePow::new(Arc::clone(&ctx), &Nat::from(b), 64);
            prop_assert_eq!(fb.pow(&Nat::from(e)), ctx.pow(&Nat::from(b), &Nat::from(e)));
        }

        #[test]
        fn prop_pow_matches_generic(b in any::<u64>(), e in any::<u64>(), m in (1u64<<32)..u64::MAX) {
            let m = m | 1; // force odd
            let ctx = Montgomery::new(Nat::from(m));
            let got = ctx.pow(&Nat::from(b), &Nat::from(e));
            // Generic path (m <= 64 bits goes through plain square-and-multiply).
            let expect = modular::mod_pow(&Nat::from(b), &Nat::from(e), &Nat::from(m));
            prop_assert_eq!(got, expect);
        }

        /// Multi-limb moduli drive the fused CIOS kernel through real carry
        /// chains (the u64-modulus tests above only ever see `k = 1`): it
        /// must agree with the definition `a·b·R⁻¹ mod n`, and `mul_mod`
        /// with plain long division — for unreduced operands too.
        #[test]
        fn prop_cios_matches_two_step_multi_limb(
            m_limbs in proptest::collection::vec(any::<u64>(), 3..7),
            a_limbs in proptest::collection::vec(any::<u64>(), 1..9),
            b_limbs in proptest::collection::vec(any::<u64>(), 1..9),
        ) {
            let mut m_limbs = m_limbs;
            m_limbs[0] |= 1; // odd
            let last = m_limbs.len() - 1;
            m_limbs[last] |= 1 << 63; // keep the top limb populated
            let n = Nat::from_limbs(m_limbs);
            let ctx = Montgomery::new(n.clone());
            let (a_wide, b_wide) = (Nat::from_limbs(a_limbs), Nat::from_limbs(b_limbs));
            prop_assert_eq!(ctx.mul_mod(&a_wide, &b_wide), a_wide.mul(&b_wide).rem(&n));
            let (a, b) = (a_wide.rem(&n), b_wide.rem(&n));
            let r_inv = modular::mod_inv(&Nat::one().shl(64 * ctx.k), &n).unwrap();
            prop_assert_eq!(cios(&ctx, &a, &b), a.mul(&b).mul(&r_inv).rem(&n));
        }

        #[test]
        fn prop_mont_mul_is_mod_mul(a in any::<u64>(), b in any::<u64>(), m in (1u64<<32)..u64::MAX) {
            let m = m | 1;
            let ctx = Montgomery::new(Nat::from(m));
            let (am, bm) = (to_mont(&ctx, &Nat::from(a)), to_mont(&ctx, &Nat::from(b)));
            let got = cios(&ctx, &Nat::one(), &cios(&ctx, &am, &bm));
            prop_assert_eq!(got.to_u64().unwrap(), ((a as u128 % m as u128) * (b as u128 % m as u128) % m as u128) as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Random widths across the old 24-limb cutover, with exponents of
        /// random length (so every window width is drawn).
        #[test]
        fn prop_wide_pow_and_mul_mod(k in 20usize..71, seed in any::<u64>()) {
            let mut rng = XorShiftRng::new(seed | 1);
            let n = odd_modulus(&mut rng, k);
            let ctx = Montgomery::new(n.clone());
            let a = Nat::random_below(&mut rng, &n);
            let b = Nat::random_bits(&mut rng, 64 * k + 7); // unreduced
            prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul(&b).rem(&n));
            let e_bits = 1 + rng.next_u64() as usize % (64 * k);
            let e = Nat::random_bits(&mut rng, e_bits);
            prop_assert_eq!(ctx.pow(&b, &e), naive_pow(&b.rem(&n), &e, &n));
        }
    }
}
