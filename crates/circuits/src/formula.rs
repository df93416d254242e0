//! Boolean formulas and their arithmetization — the §3.1 construction.
//!
//! The multi-server protocol expresses `f` as a multivariate polynomial `P`
//! over a field `F`, in the bits of the client's `m` selected indices:
//!
//! * each leaf of the formula names an argument slot `j ∈ [m]` and becomes
//!   the database selector polynomial
//!   `P₀(y₁…y_ℓ) = Σ_i x_i · Π_k (y_k if i(k)=1 else 1-y_k)` of degree `ℓ`;
//! * each binary gate `g` becomes its natural degree-2 polynomial `Q_g`
//!   (e.g. `AND(φ,ψ) = φ·ψ`, `OR = φ+ψ-φψ`, `XOR = φ+ψ-2φψ`).
//!
//! The total degree of `P` is at most `ℓ·s` where `s` is the number of
//! leaves — the quantity that determines the server count `k = t·ℓ·s + 1`
//! in Theorem 2.
//!
//! `P` is *evaluated implicitly* (gate by gate over field values). Each
//! leaf costs `n` word multiply-adds plus about `1024 + 3n/1024` field
//! multiplications ([`selector_evals`]: an eq-table inner product over
//! 2¹⁰-entry blocks, each read once for up to four leaves and summed in
//! one `u64` per leaf when `p ≤ 4 194 301` and its words are below 2³²,
//! in `u128` reduced every `⌊(2¹²⁸−1)/(p−1)²⌋` terms otherwise); the
//! explicit expansion to an `MPoly` is provided for validation on small
//! instances.

use spfe_math::{Fp64, MPoly};

/// Binary gate operations available in formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical XOR.
    Xor,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
}

impl BinOp {
    /// Boolean semantics.
    pub fn apply(self, a: bool, b: bool) -> bool {
        match self {
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Nand => !(a & b),
            BinOp::Nor => !(a | b),
        }
    }

    /// The natural degree-2 gate polynomial `Q_g` over a field.
    pub fn arithmetize(self, f: Fp64, a: u64, b: u64) -> u64 {
        let ab = f.mul(a, b);
        match self {
            BinOp::And => ab,
            BinOp::Or => f.sub(f.add(a, b), ab),
            BinOp::Xor => f.sub(f.add(a, b), f.mul(2 % f.modulus(), ab)),
            BinOp::Nand => f.sub(1, ab),
            BinOp::Nor => f.sub(1, f.sub(f.add(a, b), ab)),
        }
    }
}

/// A Boolean formula over `m` argument slots.
///
/// # Examples
///
/// ```
/// use spfe_circuits::formula::{Formula, BinOp};
/// // (arg0 AND arg1) XOR arg2
/// let f = Formula::gate(
///     BinOp::Xor,
///     Formula::gate(BinOp::And, Formula::leaf(0), Formula::leaf(1)),
///     Formula::leaf(2),
/// );
/// assert_eq!(f.size(), 3); // three leaves
/// assert!(f.evaluate(&[true, true, false]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// The `j`-th selected data item.
    Leaf(usize),
    /// A binary gate over two subformulas.
    Gate(BinOp, Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// A leaf referencing argument slot `j`.
    pub fn leaf(j: usize) -> Self {
        Formula::Leaf(j)
    }

    /// A binary gate node.
    pub fn gate(op: BinOp, left: Formula, right: Formula) -> Self {
        Formula::Gate(op, Box::new(left), Box::new(right))
    }

    /// A negation node.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: Formula) -> Self {
        Formula::Not(Box::new(inner))
    }

    /// A balanced tree combining leaves `0..m` with `op`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn balanced(op: BinOp, m: usize) -> Self {
        assert!(m > 0);
        fn rec(op: BinOp, lo: usize, hi: usize) -> Formula {
            if hi - lo == 1 {
                Formula::Leaf(lo)
            } else {
                let mid = lo + (hi - lo) / 2;
                Formula::gate(op, rec(op, lo, mid), rec(op, mid, hi))
            }
        }
        rec(op, 0, m)
    }

    /// The paper's formula size `s`: the number of leaves.
    pub fn size(&self) -> usize {
        match self {
            Formula::Leaf(_) => 1,
            Formula::Gate(_, l, r) => l.size() + r.size(),
            Formula::Not(inner) => inner.size(),
        }
    }

    /// The number of argument slots `m` (one more than the largest slot).
    pub fn arity(&self) -> usize {
        match self {
            Formula::Leaf(j) => j + 1,
            Formula::Gate(_, l, r) => l.arity().max(r.arity()),
            Formula::Not(inner) => inner.arity(),
        }
    }

    /// Degree of the arithmetization when each leaf has degree `leaf_deg`
    /// (`= ℓ = ⌈log₂ n⌉` for the selector polynomial): `deg(P) ≤ ℓ·s`.
    pub fn degree_bound(&self, leaf_deg: usize) -> usize {
        match self {
            Formula::Leaf(_) => leaf_deg,
            Formula::Gate(_, l, r) => l.degree_bound(leaf_deg) + r.degree_bound(leaf_deg),
            Formula::Not(inner) => inner.degree_bound(leaf_deg),
        }
    }

    /// Boolean evaluation on concrete arguments.
    ///
    /// # Panics
    ///
    /// Panics if `args` is shorter than the arity.
    pub fn evaluate(&self, args: &[bool]) -> bool {
        match self {
            Formula::Leaf(j) => args[*j],
            Formula::Gate(op, l, r) => op.apply(l.evaluate(args), r.evaluate(args)),
            Formula::Not(inner) => !inner.evaluate(args),
        }
    }

    /// Arithmetized evaluation: applies the gate polynomials to field values
    /// standing for the leaf values (one value per argument slot).
    ///
    /// On 0/1 inputs this agrees with [`Formula::evaluate`]; on arbitrary
    /// field points it is the low-degree extension the §3.1 protocol
    /// evaluates.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_values` is shorter than the arity.
    pub fn arithmetized_eval(&self, f: Fp64, leaf_values: &[u64]) -> u64 {
        match self {
            Formula::Leaf(j) => leaf_values[*j],
            Formula::Gate(op, l, r) => op.arithmetize(
                f,
                l.arithmetized_eval(f, leaf_values),
                r.arithmetized_eval(f, leaf_values),
            ),
            Formula::Not(inner) => f.sub(1, inner.arithmetized_eval(f, leaf_values)),
        }
    }
}

/// Number of index bits `ℓ = ⌈log₂ n⌉` for a database of `n ≥ 1` items.
pub fn index_bits(n: usize) -> usize {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()).max(1) as usize
}

/// Encodes index `i` as its `ℓ` bits (little-endian) embedded in the field.
pub fn encode_index(i: usize, ell: usize) -> Vec<u64> {
    (0..ell).map(|k| ((i >> k) & 1) as u64).collect()
}

/// Index bits covered by one block of [`selector_evals`]' inner products.
const BLOCK_BITS: usize = 10;

/// Points whose block sums [`selector_evals`] forms in one pass over each
/// block (measured in DESIGN.md §8).
const GROUP: usize = 4;

/// Evaluates the database selector polynomial
/// `P₀(y) = Σ_i x_i · Π_k (y_k if i(k)=1 else 1-y_k)`
/// at one field point `y ∈ F^ℓ` — the implicit leaf evaluation of §3.1.
///
/// The one-point call of [`selector_evals`]: the same result, with two
/// eq tables of scratch and no result vector.
///
/// # Panics
///
/// Panics if `2^{y.len()} < db.len()`.
pub fn selector_eval(db: &[u64], y: &[u64], f: Fp64) -> u64 {
    let mut out = [0];
    selector_evals_into(db, &[y], f, &mut out);
    out[0]
}

/// Evaluates `P₀` at every point of `ys`, reading each database block once
/// per group of up to four points rather than once per point.
///
/// `χ_i(y)` factors over the low `lo = min(index_bits(n), 10)` and the
/// high index bits, so `P₀(y) = Σ_b eq_hi[b] · Σ_j x_{b·2^lo + j} · eq_lo[j]`
/// with two eq tables of `2^lo ≤ 1024` and `2^(index_bits(n)−lo) < 2n/2^lo`
/// entries per point. A group's tables are built once; then one pass over
/// each block forms the inner sum of every point of the group, each
/// reduced mod `p` once, on one of two paths chosen by `p` and the block's
/// words alone:
///
/// * **narrow**, when `(p−1)·(2³²−1)·2^lo ≤ 2⁶⁴−1` (every `p ≤ 4 194 301`
///   at `lo = 10`) and every word of the block is below `2³²`: the
///   products of the words, unreduced, and the eq entries, each below
///   `(2³²−1)·(p−1)`, add up in one `u64` per point;
/// * **wide** otherwise, for every point of the group: raw `u128`
///   products of reduced words, reduced every `⌊(2¹²⁸−1)/(p−1)²⌋` terms
///   (4 at `p ≈ 2⁶³`, never within a block for `p < 2⁵⁹`).
///
/// Cost for `m` points: `n·⌈m/4⌉` word reads and `n·m` multiply-adds,
/// plus fewer than `m·(2^lo + 3n/2^lo + ℓ)` field multiplications, against
/// `n·ℓ·m` for the per-entry products. Both paths give the canonical
/// residue of the same value, so every result is bit-identical to the
/// per-entry form, and the scratch depends only on `n` and `m`.
///
/// # Panics
///
/// Panics if `2^{y.len()} < db.len()` for a point `y` of `ys`.
pub fn selector_evals<Y: AsRef<[u64]>>(db: &[u64], ys: &[Y], f: Fp64) -> Vec<u64> {
    let mut out = vec![0; ys.len()];
    selector_evals_into(db, ys, f, &mut out);
    out
}

/// [`selector_evals`] into `out`, one slot per point.
fn selector_evals_into<Y: AsRef<[u64]>>(db: &[u64], ys: &[Y], f: Fp64, out: &mut [u64]) {
    let bits = index_bits(db.len().max(1));
    let lo = bits.min(BLOCK_BITS);
    let (lo_len, hi_len) = (1 << lo, 1 << (bits - lo));
    let width = ys.len().min(GROUP);
    let mut eq_lo = vec![0; width * lo_len];
    let mut eq_hi = vec![0; width * hi_len];
    for (group, out) in ys.chunks(GROUP).zip(out.chunks_mut(GROUP)) {
        let tables = eq_lo
            .chunks_exact_mut(lo_len)
            .zip(eq_hi.chunks_exact_mut(hi_len));
        for (y, (eq_lo, eq_hi)) in group.iter().zip(tables) {
            let y = y.as_ref();
            assert!(y.len() >= bits, "too few index bits for the database");
            eq_table(&y[..lo], f, eq_lo);
            eq_table(&y[lo..bits], f, eq_hi);
        }
        let eq_lo = &eq_lo[..group.len() * lo_len];
        let eq_hi = &eq_hi[..group.len() * hi_len];
        group_sums(db, eq_lo, eq_hi, f, out);
        // Index bits beyond index_bits(n) are 0 for every entry.
        for (y, acc) in group.iter().zip(out) {
            let tail = &y.as_ref()[bits..];
            *acc = tail
                .iter()
                .fold(*acc, |acc, &v| f.mul(acc, f.sub(1, f.from_u64(v))));
        }
    }
}

/// `out[g] = Σ_b eq_hi_g[b] · Σ_j x_{b·2^lo + j} · eq_lo_g[j]` for the
/// `out.len() ≤ GROUP` points whose `2^lo`-entry low tables make up
/// `eq_lo` and high tables `eq_hi`: one read of each block serves every
/// point. Not generic, so each width's pass is compiled once.
fn group_sums(db: &[u64], eq_lo: &[u64], eq_hi: &[u64], f: Fp64, out: &mut [u64]) {
    // One arm per group width up to GROUP.
    match out.len() {
        1 => out.copy_from_slice(&block_pass::<1>(db, eq_lo, eq_hi, f)),
        2 => out.copy_from_slice(&block_pass::<2>(db, eq_lo, eq_hi, f)),
        3 => out.copy_from_slice(&block_pass::<3>(db, eq_lo, eq_hi, f)),
        _ => out.copy_from_slice(&block_pass::<GROUP>(db, eq_lo, eq_hi, f)),
    }
}

/// [`group_sums`] for a group of `G` points.
fn block_pass<const G: usize>(db: &[u64], eq_lo: &[u64], eq_hi: &[u64], f: Fp64) -> [u64; G] {
    let (block_len, hi_len) = (eq_lo.len() / G, eq_hi.len() / G);
    let lo: [&[u64]; G] = std::array::from_fn(|g| &eq_lo[g * block_len..][..block_len]);
    let hi: [&[u64]; G] = std::array::from_fn(|g| &eq_hi[g * hi_len..][..hi_len]);
    let p = f.modulus();
    let pm1 = (p - 1) as u128;
    // Terms of at most (p−1)² each that a u128 holds without overflow.
    let run = (u128::MAX / (pm1 * pm1)).min(block_len as u128) as usize;
    let narrow = narrow(p, block_len);
    let mut acc = [0; G];
    for (b, block) in db.chunks(block_len).enumerate() {
        let sums = narrow
            .then(|| narrow_block_sums(block, lo, p))
            .flatten()
            .unwrap_or_else(|| lo.map(|eqs| wide_block_sum(block, eqs, run, f)));
        for ((acc, sum), hi) in acc.iter_mut().zip(sums).zip(hi) {
            *acc = f.add(*acc, f.mul(sum, hi[b]));
        }
    }
    acc
}

/// Whether a block of `len` products of a word below 2³² and an eq entry
/// below `p` always fits in a `u64`: `(p−1)·(2³²−1)·len ≤ 2⁶⁴−1`.
fn narrow(p: u64, len: usize) -> bool {
    (p - 1) as u128 * u32::MAX as u128 * len as u128 <= u64::MAX as u128
}

/// `Σ_j xs_j · eqs_g[j] mod p` for every `g`, each in one `u64`, from one
/// pass over `xs`; `None` if a word is ≥ 2³². The caller checks
/// [`narrow`] for `p` and the tables' length.
fn narrow_block_sums<const G: usize>(xs: &[u64], eqs: [&[u64]; G], p: u64) -> Option<[u64; G]> {
    let eqs = eqs.map(|eqs| &eqs[..xs.len()]);
    let (mut sums, mut high) = ([0u64; G], 0u64);
    for (j, &x) in xs.iter().enumerate() {
        for (sum, eqs) in sums.iter_mut().zip(eqs) {
            *sum += (x as u32 as u64) * (eqs[j] as u32 as u64);
        }
        high |= x >> 32;
    }
    (high == 0).then(|| sums.map(|sum| sum % p))
}

/// `Σ_j xs_j · eqs_j` in the field: raw `u128` products of reduced
/// words, reduced every `run` terms.
fn wide_block_sum(xs: &[u64], eqs: &[u64], run: usize, f: Fp64) -> u64 {
    let p = f.modulus();
    xs.chunks(run)
        .zip(eqs.chunks(run))
        .fold(0, |sum, (xs, eqs)| {
            let mut lazy = 0u128;
            for (&x, &e) in xs.iter().zip(eqs) {
                let x = if x >= p { x % p } else { x };
                lazy += x as u128 * e as u128;
            }
            f.add(sum, (lazy % p as u128) as u64)
        })
}

/// Fills `table` (`2^ys.len()` entries) with the eq table of `ys`: entry
/// `i` is `Π_k (ys_k if i(k)=1 else 1−ys_k)`, one field multiplication per
/// entry (`v·(1−y) = v − v·y`). Below `p = 2³²` two residues multiply
/// within a `u64`, so a `u64 %` gives the residue of `Fp64::mul`'s
/// `u128 %` at a fraction of its cost.
fn eq_table(ys: &[u64], f: Fp64, table: &mut [u64]) {
    let p = f.modulus();
    if p >> 32 == 0 {
        eq_rows(ys, f, table, |v, y| v * y % p);
    } else {
        eq_rows(ys, f, table, |v, y| f.mul(v, y));
    }
}

/// [`eq_table`] with the field product `mul`.
fn eq_rows(ys: &[u64], f: Fp64, table: &mut [u64], mul: impl Fn(u64, u64) -> u64) {
    table[0] = 1;
    for (k, &yk) in ys.iter().enumerate() {
        let yk = f.from_u64(yk);
        let (low, high) = table[..2 << k].split_at_mut(1 << k);
        for (v, vy) in low.iter_mut().zip(high) {
            *vy = mul(*v, yk);
            *v = f.sub(*v, *vy);
        }
    }
}

/// Explicitly expands the selector polynomial `P₀` for slot variables
/// `[var_base, var_base + ℓ)` of an `num_vars`-variable polynomial ring —
/// exponential in `ℓ`; for validation on small instances only.
pub fn selector_mpoly(db: &[u64], ell: usize, var_base: usize, num_vars: usize, f: Fp64) -> MPoly {
    let mut acc = MPoly::zero(num_vars, f);
    for (i, &xi) in db.iter().enumerate() {
        if xi == 0 {
            continue;
        }
        let mut term = MPoly::constant(xi, num_vars, f);
        for k in 0..ell {
            let yk = MPoly::var(var_base + k, num_vars, f);
            let factor = if (i >> k) & 1 == 1 {
                yk
            } else {
                MPoly::constant(1, num_vars, f).sub(&yk)
            };
            term = term.mul(&factor);
        }
        acc = acc.add(&term);
    }
    acc
}

/// Explicitly compiles a formula over a database into the multivariate
/// polynomial `P ∈ F[y₁ … y_{m·ℓ}]` of §3.1 (slot `j` owns variables
/// `[j·ℓ, (j+1)·ℓ)`). Exponential in `ℓ`; for validation on small instances.
pub fn compile_formula_mpoly(formula: &Formula, db: &[u64], ell: usize, f: Fp64) -> MPoly {
    let m = formula.arity();
    let num_vars = m * ell;
    fn rec(node: &Formula, db: &[u64], ell: usize, num_vars: usize, f: Fp64) -> MPoly {
        match node {
            Formula::Leaf(j) => selector_mpoly(db, ell, j * ell, num_vars, f),
            Formula::Not(inner) => {
                MPoly::constant(1, num_vars, f).sub(&rec(inner, db, ell, num_vars, f))
            }
            Formula::Gate(op, l, r) => {
                let a = rec(l, db, ell, num_vars, f);
                let b = rec(r, db, ell, num_vars, f);
                let ab = a.mul(&b);
                match op {
                    BinOp::And => ab,
                    BinOp::Or => a.add(&b).sub(&ab),
                    BinOp::Xor => a.add(&b).sub(&ab.scale(2)),
                    BinOp::Nand => MPoly::constant(1, num_vars, f).sub(&ab),
                    BinOp::Nor => MPoly::constant(1, num_vars, f).sub(&a.add(&b).sub(&ab)),
                }
            }
        }
    }
    rec(formula, db, ell, num_vars, f)
}

/// Evaluates the §3.1 polynomial `P` implicitly at a point
/// `y = (y_1 … y_m) ∈ (F^ℓ)^m` (one ℓ-vector per slot): every slot's
/// selector is evaluated by one [`selector_evals`] call, which reads each
/// database block once per four slots, then the values are combined
/// through the gate polynomials.
///
/// # Panics
///
/// Panics if `slot_points.len()` is smaller than the formula's arity.
pub fn eval_formula_poly(formula: &Formula, db: &[u64], slot_points: &[Vec<u64>], f: Fp64) -> u64 {
    assert!(slot_points.len() >= formula.arity());
    formula.arithmetized_eval(f, &selector_evals(db, slot_points, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_math::{RandomSource, XorShiftRng};

    fn field() -> Fp64 {
        Fp64::new(1_000_003).unwrap()
    }

    #[test]
    fn index_bits_known() {
        assert_eq!(index_bits(1), 1);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(8), 3);
        assert_eq!(index_bits(9), 4);
        assert_eq!(index_bits(1024), 10);
    }

    #[test]
    fn selector_recovers_database_entries() {
        let f = field();
        let db = [5u64, 9, 2, 7, 0, 3];
        let ell = index_bits(db.len());
        for (i, &x) in db.iter().enumerate() {
            assert_eq!(selector_eval(&db, &encode_index(i, ell), f), x, "i={i}");
        }
    }

    /// The definition: `Σ_i x_i · Π_k (y_k if i(k)=1 else 1−y_k)`, one
    /// entry at a time.
    fn selector_per_entry(db: &[u64], y: &[u64], f: Fp64) -> u64 {
        let y: Vec<u64> = y.iter().map(|&v| f.from_u64(v)).collect();
        db.iter().enumerate().fold(0, |acc, (i, &xi)| {
            let chi = y.iter().enumerate().fold(f.from_u64(xi), |chi, (k, &yk)| {
                f.mul(chi, if (i >> k) & 1 == 1 { yk } else { f.sub(1, yk) })
            });
            f.add(acc, chi)
        })
    }

    #[test]
    fn selector_eval_matches_the_per_entry_definition() {
        let primes = [
            2u64,
            3,
            13,
            65_537,
            1_000_003,
            4_194_301, // largest prime with narrow 2¹⁰-entry blocks
            4_194_319, // the next prime: every block wide
            (1 << 61) - 1,
            9_223_372_036_854_775_783, // largest prime below 2⁶³
        ];
        let mut rng = XorShiftRng::new(13);
        for p in primes {
            let f = Fp64::new(p).unwrap();
            for n in [1usize, 2, 3, 5, 1023, 1024, 1025, 3000, 65_536] {
                // Unreduced words (≥ p, up to u64::MAX) and a run of zeros.
                let mut wide: Vec<u64> = (0..n)
                    .map(|i| match i % 7 {
                        0 => u64::MAX - i as u64,
                        1 => p + i as u64,
                        _ => rng.next_u64(),
                    })
                    .collect();
                let zeros = n / 3..(n / 3 + n / 4).min(n);
                wide[zeros].fill(0);
                // Words below 2³², unreduced ones in [p, 2³²) among them.
                let low: Vec<u64> = wide.iter().map(|&x| x >> 32).collect();
                // The same with one word ≥ 2³² in a single block.
                let mut one_high = low.clone();
                one_high[n / 2] = 1 << 32;
                let bits = index_bits(n);
                for (words, db) in [("wide", wide), ("low", low), ("one_high", one_high)] {
                    // Nine points with 0 to 2 index bits past index_bits(n):
                    // groups of one to four points, and more than one group.
                    // Client coordinates may be unreduced too.
                    let ys: Vec<Vec<u64>> = (0..9)
                        .map(|i| {
                            (0..bits + i % 3)
                                .map(|k| match k % 3 {
                                    0 => u64::MAX - k as u64,
                                    1 => p + rng.next_below(p),
                                    _ => rng.next_u64(),
                                })
                                .collect()
                        })
                        .collect();
                    let want: Vec<u64> = ys.iter().map(|y| selector_per_entry(&db, y, f)).collect();
                    for (y, &want) in ys.iter().zip(&want) {
                        let ell = y.len();
                        let got = selector_eval(&db, y, f);
                        assert_eq!(got, want, "p={p} n={n} ell={ell} words={words}");
                    }
                    for m in 1..=ys.len() {
                        let got = selector_evals(&db, &ys[..m], f);
                        assert_eq!(got, want[..m], "p={p} n={n} m={m} words={words}");
                    }
                }
            }
        }
    }

    #[test]
    fn selector_eval_of_an_empty_database_is_zero() {
        assert_eq!(selector_eval(&[], &[5, 7], field()), 0);
        assert_eq!(selector_evals(&[], &[[5, 7]; 9], field()), [0; 9]);
        assert!(selector_evals::<&[u64]>(&[1, 2], &[], field()).is_empty());
    }

    #[test]
    fn narrow_block_sums_hold_a_worst_case_block() {
        let len = 1 << BLOCK_BITS;
        assert!(narrow(4_194_301, len), "the largest narrow prime");
        assert!(!narrow(4_194_319, len), "the next prime");
        // Every product at its largest, (2³²−1)·(p−1), in every
        // accumulator of a full group.
        let xs = vec![u32::MAX as u64; len];
        for p in [65_537, 4_194_301, 4_194_319] {
            if narrow(p, len) {
                let eqs = vec![p - 1; len];
                let want = len as u128 * u32::MAX as u128 * (p - 1) as u128 % p as u128;
                let sums = narrow_block_sums::<GROUP>(&xs, [&eqs[..]; GROUP], p);
                assert_eq!(sums, Some([want as u64; GROUP]), "p={p}");
            }
        }
    }

    /// The eq table's `u64` reduction below 2³² and its `u128` one above
    /// give every entry of the `Fp64::mul` definition, at the largest
    /// prime below 2³² and the smallest above it, with `y`s near `p − 1`
    /// (and one unreduced).
    #[test]
    fn eq_table_matches_field_products_either_side_of_2_32() {
        for p in [4_294_967_291u64, 4_294_967_311] {
            let f = Fp64::new(p).expect("prime");
            let ys = [p - 1, p - 2, 1, p - 1, 0, p - 3, u64::MAX, p - 1];
            let mut table = vec![0; 1 << ys.len()];
            eq_table(&ys, f, &mut table);
            for (i, &got) in table.iter().enumerate() {
                let want = ys.iter().enumerate().fold(1, |acc, (k, &y)| {
                    let y = f.from_u64(y);
                    f.mul(acc, if (i >> k) & 1 == 1 { y } else { f.sub(1, y) })
                });
                assert_eq!(got, want, "p={p} i={i}");
            }
        }
    }

    #[test]
    fn selector_mpoly_matches_implicit() {
        let f = field();
        let db = [1u64, 4, 2, 8];
        let ell = 2;
        let p = selector_mpoly(&db, ell, 0, 2, f);
        let mut rng = XorShiftRng::new(5);
        for _ in 0..20 {
            let y = [rng.next_below(1_000_003), rng.next_below(1_000_003)];
            assert_eq!(p.eval(&y), selector_eval(&db, &y, f));
        }
        // Degree ℓ as claimed.
        assert_eq!(p.total_degree(), ell);
    }

    #[test]
    fn formula_metrics() {
        let phi = Formula::balanced(BinOp::And, 4);
        assert_eq!(phi.size(), 4);
        assert_eq!(phi.arity(), 4);
        assert_eq!(phi.degree_bound(3), 12); // ℓ·s
        let with_not = Formula::not(phi);
        assert_eq!(with_not.size(), 4);
    }

    #[test]
    fn arithmetization_agrees_on_boolean_inputs() {
        let f = field();
        let phi = Formula::gate(
            BinOp::Xor,
            Formula::gate(BinOp::And, Formula::leaf(0), Formula::leaf(1)),
            Formula::not(Formula::gate(BinOp::Or, Formula::leaf(2), Formula::leaf(0))),
        );
        for bits in 0u32..8 {
            let args: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            let vals: Vec<u64> = args.iter().map(|&b| b as u64).collect();
            assert_eq!(
                phi.arithmetized_eval(f, &vals),
                phi.evaluate(&args) as u64,
                "bits={bits:b}"
            );
        }
    }

    #[test]
    fn all_binops_arithmetize_correctly() {
        let f = field();
        for op in [BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Nand, BinOp::Nor] {
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(
                        op.arithmetize(f, a as u64, b as u64),
                        op.apply(a, b) as u64,
                        "{op:?} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_mpoly_matches_implicit_eval() {
        // The §3.1 claim: the explicit P and the implicit evaluation agree
        // on arbitrary field points, and deg(P) ≤ ℓ·s.
        let f = field();
        let db = [1u64, 0, 1, 1]; // Boolean database
        let ell = 2;
        let phi = Formula::gate(
            BinOp::And,
            Formula::leaf(0),
            Formula::gate(BinOp::Xor, Formula::leaf(1), Formula::leaf(0)),
        );
        let p = compile_formula_mpoly(&phi, &db, ell, f);
        assert!(p.total_degree() <= phi.degree_bound(ell));
        let mut rng = XorShiftRng::new(77);
        for _ in 0..20 {
            let pts: Vec<Vec<u64>> = (0..phi.arity())
                .map(|_| (0..ell).map(|_| rng.next_below(1_000_003)).collect())
                .collect();
            let flat: Vec<u64> = pts.iter().flatten().copied().collect();
            assert_eq!(p.eval(&flat), eval_formula_poly(&phi, &db, &pts, f));
        }
    }

    #[test]
    fn formula_poly_on_encoded_indices_computes_f() {
        // P(i₁(1)…i_m(ℓ)) = f(x_{i₁},…,x_{i_m}) — the §3.1 correctness claim.
        let f = field();
        let db = [1u64, 0, 1, 1, 0, 1, 0, 0];
        let ell = index_bits(db.len());
        let phi = Formula::gate(
            BinOp::Or,
            Formula::gate(BinOp::And, Formula::leaf(0), Formula::leaf(1)),
            Formula::leaf(2),
        );
        for (i0, i1, i2) in [(0usize, 1usize, 4usize), (2, 3, 7), (5, 5, 6), (7, 0, 3)] {
            let pts = vec![
                encode_index(i0, ell),
                encode_index(i1, ell),
                encode_index(i2, ell),
            ];
            let expect = phi.evaluate(&[db[i0] == 1, db[i1] == 1, db[i2] == 1]) as u64;
            assert_eq!(eval_formula_poly(&phi, &db, &pts, f), expect);
        }
    }

    #[test]
    fn balanced_tree_shape() {
        let phi = Formula::balanced(BinOp::Or, 7);
        assert_eq!(phi.size(), 7);
        let args = [false, false, false, false, false, false, true];
        assert!(phi.evaluate(&args));
        assert!(!phi.evaluate(&[false; 7]));
    }
}
