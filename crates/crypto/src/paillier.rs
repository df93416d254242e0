//! The Paillier cryptosystem (ref. \[41\] of the paper).
//!
//! Additively homomorphic over `Z_n` for an RSA modulus `n` — the "larger
//! homomorphism group" instantiation the paper points to for its
//! input-selection and statistics protocols, where plaintexts are field
//! elements or data items rather than single bits.
//!
//! With generator `g = n + 1`:
//! * `E(m; r) = (1 + m·n) · r^n  mod n²`
//! * `D(c) = L(c^λ mod n²) · λ^{-1} mod n`, where `L(x) = (x-1)/n`.
//!
//! The key holder knows `n = p·q` and works modulo `p²` and `q²` instead
//! (Chinese remainder theorem), on operands half as wide:
//! * encryption computes `r^n mod p²` by the p-adic lift. For any integer
//!   `a + b·p`, the binomial theorem gives `(a + b·p)^p ≡ a^p (mod p²)`,
//!   so `r^n = (r^q)^p ≡ ((r mod p)^q mod p)^p (mod p²)` for every `r`,
//!   multiples of `p` included. That is one power mod `p` with exponent
//!   `q` (half-width operands, half-width exponent: about ⅛ of a power
//!   mod `p²` with a full-width exponent) and one power mod `p²` with
//!   exponent `p` (about ½), about 36% fewer products than the direct
//!   `r^(n mod p(p−1)) mod p²`. Likewise mod `q²`; Garner's method
//!   recombines `r^n mod n²`. It is the same residue from the same `r`,
//!   so the same ciphertext bytes as the public path — an exact identity,
//!   not a change of randomness or assumption;
//! * decryption computes `m_p = L_p(c^(p−1) mod p²) · h_p mod p` with
//!   `L_p(x) = (x−1)/p` and `h_p = L_p(g^(p−1) mod p²)^{-1} = (−q)^{-1}
//!   mod p`, likewise `m_q`, and recombines `m mod n` with Garner's method.
//!
//! The two halves of a decryption share one batch power
//! ([`spfe_math::montgomery::pow_chains`]): on CPUs with AVX-512 IFMA its
//! lanes each take their own modulus and exponent, so one lane walk
//! carries both, and a batch of `m` decryptions packs its `2m` halves
//! into `⌈2m/8⌉` walks. Encryption packs its two halves into one group
//! only where that saves a walk: four encryptions or fewer.
//!
//! Public-key encryption forms `(1 + m·n)·r^n mod n²` as
//! `r^n + n·((m·(r^n mod n)) mod n)`, less `n²` if that reaches it: the
//! same residue, with one product modulo `n` in place of one modulo
//! `n²`.
//!
//! A batch encryption checks its random `r`s for units with one gcd: the
//! draws' product mod `n` is a unit iff every draw is. Only when it is not
//! does it check each draw and draw replacements one at a time, so the
//! `r`s, the ciphertexts and the rng's end state are those of encrypting
//! one message at a time.
//!
//! Each encryption's or decryption's set of half-width powers counts as
//! one [`Op::Modexp`], like the full-width power it replaces, so op
//! counts do not depend on who encrypts. Only the key holder may take
//! this path ([`HomomorphicSk::encrypt_batch`], [`HomomorphicSk::decrypt`]);
//! servers and other public-key holders encrypt and evaluate through
//! [`PaillierPk`] modulo `n²`.

use crate::hom::{HomomorphicPk, HomomorphicScheme, HomomorphicSk};
use spfe_math::modular::{garner, gcd, mod_inv, mod_mul};
use spfe_math::montgomery::{pow_chains, PowStep};
use spfe_math::prime::gen_prime;
use spfe_math::{Montgomery, MultiPow, Nat, RandomSource, POW_BATCH_GROUP};
use spfe_obs::{count, Op};
use std::borrow::Cow;
use std::sync::Arc;

use spfe_math::par::CostClass;

/// A Paillier ciphertext: a residue mod `n²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCt(pub(crate) Nat);

/// Paillier public key.
#[derive(Clone)]
pub struct PaillierPk {
    n: Nat,
    n_sq: Nat,
    /// Montgomery contexts for `n²` and `n` (shared with clones; keygen is
    /// per-session).
    mont: Arc<Montgomery>,
    mont_n: Arc<Montgomery>,
    ct_bytes: usize,
}

impl std::fmt::Debug for PaillierPk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaillierPk")
            .field("n_bits", &self.n.bit_len())
            .finish()
    }
}

/// Paillier secret key: the factors of `n` and the CRT constants of the
/// module docs.
#[derive(Clone)]
pub struct PaillierSk {
    pk: PaillierPk,
    /// Shared with clones: protocol cores take the key by value.
    crt: Arc<Crt>,
}

/// The key holder's precomputation for working modulo `p²` and `q²`.
struct Crt {
    /// Montgomery contexts for `p` and `q`: the half-width step of the
    /// lift, and the moduli of decryption's recombination. One set, so
    /// their powers share lane walks.
    p: Montgomery,
    q: Montgomery,
    /// Montgomery contexts for `p²` and `q²`, one set likewise.
    p_sq: Montgomery,
    q_sq: Montgomery,
    /// `(p²)⁻¹ mod q²`: Garner's constant for recombining mod `n²`.
    p_sq_inv: Nat,
    /// `p − 1` and `q − 1`: the decryption exponents.
    dec_exp_p: Nat,
    dec_exp_q: Nat,
    /// `h_p = (−q)⁻¹ mod p` and `h_q = (−p)⁻¹ mod q`.
    h_p: Nat,
    h_q: Nat,
    /// `p⁻¹ mod q`: Garner's constant for recombining mod `n`.
    p_inv: Nat,
}

impl Crt {
    /// Precomputes the constants for `n = p·q`, or `None` when `p` and `q`
    /// share a factor.
    fn new(p: Nat, q: Nat) -> Option<Self> {
        let one = Nat::one();
        let (p1, q1) = (p.sub(&one), q.sub(&one));
        // L_p(g^(p−1) mod p²) = (p−1)·q mod p = −q mod p (g = n + 1).
        let h_p = mod_inv(&p.sub(&q.rem(&p)), &p)?;
        let h_q = mod_inv(&q.sub(&p.rem(&q)), &q)?;
        let (p_sq, q_sq) = (p.square(), q.square());
        let (p_sq_inv, p_inv) = (mod_inv(&p_sq, &q_sq)?, mod_inv(&p, &q)?);
        let [p_sq, q_sq] = Montgomery::new_set([p_sq, q_sq]);
        let [p, q] = Montgomery::new_set([p, q]);
        Some(Crt {
            p_sq_inv,
            p_inv,
            p_sq,
            q_sq,
            dec_exp_p: p1,
            dec_exp_q: q1,
            h_p,
            h_q,
            p,
            q,
        })
    }

    /// `halves[0]` applied to every `x`, then `halves[1]`, as one batch
    /// power: the `2m` results pack into `⌈2m/8⌉` lane groups, the `p`
    /// halves first.
    fn both_halves(xs: &[&Nat], halves: &[&[PowStep<'_>]; 2]) -> Vec<Nat> {
        let both: Vec<&Nat> = xs.iter().chain(xs).copied().collect();
        pow_chains(&both, |i| halves[usize::from(i >= xs.len())])
    }

    /// `r^n mod n²` for every `r` by the p-adic lift of the module docs —
    /// one counted [`Op::Modexp`] per `r`. Both steps of each half run
    /// as one chain, so `(r mod p)^q mod p` never leaves the kernel's form
    /// before it is raised to `p` mod `p²`. The halves share lane groups
    /// where that saves a walk: up to four `r`s. Five to eight fill two
    /// groups either way, and separate halves keep each group's lanes on
    /// one exponent.
    fn r_pow_n_batch(&self, rs: &[&Nat]) -> Vec<Nat> {
        count(Op::Modexp, rs.len() as u64);
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // r^n ≡ ((r mod p)^q mod p)^p (mod p²), and symmetrically mod q².
        let lift_p = [(&self.p, q), (&self.p_sq, p)];
        let lift_q = [(&self.q, p), (&self.q_sq, q)];
        let (xp, xq) = if 2 * rs.len() <= POW_BATCH_GROUP {
            let mut x = Self::both_halves(rs, &[&lift_p, &lift_q]);
            let xq = x.split_off(rs.len());
            (x, xq)
        } else {
            (pow_chains(rs, |_| &lift_p), pow_chains(rs, |_| &lift_q))
        };
        xp.iter()
            .zip(&xq)
            .map(|(xp, xq)| {
                garner(
                    xp,
                    self.p_sq.modulus(),
                    xq,
                    self.q_sq.modulus(),
                    &self.p_sq_inv,
                )
            })
            .collect()
    }

    /// The decryption powers: `c^(p−1) mod p²` and `c^(q−1) mod q²`.
    fn dec_halves(&self) -> [[PowStep<'_>; 1]; 2] {
        [
            [(&self.p_sq, &self.dec_exp_p)],
            [(&self.q_sq, &self.dec_exp_q)],
        ]
    }

    /// The plaintext of `c` — one counted [`Op::Modexp`]. Both halves run
    /// as one batch power, so on one lane walk where the lanes pay.
    fn decrypt(&self, c: &Nat) -> Nat {
        count(Op::Modexp, 1);
        let halves = self.dec_halves();
        let x = pow_chains(&[c, c], |i| &halves[i]);
        self.recombine(&x[0], &x[1])
    }

    /// The plaintexts of `cs`, in order — one counted [`Op::Modexp`]
    /// each. All `2·cs.len()` halves run as one batch power.
    fn decrypt_batch(&self, cs: &[&Nat]) -> Vec<Nat> {
        count(Op::Modexp, cs.len() as u64);
        let halves = self.dec_halves();
        let x = Self::both_halves(cs, &[&halves[0], &halves[1]]);
        let (xp, xq) = x.split_at(cs.len());
        xp.iter()
            .zip(xq)
            .map(|(xp, xq)| self.recombine(xp, xq))
            .collect()
    }

    /// `m mod n` from `c^(p−1) mod p²` and `c^(q−1) mod q²`.
    fn recombine(&self, xp: &Nat, xq: &Nat) -> Nat {
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // L(x) = (x − 1) / d, saturating: a non-unit `c` from the wire
        // (x = 0) decrypts to garbage instead of panicking.
        let l = |x: &Nat, d: &Nat| x.saturating_sub(&Nat::one()).div_rem(d).0;
        let mp = mod_mul(&l(xp, p), &self.h_p, p);
        let mq = mod_mul(&l(xq, q), &self.h_q, q);
        garner(&mp, p, &mq, q, &self.p_inv)
    }
}

impl std::fmt::Debug for PaillierSk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaillierSk")
            .field("n_bits", &self.pk.n.bit_len())
            .finish()
    }
}

impl PaillierPk {
    fn from_n(n: Nat) -> Self {
        let n_sq = n.square();
        let ct_bytes = n_sq.bit_len().div_ceil(8);
        let mont = Arc::new(Montgomery::new(n_sq.clone()));
        let mont_n = Arc::new(Montgomery::new(n.clone()));
        PaillierPk {
            n,
            n_sq,
            mont,
            mont_n,
            ct_bytes,
        }
    }

    /// The modulus `n` (also the plaintext modulus).
    pub fn n(&self) -> &Nat {
        &self.n
    }

    /// The ciphertext modulus `n²`.
    pub fn n_squared(&self) -> &Nat {
        &self.n_sq
    }

    /// A scalar weight as the plaintext it multiplies by: reduced mod `n`.
    fn reduce_scalar<'c>(&self, c: &'c Nat) -> Cow<'c, Nat> {
        if c < &self.n {
            Cow::Borrowed(c)
        } else {
            Cow::Owned(c.rem(&self.n))
        }
    }

    /// [`PaillierPk::reduce_scalar`] of an owned weight.
    fn reduced_scalar(&self, c: Nat) -> Nat {
        if c < self.n {
            c
        } else {
            c.rem(&self.n)
        }
    }

    fn is_unit(&self, r: &Nat) -> bool {
        !r.is_zero() && gcd(r, &self.n).is_one()
    }

    fn random_unit<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Nat {
        loop {
            let r = Nat::random_below(rng, &self.n);
            if self.is_unit(&r) {
                return r;
            }
        }
    }

    /// `m` units drawn exactly as `m` calls of
    /// [`PaillierPk::random_unit`] draw them, with one gcd for the batch:
    /// the `m` draws' product mod `n` is a unit iff every draw is (a zero
    /// draw makes it zero). Only if it is not are the draws checked one by
    /// one, the units kept in draw order and the rest drawn one at a time.
    fn random_units<R: RandomSource + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<Nat> {
        let draws: Vec<Nat> = (0..m).map(|_| Nat::random_below(rng, &self.n)).collect();
        let product = draws
            .iter()
            .fold(Nat::one(), |acc, r| mod_mul(&acc, r, &self.n));
        if gcd(&product, &self.n).is_one() {
            return draws;
        }
        let mut units: Vec<Nat> = draws.into_iter().filter(|r| self.is_unit(r)).collect();
        while units.len() < m {
            units.push(self.random_unit(rng));
        }
        units
    }

    /// `(1 + m·n) · rn mod n²` for `rn = r^n mod n²`, counted as one
    /// encryption. With `rn = a + b·n`, `(1 + m·n)·rn ≡ rn + n·(m·a)
    /// (mod n²)`, and `rn + n·((m·a) mod n) < 2n²`: one product mod `n`
    /// and one conditional subtraction, with no branch on `m`.
    fn encrypt_with(&self, m: &Nat, rn: &Nat) -> PaillierCt {
        count(Op::PaillierEncrypt, 1);
        let c = rn.add(&self.n.mul(&self.mont_n.mul_mod(m, rn)));
        PaillierCt(if c >= self.n_sq { c.sub(&self.n_sq) } else { c })
    }

    /// Batch encryption on the worker pool: the per-ciphertext randomness
    /// is drawn serially first by [`PaillierPk::random_units`] (exactly
    /// the stream the serial loop would draw), then each group of
    /// [`POW_BATCH_GROUP`] goes to [`spfe_math::par`] as one batch power
    /// `r_pow_n` — the actual cost, counted by it — and its encryptions;
    /// two groups already split.
    fn encrypt_batch_with<R: RandomSource + ?Sized>(
        &self,
        ms: &[Nat],
        rng: &mut R,
        r_pow_n: impl Fn(&[&Nat]) -> Vec<Nat> + Sync,
    ) -> Vec<PaillierCt> {
        let rs = self.random_units(ms.len(), rng);
        let rs: Vec<&Nat> = rs.iter().collect();
        let groups: Vec<(&[Nat], &[&Nat])> = ms
            .chunks(POW_BATCH_GROUP)
            .zip(rs.chunks(POW_BATCH_GROUP))
            .collect();
        let per_group = spfe_math::par::par_map_cost(CostClass::Batch, &groups, |&(ms, rs)| {
            let rns = r_pow_n(rs);
            ms.iter()
                .zip(&rns)
                .map(|(m, rn)| self.encrypt_with(m, rn))
                .collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(ms.len());
        for cts in per_group {
            out.extend(cts);
        }
        out
    }
}

impl HomomorphicPk for PaillierPk {
    type Ciphertext = PaillierCt;

    fn plaintext_modulus(&self) -> &Nat {
        &self.n
    }

    fn encrypt<R: RandomSource + ?Sized>(&self, m: &Nat, rng: &mut R) -> PaillierCt {
        let r = self.random_unit(rng);
        self.encrypt_with(m, &self.mont.pow(&r, &self.n))
    }

    fn add(&self, a: &PaillierCt, b: &PaillierCt) -> PaillierCt {
        count(Op::HomAdd, 1);
        PaillierCt(self.mont.mul_mod(&a.0, &b.0))
    }

    fn mul_const(&self, a: &PaillierCt, c: &Nat) -> PaillierCt {
        count(Op::HomScalarMul, 1);
        PaillierCt(self.mont.pow(&a.0, &self.reduce_scalar(c)))
    }

    /// The Straus column fold: one [`MultiPow`] table over the selectors
    /// per call, then each group of [`POW_BATCH_GROUP`] columns' multi-
    /// exponentiations on the worker pool (two groups already split), in
    /// column order. A column's product mod `n²` is the residue the
    /// per-cell default reaches by `mul_const` and `add`, so the bytes are
    /// the same; so are the counts, kept logical per column: one
    /// `HomScalarMul` and one `Modexp` per non-zero cell (one of each for
    /// an all-zero column, which is the canonical `1`) and `nz − 1`
    /// `HomAdd`.
    fn fold_columns(
        &self,
        selectors: &[PaillierCt],
        cols: usize,
        cell: impl Fn(usize) -> Nat + Sync,
    ) -> Vec<PaillierCt> {
        assert!(!selectors.is_empty(), "column fold without selectors");
        let rows = selectors.len();
        // The widest cell sizes the window. Columns read their cells
        // again below rather than holding the whole matrix at once.
        let bits = (0..rows * cols)
            .map(|i| self.reduce_scalar(&cell(i)).bit_len())
            .max()
            .unwrap_or(0);
        let bases: Vec<&Nat> = selectors.iter().map(|s| &s.0).collect();
        let table = MultiPow::new(&self.mont, &bases, bits, cols);
        let groups: Vec<usize> = (0..cols).step_by(POW_BATCH_GROUP).collect();
        let per_group = spfe_math::par::par_map_cost(CostClass::Batch, &groups, |&first| {
            let exps: Vec<Vec<Nat>> = (first..cols.min(first + POW_BATCH_GROUP))
                .map(|j| {
                    let cells: Vec<Nat> = (0..rows).map(|r| cell(r * cols + j)).collect();
                    let nz = cells.iter().filter(|v| !v.is_zero()).count() as u64;
                    count(Op::HomScalarMul, nz.max(1));
                    count(Op::Modexp, nz.max(1));
                    count(Op::HomAdd, nz.saturating_sub(1));
                    cells.into_iter().map(|v| self.reduced_scalar(v)).collect()
                })
                .collect();
            table.pow_batch(&exps)
        });
        per_group.into_iter().flatten().map(PaillierCt).collect()
    }

    fn encrypt_batch<R: RandomSource + ?Sized>(&self, ms: &[Nat], rng: &mut R) -> Vec<PaillierCt> {
        self.encrypt_batch_with(ms, rng, |rs| {
            count(Op::Modexp, rs.len() as u64);
            self.mont.pow_batch(rs, &self.n)
        })
    }

    /// Batch scalar multiplication (`ct^c mod n²`) on the worker pool;
    /// deterministic, so bit-identical to the serial loop.
    fn scalar_mul_batch(&self, cts: &[PaillierCt], cs: &[Nat]) -> Vec<PaillierCt> {
        assert_eq!(cts.len(), cs.len(), "batch length mismatch");
        let jobs: Vec<(&PaillierCt, &Nat)> = cts.iter().zip(cs).collect();
        spfe_math::par::par_map_cost(CostClass::Heavy, &jobs, |&(ct, c)| self.mul_const(ct, c))
    }

    fn rerandomize<R: RandomSource + ?Sized>(&self, a: &PaillierCt, rng: &mut R) -> PaillierCt {
        count(Op::HomRerandomize, 1);
        let r = self.random_unit(rng);
        let rn = self.mont.pow(&r, &self.n);
        PaillierCt(self.mont.mul_mod(&a.0, &rn))
    }

    fn ciphertext_bytes(&self) -> usize {
        self.ct_bytes
    }

    fn ciphertext_to_bytes(&self, ct: &PaillierCt) -> Vec<u8> {
        ct.0.to_le_bytes_padded(self.ct_bytes)
    }

    fn ciphertext_from_bytes(&self, bytes: &[u8]) -> Option<PaillierCt> {
        if bytes.len() != self.ct_bytes {
            return None;
        }
        let v = Nat::from_le_bytes(bytes);
        if v >= self.n_sq {
            return None;
        }
        Some(PaillierCt(v))
    }
}

impl HomomorphicSk<PaillierPk> for PaillierSk {
    fn decrypt(&self, ct: &PaillierCt) -> Nat {
        count(Op::PaillierDecrypt, 1);
        self.crt.decrypt(&ct.0)
    }

    /// CRT decryption with every half of every ciphertext in one batch
    /// power, so groups of halves run on the lane kernel where it pays;
    /// the plaintexts and counts of mapping [`PaillierSk::decrypt`].
    fn decrypt_batch(&self, cts: &[PaillierCt]) -> Vec<Nat> {
        count(Op::PaillierDecrypt, cts.len() as u64);
        let cs: Vec<&Nat> = cts.iter().map(|ct| &ct.0).collect();
        self.crt.decrypt_batch(&cs)
    }

    /// CRT encryption: `r^n mod n²` through [`Crt::r_pow_n_batch`], with the
    /// randomness, ciphertexts and op counts of `pk.encrypt_batch`.
    /// Always encrypts under this key's own public half, the only key
    /// its CRT constants fit.
    fn encrypt_batch<R: RandomSource + ?Sized>(
        &self,
        _pk: &PaillierPk,
        ms: &[Nat],
        rng: &mut R,
    ) -> Vec<PaillierCt> {
        self.pk
            .encrypt_batch_with(ms, rng, |rs| self.crt.r_pow_n_batch(rs))
    }
}

/// Marker type implementing [`HomomorphicScheme`] for Paillier.
#[derive(Debug, Clone, Copy)]
pub struct Paillier;

impl HomomorphicScheme for Paillier {
    type Pk = PaillierPk;
    type Sk = PaillierSk;

    /// Generates a Paillier key pair with an (approximately) `bits`-bit
    /// modulus `n = p·q`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 16`.
    fn keygen<R: RandomSource + ?Sized>(bits: usize, rng: &mut R) -> (PaillierPk, PaillierSk) {
        assert!(bits >= 16, "Paillier modulus must be at least 16 bits");
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            // g = n + 1 needs gcd(n, (p−1)(q−1)) = 1 (equivalently,
            // λ = lcm(p−1, q−1) invertible mod n).
            let phi = p.sub(&Nat::one()).mul(&q.sub(&Nat::one()));
            if !gcd(&n, &phi).is_one() {
                continue;
            }
            let crt = Crt::new(p, q).expect("distinct primes are coprime");
            let pk = PaillierPk::from_n(n);
            let sk = PaillierSk {
                pk: pk.clone(),
                crt: Arc::new(crt),
            };
            return (pk, sk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::ChaChaRng;
    use proptest::prelude::*;
    use spfe_math::modular::{mod_add, mod_pow};

    fn keys(bits: usize) -> (PaillierPk, PaillierSk, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0xA11CE);
        let (pk, sk) = Paillier::keygen(bits, &mut rng);
        (pk, sk, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (pk, sk, mut rng) = keys(128);
        for v in [0u64, 1, 42, u64::MAX] {
            let m = Nat::from(v);
            let ct = pk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct), m.rem(pk.n()));
        }
    }

    #[test]
    fn additive_homomorphism() {
        let (pk, sk, mut rng) = keys(128);
        let (a, b) = (Nat::from(123_456u64), Nat::from(654_321u64));
        let ct = pk.add(&pk.encrypt(&a, &mut rng), &pk.encrypt(&b, &mut rng));
        assert_eq!(sk.decrypt(&ct), mod_add(&a, &b, pk.n()));
    }

    #[test]
    fn scalar_homomorphism() {
        let (pk, sk, mut rng) = keys(128);
        let a = Nat::from(999u64);
        let ct = pk.mul_const(&pk.encrypt(&a, &mut rng), &Nat::from(1000u64));
        assert_eq!(sk.decrypt(&ct), Nat::from(999_000u64));
    }

    #[test]
    fn subtraction_wraps_mod_n() {
        let (pk, sk, mut rng) = keys(128);
        let (a, b) = (Nat::from(5u64), Nat::from(9u64));
        let ct = pk.sub(&pk.encrypt(&a, &mut rng), &pk.encrypt(&b, &mut rng));
        assert_eq!(sk.decrypt(&ct), pk.n().sub(&Nat::from(4u64)));
    }

    #[test]
    fn rerandomize_preserves_plaintext_changes_ct() {
        let (pk, sk, mut rng) = keys(128);
        let ct = pk.encrypt(&Nat::from(7u64), &mut rng);
        let ct2 = pk.rerandomize(&ct, &mut rng);
        assert_ne!(ct, ct2);
        assert_eq!(sk.decrypt(&ct2), Nat::from(7u64));
    }

    #[test]
    fn probabilistic_encryption() {
        let (pk, _, mut rng) = keys(128);
        let a = pk.encrypt(&Nat::from(1u64), &mut rng);
        let b = pk.encrypt(&Nat::from(1u64), &mut rng);
        assert_ne!(a, b, "two encryptions of 1 must differ");
    }

    #[test]
    fn ciphertext_serialization_roundtrip() {
        let (pk, sk, mut rng) = keys(128);
        let ct = pk.encrypt(&Nat::from(31_337u64), &mut rng);
        let bytes = pk.ciphertext_to_bytes(&ct);
        assert_eq!(bytes.len(), pk.ciphertext_bytes());
        let back = pk.ciphertext_from_bytes(&bytes).unwrap();
        assert_eq!(sk.decrypt(&back), Nat::from(31_337u64));
        assert!(pk.ciphertext_from_bytes(&bytes[1..]).is_none());
    }

    #[test]
    fn larger_key_roundtrip() {
        let (pk, sk, mut rng) = keys(512);
        let m = Nat::random_below(&mut rng, pk.n());
        let ct = pk.encrypt(&m, &mut rng);
        assert_eq!(sk.decrypt(&ct), m);
    }

    /// Batch lengths that split into full and partial lane groups, and
    /// whose two CRT halves fill one group (up to 4) or two (5 to 8).
    const BATCH_LENS: [usize; 9] = [1, 3, 4, 5, 7, 8, 9, 12, 17];

    #[test]
    fn batch_apis_bit_identical_to_serial() {
        let (pk, _, mut rng) = keys(128);
        // Same seed on both paths: the batch must draw the identical
        // randomness stream and produce the identical ciphertext bytes,
        // whatever the thread configuration and however the batch splits
        // into groups for the batch power.
        for len in BATCH_LENS {
            let ms: Vec<Nat> = (0..len as u64).map(|v| Nat::from(v * 1_234_567)).collect();
            let mut rng_a = rng.clone();
            let serial: Vec<PaillierCt> = ms.iter().map(|m| pk.encrypt(m, &mut rng_a)).collect();
            for threads in [1, 4] {
                spfe_math::par::set_threads(Some(threads));
                let mut rng_b = rng.clone();
                let batch = pk.encrypt_batch(&ms, &mut rng_b);
                spfe_math::par::set_threads(None);
                assert_eq!(serial, batch, "len={len} threads={threads}");
                // The rng must end in the same state as the serial loop left it.
                assert_eq!(
                    rng_a.clone().next_u64(),
                    rng_b.next_u64(),
                    "len={len} threads={threads}"
                );
            }
        }
        let ms: Vec<Nat> = (0..9u64).map(|v| Nat::from(v * 1_234_567)).collect();
        let mut rng_a = rng.clone();
        let serial: Vec<PaillierCt> = ms.iter().map(|m| pk.encrypt(m, &mut rng_a)).collect();

        let cs: Vec<Nat> = (0..9u64).map(|v| Nat::from(v + 2)).collect();
        let serial_sm: Vec<PaillierCt> = serial
            .iter()
            .zip(&cs)
            .map(|(ct, c)| pk.mul_const(ct, c))
            .collect();
        spfe_math::par::set_threads(Some(4));
        let batch_sm = pk.scalar_mul_batch(&serial, &cs);
        spfe_math::par::set_threads(None);
        assert_eq!(serial_sm, batch_sm);
        let _ = rng.next_u64();

        // A 16-bit key draws a non-unit about once in a hundred draws, so
        // over these seeds some batches hold one and take the per-draw
        // fallback of the unit check.
        let mut fallbacks = 0;
        for seed in 0..24 {
            let mut rng = ChaChaRng::from_u64_seed(seed);
            let (pk, sk) = Paillier::keygen(16, &mut rng);
            let ms: Vec<Nat> = (0..17u64).map(Nat::from).collect();
            let mut probe = rng.clone();
            if (0..ms.len()).any(|_| !pk.is_unit(&Nat::random_below(&mut probe, pk.n()))) {
                fallbacks += 1;
            }
            let mut rng_a = rng.clone();
            let serial: Vec<PaillierCt> = ms.iter().map(|m| pk.encrypt(m, &mut rng_a)).collect();
            let (mut rng_pk, mut rng_sk) = (rng.clone(), rng.clone());
            assert_eq!(serial, pk.encrypt_batch(&ms, &mut rng_pk), "seed={seed}");
            assert_eq!(
                serial,
                sk.encrypt_batch(&pk, &ms, &mut rng_sk),
                "seed={seed}"
            );
            let next = rng_a.next_u64();
            assert_eq!(next, rng_pk.next_u64(), "seed={seed}");
            assert_eq!(next, rng_sk.next_u64(), "seed={seed}");
        }
        assert!(fallbacks > 0, "no batch took the per-draw fallback");
    }

    #[test]
    fn linear_combination_of_many() {
        // Σ c_i · m_i computed under encryption — the §4 weighted-sum core.
        let (pk, sk, mut rng) = keys(128);
        let ms = [3u64, 1, 4, 1, 5];
        let cs = [2u64, 7, 1, 8, 2];
        let mut acc = pk.encrypt_zero(&mut rng);
        for (&m, &c) in ms.iter().zip(&cs) {
            let term = pk.mul_const(&pk.encrypt(&Nat::from(m), &mut rng), &Nat::from(c));
            acc = pk.add(&acc, &term);
        }
        let expect: u64 = ms.iter().zip(&cs).map(|(&m, &c)| m * c).sum();
        assert_eq!(sk.decrypt(&acc), Nat::from(expect));
    }

    /// The textbook decryption `L(c^λ mod n²) · μ mod n` with
    /// `λ = lcm(p−1, q−1)` and `μ = λ⁻¹ mod n`, from the key's factors.
    fn reference_decrypt(sk: &PaillierSk, ct: &PaillierCt) -> Nat {
        let (p, q, n) = (sk.crt.p.modulus(), sk.crt.q.modulus(), sk.pk.n());
        let (p1, q1) = (p.sub(&Nat::one()), q.sub(&Nat::one()));
        let lambda = p1.mul(&q1).div_rem(&gcd(&p1, &q1)).0;
        let mu = mod_inv(&lambda, n).unwrap();
        let x = mod_pow(&ct.0, &lambda, sk.pk.n_squared());
        x.sub(&Nat::one()).div_rem(n).0.mul(&mu).rem(n)
    }

    /// The p-adic lift `r^n ≡ ((r mod p)^q mod p)^p (mod p²)` behind
    /// `Crt::r_pow_n_batch`, checked for every `r ∈ [0, n)` at tiny keys against
    /// the direct power mod `n²` (so mod `p²` and `q²` too): 0 and the
    /// multiples of `p` and `q` included.
    #[test]
    fn lift_matches_direct_power_exhaustively() {
        let primes = [11u64, 13, 17, 19];
        for (i, &p) in primes.iter().enumerate() {
            for &q in &primes[i + 1..] {
                let crt = Crt::new(Nat::from(p), Nat::from(q)).unwrap();
                let n = Nat::from(p * q);
                let rs: Vec<Nat> = (0..p * q).map(Nat::from).collect();
                let rs: Vec<&Nat> = rs.iter().collect();
                for group in rs.chunks(POW_BATCH_GROUP) {
                    for (r, got) in group.iter().zip(crt.r_pow_n_batch(group)) {
                        let want = mod_pow(r, &n, &n.square());
                        assert_eq!(got, want, "p={p} q={q} r={r:?}");
                    }
                }
            }
        }
    }

    /// The key holder's CRT path against the public path at one key:
    /// identical ciphertext bytes and rng end state from `encrypt_batch`
    /// (at 1 and 4 pool threads, at batch lengths that split into full and
    /// partial lane groups), and CRT decryption equal to the reference on
    /// fresh ciphertexts, sums and scalar multiples.
    fn check_crt_equivalence(bits: usize, seed: u64) {
        let mut rng = ChaChaRng::from_u64_seed(seed);
        let (pk, sk) = Paillier::keygen(bits, &mut rng);
        let mut ms: Vec<Nat> = vec![Nat::zero(), Nat::one(), pk.n().sub(&Nat::one())];
        ms.extend((0..3).map(|_| Nat::random_below(&mut rng, pk.n())));
        let mut cts = Vec::new();
        for len in BATCH_LENS {
            let ms: Vec<Nat> = ms.iter().cycle().take(len).cloned().collect();
            for threads in [1, 4] {
                spfe_math::par::set_threads(Some(threads));
                let (mut rng_pk, mut rng_sk) = (rng.clone(), rng.clone());
                let public = pk.encrypt_batch(&ms, &mut rng_pk);
                let crt = sk.encrypt_batch(&pk, &ms, &mut rng_sk);
                spfe_math::par::set_threads(None);
                let bytes = |cts: &[PaillierCt]| -> Vec<Vec<u8>> {
                    cts.iter().map(|c| pk.ciphertext_to_bytes(c)).collect()
                };
                let what = format!("bits={bits} len={len} threads={threads}");
                assert_eq!(bytes(&public), bytes(&crt), "{what}");
                assert_eq!(
                    rng_pk.next_u64(),
                    rng_sk.next_u64(),
                    "rng end state, {what}"
                );
                cts = crt;
            }
        }
        let sum = pk.add(&cts[3], &cts[4]);
        let scaled = pk.mul_const(&cts[5], &Nat::from(1_000_003u64));
        for ct in cts.iter().chain([&sum, &scaled]) {
            assert_eq!(sk.decrypt(ct), reference_decrypt(&sk, ct), "bits={bits}");
        }
        for (ct, m) in cts.iter().zip(&ms) {
            assert_eq!(&sk.decrypt(ct), m);
        }
    }

    /// Says on stderr whether this host ran the lane kernel, so a run
    /// with `--nocapture` shows which path the CRT tests covered.
    fn report_lane_path(test: &str) {
        if spfe_math::montgomery::lanes_available() {
            eprintln!("{test}: lane kernel ran (avx512ifma)");
        } else {
            eprintln!("{test}: no avx512ifma, only the scalar fallback ran");
        }
    }

    /// CRT decryption by the scalar kernel: each half by `pow_uncounted`,
    /// then `recombine`.
    fn scalar_decrypt(sk: &PaillierSk, ct: &PaillierCt) -> Nat {
        let crt = &sk.crt;
        let xp = crt.p_sq.pow_uncounted(&ct.0, &crt.dec_exp_p);
        let xq = crt.q_sq.pow_uncounted(&ct.0, &crt.dec_exp_q);
        crt.recombine(&xp, &xq)
    }

    /// Lane digits of a modulus of `bits` bits, as the lane kernel counts.
    fn lane_digits(bits: usize) -> usize {
        (bits + 2).div_ceil(52)
    }

    /// `decrypt` and `decrypt_batch`, whose halves share lane walks, bit
    /// for bit against the scalar halves and `recombine`: at 128, 512 and
    /// 2048 bits and at a 155-bit key whose `p²` and `q²` take 3 and 4 lane
    /// digits; on fresh ciphertexts and on non-units (0, 1, multiples of
    /// `p` and of `q`, `n² − 1`); batches at 1 and 4 pool threads.
    #[test]
    fn crt_decrypt_matches_scalar_halves() {
        report_lane_path("crt_decrypt_matches_scalar_halves");
        for (bits, seed) in [
            (128, 0xC7D1u64),
            (155, 0xC7D2),
            (512, 0xC7D3),
            (2048, 0xC7D4),
        ] {
            let mut rng = ChaChaRng::from_u64_seed(seed);
            let (pk, sk) = Paillier::keygen(bits, &mut rng);
            let (p, q) = (sk.crt.p.modulus(), sk.crt.q.modulus());
            if bits == 155 {
                let [dp, dq] =
                    [&sk.crt.p_sq, &sk.crt.q_sq].map(|m| lane_digits(m.modulus().bit_len()));
                assert_eq!((dp, dq), (3, 4), "the key must split the digit counts");
            }
            let ms: Vec<Nat> = (0..9)
                .map(|_| Nat::random_below(&mut rng, pk.n()))
                .collect();
            let mut cts = sk.encrypt_batch(&pk, &ms, &mut rng);
            let x = Nat::random_below(&mut rng, pk.n());
            for v in [
                Nat::zero(),
                Nat::one(),
                p.clone(),
                q.clone(),
                p.mul(&x),
                q.mul(&x),
                pk.n_squared().sub(&Nat::one()),
            ] {
                cts.push(PaillierCt(v.rem(pk.n_squared())));
            }
            cts.push(cts[0].clone());
            let want: Vec<Nat> = cts.iter().map(|ct| scalar_decrypt(&sk, ct)).collect();
            for (ct, want) in cts.iter().zip(&want) {
                assert_eq!(&sk.decrypt(ct), want, "bits={bits} ct={:?}", ct.0);
            }
            assert_eq!(want[..ms.len()], ms[..], "bits={bits}");
            for len in [1, 3, 4, 5, 8, 9, 17] {
                for threads in [1, 4] {
                    spfe_math::par::set_threads(Some(threads));
                    let got = sk.decrypt_batch(&cts[cts.len() - len..]);
                    spfe_math::par::set_threads(None);
                    let what = format!("bits={bits} len={len} threads={threads}");
                    assert_eq!(got, want[cts.len() - len..], "{what}");
                }
            }
        }
    }

    /// `decrypt_batch` against mapping `decrypt`, at batch lengths that
    /// split into full and partial lane groups, on fresh ciphertexts and
    /// on residues that are not encryptions (zero, one, `n² − 1`).
    #[test]
    fn decrypt_batch_matches_decrypt() {
        for (bits, seed) in [(128, 0xDEC1u64), (2048, 0xDEC2)] {
            let mut rng = ChaChaRng::from_u64_seed(seed);
            let (pk, sk) = Paillier::keygen(bits, &mut rng);
            let ms: Vec<Nat> = (0..14)
                .map(|_| Nat::random_below(&mut rng, pk.n()))
                .collect();
            let mut cts = sk.encrypt_batch(&pk, &ms, &mut rng);
            for v in [Nat::zero(), Nat::one(), pk.n_squared().sub(&Nat::one())] {
                cts.push(PaillierCt(v));
            }
            for len in BATCH_LENS {
                let got = sk.decrypt_batch(&cts[..len]);
                let want: Vec<Nat> = cts[..len].iter().map(|ct| sk.decrypt(ct)).collect();
                assert_eq!(got, want, "bits={bits} len={len}");
            }
            assert_eq!(sk.decrypt_batch(&cts[..ms.len()]), ms, "bits={bits}");
        }
    }

    #[test]
    fn crt_matches_public_path_at_2048_bits() {
        check_crt_equivalence(2048, 0x2048);
    }

    /// The lift's chains at a key whose `p²` and `q²` take 3 and 4 lane
    /// digits (and `p`, `q` 2 each).
    #[test]
    fn crt_matches_public_path_across_lane_digit_counts() {
        check_crt_equivalence(155, 0xC7D2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn prop_crt_matches_public_path_128(seed in any::<u64>()) {
            check_crt_equivalence(128, seed);
        }

        #[test]
        fn prop_crt_matches_public_path_512(seed in any::<u64>()) {
            check_crt_equivalence(512, seed);
        }
    }

    /// `rerandomize`'s Montgomery product equals the schoolbook product
    /// plus long division it replaced, ciphertext for ciphertext.
    #[test]
    fn rerandomize_mul_mod_matches_schoolbook_form() {
        let (pk, _, mut rng) = keys(256);
        for v in [0u64, 7, u64::MAX] {
            let ct = pk.encrypt(&Nat::from(v), &mut rng);
            let mut rng_sb = rng.clone();
            let got = pk.rerandomize(&ct, &mut rng);
            let rn = pk.mont.pow(&pk.random_unit(&mut rng_sb), pk.n());
            assert_eq!(got, PaillierCt(ct.0.mul(&rn).rem(pk.n_squared())));
        }
    }
}
