//! The homomorphic-encryption abstraction used by the SPFE protocols.
//!
//! The paper (§2, "Homomorphic encryption") requires an encryption scheme
//! whose plaintexts live in a group `G` and where `E(a) · E(b) = E(a + b)`
//! (hence `E(a)^c = E(c·a)`). The single-server input-selection protocols
//! (§3.3.2, §3.3.3), the arithmetic-circuit MPC (§3.3.4) and the §4
//! statistical protocols are all generic over this trait; concrete
//! instantiations are [Paillier](crate::paillier) (large plaintext group
//! `Z_n`), [Goldwasser–Micali](crate::gm) (`G = Z_2`, the scheme cited by the
//! paper), and [exponential ElGamal](crate::elgamal) (small bounded
//! plaintexts).

use spfe_math::{Nat, RandomSource};

/// An additively homomorphic public key over a plaintext group `Z_u`.
///
/// Keys and ciphertexts are `Send + Sync` so the protocol layers can shard
/// their per-cell work across the [`spfe_math::par`] worker pool.
pub trait HomomorphicPk: Clone + std::fmt::Debug + Send + Sync {
    /// The ciphertext type.
    type Ciphertext: Clone + std::fmt::Debug + PartialEq + Eq + Send + Sync;

    /// The plaintext modulus `u` (plaintexts are residues in `[0, u)`).
    fn plaintext_modulus(&self) -> &Nat;

    /// Encrypts a plaintext (reduced mod `u`).
    fn encrypt<R: RandomSource + ?Sized>(&self, m: &Nat, rng: &mut R) -> Self::Ciphertext;

    /// Homomorphic addition: `E(a) ⊕ E(b) = E(a + b mod u)`.
    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;

    /// Homomorphic scalar multiplication: `c ⊙ E(a) = E(c·a mod u)`.
    fn mul_const(&self, a: &Self::Ciphertext, c: &Nat) -> Self::Ciphertext;

    /// Fresh randomization of a ciphertext (output decrypts identically but
    /// is distributed like a fresh encryption).
    fn rerandomize<R: RandomSource + ?Sized>(
        &self,
        a: &Self::Ciphertext,
        rng: &mut R,
    ) -> Self::Ciphertext;

    /// Serialized ciphertext size in bytes (the unit of communication
    /// accounting — the paper's security parameter `κ` enters costs through
    /// this quantity).
    fn ciphertext_bytes(&self) -> usize;

    /// Serializes a ciphertext (fixed width [`Self::ciphertext_bytes`]).
    fn ciphertext_to_bytes(&self, ct: &Self::Ciphertext) -> Vec<u8>;

    /// Deserializes a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed input.
    fn ciphertext_from_bytes(&self, bytes: &[u8]) -> Option<Self::Ciphertext>;

    /// Encrypts a batch of plaintexts: element-for-element equivalent to
    /// calling [`HomomorphicPk::encrypt`] in order, **including the order
    /// in which randomness is drawn from `rng`** — transcripts produced via
    /// the batch path are byte-identical to the serial path.
    ///
    /// The default implementation is the serial loop; schemes override it
    /// to pre-draw the per-ciphertext randomness (same stream) and run the
    /// public-key operations on the [`spfe_math::par`] worker pool.
    fn encrypt_batch<R: RandomSource + ?Sized>(
        &self,
        ms: &[Nat],
        rng: &mut R,
    ) -> Vec<Self::Ciphertext> {
        ms.iter().map(|m| self.encrypt(m, rng)).collect()
    }

    /// Scalar-multiplies a batch: `out[i] = E(cs[i] · D(cts[i]))`,
    /// element-for-element equivalent to [`HomomorphicPk::mul_const`].
    /// Deterministic (no randomness), so parallel and serial paths agree
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `cts.len() != cs.len()`.
    fn scalar_mul_batch(&self, cts: &[Self::Ciphertext], cs: &[Nat]) -> Vec<Self::Ciphertext> {
        assert_eq!(cts.len(), cs.len(), "batch length mismatch");
        cts.iter()
            .zip(cs)
            .map(|(ct, c)| self.mul_const(ct, c))
            .collect()
    }

    /// The homomorphic PIR column fold: for each of `cols` columns,
    /// `C_j = Σ_r sel_r ⊙ cell(r·cols + j)` over the `rows =
    /// selectors.len()` encrypted selectors, returned in column order.
    ///
    /// It is logically one [`HomomorphicPk::mul_const`] per non-zero cell
    /// and one [`HomomorphicPk::add`] per accumulation, and counts as
    /// that; an all-zero column is `sel_0 ⊙ 0`. Deterministic, so every
    /// implementation must return the bytes of [`fold_columns_per_cell`],
    /// the default, under any worker-pool configuration.
    ///
    /// # Panics
    ///
    /// Panics if `selectors` is empty, or a cell is not below the
    /// plaintext modulus where the scheme requires it (the server's own
    /// data).
    fn fold_columns(
        &self,
        selectors: &[Self::Ciphertext],
        cols: usize,
        cell: impl Fn(usize) -> Nat + Sync,
    ) -> Vec<Self::Ciphertext> {
        fold_columns_per_cell(self, selectors, cols, cell)
    }

    /// `E(a) ⊖ E(b) = E(a - b mod u)` — derived from `add`/`mul_const`.
    fn sub(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext {
        let u = self.plaintext_modulus().clone();
        let neg_b = self.mul_const(b, &u.sub(&Nat::one()));
        self.add(a, &neg_b)
    }

    /// Encrypts zero (useful for blinding).
    fn encrypt_zero<R: RandomSource + ?Sized>(&self, rng: &mut R) -> Self::Ciphertext {
        self.encrypt(&Nat::zero(), rng)
    }
}

/// The default [`HomomorphicPk::fold_columns`]: one
/// [`HomomorphicPk::mul_const`] per non-zero cell, folded with
/// [`HomomorphicPk::add`]. Each column is independent and rng-free, so
/// columns shard across the worker pool and come back in column order,
/// keeping every transcript built from them byte-identical to a serial
/// scan. A column is `selectors.len()` exponentiations: squarely
/// `CostClass::Heavy`.
///
/// # Panics
///
/// As [`HomomorphicPk::fold_columns`].
pub fn fold_columns_per_cell<P: HomomorphicPk>(
    pk: &P,
    selectors: &[P::Ciphertext],
    cols: usize,
    cell: impl Fn(usize) -> Nat + Sync,
) -> Vec<P::Ciphertext> {
    let col_idx: Vec<usize> = (0..cols).collect();
    spfe_math::par::par_map_cost(spfe_math::par::CostClass::Heavy, &col_idx, |&j| {
        let mut acc: Option<P::Ciphertext> = None;
        for (r, sel) in selectors.iter().enumerate() {
            let v = cell(r * cols + j);
            if v.is_zero() {
                continue;
            }
            let term = pk.mul_const(sel, &v);
            acc = Some(match acc {
                None => term,
                Some(prev) => pk.add(&prev, &term),
            });
        }
        // An all-zero column still needs a well-formed ciphertext.
        acc.unwrap_or_else(|| pk.mul_const(&selectors[0], &Nat::zero()))
    })
}

/// The matching secret key.
pub trait HomomorphicSk<Pk: HomomorphicPk>: Clone + std::fmt::Debug {
    /// Decrypts a ciphertext to its canonical plaintext residue.
    fn decrypt(&self, ct: &Pk::Ciphertext) -> Nat;

    /// Decrypts a batch: element for element [`HomomorphicSk::decrypt`],
    /// with the same op counts. The default maps `decrypt`; Paillier
    /// overrides it with batch powers (see [`crate::paillier`]).
    fn decrypt_batch(&self, cts: &[Pk::Ciphertext]) -> Vec<Nat> {
        cts.iter().map(|ct| self.decrypt(ct)).collect()
    }

    /// [`HomomorphicPk::encrypt_batch`] under `pk` (this key's public
    /// half) by the key holder, who may use the secret key to encrypt
    /// faster. Ciphertexts, the randomness drawn from `rng` and the op
    /// counts are exactly those of `pk.encrypt_batch`.
    ///
    /// The default is `pk.encrypt_batch`; Paillier overrides it with
    /// CRT exponentiation (see [`crate::paillier`]).
    fn encrypt_batch<R: RandomSource + ?Sized>(
        &self,
        pk: &Pk,
        ms: &[Nat],
        rng: &mut R,
    ) -> Vec<Pk::Ciphertext> {
        pk.encrypt_batch(ms, rng)
    }
}

/// A key-generation entry point, so protocol code can be written generically
/// over the scheme.
pub trait HomomorphicScheme {
    /// Public-key type.
    type Pk: HomomorphicPk;
    /// Secret-key type.
    type Sk: HomomorphicSk<Self::Pk>;

    /// Generates a key pair at the given security level (modulus bits).
    fn keygen<R: RandomSource + ?Sized>(bits: usize, rng: &mut R) -> (Self::Pk, Self::Sk);
}
