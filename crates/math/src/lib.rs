//! # spfe-math
//!
//! Self-contained number theory and algebra for the SPFE workspace — the
//! reproduction of *"Selective Private Function Evaluation with Applications
//! to Private Statistics"* (Canetti, Ishai, Kumar, Reiter, Rubinfeld, Wright;
//! PODC 2001).
//!
//! Provided here, with no external dependencies:
//!
//! * [`Nat`] / [`Int`] — arbitrary-precision integers (Karatsuba, Knuth D);
//! * [`Montgomery`] — fast modular exponentiation for odd moduli, with
//!   fixed-base combs ([`FixedBasePow`]) and Straus multi-exponentiation
//!   ([`MultiPow`]);
//! * [`modular`] — gcd / inverses / Jacobi / CRT;
//! * [`prime`] — Miller–Rabin and prime generation;
//! * [`Fp64`], [`Poly`], [`MPoly`] — word-sized prime fields and the
//!   polynomials at the heart of the paper's protocols;
//! * [`RandomSource`] — the workspace-wide randomness abstraction;
//! * [`par`] — the persistent worker pool behind every parallel server
//!   scan and batch encryption (`SPFE_THREADS`, deterministic ordering).
//!
//! # Examples
//!
//! ```
//! use spfe_math::{Fp64, Poly, XorShiftRng};
//! let field = Fp64::at_least(1 << 20);
//! let mut rng = XorShiftRng::new(7);
//! // A degree-2 Shamir sharing of the secret 42, reconstructed at 0.
//! let share_poly = Poly::random_with_constant(42, 2, field, &mut rng);
//! let xs = [1, 2, 3];
//! let ys = share_poly.eval_many(&xs);
//! assert_eq!(Poly::interpolate_at(&xs, &ys, 0, field), 42);
//! ```

// Unsafe is denied crate-wide, not forbidden. There are three audited
// exceptions, each site with a SAFETY comment: the [`par`] engine's slab
// placement and its persistent-worker job handoff (both covered by the
// serial-equivalence proptests), and the AVX-512 IFMA lane kernels under
// [`montgomery::pow_chains`] and [`MultiPow`] (`montgomery/lanes.rs`:
// target-feature calls after run-time detection, aligned vector
// loads/stores, bounds-checked table gathers and the word view of a lane
// table; covered by the batch-vs-scalar tests). Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fp64;
pub mod int;
pub mod linalg;
pub mod modular;
pub mod montgomery;
pub mod mpoly;
pub mod nat;
pub mod par;
pub mod poly;
pub mod prime;
pub mod rand_src;
pub mod rs;

pub use fp64::Fp64;
pub use int::{Int, Sign};
pub use linalg::Mat;
pub use montgomery::{FixedBasePow, Montgomery, MultiPow, POW_BATCH_GROUP};
pub use mpoly::MPoly;
pub use nat::Nat;
pub use poly::Poly;
pub use rand_src::{RandomSource, XorShiftRng};
