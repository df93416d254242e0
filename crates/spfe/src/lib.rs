//! # spfe
//!
//! Selective private function evaluation (SPFE) — a from-scratch Rust
//! reproduction of *"Selective Private Function Evaluation with
//! Applications to Private Statistics"* (Canetti, Ishai, Kumar, Reiter,
//! Rubinfeld, Wright; PODC 2001).
//!
//! A client holding indices `i_1 … i_m` evaluates `f(x_{i_1}, …, x_{i_m})`
//! against a server-held database `x` with *sublinear communication*,
//! revealing neither the indices (client privacy) nor more than one
//! function value (database secrecy).
//!
//! This facade re-exports the whole workspace:
//!
//! * [`core`] — the SPFE protocols (§3.1, §3.2, §3.3, §4);
//! * [`pir`] — PIR/SPIR substrates; [`ot`] — oblivious
//!   transfer; [`mpc`] — Yao garbling, PSM, arithmetic MPC;
//! * [`crypto`] — Paillier/GM/ElGamal, ChaCha20, SHA-256;
//! * [`circuits`] — Boolean/arithmetic circuits, formulas,
//!   branching programs; [`math`] — bignums, fields,
//!   polynomials; [`transport`] — metered channels.
//!
//! # Examples
//!
//! ```
//! use spfe::core::stats::weighted_sum;
//! use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
//! use spfe::math::Fp64;
//! use spfe::transport::Transcript;
//!
//! let mut rng = ChaChaRng::from_u64_seed(42);
//! let group = SchnorrGroup::generate(96, &mut rng);
//! let (pk, sk) = Paillier::keygen(160, &mut rng);
//!
//! // A private database and a client-selected sample.
//! let salaries: Vec<u64> = (0..50).map(|i| 30_000 + (i * 977) % 20_000).collect();
//! let sample = [4usize, 17, 23, 42];
//!
//! // One round; the server never learns the sample, the client learns
//! // only the (weighted) sum.
//! let field = Fp64::at_least(50 * 4 + 200_000);
//! let mut t = Transcript::new(1);
//! let sum = weighted_sum(
//!     &mut t, &group, &pk, &sk, &[&salaries], &sample, &[1, 1, 1, 1], field, &mut rng,
//! )
//! .expect("honest in-memory transport")[0];
//! let expect: u64 = sample.iter().map(|&i| salaries[i]).sum();
//! assert_eq!(sum, expect);
//! assert!(t.report().total_bytes() < 8 * salaries.len() as u64 * 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use spfe_circuits as circuits;
pub use spfe_core as core;
pub use spfe_crypto as crypto;
pub use spfe_math as math;
pub use spfe_mpc as mpc;
pub use spfe_obs as obs;
pub use spfe_ot as ot;
pub use spfe_pir as pir;
pub use spfe_transport as transport;
