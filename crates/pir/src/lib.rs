//! # spfe-pir
//!
//! The (S)PIR substrate of the SPFE reproduction:
//!
//! * [`xor2`] — the 2-server XOR PIR of Chor et al. \[17\];
//! * [`poly_it`] — `t`-private `k`-server polynomial-interpolation PIR
//!   (Lemma 1 / instance hiding \[5\]), with the \[25\]-style symmetric-privacy
//!   blinding (`R(0) = 0`) used by the paper's multi-server protocols;
//! * [`hom_pir`] — single-server computational PIR from additively
//!   homomorphic encryption (Kushilevitz–Ostrovsky \[32\], √n layout);
//! * [`spir`] — the single-server symmetric transform: padded answers plus a
//!   1-out-of-√n OT on the pads, giving a 1-round `SPIR(n, 1, *)`;
//! * [`batched`] — `SPIR(n, m, *)` via two-choice grid cuckoo bucketing
//!   (\[36, 37, 8\]), the primitive that makes the §3.3.2/§3.3.3 input
//!   selection cheaper than `m` independent retrievals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batched;
pub mod hom_pir;
pub mod poly_it;
pub mod recursive;
pub mod spir;
pub mod words;
pub mod xor2;

pub use batched::{BatchLayout, BatchedStats};
pub use hom_pir::Layout;
pub use poly_it::PolyItParams;
pub use recursive::RecursiveLayout;
pub use spir::{SpirAnswer, SpirParams, SpirQuery};
