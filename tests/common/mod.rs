//! Shared conformance fixture — now a thin shim over [`spfe::harness`],
//! where the driver table lives so the `spfe-tables audit` differential
//! harness and the test suites consume the same registry.

#![allow(dead_code)] // each consuming suite uses a different subset

pub use spfe::harness::*;
