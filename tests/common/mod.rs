//! Shared conformance fixture — now a thin shim over [`spfe::harness`],
//! where the driver table lives so the `spfe-tables audit` differential
//! harness and the test suites consume the same registry.

#![allow(dead_code)] // each consuming suite uses a different subset

pub use spfe::harness::*;

/// Every driver with extracted sans-io cores (its `net_client_core` is
/// `Some`): each runs in compute mode over TCP.
pub fn cored_drivers() -> Vec<Driver> {
    drivers()
        .into_iter()
        .filter(|d| net_client_core(d.name).is_some())
        .collect()
}
