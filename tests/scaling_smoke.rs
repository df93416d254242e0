//! Scaling smoke test for the persistent worker pool (`spfe_math::par`).
//!
//! A synthetic modexp-weight kernel — the same per-item cost profile as
//! the PIR column scan — is mapped at 1 and at 4 pool threads. The
//! wall-clock comparison is inherently machine-dependent, so the timing
//! test is `#[ignore]`d in plain `cargo test` runs (CI boxes are noisy)
//! and invoked explicitly by the `ci.sh` perf stage via `-- --ignored`;
//! it also self-skips when the machine has fewer than 2 cores, where a
//! speedup is physically impossible. The determinism companion test runs
//! everywhere: the pool must produce bit-identical results at any thread
//! count even under the heavy kernel.

use spfe::math::par;
use spfe::math::{Montgomery, Nat, XorShiftRng};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Serializes the tests in this binary: both mutate the process-global
/// thread-count configuration.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the default thread configuration even if an assert fails.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        par::set_threads(None);
        par::set_seq_threshold(None);
    }
}

/// A 512-bit odd modulus and 256 full-width (512-bit) exponents. Serially
/// that is at least 10 ms, so the pool's fixed wake/join cost stays under
/// 1% of the run and cannot decide the comparison.
fn heavy_kernel() -> (Montgomery, Vec<Nat>) {
    let mut limbs = [0xA5u8; 64];
    limbs[0] |= 1; // odd, as Montgomery requires
    limbs[63] |= 0x80; // full width
    let mont = Montgomery::new(Nat::from_le_bytes(&limbs));
    let mut rng = XorShiftRng::new(0x5CA1E);
    let exps: Vec<Nat> = (0..256)
        .map(|_| Nat::random_exact_bits(&mut rng, 512))
        .collect();
    (mont, exps)
}

fn run_kernel(mont: &Montgomery, exps: &[Nat]) -> Vec<Nat> {
    let base = Nat::from(0xDEADBEEFu64);
    par::par_map_cost(par::CostClass::Heavy, exps, |e| mont.pow(&base, e))
}

#[test]
fn heavy_kernel_is_deterministic_across_thread_counts() {
    let _lock = config_lock();
    let _restore = Restore;
    let (mont, exps) = heavy_kernel();
    par::set_threads(Some(1));
    let serial = run_kernel(&mont, &exps);
    for nt in [2, 4, 8] {
        par::set_threads(Some(nt));
        assert_eq!(
            run_kernel(&mont, &exps),
            serial,
            "pool result differs at {nt} threads"
        );
    }
}

#[test]
#[ignore = "wall-clock comparison; run explicitly via ci.sh (-- --ignored)"]
fn four_threads_beat_one_on_a_heavy_kernel() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        // A speedup is physically impossible here; the pir-scan overhead
        // bound in `trend --scaling` covers this regime instead.
        eprintln!("scaling smoke: skipped ({cores} core(s) < 2)");
        return;
    }
    let _lock = config_lock();
    let _restore = Restore;
    let (mont, exps) = heavy_kernel();
    let time_at = |nt: usize| {
        par::set_threads(Some(nt));
        let _warmup = run_kernel(&mont, &exps); // spawn workers, fault pages
        let reps = 5;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(run_kernel(&mont, &exps));
        }
        start.elapsed() / reps
    };
    let serial = time_at(1);
    let pooled = time_at(4);
    // The real bar (>=10% speedup at n >= 4096) lives in `trend
    // --scaling`; this smoke only insists the pool is not a pessimization
    // on hardware that can actually run it (10% slack for timer noise).
    assert!(
        pooled.as_secs_f64() <= serial.as_secs_f64() * 1.10,
        "4-thread heavy kernel slower than serial: {pooled:?} vs {serial:?}"
    );
    eprintln!(
        "scaling smoke: serial {serial:?}, 4 threads {pooled:?} ({:.2}x, {cores} cores)",
        serial.as_secs_f64() / pooled.as_secs_f64()
    );
}
