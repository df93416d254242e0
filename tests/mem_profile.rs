//! Heap-profiling conformance suite (DESIGN.md §12): with the
//! instrumented allocator compiled in, every protocol driver's cost
//! report carries span-attributed heap tallies, and at one worker thread
//! those tallies are *bit-identical* across reruns and across masked
//! fault schedules — the property that lets `spfe-tables trend` gate on
//! them.
//!
//! Span-attributed counters are accumulated from thread-local monotone
//! counters (see `spfe-obs::mem`), so they are immune to allocation
//! noise from concurrently starting test threads; the process-global
//! gauges are only asserted nonzero, never equal. `peak_live_bytes`
//! depends on what else is live in the process and is excluded from the
//! equality checks by design.

#![cfg(feature = "obs-alloc")]

mod common;

use common::*;
use spfe::math::par;
use spfe::obs::SpanStat;
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel, ProtocolError};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The span registry and heap counters are process-global; serialize.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the global worker-thread override when a test exits (even by
/// panic), so a failure doesn't leak its thread count into later tests.
struct ThreadsGuard;

impl ThreadsGuard {
    fn set(n: usize) -> ThreadsGuard {
        par::set_threads(Some(n));
        ThreadsGuard
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        par::set_threads(None);
    }
}

/// Runs one driver in a fresh measurement window and returns the span
/// aggregates plus the protocol outcome.
fn profile(
    d: &Driver,
    plan: FaultPlan,
    tolerance: usize,
) -> (Vec<SpanStat>, Result<u64, ProtocolError>) {
    spfe::obs::reset();
    let mut ch = FaultyChannel::new(d.servers, plan, tolerance);
    let got = (d.run)(&mut ch);
    (spfe::obs::spans_snapshot(), got)
}

/// The deterministic slice of a span snapshot: path, call count, and the
/// self-attributed alloc tallies (the peak gauge is process-dependent).
fn heap_key(spans: &[SpanStat]) -> Vec<(String, u64, u64, u64)> {
    spans
        .iter()
        .map(|s| (s.path.clone(), s.calls, s.allocs, s.alloc_bytes))
        .collect()
}

#[test]
fn every_driver_attributes_heap_to_spans() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    assert!(spfe::obs::alloc_enabled());
    for d in drivers() {
        let (spans, got) = profile(&d, FaultPlan::honest(), 0);
        assert_eq!(got, Ok(d.expect), "[{}] honest run", d.name);
        assert!(!spans.is_empty(), "[{}] no spans recorded", d.name);
        assert!(
            spans.iter().any(|s| s.alloc_bytes > 0),
            "[{}] no span-attributed alloc bytes: {spans:?}",
            d.name
        );
        assert!(
            spans.iter().all(|s| s.peak_live_bytes > 0),
            "[{}] a span saw a zero live-heap peak: {spans:?}",
            d.name
        );
        let mem = spfe::obs::mem::snapshot();
        assert!(
            mem.allocs > 0 && mem.alloc_bytes > 0,
            "[{}] {mem:?}",
            d.name
        );
        assert!(mem.peak_live_bytes > 0, "[{}] {mem:?}", d.name);
    }
}

#[test]
fn span_heap_tallies_are_bit_identical_across_reruns() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    for d in drivers() {
        let (first, got1) = profile(&d, FaultPlan::honest(), 0);
        let (second, got2) = profile(&d, FaultPlan::honest(), 0);
        assert_eq!(got1, Ok(d.expect), "[{}] first run", d.name);
        assert_eq!(got2, Ok(d.expect), "[{}] second run", d.name);
        assert_eq!(
            heap_key(&first),
            heap_key(&second),
            "[{}] heap tallies drifted between identical runs",
            d.name
        );
    }
}

#[test]
fn span_heap_tallies_are_bit_identical_across_masked_fault_plans() {
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    for d in drivers() {
        let (honest, got) = profile(&d, FaultPlan::honest(), 0);
        assert_eq!(got, Ok(d.expect), "[{}] honest run", d.name);
        for (what, plan) in [
            ("drop@0", FaultPlan::scripted(vec![(0, FaultAction::Drop)])),
            (
                "drop@1+delay@2",
                FaultPlan::scripted(vec![(1, FaultAction::Drop), (2, FaultAction::Delay(1))]),
            ),
        ] {
            let (faulty, got) = profile(&d, plan, 2);
            assert_eq!(got, Ok(d.expect), "[{} × {what}] masked faults", d.name);
            assert_eq!(
                heap_key(&honest),
                heap_key(&faulty),
                "[{} × {what}] fault schedule leaked into heap tallies",
                d.name
            );
        }
    }
}

/// The self-attributed `(allocs, alloc_bytes)` of `f`, run in a span of
/// its own on this thread.
fn heap_of<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    spfe::obs::reset();
    {
        let _s = spfe::obs::span("measured");
        std::hint::black_box(f());
    }
    let spans = spfe::obs::spans_snapshot();
    let s = spans
        .iter()
        .find(|s| s.path == "measured")
        .expect("measured span");
    (s.allocs, s.alloc_bytes)
}

/// `pow_batch` allocates exactly what mapping `pow_uncounted` over its
/// bases does — the result vector and one `k`-limb residue per power —
/// on the lane path (full groups, on CPUs with AVX-512 IFMA) and on the
/// scalar path (single bases, and every group elsewhere) alike, so the
/// committed heap rows do not depend on the host CPU. The lane
/// constants a context builds on first use stay out of the tallies.
#[test]
fn pow_batch_heap_is_one_result_per_power_on_both_paths() {
    use spfe::math::{Montgomery, Nat, XorShiftRng};
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    let mut rng = XorShiftRng::new(0x0A11_0C08);
    for k in [1, 2, 16, 32, 64] {
        let mut n = Nat::random_exact_bits(&mut rng, 64 * k);
        n.set_bit(0, true);
        let bases: Vec<Nat> = (0..9).map(|_| Nat::random_below(&mut rng, &n)).collect();
        let e = Nat::random_exact_bits(&mut rng, 48 * k);
        let ctx = Montgomery::new(n);
        // A first batch builds the lane constants: paused, so it must
        // tally the same as every later one.
        for round in 0..2 {
            for len in [1, 8, 9] {
                let refs: Vec<&Nat> = bases[..len].iter().collect();
                let batch = heap_of(|| ctx.pow_batch(&refs, &e));
                let mapped = heap_of(|| {
                    refs.iter()
                        .map(|b| ctx.pow_uncounted(b, &e))
                        .collect::<Vec<_>>()
                });
                let per_power = (8 * k + std::mem::size_of::<Nat>()) as u64;
                let what = format!("k={k} len={len} round={round}");
                assert_eq!(batch, mapped, "{what}");
                assert_eq!(batch, (len as u64 + 1, len as u64 * per_power), "{what}");
            }
        }
    }
}

/// Paillier decryption allocates the same whether its CRT halves run on
/// the lane kernel or the scalar one, so the committed heap rows do not
/// depend on the host CPU. At 128 bits `decrypt`'s two halves are too few
/// lanes for the lane kernel at `p²`'s width, while a batch of two or
/// more fills enough; at 512 bits both run on it (on CPUs with AVX-512
/// IFMA). A batch of `m` copies of one ciphertext allocates `m` times
/// what `decrypt` does beside its two-result vector, plus its own four
/// vectors: the ciphertext and the `2m` base references, the `2m` halves
/// and the `m` plaintexts.
#[test]
fn crt_decrypt_heap_is_the_same_on_both_paths() {
    use spfe::crypto::{ChaChaRng, HomomorphicPk, HomomorphicScheme, HomomorphicSk, Paillier};
    use spfe::math::Nat;
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    let (nat, ptr) = (std::mem::size_of::<Nat>(), std::mem::size_of::<&Nat>());
    for bits in [128, 512] {
        let mut rng = ChaChaRng::from_u64_seed(bits as u64);
        let (pk, sk) = Paillier::keygen(bits, &mut rng);
        let ct = pk.encrypt(&Nat::from(0xDEC0_u64), &mut rng);
        // A first decryption builds the lane constants: paused, so it must
        // tally the same as every later one.
        let first = heap_of(|| sk.decrypt(&ct));
        let (allocs, bytes) = heap_of(|| sk.decrypt(&ct));
        assert_eq!(first, (allocs, bytes), "bits={bits}");
        for m in [1, 2, 4, 5, 9] {
            let batch = vec![ct.clone(); m];
            let want = (
                m as u64 * (allocs - 1) + 4,
                (m as u64 * (bytes - 2 * nat as u64)) + (3 * m * ptr + 3 * m * nat) as u64,
            );
            let got = heap_of(|| sk.decrypt_batch(&batch));
            assert_eq!(got, want, "bits={bits} m={m}");
        }
    }
}

/// A Straus fold allocates the same on the lane path (enough columns at
/// the modulus width, on CPUs with AVX-512 IFMA) and on the scalar path
/// (too few columns, and every fold elsewhere): one table sized by one
/// formula on both paths — one slot for one plus one per entry, each as
/// wide as the wider of `k` limbs and the lane digits — then the result
/// vector and one `k`-limb residue per column. So the committed heap rows
/// do not depend on the host CPU.
#[test]
fn multi_pow_fold_heap_is_the_same_on_both_paths() {
    use spfe::math::{Montgomery, MultiPow, Nat, XorShiftRng};
    let _g = lock();
    let _t = ThreadsGuard::set(1);
    let mut rng = XorShiftRng::new(0x57A5_F01D);
    for k in [1, 2, 5, 16, 64] {
        let mut n = Nat::random_exact_bits(&mut rng, 64 * k);
        n.set_bit(0, true);
        let bases: Vec<Nat> = (0..9).map(|_| Nat::random_below(&mut rng, &n)).collect();
        let refs: Vec<&Nat> = bases.iter().collect();
        let ctx = Montgomery::new(n);
        // 0/1 exponents take width 1 whatever the column count, so the
        // table has one size for every `uses`.
        let column = |c: usize| -> Vec<Nat> {
            (0..bases.len())
                .map(|r| Nat::from(((r + c) % 3 == 0) as u64))
                .collect()
        };
        let slot = k.max((64 * k + 2).div_ceil(52));
        let table_bytes = ((1 + bases.len()) * slot * 8) as u64;
        // A first fold builds the lane constants: paused, so it must
        // tally the same as every later one.
        for round in 0..2 {
            for uses in [1, 8] {
                let what = format!("k={k} uses={uses} round={round}");
                let table = heap_of(|| MultiPow::new(&ctx, &refs, 1, uses));
                assert_eq!(table, (1, table_bytes), "{what}");
            }
            for cols in [1, 8, 9] {
                let exps: Vec<Vec<Nat>> = (0..cols).map(column).collect();
                let table = MultiPow::new(&ctx, &refs, 1, cols);
                let per_col = (8 * k + std::mem::size_of::<Nat>()) as u64;
                let what = format!("k={k} cols={cols} round={round}");
                let walk = heap_of(|| table.pow_batch(&exps));
                assert_eq!(walk, (cols as u64 + 1, cols as u64 * per_col), "{what}");
            }
        }
    }
}
