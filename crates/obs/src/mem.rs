//! Span-attributed heap telemetry: a counting `#[global_allocator]`.
//!
//! The paper's cost model counts communication and modexps, but the
//! reproduction's practical ceiling at large `n` is server-side memory —
//! PIR scans, garbled tables and recursion buffers all allocate Ω(n).
//! With the `obs-alloc` feature this module installs a wrapper around
//! [`std::alloc::System`] that tallies every allocation and attributes
//! deltas to the currently open [`crate::span`], exactly the way op
//! counters already do. Without the feature every probe compiles to a
//! no-op and the process keeps the plain system allocator.
//!
//! Counters kept (see [`MemStat`]):
//!
//! * `allocs` / `alloc_bytes` — allocation count and bytes requested;
//! * `free_bytes` / `reallocs` — bytes returned and reallocation count;
//! * `live_bytes` — current global live-heap gauge (never reset);
//! * `peak_live_bytes` — high-water mark of `live_bytes` since the last
//!   [`reset_mem`].
//!
//! **Determinism contract** (mirrors [`crate::Op::deterministic`]): at
//! `SPFE_THREADS=1`, `allocs` and `alloc_bytes` are pure functions of the
//! protocol run — bit-identical across reruns *and across fault seeds*,
//! because the fault-injecting transport excludes its own
//! schedule-dependent delivery buffers via [`pause`]. The gauges
//! (`live_bytes`, `peak_live_bytes`, and `free_bytes`, whose pairing with
//! paused allocations cannot be tracked) are reported but never gated.
//!
//! **Reentrancy**: the allocator hook may run before `main`, during TLS
//! teardown, and inside any allocation the instrumentation itself makes.
//! It therefore touches only one const-initialised `Cell` record in TLS
//! (no destructor registration, no allocation); during teardown it falls
//! back to updating the global gauge directly. The span frame stack,
//! which does allocate, is managed exclusively by
//! [`frame_open`]/[`frame_close`] — called from span guards, never from
//! the hook.
//!
//! **Hot-path budget**: the hook itself performs no atomic operations —
//! it bumps two or three plain `Cell` counters behind a single TLS
//! lookup and flushes them to the global shards/gauge when a weighted
//! budget runs out (≈ every 64 small hook events or 8 KiB of heap
//! traffic, whichever first, so large buffers surface in the gauge right
//! away). Flushes are forced at span frame boundaries, [`snapshot`] and
//! [`reset_mem`], so single-thread measurement windows read *exact*
//! totals; concurrently running threads can lag the global totals by at
//! most one batch each (and a thread that exits between flushes strands
//! its last partial batch — bounded, and irrelevant to the gated
//! single-thread regime).

/// Process-wide heap counters over one measurement window.
///
/// All fields are totals since the last [`reset_mem`], except
/// `live_bytes` (an absolute gauge) and `peak_live_bytes` (the maximum
/// the gauge reached during the window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStat {
    /// Number of allocations (`alloc` + `alloc_zeroed`; reallocs excluded).
    pub allocs: u64,
    /// Bytes requested by allocations, plus realloc growth.
    pub alloc_bytes: u64,
    /// Bytes returned by deallocations, plus realloc shrinkage.
    pub free_bytes: u64,
    /// Number of reallocations.
    pub reallocs: u64,
    /// Current live heap bytes (global gauge, survives [`reset_mem`]).
    pub live_bytes: u64,
    /// Maximum of `live_bytes` since the last [`reset_mem`].
    pub peak_live_bytes: u64,
}

/// Per-span heap delta produced by [`frame_close`]: the *self* allocation
/// tally of one span occurrence plus the live-heap peak observed while it
/// (or any child) was open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Allocations attributed to the span itself (children excluded).
    pub allocs: u64,
    /// Allocated bytes attributed to the span itself (children excluded).
    pub alloc_bytes: u64,
    /// Live-heap high-water mark while the span was open (children
    /// *included* — peaks do not decompose into self parts).
    pub peak_live_bytes: u64,
}

/// Trace label for span-attributed allocation-count deltas.
pub const ALLOCS_LABEL: &str = "allocs";
/// Trace label for span-attributed allocated-byte deltas.
pub const ALLOC_BYTES_LABEL: &str = "alloc_bytes";

/// Whether the counting allocator is compiled in (the `obs-alloc`
/// feature). With it off, [`snapshot`] returns zeros and the process uses
/// the plain system allocator.
pub const fn alloc_enabled() -> bool {
    cfg!(feature = "obs-alloc")
}

/// Suspends the deterministic tallies (`allocs`, `alloc_bytes`,
/// `reallocs`, `free_bytes`) on the calling thread until the guard drops.
///
/// The live/peak gauges keep tracking — they must see every allocation or
/// later frees would underflow the live count. The fault-injecting
/// transport wraps its delivery path in this guard so fault-schedule-
/// dependent buffer copies never break the bit-identical-across-seeds
/// contract (DESIGN.md §12). Nests; safe to call with the feature off.
#[must_use = "the pause lasts until the guard drops"]
pub fn pause() -> PauseGuard {
    imp::pause_inc();
    PauseGuard { _priv: () }
}

/// RAII guard returned by [`pause`].
pub struct PauseGuard {
    _priv: (),
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        imp::pause_dec();
    }
}

/// Current process-wide heap counters (zeros without `obs-alloc`).
pub fn snapshot() -> MemStat {
    imp::snapshot()
}

/// Starts a new measurement window: zeroes the windowed tallies and
/// resets the peak to the current live gauge. The live gauge itself is
/// never reset (it tracks real outstanding bytes).
pub fn reset_mem() {
    imp::reset_mem()
}

/// Opens an attribution frame for a span on this thread. Called by the
/// span guard; pairs with [`frame_close`].
pub(crate) fn frame_open() {
    imp::frame_open()
}

/// Closes the innermost attribution frame and returns the span's heap
/// delta (zeros if no frame is open or the feature is off).
pub(crate) fn frame_close() -> MemDelta {
    imp::frame_close()
}

#[cfg(feature = "obs-alloc")]
mod imp {
    use super::{MemDelta, MemStat};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

    const NUM_SHARDS: usize = 32;
    /// Weighted flush budget: every hook event costs `1 + size/128`, and
    /// a flush happens when the budget runs out — i.e. after ≈64 small
    /// events or ≈8 KiB of heap traffic, whichever comes first, so one
    /// large buffer shows up in the gauge right away.
    const FLUSH_BUDGET: i32 = 64;

    /// One cache line of windowed tallies; threads are spread round-robin
    /// so concurrent *flushes* rarely contend on a line (same scheme as
    /// the op-counter shards).
    #[repr(align(64))]
    struct Shard {
        allocs: AtomicU64,
        alloc_bytes: AtomicU64,
        free_bytes: AtomicU64,
        reallocs: AtomicU64,
    }

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_SHARD: Shard = Shard {
        allocs: AtomicU64::new(0),
        alloc_bytes: AtomicU64::new(0),
        free_bytes: AtomicU64::new(0),
        reallocs: AtomicU64::new(0),
    };

    static SHARDS: [Shard; NUM_SHARDS] = [ZERO_SHARD; NUM_SHARDS];
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    /// Live-heap gauge, updated at flush points. Signed: cross-thread
    /// frees can transiently outrun the matching allocations' flush, so
    /// the gauge may dip below zero mid-flight; readers clamp at 0.
    static LIVE: AtomicI64 = AtomicI64::new(0);
    /// High-water mark of `LIVE` since the last `reset_mem`.
    static PEAK: AtomicU64 = AtomicU64::new(0);

    /// All of a thread's allocator state in one record: the hook pays
    /// for exactly one TLS lookup per call, and everything behind it is
    /// a plain `Cell` operation — no atomics on the hot path. Every
    /// counter is *monotone*; flushes publish the delta since the last
    /// flush (the `f_*` snapshots) instead of maintaining separate
    /// pending cells, which keeps the per-event work to two or three
    /// increments. Hot fields first so the common path stays on one
    /// cache line.
    #[repr(align(64))]
    struct ThreadMem {
        /// Unpaused allocation count (monotone). Frames subtract start
        /// snapshots, so a global `reset_mem` from another thread cannot
        /// skew an open span.
        allocs: Cell<u64>,
        /// Unpaused allocated bytes, incl. realloc growth (monotone).
        alloc_bytes: Cell<u64>,
        /// Unpaused freed bytes, incl. realloc shrinkage (monotone).
        free_bytes: Cell<u64>,
        /// Alloc/free bytes seen while paused (monotone) — excluded from
        /// the tallies, but the live gauge must still see them.
        paused_up: Cell<u64>,
        paused_down: Cell<u64>,
        /// Unpaused reallocation count (monotone).
        reallocs: Cell<u64>,
        /// Remaining weighted flush budget (see [`FLUSH_BUDGET`]).
        budget: Cell<i32>,
        /// Pause depth (see [`super::pause`]).
        paused: Cell<u32>,
        /// This thread's view of the live-heap high-water mark, rebased
        /// by `frame_open` so each span sees a peak relative to its own
        /// window. Advances only at flush points.
        live_max: Cell<u64>,
        // -- cold: flush bookkeeping only --
        f_allocs: Cell<u64>,
        f_alloc_bytes: Cell<u64>,
        f_free_bytes: Cell<u64>,
        f_paused_up: Cell<u64>,
        f_paused_down: Cell<u64>,
        f_reallocs: Cell<u64>,
        /// This thread's shard index; `usize::MAX` = not yet assigned.
        shard: Cell<usize>,
    }

    impl ThreadMem {
        const fn new() -> ThreadMem {
            ThreadMem {
                allocs: Cell::new(0),
                alloc_bytes: Cell::new(0),
                free_bytes: Cell::new(0),
                paused_up: Cell::new(0),
                paused_down: Cell::new(0),
                reallocs: Cell::new(0),
                budget: Cell::new(FLUSH_BUDGET),
                paused: Cell::new(0),
                live_max: Cell::new(0),
                f_allocs: Cell::new(0),
                f_alloc_bytes: Cell::new(0),
                f_free_bytes: Cell::new(0),
                f_paused_up: Cell::new(0),
                f_paused_down: Cell::new(0),
                f_reallocs: Cell::new(0),
                shard: Cell::new(usize::MAX),
            }
        }

        /// Charges one hook event against the flush budget.
        #[inline]
        fn charge(&self, size: u64) {
            let b = self.budget.get() - ((size >> 7).min(1 << 20) as i32 + 1);
            if b <= 0 {
                self.flush();
            } else {
                self.budget.set(b);
            }
        }

        /// Publishes the deltas since the last flush to the global
        /// shards and gauge. Never allocates and never panics, so it is
        /// safe inside the hook.
        #[inline(never)]
        fn flush(&self) {
            self.budget.set(FLUSH_BUDGET);
            let idx = {
                let s = self.shard.get();
                if s != usize::MAX {
                    s
                } else {
                    let s = NEXT_SHARD.fetch_add(1, Relaxed) % NUM_SHARDS;
                    self.shard.set(s);
                    s
                }
            };
            let sh = &SHARDS[idx];
            // Delta of a monotone counter since the last flush; advances
            // the snapshot.
            let delta = |c: &Cell<u64>, f: &Cell<u64>| {
                let d = c.get().wrapping_sub(f.get());
                f.set(c.get());
                d
            };
            let d_allocs = delta(&self.allocs, &self.f_allocs);
            if d_allocs > 0 {
                sh.allocs.fetch_add(d_allocs, Relaxed);
            }
            let d_up = delta(&self.alloc_bytes, &self.f_alloc_bytes);
            if d_up > 0 {
                sh.alloc_bytes.fetch_add(d_up, Relaxed);
            }
            let d_down = delta(&self.free_bytes, &self.f_free_bytes);
            if d_down > 0 {
                sh.free_bytes.fetch_add(d_down, Relaxed);
            }
            let d_reallocs = delta(&self.reallocs, &self.f_reallocs);
            if d_reallocs > 0 {
                sh.reallocs.fetch_add(d_reallocs, Relaxed);
            }
            let d_pu = delta(&self.paused_up, &self.f_paused_up);
            let d_pd = delta(&self.paused_down, &self.f_paused_down);
            let dl = (d_up.wrapping_add(d_pu) as i64) - (d_down.wrapping_add(d_pd) as i64);
            let live = if dl != 0 {
                LIVE.fetch_add(dl, Relaxed) + dl
            } else {
                LIVE.load(Relaxed)
            };
            let live = live.max(0) as u64;
            if live > self.live_max.get() {
                self.live_max.set(live);
            }
            if live > PEAK.load(Relaxed) {
                PEAK.fetch_max(live, Relaxed);
            }
        }
    }

    thread_local! {
        /// Const-initialised so the first hook on a thread never
        /// allocates and never registers a destructor.
        static TM: ThreadMem = const { ThreadMem::new() };
    }

    /// Gauge fallback for hooks that run during TLS teardown, when the
    /// thread's record is gone: tallies are dropped (teardown-time
    /// allocations are exactly the scheduling noise the deterministic
    /// counters exclude), but the gauge must still see the delta or
    /// later frees would skew it.
    #[inline(never)]
    fn gauge_direct(delta: i64) {
        let live = (LIVE.fetch_add(delta, Relaxed) + delta).max(0) as u64;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }

    #[inline]
    fn on_alloc(size: u64) {
        let r = TM.try_with(|t| {
            if t.paused.get() == 0 {
                t.allocs.set(t.allocs.get().wrapping_add(1));
                t.alloc_bytes.set(t.alloc_bytes.get().wrapping_add(size));
            } else {
                t.paused_up.set(t.paused_up.get().wrapping_add(size));
            }
            t.charge(size);
        });
        if r.is_err() {
            gauge_direct(size as i64);
        }
    }

    #[inline]
    fn on_free(size: u64) {
        let r = TM.try_with(|t| {
            if t.paused.get() == 0 {
                t.free_bytes.set(t.free_bytes.get().wrapping_add(size));
            } else {
                t.paused_down.set(t.paused_down.get().wrapping_add(size));
            }
            t.charge(size);
        });
        if r.is_err() {
            gauge_direct(-(size as i64));
        }
    }

    #[inline]
    fn on_realloc(old: u64, new: u64) {
        let r = TM.try_with(|t| {
            if t.paused.get() == 0 {
                t.reallocs.set(t.reallocs.get().wrapping_add(1));
                if new >= old {
                    t.alloc_bytes
                        .set(t.alloc_bytes.get().wrapping_add(new - old));
                } else {
                    t.free_bytes.set(t.free_bytes.get().wrapping_add(old - new));
                }
            } else if new >= old {
                t.paused_up.set(t.paused_up.get().wrapping_add(new - old));
            } else {
                t.paused_down
                    .set(t.paused_down.get().wrapping_add(old - new));
            }
            t.charge(new.abs_diff(old));
        });
        if r.is_err() {
            gauge_direct(new as i64 - old as i64);
        }
    }

    /// The counting wrapper around the system allocator.
    pub struct CountingAlloc;

    // SAFETY: every method delegates verbatim to `System`, which upholds
    // the `GlobalAlloc` contract; the bookkeeping around the calls never
    // allocates (const-init `Cell` TLS + relaxed atomics only) and never
    // panics, so the hook cannot recurse or unwind into the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        #[inline]
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        #[inline]
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        #[inline]
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_free(layout.size() as u64);
        }

        #[inline]
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                on_realloc(layout.size() as u64, new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn pause_inc() {
        let _ = TM.try_with(|t| t.paused.set(t.paused.get().saturating_add(1)));
    }

    pub fn pause_dec() {
        let _ = TM.try_with(|t| t.paused.set(t.paused.get().saturating_sub(1)));
    }

    pub fn snapshot() -> MemStat {
        // The calling thread's pending batch is published first, so a
        // single-threaded measurement window reads exact totals.
        let _ = TM.try_with(ThreadMem::flush);
        let mut s = MemStat::default();
        for sh in &SHARDS {
            s.allocs += sh.allocs.load(Relaxed);
            s.alloc_bytes += sh.alloc_bytes.load(Relaxed);
            s.free_bytes += sh.free_bytes.load(Relaxed);
            s.reallocs += sh.reallocs.load(Relaxed);
        }
        s.live_bytes = LIVE.load(Relaxed).max(0) as u64;
        s.peak_live_bytes = PEAK.load(Relaxed);
        s
    }

    pub fn reset_mem() {
        // Flush before zeroing: the calling thread's pre-window pendings
        // land in the *old* window instead of leaking into the new one.
        let _ = TM.try_with(ThreadMem::flush);
        for sh in &SHARDS {
            sh.allocs.store(0, Relaxed);
            sh.alloc_bytes.store(0, Relaxed);
            sh.free_bytes.store(0, Relaxed);
            sh.reallocs.store(0, Relaxed);
        }
        // The new window's peak starts at the current footprint, so a
        // span that allocates nothing still reports a truthful gauge.
        PEAK.store(LIVE.load(Relaxed).max(0) as u64, Relaxed);
    }

    /// One open span's attribution state.
    #[derive(Default)]
    struct FrameRec {
        start_allocs: u64,
        start_bytes: u64,
        /// Totals closed children handed up, subtracted to get self.
        child_allocs: u64,
        child_bytes: u64,
        /// Parent's `T_LIVE_MAX` at open, restored (maxed) at close.
        saved_live_max: u64,
    }

    thread_local! {
        /// Attribution frames, innermost last. Only touched by
        /// `frame_open`/`frame_close` — never by the allocator hook — so
        /// its own `Vec` growth is safe (and counted like any other
        /// allocation on this thread).
        static FRAMES: RefCell<Vec<FrameRec>> = const { RefCell::new(Vec::new()) };
    }

    pub fn frame_open() {
        // The frame stack's own growth is instrumentation bookkeeping:
        // it happens only on first use per thread/depth, which would make
        // the first measured run differ from reruns. Pause around it.
        pause_inc();
        let rec = TM.with(|t| {
            // Flush so the frame's peak window starts from the real
            // current gauge, not a stale batch.
            t.flush();
            let live = LIVE.load(Relaxed).max(0) as u64;
            let saved = t.live_max.replace(live);
            FrameRec {
                start_allocs: t.allocs.get(),
                start_bytes: t.alloc_bytes.get(),
                child_allocs: 0,
                child_bytes: 0,
                saved_live_max: saved,
            }
        });
        FRAMES.with(|f| f.borrow_mut().push(rec));
        pause_dec();
    }

    pub fn frame_close() -> MemDelta {
        TM.with(|t| {
            // Publish the closing span's last partial batch so its peak
            // (and the global totals a snapshot may read next) are
            // current.
            t.flush();
            FRAMES.with(|f| {
                let mut frames = f.borrow_mut();
                let Some(rec) = frames.pop() else {
                    return MemDelta::default();
                };
                let total_allocs = t.allocs.get().wrapping_sub(rec.start_allocs);
                let total_bytes = t.alloc_bytes.get().wrapping_sub(rec.start_bytes);
                let peak = t.live_max.get();
                if let Some(parent) = frames.last_mut() {
                    parent.child_allocs = parent.child_allocs.saturating_add(total_allocs);
                    parent.child_bytes = parent.child_bytes.saturating_add(total_bytes);
                }
                t.live_max.set(rec.saved_live_max.max(peak));
                MemDelta {
                    allocs: total_allocs.saturating_sub(rec.child_allocs),
                    alloc_bytes: total_bytes.saturating_sub(rec.child_bytes),
                    peak_live_bytes: peak,
                }
            })
        })
    }
}

#[cfg(not(feature = "obs-alloc"))]
mod imp {
    use super::MemStat;

    #[inline(always)]
    pub fn pause_inc() {}

    #[inline(always)]
    pub fn pause_dec() {}

    pub fn snapshot() -> MemStat {
        MemStat::default()
    }

    pub fn reset_mem() {}

    #[inline(always)]
    pub fn frame_open() {}

    #[inline(always)]
    pub fn frame_close() -> super::MemDelta {
        super::MemDelta::default()
    }
}

#[cfg(all(test, feature = "obs-alloc"))]
mod tests {
    use super::*;

    /// Thread-local tallies are exact on the running thread; global
    /// shard totals are shared with concurrently running tests, so the
    /// assertions below compare per-thread or span-level deltas only.
    fn thread_delta(f: impl FnOnce()) -> MemDelta {
        frame_open();
        f();
        frame_close()
    }

    #[test]
    fn allocations_are_counted() {
        let d = thread_delta(|| {
            let v: Vec<u8> = Vec::with_capacity(4096);
            std::hint::black_box(&v);
        });
        assert!(d.allocs >= 1, "{d:?}");
        assert!(d.alloc_bytes >= 4096, "{d:?}");
        assert!(d.peak_live_bytes > 0, "{d:?}");
    }

    #[test]
    fn nested_frames_split_self_from_children() {
        frame_open();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let inner = thread_delta(|| {
            let b: Vec<u8> = Vec::with_capacity(3000);
            std::hint::black_box(&b);
        });
        std::hint::black_box(&a);
        let outer = frame_close();
        assert!(inner.alloc_bytes >= 3000, "{inner:?}");
        assert!(outer.alloc_bytes >= 1000, "{outer:?}");
        // The inner 3000-byte buffer is a child of the outer frame: self
        // bytes exclude it.
        assert!(
            outer.alloc_bytes < 3000 + 1000,
            "outer self includes child: {outer:?}"
        );
        // The peak is inclusive: the outer span saw at least the inner
        // high-water mark.
        assert!(outer.peak_live_bytes >= inner.peak_live_bytes, "{outer:?}");
    }

    #[test]
    fn pause_excludes_tallies_but_keeps_the_gauge() {
        let d = thread_delta(|| {
            let _p = pause();
            let v: Vec<u8> = Vec::with_capacity(8192);
            std::hint::black_box(&v);
        });
        assert_eq!(d.allocs, 0, "{d:?}");
        assert_eq!(d.alloc_bytes, 0, "{d:?}");
        // The gauge still tracked the paused allocation.
        assert!(d.peak_live_bytes >= 8192, "{d:?}");
    }

    #[test]
    fn pause_nests() {
        let d = thread_delta(|| {
            let p1 = pause();
            let p2 = pause();
            drop(p2);
            let v: Vec<u8> = Vec::with_capacity(512);
            std::hint::black_box(&v);
            drop(p1);
            let w: Vec<u8> = Vec::with_capacity(256);
            std::hint::black_box(&w);
        });
        assert!(d.alloc_bytes >= 256, "{d:?}");
        assert!(d.alloc_bytes < 512, "paused alloc tallied: {d:?}");
    }

    #[test]
    fn snapshot_sees_global_totals_and_live_gauge() {
        // Holds the crate-wide guard: other obs tests call the global
        // reset, which would zero the windowed tallies mid-assertion.
        let _g = crate::test_guard();
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        std::hint::black_box(&v);
        let after = snapshot();
        assert!(after.allocs > before.allocs);
        assert!(after.alloc_bytes >= before.alloc_bytes + (1 << 16));
        assert!(after.live_bytes > 0);
        drop(v);
        let freed = snapshot();
        assert!(freed.free_bytes >= after.free_bytes + (1 << 16));
    }

    #[test]
    fn per_thread_counters_are_deterministic_for_a_fixed_workload() {
        let run = || {
            thread_delta(|| {
                let mut total = 0u64;
                for i in 1..64u64 {
                    let v: Vec<u64> = (0..i).collect();
                    total = total.wrapping_add(v.iter().sum::<u64>());
                }
                std::hint::black_box(total);
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.allocs, b.allocs);
        assert_eq!(a.alloc_bytes, b.alloc_bytes);
        assert!(a.allocs >= 63, "{a:?}");
    }

    #[test]
    fn worker_threads_feed_the_global_totals() {
        let _g = crate::test_guard();
        let before = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| {
                let v: Vec<u8> = Vec::with_capacity(1 << 14);
                std::hint::black_box(&v);
            });
        });
        let after = snapshot();
        assert!(after.alloc_bytes >= before.alloc_bytes + (1 << 14));
    }
}
