//! The workspace-wide parallel kernel engine: a persistent worker pool.
//!
//! Every Ω(n) server scan and O(m)/O(√n) client batch in the SPFE
//! protocols is a *data-parallel map over independent items* — modular
//! exponentiations per database cell, encryptions per selector entry,
//! per-server query evaluation. This module provides the one primitive they
//! all share: [`par_map`] / [`par_map_cost`] / [`par_chunks_map`] over a
//! **persistent, lazily-started worker pool** with
//!
//! * **deterministic output ordering** — each result is written directly
//!   into its input-index slot of a preallocated output slab, never placed
//!   by completion order, so wire transcripts and communication meters are
//!   byte-identical to the sequential path;
//! * **zero per-call allocation in the engine** — no thread spawns, no
//!   channels, no per-block buffers or reassembly: workers park between
//!   jobs and wake to write disjoint `[start, end)` regions of the slab
//!   (the slab itself is the result `Vec` the caller would have allocated
//!   anyway);
//! * **dynamic load balancing** — workers claim fixed-size blocks from a
//!   shared atomic cursor, so one slow item (e.g. a column with many
//!   non-zero cells) cannot serialize the scan;
//! * **cost-classed sequential fallback** — call sites declare whether an
//!   item is exponentiation-heavy or a cheap field op ([`CostClass`]), and
//!   inputs too small to amortize even the pool's wake/join handshake run
//!   inline on the calling thread;
//! * **configuration** — thread count from the `SPFE_THREADS` environment
//!   variable (default: available parallelism), overridable per-process
//!   with [`set_threads`]; fallback threshold from `SPFE_PAR_THRESHOLD`,
//!   overridable with [`set_seq_threshold`]. Environment variables are
//!   resolved **once, at first use**, into cached atomics — changing them
//!   afterwards (e.g. via `std::env::set_var`) has no effect; use the
//!   setters instead.
//!
//! # Pool architecture
//!
//! Worker threads are spawned on demand (the first job that wants `k`
//! threads spawns `k − 1` workers) and then live for the rest of the
//! process, parked on a condvar. A job is published as a type-erased
//! pointer to a stack-allocated descriptor plus a participation-ticket
//! count; each woken worker claims one ticket under the pool lock (the
//! last ticket retires the job from the publication slot, so a late waker
//! can never observe a dangling job), runs the shared atomic-cursor block
//! loop, and decrements a completion latch. The calling thread is always
//! worker 0 and the job does not return until every ticket holder has
//! finished, which is what makes the borrowed-closure `unsafe` sound.
//! Top-level parallel regions are serialized by a process-wide job lock:
//! the pool's thread budget is `SPFE_THREADS`, not
//! `SPFE_THREADS × concurrent callers`.
//!
//! **Reentrancy:** a `par_*` call made *from inside* a pool job (on the
//! calling thread or a worker) runs inline sequentially — same results,
//! no deadlock, no oversubscription.
//!
//! **Panics** in the mapped closure abort the remaining blocks, propagate
//! to the caller after all participants have stopped, and leave the pool
//! fully usable. Results computed before the panic are leaked (never
//! double-dropped); the panic path is a driver bug by contract, not a
//! recoverable state.
//!
//! # Examples
//!
//! ```
//! use spfe_math::par;
//! let xs: Vec<u64> = (0..1000).collect();
//! let doubled = par::par_map(&xs, |&x| x * 2);
//! assert_eq!(doubled, xs.iter().map(|&x| x * 2).collect::<Vec<_>>());
//! ```

use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Poison-tolerant lock: a panic that unwound through a guard (the
/// propagated worker-panic path) must not wedge the pool for later jobs.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scheduling tallies for the most recent *parallel* [`par_map`] /
/// [`par_chunks_map`] run in this process (sequential fallbacks do not
/// touch it). Purely observational — exposed so cost reports can explain
/// load balance; the values are inherently schedule-dependent and are
/// therefore counted under the non-deterministic `Pool*` gauges of
/// `spfe-obs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers that participated (the calling thread is worker 0).
    pub threads: usize,
    /// Blocks the input was split into.
    pub blocks: usize,
    /// Blocks each worker claimed.
    pub tasks_per_worker: Vec<u64>,
    /// Blocks each worker claimed away from the block's "home" worker
    /// (`block_index % threads`) — a measure of rebalancing activity.
    pub steals_per_worker: Vec<u64>,
}

static LAST_POOL_STATS: Mutex<Option<PoolStats>> = Mutex::new(None);

/// The [`PoolStats`] of the most recent parallel run, if any.
pub fn last_pool_stats() -> Option<PoolStats> {
    lock(&LAST_POOL_STATS).clone()
}

// ---------------------------------------------------------------------------
// Configuration: overrides beat cached env beats defaults.
// ---------------------------------------------------------------------------

/// Process-wide thread-count override (0 = unset, use env/default).
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide sequential-fallback threshold override (0 = unset).
static THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `SPFE_THREADS` resolution (`usize::MAX` = not yet resolved;
/// resolved values are always ≥ 1). Read once — see the module docs.
static THREADS_ENV: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Cached `SPFE_PAR_THRESHOLD` resolution (`usize::MAX` = not yet
/// resolved; 0 = the variable is absent, fall back to per-call defaults).
static THRESHOLD_ENV: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Default minimum number of items before an unclassified map goes
/// parallel ([`par_map`]; classified call sites use [`CostClass`]).
const DEFAULT_SEQ_THRESHOLD: usize = 16;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&v| v > 0)
}

/// The number of worker threads parallel maps will use.
///
/// Resolution order: [`set_threads`] override, then the `SPFE_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
/// The environment is consulted **once** (first call) and cached; later
/// env changes are ignored — use [`set_threads`].
pub fn threads() -> usize {
    match THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => match THREADS_ENV.load(Ordering::Relaxed) {
            usize::MAX => {
                let v = env_usize("SPFE_THREADS")
                    .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
                THREADS_ENV.store(v, Ordering::Relaxed);
                v
            }
            v => v,
        },
        n => n,
    }
}

/// Overrides the thread count for this process (`None` restores the
/// `SPFE_THREADS`/auto default). `Some(1)` forces the sequential path —
/// used by benchmarks and the serial-vs-parallel equivalence tests.
pub fn set_threads(n: Option<usize>) {
    THREADS_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// The cached `SPFE_PAR_THRESHOLD` value (0 = absent), resolved on first
/// use.
fn threshold_env() -> usize {
    match THRESHOLD_ENV.load(Ordering::Relaxed) {
        usize::MAX => {
            let v = env_usize("SPFE_PAR_THRESHOLD").unwrap_or(0);
            THRESHOLD_ENV.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// The minimum input length at which unclassified maps go parallel.
///
/// Resolution order: [`set_seq_threshold`] override, then the
/// `SPFE_PAR_THRESHOLD` environment variable (read once and cached), then
/// a built-in default. Cost-classed call sites resolve through
/// [`seq_threshold_for`] instead.
pub fn seq_threshold() -> usize {
    match THRESHOLD_OVERRIDE.load(Ordering::Relaxed) {
        0 => match threshold_env() {
            0 => DEFAULT_SEQ_THRESHOLD,
            v => v,
        },
        n => n,
    }
}

/// Overrides the sequential-fallback threshold for this process (`None`
/// restores the default). An explicit override also beats every
/// [`CostClass`] default — that is how tests force the pool on.
pub fn set_seq_threshold(n: Option<usize>) {
    THRESHOLD_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Cost classes: per-call-site fallback thresholds and block granularity.
// ---------------------------------------------------------------------------

/// How expensive one mapped item is, declared by the call site so the
/// engine can pick a sane sequential-fallback threshold and block
/// granularity. An explicit [`set_seq_threshold`] / `SPFE_PAR_THRESHOLD`
/// beats the class default at every call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Items dominated by modular exponentiation — a PIR column scan, a
    /// batch encryption, a whole per-server evaluation. Hundreds of
    /// microseconds and up per item: parallelism pays almost immediately,
    /// and fine-grained blocks keep stragglers rebalanced.
    Heavy,
    /// Items that are each a group of `Heavy` ones run as one — a lane
    /// group of [`crate::POW_BATCH_GROUP`] batch powers or Straus
    /// columns. Two items already pay for the pool.
    Batch,
    /// Cheap word/field-level items — a masked-database cell, a
    /// homomorphic add. Tens of nanoseconds per item: only large batches
    /// amortize even the persistent pool's wake/join handshake, and
    /// blocks must be coarse so cursor traffic doesn't dominate.
    Light,
}

impl CostClass {
    /// The default minimum number of items before this class goes
    /// parallel.
    pub const fn min_items(self) -> usize {
        match self {
            CostClass::Heavy => 4,
            CostClass::Batch => 2,
            CostClass::Light => 1024,
        }
    }

    /// The minimum scheduler block size for this class (heavy items
    /// rebalance item-by-item; light items batch to keep the atomic
    /// cursor cold).
    const fn min_block(self) -> usize {
        match self {
            CostClass::Heavy | CostClass::Batch => 1,
            CostClass::Light => 256,
        }
    }
}

/// The resolved sequential-fallback threshold for a call site of class
/// `class`: [`set_seq_threshold`], then `SPFE_PAR_THRESHOLD`, then the
/// class default.
pub fn seq_threshold_for(class: CostClass) -> usize {
    match THRESHOLD_OVERRIDE.load(Ordering::Relaxed) {
        0 => match threshold_env() {
            0 => class.min_items(),
            v => v,
        },
        n => n,
    }
}

// ---------------------------------------------------------------------------
// Public mapping API.
// ---------------------------------------------------------------------------

thread_local! {
    /// True while this thread is executing pool-job blocks (always true on
    /// pool workers; true on the calling thread only during its worker-0
    /// participation). Nested `par_*` calls check it and run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// Maps `f` over `items`, in parallel when it pays.
///
/// Semantically identical to `items.iter().map(f).collect()`: the output is
/// ordered by input index regardless of which worker computed what. Inputs
/// shorter than [`seq_threshold`] (or a 1-thread configuration, or a call
/// from inside a pool job) run inline on the calling thread. Call sites
/// that know their per-item weight should prefer [`par_map_cost`].
///
/// # Panics
///
/// Panics if `f` panics on any item (the panic is propagated; the pool
/// stays usable).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_grained(seq_threshold(), 1, items, f)
}

/// [`par_map`] with a per-call-site [`CostClass`]: the class picks the
/// sequential-fallback threshold ([`seq_threshold_for`]) and the scheduler
/// block granularity.
pub fn par_map_cost<T, U, F>(class: CostClass, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_grained(seq_threshold_for(class), class.min_block(), items, f)
}

fn par_map_grained<T, U, F>(min_len: usize, min_block: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let nt = threads();
    if nt <= 1 || items.len() < min_len.max(2) || in_pool_worker() {
        return items.iter().map(f).collect();
    }
    pooled_index_map(items.len(), nt, min_block, |i| f(&items[i]))
}

/// Maps `f` over disjoint contiguous chunks of `items` of length
/// `chunk_len` (the last may be shorter), concatenating the per-chunk
/// outputs in input order. Use when per-item closures would allocate or
/// when the kernel wants to amortize setup across a run of items.
///
/// The sequential fallback gates on the *parallel grain* (the number of
/// chunks), not the raw item count: a large `chunk_len` that folds the
/// whole input into one chunk runs inline, paying zero pool overhead.
///
/// # Panics
///
/// Panics if `chunk_len == 0` or `f` panics.
pub fn par_chunks_map<T, U, F>(chunk_len: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> Vec<U> + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let nt = threads();
    let nchunks = items.len().div_ceil(chunk_len);
    if nt <= 1 || items.len() < seq_threshold().max(2) || nchunks < 2 || in_pool_worker() {
        return items.chunks(chunk_len).flat_map(&f).collect();
    }
    let last = items.len();
    let per_chunk: Vec<Vec<U>> = pooled_index_map(nchunks, nt, 1, |c| {
        f(&items[c * chunk_len..((c + 1) * chunk_len).min(last)])
    });
    per_chunk.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// The engine: slab placement over the persistent pool.
// ---------------------------------------------------------------------------

/// A raw pointer into the output slab, shareable across workers because
/// every block writes a disjoint `[start, end)` region.
struct SlabPtr<U>(*mut MaybeUninit<U>);

// SAFETY: workers only write through the pointer, each to disjoint
// indices; `U: Send` moves the produced values across threads exactly
// once (worker → slab → caller).
#[allow(unsafe_code)]
unsafe impl<U: Send> Sync for SlabPtr<U> {}

impl<U> SlabPtr<U> {
    /// Writes `v` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the slab, written at most once across all
    /// threads, and the slab must outlive the call.
    #[allow(unsafe_code)]
    unsafe fn write(&self, i: usize, v: U) {
        unsafe { (*self.0.add(i)).write(v) };
    }
}

/// Runs `index ∈ [0, len)` through `g` on the persistent pool and returns
/// the results in index order. Caller guarantees `len ≥ 2` and `nt ≥ 2`.
#[allow(unsafe_code)]
fn pooled_index_map<U, G>(len: usize, nt: usize, min_block: usize, g: G) -> Vec<U>
where
    U: Send,
    G: Fn(usize) -> U + Sync,
{
    let mut slab: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
    // SAFETY: `MaybeUninit<U>` is valid uninitialized; length == capacity.
    unsafe { slab.set_len(len) };
    let out = SlabPtr(slab.as_mut_ptr());
    let work = |start: usize, end: usize| {
        for i in start..end {
            let v = g(i);
            // SAFETY: blocks are disjoint, so index `i` is written exactly
            // once, and the slab outlives the job (run_pooled joins every
            // participant before returning).
            unsafe { out.write(i, v) };
        }
    };
    run_pooled(len, nt, min_block, &work);
    // SAFETY: run_pooled returns normally only after every block in
    // [0, len) completed, so all `len` slots are initialized;
    // Vec<MaybeUninit<U>> and Vec<U> have identical layout.
    let mut slab = ManuallyDrop::new(slab);
    unsafe { Vec::from_raw_parts(slab.as_mut_ptr().cast::<U>(), len, slab.capacity()) }
}

/// One in-flight job, shared between the caller and its ticket-holding
/// workers. Lives on the caller's stack; the pool hands workers a
/// type-erased pointer whose validity is guaranteed by the
/// ticket/completion protocol (see the module docs).
struct Shared<'w> {
    /// Next unclaimed block index.
    cursor: AtomicUsize,
    /// Set on the first panic: remaining blocks are abandoned.
    abort: AtomicBool,
    len: usize,
    block: usize,
    nblocks: usize,
    nt: usize,
    /// `work(start, end)` computes the half-open block `[start, end)`.
    work: &'w (dyn Fn(usize, usize) + Sync),
    /// Pool participants (excluding the caller) still running.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload out of any participant (including the caller).
    panic_slot: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    /// (blocks claimed, blocks stolen) per worker ordinal — gauges.
    claims: Vec<(AtomicU64, AtomicU64)>,
}

impl Shared<'_> {
    /// The block-claim loop every participant runs; never unwinds.
    fn participate(&self, ordinal: usize) {
        let res = panic::catch_unwind(AssertUnwindSafe(|| loop {
            if self.abort.load(Ordering::Relaxed) {
                break;
            }
            let b = self.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= self.nblocks {
                break;
            }
            let start = b * self.block;
            let end = (start + self.block).min(self.len);
            (self.work)(start, end);
            if let Some((tasks, steals)) = self.claims.get(ordinal) {
                tasks.fetch_add(1, Ordering::Relaxed);
                if ordinal != b % self.nt {
                    steals.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        if let Err(payload) = res {
            self.abort.store(true, Ordering::Relaxed);
            let mut slot = lock(&self.panic_slot);
            slot.get_or_insert(payload);
        }
    }

    /// Pool-worker epilogue: count down the completion latch.
    fn finish_participant(&self) {
        let mut p = lock(&self.pending);
        *p -= 1;
        if *p == 0 {
            self.done.notify_one();
        }
    }
}

/// A published job: a type-erased [`Shared`] pointer.
#[derive(Clone, Copy)]
struct Job {
    ctx: *const (),
}
// SAFETY: the pointee is Sync (all-atomic/Mutex state + a Sync closure)
// and outlives every access per the ticket/completion protocol.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

/// The publication slot all workers park on.
struct PoolSlot {
    /// Monotone job id: distinguishes a new job from a spurious wake.
    seq: u64,
    /// The current job, until its last ticket is claimed.
    job: Option<Job>,
    /// Participation tickets remaining for `job`.
    tickets: usize,
    /// Next participant ordinal (the caller is always 0).
    next_ordinal: usize,
    /// Workers spawned so far (pool size only ever grows).
    spawned: usize,
}

struct Pool {
    slot: Mutex<PoolSlot>,
    cv: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Serializes top-level parallel regions: one job owns the pool at a
/// time, so concurrent callers queue instead of oversubscribing the
/// thread budget.
static JOB_LOCK: Mutex<()> = Mutex::new(());

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        slot: Mutex::new(PoolSlot {
            seq: 0,
            job: None,
            tickets: 0,
            next_ordinal: 1,
            spawned: 0,
        }),
        cv: Condvar::new(),
    })
}

/// The persistent-worker main loop: park until a job with a free ticket
/// appears, claim it, run the block loop, count down, repeat forever.
fn worker_main() {
    IN_POOL.with(|f| f.set(true));
    let pool = pool();
    let mut last_seq = 0u64;
    loop {
        let (job, ordinal) = {
            let mut slot = lock(&pool.slot);
            loop {
                if slot.seq != last_seq {
                    last_seq = slot.seq;
                    if slot.tickets > 0 {
                        if let Some(job) = slot.job {
                            slot.tickets -= 1;
                            let ordinal = slot.next_ordinal;
                            slot.next_ordinal += 1;
                            if slot.tickets == 0 {
                                // Last ticket: retire the job so a late
                                // waker can never see a dangling pointer.
                                slot.job = None;
                            }
                            break (job, ordinal);
                        }
                    }
                }
                slot = pool.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: holding a ticket guarantees the Shared outlives this
        // access — the publishing caller blocks until finish_participant.
        #[allow(unsafe_code)]
        let shared = unsafe { &*(job.ctx as *const Shared<'static>) };
        shared.participate(ordinal);
        shared.finish_participant();
    }
}

/// Restores the calling thread's `IN_POOL` flag when the caller finishes
/// its worker-0 participation (drop-safe against propagated panics).
struct InPoolGuard {
    prev: bool,
}

impl InPoolGuard {
    fn enter() -> Self {
        let prev = IN_POOL.with(Cell::get);
        IN_POOL.with(|f| f.set(true));
        InPoolGuard { prev }
    }
}

impl Drop for InPoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|f| f.set(prev));
    }
}

/// Runs `work` over `[0, len)` in blocks on the persistent pool with the
/// calling thread as worker 0. Returns after every participant finished;
/// propagates the first panic. Caller guarantees `len ≥ 2`, `nt ≥ 2`.
fn run_pooled(len: usize, nt: usize, min_block: usize, work: &(dyn Fn(usize, usize) + Sync)) {
    let nt = nt.min(len);
    // Aim for ~4 blocks per worker so stragglers rebalance, but respect
    // the cost class's floor so cheap items don't thrash the cursor.
    let block = len.div_ceil(nt * 4).max(min_block).max(1);
    let nblocks = len.div_ceil(block);
    let participants = nt - 1;

    let _region = lock(&JOB_LOCK);
    let shared = Shared {
        cursor: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        len,
        block,
        nblocks,
        nt,
        work,
        pending: Mutex::new(participants),
        done: Condvar::new(),
        panic_slot: Mutex::new(None),
        claims: {
            // Engine bookkeeping, not protocol cost: keep it out of the
            // span-attributed heap tallies.
            let _pause = spfe_obs::mem::pause();
            (0..nt)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect()
        },
    };

    let pool = pool();
    {
        let mut slot = lock(&pool.slot);
        if slot.spawned < participants {
            // Lazy growth, paid once per high-water mark — pool-internal,
            // so the thread bootstrap never lands in a protocol span.
            let _pause = spfe_obs::mem::pause();
            while slot.spawned < participants {
                std::thread::Builder::new()
                    .name(format!("spfe-par-{}", slot.spawned + 1))
                    .spawn(worker_main)
                    .expect("spawn spfe-par worker");
                slot.spawned += 1;
            }
        }
        slot.seq += 1;
        slot.job = Some(Job {
            ctx: (&shared as *const Shared<'_>).cast(),
        });
        slot.tickets = participants;
        slot.next_ordinal = 1;
    }
    pool.cv.notify_all();

    // The calling thread is worker 0; nested par_* calls on it run inline.
    {
        let _in_pool = InPoolGuard::enter();
        shared.participate(0);
    }

    // Join: the job is over only when every ticket holder checked out.
    {
        let mut p = lock(&shared.pending);
        while *p > 0 {
            p = shared.done.wait(p).unwrap_or_else(|e| e.into_inner());
        }
    }

    {
        use spfe_obs::Op;
        spfe_obs::count(Op::PoolRuns, 1);
        spfe_obs::count(Op::PoolBlocks, nblocks as u64);
        let tasks: Vec<u64> = shared
            .claims
            .iter()
            .map(|(t, _)| t.load(Ordering::Relaxed))
            .collect();
        let steals: Vec<u64> = shared
            .claims
            .iter()
            .map(|(_, s)| s.load(Ordering::Relaxed))
            .collect();
        spfe_obs::count(Op::PoolSteals, steals.iter().sum());
        let _pause = spfe_obs::mem::pause();
        *lock(&LAST_POOL_STATS) = Some(PoolStats {
            threads: nt,
            blocks: nblocks,
            tasks_per_worker: tasks,
            steals_per_worker: steals,
        });
    }

    let payload = lock(&shared.panic_slot).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Forces a thread/threshold configuration for the duration of a
    /// closure, restoring the defaults afterwards (and serializing tests
    /// that touch the process-global configuration).
    fn with_config<R>(threads: usize, threshold: usize, f: impl FnOnce() -> R) -> R {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        // Poison-tolerant: the panic-propagation test unwinds while holding
        // the lock, and a restore-on-drop guard keeps the globals clean.
        let _guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_threads(None);
                set_seq_threshold(None);
            }
        }
        let _restore = Restore;
        set_threads(Some(threads));
        set_seq_threshold(Some(threshold));
        f()
    }

    #[test]
    fn par_map_empty_and_tiny() {
        with_config(4, 1, || {
            assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
            assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
        });
    }

    #[test]
    fn par_map_matches_serial_all_thread_counts() {
        let xs: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| x.wrapping_mul(x) ^ 0xABCD).collect();
        for nt in [1, 2, 3, 4, 8, 64] {
            let got = with_config(nt, 1, || par_map(&xs, |&x| x.wrapping_mul(x) ^ 0xABCD));
            assert_eq!(got, expect, "threads={nt}");
        }
    }

    #[test]
    fn par_chunks_map_matches_serial() {
        let xs: Vec<u64> = (0..613).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| x + 1).collect();
        for (nt, chunk) in [(1, 7), (4, 1), (4, 7), (4, 613), (4, 1000)] {
            let got = with_config(nt, 1, || {
                par_chunks_map(chunk, &xs, |c| c.iter().map(|&x| x + 1).collect())
            });
            assert_eq!(got, expect, "threads={nt} chunk={chunk}");
        }
    }

    #[test]
    fn par_chunks_map_single_chunk_runs_inline() {
        // chunk_len ≥ items.len() means one chunk — the parallel grain is
        // 1, so the engine must stay on the calling thread even above the
        // item-count threshold.
        with_config(4, 1, || {
            let main_id = std::thread::current().id();
            let xs = [1u64; 300];
            let ids = par_chunks_map(1000, &xs, |c| {
                c.iter().map(|_| std::thread::current().id()).collect()
            });
            assert!(ids.iter().all(|&id| id == main_id));
        });
    }

    #[test]
    fn sequential_fallback_below_threshold() {
        // Below the threshold the calling thread does all the work; observable
        // via thread-id equality inside the closure.
        with_config(8, 1000, || {
            let main_id = std::thread::current().id();
            let ids = par_map(&[1u64; 100], |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == main_id));
        });
    }

    #[test]
    fn cost_class_thresholds_resolve() {
        // Class defaults apply when nothing is overridden…
        assert_eq!(CostClass::Heavy.min_items(), 4);
        assert_eq!(CostClass::Batch.min_items(), 2);
        assert!(CostClass::Light.min_items() > CostClass::Heavy.min_items());
        // …and an explicit override beats both classes.
        with_config(4, 7, || {
            assert_eq!(seq_threshold_for(CostClass::Heavy), 7);
            assert_eq!(seq_threshold_for(CostClass::Light), 7);
        });
    }

    #[test]
    fn light_class_stays_inline_below_its_threshold() {
        // 4 threads but only 100 cheap items: Light's threshold keeps the
        // map on the calling thread. (Config lock held to pin the globals;
        // threshold override left unset via direct set_threads.)
        with_config(4, 1, || {
            set_seq_threshold(None); // restore class-default resolution
            let main_id = std::thread::current().id();
            let ids = par_map_cost(CostClass::Light, &[1u64; 100], |_| {
                std::thread::current().id()
            });
            assert!(ids.iter().all(|&id| id == main_id));
            let got = par_map_cost(CostClass::Heavy, &(0..64u64).collect::<Vec<_>>(), |&x| {
                x * 3
            });
            assert_eq!(got, (0..64u64).map(|x| x * 3).collect::<Vec<_>>());
        });
    }

    #[test]
    fn pool_reuse_repeated_jobs_stay_deterministic() {
        // The same persistent pool serves many jobs; every one must land
        // byte-identical to serial, with no warm-up or drift.
        let xs: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| x.rotate_left(9) ^ 55).collect();
        with_config(4, 1, || {
            for round in 0..50 {
                let got = par_map(&xs, |&x| x.rotate_left(9) ^ 55);
                assert_eq!(got, expect, "round={round}");
            }
        });
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        // A par_map inside a pool job (on the caller *or* a worker) must
        // run inline: same results, no second job, no deadlock.
        let xs: Vec<u64> = (0..64).collect();
        let inner: Vec<u64> = (1..=8).collect();
        let expect: Vec<u64> = xs
            .iter()
            .map(|&x| inner.iter().map(|y| y * x).sum())
            .collect();
        let got = with_config(4, 1, || {
            par_map(&xs, |&x| {
                let prods = par_map(&inner, |&y| y * x);
                prods.iter().sum::<u64>()
            })
        });
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        with_config(4, 1, || {
            let _ = par_map(&[0u64; 64], |&x| {
                if x == 0 {
                    panic!("boom");
                }
                x
            });
        });
    }

    #[test]
    fn pool_stays_usable_after_a_panicked_job() {
        with_config(4, 1, || {
            let xs: Vec<u64> = (0..128).collect();
            let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
                par_map(&xs, |&x| {
                    if x == 77 {
                        panic!("first job dies");
                    }
                    x
                })
            }));
            assert!(boom.is_err(), "panic must propagate");
            // The very next job on the same pool must run clean.
            let expect: Vec<u64> = xs.iter().map(|&x| x + 1).collect();
            for _ in 0..5 {
                assert_eq!(par_map(&xs, |&x| x + 1), expect);
            }
        });
    }

    #[test]
    fn pool_stats_cover_all_blocks() {
        with_config(4, 1, || {
            let xs: Vec<u64> = (0..1000).collect();
            let _ = par_map(&xs, |&x| x + 1);
            let stats = last_pool_stats().expect("parallel run recorded");
            assert_eq!(stats.threads, 4);
            assert_eq!(stats.tasks_per_worker.len(), 4);
            assert_eq!(
                stats.tasks_per_worker.iter().sum::<u64>(),
                stats.blocks as u64
            );
            assert!(stats
                .steals_per_worker
                .iter()
                .zip(&stats.tasks_per_worker)
                .all(|(s, t)| s <= t));
        });
    }

    #[test]
    fn config_resolution() {
        with_config(3, 5, || {
            assert_eq!(threads(), 3);
            assert_eq!(seq_threshold(), 5);
        });
        // After restore, values come from env/defaults and are positive.
        assert!(threads() >= 1);
        assert!(seq_threshold() >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_par_map_equals_map(
            xs in proptest::collection::vec(any::<u64>(), 0..200),
            nt in 1usize..9,
            threshold in 1usize..40,
        ) {
            let expect: Vec<u64> = xs.iter().map(|&x| x ^ (x >> 3)).collect();
            let got = with_config(nt, threshold, || par_map(&xs, |&x| x ^ (x >> 3)));
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_par_chunks_map_equals_chunks(
            xs in proptest::collection::vec(any::<u64>(), 0..200),
            nt in 1usize..9,
            chunk in 1usize..32,
        ) {
            let expect: Vec<u64> = xs.chunks(chunk).flat_map(|c| {
                c.iter().rev().map(|&x| x.wrapping_add(1)).collect::<Vec<_>>()
            }).collect();
            let got = with_config(nt, 1, || {
                par_chunks_map(chunk, &xs, |c| c.iter().rev().map(|&x| x.wrapping_add(1)).collect())
            });
            prop_assert_eq!(got, expect);
        }
    }
}
