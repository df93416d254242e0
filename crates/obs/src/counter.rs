//! Sharded relaxed-atomic op counters.
//!
//! Each thread is assigned (round-robin, on first use) one of a fixed set
//! of cache-line-aligned shards; [`count`] is a single relaxed `fetch_add`
//! on the caller's shard, so pool workers never contend on a line.
//! [`ops_snapshot`] sums the shards — addition commutes, so the totals for
//! deterministic ops are independent of the thread count and schedule.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A countable hot-path operation.
///
/// The discriminant doubles as the per-shard array index, so new ops go at
/// the end and [`Op::ALL`] must list every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Op {
    /// Generic Montgomery modular exponentiation (`Montgomery::pow`).
    Modexp,
    /// Fixed-base comb exponentiation (`FixedBasePow::pow`). The
    /// over-capacity fallback *also* counts one [`Op::Modexp`].
    FixedBaseExp,
    /// Paillier encryption (fresh randomness).
    PaillierEncrypt,
    /// Paillier decryption.
    PaillierDecrypt,
    /// ElGamal (exponent-message) encryption.
    ElGamalEncrypt,
    /// ElGamal decryption (baby-step/giant-step discrete log included).
    ElGamalDecrypt,
    /// Goldwasser–Micali single-bit encryption.
    GmEncrypt,
    /// Goldwasser–Micali single-bit decryption.
    GmDecrypt,
    /// Homomorphic ciphertext addition (any scheme).
    HomAdd,
    /// Homomorphic plaintext-scalar multiplication (any scheme).
    HomScalarMul,
    /// Ciphertext rerandomization (any scheme).
    HomRerandomize,
    /// 1-out-of-2 OT sender transfers.
    Ot2Transfer,
    /// 1-out-of-n OT sender answers (each also counts its base
    /// [`Op::Ot2Transfer`]s).
    OtnTransfer,
    /// Database cells touched by homomorphic PIR server scans.
    PirWordsScanned,
    /// Worker-pool invocations that actually went parallel (gauge).
    PoolRuns,
    /// Blocks dispatched by the worker pool (gauge).
    PoolBlocks,
    /// Blocks claimed by a worker other than the block's home worker
    /// (gauge; see `spfe-math::par`).
    PoolSteals,
    /// Transport faults injected by a `FaultyChannel` (gauge: varies with
    /// the fault seed, not the computation).
    FaultsInjected,
    /// Message re-deliveries after transient transport faults (gauge:
    /// varies with the fault seed, not the computation).
    Retries,
}

/// Number of distinct ops (length of the per-shard counter array).
const NUM_OPS: usize = 19;

impl Op {
    /// Every variant, in discriminant order.
    pub const ALL: [Op; NUM_OPS] = [
        Op::Modexp,
        Op::FixedBaseExp,
        Op::PaillierEncrypt,
        Op::PaillierDecrypt,
        Op::ElGamalEncrypt,
        Op::ElGamalDecrypt,
        Op::GmEncrypt,
        Op::GmDecrypt,
        Op::HomAdd,
        Op::HomScalarMul,
        Op::HomRerandomize,
        Op::Ot2Transfer,
        Op::OtnTransfer,
        Op::PirWordsScanned,
        Op::PoolRuns,
        Op::PoolBlocks,
        Op::PoolSteals,
        Op::FaultsInjected,
        Op::Retries,
    ];

    /// Stable machine-readable name (used in JSON and on the wire).
    pub fn name(self) -> &'static str {
        match self {
            Op::Modexp => "modexp",
            Op::FixedBaseExp => "fixed_base_exp",
            Op::PaillierEncrypt => "paillier_encrypt",
            Op::PaillierDecrypt => "paillier_decrypt",
            Op::ElGamalEncrypt => "elgamal_encrypt",
            Op::ElGamalDecrypt => "elgamal_decrypt",
            Op::GmEncrypt => "gm_encrypt",
            Op::GmDecrypt => "gm_decrypt",
            Op::HomAdd => "hom_add",
            Op::HomScalarMul => "hom_scalar_mul",
            Op::HomRerandomize => "hom_rerandomize",
            Op::Ot2Transfer => "ot2_transfer",
            Op::OtnTransfer => "otn_transfer",
            Op::PirWordsScanned => "pir_words_scanned",
            Op::PoolRuns => "pool_runs",
            Op::PoolBlocks => "pool_blocks",
            Op::PoolSteals => "pool_steals",
            Op::FaultsInjected => "faults_injected",
            Op::Retries => "retries",
        }
    }

    /// Parses [`Op::name`] back (wire/JSON decode).
    pub fn from_name(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Whether the count is a pure function of the computation (identical
    /// across thread counts, schedules, and fault seeds). `Pool*` gauges
    /// are not: the sequential fallback at 1 thread never runs the pool at
    /// all. Fault/retry tallies are not either: they follow the fault
    /// seed, while the computation they perturb stays the same (retries
    /// re-send already encoded bytes).
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            Op::PoolRuns | Op::PoolBlocks | Op::PoolSteals | Op::FaultsInjected | Op::Retries
        )
    }
}

/// A point-in-time copy of all op counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpsSnapshot {
    counts: [u64; NUM_OPS],
}

impl OpsSnapshot {
    /// The count for one op.
    pub fn get(&self, op: Op) -> u64 {
        self.counts[op as usize]
    }

    /// `(op, count)` pairs with nonzero counts, in discriminant order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Op::ALL
            .into_iter()
            .map(|op| (op, self.get(op)))
            .filter(|&(_, c)| c > 0)
    }

    /// This snapshot with the scheduler gauges zeroed — the part that must
    /// be identical across `SPFE_THREADS` settings.
    pub fn deterministic_part(&self) -> OpsSnapshot {
        let mut out = *self;
        for op in Op::ALL {
            if !op.deterministic() {
                out.counts[op as usize] = 0;
            }
        }
        out
    }
}

/// Shard count: enough that a dozen pool workers rarely collide.
const NUM_SHARDS: usize = 32;

/// One cache line (or more) per shard so workers on different shards
/// never write-share.
#[repr(align(64))]
struct Shard {
    counts: [AtomicU64; NUM_OPS],
}

static SHARDS: [Shard; NUM_SHARDS] = [const {
    Shard {
        counts: [const { AtomicU64::new(0) }; NUM_OPS],
    }
}; NUM_SHARDS];

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Round-robin shard assignment on first use per thread.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

/// Adds `n` to `op`'s counter (relaxed). With tracing on, the delta is
/// also attributed to the calling thread's innermost open span in the
/// event journal.
#[inline]
pub fn count(op: Op, n: u64) {
    let s = MY_SHARD.with(|s| *s);
    SHARDS[s].counts[op as usize].fetch_add(n, Ordering::Relaxed);
    if crate::trace::tracing() {
        crate::trace::on_op(op, n);
    }
}

/// Sums all shards into a consistent-enough snapshot. Call it from the
/// measuring thread after the measured work has joined; relaxed loads are
/// exact once the incrementing threads are quiescent.
pub fn ops_snapshot() -> OpsSnapshot {
    let mut counts = [0u64; NUM_OPS];
    for shard in &SHARDS {
        for (total, c) in counts.iter_mut().zip(&shard.counts) {
            *total = total.wrapping_add(c.load(Ordering::Relaxed));
        }
    }
    OpsSnapshot { counts }
}

/// Zeroes every counter (start of a measurement window).
pub fn reset_ops() {
    for shard in &SHARDS {
        for c in &shard.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant_in_discriminant_order() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn names_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("no-such-op"), None);
    }

    #[test]
    fn gauges_are_exactly_the_pool_and_fault_ops() {
        let gauges: Vec<Op> = Op::ALL.into_iter().filter(|o| !o.deterministic()).collect();
        assert_eq!(
            gauges,
            [
                Op::PoolRuns,
                Op::PoolBlocks,
                Op::PoolSteals,
                Op::FaultsInjected,
                Op::Retries
            ]
        );
    }

    #[test]
    fn counts_sum_across_threads() {
        // Not exact-count (other tests in this binary may count too):
        // assert the *delta* from concurrent increments is what we added.
        let before = ops_snapshot().get(Op::PirWordsScanned);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count(Op::PirWordsScanned, 3);
                    }
                });
            }
        });
        let after = ops_snapshot().get(Op::PirWordsScanned);
        assert!(after - before >= 8 * 1000 * 3);
    }

    #[test]
    fn deterministic_part_zeroes_gauges_only() {
        let mut snap = OpsSnapshot::default();
        snap.counts[Op::Modexp as usize] = 7;
        snap.counts[Op::PoolSteals as usize] = 9;
        let det = snap.deterministic_part();
        assert_eq!(det.get(Op::Modexp), 7);
        assert_eq!(det.get(Op::PoolSteals), 0);
    }
}
