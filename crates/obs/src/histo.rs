//! Log-bucketed latency histograms.
//!
//! Span aggregates keep, besides the running total, a 65-bucket base-2
//! histogram of per-call durations: bucket `b` counts values whose bit
//! length is `b` (value 0 lands in bucket 0, `u64::MAX` in bucket 64).
//! Quantiles are answered as the *upper bound* of the bucket holding the
//! requested rank, clamped into the `[min, max]` of the recorded samples
//! — a conservative estimate with at most 2× relative error, which is
//! plenty to tell a 1 µs phase from a 1 ms phase and costs 536 bytes per
//! span path instead of storing every sample. The clamp makes the answer
//! exact whenever the rank falls on the smallest or largest sample: a
//! single call reports its real duration, and no quantile ever exceeds
//! the largest sample.

/// Number of buckets: one per possible bit length of a `u64`, plus zero.
pub const NUM_BUCKETS: usize = 65;

/// A base-2 log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histo {
    counts: [u64; NUM_BUCKETS],
    /// Smallest recorded sample (`u64::MAX` while empty).
    min: u64,
    /// Largest recorded sample (0 while empty).
    max: u64,
}

impl Default for Histo {
    fn default() -> Self {
        Histo {
            counts: [0; NUM_BUCKETS],
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index for `value`: its bit length (0 for 0).
fn bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `b` can hold (`2^b - 1`; bucket 0 holds only 0).
fn bucket_max(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histo {
    /// An empty histogram.
    pub fn new() -> Self {
        Histo::default()
    }

    /// Records one sample (saturating: a bucket pinned at `u64::MAX` stays
    /// there rather than wrapping).
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket(value);
        self.counts[b] = self.counts[b].saturating_add(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one (saturating per bucket).
    pub fn merge(&mut self, other: &Histo) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples (saturating).
    pub fn count(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// The value at quantile `q ∈ [0, 1]`, reported as the upper bound of
    /// the bucket containing that rank, clamped into the `[min, max]` of
    /// the recorded samples. Empty histograms answer 0.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the requested sample, 1-based, clamped into [1, total].
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_max(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (upper-bound estimate).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (upper-bound estimate).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (upper-bound estimate).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// `(bucket upper bound, count)` for every nonzero bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_max(b), c))
    }
}

/// The full, stable ladder of bucket upper bounds, ascending: `2^b - 1`
/// for every bucket index, ending at `u64::MAX`. Scrape pipelines that
/// need a schedule-independent bucket schema (the Prometheus exposition
/// emits one cumulative series per bound, occupied or not) iterate this
/// instead of [`Histo::nonzero_buckets`].
pub fn bucket_bounds() -> impl Iterator<Item = u64> {
    (0..NUM_BUCKETS).map(bucket_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(u64::MAX), 64);
        assert_eq!(bucket_max(0), 0);
        assert_eq!(bucket_max(1), 1);
        assert_eq!(bucket_max(2), 3);
        assert_eq!(bucket_max(64), u64::MAX);
    }

    #[test]
    fn zero_duration_spans_report_zero_quantiles() {
        // A span cheaper than the clock tick records 0 ns; the histogram
        // must answer 0 for every quantile, not inflate to a bucket bound.
        let mut h = Histo::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        // 736 ms sits in the bucket whose ceiling is 2^30 - 1 ns; the one
        // sample, not that ceiling, is the answer at every rank.
        for sample in [700, 736_000_000] {
            let mut h = Histo::new();
            h.record(sample);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.quantile(q), sample, "q={q}: one sample fills every rank");
            }
        }
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histo::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn saturating_counts_never_wrap() {
        let mut h = Histo::new();
        h.record_n(5, u64::MAX);
        h.record(5);
        h.record_n(5, u64::MAX);
        assert_eq!(h.count(), u64::MAX, "bucket and total both saturate");
        assert_eq!(h.p50(), 5, "quantiles still answer the one sample value");
        let mut other = Histo::new();
        other.record_n(5, u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = Histo::new();
        // 90 fast samples (~100 ns), 10 slow ones (~1 ms).
        h.record_n(100, 90);
        h.record_n(1_000_000, 10);
        assert_eq!(h.p50(), bucket_max(bucket(100)));
        assert_eq!(h.p95(), 1_000_000, "clamped to the largest sample");
        assert_eq!(h.p99(), 1_000_000, "clamped to the largest sample");
        assert!(h.p50() < h.p95());
    }

    #[test]
    fn merge_adds_distributions() {
        let mut a = Histo::new();
        a.record_n(10, 4);
        let mut b = Histo::new();
        b.record_n(1_000, 4);
        a.merge(&b);
        assert_eq!(a.count(), 8);
        assert_eq!(a.p50(), bucket_max(bucket(10)));
        assert_eq!(a.p99(), 1_000, "merge keeps the largest sample");
    }

    #[test]
    fn bucket_bounds_ladder_is_stable_and_ascending() {
        let bounds: Vec<u64> = bucket_bounds().collect();
        assert_eq!(bounds.len(), NUM_BUCKETS);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[1], 1);
        assert_eq!(bounds[10], 1023);
        assert_eq!(bounds[64], u64::MAX);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        // Every nonzero bucket bound is drawn from the ladder.
        let mut h = Histo::new();
        h.record(700);
        h.record(0);
        for (le, _) in h.nonzero_buckets() {
            assert!(bounds.contains(&le));
        }
    }

    #[test]
    fn nonzero_buckets_enumerate() {
        let mut h = Histo::new();
        h.record(0);
        h.record(6);
        h.record(6);
        let got: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(got, vec![(0, 1), (7, 2)]);
    }
}
