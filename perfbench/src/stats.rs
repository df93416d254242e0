//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark reports comes from here, computed from the
//! samples themselves — never from a histogram's bucket bounds.

/// Percentiles the tail rule considers, highest first.
pub const TAIL_PERCENTILES: [u32; 3] = [99, 90, 75];

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs`, interpolating linearly between
/// the two closest ranks (the common "type 7" definition).
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples that lie beyond the `pct`-th percentile rank of `n` samples:
/// `n − ⌈pct·n/100⌉`.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - (pct as usize * n).div_ceil(100)
}

/// The highest of p99/p90/p75 that has at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples, or `None` if none qualifies.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The tail latency under [`tail_percentile`]'s rule: `(percentile, value)`.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    tail_percentile(xs.len()).map(|p| (p, quantile(xs, f64::from(p) / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[7.0, 1.0, 5.0]), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn a_single_sample_is_its_own_quantile() {
        // The failure mode the benchmark exists to avoid: a lone 736 ms
        // sample must read as 736 ms, not as a power-of-two bucket bound.
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(quantile(&[736.0], q), 736.0);
        }
    }

    #[test]
    fn samples_beyond_counts_the_ranks_above() {
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(40, 75), 10);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(10, 75), 2);
    }

    #[test]
    fn tail_rule_picks_the_highest_qualifying_percentile() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn tail_reports_the_exact_sample_quantile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("100 samples qualify for p90");
        assert_eq!(p, 90);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
        assert_eq!(tail(&xs[..12]), None);
    }
}
