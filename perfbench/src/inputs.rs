//! Seeded input generation. The workload seed reaches the system only
//! through what these functions produce: databases, indices, per-request
//! randomness seeds and request order. Keys and fixtures do not depend on
//! it.

/// SplitMix64: a small, fast, well-mixed generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one purpose (`tag`) under workload seed `seed`.
    pub fn stream(seed: u64, tag: u64) -> SplitMix64 {
        SplitMix64(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

const TAG_ORDER: u64 = 1;
const TAG_DB: u64 = 2;
const TAG_INDEX: u64 = 3;
const TAG_RNG: u64 = 4;

/// `count` seeded orders of the `drivers` harness drivers, one per
/// distinct `svc-compute` request.
pub fn driver_orders(seed: u64, drivers: usize, count: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::stream(seed, TAG_ORDER);
    (0..count).map(|_| rng.permutation(drivers)).collect()
}

/// A seeded `n`-item database of values below `max`.
pub fn database(seed: u64, n: usize, max: u64) -> Vec<u64> {
    let mut rng = SplitMix64::stream(seed, TAG_DB);
    (0..n).map(|_| rng.below(max)).collect()
}

/// `count` seeded requests of `m` distinct indices into an `n`-item
/// database each.
pub fn index_sets(seed: u64, n: usize, m: usize, count: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::stream(seed, TAG_INDEX);
    (0..count)
        .map(|_| {
            let mut set: Vec<usize> = Vec::with_capacity(m);
            while set.len() < m {
                let i = rng.below(n as u64) as usize;
                if !set.contains(&i) {
                    set.push(i);
                }
            }
            set
        })
        .collect()
}

/// The seed of request `i`'s protocol randomness (query encryption, curve
/// draws), so a repeated request repeats its transcript exactly.
pub fn request_seed(seed: u64, i: usize) -> u64 {
    let mut rng = SplitMix64::stream(seed, TAG_RNG);
    (0..=i).fold(0, |_, _| rng.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        assert_eq!(driver_orders(7, 13, 8), driver_orders(7, 13, 8));
        assert_eq!(database(7, 1024, 1000), database(7, 1024, 1000));
        assert_eq!(index_sets(7, 65_536, 4, 8), index_sets(7, 65_536, 4, 8));
        assert_eq!(request_seed(7, 3), request_seed(7, 3));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(database(1, 1024, 1000), database(2, 1024, 1000));
        assert_ne!(driver_orders(1, 13, 4), driver_orders(2, 13, 4));
        assert_ne!(request_seed(1, 0), request_seed(1, 1));
    }

    #[test]
    fn generated_inputs_respect_their_bounds() {
        for order in driver_orders(3, 13, 16) {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..13).collect::<Vec<_>>());
        }
        assert!(database(3, 4096, 1000).iter().all(|&v| v < 1000));
        for set in index_sets(3, 16, 4, 32) {
            assert_eq!(set.len(), 4);
            assert!(set.iter().all(|&i| i < 16));
            let mut d = set.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4, "indices within a request are distinct");
        }
    }
}
