//! Seeded sequential PRNG for weight initialization and epoch shuffling.
//!
//! Training only needs a reproducible stream, not cryptographic quality:
//! the workspace's sequential SplitMix64 is plenty.

use hdd_smart::rng::SplitMix64;

/// Training draws over a sequential SplitMix64 stream.
#[derive(Debug, Clone)]
pub(crate) struct TrainRng(SplitMix64);

impl TrainRng {
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        TrainRng(SplitMix64::new(seed))
    }

    /// Uniform in `[0, 1)`.
    fn uniform(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Unbiased index in `[0, n)` via rejection sampling.
    fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.0.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = TrainRng::seed_from_u64(42);
        let mut b = TrainRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.0.next_u64(), b.0.next_u64());
        }
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = TrainRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.range(-0.5, 0.5);
            assert!((-0.5..0.5).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TrainRng::seed_from_u64(3);
        let mut items: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, sorted, "a 100-element shuffle should move something");
    }
}
