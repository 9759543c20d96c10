//! Small deterministic PRNG utilities for trace generation.
//!
//! Trace generation must be (a) deterministic given the dataset seed, and
//! (b) *random-access*: a drive's series for hours 500..600 must be
//! identical whether or not hours 0..500 were generated. We therefore derive
//! every random quantity from a counter-based hash (SplitMix64) of
//! `(dataset seed, drive id, stream, hour)` instead of a sequential stream.
//!
//! This module also holds the workspace's one copy of each hash primitive:
//! [`splitmix64`] (seed mixing, shard routing), its sequential stream
//! [`SplitMix64`] (fault injection, network training) and FNV-1a
//! ([`fnv1a_extend`], for fingerprints and line routing).

/// A counter-based deterministic random source.
///
/// `DeterministicRng` is a keyed SplitMix64 finalizer: each draw hashes the
/// key together with the caller-supplied coordinates, so values are stable
/// under any generation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicRng {
    key: u64,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sequential SplitMix64: yields [`splitmix64`] of its state, then
/// advances the state by the golden-ratio increment. For consumers that
/// need a seeded stream rather than random access (fault injection,
/// network initialization and shuffling).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose first draw is `splitmix64(seed)`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }
}

/// FNV-1a 64 offset basis: the hash of the empty byte string.
pub const FNV1A_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into a running FNV-1a 64 `hash`; start from
/// [`FNV1A_OFFSET`] to hash a whole byte string.
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl DeterministicRng {
    /// Create a source keyed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            key: splitmix64(seed),
        }
    }

    /// Derive an independent sub-source (e.g. one per drive).
    #[must_use]
    pub fn derive(&self, stream: u64) -> DeterministicRng {
        DeterministicRng {
            key: splitmix64(self.key ^ splitmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407))),
        }
    }

    /// A uniform `u64` at coordinate `(a, b)`.
    #[must_use]
    pub fn bits(&self, a: u64, b: u64) -> u64 {
        splitmix64(self.key ^ splitmix64(a).rotate_left(17) ^ splitmix64(b ^ 0x5851_F42D_4C95_7F2D))
    }

    /// A uniform `f64` in `[0, 1)` at coordinate `(a, b)`.
    #[must_use]
    pub fn uniform(&self, a: u64, b: u64) -> f64 {
        // 53 mantissa bits of the hash, scaled to [0, 1).
        (self.bits(a, b) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw at coordinate `(a, b)` via Box–Muller.
    #[must_use]
    pub fn gaussian(&self, a: u64, b: u64) -> f64 {
        let u1 = self.uniform(a, b ^ 0x9E37_79B9).max(f64::MIN_POSITIVE);
        let u2 = self.uniform(a ^ 0x85EB_CA6B, b);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A uniform draw in `[lo, hi)` at coordinate `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn range(&self, lo: f64, hi: f64, a: u64, b: u64) -> f64 {
        assert!(lo <= hi, "range requires lo <= hi");
        lo + (hi - lo) * self.uniform(a, b)
    }

    /// Bernoulli draw with probability `p` at coordinate `(a, b)`.
    #[must_use]
    pub fn chance(&self, p: f64, a: u64, b: u64) -> bool {
        self.uniform(a, b) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers from an independent implementation: any edit that
    /// changes these bits breaks shard routing and every pinned fingerprint.
    #[test]
    fn hash_primitives_match_known_answers() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
        // Extending is streaming: split points do not matter.
        let split = fnv1a_extend(fnv1a_extend(FNV1A_OFFSET, b"foo"), b"bar");
        assert_eq!(split, 0x8594_4171_F739_67E8);
    }

    #[test]
    fn sequential_splitmix_hashes_golden_ratio_steps() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        for k in 1..16u64 {
            assert_eq!(
                rng.next_u64(),
                splitmix64(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            );
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = DeterministicRng::new(7);
        let b = DeterministicRng::new(7);
        for i in 0..100 {
            assert_eq!(a.bits(i, i * 3), b.bits(i, i * 3));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DeterministicRng::new(1);
        let b = DeterministicRng::new(2);
        let same = (0..64).filter(|&i| a.bits(i, 0) == b.bits(i, 0)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = DeterministicRng::new(9);
        let s1 = root.derive(1);
        let s2 = root.derive(2);
        assert_ne!(s1.bits(0, 0), s2.bits(0, 0));
        // Deriving the same stream twice is stable.
        assert_eq!(root.derive(1).bits(5, 5), s1.bits(5, 5));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let rng = DeterministicRng::new(3);
        for i in 0..10_000 {
            let u = rng.uniform(i, 1);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let rng = DeterministicRng::new(11);
        let n = 50_000;
        let mean = (0..n).map(|i| rng.uniform(i, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let rng = DeterministicRng::new(13);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|i| rng.gaussian(i, 7)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn chance_frequency() {
        let rng = DeterministicRng::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|&i| rng.chance(0.25, i, 3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn range_bounds() {
        let rng = DeterministicRng::new(19);
        for i in 0..1000 {
            let v = rng.range(-3.0, 4.5, i, 0);
            assert!((-3.0..4.5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn range_panics_when_reversed() {
        let _ = DeterministicRng::new(1).range(2.0, 1.0, 0, 0);
    }
}
