//! Drive-id → shard partitioning.
//!
//! Routing must be a pure function of the drive id and the shard count:
//! the same drive lands on the same shard in every run, so a shard's
//! state is a pure function of the feed prefix routed to it, and
//! kill-and-restart replay re-routes identically.
//!
//! Shard counts are restricted to powers of two so the partition is a
//! simple mask of a [SplitMix64]-mixed id. The mix matters: raw drive
//! ids are typically sequential, and `id & (n-1)` would put all of a
//! rack's drives on a handful of shards; the finalizer spreads them
//! uniformly. Masking also gives the *refinement* property — the shard
//! under `2n` shards, reduced mod `n`, is the shard under `n` shards —
//! which makes partitions at different shard counts mutually consistent
//! and cheap to test.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! Lines with no parseable drive id (garbage that will quarantine) are
//! routed by a hash of their leading field, so a garbage flood spreads
//! across shards deterministically instead of funneling into shard 0.

use hdd_smart::rng::{fnv1a_extend, splitmix64, FNV1A_OFFSET};

/// Hash-partitions drive ids across a power-of-two shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    n_shards: usize,
}

impl ShardRouter {
    /// A router over `n_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or not a power of two (the CLI
    /// validates this as a usage error before construction).
    #[must_use]
    pub fn new(n_shards: usize) -> Self {
        assert!(
            n_shards >= 1 && n_shards.is_power_of_two(),
            "shard count must be a power of two, got {n_shards}"
        );
        ShardRouter { n_shards }
    }

    /// How many shards this router partitions across.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The owning shard for a drive id.
    #[must_use]
    pub fn shard_of(&self, drive: u32) -> usize {
        (splitmix64(u64::from(drive)) & (self.n_shards as u64 - 1)) as usize
    }

    /// The owning shard for a raw feed line: by drive id when the
    /// leading field parses as one, by a hash of the leading field
    /// otherwise (the line will quarantine on whichever shard owns it).
    #[must_use]
    pub fn shard_of_line(&self, text: &str) -> usize {
        let leading = text.split(',').next().unwrap_or("");
        match leading.trim().parse::<u32>() {
            Ok(drive) => self.shard_of(drive),
            Err(_) => {
                (fnv1a_extend(FNV1A_OFFSET, leading.as_bytes()) & (self.n_shards as u64 - 1))
                    as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for drive in [0u32, 1, 17, u32::MAX] {
            assert_eq!(r.shard_of(drive), 0);
        }
        assert_eq!(r.shard_of_line("not,a,row"), 0);
    }

    #[test]
    fn assignment_is_stable_across_router_instances() {
        let a = ShardRouter::new(8);
        let b = ShardRouter::new(8);
        for drive in 0..10_000u32 {
            assert_eq!(a.shard_of(drive), b.shard_of(drive));
        }
    }

    #[test]
    fn partitions_are_disjoint_covering_and_refine() {
        // Every drive gets exactly one shard in [0, n); doubling the
        // shard count refines the partition (shard mod n is preserved).
        for n in [1usize, 2, 4, 8] {
            let coarse = ShardRouter::new(n);
            let fine = ShardRouter::new(2 * n);
            let mut seen = vec![0usize; n];
            for drive in 0..50_000u32 {
                let s = coarse.shard_of(drive);
                assert!(s < n);
                seen[s] += 1;
                assert_eq!(fine.shard_of(drive) % n, s, "drive {drive} at n={n}");
            }
            // The mix spreads sequential ids: no shard is starved.
            for (shard, count) in seen.iter().enumerate() {
                assert!(
                    *count * n >= 50_000 / 2,
                    "shard {shard}/{n} got only {count} of 50000"
                );
            }
        }
    }

    #[test]
    fn garbage_lines_route_deterministically() {
        let r = ShardRouter::new(4);
        for text in ["", "garbage-line", "x,y,z", "  12bad,3"] {
            assert_eq!(r.shard_of_line(text), r.shard_of_line(text));
        }
        // A numeric leading field routes exactly like the drive id.
        assert_eq!(r.shard_of_line("42,0,,7,1,2"), r.shard_of(42));
    }
}
