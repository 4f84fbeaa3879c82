//! Synthetic categorical input generation.
//!
//! Mirrors the random data generator in the DLRM repository, which the
//! paper uses for inputs: for each (table, sample) pair, `pooling` indices
//! drawn uniformly from the table's rows. Generation is seeded and keyed by
//! `(table, sample)` so any PE can regenerate exactly the bags it needs
//! without materializing the global batch.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic generator of multi-hot categorical inputs.
#[derive(Debug, Clone, Copy)]
pub struct BatchGenerator {
    seed: u64,
    table_rows: usize,
    pooling: usize,
}

impl BatchGenerator {
    /// A generator for tables of `table_rows` rows and bags of `pooling`
    /// indices.
    pub fn new(seed: u64, table_rows: usize, pooling: usize) -> Self {
        assert!(table_rows > 0, "tables must have rows");
        BatchGenerator {
            seed,
            table_rows,
            pooling,
        }
    }

    /// Indices per bag.
    pub fn pooling(&self) -> usize {
        self.pooling
    }

    /// The bag of indices for `(table, sample)`. Allocating wrapper over
    /// [`bag_into`](Self::bag_into).
    pub fn bag(&self, table: usize, sample: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.pooling);
        self.bag_into(table, sample, &mut out);
        out
    }

    /// Writes the bag of indices for `(table, sample)` into `out`,
    /// replacing its contents — the same stream as [`bag`](Self::bag),
    /// without its allocation once `out` has the capacity. Item loops hold
    /// one `out` per worker and call this per logical WG.
    pub fn bag_into(&self, table: usize, sample: usize, out: &mut Vec<u32>) {
        // Key the stream by (seed, table, sample) with distinct multipliers
        // so neighbouring keys do not collide.
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((table as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((sample as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        let mut rng = SmallRng::seed_from_u64(key);
        out.clear();
        out.extend((0..self.pooling).map(|_| rng.gen_range(0..self.table_rows as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bags_are_deterministic() {
        let g = BatchGenerator::new(7, 1000, 32);
        assert_eq!(g.bag(3, 14), g.bag(3, 14));
    }

    #[test]
    fn distinct_keys_give_distinct_bags() {
        let g = BatchGenerator::new(7, 1_000_000, 32);
        assert_ne!(g.bag(0, 0), g.bag(0, 1));
        assert_ne!(g.bag(0, 0), g.bag(1, 0));
        let g2 = BatchGenerator::new(8, 1_000_000, 32);
        assert_ne!(g.bag(0, 0), g2.bag(0, 0));
    }

    #[test]
    fn bag_into_matches_bag_over_a_seeded_grid() {
        // The stream itself is pinned: this bag is what the allocating
        // `bag` returned before `bag_into` existed.
        let pinned = BatchGenerator::new(7, 1000, 8).bag(3, 14);
        assert_eq!(pinned, [109, 547, 859, 468, 631, 933, 36, 722]);
        // One reused buffer, left dirty and over-long by the previous key.
        let mut out = vec![u32::MAX; 100];
        for (seed, rows, pooling) in [
            (0, 1, 1),
            (7, 1000, 32),
            (u64::MAX, 1 << 20, 70),
            (3, 17, 0),
        ] {
            let g = BatchGenerator::new(seed, rows, pooling);
            for table in [0, 1, 5, 63] {
                for sample in [0, 1, 2, 1023, 65_536] {
                    g.bag_into(table, sample, &mut out);
                    assert_eq!(out, g.bag(table, sample), "seed {seed} ({table}, {sample})");
                    assert_eq!(out.len(), pooling);
                }
            }
        }
    }

    #[test]
    fn indices_in_range() {
        let g = BatchGenerator::new(1, 17, 64);
        for table in 0..4 {
            for sample in 0..16 {
                assert!(g.bag(table, sample).iter().all(|&i| (i as usize) < 17));
            }
        }
    }

    #[test]
    fn indices_cover_the_table() {
        // Uniformity smoke test: with many draws over a small table, every
        // row should appear.
        let g = BatchGenerator::new(2, 8, 16);
        let mut seen = [false; 8];
        for sample in 0..64 {
            for idx in g.bag(0, sample) {
                seen[idx as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
