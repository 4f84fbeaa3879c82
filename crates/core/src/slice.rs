//! Slice partitioning of the embedding output.
//!
//! The unit of computation is a *logical workgroup*: one pooled output
//! vector, identified by `(table, global sample)` — exactly the
//! work-partitioning of `EmbeddingBag_updateOutputKernel_sum_mean` with a
//! 256-thread WG and a 256-wide embedding. The unit of *communication* is
//! a **slice**: `slice_embeddings` consecutive outputs of one table, all
//! bound for the same destination PE (slices never straddle the
//! batch-shard boundary, so one PUT moves one slice).
//!
//! Destination layout is the paper's `{local batch, numTables × dim}`: at
//! the destination, sample `s` (local) and *global* table `t` occupy the
//! row-major block `s × (T·dim) + t·dim .. + dim`. Point-to-point slice
//! writes land directly in this layout — no shuffle kernel afterwards.

use crate::op::protocol::SliceTable;

/// Where one slice of pooled outputs lives and goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceInfo {
    /// Slice id, dense in `0..map.num_slices()`.
    pub id: u32,
    /// Local table index on the source PE.
    pub table: u32,
    /// Destination PE (owner of the batch shard).
    pub dst_pe: u32,
    /// First global sample covered.
    pub sample_start: u32,
    /// Number of output vectors (= logical WGs) in the slice.
    pub len: u32,
}

/// The slice partition of one source PE's embedding output.
///
/// Every PE has the same partition *structure* (tables-per-PE and batch
/// shards are uniform); only the interpretation of "local" differs, so one
/// map serves all PEs.
///
/// ```
/// use fcc_core::SliceMap;
///
/// // 2 PEs, 1 table each, global batch 8, slices of 2 outputs.
/// let map = SliceMap::new(2, 1, 8, 2);
/// assert_eq!(map.num_wgs(), 8);
/// assert_eq!(map.num_slices(), 4);
/// // WG 5 = (table 0, sample 5): second shard, so it belongs to PE 1.
/// assert_eq!(map.slice_of_wg(5).dst_pe, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SliceMap {
    n_pes: u32,
    tables_per_pe: u32,
    global_batch: u32,
    local_batch: u32,
    slice_embeddings: u32,
    slices_per_shard: u32,
    slices: Vec<SliceInfo>,
}

impl SliceMap {
    /// Builds the partition.
    ///
    /// # Panics
    /// Panics if the batch does not divide among PEs or any parameter is
    /// zero.
    pub fn new(
        n_pes: usize,
        tables_per_pe: usize,
        global_batch: usize,
        slice_embeddings: usize,
    ) -> SliceMap {
        assert!(n_pes > 0 && tables_per_pe > 0 && global_batch > 0 && slice_embeddings > 0);
        assert_eq!(
            global_batch % n_pes,
            0,
            "global batch {global_batch} not divisible by {n_pes} PEs"
        );
        let local_batch = (global_batch / n_pes) as u32;
        let slice_embeddings = (slice_embeddings as u32).min(local_batch);
        let slices_per_shard = local_batch.div_ceil(slice_embeddings);

        let mut slices = Vec::new();
        for table in 0..tables_per_pe as u32 {
            for dst_pe in 0..n_pes as u32 {
                let shard_start = dst_pe * local_batch;
                for s in 0..slices_per_shard {
                    let start = shard_start + s * slice_embeddings;
                    let len = slice_embeddings.min(shard_start + local_batch - start);
                    slices.push(SliceInfo {
                        id: slices.len() as u32,
                        table,
                        dst_pe,
                        sample_start: start,
                        len,
                    });
                }
            }
        }

        SliceMap {
            n_pes: n_pes as u32,
            tables_per_pe: tables_per_pe as u32,
            global_batch: global_batch as u32,
            local_batch,
            slice_embeddings,
            slices_per_shard,
            slices,
        }
    }

    /// All slices of one source PE, in `(table, dst shard, offset)` order.
    pub fn slices(&self) -> &[SliceInfo] {
        &self.slices
    }

    /// Number of slices per source PE.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Logical workgroups (output vectors) per source PE.
    pub fn num_wgs(&self) -> u32 {
        self.tables_per_pe * self.global_batch
    }

    /// Samples per batch shard.
    pub fn local_batch(&self) -> u32 {
        self.local_batch
    }

    /// Global batch size.
    pub fn global_batch(&self) -> u32 {
        self.global_batch
    }

    /// Configured slice width in embeddings (clamped to the shard).
    pub fn slice_embeddings(&self) -> u32 {
        self.slice_embeddings
    }

    /// Decodes a logical WG id into `(local table, global sample)`.
    /// WG ids are `table * global_batch + sample`.
    pub fn decode_wg(&self, wg: u32) -> (u32, u32) {
        debug_assert!(wg < self.num_wgs());
        (wg / self.global_batch, wg % self.global_batch)
    }

    /// Encodes `(local table, global sample)` into a WG id.
    pub fn encode_wg(&self, table: u32, sample: u32) -> u32 {
        debug_assert!(table < self.tables_per_pe && sample < self.global_batch);
        table * self.global_batch + sample
    }

    /// The slice a logical WG contributes to.
    pub fn slice_of_wg(&self, wg: u32) -> &SliceInfo {
        let (table, sample) = self.decode_wg(wg);
        let shard = sample / self.local_batch;
        let within = (sample % self.local_batch) / self.slice_embeddings;
        let idx = (table * self.n_pes + shard) * self.slices_per_shard + within;
        &self.slices[idx as usize]
    }

    /// The logical WGs of global sample `sample` in table order, each
    /// with the id of its slice: [`slice_of_wg`](Self::slice_of_wg) for a
    /// whole sample at one division.
    pub(crate) fn sample_wgs(&self, sample: u32) -> impl Iterator<Item = (u32, u32)> {
        debug_assert!(sample < self.global_batch);
        let shard = sample / self.local_batch;
        let within = (sample - shard * self.local_batch) / self.slice_embeddings;
        let slice = shard * self.slices_per_shard + within;
        let stride = self.n_pes * self.slices_per_shard;
        let batch = self.global_batch;
        (0..self.tables_per_pe).map(move |t| (t * batch + sample, t * stride + slice))
    }

    /// Element offset (in f32s) of `(src_pe, local table, global sample)`'s
    /// output vector inside the *destination* PE's output buffer of shape
    /// `{local_batch, total_tables × dim}`. Returns `(dst_pe, offset)`.
    pub fn dst_offset(&self, src_pe: u32, table: u32, sample: u32, dim: usize) -> (u32, usize) {
        debug_assert!(src_pe < self.n_pes);
        let dst_pe = sample / self.local_batch;
        let local_sample = (sample % self.local_batch) as usize;
        let global_table = (src_pe * self.tables_per_pe + table) as usize;
        let total_tables = (self.n_pes * self.tables_per_pe) as usize;
        let offset = local_sample * total_tables * dim + global_table * dim;
        (dst_pe, offset)
    }

    /// The protocol's slice table: every source has this partition, whose
    /// slices are listed in WG-id order, so slice `k` of the table is
    /// [`SliceInfo`] `k` and its lengths alone place it.
    pub(crate) fn table(&self) -> SliceTable {
        let runs: Vec<(usize, usize)> = self
            .slices
            .iter()
            .map(|s| (s.len as usize, s.dst_pe as usize))
            .collect();
        SliceTable::new(&vec![runs; self.n_pes as usize])
    }

    /// The protocol task of logical WG `wg` (on any source PE).
    pub(crate) fn task(&self, wg: u32) -> u64 {
        SliceTable::task(self.slice_of_wg(wg).id as usize, wg as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_partition_covers_all_wgs_exactly_once() {
        let map = SliceMap::new(2, 3, 8, 2);
        // 3 tables x 8 samples = 24 WGs; 2 shards of 4 -> 2 slices each.
        assert_eq!(map.num_wgs(), 24);
        assert_eq!(map.num_slices(), 3 * 2 * 2);
        let mut counts = vec![0u32; map.num_slices()];
        for wg in 0..map.num_wgs() {
            let s = map.slice_of_wg(wg);
            counts[s.id as usize] += 1;
            // WG's sample lies inside the slice's range.
            let (_, sample) = map.decode_wg(wg);
            assert!(sample >= s.sample_start && sample < s.sample_start + s.len);
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, map.slices()[i].len, "slice {i}");
        }
    }

    #[test]
    fn sample_walk_matches_slice_of_wg() {
        for map in [SliceMap::new(2, 3, 8, 2), SliceMap::new(4, 2, 32, 3)] {
            for sample in 0..map.global_batch() {
                let tables = map.sample_wgs(sample).map(|(wg, slice)| {
                    assert_eq!(map.slice_of_wg(wg).id, slice, "wg {wg}");
                    map.decode_wg(wg)
                });
                let want: Vec<(u32, u32)> = (0..map.tables_per_pe).map(|t| (t, sample)).collect();
                assert_eq!(tables.collect::<Vec<_>>(), want);
            }
        }
    }

    #[test]
    fn slices_never_straddle_shards() {
        let map = SliceMap::new(4, 2, 32, 3); // local batch 8, slice 3 -> 3,3,2
        for s in map.slices() {
            let first_dst = s.sample_start / map.local_batch();
            let last_dst = (s.sample_start + s.len - 1) / map.local_batch();
            assert_eq!(first_dst, last_dst, "slice {s:?} straddles shards");
            assert_eq!(first_dst, s.dst_pe);
        }
        // Remainder slices exist: lens are 3,3,2 per shard.
        let lens: Vec<u32> = map.slices()[..3].iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
    }

    #[test]
    fn wg_encode_decode_round_trip() {
        let map = SliceMap::new(2, 4, 16, 4);
        for wg in 0..map.num_wgs() {
            let (t, s) = map.decode_wg(wg);
            assert_eq!(map.encode_wg(t, s), wg);
        }
    }

    #[test]
    fn dst_offsets_match_paper_layout() {
        // 2 PEs x 2 tables, batch 4 (local 2), dim 3. Total tables 4.
        let map = SliceMap::new(2, 2, 4, 2);
        let dim = 3;
        // src PE 1, its table 0 => global table 2; sample 3 => dst PE 1,
        // local sample 1. Offset = 1*(4*3) + 2*3 = 18.
        assert_eq!(map.dst_offset(1, 0, 3, dim), (1, 18));
        // src PE 0, table 1 => global table 1; sample 0 => dst 0, offset 3.
        assert_eq!(map.dst_offset(0, 1, 0, dim), (0, 3));
    }

    #[test]
    fn dst_offsets_are_disjoint_across_sources() {
        // Every (src, table, sample) triple maps to a distinct dim-wide
        // block at its destination: no two writers ever collide.
        let n = 3;
        let map = SliceMap::new(n, 2, 6, 2);
        let dim = 4;
        let mut seen = std::collections::HashSet::new();
        for src in 0..n as u32 {
            for table in 0..2 {
                for sample in 0..6 {
                    let key = map.dst_offset(src, table, sample, dim);
                    assert!(seen.insert(key), "collision at {key:?}");
                }
            }
        }
        // 3*2*6 = 36 blocks; each dst holds 12 blocks of `dim` = its
        // entire buffer (local_batch 2 x total_tables 6 x dim).
        assert_eq!(seen.len(), 36);
    }

    #[test]
    fn slice_width_clamps_to_shard() {
        let map = SliceMap::new(4, 1, 8, 64); // local batch 2 < 64
        assert_eq!(map.slice_embeddings(), 2);
        assert!(map.slices().iter().all(|s| s.len == 2));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uneven_batch_rejected() {
        SliceMap::new(3, 1, 8, 2);
    }
}
