//! Logical-workgroup scheduling.
//!
//! The paper's *communication-aware* scheduling (§3.2, evaluated in
//! Fig. 13) runs logical WGs that produce **remote** slices before those
//! producing locally consumed slices, maximizing the window in which the
//! non-blocking PUTs can hide behind remaining computation. The baseline
//! *communication-oblivious* order "starts from WG (0,0,0) and proceeds
//! sequentially".
//!
//! Orders are then dealt to persistent WGs round-robin (strided), which
//! keeps the WGs of one slice cluster executing concurrently — the
//! property Figure 9's timeline relies on.

pub mod steal;

use crate::slice::SliceMap;

/// Which logical-WG order a fused kernel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Sequential from WG (0,0,0) — the baseline.
    Oblivious,
    /// Remote-slice WGs first, then local — the paper's optimization.
    CommAware,
}

/// The logical-WG execution order for PE `me` under `kind`.
///
/// The oblivious order walks the grid from WG (0,0,0) — sample-major, all
/// tables of sample 0, then sample 1, … — which is what makes it
/// communication-oblivious: a PE whose batch shard comes early in the
/// global order (node 0) computes *all* of its locally consumed output
/// before any remotely communicated output, exactly the pathology the
/// paper describes for Figure 13. `CommAware` is the stable partition of
/// that order by "produces a remote slice", remote first.
///
/// ```
/// use fcc_core::{schedule, ScheduleKind, SliceMap};
///
/// let map = SliceMap::new(2, 1, 4, 1);
/// let aware = schedule::order(&map, 0, ScheduleKind::CommAware);
/// // PE 0's remote work (samples 2, 3 -> PE 1) comes first.
/// assert_eq!(map.slice_of_wg(aware[0]).dst_pe, 1);
/// ```
pub fn order(map: &SliceMap, me: u32, kind: ScheduleKind) -> Vec<u32> {
    let mut order = Vec::with_capacity(map.num_wgs() as usize);
    for sample in samples(map, me, kind) {
        order.extend(map.sample_wgs(sample).map(|(wg, _)| wg));
    }
    order
}

/// The samples [`order`] walks, in order; each contributes its logical
/// WGs in table order ([`SliceMap::sample_wgs`]).
pub(crate) fn samples(map: &SliceMap, me: u32, kind: ScheduleKind) -> impl Iterator<Item = u32> {
    let (batch, local) = (map.global_batch(), map.local_batch());
    let ranges = match kind {
        ScheduleKind::Oblivious => [0..batch, 0..0, 0..0],
        // Sample `s` goes to PE `s / local`, so the partition moves `me`'s
        // whole shard to the back.
        ScheduleKind::CommAware => {
            let shard = me * local..(me + 1) * local;
            [0..shard.start, shard.end..batch, shard]
        }
    };
    ranges.into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(order: &[u32], n: u32) -> bool {
        let mut seen = vec![false; n as usize];
        for &wg in order {
            if wg >= n || seen[wg as usize] {
                return false;
            }
            seen[wg as usize] = true;
        }
        order.len() == n as usize
    }

    #[test]
    fn oblivious_is_sample_major() {
        let map = SliceMap::new(2, 2, 8, 2);
        let o = order(&map, 0, ScheduleKind::Oblivious);
        assert!(is_permutation(&o, map.num_wgs()));
        // Sample-major: all tables of sample 0, then sample 1, ...
        let decoded: Vec<(u32, u32)> = o.iter().map(|&wg| map.decode_wg(wg)).collect();
        assert_eq!(decoded[0], (0, 0));
        assert_eq!(decoded[1], (1, 0));
        assert_eq!(decoded[2], (0, 1));
        let mut sorted = decoded.clone();
        sorted.sort_by_key(|&(t, s)| (s, t));
        assert_eq!(decoded, sorted);
    }

    #[test]
    fn comm_aware_is_a_permutation_with_remote_first() {
        let map = SliceMap::new(2, 2, 8, 2);
        for me in 0..2 {
            let o = order(&map, me, ScheduleKind::CommAware);
            assert!(is_permutation(&o, map.num_wgs()));
            // Once a local WG appears, no remote WG follows.
            let first_local = o
                .iter()
                .position(|&wg| map.slice_of_wg(wg).dst_pe == me)
                .unwrap();
            for &wg in &o[first_local..] {
                assert_eq!(map.slice_of_wg(wg).dst_pe, me);
            }
        }
    }

    #[test]
    fn comm_aware_is_stable_within_groups() {
        let map = SliceMap::new(2, 2, 8, 2);
        let o = order(&map, 0, ScheduleKind::CommAware);
        let remote: Vec<(u32, u32)> = o
            .iter()
            .copied()
            .filter(|&wg| map.slice_of_wg(wg).dst_pe != 0)
            .map(|wg| map.decode_wg(wg))
            .collect();
        let mut sorted = remote.clone();
        sorted.sort_by_key(|&(t, s)| (s, t));
        assert_eq!(remote, sorted, "remote group preserves sample-major order");
    }

    #[test]
    fn node0_and_node1_obvlivious_orders_differ_in_remote_position() {
        // The Fig. 13 mechanism: under oblivious order, PE 0 computes its
        // local shard (samples 0..local) before its remote shard, while
        // PE 1's oblivious order happens to hit its *remote* shard
        // (samples 0..local, destined to PE 0) first.
        let map = SliceMap::new(2, 1, 8, 2);
        let o = order(&map, 0, ScheduleKind::Oblivious);
        // First WG of PE 0's order produces a LOCAL slice.
        assert_eq!(map.slice_of_wg(o[0]).dst_pe, 0);
        // Same order interpreted on PE 1: first WG produces a REMOTE slice.
        assert_ne!(map.slice_of_wg(o[0]).dst_pe, 1);
    }

    /// The order as first written: decode every WG of the sample-major
    /// walk, then stably partition by the slice's destination.
    fn reference(map: &SliceMap, me: u32, kind: ScheduleKind) -> Vec<u32> {
        let tables = map.num_wgs() / map.global_batch();
        let sample_major = (0..map.num_wgs()).map(|i| map.encode_wg(i % tables, i / tables));
        match kind {
            ScheduleKind::Oblivious => sample_major.collect(),
            ScheduleKind::CommAware => {
                let (local, mut remote): (Vec<u32>, Vec<u32>) =
                    sample_major.partition(|&wg| map.slice_of_wg(wg).dst_pe == me);
                remote.extend(local);
                remote
            }
        }
    }

    #[test]
    fn order_matches_the_per_wg_reference() {
        // (n_pes, tables per PE, global batch, slice width)
        let shapes = [
            (1, 1, 1, 1),
            (1, 3, 8, 2),
            (2, 1, 8, 2),
            (2, 2, 8, 3),
            (3, 4, 12, 5),
            (4, 3, 16, 1),
            (2, 5, 64, 8),
        ];
        for (pes, tables, batch, slice) in shapes {
            let map = SliceMap::new(pes, tables, batch, slice);
            for me in 0..pes as u32 {
                for kind in [ScheduleKind::Oblivious, ScheduleKind::CommAware] {
                    assert_eq!(
                        order(&map, me, kind),
                        reference(&map, me, kind),
                        "{pes} PEs x {tables} tables, batch {batch}, slice {slice}, PE {me}, {kind:?}"
                    );
                }
            }
        }
    }
}
