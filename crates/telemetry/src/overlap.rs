//! Overlap-efficiency derivation — the paper's key metric.
//!
//! Communication is *hidden* when it happens while compute is also
//! running; the fused operators win by raising the hidden fraction. Given
//! the set of communication intervals (PUT issue → arrival) and the set of
//! compute intervals for one PE, [`OverlapStats::derive`] reports total
//! communication time, how much of it was covered by compute, and the
//! ratio — *overlap efficiency* in `[0, 1]`.

use fcc_sim::time::SimTime;

/// Sorts and merges half-open `[start, end)` intervals into a disjoint,
/// ascending union. Empty/inverted intervals are dropped.
pub fn union_intervals(intervals: &[(SimTime, SimTime)]) -> Vec<(SimTime, SimTime)> {
    let mut sorted: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.as_nanos(), e.as_nanos()))
        .filter(|&(s, e)| e > s)
        .collect();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out.into_iter()
        .map(|(s, e)| (SimTime::from_nanos(s), SimTime::from_nanos(e)))
        .collect()
}

fn total_len(union: &[(SimTime, SimTime)]) -> u64 {
    union.iter().map(|&(s, e)| crate::interval_len(s, e)).sum()
}

/// Intersection length (ns) of two disjoint ascending interval unions.
fn intersection_len(a: &[(SimTime, SimTime)], b: &[(SimTime, SimTime)]) -> u64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        acc += crate::interval_len(lo, hi);
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

/// Communication/compute overlap accounting for one PE (or one run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverlapStats {
    /// Union length of all communication intervals, ns.
    pub comm_total_ns: u64,
    /// Portion of `comm_total_ns` covered by compute intervals, ns.
    pub comm_hidden_ns: u64,
}

impl OverlapStats {
    /// Derives overlap stats from raw (possibly overlapping, unsorted)
    /// communication and compute interval lists.
    pub fn derive(comm: &[(SimTime, SimTime)], compute: &[(SimTime, SimTime)]) -> OverlapStats {
        let comm_union = union_intervals(comm);
        let compute_union = union_intervals(compute);
        OverlapStats {
            comm_total_ns: total_len(&comm_union),
            comm_hidden_ns: intersection_len(&comm_union, &compute_union),
        }
    }

    /// Fraction of communication hidden under compute, in `[0, 1]`.
    /// A run with no communication overlaps perfectly by convention.
    pub fn efficiency(&self) -> f64 {
        if self.comm_total_ns == 0 {
            return 1.0;
        }
        self.comm_hidden_ns as f64 / self.comm_total_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> (SimTime, SimTime) {
        (SimTime::from_nanos(s), SimTime::from_nanos(e))
    }

    #[test]
    fn union_merges_overlaps_and_drops_empty() {
        let u = union_intervals(&[iv(5, 10), iv(0, 6), iv(20, 30), iv(7, 7), iv(9, 3)]);
        assert_eq!(u, vec![iv(0, 10), iv(20, 30)]);
    }

    #[test]
    fn union_merges_touching_intervals() {
        assert_eq!(union_intervals(&[iv(0, 5), iv(5, 9)]), vec![iv(0, 9)]);
    }

    #[test]
    fn fully_hidden_communication() {
        let s = OverlapStats::derive(&[iv(10, 20)], &[iv(0, 100)]);
        assert_eq!(s.comm_total_ns, 10);
        assert_eq!(s.comm_hidden_ns, 10);
        assert_eq!(s.efficiency(), 1.0);
    }

    #[test]
    fn fully_exposed_communication() {
        let s = OverlapStats::derive(&[iv(100, 150)], &[iv(0, 100)]);
        assert_eq!(s.comm_hidden_ns, 0);
        assert_eq!(s.efficiency(), 0.0);
    }

    #[test]
    fn partial_overlap_counts_the_intersection() {
        // comm [0,40), compute [10,20) u [30,60) -> hidden 10 + 10 = 20.
        let s = OverlapStats::derive(&[iv(0, 40)], &[iv(10, 20), iv(30, 60)]);
        assert_eq!(s.comm_total_ns, 40);
        assert_eq!(s.comm_hidden_ns, 20);
        assert!((s.efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_communication_is_perfect_overlap() {
        let s = OverlapStats::derive(&[], &[iv(0, 10)]);
        assert_eq!(s.efficiency(), 1.0);
    }
}
