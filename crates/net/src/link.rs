//! Link specifications.

use fcc_sim::SimTime;

/// A point-to-point transport: bandwidth, propagation latency, and a
/// minimum per-message occupancy (the reciprocal of the NIC/link message
/// rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth in bytes per nanosecond (numerically equal to
    /// GB/s).
    pub bandwidth: f64,
    /// One-way propagation + protocol latency.
    pub latency: SimTime,
    /// Minimum time one message occupies the sender, regardless of size.
    /// `1 / message_rate`. Zero means unlimited message rate.
    pub min_message_gap: SimTime,
}

impl LinkSpec {
    /// xGMI / Infinity Fabric peer link. Table 1 lists "xGMI links,
    /// 80 GB/s" — that is a GPU's *aggregate* fabric bandwidth; in the
    /// 4-GPU fully connected node each of the 3 peer links carries a third
    /// of it. Short on-package latency; load/store traffic is not
    /// message-rate limited the way an RDMA NIC is, but doorbell-style
    /// transfers still pay a small gap.
    pub fn xgmi() -> LinkSpec {
        LinkSpec {
            bandwidth: 80.0 / 3.0,
            latency: SimTime::from_nanos(500),
            min_message_gap: SimTime::from_nanos(100),
        }
    }

    /// Aggregate per-GPU xGMI bandwidth (all three peer links), Table 1's
    /// headline number.
    pub fn xgmi_aggregate_bandwidth() -> f64 {
        80.0
    }

    /// InfiniBand HCA, Table 1: 20 GB/s. RDMA write latency ~1.3 µs; the
    /// 450 ns message gap corresponds to a ~2.2 Mmsg/s per-QP rate —
    /// typical of GPU-posted WQEs (doorbells cross the PCIe/IF fabric)
    /// and the regime that starves four-embedding slices in Figure 12.
    pub fn infiniband_20gbs() -> LinkSpec {
        LinkSpec {
            bandwidth: 20.0,
            latency: SimTime::from_nanos(1_300),
            min_message_gap: SimTime::from_nanos(450),
        }
    }

    /// Scale-out torus link, Table 2: 200 Gb/s = 25 GB/s, 700 ns.
    pub fn torus_200gbps() -> LinkSpec {
        LinkSpec {
            bandwidth: 25.0,
            latency: SimTime::from_nanos(700),
            min_message_gap: SimTime::from_nanos(200),
        }
    }

    /// Time the sender is occupied transmitting `bytes`.
    pub fn occupancy(&self, bytes: u64) -> SimTime {
        let wire = SimTime::from_nanos_f64(bytes as f64 / self.bandwidth);
        wire.max(self.min_message_gap)
    }

    /// End-to-end time for a single isolated message of `bytes`:
    /// serialization + propagation.
    pub fn message_time(&self, bytes: u64) -> SimTime {
        self.occupancy(bytes) + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_bandwidth_bound_for_large_messages() {
        let l = LinkSpec::infiniband_20gbs();
        // 1 MiB at 20 B/ns = 52,429 ns, far above the 200 ns gap.
        assert_eq!(l.occupancy(1 << 20).as_nanos(), 52_429);
    }

    #[test]
    fn occupancy_is_gap_bound_for_small_messages() {
        let l = LinkSpec::infiniband_20gbs();
        // 64 B would take 3.2 ns at line rate; the gap dominates.
        assert_eq!(l.occupancy(64), SimTime::from_nanos(450));
    }

    #[test]
    fn message_time_adds_latency() {
        let l = LinkSpec::xgmi();
        // 8000 B at 80/3 B/ns = 300 ns of wire, + 500 ns latency.
        assert_eq!(l.message_time(8_000).as_nanos(), 300 + 500);
    }

    #[test]
    fn presets_match_tables() {
        assert_eq!(
            LinkSpec::xgmi().bandwidth * 3.0,
            LinkSpec::xgmi_aggregate_bandwidth()
        );
        assert_eq!(LinkSpec::infiniband_20gbs().bandwidth, 20.0);
        assert_eq!(LinkSpec::torus_200gbps().bandwidth, 25.0);
        assert_eq!(LinkSpec::torus_200gbps().latency, SimTime::from_nanos(700));
    }
}
