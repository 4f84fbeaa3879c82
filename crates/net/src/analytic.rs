//! Closed-form collective cost models.
//!
//! These are the costs of *bulk-synchronous* collectives — what RCCL-style
//! libraries achieve once a kernel boundary hands them the whole tensor.
//! The fused operator's advantage in the paper comes from overlapping these
//! costs, not reducing them, so the same models price both systems' wire
//! time.
//!
//! Conventions: `bytes_per_pair` is what each endpoint owes each *other*
//! endpoint (All-to-All); `bytes` is the full per-endpoint tensor
//! (AllReduce family). Chunked pipelining is assumed for latency terms
//! (`chunks` messages per peer), matching RCCL's protocol behaviour.

//! ```
//! use fcc_net::{analytic, presets};
//!
//! // Table 1's inter-node system: 128 MiB per pair over 20 GB/s IB.
//! let t = analytic::alltoall(&presets::dual_node_ib(), 128 << 20);
//! assert!(t > fcc_sim::SimTime::from_millis(6));
//! assert!(t < fcc_sim::SimTime::from_millis(8));
//! ```

use fcc_sim::SimTime;

use crate::topology::Topology;

/// Messages each peer-payload is split into (RCCL-like chunking).
const DEFAULT_CHUNKS: u64 = 4;

/// Cost of a uniform All-to-All where every endpoint sends
/// `bytes_per_pair` to each of the other `n-1` endpoints.
pub fn alltoall(topo: &Topology, bytes_per_pair: u64) -> SimTime {
    let n = topo.endpoints() as u64;
    if n < 2 || bytes_per_pair == 0 {
        return SimTime::ZERO;
    }
    let link = topo.link();
    match *topo {
        // Dedicated link per pair: all exchanges proceed concurrently; the
        // completion time is one pairwise transfer.
        Topology::FullyConnected { .. } => link.message_time(bytes_per_pair),
        // One NIC per endpoint: (n-1) peer payloads serialize through it.
        Topology::Switched { .. } => {
            let per_peer = link.occupancy(bytes_per_pair);
            let serialization = SimTime::from_nanos(per_peer.as_nanos() * (n - 1));
            serialization + link.latency
        }
        // Dimension-ordered routing: decompose into a row phase and a
        // column phase. Within a ring of k nodes where each pair exchanges
        // M bytes, the peak bidirectional-link load is M·k²/8 per
        // direction (uniform traffic, both directions used).
        Topology::Torus2D { dims, .. } => {
            let (a, b) = (dims.0 as u64, dims.1 as u64);
            // Row phase: rings of size b; each node forwards the payloads
            // of all `a` rows toward each destination column.
            let row = ring_alltoall_time(topo, b, bytes_per_pair * a);
            // Column phase: rings of size a; payload per pair aggregates
            // the `b` columns' worth already delivered to this column.
            let col = ring_alltoall_time(topo, a, bytes_per_pair * b);
            row + col
        }
        // Three ring phases, each aggregating the other two dimensions'
        // payload (the 2D decomposition applied once more).
        Topology::Torus3D { dims, .. } => {
            let (a, b, c) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
            ring_alltoall_time(topo, c, bytes_per_pair * a * b)
                + ring_alltoall_time(topo, b, bytes_per_pair * a * c)
                + ring_alltoall_time(topo, a, bytes_per_pair * b * c)
        }
        // Peak link load is either the host uplink ((n-1) peer payloads)
        // or a leaf uplink (the leaf's cross-leaf traffic ECMP-spread
        // over the spines); 4 hop latencies for the trailing bytes.
        Topology::FatTree {
            leaves,
            hosts_per_leaf,
            spines,
            ..
        } => {
            let (l, p, s) = (leaves as u64, hosts_per_leaf as u64, spines as u64);
            let h = l * p;
            let host_up = (h - 1) * bytes_per_pair;
            let leaf_up = p * (h - p) * bytes_per_pair / s;
            let peak = host_up.max(leaf_up) as f64;
            SimTime::from_nanos_f64(peak / link.bandwidth)
                + SimTime::from_nanos(link.latency.as_nanos() * 4)
        }
        // Peak load is either the host uplink or a global link (one per
        // ordered group pair, carrying the full inter-group exchange);
        // up to 5 hop latencies through the gateways.
        Topology::Dragonfly {
            routers_per_group,
            hosts_per_router,
            ..
        } => {
            let hpg = (routers_per_group * hosts_per_router) as u64;
            let host_up = (n - 1) * bytes_per_pair;
            let global = hpg * hpg * bytes_per_pair;
            let peak = host_up.max(global) as f64;
            SimTime::from_nanos_f64(peak / link.bandwidth)
                + SimTime::from_nanos(link.latency.as_nanos() * 5)
        }
        // Each host's (n-1) peer payloads hash-spread over its rails.
        Topology::MultiRail { rails, .. } => {
            let per_rail = ((n - 1) * bytes_per_pair).div_ceil(rails as u64);
            SimTime::from_nanos_f64(per_rail as f64 / link.bandwidth)
                + SimTime::from_nanos(link.latency.as_nanos() * 2)
        }
    }
}

/// Peak-link-load time for a uniform all-to-all among `k` nodes on a
/// bidirectional ring with `bytes_per_pair` per ordered pair.
fn ring_alltoall_time(topo: &Topology, k: u64, bytes_per_pair: u64) -> SimTime {
    if k < 2 || bytes_per_pair == 0 {
        return SimTime::ZERO;
    }
    let link = topo.link();
    // Peak load per direction: M * k^2 / 8 (k even; within one of k odd).
    let peak_load = bytes_per_pair as f64 * (k * k) as f64 / 8.0;
    let wire = SimTime::from_nanos_f64(peak_load / link.bandwidth);
    // Average path in the ring is ~k/4 hops; latency paid per hop once for
    // the trailing chunk.
    let hop_latency = SimTime::from_nanos(link.latency.as_nanos() * (k / 4).max(1));
    wire + hop_latency
}

/// Ring AllReduce of `bytes` per endpoint (reduce-scatter + all-gather).
pub fn allreduce(topo: &Topology, bytes: u64) -> SimTime {
    let n = topo.endpoints() as u64;
    if n < 2 || bytes == 0 {
        return SimTime::ZERO;
    }
    match *topo {
        Topology::Torus2D { dims, .. } => {
            // Hierarchical: ring allreduce across rows then columns.
            ring_allreduce_time(topo, dims.1 as u64, bytes)
                + ring_allreduce_time(topo, dims.0 as u64, bytes)
        }
        Topology::Torus3D { dims, .. } => {
            ring_allreduce_time(topo, dims.2 as u64, bytes)
                + ring_allreduce_time(topo, dims.1 as u64, bytes)
                + ring_allreduce_time(topo, dims.0 as u64, bytes)
        }
        _ => ring_allreduce_time(topo, n, bytes),
    }
}

fn ring_allreduce_time(topo: &Topology, k: u64, bytes: u64) -> SimTime {
    if k < 2 || bytes == 0 {
        return SimTime::ZERO;
    }
    let link = topo.link();
    // 2(k-1)/k of the buffer crosses each link; 2(k-1) pipeline steps pay
    // latency (chunked).
    let wire_bytes = 2.0 * (k - 1) as f64 / k as f64 * bytes as f64;
    let wire = SimTime::from_nanos_f64(wire_bytes / link.bandwidth);
    let chunks = DEFAULT_CHUNKS.clamp(1, 4);
    let steps = 2 * (k - 1) * chunks;
    let lat = SimTime::from_nanos(link.latency.as_nanos() * steps / chunks);
    wire + lat
}

/// Ring AllGather: each endpoint contributes `bytes` and ends with
/// `n × bytes`.
pub fn allgather(topo: &Topology, bytes: u64) -> SimTime {
    let n = topo.endpoints() as u64;
    if n < 2 || bytes == 0 {
        return SimTime::ZERO;
    }
    let link = topo.link();
    match *topo {
        Topology::Torus2D { dims, .. } => {
            let row = ring_gather_time(link, dims.1 as u64, bytes);
            let col = ring_gather_time(link, dims.0 as u64, bytes * dims.1 as u64);
            row + col
        }
        Topology::Torus3D { dims, .. } => {
            let d2 = ring_gather_time(link, dims.2 as u64, bytes);
            let d1 = ring_gather_time(link, dims.1 as u64, bytes * dims.2 as u64);
            let d0 = ring_gather_time(link, dims.0 as u64, bytes * (dims.1 * dims.2) as u64);
            d2 + d1 + d0
        }
        _ => ring_gather_time(link, n, bytes),
    }
}

fn ring_gather_time(link: &crate::link::LinkSpec, k: u64, bytes: u64) -> SimTime {
    if k < 2 || bytes == 0 {
        return SimTime::ZERO;
    }
    let wire_bytes = (k - 1) as f64 * bytes as f64;
    let wire = SimTime::from_nanos_f64(wire_bytes / link.bandwidth);
    let lat = SimTime::from_nanos(link.latency.as_nanos() * (k - 1));
    wire + lat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    fn switched(n: u32) -> Topology {
        Topology::Switched {
            endpoints: n,
            link: LinkSpec::infiniband_20gbs(),
        }
    }

    fn full(n: u32) -> Topology {
        Topology::FullyConnected {
            endpoints: n,
            link: LinkSpec::xgmi(),
        }
    }

    fn torus(a: u32, b: u32) -> Topology {
        Topology::Torus2D {
            dims: (a, b),
            link: LinkSpec::torus_200gbps(),
        }
    }

    #[test]
    fn alltoall_two_nodes_is_one_transfer() {
        let t = switched(2);
        // 128 MiB at 20 B/ns ≈ 6.71 ms + 1.3 µs latency.
        let bytes = 128 * 1024 * 1024;
        let cost = alltoall(&t, bytes);
        let expect = bytes as f64 / 20.0 + 1_300.0;
        assert!((cost.as_nanos_f64() - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn alltoall_switched_serializes_peers() {
        let two = alltoall(&switched(2), 1 << 20);
        let four = alltoall(&switched(4), 1 << 20);
        // 3 peers vs 1 peer: about 3x the serialization time.
        let ratio = four.as_nanos_f64() / two.as_nanos_f64();
        assert!((2.9..=3.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn alltoall_fully_connected_is_concurrent() {
        // Dedicated pairwise links: cost independent of endpoint count.
        let a = alltoall(&full(2), 1 << 20);
        let b = alltoall(&full(4), 1 << 20);
        assert_eq!(a, b);
    }

    #[test]
    fn alltoall_zero_or_singleton_is_free() {
        assert_eq!(alltoall(&switched(2), 0), SimTime::ZERO);
        assert_eq!(alltoall(&switched(1), 1 << 20), SimTime::ZERO);
    }

    #[test]
    fn torus_alltoall_scales_with_node_count() {
        let small = alltoall(&torus(8, 8), 4096);
        let large = alltoall(&torus(16, 8), 4096);
        assert!(large > small);
    }

    #[test]
    fn torus_alltoall_is_bisection_limited() {
        // All-to-all stresses bisection: a torus (bisection 2·min(a,b)
        // links) must be slower than a full-bisection switched fabric with
        // one equally fast NIC per endpoint. The analytic ratio is
        // ab(a+b)/8 ÷ (n-1) ≈ 3x for a 16x8 torus.
        let bytes = 1 << 20;
        let n128_torus = alltoall(&torus(16, 8), bytes);
        let n128_switch = alltoall(
            &Topology::Switched {
                endpoints: 128,
                link: LinkSpec::torus_200gbps(),
            },
            bytes,
        );
        let ratio = n128_torus.as_nanos_f64() / n128_switch.as_nanos_f64();
        assert!((2.0..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn degenerate_torus_matches_ring_model() {
        // A k x 1 torus is a plain ring: only the column phase contributes.
        let t = torus(8, 1);
        let bytes = 1 << 20;
        let cost = alltoall(&t, bytes);
        // Ring formula: load = M * k^2/8 over 25 B/ns + (k/4) hop latencies.
        let expect = (bytes as f64 * 8.0) / 25.0 + 2.0 * 700.0;
        assert!((cost.as_nanos_f64() - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn allreduce_wire_fraction() {
        let t = switched(4);
        let bytes = 40 << 20;
        let cost = allreduce(&t, bytes);
        // Wire term: 2*(3/4)*bytes / 20 B/ns.
        let wire = 2.0 * 0.75 * bytes as f64 / 20.0;
        assert!(cost.as_nanos_f64() >= wire);
        assert!(cost.as_nanos_f64() < wire * 1.2, "latency should be minor");
    }

    #[test]
    fn torus3d_collectives_priced() {
        let t3 = Topology::Torus3D {
            dims: (4, 4, 8),
            link: LinkSpec::torus_200gbps(),
        };
        assert_eq!(t3.endpoints(), 128);
        // Same endpoint count as the 16x8 2D torus but better bisection:
        // the 3D all-to-all must be at least as fast.
        let t2 = torus(16, 8);
        let bytes = 1 << 20;
        assert!(alltoall(&t3, bytes) <= alltoall(&t2, bytes));
        assert!(allreduce(&t3, 40 << 20) > SimTime::ZERO);
        assert!(allgather(&t3, 1 << 20) > SimTime::ZERO);
    }

    #[test]
    fn collectives_monotone_in_bytes() {
        for topo in [switched(4), full(4), torus(4, 4)] {
            let small = alltoall(&topo, 1 << 10);
            let large = alltoall(&topo, 1 << 20);
            assert!(large > small, "{topo:?}");
            assert!(allreduce(&topo, 1 << 20) > allreduce(&topo, 1 << 10));
        }
    }
}
