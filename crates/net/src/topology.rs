//! System topologies.
//!
//! The first four shapes cover the paper's evaluations:
//!
//! * [`Topology::FullyConnected`] — Table 1 intra-node: 4 GPUs, a dedicated
//!   xGMI link per pair.
//! * [`Topology::Switched`] — Table 1 inter-node: each node's GPU owns one
//!   NIC into a non-blocking switch; egress serializes at the NIC.
//! * [`Topology::Torus2D`] — Table 2 scale-out: a 2D torus with
//!   dimension-ordered routing.
//! * [`Topology::Torus3D`] — the higher-bisection torus used by the
//!   dimensionality ablation.
//!
//! Three more extend the scale-out study past the paper's 128 nodes (the
//! fabrics a 1k–8k cluster would actually be built from):
//!
//! * [`Topology::FatTree`] — a two-level leaf/spine Clos. Hosts hang off
//!   leaf switches; every leaf connects to every spine. Traffic between
//!   leaves is spread over the spines by a per-message deterministic hash
//!   (ECMP).
//! * [`Topology::Dragonfly`] — groups of routers, all-to-all local links
//!   inside a group, one global link per ordered group pair, minimal
//!   routing through the gateway router that owns the global link.
//! * [`Topology::MultiRail`] — every endpoint owns `rails` NICs into
//!   `rails` independent non-blocking switch planes; each message picks a
//!   rail by deterministic hash (the "multiple NICs per GPU" trend the
//!   paper's Figure 1b leans on).
//!
//! Fat-tree, dragonfly and multi-rail model their switches as *graph
//! nodes*: node ids `0..endpoints()` are hosts, ids
//! `endpoints()..graph_nodes()` are switches/routers. Both fabric
//! simulators route through those interior nodes via the shared
//! [`crate::routes`] module, so the packet-level and flow-level models
//! traverse bit-identical paths.

use crate::link::LinkSpec;

/// A communication topology over `endpoints` peers.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Every pair of endpoints shares a dedicated bidirectional link.
    FullyConnected { endpoints: u32, link: LinkSpec },
    /// Endpoints attach to a non-blocking switch through one NIC each; the
    /// NIC is the serialization point.
    Switched { endpoints: u32, link: LinkSpec },
    /// `dims.0 × dims.1` torus with one bidirectional link per neighbour
    /// pair per dimension and dimension-ordered routing.
    Torus2D { dims: (u32, u32), link: LinkSpec },
    /// `dims.0 × dims.1 × dims.2` torus (ASTRA-sim's common scale-out
    /// shape beyond 2D), dimension-ordered routing.
    Torus3D {
        dims: (u32, u32, u32),
        link: LinkSpec,
    },
    /// Two-level leaf/spine Clos: `leaves × hosts_per_leaf` hosts, every
    /// leaf wired to every spine, ECMP spine selection per message.
    FatTree {
        leaves: u32,
        hosts_per_leaf: u32,
        spines: u32,
        link: LinkSpec,
    },
    /// `groups` groups of `routers_per_group` routers with
    /// `hosts_per_router` hosts each; local links form an all-to-all
    /// inside each group, and each ordered group pair owns one global
    /// link, terminated at a deterministic gateway router.
    Dragonfly {
        groups: u32,
        routers_per_group: u32,
        hosts_per_router: u32,
        link: LinkSpec,
    },
    /// `endpoints` hosts with `rails` NICs each into `rails` independent
    /// non-blocking switch planes; rail choice is a per-message hash.
    MultiRail {
        endpoints: u32,
        rails: u32,
        link: LinkSpec,
    },
}

impl Topology {
    /// Number of endpoints.
    pub fn endpoints(&self) -> u32 {
        match *self {
            Topology::FullyConnected { endpoints, .. } => endpoints,
            Topology::Switched { endpoints, .. } => endpoints,
            Topology::Torus2D { dims, .. } => dims.0 * dims.1,
            Topology::Torus3D { dims, .. } => dims.0 * dims.1 * dims.2,
            Topology::FatTree {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            Topology::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
                ..
            } => groups * routers_per_group * hosts_per_router,
            Topology::MultiRail { endpoints, .. } => endpoints,
        }
    }

    /// Total graph nodes: endpoints plus interior switches/routers.
    /// Node ids `endpoints()..graph_nodes()` are interior.
    pub fn graph_nodes(&self) -> u32 {
        let n = self.endpoints();
        match *self {
            Topology::FatTree { leaves, spines, .. } => n + leaves + spines,
            Topology::Dragonfly {
                groups,
                routers_per_group,
                ..
            } => n + groups * routers_per_group,
            Topology::MultiRail { rails, .. } => n + rails,
            _ => n,
        }
    }

    /// The per-link specification.
    pub fn link(&self) -> &LinkSpec {
        match self {
            Topology::FullyConnected { link, .. } => link,
            Topology::Switched { link, .. } => link,
            Topology::Torus2D { link, .. } => link,
            Topology::Torus3D { link, .. } => link,
            Topology::FatTree { link, .. } => link,
            Topology::Dragonfly { link, .. } => link,
            Topology::MultiRail { link, .. } => link,
        }
    }

    /// Coordinates of endpoint `id` (torus only; identity elsewhere).
    /// 3D tori report their `(plane, row·col)` projection; use
    /// [`coords3`](Self::coords3) for the full triple.
    pub fn coords(&self, id: u32) -> (u32, u32) {
        match *self {
            Topology::Torus2D { dims, .. } => {
                assert!(id < dims.0 * dims.1, "endpoint {id} out of range");
                (id / dims.1, id % dims.1)
            }
            Topology::Torus3D { dims, .. } => {
                let (a, b, c) = self.coords3(id);
                (a, b * dims.2 + c)
            }
            _ => (0, id),
        }
    }

    /// 3D coordinates of endpoint `id` (3D torus only; zero-padded
    /// elsewhere).
    pub fn coords3(&self, id: u32) -> (u32, u32, u32) {
        match *self {
            Topology::Torus3D { dims, .. } => {
                assert!(id < self.endpoints(), "endpoint {id} out of range");
                let plane = dims.1 * dims.2;
                (id / plane, (id % plane) / dims.2, id % dims.2)
            }
            _ => {
                let (a, b) = self.coords(id);
                (0, a, b)
            }
        }
    }

    /// Minimal hop count from `src` to `dst` under the topology's routing.
    pub fn hops(&self, src: u32, dst: u32) -> u32 {
        let n = self.endpoints();
        assert!(src < n && dst < n, "endpoint out of range");
        if src == dst {
            return 0;
        }
        match *self {
            Topology::FullyConnected { .. } => 1,
            // NIC -> switch -> NIC counts as one network traversal.
            Topology::Switched { .. } => 1,
            Topology::Torus2D { dims, .. } => {
                let (sr, sc) = self.coords(src);
                let (dr, dc) = self.coords(dst);
                let ring_dist = |a: u32, b: u32, k: u32| {
                    let d = a.abs_diff(b);
                    d.min(k - d)
                };
                ring_dist(sr, dr, dims.0) + ring_dist(sc, dc, dims.1)
            }
            Topology::Torus3D { dims, .. } => {
                let (sa, sb, sc) = self.coords3(src);
                let (da, db, dc) = self.coords3(dst);
                let ring_dist = |a: u32, b: u32, k: u32| {
                    let d = a.abs_diff(b);
                    d.min(k - d)
                };
                ring_dist(sa, da, dims.0) + ring_dist(sb, db, dims.1) + ring_dist(sc, dc, dims.2)
            }
            Topology::FatTree { hosts_per_leaf, .. } => {
                // host -> leaf -> host (2 hops) inside a leaf, else
                // host -> leaf -> spine -> leaf -> host (4 hops).
                if src / hosts_per_leaf == dst / hosts_per_leaf {
                    2
                } else {
                    4
                }
            }
            Topology::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
                ..
            } => {
                let hosts_per_group = routers_per_group * hosts_per_router;
                let (sg, sr) = (
                    src / hosts_per_group,
                    (src / hosts_per_router) % routers_per_group,
                );
                let (dg, dr) = (
                    dst / hosts_per_group,
                    (dst / hosts_per_router) % routers_per_group,
                );
                if sg == dg {
                    // host -> router [-> router] -> host.
                    if sr == dr {
                        2
                    } else {
                        3
                    }
                } else {
                    // host -> router [-> gateway] -> global -> [router ->]
                    // router -> host; gateway hops only when the source /
                    // destination router is not already the gateway.
                    let gs = Self::dragonfly_gateway(sg, dg, groups, routers_per_group);
                    let gd = Self::dragonfly_gateway(dg, sg, groups, routers_per_group);
                    3 + u32::from(sr != gs) + u32::from(dr != gd)
                }
            }
            // host -> rail switch -> host.
            Topology::MultiRail { .. } => 2,
        }
    }

    /// The router inside `group` that owns the global link toward
    /// `toward`: a group's `groups - 1` outgoing global links are
    /// assigned round-robin over its routers in order of destination
    /// group (ring offset), so every router carries an equal share.
    pub(crate) fn dragonfly_gateway(
        group: u32,
        toward: u32,
        groups: u32,
        routers_per_group: u32,
    ) -> u32 {
        debug_assert_ne!(group, toward);
        // k-th outgoing global link of `group` (k in 0..groups-1).
        let k = (toward + groups - group - 1) % groups;
        k % routers_per_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus(a: u32, b: u32) -> Topology {
        Topology::Torus2D {
            dims: (a, b),
            link: LinkSpec::torus_200gbps(),
        }
    }

    #[test]
    fn endpoint_counts() {
        assert_eq!(
            Topology::FullyConnected {
                endpoints: 4,
                link: LinkSpec::xgmi()
            }
            .endpoints(),
            4
        );
        assert_eq!(torus(16, 8).endpoints(), 128);
    }

    #[test]
    fn torus_coords_round_trip() {
        let t = torus(4, 8);
        for id in 0..32 {
            let (r, c) = t.coords(id);
            assert_eq!(r * 8 + c, id);
        }
    }

    #[test]
    fn torus_hops_use_wraparound() {
        let t = torus(4, 4);
        // (0,0) -> (3,0): wraparound makes it 1 hop, not 3.
        assert_eq!(t.hops(0, 12), 1);
        // (0,0) -> (2,2): 2 + 2 = 4 hops.
        assert_eq!(t.hops(0, 10), 4);
        assert_eq!(t.hops(5, 5), 0);
    }

    #[test]
    fn flat_topologies_are_single_hop() {
        let f = Topology::FullyConnected {
            endpoints: 4,
            link: LinkSpec::xgmi(),
        };
        assert_eq!(f.hops(0, 3), 1);
        let s = Topology::Switched {
            endpoints: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        assert_eq!(s.hops(0, 1), 1);
    }

    #[test]
    fn hops_symmetry() {
        let t = torus(5, 7);
        for s in 0..35 {
            for d in 0..35 {
                assert_eq!(t.hops(s, d), t.hops(d, s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hops_checks_bounds() {
        torus(2, 2).hops(0, 4);
    }

    #[test]
    fn torus3d_coords_and_hops() {
        let t = Topology::Torus3D {
            dims: (2, 3, 4),
            link: LinkSpec::torus_200gbps(),
        };
        assert_eq!(t.endpoints(), 24);
        for id in 0..24 {
            let (a, b, c) = t.coords3(id);
            assert_eq!(a * 12 + b * 4 + c, id);
        }
        // (0,0,0) -> (1,2,3): 1 + 1 (ring of 3 wraps) + 1 (ring of 4 wraps).
        assert_eq!(t.hops(0, 23), 3);
        assert_eq!(t.hops(7, 7), 0);
        // Symmetry.
        for s in 0..24 {
            for d in 0..24 {
                assert_eq!(t.hops(s, d), t.hops(d, s));
            }
        }
    }

    #[test]
    fn fat_tree_counts_and_hops() {
        let t = Topology::FatTree {
            leaves: 4,
            hosts_per_leaf: 4,
            spines: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        assert_eq!(t.endpoints(), 16);
        assert_eq!(t.graph_nodes(), 16 + 4 + 2);
        // Same leaf: up + down.
        assert_eq!(t.hops(0, 3), 2);
        // Cross leaf: up, to spine, to leaf, down.
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(5, 5), 0);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(t.hops(s, d), t.hops(d, s));
            }
        }
    }

    #[test]
    fn dragonfly_counts_and_hops() {
        let t = Topology::Dragonfly {
            groups: 4,
            routers_per_group: 2,
            hosts_per_router: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        assert_eq!(t.endpoints(), 16);
        assert_eq!(t.graph_nodes(), 16 + 8);
        // Same router: up + down.
        assert_eq!(t.hops(0, 1), 2);
        // Same group, different router: up + local + down.
        assert_eq!(t.hops(0, 2), 3);
        // Cross group: at least up + global + down, plus up to two
        // local detours through the gateways.
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s / 4 != d / 4 {
                    let h = t.hops(s, d);
                    assert!((3..=5).contains(&h), "cross-group hops {h}");
                }
            }
        }
    }

    #[test]
    fn dragonfly_gateways_balance_over_routers() {
        // With 5 groups and 2 routers/group the 4 outgoing global links
        // of each group split 2/2 over its routers.
        for g in 0..5u32 {
            let mut per_router = [0u32; 2];
            for toward in 0..5u32 {
                if toward != g {
                    per_router[Topology::dragonfly_gateway(g, toward, 5, 2) as usize] += 1;
                }
            }
            assert_eq!(per_router, [2, 2]);
        }
    }

    #[test]
    fn multirail_counts_and_hops() {
        let t = Topology::MultiRail {
            endpoints: 8,
            rails: 4,
            link: LinkSpec::infiniband_20gbs(),
        };
        assert_eq!(t.endpoints(), 8);
        assert_eq!(t.graph_nodes(), 12);
        assert_eq!(t.hops(0, 7), 2);
        assert_eq!(t.hops(3, 3), 0);
    }
}
