//! Shared deterministic routing for both fabric simulators.
//!
//! The packet-level model ([`crate::fabric`]) and the flow-level model
//! ([`crate::flow`]) must traverse *identical* paths for the differential
//! suite to compare their completion times meaningfully, so every routing
//! decision lives here:
//!
//! * [`candidates`] — the productive next hops from any graph node toward
//!   a destination host, written into a caller-owned fixed-size
//!   [`HopBuf`] (no per-hop heap allocation; at most one candidate per
//!   torus dimension).
//! * [`for_each_link`] — walks the deterministic (DOR / ECMP-hashed)
//!   path from `src` to `dst` and emits one *dense* link id per hop.
//!   Dense ids index flat arrays in the flow engine; a `HashMap` per
//!   lookup would dominate its runtime at 8k nodes.
//! * `tag_hash` — the per-message hash (splitmix64) behind ECMP spine
//!   selection and rail selection. It keys on the tag alone because
//!   packet-sim chunks carry only `(tag, dst)`; both sims therefore make
//!   the same choice by construction.
//!
//! Adaptive routing remains a packet-sim-only concept (it consults live
//! queue depths): [`candidates`] exposes the choice set, and the flow
//! model always takes the deterministic first candidate's path.

use crate::topology::Topology;

/// Upper bound on simultaneous productive next hops: one per dimension
/// of the largest torus (3D).
const MAX_CANDIDATES: usize = 3;

/// Fixed-capacity buffer of candidate next hops — the `SmallVec`-style
/// replacement for the `Vec<u32>` the router used to allocate per hop.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopBuf {
    buf: [u32; MAX_CANDIDATES],
    len: u8,
}

impl HopBuf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    pub fn push(&mut self, node: u32) {
        assert!((self.len as usize) < MAX_CANDIDATES, "HopBuf overflow");
        self.buf[self.len as usize] = node;
        self.len += 1;
    }

    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len as usize]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First candidate — the deterministic (DOR / hashed) choice.
    #[inline]
    pub fn first(&self) -> u32 {
        assert!(self.len > 0, "no productive hop");
        self.buf[0]
    }
}

/// splitmix64: the deterministic per-message hash used for ECMP spine
/// and rail selection. Depends on the tag only (chunks don't carry their
/// source), so the packet and flow models pick identical paths.
#[inline]
fn tag_hash(mut tag: u64) -> u64 {
    fcc_sim::splitmix64(&mut tag)
}

#[inline]
fn torus_step(x: u32, tx: u32, k: u32) -> u32 {
    let fwd = (tx + k - x) % k;
    if fwd <= k - fwd {
        (x + 1) % k
    } else {
        (x + k - 1) % k
    }
}

/// Productive next hops from graph node `node` toward destination host
/// `dst`, written into `out` (cleared first). Tori list one candidate
/// per unfinished dimension in DOR order (innermost dimension first);
/// every other topology is single-path, so exactly one candidate.
///
/// `node` may be an interior switch/router id
/// (`endpoints()..graph_nodes()`) on the switched fabrics.
pub fn candidates(topo: &Topology, node: u32, dst: u32, tag: u64, out: &mut HopBuf) {
    out.clear();
    match *topo {
        Topology::FullyConnected { .. } | Topology::Switched { .. } => out.push(dst),
        Topology::Torus2D { dims, .. } => {
            let (r, c) = topo.coords(node);
            let (dr, dc) = topo.coords(dst);
            if c != dc {
                out.push(r * dims.1 + torus_step(c, dc, dims.1));
            }
            if r != dr {
                out.push(torus_step(r, dr, dims.0) * dims.1 + c);
            }
        }
        Topology::Torus3D { dims, .. } => {
            let (a, b, c) = topo.coords3(node);
            let (da, db, dc) = topo.coords3(dst);
            let plane = dims.1 * dims.2;
            if c != dc {
                out.push(a * plane + b * dims.2 + torus_step(c, dc, dims.2));
            }
            if b != db {
                out.push(a * plane + torus_step(b, db, dims.1) * dims.2 + c);
            }
            if a != da {
                out.push(torus_step(a, da, dims.0) * plane + b * dims.2 + c);
            }
        }
        Topology::FatTree {
            leaves,
            hosts_per_leaf,
            spines,
            ..
        } => {
            let hosts = leaves * hosts_per_leaf;
            let dst_leaf = dst / hosts_per_leaf;
            if node < hosts {
                // Host: up to its leaf.
                out.push(hosts + node / hosts_per_leaf);
            } else if node < hosts + leaves {
                let leaf = node - hosts;
                if leaf == dst_leaf {
                    out.push(dst);
                } else {
                    // ECMP: hashed spine.
                    out.push(hosts + leaves + (tag_hash(tag) % spines as u64) as u32);
                }
            } else {
                // Spine: down to the destination's leaf.
                out.push(hosts + dst_leaf);
            }
        }
        Topology::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
            ..
        } => {
            let hosts = groups * routers_per_group * hosts_per_router;
            let dg = dst / (routers_per_group * hosts_per_router);
            let dr = (dst / hosts_per_router) % routers_per_group;
            if node < hosts {
                // Host: up to its router.
                out.push(hosts + node / hosts_per_router);
            } else {
                let r = node - hosts;
                let (rg, ri) = (r / routers_per_group, r % routers_per_group);
                if rg == dg {
                    if ri == dr {
                        out.push(dst);
                    } else {
                        out.push(hosts + rg * routers_per_group + dr);
                    }
                } else {
                    let gs = Topology::dragonfly_gateway(rg, dg, groups, routers_per_group);
                    if ri == gs {
                        // Take the global link to the peer gateway.
                        let gd = Topology::dragonfly_gateway(dg, rg, groups, routers_per_group);
                        out.push(hosts + dg * routers_per_group + gd);
                    } else {
                        // Local detour to this group's gateway.
                        out.push(hosts + rg * routers_per_group + gs);
                    }
                }
            }
        }
        Topology::MultiRail {
            endpoints, rails, ..
        } => {
            if node < endpoints {
                out.push(endpoints + (tag_hash(tag) % rails as u64) as u32);
            } else {
                out.push(dst);
            }
        }
    }
}

/// The deterministic next hop (DOR on tori, the single path elsewhere).
pub fn next_hop(topo: &Topology, node: u32, dst: u32, tag: u64) -> u32 {
    let mut buf = HopBuf::new();
    candidates(topo, node, dst, tag, &mut buf);
    buf.first()
}

/// Number of dense directed-link ids for `topo`. Every id emitted by
/// [`for_each_link`] is `< link_count`; every link has the uniform
/// capacity `topo.link().bandwidth`.
pub fn link_count(topo: &Topology) -> u32 {
    match *topo {
        // One dedicated channel per ordered pair (matches the packet
        // sim's `(src, dst)` key).
        Topology::FullyConnected { endpoints, .. } | Topology::Switched { endpoints, .. } => {
            endpoints * endpoints
        }
        Topology::Torus2D { dims, .. } => dims.0 * dims.1 * 4,
        Topology::Torus3D { dims, .. } => dims.0 * dims.1 * dims.2 * 6,
        Topology::FatTree {
            leaves,
            hosts_per_leaf,
            spines,
            ..
        } => {
            let hosts = leaves * hosts_per_leaf;
            // host-up + leaf-down + leaf->spine + spine->leaf.
            2 * hosts + 2 * leaves * spines
        }
        Topology::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
            ..
        } => {
            let hosts = groups * routers_per_group * hosts_per_router;
            // host-up + router-down + local all-to-all + global pairs
            // (diagonal entries exist but are never emitted).
            2 * hosts + groups * routers_per_group * routers_per_group + groups * groups
        }
        Topology::MultiRail {
            endpoints, rails, ..
        } => 2 * endpoints * rails,
    }
}

/// Walks the deterministic path of message `tag` from host `src` to host
/// `dst` and calls `f(link_id)` once per traversed directed link, in
/// path order. The number of calls equals `topo.hops(src, dst)`.
///
/// This is the flow engine's hot loop: at 8k nodes an all-to-all makes
/// ~3 billion of these emissions per rate refresh pass, so each arm is
/// straight index arithmetic — no hashing, no allocation.
#[inline]
pub fn for_each_link<F: FnMut(u32)>(topo: &Topology, src: u32, dst: u32, tag: u64, mut f: F) {
    if src == dst {
        return;
    }
    match *topo {
        Topology::FullyConnected { endpoints, .. } | Topology::Switched { endpoints, .. } => {
            f(src * endpoints + dst);
        }
        Topology::Torus2D { dims, .. } => {
            let (k0, k1) = dims;
            let (mut r, mut c) = (src / k1, src % k1);
            let (dr, dc) = (dst / k1, dst % k1);
            while c != dc {
                let next = torus_step(c, dc, k1);
                let dir = if next == (c + 1) % k1 { 0 } else { 1 };
                f((r * k1 + c) * 4 + dir);
                c = next;
            }
            while r != dr {
                let next = torus_step(r, dr, k0);
                let dir = if next == (r + 1) % k0 { 2 } else { 3 };
                f((r * k1 + c) * 4 + dir);
                r = next;
            }
        }
        Topology::Torus3D { dims, .. } => {
            let (k0, k1, k2) = (dims.0, dims.1, dims.2);
            let plane = k1 * k2;
            let (mut a, mut b, mut c) = (src / plane, (src % plane) / k2, src % k2);
            let (da, db, dc) = (dst / plane, (dst % plane) / k2, dst % k2);
            while c != dc {
                let next = torus_step(c, dc, k2);
                let dir = if next == (c + 1) % k2 { 0 } else { 1 };
                f((a * plane + b * k2 + c) * 6 + dir);
                c = next;
            }
            while b != db {
                let next = torus_step(b, db, k1);
                let dir = if next == (b + 1) % k1 { 2 } else { 3 };
                f((a * plane + b * k2 + c) * 6 + dir);
                b = next;
            }
            while a != da {
                let next = torus_step(a, da, k0);
                let dir = if next == (a + 1) % k0 { 4 } else { 5 };
                f((a * plane + b * k2 + c) * 6 + dir);
                a = next;
            }
        }
        Topology::FatTree {
            leaves,
            hosts_per_leaf,
            spines,
            ..
        } => {
            let hosts = leaves * hosts_per_leaf;
            let (sl, dl) = (src / hosts_per_leaf, dst / hosts_per_leaf);
            f(src); // host up
            if sl != dl {
                let spine = (tag_hash(tag) % spines as u64) as u32;
                f(2 * hosts + sl * spines + spine); // leaf -> spine
                f(2 * hosts + leaves * spines + spine * leaves + dl); // spine -> leaf
            }
            f(hosts + dst); // leaf down
        }
        Topology::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
            ..
        } => {
            let a = routers_per_group;
            let hosts = groups * a * hosts_per_router;
            let local_base = 2 * hosts;
            let global_base = local_base + groups * a * a;
            let (sg, sr) = (src / (a * hosts_per_router), (src / hosts_per_router) % a);
            let (dg, dr) = (dst / (a * hosts_per_router), (dst / hosts_per_router) % a);
            f(src); // host up
            if sg == dg {
                if sr != dr {
                    f(local_base + sg * a * a + sr * a + dr);
                }
            } else {
                let gs = Topology::dragonfly_gateway(sg, dg, groups, a);
                let gd = Topology::dragonfly_gateway(dg, sg, groups, a);
                if sr != gs {
                    f(local_base + sg * a * a + sr * a + gs);
                }
                f(global_base + sg * groups + dg); // global link
                if gd != dr {
                    f(local_base + dg * a * a + gd * a + dr);
                }
            }
            f(hosts + dst); // router down
        }
        Topology::MultiRail {
            endpoints, rails, ..
        } => {
            let rail = (tag_hash(tag) % rails as u64) as u32;
            f(src * rails + rail);
            f(endpoints * rails + dst * rails + rail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    fn all_topos() -> Vec<Topology> {
        let link = LinkSpec::infiniband_20gbs();
        vec![
            Topology::FullyConnected { endpoints: 5, link },
            Topology::Switched { endpoints: 6, link },
            Topology::Torus2D {
                dims: (4, 5),
                link: LinkSpec::torus_200gbps(),
            },
            Topology::Torus3D {
                dims: (2, 3, 4),
                link: LinkSpec::torus_200gbps(),
            },
            Topology::FatTree {
                leaves: 4,
                hosts_per_leaf: 3,
                spines: 3,
                link,
            },
            Topology::Dragonfly {
                groups: 4,
                routers_per_group: 3,
                hosts_per_router: 2,
                link,
            },
            Topology::MultiRail {
                endpoints: 9,
                rails: 3,
                link,
            },
        ]
    }

    #[test]
    fn next_hop_walk_reaches_dst_in_hops_steps() {
        for topo in all_topos() {
            let n = topo.endpoints();
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    for tag in [0u64, 7, 123_456] {
                        let mut node = src;
                        let mut steps = 0u32;
                        while node != dst {
                            node = next_hop(&topo, node, dst, tag);
                            steps += 1;
                            assert!(steps <= 16, "routing loop in {topo:?} {src}->{dst}");
                        }
                        assert_eq!(
                            steps,
                            topo.hops(src, dst),
                            "{topo:?} {src}->{dst} tag {tag}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn for_each_link_emits_hops_many_dense_ids() {
        for topo in all_topos() {
            let n = topo.endpoints();
            let cap = link_count(&topo);
            for src in 0..n {
                for dst in 0..n {
                    for tag in [0u64, 9, 77_777] {
                        let mut ids = Vec::new();
                        for_each_link(&topo, src, dst, tag, |id| ids.push(id));
                        if src == dst {
                            assert!(ids.is_empty());
                            continue;
                        }
                        assert_eq!(
                            ids.len() as u32,
                            topo.hops(src, dst),
                            "{topo:?} {src}->{dst}"
                        );
                        for &id in &ids {
                            assert!(id < cap, "{topo:?} link id {id} >= {cap}");
                        }
                        // A minimal path never reuses a link.
                        let mut sorted = ids.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        assert_eq!(sorted.len(), ids.len(), "{topo:?} duplicate link");
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_physical_channels_have_distinct_ids() {
        // Walk every (src, dst, tag) path emitting (prev_node, next_node)
        // via the next-hop walker alongside link ids via for_each_link;
        // the id -> directed-edge mapping must be a function both ways
        // for the flow model's per-link bookkeeping to mirror the packet
        // sim's per-(from, to) queues.
        use std::collections::HashMap;
        for topo in all_topos() {
            let n = topo.endpoints();
            let mut id_to_edge: HashMap<u32, (u32, u32)> = HashMap::new();
            let mut edge_to_id: HashMap<(u32, u32), u32> = HashMap::new();
            for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    for tag in [0u64, 3, 991] {
                        let mut ids = Vec::new();
                        for_each_link(&topo, src, dst, tag, |id| ids.push(id));
                        let mut node = src;
                        for &id in &ids {
                            let next = next_hop(&topo, node, dst, tag);
                            let edge = (node, next);
                            if let Some(&prev) = id_to_edge.get(&id) {
                                assert_eq!(prev, edge, "{topo:?} id {id} reused");
                            } else {
                                id_to_edge.insert(id, edge);
                            }
                            if let Some(&prev) = edge_to_id.get(&edge) {
                                assert_eq!(prev, id, "{topo:?} edge {edge:?} has two ids");
                            } else {
                                edge_to_id.insert(edge, id);
                            }
                            node = next;
                        }
                        assert_eq!(node, dst);
                    }
                }
            }
        }
    }

    #[test]
    fn tag_hash_spreads_rails() {
        // Not a statistical test — just that different tags do select
        // different spines/rails (ECMP actually spreads).
        let picks: std::collections::HashSet<u64> = (0..64u64).map(|t| tag_hash(t) % 4).collect();
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn hopbuf_basics() {
        let mut b = HopBuf::new();
        assert!(b.is_empty());
        b.push(3);
        b.push(9);
        assert_eq!(b.as_slice(), &[3, 9]);
        assert_eq!(b.first(), 3);
        assert_eq!(b.len(), 2);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "HopBuf overflow")]
    fn hopbuf_overflow_panics() {
        let mut b = HopBuf::new();
        for i in 0..4 {
            b.push(i);
        }
    }
}
