//! Packet-level fabric simulation.
//!
//! The analytic collective models in [`crate::analytic`] price uniform
//! traffic with closed-form peak-link-load arguments. This module is the
//! ground truth they are validated against: a discrete-event,
//! store-and-forward simulation in which messages are split into chunks,
//! routed hop-by-hop (dimension-ordered on tori), and serialized on each
//! link's per-direction transmit queue.
//!
//! It is deliberately message/chunk-granular rather than flit-granular:
//! the paper's phenomena (bandwidth sharing, message-rate limits, queueing
//! behind late bursts) live at that granularity, and a flit model would
//! buy nothing but runtime.

use std::collections::HashMap;

use fcc_sim::{Engine, Model, Scheduler, SimTime};

use crate::routes::{self, HopBuf};
use crate::topology::Topology;

/// Routing policy for torus traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Dimension-ordered (column, then row): deterministic, deadlock-free,
    /// blind to congestion.
    #[default]
    Dor,
    /// Minimal adaptive: among the productive next hops (shortest
    /// direction in each unfinished dimension), take the link that frees
    /// up first.
    Adaptive,
}

/// Store-and-forward chunk size. 16 KiB balances fidelity (pipelining
/// across hops) against event count.
pub const CHUNK_BYTES: u64 = 16 * 1024;

/// A message injected into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub at: SimTime,
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
    pub tag: u64,
}

/// A completed message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricDelivery {
    pub tag: u64,
    pub src: u32,
    pub dst: u32,
    /// When the last chunk arrived at the destination.
    pub arrival: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    tag: u64,
    dst: u32,
    bytes: u64,
}

#[derive(Debug)]
enum Ev {
    /// A chunk is ready to leave `node` toward its destination.
    Depart { node: u32, chunk: Chunk },
    /// A chunk arrived at `node`.
    Arrive { node: u32, chunk: Chunk },
}

struct FabricModel {
    topo: Topology,
    routing: Routing,
    /// Per directed link `(from, to)`: transmit engine busy-until.
    link_busy: HashMap<(u32, u32), SimTime>,
    /// Per message tag: chunks not yet delivered.
    outstanding: HashMap<u64, (u32, Injection)>,
    deliveries: Vec<FabricDelivery>,
}

impl FabricModel {
    /// Next hop from `node` toward `dst` under the configured routing.
    /// The productive-hop set comes from the shared router
    /// ([`routes::candidates`]) via a stack [`HopBuf`] — no per-hop heap
    /// allocation.
    fn next_hop(&self, node: u32, dst: u32, tag: u64) -> u32 {
        let mut buf = HopBuf::new();
        routes::candidates(&self.topo, node, dst, tag, &mut buf);
        match self.routing {
            // DOR: the column move when one exists (candidates lists it
            // first), else the row move.
            Routing::Dor => buf.first(),
            // Adaptive: the productive link that frees up first; ties go
            // to DOR order for determinism.
            Routing::Adaptive => buf
                .as_slice()
                .iter()
                .copied()
                .min_by_key(|&next| {
                    self.link_busy
                        .get(&(node, next))
                        .copied()
                        .unwrap_or(SimTime::ZERO)
                })
                .expect("at least one productive hop"),
        }
    }
}

impl Model for FabricModel {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Depart { node, chunk } => {
                let next = self.next_hop(node, chunk.dst, chunk.tag);
                let link = self.topo.link();
                let busy = self.link_busy.entry((node, next)).or_insert(SimTime::ZERO);
                let start = sched.now().max(*busy);
                let finish = start + link.occupancy(chunk.bytes);
                *busy = finish;
                sched.schedule_at(finish + link.latency, Ev::Arrive { node: next, chunk });
            }
            Ev::Arrive { node, chunk } => {
                if node == chunk.dst {
                    let entry = self
                        .outstanding
                        .get_mut(&chunk.tag)
                        .expect("unknown message tag");
                    entry.0 -= 1;
                    if entry.0 == 0 {
                        let inj = entry.1;
                        self.outstanding.remove(&chunk.tag);
                        self.deliveries.push(FabricDelivery {
                            tag: chunk.tag,
                            src: inj.src,
                            dst: inj.dst,
                            arrival: sched.now(),
                        });
                    }
                } else {
                    sched.schedule_now(Ev::Depart { node, chunk });
                }
            }
        }
    }
}

/// A fabric simulator: runs a batch of injections to completion and
/// reports per-message deliveries sorted by tag.
///
/// Two implementations share this trait — the chunk-granular
/// store-and-forward [`PacketFabric`] (ground truth, event count scales
/// with `chunks x hops`) and the flow-level [`crate::flow::FlowFabric`]
/// (fair-sharing fluid model, event count scales with flow
/// arrivals/completions) — so callers and the differential conformance
/// suite can swap them freely.
pub trait FabricSim {
    /// Simulator name for diagnostics.
    fn name(&self) -> &'static str;

    /// Runs `injections` on `topo` and returns deliveries sorted by tag.
    fn run(&self, topo: &Topology, injections: &[Injection]) -> Vec<FabricDelivery>;

    /// Completion time of a uniform all-to-all (every ordered pair sends
    /// `bytes_per_pair` at t=0).
    fn uniform_alltoall(&self, topo: &Topology, bytes_per_pair: u64) -> SimTime {
        let n = topo.endpoints();
        if n < 2 || bytes_per_pair == 0 {
            return SimTime::ZERO;
        }
        let mut injections = Vec::with_capacity(n as usize * (n as usize - 1));
        let mut tag = 0u64;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    injections.push(Injection {
                        at: SimTime::ZERO,
                        src,
                        dst,
                        bytes: bytes_per_pair,
                        tag,
                    });
                    tag += 1;
                }
            }
        }
        self.run(topo, &injections)
            .iter()
            .map(|d| d.arrival)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// The chunk-granular packet-level simulator behind [`simulate`],
/// as a [`FabricSim`] implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketFabric {
    pub routing: Routing,
}

impl FabricSim for PacketFabric {
    fn name(&self) -> &'static str {
        "packet"
    }

    fn run(&self, topo: &Topology, injections: &[Injection]) -> Vec<FabricDelivery> {
        simulate_with_routing(topo, injections, self.routing)
    }
}

/// Runs a set of injections to completion and returns their deliveries
/// (sorted by tag). Tags must be unique.
///
/// # Panics
/// Panics on duplicate tags, out-of-range endpoints, or `src == dst`
/// zero-work sends (deliver those yourself).
pub fn simulate(topo: &Topology, injections: &[Injection]) -> Vec<FabricDelivery> {
    simulate_with_routing(topo, injections, Routing::Dor)
}

/// [`simulate`] with an explicit routing policy.
fn simulate_with_routing(
    topo: &Topology,
    injections: &[Injection],
    routing: Routing,
) -> Vec<FabricDelivery> {
    let n = topo.endpoints();
    let mut model = FabricModel {
        topo: topo.clone(),
        routing,
        link_busy: HashMap::new(),
        outstanding: HashMap::new(),
        deliveries: Vec::with_capacity(injections.len()),
    };
    let mut engine = Engine::new();
    for inj in injections {
        assert!(inj.src < n && inj.dst < n, "endpoint out of range");
        assert_ne!(inj.src, inj.dst, "self-sends never enter the fabric");
        let chunks = inj.bytes.div_ceil(CHUNK_BYTES).max(1);
        let prev = model.outstanding.insert(inj.tag, (chunks as u32, *inj));
        assert!(prev.is_none(), "duplicate tag {}", inj.tag);
        for c in 0..chunks {
            let bytes = if c + 1 == chunks {
                inj.bytes - c * CHUNK_BYTES
            } else {
                CHUNK_BYTES
            };
            engine.scheduler().schedule_at(
                inj.at,
                Ev::Depart {
                    node: inj.src,
                    chunk: Chunk {
                        tag: inj.tag,
                        dst: inj.dst,
                        bytes,
                    },
                },
            );
        }
    }
    engine.run(&mut model);
    let mut out = model.deliveries;
    out.sort_by_key(|d| d.tag);
    out
}

/// Simulates a uniform all-to-all (every ordered pair exchanges
/// `bytes_per_pair`, all injected at t=0) and returns its completion time.
pub fn uniform_alltoall(topo: &Topology, bytes_per_pair: u64) -> SimTime {
    let n = topo.endpoints();
    if n < 2 || bytes_per_pair == 0 {
        return SimTime::ZERO;
    }
    let mut injections = Vec::new();
    let mut tag = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                injections.push(Injection {
                    at: SimTime::ZERO,
                    src,
                    dst,
                    bytes: bytes_per_pair,
                    tag,
                });
                tag += 1;
            }
        }
    }
    simulate(topo, &injections)
        .iter()
        .map(|d| d.arrival)
        .max()
        .unwrap_or(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::link::LinkSpec;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn torus(a: u32, b: u32) -> Topology {
        Topology::Torus2D {
            dims: (a, b),
            link: LinkSpec::torus_200gbps(),
        }
    }

    #[test]
    fn single_chunk_single_hop_timing() {
        let topo = Topology::Switched {
            endpoints: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        let d = simulate(
            &topo,
            &[Injection {
                at: ns(0),
                src: 0,
                dst: 1,
                bytes: 16 * 1024,
                tag: 0,
            }],
        );
        // occupancy(16KiB)=819.2ns -> 819 + 1300 latency.
        assert_eq!(d[0].arrival, ns(819 + 1300));
    }

    #[test]
    fn chunking_pipelines_across_hops() {
        // On a 2-hop path, a chunked message overlaps hop 1 of chunk k+1
        // with hop 2 of chunk k: total < serial store-and-forward of the
        // whole message per hop.
        let topo = torus(4, 1); // ring of 4; 0 -> 2 is two hops
        let bytes = 8 * CHUNK_BYTES;
        let d = simulate(
            &topo,
            &[Injection {
                at: ns(0),
                src: 0,
                dst: 2,
                bytes,
                tag: 0,
            }],
        );
        let link = topo.link();
        let serial_two_hops =
            SimTime::from_nanos(2 * (link.occupancy(bytes).as_nanos() + link.latency.as_nanos()));
        assert!(d[0].arrival < serial_two_hops);
        // But it can't beat one hop's serialization + per-hop latency.
        let lower = link.occupancy(bytes) + link.latency + link.latency;
        assert!(d[0].arrival >= lower);
    }

    #[test]
    fn contending_messages_serialize_on_shared_link() {
        let topo = Topology::Switched {
            endpoints: 3,
            link: LinkSpec::infiniband_20gbs(),
        };
        // Two messages out of node 0 share the (0, dst) pattern only if
        // same next hop; in Switched next hop is dst, so use same dst.
        let d = simulate(
            &topo,
            &[
                Injection {
                    at: ns(0),
                    src: 0,
                    dst: 1,
                    bytes: 16 * 1024,
                    tag: 0,
                },
                Injection {
                    at: ns(0),
                    src: 0,
                    dst: 1,
                    bytes: 16 * 1024,
                    tag: 1,
                },
            ],
        );
        assert!(d[1].arrival >= d[0].arrival + topo.link().occupancy(16 * 1024));
    }

    #[test]
    fn disjoint_links_do_not_contend() {
        let topo = Topology::FullyConnected {
            endpoints: 4,
            link: LinkSpec::xgmi(),
        };
        let d = simulate(
            &topo,
            &[
                Injection {
                    at: ns(0),
                    src: 0,
                    dst: 1,
                    bytes: 64 * 1024,
                    tag: 0,
                },
                Injection {
                    at: ns(0),
                    src: 2,
                    dst: 3,
                    bytes: 64 * 1024,
                    tag: 1,
                },
            ],
        );
        assert_eq!(d[0].arrival, d[1].arrival);
    }

    #[test]
    fn dor_routing_hop_counts() {
        let topo = torus(4, 4);
        let model = FabricModel {
            topo: topo.clone(),
            routing: Routing::Dor,
            link_busy: HashMap::new(),
            outstanding: HashMap::new(),
            deliveries: vec![],
        };
        // Walk 0 -> 10 = (0,0) -> (2,2): column first.
        let mut node = 0u32;
        let mut hops = 0;
        while node != 10 {
            node = model.next_hop(node, 10, 0);
            hops += 1;
            assert!(hops <= 8, "routing loop");
        }
        assert_eq!(hops, topo.hops(0, 10));
    }

    #[test]
    fn wraparound_is_used_when_shorter() {
        let topo = torus(1, 8);
        let model = FabricModel {
            topo: topo.clone(),
            routing: Routing::Dor,
            link_busy: HashMap::new(),
            outstanding: HashMap::new(),
            deliveries: vec![],
        };
        // 0 -> 7 on a ring of 8: one hop backwards.
        assert_eq!(model.next_hop(0, 7, 0), 7);
    }

    // `uniform_alltoall_matches_analytic_model_shape` was promoted into
    // the seeded proptest `analytic_tracks_packet_sim_on_random_tori` in
    // tests/fabric_prop.rs, which sweeps random torus shapes and byte
    // sizes instead of two fixed points.
    #[test]
    fn uniform_alltoall_scales_with_bytes() {
        let topo = torus(4, 4);
        let small = uniform_alltoall(&topo, 32 * 1024);
        let large = uniform_alltoall(&topo, 256 * 1024);
        assert!(large > small);
        let ana = analytic::alltoall(&topo, 32 * 1024);
        assert!(ana > ns(0));
    }

    #[test]
    fn adaptive_routing_helps_under_hotspot() {
        // Many flows whose DOR paths all cross one column link; adaptive
        // routing spreads them over the row dimension first when the
        // column link is backed up.
        let topo = torus(4, 4);
        let mut injections = Vec::new();
        // All of column 0 sends to column 2 of a different row: DOR sends
        // everything through the column links first.
        for r in 0..4u32 {
            injections.push(Injection {
                at: ns(0),
                src: r * 4,
                dst: ((r + 1) % 4) * 4 + 2,
                bytes: 256 * 1024,
                tag: r as u64,
            });
        }
        let dor = simulate_with_routing(&topo, &injections, Routing::Dor)
            .iter()
            .map(|d| d.arrival)
            .max()
            .expect("fabric delivers one outcome per injection, and injections is non-empty");
        let adaptive = simulate_with_routing(&topo, &injections, Routing::Adaptive)
            .iter()
            .map(|d| d.arrival)
            .max()
            .expect("fabric delivers one outcome per injection, and injections is non-empty");
        assert!(
            adaptive <= dor,
            "adaptive {adaptive} should not lose to DOR {dor}"
        );
    }

    #[test]
    fn adaptive_routing_still_delivers_everything() {
        let topo = torus(3, 5);
        let n = topo.endpoints();
        let mut injections = Vec::new();
        let mut tag = 0;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    injections.push(Injection {
                        at: ns(0),
                        src,
                        dst,
                        bytes: 8192,
                        tag,
                    });
                    tag += 1;
                }
            }
        }
        let d = simulate_with_routing(&topo, &injections, Routing::Adaptive);
        assert_eq!(d.len(), injections.len());
    }

    #[test]
    fn torus3d_uniform_alltoall_runs() {
        let t3 = Topology::Torus3D {
            dims: (2, 2, 4),
            link: LinkSpec::torus_200gbps(),
        };
        let done = uniform_alltoall(&t3, 8 * 1024);
        assert!(done > ns(0));
        // Tracks the analytic 3D model loosely.
        let ana = analytic::alltoall(&t3, 8 * 1024);
        let ratio = done.as_nanos_f64() / ana.as_nanos_f64();
        assert!((0.3..=3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deliveries_cover_all_injections() {
        let topo = torus(4, 4);
        let n = topo.endpoints();
        let mut injections = Vec::new();
        let mut tag = 0;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    injections.push(Injection {
                        at: ns((src * 100) as u64),
                        src,
                        dst,
                        bytes: 4096,
                        tag,
                    });
                    tag += 1;
                }
            }
        }
        let d = simulate(&topo, &injections);
        assert_eq!(d.len(), injections.len());
        // Tags sorted and unique.
        for (i, del) in d.iter().enumerate() {
            assert_eq!(del.tag, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate tag")]
    fn duplicate_tags_rejected() {
        let topo = torus(2, 2);
        simulate(
            &topo,
            &[
                Injection {
                    at: ns(0),
                    src: 0,
                    dst: 1,
                    bytes: 8,
                    tag: 5,
                },
                Injection {
                    at: ns(0),
                    src: 1,
                    dst: 2,
                    bytes: 8,
                    tag: 5,
                },
            ],
        );
    }
}
