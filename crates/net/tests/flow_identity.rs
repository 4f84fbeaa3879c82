//! The flow engine's local refresh against its full refresh.
//!
//! `run_checked` re-rates only the flows an event touches; `run_traced`
//! re-rates every live flow at every event. Rates are pure functions of
//! the per-link counts, so the two must agree bit for bit on every
//! delivery and every `FlowStats` field but `rerated`. A pinned digest
//! holds a skewed 64-node batch on two fabrics to the deliveries and
//! counts the engine produced before the local refresh existed, and a
//! locality check holds the local refresh to a fraction of the full
//! refresh's re-rating work.

use proptest::prelude::*;

use fcc_net::fabric::Injection;
use fcc_net::{presets, FabricDelivery, FlowFabric, FlowStats, LinkSpec, Topology};
use fcc_sim::SimTime;

/// Small deterministic generator for the batches.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// One pair in eight carries 16x `bytes`, the rest half; pair `(s, d)`
/// enters in wave `(s + d) % 8`, `gap_ns` apart — the MoE-like pattern
/// that makes every arrival and completion its own event.
fn skewed(pairs: &[(u32, u32)], bytes: u64, gap_ns: u64, seed: u64) -> Vec<Injection> {
    let mut rng = Lcg(seed);
    pairs
        .iter()
        .enumerate()
        .map(|(tag, &(src, dst))| Injection {
            at: SimTime::from_nanos(gap_ns * ((src + dst) % 8) as u64),
            src,
            dst,
            bytes: if rng.next().is_multiple_of(8) {
                bytes * 16
            } else {
                bytes / 2
            },
            tag: tag as u64,
        })
        .collect()
}

fn all_pairs(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect()
}

/// Deliveries and stats of both refreshes, asserted equal but `rerated`.
fn both(topo: &Topology, batch: &[Injection]) -> (Vec<FabricDelivery>, FlowStats, FlowStats) {
    let (local, local_stats) = FlowFabric::new().run_checked(topo, batch).expect("clean");
    let (full, full_stats, _) = FlowFabric::new().run_traced(topo, batch).expect("clean");
    assert_eq!(local, full, "{topo:?}: deliveries differ");
    assert_eq!(
        FlowStats {
            rerated: 0,
            ..local_stats
        },
        FlowStats {
            rerated: 0,
            ..full_stats
        },
        "{topo:?}: stats differ"
    );
    (local, local_stats, full_stats)
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn shape(kind: u32, a: u32, b: u32) -> Topology {
    let (ib, torus) = (LinkSpec::infiniband_20gbs(), LinkSpec::torus_200gbps());
    match kind {
        0 => Topology::FullyConnected {
            endpoints: a + 1,
            link: LinkSpec::xgmi(),
        },
        1 => Topology::Switched {
            endpoints: a + 1,
            link: ib,
        },
        2 => Topology::Torus2D {
            dims: (a, b),
            link: torus,
        },
        3 => Topology::Torus3D {
            dims: (a.min(4), b.min(4), 2),
            link: torus,
        },
        4 => Topology::FatTree {
            leaves: a,
            hosts_per_leaf: b,
            spines: (a / 2).max(1),
            link: ib,
        },
        5 => Topology::Dragonfly {
            groups: a.min(4),
            routers_per_group: b.min(4),
            hosts_per_router: 2,
            link: ib,
        },
        _ => Topology::MultiRail {
            endpoints: a * b,
            rails: 1 + a % 3,
            link: ib,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(140))]

    /// Random wave-staggered, size-skewed batches on all seven fabric
    /// shapes at 2-64 nodes.
    #[test]
    fn local_refresh_matches_full_refresh(
        kind in 0u32..7,
        a in 1u32..=8,
        b in 1u32..=8,
        flows in 1usize..160,
        gap_ns in 0u64..40_000,
        seed in 0u64..1_000_000,
    ) {
        let topo = shape(kind, a, b);
        let n = topo.endpoints();
        prop_assume!((2..=64).contains(&n));
        let mut rng = Lcg(seed);
        let pairs: Vec<(u32, u32)> = (0..flows)
            .map(|_| {
                let src = (rng.next() % n as u64) as u32;
                (src, (src + 1 + (rng.next() % (n - 1) as u64) as u32) % n)
            })
            .collect();
        let batch = skewed(&pairs, 1 + rng.next() % 96_000, gap_ns, seed);
        both(&topo, &batch);
    }
}

/// The skewed All-to-All on the 64-node torus and fat-tree presets,
/// digested over every delivery and the event counts. The constant is
/// the engine's output before the local refresh: a change here is a
/// change in the fabric's numbers, not in its speed.
#[test]
fn skewed_all_to_all_digest_is_pinned() {
    let mut words = Vec::new();
    for topo in [presets::torus_scaleout(64), presets::fat_tree_scaleout(64)] {
        let batch = skewed(&all_pairs(64), 141_312, 50_000, 64);
        let (deliveries, stats, _) = both(&topo, &batch);
        for d in &deliveries {
            words.extend([d.tag, d.src as u64, d.dst as u64, d.arrival.as_nanos()]);
        }
        words.extend([stats.events, stats.refreshes, stats.max_active as u64]);
    }
    assert_eq!(fnv(words), PINNED_DIGEST);
}

const PINNED_DIGEST: u64 = 0x896e_fad2_854f_8dd2;

/// On the skewed torus batch a typical event changes the counts on links
/// that few live flows cross, so the local refresh re-rates a small
/// fraction of what the full refresh does (every live flow per event).
#[test]
fn skewed_events_rerate_few_flows() {
    let topo = presets::torus_scaleout(64);
    let batch = skewed(&all_pairs(64), 141_312, 50_000, 64);
    let (_, local, full) = both(&topo, &batch);
    assert!(
        local.rerated * 5 <= full.rerated,
        "local refresh re-rated {} of {} live flow-events",
        local.rerated,
        full.rerated
    );
}
