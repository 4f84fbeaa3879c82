//! Negative suite for the flow-level fast path, mirroring
//! `crates/check/tests/negative.rs`: every always-on invariant must
//! actually fire on a deliberately defective twin of the flow model,
//! and must stay silent on the corrected twin.
//!
//! Each `InjectedBug` variant sabotages one load-bearing piece of the
//! fair-sharing engine inside a copy of the model; the differential
//! checker (`compare_fabric`) — the same entry point the conformance
//! suite uses — must convict it. Detection is exercised both on a
//! crafted minimal scenario and across a seeded corpus of randomized
//! scenarios that preserve the bug's trigger conditions.

use fcc_net::diff::{compare_fabric, DiffError, DiffTolerance};
use fcc_net::fabric::Injection;
use fcc_net::flow::{FlowFabric, FlowViolation, InjectedBug};
use fcc_net::{LinkSpec, Topology};
use fcc_sim::SimTime;

fn inj(at: u64, src: u32, dst: u32, bytes: u64, tag: u64) -> Injection {
    Injection {
        at: SimTime::from_nanos(at),
        src,
        dst,
        bytes,
        tag,
    }
}

/// Small deterministic generator for the seeded corpora.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn diff_against(bugged: &FlowFabric, topo: &Topology, batch: &[Injection]) -> DiffError {
    compare_fabric(topo, batch, &DiffTolerance::default(), bugged)
        .expect_err("the defective twin must be convicted")
}

// ---------------------------------------------------------------------
// Crafted minimal scenarios: one per bug, deterministic conviction.
// ---------------------------------------------------------------------

#[test]
fn dropped_flow_is_convicted_by_the_differential_checker() {
    let topo = Topology::Switched {
        endpoints: 3,
        link: LinkSpec::infiniband_20gbs(),
    };
    let batch = [inj(0, 0, 1, 32 * 1024, 0), inj(100, 1, 2, 32 * 1024, 7)];
    let err = diff_against(&FlowFabric::with_bug(InjectedBug::DropFlow), &topo, &batch);
    assert_eq!(
        err,
        DiffError::Violation(FlowViolation::MissingDelivery { tag: 7 }),
        "the dropped flow must surface as a conservation failure"
    );
}

#[test]
fn skipped_rate_refresh_is_convicted_by_the_differential_checker() {
    let topo = Topology::Switched {
        endpoints: 2,
        link: LinkSpec::infiniband_20gbs(),
    };
    // Flow 0 holds the full line rate; flow 1 joins the same channel
    // before flow 0 drains. With the refresh skipped, flow 0's stale
    // full-rate allocation exceeds the halved fair share.
    let batch = [inj(0, 0, 1, 256 * 1024, 0), inj(1_000, 0, 1, 256 * 1024, 1)];
    let err = diff_against(
        &FlowFabric::with_bug(InjectedBug::SkipRateRefresh),
        &topo,
        &batch,
    );
    assert!(
        matches!(
            err,
            DiffError::Violation(
                FlowViolation::ShareExceeded { tag: 0, .. }
                    | FlowViolation::LinkOverAllocated { .. }
            )
        ),
        "stale rates must trip the fair-share check, got {err}"
    );
}

#[test]
fn bottleneck_overallocation_is_convicted_by_the_differential_checker() {
    // Ring of 4: flow A spans links 0->1->2, flow B congests 1->2.
    // Rating A off its first (uncongested) link only over-allocates the
    // shared bottleneck.
    let topo = Topology::Torus2D {
        dims: (1, 4),
        link: LinkSpec::torus_200gbps(),
    };
    let batch = [inj(0, 0, 2, 256 * 1024, 0), inj(0, 1, 2, 256 * 1024, 1)];
    let err = diff_against(
        &FlowFabric::with_bug(InjectedBug::OverAllocateBottleneck),
        &topo,
        &batch,
    );
    assert!(
        matches!(
            err,
            DiffError::Violation(
                FlowViolation::ShareExceeded { .. } | FlowViolation::LinkOverAllocated { .. }
            )
        ),
        "bottleneck over-allocation must trip an invariant, got {err}"
    );
}

// ---------------------------------------------------------------------
// Seeded corpora: randomized scenarios that preserve each bug's
// trigger conditions. Every single case must convict.
// ---------------------------------------------------------------------

#[test]
fn dropped_flow_is_convicted_across_a_seeded_corpus() {
    let mut rng = Lcg(0x00de_ad01);
    for case in 0..50 {
        let n = rng.range(2, 9) as u32;
        let topo = Topology::Torus2D {
            dims: (1, n),
            link: LinkSpec::torus_200gbps(),
        };
        let flows = rng.range(1, 12) as usize;
        let batch: Vec<Injection> = (0..flows)
            .map(|tag| {
                let src = (rng.range(0, 64) % n as u64) as u32;
                let dst = (src + 1 + (rng.range(0, 63) % (n - 1) as u64) as u32) % n;
                inj(
                    rng.range(0, 4_000),
                    src,
                    dst,
                    rng.range(1, 150_000),
                    tag as u64,
                )
            })
            .collect();
        let err = diff_against(&FlowFabric::with_bug(InjectedBug::DropFlow), &topo, &batch);
        assert!(
            matches!(
                err,
                DiffError::Violation(FlowViolation::MissingDelivery { .. })
            ),
            "case {case}: dropping a flow must always break conservation, got {err}"
        );
    }
}

#[test]
fn skipped_rate_refresh_is_convicted_across_a_seeded_corpus() {
    let mut rng = Lcg(0x00de_ad02);
    for case in 0..50 {
        let topo = Topology::Switched {
            endpoints: rng.range(2, 9) as u32,
            link: LinkSpec::infiniband_20gbs(),
        };
        // Trigger shape: a long-running first flow, then a staggered
        // arrival on the *same* channel while it is still draining.
        let src = (rng.range(0, 64) % topo.endpoints() as u64) as u32;
        let dst = (src + 1) % topo.endpoints();
        let bytes = rng.range(128 * 1024, 512 * 1024);
        let stagger = rng.range(100, 2_000);
        let batch = [inj(0, src, dst, bytes, 0), inj(stagger, src, dst, bytes, 1)];
        let err = diff_against(
            &FlowFabric::with_bug(InjectedBug::SkipRateRefresh),
            &topo,
            &batch,
        );
        assert!(
            matches!(
                err,
                DiffError::Violation(
                    FlowViolation::ShareExceeded { .. } | FlowViolation::LinkOverAllocated { .. }
                )
            ),
            "case {case}: stale rates went unconvicted, got {err}"
        );
    }
}

#[test]
fn bottleneck_overallocation_is_convicted_across_a_seeded_corpus() {
    let mut rng = Lcg(0x00de_ad03);
    for case in 0..50 {
        // Trigger shape: a multi-hop flow whose first link is private but
        // whose second link is congested by a crossing single-hop flow.
        let n = rng.range(4, 9) as u32;
        let topo = Topology::Torus2D {
            dims: (1, n),
            link: LinkSpec::torus_200gbps(),
        };
        let bytes = rng.range(128 * 1024, 512 * 1024);
        let batch = [inj(0, 0, 2, bytes, 0), inj(0, 1, 2, bytes, 1)];
        let err = diff_against(
            &FlowFabric::with_bug(InjectedBug::OverAllocateBottleneck),
            &topo,
            &batch,
        );
        assert!(
            matches!(
                err,
                DiffError::Violation(
                    FlowViolation::ShareExceeded { .. } | FlowViolation::LinkOverAllocated { .. }
                )
            ),
            "case {case}: bottleneck over-allocation went unconvicted, got {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Clean twins: the exact scenarios that convict the bugs must pass
// when the bug is absent.
// ---------------------------------------------------------------------

#[test]
fn the_clean_twin_passes_every_conviction_scenario() {
    let clean = FlowFabric::new();
    let tol = DiffTolerance::default();

    let switched = Topology::Switched {
        endpoints: 3,
        link: LinkSpec::infiniband_20gbs(),
    };
    compare_fabric(
        &switched,
        &[inj(0, 0, 1, 32 * 1024, 0), inj(100, 1, 2, 32 * 1024, 7)],
        &tol,
        &clean,
    )
    .expect("drop-flow scenario must pass clean");

    let channel = Topology::Switched {
        endpoints: 2,
        link: LinkSpec::infiniband_20gbs(),
    };
    compare_fabric(
        &channel,
        &[inj(0, 0, 1, 256 * 1024, 0), inj(1_000, 0, 1, 256 * 1024, 1)],
        &tol,
        &clean,
    )
    .expect("stale-rate scenario must pass clean");

    let ring = Topology::Torus2D {
        dims: (1, 4),
        link: LinkSpec::torus_200gbps(),
    };
    compare_fabric(
        &ring,
        &[inj(0, 0, 2, 256 * 1024, 0), inj(0, 1, 2, 256 * 1024, 1)],
        &tol,
        &clean,
    )
    .expect("bottleneck scenario must pass clean");
}

// ---------------------------------------------------------------------
// The same convictions on a local refresh. Each crafted case is the
// bug's trigger plus a quiet background of long flows on disjoint links,
// admitted first: the trigger's events then change counts on a few links
// that few live flows cross, so the engine re-rates and re-checks only
// those. The pass an event takes depends only on per-link counts, which
// none of the bugs moves before it is caught, so the clean twin's passes
// are the bugged run's.
// ---------------------------------------------------------------------

/// Long background flows, one per hop from `first`.
const BACKGROUND: u32 = 24;

/// The background at t = 0, then a short primer flow on the next hop at
/// t = 500. Both events take the full refresh: the first touches every
/// live flow, and the engine builds its link→flows transpose only once
/// full refreshes have walked one path per flow of the batch more than
/// local ones would have — the primer's event walks about half that, the
/// first trigger event the rest. Triggers enter from t = 1000.
fn background(first: u32) -> Vec<Injection> {
    let mut batch: Vec<Injection> = (0..BACKGROUND)
        .map(|i| inj(0, first + i, first + i + 1, 4 << 20, 10 + i as u64))
        .collect();
    let primer = first + BACKGROUND;
    batch.push(inj(500, primer, primer + 1, 8 * 1024, 9));
    batch
}

/// The clean twin convicts nothing, and no event after the primer's took
/// the full refresh. The first two events re-rate `2 * BACKGROUND + 1`
/// flows; a full refresh while the background is live re-rates at least
/// `BACKGROUND` more, while the local ones re-rate only trigger flows —
/// fewer than `BACKGROUND` over the whole case.
fn assert_local_after_the_primer(topo: &Topology, batch: &[Injection]) {
    compare_fabric(topo, batch, &DiffTolerance::default(), &FlowFabric::new())
        .expect("the clean twin must pass");
    let (_, stats) = FlowFabric::new().run_checked(topo, batch).expect("clean");
    assert!(
        stats.rerated < 3 * BACKGROUND as u64 + 1,
        "an event after the primer took the full refresh: {stats:?}"
    );
}

fn switched() -> Topology {
    Topology::Switched {
        endpoints: 32,
        link: LinkSpec::infiniband_20gbs(),
    }
}

#[test]
fn skipped_rate_refresh_is_convicted_on_a_local_refresh() {
    let mut batch = background(2);
    batch.extend([
        inj(1_000, 0, 1, 256 * 1024, 0),
        inj(2_000, 0, 1, 256 * 1024, 1),
    ]);
    assert_local_after_the_primer(&switched(), &batch);
    let err = diff_against(
        &FlowFabric::with_bug(InjectedBug::SkipRateRefresh),
        &switched(),
        &batch,
    );
    assert!(
        matches!(
            err,
            DiffError::Violation(FlowViolation::ShareExceeded { tag: 0, .. })
        ),
        "the stale flow must trip its link's share check, got {err}"
    );
}

#[test]
fn bottleneck_overallocation_is_convicted_on_a_local_refresh() {
    // Ring of 40: flow 0 spans 0->1->2, flow 1 congests 1->2; the
    // background runs on the far side of the ring.
    let topo = Topology::Torus2D {
        dims: (1, 40),
        link: LinkSpec::torus_200gbps(),
    };
    let mut batch = background(8);
    batch.extend([
        inj(1_000, 0, 2, 256 * 1024, 0),
        inj(1_000, 1, 2, 256 * 1024, 1),
    ]);
    assert_local_after_the_primer(&topo, &batch);
    let err = diff_against(
        &FlowFabric::with_bug(InjectedBug::OverAllocateBottleneck),
        &topo,
        &batch,
    );
    assert!(
        matches!(
            err,
            DiffError::Violation(FlowViolation::ShareExceeded { tag: 0, .. })
        ),
        "rating flow 0 off its first link must trip the share check downstream, got {err}"
    );
}

#[test]
fn dropped_flow_is_convicted_after_a_local_refresh() {
    let mut batch = background(2);
    batch.extend([
        inj(1_000, 0, 1, 32 * 1024, 0),
        inj(2_000, 1, 0, 32 * 1024, 7),
    ]);
    assert_local_after_the_primer(&switched(), &batch);
    let err = diff_against(
        &FlowFabric::with_bug(InjectedBug::DropFlow),
        &switched(),
        &batch,
    );
    assert_eq!(
        err,
        DiffError::Violation(FlowViolation::MissingDelivery { tag: 7 })
    );
}

#[test]
fn an_unlisted_flow_is_convicted_by_the_count_check() {
    // The first admitted flow (tag 10, 2->3) is missing from its link's
    // list; the trigger joins that link while it is live.
    let mut batch = background(2);
    batch.push(inj(1_000, 2, 3, 256 * 1024, 0));
    assert_local_after_the_primer(&switched(), &batch);
    let err = diff_against(
        &FlowFabric::with_bug(InjectedBug::UnlistedFlow),
        &switched(),
        &batch,
    );
    assert_eq!(
        err,
        DiffError::Violation(FlowViolation::LinkCountMismatch {
            link: 2 * 32 + 3,
            listed: 1,
            counted: 2,
        })
    );
}

/// The rate bugs' minimal crafted cases above convict on the full
/// refresh: each of their events changes the counts of links that every
/// live flow crosses, so the clean twin re-rates exactly what the traced
/// run — full at every event — re-rates. (A dropped flow is convicted by
/// the end-of-run conservation check, whichever refresh its events take.)
#[test]
fn the_minimal_rate_bug_cases_take_the_full_refresh() {
    let cases = [
        (
            Topology::Switched {
                endpoints: 2,
                link: LinkSpec::infiniband_20gbs(),
            },
            vec![inj(0, 0, 1, 256 * 1024, 0), inj(1_000, 0, 1, 256 * 1024, 1)],
        ),
        (
            Topology::Torus2D {
                dims: (1, 4),
                link: LinkSpec::torus_200gbps(),
            },
            vec![inj(0, 0, 2, 256 * 1024, 0), inj(0, 1, 2, 256 * 1024, 1)],
        ),
    ];
    for (topo, batch) in cases {
        let (_, checked) = FlowFabric::new().run_checked(&topo, &batch).expect("clean");
        let (_, traced, _) = FlowFabric::new().run_traced(&topo, &batch).expect("clean");
        assert_eq!(checked.rerated, traced.rerated, "{topo:?}");
    }
}
