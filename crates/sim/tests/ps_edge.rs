//! Edge-case suite for [`fcc_sim::PsResource`]: capacity-function
//! discontinuities, simultaneous completions, and the generation
//! semantics owners rely on when re-inserting after a drain.
//!
//! These pin the contract the fabric and GPU models build on — the
//! virtual-time trick must stay exact across capacity steps, ties, and
//! idle gaps, and the generation counter must invalidate every stale
//! scheduled event.

use fcc_sim::{JobId, PsResource, SimTime};

fn ns(v: u64) -> SimTime {
    SimTime::from_nanos(v)
}

#[test]
fn sharp_capacity_drop_at_the_second_job_is_exact() {
    // C(1) = 10, C(n >= 2) = 1: a 10x cliff the moment contention
    // appears (an extreme version of the Figure 11 oversubscription
    // knee).
    let mut ps = PsResource::new(|n| if n == 1 { 10.0 } else { 1.0 });
    let a = ps.insert(ns(0), 100.0);
    // At t=5, A has consumed 50 units at rate 10. B arrives; both now
    // run at 0.5/ns. A's remaining 50 -> t = 5 + 100 = 105. B then runs
    // alone at 10/ns with 50 left -> t = 110.
    let b = ps.insert(ns(5), 100.0);
    let done = ps.drain();
    assert_eq!(done, vec![(ns(105), a), (ns(110), b)]);
}

#[test]
fn zero_capacity_region_unstarves_on_the_next_arrival() {
    // C(1) = 0, C(n >= 2) = 2: a lone job is starved outright until a
    // second arrival switches the resource on.
    let mut ps = PsResource::new(|n| if n == 1 { 0.0 } else { 2.0 });
    let a = ps.insert(ns(0), 100.0);
    assert_eq!(ps.next_completion(), Some(SimTime::MAX), "lone job starves");

    // B arrives at t=50; each job now runs at 1/ns, so both virtual
    // finish instants sit at v=100, reached at t=150.
    let b = ps.insert(ns(50), 100.0);
    assert_eq!(ps.next_completion(), Some(ns(150)));
    let first = ps.complete_next(ns(150));
    assert_eq!(first, a, "ties pop in insertion order");

    // Documented quirk of the discontinuity: B has zero *remaining*
    // virtual work, but with n=1 the capacity is zero again, so the
    // resource still reports starvation rather than an instant finish.
    assert_eq!(ps.next_completion(), Some(SimTime::MAX));

    // A third arrival switches capacity back on; B (0 remaining) then
    // completes at the very instant the capacity returns.
    ps.insert(ns(200), 1.0);
    assert_eq!(ps.next_completion(), Some(ns(200)));
    assert_eq!(ps.complete_next(ns(200)), b);
}

#[test]
fn simultaneous_completions_pop_in_insertion_order() {
    // 8 equal jobs share capacity 4.0: every job runs at 0.5/ns and all
    // hit v=128 together at t=256. The (virtual instant, id) heap key
    // makes the tie-break deterministic: insertion order.
    let mut ps = PsResource::with_constant_capacity(4.0);
    let g0 = ps.generation();
    let ids: Vec<JobId> = (0..8).map(|_| ps.insert(ns(0), 128.0)).collect();
    let done = ps.drain();
    assert_eq!(done.len(), 8);
    for (i, &(at, id)) in done.iter().enumerate() {
        assert_eq!(at, ns(256), "all eight must finish together");
        assert_eq!(id, ids[i], "tie-break must follow insertion order");
    }
    // Every insert and every completion bumps the generation exactly
    // once: 8 + 8.
    assert_eq!(ps.generation(), g0 + 16);
}

#[test]
fn reinsert_after_drain_keeps_generations_and_ids_monotone() {
    let mut ps = PsResource::with_constant_capacity(1.0);
    ps.insert(ns(0), 10.0);
    ps.insert(ns(0), 20.0);
    ps.insert(ns(0), 30.0);
    let g_loaded = ps.generation();
    let done = ps.drain();
    assert_eq!(done.len(), 3);
    assert_eq!(ps.active(), 0);
    assert_eq!(ps.next_completion(), None);
    let g_drained = ps.generation();
    assert!(
        g_drained > g_loaded,
        "each drained completion must bump the generation"
    );

    // An owner holding an event stamped before the re-insert must see it
    // as stale afterwards, and job ids are never reused.
    let stale_stamp = ps.generation();
    let revived = ps.insert(ns(1_000), 50.0);
    assert!(ps.generation() > stale_stamp);
    assert_eq!(revived, JobId(3), "ids continue past drained jobs");

    // The idle gap contributes no virtual progress: the revived job
    // needs its full 50 ns from t=1000.
    assert_eq!(ps.next_completion(), Some(ns(1_050)));
    assert_eq!(ps.complete_next(ns(1_050)), revived);

    // Draining an idle resource is a no-op.
    assert_eq!(ps.drain(), vec![]);
}

#[test]
fn arrival_exactly_at_a_completion_instant_is_order_independent() {
    // A (work 100, capacity 1.0) finishes exactly at t=100, the same
    // instant B arrives. Whether the owner processes the completion or
    // the arrival first, B must finish at t=200.
    let mut first_completion = PsResource::with_constant_capacity(1.0);
    first_completion.insert(ns(0), 100.0);
    first_completion.complete_next(ns(100));
    let b1 = first_completion.insert(ns(100), 100.0);
    assert_eq!(first_completion.next_completion(), Some(ns(200)));
    assert_eq!(first_completion.complete_next(ns(200)), b1);

    let mut first_arrival = PsResource::with_constant_capacity(1.0);
    let a = first_arrival.insert(ns(0), 100.0);
    let b2 = first_arrival.insert(ns(100), 100.0);
    // A has zero remaining virtual work, so it still completes at t=100.
    assert_eq!(first_arrival.next_completion(), Some(ns(100)));
    assert_eq!(first_arrival.complete_next(ns(100)), a);
    assert_eq!(first_arrival.next_completion(), Some(ns(200)));
    assert_eq!(first_arrival.complete_next(ns(200)), b2);
}

#[test]
fn a_short_job_under_an_equal_work_burst_finishes_in_key_order() {
    // Four jobs of 100 at t=0 (finish keys V=100, arriving in order) and,
    // at t=40 (V=10), a job of 20 whose key V=30 falls below them: the
    // in-order keys and the late short one are queued side by side.
    let mut ps = PsResource::with_constant_capacity(1.0);
    let burst: Vec<JobId> = (0..4).map(|_| ps.insert(ns(0), 100.0)).collect();
    let short = ps.insert(ns(40), 20.0);
    // Five jobs at 0.2/ns: the short one's 20 units take 100 ns.
    assert_eq!(ps.next_completion(), Some(ns(140)));
    assert_eq!(ps.complete_next(ns(140)), short);
    // A job of 80 at V=30 keys V=110, behind the burst. Five jobs again:
    // the burst's last 70 units take 350 ns, then the late job runs alone
    // for its last 10.
    let late = ps.insert(ns(140), 80.0);
    let mut want: Vec<(SimTime, JobId)> = burst.iter().map(|&id| (ns(490), id)).collect();
    want.push((ns(500), late));
    assert_eq!(ps.drain(), want);
}
