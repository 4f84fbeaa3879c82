//! Negative tests: every invariant must actually fire on a protocol
//! that breaks it, and must stay silent on its corrected twin.
//!
//! The acceptance case for the whole checker is the first test: a
//! deliberately injected reordering bug — flag delivered before payload
//! — caught from the trace, with the adversarial delivery order making
//! the reordering *observable* (the flag store precedes the payload
//! delivery in the event log).

use std::sync::Arc;

use fcc_check::{
    check_trace, explore, Budget, CheckConfig, ChecksumBypassCase, UnfencedFlagCase, Violation,
};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::ring::SLOT_PAYLOAD;
use fcc_shmem::{AdversarialOrder, ProgramOrder, ShmemWorld, TraceEvent};

fn run_pair(fenced: bool) -> (Vec<TraceEvent>, Vec<Violation>) {
    let mut layout = HeapLayout::new();
    let data = layout.alloc::<f32>(4);
    let ready = layout.alloc_flags(1);
    let mut world = ShmemWorld::new(2, layout)
        .with_p2p_groups(vec![0, 1])
        .with_delivery_order(Arc::new(AdversarialOrder))
        .with_trace();
    world.run(|ctx| {
        if ctx.me() == 0 {
            ctx.put(data, 0, &[1.0, 2.0, 3.0, 4.0], 1);
            if fenced {
                ctx.fence();
            }
            ctx.flag_store(ready, 0, 1, 1);
        } else {
            ctx.wait_until(ready, 0, |v| v >= 1);
        }
    });
    let trace = world.take_trace();
    let violations = check_trace(&trace, &CheckConfig::default());
    (trace, violations)
}

fn position(trace: &[TraceEvent], pred: impl Fn(&TraceEvent) -> bool) -> usize {
    trace
        .iter()
        .position(pred)
        .expect("event missing from trace")
}

#[test]
fn injected_flag_before_payload_is_caught() {
    let (trace, violations) = run_pair(false);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::FlagBeforePayload { src: 0, dst: 1, .. })),
        "the injected reordering bug went undetected: {violations:?}"
    );
    // The adversarial order makes the hazard observable: the flag store
    // happens while the payload is still undelivered.
    let flag_at = position(&trace, |e| matches!(e, TraceEvent::FlagStore { .. }));
    let delivered_at = position(&trace, |e| matches!(e, TraceEvent::PutDelivered { .. }));
    assert!(
        flag_at < delivered_at,
        "flag at {flag_at} should precede payload delivery at {delivered_at}"
    );
}

#[test]
fn the_fenced_twin_is_clean() {
    let (trace, violations) = run_pair(true);
    assert_eq!(violations, vec![], "a fenced publication must pass");
    // With the fence, delivery precedes the flag store even under the
    // adversarial order.
    let flag_at = position(&trace, |e| matches!(e, TraceEvent::FlagStore { .. }));
    let delivered_at = position(&trace, |e| matches!(e, TraceEvent::PutDelivered { .. }));
    assert!(delivered_at < flag_at);
}

#[test]
fn stale_epoch_flag_reuse_is_caught() {
    let mut layout = HeapLayout::new();
    let flags = layout.alloc_flags(2);
    let mut world = ShmemWorld::new(2, layout)
        .with_delivery_order(Arc::new(ProgramOrder))
        .with_trace();
    world.run(|ctx| {
        if ctx.me() == 0 {
            ctx.flag_store(flags, 0, 2, 1);
            // BUG: round 1's flag replayed after round 2 published.
            ctx.flag_store(flags, 0, 1, 1);
        }
    });
    let violations = check_trace(&world.take_trace(), &CheckConfig::default());
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::StaleEpochFlag {
                prev: 2,
                value: 1,
                ..
            }
        )),
        "stale epoch went undetected: {violations:?}"
    );
}

#[test]
fn double_claimed_wg_done_bit_is_caught() {
    let mut layout = HeapLayout::new();
    let flags = layout.alloc_flags(1);
    let mut world = ShmemWorld::new(2, layout)
        .with_delivery_order(Arc::new(ProgramOrder))
        .with_trace();
    world.run(|ctx| {
        if ctx.me() == 0 {
            ctx.flag_fetch_or(flags, 0, 0b1, 1);
            // BUG: the same completion bit claimed twice.
            ctx.flag_fetch_or(flags, 0, 0b1, 1);
        }
    });
    let violations = check_trace(&world.take_trace(), &CheckConfig::default());
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::LostOrBit {
                prev: 0b1,
                operand: 0b1,
                ..
            }
        )),
        "double-OR went undetected: {violations:?}"
    );
}

#[test]
fn writes_after_the_tombstone_are_caught() {
    let mut layout = HeapLayout::new();
    let data = layout.alloc::<u64>(1);
    let flags = layout.alloc_flags(1);
    let mut world = ShmemWorld::new(2, layout)
        .with_p2p_groups(vec![0, 1])
        .with_delivery_order(Arc::new(ProgramOrder))
        .with_trace();
    world.run(|ctx| {
        if ctx.me() == 1 {
            ctx.record_tombstone();
            // BUG: a dead PE must fall silent.
            ctx.put(data, 0, &[7u64], 0);
            ctx.flag_store(flags, 0, 1, 0);
        }
    });
    let violations = check_trace(&world.take_trace(), &CheckConfig::default());
    let post: Vec<_> = violations
        .iter()
        .filter(|v| matches!(v, Violation::PostTombstoneWrite { pe: 1, .. }))
        .collect();
    assert_eq!(post.len(), 2, "both post-tombstone writes must be caught");
}

#[test]
fn the_explorer_convicts_the_buggy_case_on_every_schedule() {
    let report = explore(&UnfencedFlagCase, &Budget::smoke());
    assert!(!report.clean());
    assert_eq!(report.violations_total, report.runs);
}

#[test]
fn the_checksum_bypass_bug_is_convicted_by_the_differential_explorer() {
    // A schedule that releases the corrupt put lands its bytes verbatim;
    // one that defers it has the ring pop quarantine them, so the
    // payload never lands. Either way the diff against the intended
    // payload convicts every single schedule.
    let report = explore(&ChecksumBypassCase, &Budget::smoke());
    assert!(!report.clean());
    assert_eq!(
        report.mismatches_total, report.runs,
        "every schedule must ship (or lose) the corrupt payload"
    );
}

#[test]
fn consuming_past_the_integrity_gate_is_caught_under_an_explored_order() {
    // The explorer drives the same checksummed pop production runs: a
    // deferred corrupt put is quarantined when the fence drains it, and
    // the bypassing consumer is convicted from the trace.
    use fcc_check::ProtocolCase;
    let run = ChecksumBypassCase.run(Arc::new(AdversarialOrder));
    let violations = check_trace(&run.trace, &CheckConfig::default());
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::PoisonConsumed { pe: 1, .. })),
        "the bypassed gate went unconvicted: {violations:?}"
    );
}

#[test]
fn consuming_past_the_integrity_gate_is_caught_on_the_ring_path() {
    // With no order installed the corrupt put is quarantined at the pop,
    // so the bypassing consumer leaves an `IntegrityGate` with
    // `consumed: true` and a non-empty quarantine in the trace — the
    // "no unverified payload consumed past fence" invariant.
    use fcc_check::ProtocolCase;
    let run = ChecksumBypassCase.run_with(None);
    let violations = check_trace(&run.trace, &CheckConfig::default());
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::PoisonConsumed { pe: 1, .. })),
        "the bypassed gate went unconvicted: {violations:?}"
    );
    assert!(
        run.mismatch.is_some(),
        "the quarantined payload never landed, so the output must diverge"
    );
}

#[test]
fn an_unfenced_oversized_put_is_convicted_with_no_order_installed() {
    // A put too large for a ring slot is delivered eagerly, but it is
    // still a network put with no completion guarantee: publishing a
    // flag behind it without a fence is the same bug.
    let mut layout = HeapLayout::new();
    let data = layout.alloc::<u8>(SLOT_PAYLOAD + 1);
    let ready = layout.alloc_flags(1);
    let mut world = ShmemWorld::new(2, layout)
        .with_p2p_groups(vec![0, 1])
        .with_trace();
    world.run(|ctx| {
        if ctx.me() == 0 {
            ctx.put(data, 0, &[7u8; SLOT_PAYLOAD + 1], 1);
            // BUG under test: the fence belongs here.
            ctx.flag_store(ready, 0, 1, 1);
        }
    });
    let trace = world.take_trace();
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::FlagStore { unfenced: 1, .. })),
        "the eager put went uncounted: {trace:?}"
    );
    let violations = check_trace(&trace, &CheckConfig::default());
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::FlagBeforePayload { src: 0, dst: 1, .. })),
        "the missing fence went unconvicted: {violations:?}"
    );
}

#[test]
fn the_buggy_case_is_convicted_on_the_ring_fast_path() {
    // No delivery order: every put is deferred into its ring. The
    // per-thread unfenced bookkeeping must stay sound there too, or the
    // checker would go blind exactly where production traffic runs.
    use fcc_check::ProtocolCase;
    let run = UnfencedFlagCase.run_with(None);
    let violations = check_trace(&run.trace, &CheckConfig::default());
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::FlagBeforePayload { src: 0, dst: 1, .. })),
        "ring fast path lost the unfenced bookkeeping: {violations:?}"
    );
}
