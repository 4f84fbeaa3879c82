//! Causal-coverage sweep: every slice/PUT/recovery send of every
//! operator variant carries exactly one originating [`TraceCtx`], with
//! and without a delivery order.
//!
//! The positive sweep drives every real variant through
//! [`standard_cases`] with no order installed and under `ProgramOrder`
//! and demands a violation-free [`check_ctx_trace`]; the property tests
//! randomize shapes and schedules. The negative tests pin that the
//! checker is not vacuous: the deliberately broken cases issue raw puts
//! outside any operator context and are convicted as orphans.

use std::sync::Arc;

use fcc_check::{
    check_ctx_trace, standard_cases, ChecksumBypassCase, CtxViolation, FusedCase, MoeCase,
    ProtocolCase, UnfencedFlagCase,
};
use fcc_shmem::{ProgramOrder, SeededOrder, TraceCtx, TraceEvent};
use proptest::prelude::*;

/// Causal sends in `run.timed` (what the checker actually inspects).
fn sends(run: &fcc_check::CaseRun) -> usize {
    run.timed
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                TraceEvent::Put { .. }
                    | TraceEvent::PutDelivered { .. }
                    | TraceEvent::FlagStore { .. }
                    | TraceEvent::FlagRmw { .. }
            )
        })
        .count()
}

#[test]
fn every_variant_is_fully_attributed_on_both_planes() {
    for case in standard_cases(2) {
        let root = case
            .expected_ctx_root()
            .expect("standard cases all participate");
        for (plane, order) in [
            ("ring", None),
            (
                "ordered",
                Some(Arc::new(ProgramOrder) as Arc<dyn fcc_shmem::DeliveryOrder>),
            ),
        ] {
            let run = case.run_with(order);
            assert!(
                run.mismatch.is_none(),
                "{}: {:?}",
                case.name(),
                run.mismatch
            );
            assert!(
                sends(&run) > 0,
                "{} ({plane}): no causal sends traced at all",
                case.name()
            );
            let violations = check_ctx_trace(&run.timed, root);
            assert!(
                violations.is_empty(),
                "{} ({plane}): {} uncovered send(s), first: {}",
                case.name(),
                violations.len(),
                violations[0]
            );
        }
    }
}

#[test]
fn every_variant_emits_slice_qualified_publications() {
    // Stronger than orphan-freedom: each variant's sends must include
    // slice-qualified contexts (the per-publication spans the Perfetto
    // flow arrows hang off), not just a blanket root.
    for case in standard_cases(2) {
        let run = case.run_with(None);
        let qualified = run.timed.iter().filter(|e| e.ctx.slice().is_some()).count();
        assert!(
            qualified > 0,
            "{}: no slice-qualified sends — publications are untraceable",
            case.name()
        );
    }
}

#[test]
fn buggy_cases_opt_out_and_are_orphans_by_design() {
    for case in [
        Box::new(UnfencedFlagCase) as Box<dyn ProtocolCase>,
        Box::new(ChecksumBypassCase),
    ] {
        assert!(case.expected_ctx_root().is_none(), "{}", case.name());
        let run = case.run_with(None);
        let violations = check_ctx_trace(&run.timed, TraceCtx::step(1));
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, CtxViolation::Orphan { .. })),
            "{}: raw puts outside any operator must read as orphans, got {violations:?}",
            case.name()
        );
    }
}

#[test]
fn ambient_request_root_overrides_the_minted_step_root() {
    // When a boundary (the serving loop) installs a request context on
    // the driving thread, operators must attribute to *it*, not to a
    // freshly minted step — but PE threads don't inherit the harness
    // thread's ambient, so this is pinned at the operator layer via
    // the orphan-free sweep plus the ctx_root unit contract. Here we
    // pin the checker side: a request-rooted trace checks against the
    // request root and is foreign to a step root.
    let case = MoeCase {
        n_pes: 2,
        tokens_per_pair: 1,
        dim: 2,
    };
    let run = case.run_with(None);
    let step_root = TraceCtx::step(1);
    assert!(check_ctx_trace(&run.timed, step_root).is_empty());
    let foreign = check_ctx_trace(&run.timed, TraceCtx::request(5));
    assert!(
        foreign
            .iter()
            .all(|v| matches!(v, CtxViolation::ForeignRoot { .. }))
            && !foreign.is_empty(),
        "sends rooted at step:1 must be foreign to req:5"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random shapes across the whole suite, ring path: exactly one
    /// originating context per send, no orphans, no slice reuse.
    #[test]
    fn random_shapes_stay_fully_attributed(
        n_pes in 2usize..4,
        case_idx in 0usize..1024,
    ) {
        let cases = standard_cases(n_pes);
        let case = &cases[case_idx % cases.len()];
        let root = case.expected_ctx_root().unwrap();
        let run = case.run_with(None);
        prop_assert!(run.mismatch.is_none(), "{}: {:?}", case.name(), run.mismatch);
        let violations = check_ctx_trace(&run.timed, root);
        prop_assert!(
            violations.is_empty(),
            "{}: {violations:?}",
            case.name()
        );
    }

    /// Adversarial delivery schedules must not detach deferred puts from
    /// their issue-time context (deliveries keep attribution).
    #[test]
    fn seeded_schedules_keep_deliveries_attributed(
        seed in 0u64..1_000_000,
        slice_embeddings in 1usize..4,
    ) {
        let case = FusedCase {
            n_pes: 2,
            batch: 4,
            tables_per_pe: 2,
            slice_embeddings,
        };
        let run = case.run(Arc::new(SeededOrder::new(seed)));
        prop_assert!(run.mismatch.is_none(), "{:?}", run.mismatch);
        let delivered = run.timed.iter().filter(|e| {
            matches!(e.event, TraceEvent::PutDelivered { .. })
        }).count();
        prop_assert!(delivered > 0, "seeded order deferred nothing");
        let violations = check_ctx_trace(&run.timed, case.expected_ctx_root().unwrap());
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}
