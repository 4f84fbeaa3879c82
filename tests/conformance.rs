//! Differential conformance: every operator variant against the unfused
//! reference, under randomized shapes, PE counts, and adversarially
//! seeded delivery schedules.
//!
//! One property per variant. Each draws a shape and a schedule seed,
//! runs the fused operator with the seeded [`DeliveryOrder`] installed
//! (so non-blocking puts are held in flight wherever no fence forbids
//! it, and flag RMWs are stall-perturbed), bit-compares every
//! destination against `op/reference.rs`, and feeds the protocol trace
//! through the invariant checker. The vendored proptest derives its RNG
//! from the test name, so CI runs are reproducible.
//!
//! The deep sweeps (exhaustive schedule cubes, 1000+ distinct schedules
//! per variant) live in `cargo run --release -p fcc-bench --bin check`;
//! these properties are the debug-build differential net.
//!
//! The ring-path properties run the same cases with **no** delivery
//! order installed, so network puts ride the lock-free delivery rings —
//! the production data plane. There the adversary is real cross-thread
//! timing rather than a modeled schedule, so each property re-runs its
//! shape several times to sample distinct interleavings; outputs must
//! stay bit-identical to `op/reference.rs` and the trace must satisfy
//! the same invariants.

use std::sync::Arc;

use fcc_check::{
    check_trace, AllGatherGemmCase, ElasticCase, FusedCase, GenericCase, MoeCase, ProtocolCase,
    ResilientCase, ZeroCopyCase,
};
use fcc_shmem::{AdversarialOrder, DeliveryOrder, SeededOrder};
use proptest::prelude::*;

/// Runs one case under one schedule and asserts full conformance.
fn assert_clean(
    case: &dyn ProtocolCase,
    order: Arc<dyn DeliveryOrder>,
) -> Result<(), TestCaseError> {
    let run = case.run(order);
    prop_assert!(
        run.mismatch.is_none(),
        "{}: {}",
        case.name(),
        run.mismatch.unwrap()
    );
    let violations = check_trace(&run.trace, &case.check_config());
    prop_assert!(violations.is_empty(), "{}: {violations:?}", case.name());
    Ok(())
}

/// Runs one case on the ring fast path `repeats` times, sampling real
/// cross-thread interleavings, and asserts full conformance on each.
fn assert_clean_on_rings(case: &dyn ProtocolCase, repeats: usize) -> Result<(), TestCaseError> {
    for rep in 0..repeats {
        let run = case.run_with(None);
        prop_assert!(
            run.mismatch.is_none(),
            "{} (ring path, repeat {rep}): {}",
            case.name(),
            run.mismatch.unwrap()
        );
        prop_assert!(
            run.put_keys.is_empty(),
            "{}: with no order installed there is no schedule log",
            case.name()
        );
        let violations = check_trace(&run.trace, &case.check_config());
        prop_assert!(
            violations.is_empty(),
            "{} (ring path, repeat {rep}): {violations:?}",
            case.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fused_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..9,
        tables_per_pe in 1usize..3,
        slice_embeddings in 1usize..5,
    ) {
        let case = FusedCase { n_pes, batch: 2 * n_pes, tables_per_pe, slice_embeddings };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }

    #[test]
    fn zerocopy_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..9,
        tables_per_pe in 1usize..3,
    ) {
        let case = ZeroCopyCase { n_pes, batch: 2 * n_pes, tables_per_pe };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }

    #[test]
    fn generic_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..9,
        per_peer in 1usize..4,
        items_per_slice in 1usize..4,
    ) {
        let case = GenericCase { n_pes, per_peer, items_per_slice };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }

    #[test]
    fn elastic_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..7,
        slice_embeddings in 1usize..5,
    ) {
        let case = ElasticCase { n_pes, batch: 2 * n_pes, tables_per_pe: 2, slice_embeddings };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }

    #[test]
    fn resilient_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..7,
        slice_embeddings in 1usize..4,
    ) {
        let case = ResilientCase { n_pes, batch: 2 * n_pes, tables_per_pe: 2, slice_embeddings };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }

    #[test]
    fn moe_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..9,
        tokens_per_pair in 1usize..4,
        dim in 1usize..6,
    ) {
        let case = MoeCase { n_pes, tokens_per_pair, dim };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }

    #[test]
    fn allgather_gemm_matches_reference_on_adversarial_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..9,
        in_dim in 1usize..6,
        rows_per_pe in 1usize..4,
        batch in 1usize..4,
    ) {
        let case = AllGatherGemmCase { n_pes, in_dim, rows_per_pe, batch };
        assert_clean(&case, Arc::new(SeededOrder::new(seed)))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fused_matches_reference_on_the_ring_fast_path(
        n_pes in 2usize..9,
        tables_per_pe in 1usize..3,
        slice_embeddings in 1usize..5,
    ) {
        let case = FusedCase { n_pes, batch: 2 * n_pes, tables_per_pe, slice_embeddings };
        assert_clean_on_rings(&case, 3)?;
    }

    #[test]
    fn generic_matches_reference_on_the_ring_fast_path(
        n_pes in 2usize..9,
        per_peer in 1usize..4,
        items_per_slice in 1usize..4,
    ) {
        let case = GenericCase { n_pes, per_peer, items_per_slice };
        assert_clean_on_rings(&case, 3)?;
    }

    #[test]
    fn resilient_matches_reference_on_the_ring_fast_path(
        n_pes in 2usize..7,
        slice_embeddings in 1usize..4,
    ) {
        let case = ResilientCase { n_pes, batch: 2 * n_pes, tables_per_pe: 2, slice_embeddings };
        assert_clean_on_rings(&case, 3)?;
    }

    #[test]
    fn elastic_matches_reference_on_the_ring_fast_path(
        n_pes in 2usize..7,
        slice_embeddings in 1usize..5,
    ) {
        let case = ElasticCase { n_pes, batch: 2 * n_pes, tables_per_pe: 2, slice_embeddings };
        assert_clean_on_rings(&case, 2)?;
    }

    #[test]
    fn moe_matches_reference_on_the_ring_fast_path(
        n_pes in 2usize..9,
        tokens_per_pair in 1usize..4,
        dim in 1usize..6,
    ) {
        let case = MoeCase { n_pes, tokens_per_pair, dim };
        assert_clean_on_rings(&case, 3)?;
    }

    #[test]
    fn allgather_gemm_matches_reference_on_the_ring_fast_path(
        n_pes in 2usize..9,
        in_dim in 1usize..6,
        rows_per_pe in 1usize..4,
        batch in 1usize..4,
    ) {
        let case = AllGatherGemmCase { n_pes, in_dim, rows_per_pe, batch };
        assert_clean_on_rings(&case, 3)?;
    }
}

/// The full standard suite on the ring fast path, repeated to stress
/// real cross-thread interleavings at a PE count where every pair has
/// its own ring. Deterministic shapes, nondeterministic timing — the CI
/// smoke for the production data plane.
#[test]
fn every_variant_conforms_on_the_ring_fast_path() {
    for case in fcc_check::standard_cases(4) {
        for rep in 0..4 {
            let run = case.run_with(None);
            assert!(
                run.mismatch.is_none(),
                "{} (ring path, repeat {rep}): {:?}",
                case.name(),
                run.mismatch
            );
            let violations = check_trace(&run.trace, &case.check_config());
            assert!(
                violations.is_empty(),
                "{} (ring path, repeat {rep}): {violations:?}",
                case.name()
            );
        }
    }
}

/// The worst-case fixed schedule — every deferrable put held to its last
/// legal instant — across all variants at once. Deterministic, so this
/// doubles as a CI smoke for the adversarial path.
#[test]
fn every_variant_survives_the_fully_adversarial_schedule() {
    for case in fcc_check::standard_cases(4) {
        let run = case.run(Arc::new(AdversarialOrder));
        assert!(
            run.mismatch.is_none(),
            "{}: {:?}",
            case.name(),
            run.mismatch
        );
        let violations = check_trace(&run.trace, &case.check_config());
        assert!(violations.is_empty(), "{}: {violations:?}", case.name());
    }
}
