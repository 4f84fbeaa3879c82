//! The steal-schedule exploration dimension: every operator variant must
//! stay differentially clean while the seeded work-stealing schedule of
//! its task loop is varied, and a publication performed by a *thief*
//! (a worker that robbed the task from a sibling's deque) must carry the
//! same causal context the owner would have attached.

use std::time::Duration;

use fcc_check::{
    check_ctx_trace, explore_steal, standard_cases, Budget, ChecksumBypassCase, FusedCase,
    ProtocolCase, UnfencedFlagCase,
};
use fcc_core::schedule::steal::execute_stealing;
use fcc_core::{StealArena, StealPolicy};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{ShmemWorld, TraceCtx};

#[test]
fn every_variant_is_clean_under_seeded_steal_schedules() {
    for case in standard_cases(2) {
        assert!(
            case.steal_tasks() > 0,
            "{}: variant has no steal dimension",
            case.name()
        );
        let report = explore_steal(case.as_ref(), &Budget::smoke());
        assert!(report.clean(), "{}: {report:?}", case.name());
        assert!(
            report.runs >= 2,
            "{}: steal exploration barely ran ({} runs)",
            case.name(),
            report.runs
        );
        assert_eq!(
            report.runs,
            report.distinct_schedules,
            "{}: duplicate steal schedules must be skipped, not rerun",
            case.name()
        );
    }
}

#[test]
fn distinct_steal_seeds_realize_distinct_schedules() {
    let case = FusedCase {
        n_pes: 3,
        batch: 6,
        tables_per_pe: 2,
        slice_embeddings: 2,
    };
    let report = explore_steal(&case, &Budget::smoke());
    assert!(report.clean(), "{report:?}");
    assert!(
        report.distinct_schedules >= 8,
        "steal seeds collapsed onto {} schedule(s)",
        report.distinct_schedules
    );
}

#[test]
fn buggy_cases_opt_out_of_the_steal_dimension() {
    for case in [
        Box::new(UnfencedFlagCase) as Box<dyn ProtocolCase>,
        Box::new(ChecksumBypassCase),
    ] {
        assert_eq!(case.steal_tasks(), 0, "{}", case.name());
        let report = explore_steal(case.as_ref(), &Budget::smoke());
        assert_eq!(report.runs, 0, "{}: nothing to explore", case.name());
    }
}

#[test]
fn a_sliced_publication_by_a_thief_keeps_its_causal_context() {
    // Drive the deques directly inside a traced world, with each task
    // body publishing under a slice-qualified context exactly like the
    // operators do. Concurrent mode makes thieves real OS threads; the
    // owner of the first deque stalls on its own tasks so siblings run
    // dry and rob its tail. Stealing is scheduling-dependent, so retry
    // seeds until a steal is observed — every attempt must be ctx-clean
    // regardless.
    let n_tasks = 8u64;
    let mut stolen_seen = false;
    for seed in 0..20u64 {
        let mut layout = HeapLayout::new();
        let data = layout.alloc::<f32>(n_tasks as usize);
        let ready = layout.alloc_flags(n_tasks as usize);
        let mut world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_trace();
        let arena = StealArena::new();
        let policy = StealPolicy::concurrent(seed).with_workers(4);
        let stolen = world.run_collect(|ctx| {
            if ctx.me() != 0 {
                for i in 0..n_tasks as usize {
                    ctx.wait_until(ready, i, |v| v >= 1);
                }
                return 0;
            }
            let tasks: Vec<u64> = (0..n_tasks).collect();
            let stats = execute_stealing(
                &arena,
                &tasks,
                policy,
                |_| (),
                |_, task| {
                    // The deal is strided, so the first deque owns the low
                    // task ids; stalling on them starves the owner while the
                    // other workers finish and turn thief.
                    if task < 2 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let _guard = fcc_shmem::scoped_ctx(TraceCtx::step(1).with_slice(task));
                    ctx.put(data, task as usize, &[task as f32], 1);
                    ctx.fence();
                    ctx.flag_store(ready, task as usize, 1, 1);
                },
            );
            assert_eq!(stats.executed, n_tasks, "seed {seed}: lost tasks");
            stats.stolen
        })[0];
        let timed = world.take_trace_timed();
        let violations = check_ctx_trace(&timed, TraceCtx::step(1));
        assert!(
            violations.is_empty(),
            "seed {seed} ({stolen} steals): {violations:?}"
        );
        if stolen > 0 {
            stolen_seen = true;
            break;
        }
    }
    assert!(stolen_seen, "no seed produced a steal in 20 attempts");
}

#[test]
fn the_fused_operator_stays_attributed_under_concurrent_stealing() {
    // End to end: the fused case on the ring fast path with real
    // concurrent stealing inside each PE. Whoever executes a slice —
    // owner or thief — its PUT and sliceRdy must resolve to the minted
    // step root with a slice qualifier.
    let case = FusedCase {
        n_pes: 2,
        batch: 8,
        tables_per_pe: 2,
        slice_embeddings: 2,
    };
    for seed in 0..4u64 {
        let run = case.run_with_steal(None, Some(StealPolicy::concurrent(seed).with_workers(4)));
        assert!(run.mismatch.is_none(), "seed {seed}: {:?}", run.mismatch);
        let violations = check_ctx_trace(&run.timed, TraceCtx::step(1));
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}
