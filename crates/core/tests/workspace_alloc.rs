//! The fused operator's item loop neither allocates nor locks per item:
//! a warm `FusedPlan::execute` costs the same number of allocations at
//! sixteen times the batch (what remains is per-run scaffolding — PE and
//! worker threads, the steal stats), and borrows each worker's workspace
//! once per task loop whatever the task count. The same holds for the
//! consuming drain: a warm `BackwardFusedPlan::execute`, whose optimizer
//! takes every arriving gradient row, allocates nothing per row.
//!
//! The whole measurement lives in one `#[test]` so no concurrent test
//! thread pollutes the global counter.

use std::sync::Mutex;

use fcc_core::ext::backward_fused::BackwardFusedPlan;
use fcc_core::op::reference;
use fcc_core::{FusedPlan, ScheduleKind, StealPolicy};
use fcc_dlrm::{DlrmConfig, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::ShmemWorld;
use fcc_telemetry::alloc_count::{allocs_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const PES: usize = 2;
const WORKERS: usize = 2;

/// Warms a plan for `batch` samples, then returns the fewest allocations
/// and the workspace borrows of one further execution.
fn warm_execution_cost(batch: usize) -> (u64, u64) {
    let mut cfg = DlrmConfig::hw_eval(PES, batch, 2);
    cfg.table_rows = 64;
    cfg.dim = 16;
    cfg.pooling = 5;
    let tables = reference::build_tables(&cfg);
    let gen = reference::build_generator(&cfg);
    let mut layout = HeapLayout::new();
    let plan = FusedPlan::plan(&mut layout, &cfg, 2)
        .with_steal(StealPolicy::concurrent(3).with_workers(WORKERS));
    plan.prewarm(PES * WORKERS);
    let mut world = ShmemWorld::new(PES, layout).with_p2p_groups(vec![0, 1]);
    let mut exec = 0;
    let mut run = || {
        exec += 1;
        world.run(|ctx| {
            let local = &tables[ctx.me() * 2..(ctx.me() + 1) * 2];
            let (mode, kind) = (PoolingMode::Sum, ScheduleKind::CommAware);
            plan.execute(ctx, local, &gen, mode, kind, exec);
        });
    };
    run(); // thread stacks, TLS, ring pages
    let borrows_before = plan.workspace_borrows();
    // Thread spawning has OS jitter; the per-item component does not.
    let allocs = (0..5).map(|_| allocs_during(&mut run).0).min().unwrap();
    let borrows = (plan.workspace_borrows() - borrows_before) / 5;
    assert_eq!(plan.scratch_misses(), 0);
    assert_eq!(plan.steal_misses(), 0);
    for pe in 0..PES {
        let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, pe);
        assert_eq!(world.read(pe, plan.output), want, "batch {batch}, PE {pe}");
    }
    (allocs, borrows)
}

/// Warms a backward plan for `batch` samples, then returns the fewest
/// allocations of one further execution.
fn warm_backward_cost(batch: usize) -> u64 {
    let mut cfg = DlrmConfig::hw_eval(PES, batch, 2);
    cfg.table_rows = 64;
    cfg.dim = 16;
    cfg.pooling = 5;
    let gen = reference::build_generator(&cfg);
    let all = reference::build_tables(&cfg);
    let shards: Vec<Mutex<Vec<_>>> = all.chunks(2).map(|c| Mutex::new(c.to_vec())).collect();
    let grads = vec![0.01f32; cfg.local_batch() * PES * 2 * cfg.dim];
    let mut layout = HeapLayout::new();
    let mut plan = BackwardFusedPlan::plan(&mut layout, &cfg, 2);
    plan.set_steal(StealPolicy::concurrent(3).with_workers(WORKERS));
    let world = ShmemWorld::new(PES, layout).with_p2p_groups(vec![0, 1]);
    let mut exec = 0;
    let mut run = || {
        exec += 1;
        world.run(|ctx| {
            let mut tables = shards[ctx.me()].lock().unwrap();
            plan.execute(ctx, &grads, &mut tables, &gen, PoolingMode::Sum, 0.05, exec);
        });
    };
    run(); // thread stacks, TLS, ring pages, the steal arena, index buffers
    (0..5).map(|_| allocs_during(&mut run).0).min().unwrap()
}

#[test]
fn a_warm_execution_allocates_and_locks_independently_of_the_task_count() {
    let (small_allocs, small_borrows) = warm_execution_cost(16); // 32 WGs per PE
    let (large_allocs, large_borrows) = warm_execution_cost(256); // 512 WGs per PE
    assert_eq!(
        small_allocs, large_allocs,
        "allocations per warm execution moved with the task count"
    );
    let per_loop = (PES * WORKERS) as u64;
    assert_eq!((small_borrows, large_borrows), (per_loop, per_loop));
    assert_eq!(
        warm_backward_cost(16),
        warm_backward_cost(256),
        "a warm backward execution's allocations moved with the row count"
    );
}
