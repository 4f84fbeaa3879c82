//! The fused `embedding + All-to-All` operator — functional execution.
//!
//! One "persistent kernel" per PE (here: one rayon-parallel task set per PE
//! thread) pools embedding bags and communicates each *slice* of output the
//! moment its last workgroup finishes:
//!
//! * every logical WG pools one output vector;
//! * WGs contributing to a **P2P-reachable** destination store their vector
//!   straight into the destination buffer (`store_direct`, the zero-copy
//!   path of §3.3) — no staging, no copy kernel;
//! * WGs contributing to a **network** destination write into a local
//!   staging buffer; the slice's last finisher (elected through an atomic
//!   `WG_Done` update, no inter-WG barrier) PUTs the whole slice, fences,
//!   and PUTs the destination's `sliceRdy` flag;
//! * after its task loop drains, each PE waits on the `sliceRdy` flags of
//!   exactly the slices destined to it.
//!
//! That protocol is the shared core's (`op/protocol.rs`); this module adds
//! the embedding producer, the slice table of [`SliceMap`] and the
//! [`schedule::order`] task order. Data placement follows the paper's
//! `{local batch, tables × dim}` output layout — point-to-point slice
//! writes land pre-shuffled.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, ShmemError, SymSlice};

use crate::op::generic::FusedProducer;
use crate::op::protocol::FusedCore;
use crate::schedule::steal::StealPolicy;
use crate::schedule::{self, ScheduleKind};
use crate::slice::SliceMap;

/// Symmetric-heap plan for the fused operator.
#[derive(Debug)]
pub struct FusedPlan {
    /// Output buffer: `{local_batch, total_tables × dim}` per PE.
    pub output: SymSlice<f32>,
    core: FusedCore,
    map: SliceMap,
    cfg: DlrmConfig,
    /// `tasks[me][kind]`: PE `me`'s protocol tasks in its logical-WG
    /// order under [`kind_index`]`(kind)`, fixed at plan time.
    tasks: Vec<[Vec<u64>; 2]>,
}

fn kind_index(kind: ScheduleKind) -> usize {
    match kind {
        ScheduleKind::Oblivious => 0,
        ScheduleKind::CommAware => 1,
    }
}

/// Elements of the `{local_batch, total_tables × dim}` output buffer.
fn output_len(cfg: &DlrmConfig) -> usize {
    cfg.local_batch() * cfg.n_pes * cfg.tables_per_pe * cfg.dim
}

/// The paper's producer: item = logical WG id, pooled from the calling
/// PE's table shard, landing in the `{local batch, tables × dim}` layout.
pub(crate) struct EmbeddingProducer<'a> {
    map: &'a SliceMap,
    cfg: &'a DlrmConfig,
    local_tables: &'a [EmbeddingTable],
    gen: &'a BatchGenerator,
    mode: PoolingMode,
}

impl FusedProducer for EmbeddingProducer<'_> {
    fn dim(&self) -> usize {
        self.cfg.dim
    }
    fn num_items(&self, _me: usize) -> usize {
        self.map.num_wgs() as usize
    }
    fn output_len(&self) -> usize {
        output_len(self.cfg)
    }
    fn destination(&self, me: usize, item: usize) -> (usize, usize) {
        let (lt, sample) = self.map.decode_wg(item as u32);
        let (dst, off) = self.map.dst_offset(me as u32, lt, sample, self.cfg.dim);
        (dst as usize, off)
    }
    fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
        self.produce_with(me, item, &mut Vec::new(), out);
    }
    fn produce_with(&self, me: usize, item: usize, bag: &mut Vec<u32>, out: &mut [f32]) {
        let (lt, sample) = self.map.decode_wg(item as u32);
        let global_table = me * self.cfg.tables_per_pe + lt as usize;
        self.gen.bag_into(global_table, sample as usize, bag);
        self.local_tables[lt as usize].pool_into(bag, self.mode, out);
    }
}

impl FusedPlan {
    /// Allocates all buffers in `layout` for `cfg` with the given slice
    /// width.
    pub fn plan(layout: &mut HeapLayout, cfg: &DlrmConfig, slice_embeddings: usize) -> FusedPlan {
        let map = SliceMap::new(
            cfg.n_pes,
            cfg.tables_per_pe,
            cfg.global_batch,
            slice_embeddings,
        );
        let core = FusedCore::new(layout, cfg.dim, cfg.pooling, output_len(cfg), map.table());
        let tasks = (0..cfg.n_pes as u32)
            .map(|me| {
                [ScheduleKind::Oblivious, ScheduleKind::CommAware].map(|kind| {
                    let order = schedule::order(&map, me, kind);
                    order.iter().map(|&wg| map.task(wg)).collect()
                })
            })
            .collect();
        FusedPlan {
            output: core.output(),
            core,
            map,
            cfg: cfg.clone(),
            tasks,
        }
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> FusedPlan {
        self.core.set_steal(steal);
        self
    }

    /// Replaces the work-stealing policy in place (call before running).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.core.set_steal(steal);
    }

    /// The active work-stealing policy.
    pub fn steal_policy(&self) -> StealPolicy {
        self.core.steal_policy()
    }

    /// Deque sets built because the arena had no pooled fit; flat across
    /// executions means stealing's steady state is allocation-free.
    pub fn steal_misses(&self) -> u64 {
        self.core.steal_misses()
    }

    /// The slice partition in use.
    pub fn map(&self) -> &SliceMap {
        &self.map
    }

    /// Workspace re-allocations: task loops during which a worker's
    /// buffer had to grow — zero growth across executions means the steady
    /// state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.core.scratch_misses()
    }

    /// Times a worker borrowed its workspace: once per persistent WG per
    /// task loop, however many logical WGs the loop runs.
    pub fn workspace_borrows(&self) -> u64 {
        self.core.workspace_borrows()
    }

    /// Pre-sizes the steal arena, so even the first execution's hot path
    /// never allocates and [`scratch_misses`](Self::scratch_misses) and
    /// [`steal_misses`](Self::steal_misses) stay exactly zero. Every
    /// (PE, persistent WG) owns a workspace sized at plan time, whatever
    /// the `concurrency`; the argument is kept for its callers.
    pub fn prewarm(&self, concurrency: usize) {
        let _ = concurrency;
        self.core.prewarm(0);
    }

    /// The shared protocol core, for the fault-tolerant wrapper's hooks.
    pub(crate) fn core(&self) -> &FusedCore {
        &self.core
    }

    /// This PE's embedding producer for one execution. `local_tables` are
    /// the `tables_per_pe` tables the PE owns (global indices `me×tpp ..`).
    pub(crate) fn producer<'a>(
        &'a self,
        local_tables: &'a [EmbeddingTable],
        gen: &'a BatchGenerator,
        mode: PoolingMode,
    ) -> EmbeddingProducer<'a> {
        assert_eq!(
            local_tables.len(),
            self.cfg.tables_per_pe,
            "PE must hold its table shard"
        );
        EmbeddingProducer {
            map: &self.map,
            cfg: &self.cfg,
            local_tables,
            gen,
            mode,
        }
    }

    /// The task list of PE `me`: one protocol task per logical WG, in the
    /// comm-aware (or oblivious) priority order.
    pub(crate) fn tasks(&self, me: usize, kind: ScheduleKind) -> &[u64] {
        &self.tasks[me][kind_index(kind)]
    }

    /// Executes the fused operator on the calling PE.
    ///
    /// `local_tables` are the `tables_per_pe` tables this PE owns (global
    /// indices `me×tpp ..`). `exec` is 1-based and must increase across
    /// reuses of the plan; reuses within one `run` need an interposed
    /// `ctx.barrier_all()`.
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
    ) {
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));
        self.compute_and_put(ctx, local_tables, gen, mode, kind, exec);
        self.core.table().drain(ctx.me(), |s| {
            self.core.wait_ready(ctx, s, exec);
            ControlFlow::Continue(())
        });
    }

    /// Deadline-aware [`execute`](Self::execute) — the serving-path hook.
    ///
    /// The compute + PUT phase runs exactly as in `execute`; the drain
    /// phase polls each `sliceRdy` flag through
    /// [`PeCtx::wait_until_timeout`] against the *remaining* budget of
    /// `deadline` (measured from entry). A drain wait that outlives the
    /// budget does not abandon the protocol — the remaining slices are
    /// still collected with unbounded waits, so the plan stays reusable
    /// and the output is complete — but the call reports the miss as
    /// [`ShmemError::WaitTimeout`] so a serving layer can count the batch
    /// against its SLO instead of silently absorbing the overrun.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_deadline(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
        deadline: Duration,
    ) -> Result<(), ShmemError> {
        let start = Instant::now();
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));
        self.compute_and_put(ctx, local_tables, gen, mode, kind, exec);

        // Each wait gets whatever budget is left. After the first miss,
        // finish the drain with unbounded waits — the writers are still
        // live, correctness is never at stake, only the latency report.
        let mut missed: Option<ShmemError> = None;
        self.core.table().drain(ctx.me(), |s| {
            if missed.is_none() {
                let remaining = deadline.saturating_sub(start.elapsed());
                missed = self.core.wait_ready_timeout(ctx, s, exec, remaining).err();
            }
            if missed.is_some() {
                self.core.wait_ready(ctx, s, exec);
            }
            ControlFlow::Continue(())
        });
        missed.map_or(Ok(()), Err)
    }

    /// The compute + slice-PUT phase shared by [`execute`](Self::execute)
    /// and [`execute_deadline`](Self::execute_deadline).
    fn compute_and_put(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
    ) {
        let producer = self.producer(local_tables, gen, mode);
        let tasks = self.tasks(ctx.me(), kind);
        self.core.run_tasks(ctx, &producer, tasks, exec, |s, ws| {
            self.core.ship(ctx, &producer, s, exec, ws)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::reference;
    use fcc_shmem::ShmemWorld;

    fn tiny_cfg(n_pes: usize, batch: usize, tables_per_pe: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
        cfg.table_rows = 64;
        cfg.dim = 16;
        cfg.pooling = 5;
        cfg
    }

    fn check(
        cfg: &DlrmConfig,
        slice_embeddings: usize,
        mode: PoolingMode,
        kind: ScheduleKind,
        p2p_groups: Option<Vec<u32>>,
    ) {
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, cfg, slice_embeddings);
        let mut world = ShmemWorld::new(cfg.n_pes, layout);
        if let Some(groups) = p2p_groups {
            world = world.with_p2p_groups(groups);
        }
        let tables = reference::build_tables(cfg);
        let gen = reference::build_generator(cfg);

        world.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute(ctx, local, &gen, mode, kind, 1);
        });

        for dst in 0..cfg.n_pes {
            let got = world.read(dst, plan.output);
            let want = reference::expected_output(cfg, &tables, &gen, mode, dst);
            assert_eq!(got, want, "dst {dst} mismatch");
        }
    }

    #[test]
    fn fused_matches_reference_two_pes_network() {
        // Distinct P2P groups force the staging + PUT + sliceRdy path.
        let cfg = tiny_cfg(2, 8, 2);
        check(
            &cfg,
            2,
            PoolingMode::Sum,
            ScheduleKind::CommAware,
            Some(vec![0, 1]),
        );
    }

    #[test]
    fn fused_matches_reference_two_pes_p2p() {
        // Same group: the zero-copy store path.
        let cfg = tiny_cfg(2, 8, 2);
        check(&cfg, 2, PoolingMode::Sum, ScheduleKind::CommAware, None);
    }

    #[test]
    fn fused_matches_reference_four_pes_mixed() {
        // Two dual-GPU nodes: intra-node zero-copy, inter-node PUTs.
        let cfg = tiny_cfg(4, 16, 1);
        check(
            &cfg,
            2,
            PoolingMode::Sum,
            ScheduleKind::CommAware,
            Some(vec![0, 0, 1, 1]),
        );
    }

    #[test]
    fn fused_mean_pooling() {
        let cfg = tiny_cfg(2, 8, 2);
        check(
            &cfg,
            4,
            PoolingMode::Mean,
            ScheduleKind::CommAware,
            Some(vec![0, 1]),
        );
    }

    #[test]
    fn fused_oblivious_schedule_same_result() {
        let cfg = tiny_cfg(2, 8, 2);
        check(
            &cfg,
            2,
            PoolingMode::Sum,
            ScheduleKind::Oblivious,
            Some(vec![0, 1]),
        );
    }

    #[test]
    fn fused_slice_width_exceeding_shard() {
        let cfg = tiny_cfg(2, 8, 1);
        check(
            &cfg,
            64,
            PoolingMode::Sum,
            ScheduleKind::CommAware,
            Some(vec![0, 1]),
        );
    }

    #[test]
    fn fused_slice_width_one() {
        let cfg = tiny_cfg(2, 4, 2);
        check(
            &cfg,
            1,
            PoolingMode::Sum,
            ScheduleKind::CommAware,
            Some(vec![0, 1]),
        );
    }

    #[test]
    fn fused_single_pe_degenerates_to_local_pooling() {
        let cfg = tiny_cfg(1, 4, 3);
        check(&cfg, 2, PoolingMode::Sum, ScheduleKind::CommAware, None);
    }

    #[test]
    fn deadline_generous_budget_completes_ok() {
        let cfg = tiny_cfg(2, 8, 2);
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, &cfg, 2);
        let mut world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        world.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute_deadline(
                ctx,
                local,
                &gen,
                PoolingMode::Sum,
                ScheduleKind::CommAware,
                1,
                std::time::Duration::from_secs(30),
            )
            .expect("generous deadline must not be missed");
        });
        for dst in 0..2 {
            let got = world.read(dst, plan.output);
            let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
            assert_eq!(got, want, "dst {dst} mismatch");
        }
    }

    #[test]
    fn deadline_miss_still_completes_and_stays_reusable() {
        // A zero budget may or may not be missed depending on who drains
        // first — the contract under test is that *either way* the output
        // is complete and the plan remains reusable for the next exec.
        let cfg = tiny_cfg(2, 8, 1);
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, &cfg, 2);
        let mut world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        for exec in 1..=2u64 {
            world.run(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                let res = plan.execute_deadline(
                    ctx,
                    local,
                    &gen,
                    PoolingMode::Sum,
                    ScheduleKind::CommAware,
                    exec,
                    std::time::Duration::ZERO,
                );
                if let Err(e) = res {
                    assert!(
                        matches!(e, fcc_shmem::ShmemError::WaitTimeout { .. }),
                        "unexpected error: {e}"
                    );
                }
            });
            for dst in 0..2 {
                let got = world.read(dst, plan.output);
                let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
                assert_eq!(got, want, "exec {exec}, dst {dst}");
            }
        }
    }

    #[test]
    fn fused_sequential_steal_schedules_match_reference() {
        // The deterministic steal interleaving perturbs execution order
        // only — every seed must still produce the reference output.
        let cfg = tiny_cfg(2, 8, 2);
        for seed in 0..4u64 {
            let mut layout = HeapLayout::new();
            let mut plan = FusedPlan::plan(&mut layout, &cfg, 2);
            plan.set_steal(crate::schedule::steal::StealPolicy::sequential(seed));
            let mut world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
            let tables = reference::build_tables(&cfg);
            let gen = reference::build_generator(&cfg);
            world.run(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                plan.execute(
                    ctx,
                    local,
                    &gen,
                    PoolingMode::Sum,
                    ScheduleKind::CommAware,
                    1,
                );
            });
            for dst in 0..2 {
                let got = world.read(dst, plan.output);
                let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
                assert_eq!(got, want, "seed {seed}, dst {dst}");
            }
        }
    }

    #[test]
    fn fused_steal_arena_steady_state_hits_the_pool() {
        let cfg = tiny_cfg(2, 8, 1);
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, &cfg, 2);
        plan.prewarm(16);
        let world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        for exec in 1..=4u64 {
            world.run(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                plan.execute(
                    ctx,
                    local,
                    &gen,
                    PoolingMode::Sum,
                    ScheduleKind::CommAware,
                    exec,
                );
            });
        }
        assert_eq!(
            plan.steal_misses(),
            0,
            "prewarmed arena must absorb every execution"
        );
    }

    #[test]
    fn fused_reusable_across_runs() {
        let cfg = tiny_cfg(2, 8, 1);
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, &cfg, 2);
        let mut world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        for exec in 1..=3u64 {
            world.run(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                plan.execute(
                    ctx,
                    local,
                    &gen,
                    PoolingMode::Sum,
                    ScheduleKind::CommAware,
                    exec,
                );
            });
            for dst in 0..2 {
                let got = world.read(dst, plan.output);
                let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
                assert_eq!(got, want, "exec {exec}, dst {dst}");
            }
        }
    }
}
