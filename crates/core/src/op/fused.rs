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
//! Data placement follows the paper's `{local batch, tables × dim}` output
//! layout — point-to-point slice writes land pre-shuffled.

use std::time::{Duration, Instant};

use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, ShmemError, SymFlags, SymSlice};

use crate::schedule::steal::{execute_stealing, StealArena, StealPolicy};
use crate::schedule::{self, ScheduleKind};
use crate::scratch::ScratchPool;
use crate::slice::SliceMap;

/// Symmetric-heap plan for the fused operator.
#[derive(Debug)]
pub struct FusedPlan {
    /// Output buffer: `{local_batch, total_tables × dim}` per PE.
    pub output: SymSlice<f32>,
    /// Per-source staging for network slices: `{num_wgs × dim}` in WG-id
    /// order (a slice's rows are contiguous here).
    pub(crate) staging: SymSlice<f32>,
    /// `WG_Done` completion counters, one per local slice.
    pub(crate) wg_done: SymFlags,
    /// `sliceRdy` flags, indexed `src_pe × num_slices + slice_id`, set at
    /// the destination.
    pub(crate) slice_rdy: SymFlags,
    pub(crate) map: SliceMap,
    pub(crate) cfg: DlrmConfig,
    /// Per-WG `dim`-wide pooling workspaces, reused across executions.
    pub(crate) scratch: ScratchPool,
    /// Slice-wide payload workspaces for elected last finishers.
    pub(crate) payload_scratch: ScratchPool,
    /// How the logical-WG order maps onto persistent WGs at runtime.
    pub(crate) steal: StealPolicy,
    /// Pooled per-execution deque sets (allocation-free steady state).
    pub(crate) steal_arena: StealArena,
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
        let total_tables = cfg.n_pes * cfg.tables_per_pe;
        FusedPlan {
            output: layout.alloc::<f32>(cfg.local_batch() * total_tables * cfg.dim),
            staging: layout.alloc::<f32>(map.num_wgs() as usize * cfg.dim),
            wg_done: layout.alloc_flags(map.num_slices()),
            slice_rdy: layout.alloc_flags(cfg.n_pes * map.num_slices()),
            map,
            cfg: cfg.clone(),
            scratch: ScratchPool::new(),
            payload_scratch: ScratchPool::new(),
            steal: StealPolicy::default(),
            steal_arena: StealArena::new(),
        }
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> FusedPlan {
        self.steal = steal;
        self
    }

    /// Replaces the work-stealing policy in place (call before running).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.steal = steal;
    }

    /// The active work-stealing policy.
    pub fn steal_policy(&self) -> StealPolicy {
        self.steal
    }

    /// Deque sets built because the arena had no pooled fit; flat across
    /// executions means stealing's steady state is allocation-free.
    pub fn steal_misses(&self) -> u64 {
        self.steal_arena.misses()
    }

    /// The slice partition in use.
    pub fn map(&self) -> &SliceMap {
        &self.map
    }

    /// Scratch-buffer allocations that missed the pools — zero growth
    /// across executions means the steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.scratch.misses() + self.payload_scratch.misses()
    }

    /// Pre-sizes the scratch pools for `concurrency` simultaneous workers
    /// (across every PE sharing this plan), so even the first execution's
    /// hot path never allocates and [`scratch_misses`](Self::scratch_misses)
    /// stays exactly zero.
    pub fn prewarm(&self, concurrency: usize) {
        let dim = self.cfg.dim;
        let max_payload = self
            .map
            .slices()
            .iter()
            .map(|s| s.len as usize * dim)
            .max()
            .unwrap_or(0);
        self.scratch.reserve(concurrency, dim);
        self.payload_scratch.reserve(concurrency, max_payload);
        // One deque set per PE thread that may execute concurrently.
        let workers = self.steal.effective_workers(self.map.num_wgs() as usize);
        let cap = (self.map.num_wgs() as usize) / workers + 1;
        self.steal_arena.prewarm(self.cfg.n_pes, workers, cap);
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
        assert!(exec >= 1, "executions are 1-based");
        assert_eq!(ctx.n_pes(), self.cfg.n_pes, "plan/world size mismatch");
        assert_eq!(
            local_tables.len(),
            self.cfg.tables_per_pe,
            "PE must hold its table shard"
        );
        let me = ctx.me() as u32;
        let num_slices = self.map.num_slices() as u64;
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));

        self.compute_and_put(ctx, local_tables, gen, mode, kind, exec);

        // Drain: wait for every slice destined to me, from every source.
        for src in 0..self.cfg.n_pes as u64 {
            for info in self.map.slices() {
                if info.dst_pe == me {
                    let idx = (src * num_slices + info.id as u64) as usize;
                    ctx.wait_until(self.slice_rdy, idx, |v| v >= exec);
                }
            }
        }
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
        assert!(exec >= 1, "executions are 1-based");
        assert_eq!(ctx.n_pes(), self.cfg.n_pes, "plan/world size mismatch");
        assert_eq!(
            local_tables.len(),
            self.cfg.tables_per_pe,
            "PE must hold its table shard"
        );
        let start = Instant::now();
        let me = ctx.me() as u32;
        let num_slices = self.map.num_slices() as u64;
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));

        self.compute_and_put(ctx, local_tables, gen, mode, kind, exec);

        // Deadline-aware drain: each wait gets whatever budget is left.
        // After the first miss, finish the drain with unbounded waits —
        // the writers are still live, correctness is never at stake, only
        // the latency report.
        let mut missed: Option<ShmemError> = None;
        for src in 0..self.cfg.n_pes as u64 {
            for info in self.map.slices() {
                if info.dst_pe == me {
                    let idx = (src * num_slices + info.id as u64) as usize;
                    if missed.is_none() {
                        let remaining = deadline.saturating_sub(start.elapsed());
                        match ctx.wait_until_timeout(self.slice_rdy, idx, remaining, |v| v >= exec)
                        {
                            Ok(_) => {}
                            Err(e) => missed = Some(e),
                        }
                    }
                    if missed.is_some() {
                        ctx.wait_until(self.slice_rdy, idx, |v| v >= exec);
                    }
                }
            }
        }
        match missed {
            None => Ok(()),
            Some(e) => Err(e),
        }
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
        let me = ctx.me() as u32;
        let dim = self.cfg.dim;
        let num_slices = self.map.num_slices() as u64;
        let order = schedule::order(&self.map, me, kind);
        let root = crate::op::ctx_root(exec);

        // The persistent kernel's task loop. Each task is one logical WG;
        // the comm-aware priority order seeds one Chase–Lev deque per
        // persistent WG, and a WG that drains its own deque steals a
        // sibling's local-slice tail instead of idling.
        let tasks: Vec<u64> = order.iter().map(|&wg| wg as u64).collect();
        execute_stealing(&self.steal_arena, &tasks, self.steal, |_worker, task| {
            let wg = task as u32;
            let info = *self.map.slice_of_wg(wg);
            let dst = info.dst_pe as usize;
            // Rayon workers are not the PE thread: re-seed the causal
            // context, qualified with this WG's slice publication.
            let _ctx_guard =
                fcc_shmem::scoped_ctx(root.with_slice(me as u64 * num_slices + info.id as u64));

            let (lt, sample) = self.map.decode_wg(wg);
            let global_table = me as usize * self.cfg.tables_per_pe + lt as usize;
            let bag = gen.bag(global_table, sample as usize);
            let mut pooled = self.scratch.take(dim);
            local_tables[lt as usize].pool_into(&bag, mode, &mut pooled);

            if dst == me as usize || ctx.is_p2p(dst) {
                // Zero-copy: store the vector straight into the destination
                // output buffer (own buffer, or a peer's over xGMI).
                let (dst_pe, off) = self.map.dst_offset(me, lt, sample, dim);
                debug_assert_eq!(dst_pe as usize, dst);
                ctx.put(self.output, off, &pooled, dst);
            } else {
                // Network path: stage locally; the last finisher ships the
                // slice.
                ctx.put(self.staging, wg as usize * dim, &pooled, me as usize);
            }

            // WG_Done: count completions (AcqRel, so every WG's stores are
            // visible to the elected last finisher); the unique last
            // finisher publishes the slice. The counter is monotonic
            // across executions, hence the `exec ×` target.
            let done = ctx.flag_fetch_add(self.wg_done, info.id as usize, 1, me as usize) + 1;
            if done == exec * info.len as u64 {
                if dst != me as usize && !ctx.is_p2p(dst) {
                    // Ship the whole slice with one strided PUT: rows are
                    // contiguous in staging, row-strided at the
                    // destination (`{local batch, tables × dim}` layout).
                    let first_wg = self.map.encode_wg(info.table, info.sample_start);
                    let mut payload = self.payload_scratch.take(info.len as usize * dim);
                    ctx.get(
                        &mut payload,
                        self.staging,
                        first_wg as usize * dim,
                        me as usize,
                    );
                    let (_, first_off) =
                        self.map.dst_offset(me, info.table, info.sample_start, dim);
                    let total_tables = self.cfg.n_pes * self.cfg.tables_per_pe;
                    ctx.put_strided(
                        self.output,
                        first_off,
                        total_tables * dim,
                        &payload,
                        dim,
                        dst,
                    );
                }
                // Payload before flag: the fence orders the PUTs.
                ctx.fence();
                let flag_idx = me as u64 * num_slices + info.id as u64;
                ctx.flag_store(self.slice_rdy, flag_idx as usize, exec, dst);
            }
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
