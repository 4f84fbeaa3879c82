//! The zero-copy fused operator for all-P2P nodes (§3.3, Fig. 14).
//!
//! When every destination is peer-to-peer reachable (4 GPUs on xGMI),
//! slices and persistence are unnecessary: "all the communication is
//! performed at GPU thread granularity (not slice) using P2P GPU stores"
//! and a zero-copy fused kernel is launched per table, like the baseline.
//! Each logical WG pools its vector and stores it *directly* at the
//! destination offset; completion is a single arrival counter per PE.

use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymFlags, SymSlice};

use crate::schedule::steal::{execute_stealing, StealArena, StealPolicy};
use crate::scratch::{fit, Workspace, WorkspaceGuard, Workspaces};
use crate::slice::SliceMap;

/// Symmetric-heap plan for the zero-copy fused operator.
#[derive(Debug)]
pub struct ZeroCopyPlan {
    /// Output buffer: `{local_batch, total_tables × dim}` per PE.
    pub output: SymSlice<f32>,
    /// Arrival counter: one per PE, bumped once per incoming vector.
    arrivals: SymFlags,
    map: SliceMap,
    cfg: DlrmConfig,
    /// Every table kernel's task list: the global batch, in order.
    samples: Vec<u64>,
    /// One workspace per (PE, persistent WG), sized for the steal policy.
    workspaces: Workspaces,
    /// How per-sample tasks map onto persistent WGs at runtime.
    steal: StealPolicy,
    /// Pooled per-execution deque sets (allocation-free steady state).
    steal_arena: StealArena,
}

impl ZeroCopyPlan {
    /// Allocates the output buffer and counter in `layout`.
    pub fn plan(layout: &mut HeapLayout, cfg: &DlrmConfig) -> ZeroCopyPlan {
        // Slice width is irrelevant here (communication is per-vector);
        // the map is used only for offsets.
        let map = SliceMap::new(cfg.n_pes, cfg.tables_per_pe, cfg.global_batch, 1);
        let total_tables = cfg.n_pes * cfg.tables_per_pe;
        let mut plan = ZeroCopyPlan {
            output: layout.alloc::<f32>(cfg.local_batch() * total_tables * cfg.dim),
            arrivals: layout.alloc_flags(1),
            map,
            cfg: cfg.clone(),
            samples: (0..cfg.global_batch as u64).collect(),
            workspaces: Workspaces::new(cfg.n_pes, 1),
            steal: StealPolicy::default(),
            steal_arena: StealArena::new(),
        };
        plan.set_steal(plan.steal);
        plan
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> ZeroCopyPlan {
        self.set_steal(steal);
        self
    }

    /// Replaces the work-stealing policy in place (call before running)
    /// and rebuilds the workspaces for its worker count.
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.steal = steal;
        let workers = steal.effective_workers(self.samples.len());
        let cfg = &self.cfg;
        self.workspaces = Workspaces::sized(cfg.n_pes, workers, cfg.dim, cfg.pooling, 0);
    }

    /// Workspace re-allocations — zero growth across executions means the
    /// steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.workspaces.misses()
    }

    /// Vectors each PE receives per execution.
    fn expected_arrivals(&self) -> u64 {
        (self.cfg.n_pes * self.cfg.tables_per_pe * self.cfg.local_batch()) as u64
    }

    /// Executes the zero-copy operator on the calling PE. Requires every
    /// PE pair to be P2P (asserted). `exec` is 1-based and monotonic, as in
    /// [`crate::op::fused::FusedPlan::execute`].
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        exec: u64,
    ) {
        assert!(exec >= 1, "executions are 1-based");
        assert_eq!(ctx.n_pes(), self.cfg.n_pes, "plan/world size mismatch");
        let me = ctx.me();
        for pe in 0..ctx.n_pes() {
            assert!(
                ctx.is_p2p(pe),
                "zero-copy operator requires an all-P2P node (PE {pe} unreachable)"
            );
        }

        let root = crate::op::ctx_root(exec);
        let _ctx_guard = fcc_shmem::scoped_ctx(root);

        // One "kernel" per table, as the paper launches them; vectors go
        // straight to their destination. There are no slices here, so the
        // per-publication qualifier is the table kernel itself —
        // `global_table` encodes the owning PE, keeping it src-unique.
        let dim = self.cfg.dim;
        let borrow = |worker| self.workspaces.borrow(me, worker);
        for (lt, table) in local_tables.iter().enumerate() {
            let global_table = me * self.cfg.tables_per_pe + lt;
            let pool_and_store = |ws: &mut WorkspaceGuard<'_>, task: u64| {
                let ws: &mut Workspace = ws;
                let sample = task as usize;
                let _ctx_guard = fcc_shmem::scoped_ctx(root.with_slice(global_table as u64));
                gen.bag_into(global_table, sample, &mut ws.bag);
                let pooled = fit(&mut ws.vector, dim);
                table.pool_into(&ws.bag, mode, pooled);
                let (dst, off) = self
                    .map
                    .dst_offset(me as u32, lt as u32, sample as u32, dim);
                ctx.store_direct(self.output, off, pooled, dst as usize);
                ctx.flag_fetch_add(self.arrivals, 0, 1, dst as usize);
            };
            let (arena, samples) = (&self.steal_arena, &self.samples);
            execute_stealing(arena, samples, self.steal, borrow, pool_and_store);
        }

        // Every vector destined to me has landed when the counter reaches
        // the per-execution total (monotonic across executions).
        let target = exec * self.expected_arrivals();
        ctx.wait_until(self.arrivals, 0, |v| v >= target);
    }
}

#[cfg(test)]
// Indexing several parallel collections by PE reads clearer than nested
// iterator adaptors in these comparisons.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::op::reference;
    use fcc_shmem::ShmemWorld;

    fn tiny_cfg(n_pes: usize, batch: usize, tables_per_pe: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
        cfg.table_rows = 64;
        cfg.dim = 12;
        cfg.pooling = 4;
        cfg
    }

    fn check(cfg: &DlrmConfig, mode: PoolingMode) {
        let mut layout = HeapLayout::new();
        let plan = ZeroCopyPlan::plan(&mut layout, cfg);
        let mut world = ShmemWorld::new(cfg.n_pes, layout);
        let tables = reference::build_tables(cfg);
        let gen = reference::build_generator(cfg);
        world.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute(ctx, local, &gen, mode, 1);
        });
        for dst in 0..cfg.n_pes {
            let got = world.read(dst, plan.output);
            let want = reference::expected_output(cfg, &tables, &gen, mode, dst);
            assert_eq!(got, want, "dst {dst}");
        }
    }

    #[test]
    fn zero_copy_matches_reference_quad_gpu() {
        check(&tiny_cfg(4, 8, 2), PoolingMode::Sum);
    }

    #[test]
    fn zero_copy_mean_pooling() {
        check(&tiny_cfg(4, 8, 2), PoolingMode::Mean);
    }

    #[test]
    fn zero_copy_two_gpus() {
        check(&tiny_cfg(2, 6, 3), PoolingMode::Sum);
    }

    #[test]
    fn zero_copy_reusable() {
        let cfg = tiny_cfg(2, 4, 1);
        let mut layout = HeapLayout::new();
        let plan = ZeroCopyPlan::plan(&mut layout, &cfg);
        let mut world = ShmemWorld::new(2, layout);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        for exec in 1..=3u64 {
            world.run(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                plan.execute(ctx, local, &gen, PoolingMode::Sum, exec);
            });
            let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, 0);
            assert_eq!(world.read(0, plan.output), want, "exec {exec}");
        }
    }

    #[test]
    // PE threads assert on non-P2P destinations; the scope surfaces the
    // panic as its own payload.
    #[should_panic(expected = "a scoped thread panicked")]
    fn zero_copy_requires_p2p() {
        let cfg = tiny_cfg(2, 4, 1);
        let mut layout = HeapLayout::new();
        let plan = ZeroCopyPlan::plan(&mut layout, &cfg);
        let world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        world.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute(ctx, local, &gen, PoolingMode::Sum, 1);
        });
    }
}
