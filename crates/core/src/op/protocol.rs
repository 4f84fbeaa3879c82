//! The fused protocol core: the paper's one recipe (§3), implemented once.
//!
//! A persistent-kernel task loop produces one vector per logical work
//! item; items bound for a **P2P-reachable** destination are stored
//! straight into its output buffer, items bound for a **network**
//! destination are staged locally; the slice's last finisher — elected
//! through an atomic `WG_Done` update, no inter-WG barrier — ships the
//! slice, fences, and sets the destination's `sliceRdy` flag; afterwards
//! every PE drains the flags of exactly the slices destined to it.
//!
//! [`FusedCore`] owns the buffers, flag banks, slice tables, worker
//! workspaces and steal state of that recipe and exposes its two routines,
//! [`run_tasks`](FusedCore::run_tasks) and [`drain`](FusedCore::drain).
//! What varies between the operators built on it is passed in:
//!
//! * the **producer** ([`FusedProducer`]: what an item computes and where
//!   it lands) and the plan-time **slice table** derived from it;
//! * the **item order** handed to the task loop;
//! * the **ship** hook the elected last finisher of a network slice runs,
//!   on that worker's own workspace ([`FusedCore::ship`] on the clean
//!   path, the fault ladder of `ResilientFusedPlan`), and the **wait**
//!   closure the drain applies to each flag (spin, deadline, or timeout +
//!   verify + abort).
//!
//! Each persistent WG borrows its [`Workspace`] once per task loop and
//! keeps it across logical WGs, so an item costs no lock and no
//! allocation (`scratch.rs`).
//!
//! Not built on this core, on purpose: `ZeroCopyPlan` signals with one
//! arrival counter per PE (§3.3), `ElasticFusedPlan` runs slice-granular
//! jobs with no election, and `MoePlan` / `AllGatherGemmPlan` /
//! `BackwardFusedPlan` publish chunk-sequentially.

use std::ops::ControlFlow;
use std::time::Duration;

use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, ShmemError, SymFlags, SymSlice};

use crate::op::generic::FusedProducer;
use crate::schedule::steal::{execute_stealing, StealArena, StealPolicy};
use crate::scratch::{fit, Workspace, WorkspaceGuard, Workspaces};

/// One slice: `len` consecutive items of source PE `src`, from
/// `first_item`, all bound for `dst`. What the ship hook and the drain's
/// wait closure are handed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slice {
    pub src: usize,
    /// Position in `src`'s slice table — the `WG_Done` index.
    pub index: usize,
    pub first_item: usize,
    pub len: usize,
    pub dst: usize,
    /// `src × slices_per_source + index`: the `sliceRdy` index at `dst`
    /// and the slice qualifier of the trace context.
    pub flag: usize,
}

/// Buffers, flag banks, slice tables, workspaces and steal state of one
/// fused operator plan; see the module doc.
#[derive(Debug)]
pub(crate) struct FusedCore {
    /// Per-PE output buffer the producer's destinations index.
    output: SymSlice<f32>,
    /// Per-source staging for network slices, `{items × dim}` in item
    /// order (a slice's rows are contiguous here).
    staging: SymSlice<f32>,
    /// `WG_Done` completion counters, one per local slice.
    wg_done: SymFlags,
    /// `sliceRdy` flags, indexed by [`Slice::flag`], set at the
    /// destination.
    slice_rdy: SymFlags,
    /// Per source PE: its slice table, tiling `0..num_items` in order.
    slices: Vec<Vec<Slice>>,
    /// Per source PE: item → index into its slice table.
    slice_of_item: Vec<Vec<u32>>,
    dim: usize,
    /// Index-buffer elements the producer needs per item.
    bag_len: usize,
    /// One workspace per (PE, persistent WG), sized for the steal policy.
    workspaces: Workspaces,
    /// How the item order maps onto persistent WGs at runtime.
    steal: StealPolicy,
    /// Pooled per-execution deque sets (allocation-free steady state).
    steal_arena: StealArena,
}

impl FusedCore {
    /// Allocates output, staging and both flag banks in `layout`, and the
    /// workspaces (`bag_len` index elements per item) on the host heap.
    /// `runs[src]` lists source PE `src`'s slices as `(len, dst)` in item
    /// order: slice `k` starts where slice `k − 1` ends.
    pub(crate) fn new(
        layout: &mut HeapLayout,
        dim: usize,
        bag_len: usize,
        output_len: usize,
        runs: &[Vec<(usize, usize)>],
    ) -> FusedCore {
        let n_pes = runs.len();
        let slices_per_source = runs.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut slices = vec![Vec::new(); n_pes];
        let mut slice_of_item = vec![Vec::new(); n_pes];
        for (src, table) in runs.iter().enumerate() {
            for (index, &(len, dst)) in table.iter().enumerate() {
                assert!(dst < n_pes, "destination PE out of range");
                let first_item = slice_of_item[src].len();
                slice_of_item[src].resize(first_item + len, index as u32);
                let flag = src * slices_per_source + index;
                slices[src].push(Slice {
                    src,
                    index,
                    first_item,
                    len,
                    dst,
                    flag,
                });
            }
        }
        let max_items = slice_of_item.iter().map(Vec::len).max().unwrap_or(0);
        let mut core = FusedCore {
            output: layout.alloc::<f32>(output_len),
            staging: layout.alloc::<f32>(max_items * dim),
            wg_done: layout.alloc_flags(slices_per_source),
            slice_rdy: layout.alloc_flags(n_pes * slices_per_source),
            slices,
            slice_of_item,
            dim,
            bag_len,
            workspaces: Workspaces::new(n_pes, 1),
            steal: StealPolicy::default(),
            steal_arena: StealArena::new(),
        };
        core.set_steal(core.steal);
        core
    }

    /// Most items any source PE computes.
    fn max_items(&self) -> usize {
        self.slice_of_item.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Elements of the widest slice's payload.
    pub(crate) fn widest_payload(&self) -> usize {
        let widest = self.slices.iter().flatten().map(|s| s.len).max();
        widest.unwrap_or(0) * self.dim
    }

    pub(crate) fn output(&self) -> SymSlice<f32> {
        self.output
    }

    /// Source PE `me`'s slice table.
    pub(crate) fn slices(&self, me: usize) -> &[Slice] {
        &self.slices[me]
    }

    /// Installs `steal` and rebuilds the workspaces for its worker count:
    /// one per (PE, persistent WG), each sized for an item and the widest
    /// slice.
    pub(crate) fn set_steal(&mut self, steal: StealPolicy) {
        self.steal = steal;
        let workers = steal.effective_workers(self.max_items());
        let (n_pes, payload) = (self.slices.len(), self.widest_payload());
        self.workspaces = Workspaces::sized(n_pes, workers, self.dim, self.bag_len, payload);
    }

    pub(crate) fn steal_policy(&self) -> StealPolicy {
        self.steal
    }

    /// Deque sets built because the arena had no pooled fit.
    pub(crate) fn steal_misses(&self) -> u64 {
        self.steal_arena.misses()
    }

    /// Workspace borrows during which a buffer had to grow.
    pub(crate) fn scratch_misses(&self) -> u64 {
        self.workspaces.misses()
    }

    /// Workspace borrows so far: one per worker per task loop (plus the
    /// fault ladder's per-drain and per-fallback borrows), never per item.
    pub(crate) fn workspace_borrows(&self) -> u64 {
        self.workspaces.borrows()
    }

    /// Sizes the steal arena for one deque set per PE and every
    /// workspace's payload for `min_payload` elements if that exceeds the
    /// widest slice, so even the first execution's hot path never
    /// allocates. Call after [`set_steal`](Self::set_steal), which
    /// rebuilds the workspaces at their plan-time size.
    pub(crate) fn prewarm(&self, min_payload: usize) {
        let payload = self.widest_payload().max(min_payload);
        self.workspaces.reserve(self.dim, self.bag_len, payload);
        let items = self.max_items();
        let workers = self.steal.effective_workers(items);
        self.steal_arena
            .prewarm(self.slices.len(), workers, items / workers + 1);
    }

    /// Worker `worker`'s workspace on PE `pe`, for the loops the fault
    /// ladder runs on the PE thread outside [`run_tasks`](Self::run_tasks).
    pub(crate) fn workspace(&self, pe: usize, worker: usize) -> WorkspaceGuard<'_> {
        self.workspaces.borrow(pe, worker)
    }

    /// The persistent kernel's task loop on the calling PE: each task is
    /// one item id; `tasks` in priority order seed one Chase–Lev deque per
    /// persistent WG, and a WG that drains its own deque steals a
    /// sibling's tail instead of idling. Each WG holds its workspace for
    /// the whole loop. `ship` runs on the elected last finisher of every
    /// *network* slice, with that WG's workspace, and must end by
    /// [`publish`](Self::publish)ing it (or giving the execution up);
    /// own-PE and P2P slices are published here.
    ///
    /// `exec` is 1-based and must increase across reuses of the plan.
    pub(crate) fn run_tasks<P: FusedProducer>(
        &self,
        ctx: &PeCtx<'_>,
        producer: &P,
        tasks: &[u64],
        exec: u64,
        ship: impl Fn(&Slice, &mut Workspace) + Sync,
    ) {
        assert!(exec >= 1, "executions are 1-based");
        assert_eq!(ctx.n_pes(), self.slices.len(), "plan/world size mismatch");
        let me = ctx.me();
        let dim = self.dim;
        let root = crate::op::ctx_root(exec);
        let borrow = |worker| self.workspaces.borrow(me, worker);
        let item_body = |ws: &mut WorkspaceGuard<'_>, task: u64| {
            let item = task as usize;
            let s = &self.slices[me][self.slice_of_item[me][item] as usize];
            // Rayon workers are not the PE thread: re-seed the causal
            // context, qualified with this item's slice publication.
            let _ctx_guard = fcc_shmem::scoped_ctx(root.with_slice(s.flag as u64));
            let ws: &mut Workspace = ws;
            let vector = fit(&mut ws.vector, dim);
            producer.produce_with(me, item, &mut ws.bag, vector);

            let network = s.dst != me && !ctx.is_p2p(s.dst);
            if network {
                // Stage locally; the last finisher ships the slice.
                ctx.put(self.staging, item * dim, vector, me);
            } else {
                // Zero-copy: store the vector straight into the destination
                // output buffer (own buffer, or a peer's over xGMI).
                let (dst, off) = producer.destination(me, item);
                debug_assert_eq!(dst, s.dst);
                ctx.put(self.output, off, vector, dst);
            }

            // WG_Done: count completions (AcqRel, so every WG's stores are
            // visible to the elected last finisher); the unique last
            // finisher publishes the slice. The counter is monotonic
            // across executions, hence the `exec ×` target.
            let done = ctx.flag_fetch_add(self.wg_done, s.index, 1, me) + 1;
            if done == exec * s.len as u64 {
                if network {
                    ship(s, ws);
                } else {
                    ctx.fence();
                    self.publish(ctx, s, exec);
                }
            }
        };
        execute_stealing(&self.steal_arena, tasks, self.steal, borrow, item_body);
    }

    /// The fault-oblivious ship hook: stage out, PUT every row, fence,
    /// flag — payload before flag, the fence orders the PUTs.
    pub(crate) fn ship<P: FusedProducer>(
        &self,
        ctx: &PeCtx<'_>,
        producer: &P,
        s: &Slice,
        exec: u64,
        ws: &mut Workspace,
    ) {
        let payload = fit(&mut ws.payload, s.len * self.dim);
        self.staged(ctx, s, payload);
        self.put_rows(ctx, producer, s, payload);
        ctx.fence();
        self.publish(ctx, s, exec);
    }

    /// One bulk read of the slice's contiguous staging rows into
    /// `payload` (`s.len × dim` elements).
    pub(crate) fn staged(&self, ctx: &PeCtx<'_>, s: &Slice, payload: &mut [f32]) {
        ctx.get(payload, self.staging, s.first_item * self.dim, s.src);
    }

    /// One PUT per row of `payload`, each at its item's destination offset.
    pub(crate) fn put_rows<P: FusedProducer>(
        &self,
        ctx: &PeCtx<'_>,
        producer: &P,
        s: &Slice,
        payload: &[f32],
    ) {
        for (row, vector) in payload.chunks_exact(self.dim).enumerate() {
            let (_, off) = producer.destination(s.src, s.first_item + row);
            ctx.put(self.output, off, vector, s.dst);
        }
    }

    /// Sets the slice's `sliceRdy` flag at its destination. The caller has
    /// fenced its payload.
    pub(crate) fn publish(&self, ctx: &PeCtx<'_>, s: &Slice, exec: u64) {
        ctx.flag_store(self.slice_rdy, s.flag, exec, s.dst);
    }

    /// The drain: applies `wait` to every slice destined to `me`, from
    /// every source, until one call breaks.
    pub(crate) fn drain(&self, me: usize, mut wait: impl FnMut(&Slice) -> ControlFlow<()>) {
        for s in self.slices.iter().flatten() {
            if s.dst == me && wait(s).is_break() {
                return;
            }
        }
    }

    /// Spins until `s` is published for `exec`.
    pub(crate) fn wait_ready(&self, ctx: &PeCtx<'_>, s: &Slice, exec: u64) {
        ctx.wait_until(self.slice_rdy, s.flag, |v| v >= exec);
    }

    /// [`wait_ready`](Self::wait_ready) bounded by `timeout`.
    pub(crate) fn wait_ready_timeout(
        &self,
        ctx: &PeCtx<'_>,
        s: &Slice,
        exec: u64,
        timeout: Duration,
    ) -> Result<u64, ShmemError> {
        ctx.wait_until_timeout(self.slice_rdy, s.flag, timeout, |v| v >= exec)
    }
}

#[cfg(test)]
mod tests {
    use fcc_dlrm::{DlrmConfig, PoolingMode};
    use fcc_net::FaultPlan;
    use fcc_shmem::{ShmemWorld, TraceEvent};

    use super::*;
    use crate::op::{reference, FusedPlan, GenericFusedPlan, ResilientFusedPlan};
    use crate::progress::{RecoveryCounters, RecoveryPolicy};
    use crate::schedule::ScheduleKind;

    fn tiny_cfg(n_pes: usize, batch: usize, tables_per_pe: usize, dim: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
        cfg.table_rows = 64;
        cfg.dim = dim;
        cfg.pooling = 5;
        cfg
    }

    /// Each PE's puts, fences and flag stores, in its program order.
    fn publications(events: Vec<TraceEvent>, n_pes: usize) -> Vec<Vec<TraceEvent>> {
        let mut per_pe = vec![Vec::new(); n_pes];
        for e in events {
            let pe = match e {
                TraceEvent::Put { src, .. } | TraceEvent::FlagStore { src, .. } => src,
                TraceEvent::Fence { pe } => pe,
                _ => continue,
            };
            per_pe[pe].push(e);
        }
        per_pe
    }

    #[test]
    fn fused_generic_and_resilient_plans_run_the_same_protocol() {
        // One table per PE: the sample-major WG order and the generic
        // plan's slice-major item order coincide, so under a sequential
        // steal seed all three plans must issue the very same operations —
        // the fault-free resilient plan adding only its `slice_sum` store
        // before each network publication.
        let cfg = tiny_cfg(4, 16, 1, 16);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let (mode, kind) = (PoolingMode::Sum, ScheduleKind::CommAware);
        for seed in 0..4u64 {
            let steal = StealPolicy::sequential(seed);
            let world = |layout| {
                ShmemWorld::new(4, layout)
                    .with_p2p_groups(vec![0, 0, 1, 1])
                    .with_trace()
            };
            let mut layout = HeapLayout::new();
            let fused = FusedPlan::plan(&mut layout, &cfg, 2).with_steal(steal);
            let mut fused_world = world(layout);
            let mut layout = HeapLayout::new();
            let routing = fused.producer(&tables[..1], &gen, mode);
            let generic = GenericFusedPlan::plan(&mut layout, 4, &routing, 2).with_steal(steal);
            let mut generic_world = world(layout);
            let mut layout = HeapLayout::new();
            let mut resilient =
                ResilientFusedPlan::plan(&mut layout, &cfg, 2, RecoveryPolicy::default());
            resilient.set_steal(steal);
            let mut resilient_world = world(layout);
            let (faults, counters) = (FaultPlan::new(seed), RecoveryCounters::new());

            fused_world.run(|ctx| {
                let me = ctx.me();
                fused.execute(ctx, &tables[me..me + 1], &gen, mode, kind, 1);
            });
            generic_world.run(|ctx| {
                let me = ctx.me();
                generic.execute(ctx, &fused.producer(&tables[me..me + 1], &gen, mode), 1);
            });
            resilient_world.run(|ctx| {
                let local = &tables[ctx.me()..ctx.me() + 1];
                let degraded =
                    resilient.execute(ctx, local, &gen, mode, kind, 1, &faults, &counters);
                assert!(!degraded, "seed {seed}: a clean run degraded");
            });

            for pe in 0..4 {
                let want = reference::expected_output(&cfg, &tables, &gen, mode, pe);
                assert_eq!(fused_world.read(pe, fused.output), want, "seed {seed}");
                assert_eq!(generic_world.read(pe, generic.output), want, "seed {seed}");
                assert_eq!(resilient_world.read(pe, resilient.output()), want);
            }
            let a = publications(fused_world.take_trace(), 4);
            let b = publications(generic_world.take_trace(), 4);
            assert_eq!(a, b, "seed {seed}: the plans' protocol traces diverge");

            // Per PE: 16 items — 8 stored directly (own shard, P2P peer), 8
            // staged and re-put row by row by their slice's last finisher;
            // 8 two-item slices, each fenced and flagged once. The counts
            // of the parent commit's fused and generic plans.
            for pe in &a {
                let count = |f: fn(&TraceEvent) -> bool| pe.iter().filter(|e| f(e)).count();
                assert_eq!(count(|e| matches!(e, TraceEvent::Put { .. })), 24);
                assert_eq!(count(|e| matches!(e, TraceEvent::Fence { .. })), 8);
                assert_eq!(count(|e| matches!(e, TraceEvent::FlagStore { .. })), 8);
            }

            // The resilient plan's extra stores go to a bank the fused plan
            // does not have; on the fused plan's cells it is the same trace.
            let fused_cells: std::collections::HashSet<u64> = a
                .iter()
                .flatten()
                .filter_map(|e| match e {
                    TraceEvent::FlagStore { cell, .. } => Some(*cell),
                    _ => None,
                })
                .collect();
            let mut c = publications(resilient_world.take_trace(), 4);
            let mut sums = 0;
            for pe in &mut c {
                pe.retain(|e| match e {
                    TraceEvent::FlagStore { cell, .. } if !fused_cells.contains(cell) => {
                        sums += 1;
                        false
                    }
                    _ => true,
                });
            }
            assert_eq!(sums, 4 * 4, "one checksum store per network slice");
            assert_eq!(a, c, "seed {seed}: the resilient plan's trace diverges");
        }
    }

    #[test]
    fn one_plan_shared_by_four_pes_and_eight_workers_stays_exact_and_warm() {
        // Every PE thread and every steal worker goes through the one
        // plan; nothing they hold may be shared or re-allocated.
        let cfg = tiny_cfg(4, 32, 2, 16);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let steal = StealPolicy::concurrent(11).with_workers(2);
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, &cfg, 4).with_steal(steal);
        plan.prewarm(4 * 2);
        let mut world = ShmemWorld::new(4, layout).with_p2p_groups(vec![0, 0, 1, 1]);
        let want: Vec<_> = (0..4)
            .map(|pe| reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, pe))
            .collect();
        for exec in 1..=50u64 {
            world.run(|ctx| {
                let local = &tables[ctx.me() * 2..(ctx.me() + 1) * 2];
                let (mode, kind) = (PoolingMode::Sum, ScheduleKind::CommAware);
                plan.execute(ctx, local, &gen, mode, kind, exec);
            });
            for (pe, want) in want.iter().enumerate() {
                assert_eq!(&world.read(pe, plan.output), want, "exec {exec}, PE {pe}");
            }
            let zeros = vec![0.0; plan.output.len()];
            (0..4).for_each(|pe| world.write(pe, plan.output, 0, &zeros));
        }
        assert_eq!(plan.scratch_misses(), 0);
        assert_eq!(plan.steal_misses(), 0);
        assert_eq!(
            plan.workspace_borrows(),
            50 * 4 * 2,
            "one borrow per worker per task loop"
        );
    }

    #[test]
    fn one_ring_put_per_network_row_or_one_bypass() {
        // 256-byte rows fill exactly one ring slot; 512-byte rows cannot
        // ride the rings at all.
        for (dim, rides_ring) in [(64, true), (128, false)] {
            let cfg = tiny_cfg(2, 8, 2, dim);
            let mut layout = HeapLayout::new();
            let plan = FusedPlan::plan(&mut layout, &cfg, 2);
            let world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
            let tables = reference::build_tables(&cfg);
            let gen = reference::build_generator(&cfg);
            let execs = 3u64;
            for exec in 1..=execs {
                world.run(|ctx| {
                    let me = ctx.me();
                    let local = &tables[me * 2..(me + 1) * 2];
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
            let network_rows: u64 = (0..2)
                .flat_map(|me| plan.core().slices(me).iter().filter(move |s| s.dst != me))
                .map(|s| s.len as u64)
                .sum();
            assert_eq!(network_rows, 16);
            let stats = world.ring_stats();
            let (ring, bypass) = if rides_ring {
                (network_rows, 0)
            } else {
                (0, network_rows)
            };
            assert_eq!(stats.ring_puts, execs * ring, "dim {dim}");
            assert_eq!(stats.bypasses, execs * bypass, "dim {dim}");
        }
    }

    #[test]
    fn prewarmed_fused_and_resilient_plans_never_miss_a_pool() {
        let cfg = tiny_cfg(2, 8, 2, 16);
        let steal = StealPolicy::concurrent(7).with_workers(2);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);

        let mut layout = HeapLayout::new();
        let fused = FusedPlan::plan(&mut layout, &cfg, 2).with_steal(steal);
        fused.prewarm(2 * 2);
        let fused_world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);

        let mut layout = HeapLayout::new();
        let mut resilient =
            ResilientFusedPlan::plan(&mut layout, &cfg, 2, RecoveryPolicy::default());
        resilient.set_steal(steal);
        resilient.prewarm(2 * 2);
        let resilient_world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        let (faults, counters) = (FaultPlan::new(1), RecoveryCounters::new());

        for exec in 1..=4u64 {
            let (mode, kind) = (PoolingMode::Sum, ScheduleKind::CommAware);
            fused_world.run(|ctx| {
                let local = &tables[ctx.me() * 2..(ctx.me() + 1) * 2];
                fused.execute(ctx, local, &gen, mode, kind, exec);
            });
            resilient_world.run(|ctx| {
                let local = &tables[ctx.me() * 2..(ctx.me() + 1) * 2];
                resilient.execute(ctx, local, &gen, mode, kind, exec, &faults, &counters);
            });
        }
        for plan in [&fused, resilient.inner()] {
            assert_eq!(plan.scratch_misses(), 0);
            assert_eq!(plan.steal_misses(), 0);
        }
    }
}
