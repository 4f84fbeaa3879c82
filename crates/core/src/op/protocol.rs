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
//! That per-item recipe is [`step`], written once over a small effects
//! [`Backend`]. Two clocks implement it: the functional one here
//! (`PeCtx` calls on the core's buffers and flag banks), and the timed
//! one in `sim/timed.rs`, which prices the same effects from the GPU
//! model's task-completion hook. Both step through the same clock-free
//! [`SliceTable`] and drain with [`SliceTable::drain`].
//!
//! [`FusedCore`] owns the buffers, flag banks, slice table, worker
//! workspaces and steal state of the functional clock and exposes its task
//! loop, [`run_tasks`](FusedCore::run_tasks). What varies between the
//! operators built on it is passed in:
//!
//! * the **producer** ([`FusedProducer`]: what an item computes and where
//!   it lands) and the plan-time **slice table** derived from it;
//! * the **task order** handed to the task loop;
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
//! Every fixed-team operator runs on this core: the zero-copy operator is
//! `FusedPlan` on an all-P2P world, and `MoePlan`, `AllGatherGemmPlan` and
//! `BackwardFusedPlan` are row-copy producers on `GenericFusedPlan`,
//! drained on arrival. Not built on it, on purpose: `ElasticFusedPlan`,
//! whose slice-granular jobs have no election, whose global slice ids
//! survive ownership migration, and whose drain heartbeats supervise —
//! folding it in would make the core branch on its caller.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Every source PE's slice table: a clock-free value both clocks build
/// from the same `(len, dst)` runs and step through.
#[derive(Debug, Clone)]
pub(crate) struct SliceTable {
    /// Per source PE: its slices, tiling `0..num_items` in order.
    slices: Vec<Vec<Slice>>,
    slices_per_source: usize,
}

impl SliceTable {
    /// `runs[src]` lists source PE `src`'s slices as `(len, dst)` in item
    /// order: slice `k` starts where slice `k − 1` ends.
    pub(crate) fn new(runs: &[Vec<(usize, usize)>]) -> SliceTable {
        let slices_per_source = runs.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut slices = vec![Vec::new(); runs.len()];
        for (src, table) in runs.iter().enumerate() {
            let mut first_item = 0;
            for (index, &(len, dst)) in table.iter().enumerate() {
                assert!(dst < runs.len(), "destination PE out of range");
                let flag = src * slices_per_source + index;
                slices[src].push(Slice {
                    src,
                    index,
                    first_item,
                    len,
                    dst,
                    flag,
                });
                first_item += len;
            }
            assert!(first_item <= u32::MAX as usize, "items must fit a task id");
        }
        SliceTable {
            slices,
            slices_per_source,
        }
    }

    /// A task of either clock's loop: item `item` of its PE's slice
    /// `index`, so a step finds its slice without a per-item table.
    pub(crate) fn task(index: usize, item: usize) -> u64 {
        ((index as u64) << 32) | item as u64
    }

    /// The tasks of slice `s`, in item order.
    pub(crate) fn tasks(s: &Slice) -> impl Iterator<Item = u64> {
        let index = s.index;
        (s.first_item..s.first_item + s.len).map(move |item| Self::task(index, item))
    }

    /// The slice and item of PE `me`'s `task`.
    pub(crate) fn step_of(&self, me: usize, task: u64) -> (&Slice, usize) {
        let s = &self.slices[me][(task >> 32) as usize];
        let item = task as u32 as usize;
        debug_assert!((s.first_item..s.first_item + s.len).contains(&item));
        (s, item)
    }

    pub(crate) fn n_pes(&self) -> usize {
        self.slices.len()
    }

    /// Source PE `me`'s slice table.
    pub(crate) fn slices(&self, me: usize) -> &[Slice] {
        &self.slices[me]
    }

    /// `sliceRdy` flags per PE: one per (source, slice index).
    pub(crate) fn num_flags(&self) -> usize {
        self.n_pes() * self.slices_per_source
    }

    /// Most items any source PE computes.
    pub(crate) fn max_items(&self) -> usize {
        let items = |t: &Vec<Slice>| t.last().map_or(0, |s| s.first_item + s.len);
        self.slices.iter().map(items).max().unwrap_or(0)
    }

    /// Items of the widest slice.
    pub(crate) fn widest(&self) -> usize {
        self.slices
            .iter()
            .flatten()
            .map(|s| s.len)
            .max()
            .unwrap_or(0)
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
}

/// The effects of one protocol [`step`]: what the two clocks implement
/// differently. Every call is made on the slice's source PE.
pub(crate) trait Backend {
    /// What one persistent WG carries from item to item: its workspace on
    /// the functional clock, its PE's timing state on the timed one.
    type Wg;
    /// Whether `s.dst` is a P2P peer of `s.src` (reached by direct stores,
    /// not through the NIC).
    fn is_p2p(&self, s: &Slice) -> bool;
    /// Produces `item` and lands it: staged at the source for a `network`
    /// slice, stored straight into the destination's output otherwise.
    fn produce(&self, wg: &mut Self::Wg, s: &Slice, item: usize, network: bool);
    /// `WG_Done[s.index] += 1`, returning the new count.
    fn wg_done(&self, wg: &mut Self::Wg, s: &Slice) -> u64;
    /// The last finisher of a network slice: PUT its rows, fence, set the
    /// destination's `sliceRdy`.
    fn ship(&self, wg: &mut Self::Wg, s: &Slice);
    /// The last finisher of an own or P2P slice, whose rows are already
    /// stored: fence, set the destination's `sliceRdy`.
    fn publish(&self, wg: &mut Self::Wg, s: &Slice);
}

/// One protocol step on the source PE of `s`: produce `item`, stage it or
/// store it directly, count it in `WG_Done`, and — as the slice's unique
/// last finisher — ship or publish the slice. `exec` is 1-based.
#[inline]
pub(crate) fn step<B: Backend>(b: &B, wg: &mut B::Wg, s: &Slice, item: usize, exec: u64) {
    let network = s.dst != s.src && !b.is_p2p(s);
    b.produce(wg, s, item, network);
    // WG_Done counts completions (AcqRel on the functional clock, so every
    // WG's stores are visible to the elected last finisher). The counter
    // is monotonic across executions, hence the `exec ×` target.
    if b.wg_done(wg, s) == exec * s.len as u64 {
        if network {
            b.ship(wg, s);
        } else {
            b.publish(wg, s);
        }
    }
}

/// The functional clock: the step's effects as `PeCtx` calls on a core's
/// buffers and flag banks.
struct Functional<'a, 'w, P, F> {
    core: &'a FusedCore,
    ctx: &'a PeCtx<'w>,
    producer: &'a P,
    exec: u64,
    ship: F,
}

impl<P: FusedProducer, F: Fn(&Slice, &mut Workspace)> Backend for Functional<'_, '_, P, F> {
    type Wg = Workspace;

    fn is_p2p(&self, s: &Slice) -> bool {
        self.ctx.is_p2p(s.dst)
    }

    fn produce(&self, ws: &mut Workspace, s: &Slice, item: usize, network: bool) {
        let (core, ctx) = (self.core, self.ctx);
        let vector = fit(&mut ws.vector, core.dim);
        self.producer.produce_with(s.src, item, &mut ws.bag, vector);
        if network {
            ctx.put(core.staging, item * core.dim, vector, s.src);
        } else {
            // Zero-copy: own buffer, or a peer's over xGMI.
            let (dst, off) = self.producer.destination(s.src, item);
            debug_assert_eq!(dst, s.dst);
            ctx.put(core.output, off, vector, dst);
        }
    }

    fn wg_done(&self, _: &mut Workspace, s: &Slice) -> u64 {
        let (core, ctx) = (self.core, self.ctx);
        ctx.flag_fetch_add(core.wg_done, s.index, 1, s.src) + 1
    }

    fn ship(&self, ws: &mut Workspace, s: &Slice) {
        (self.ship)(s, ws);
    }

    fn publish(&self, _: &mut Workspace, s: &Slice) {
        self.ctx.fence();
        self.core.publish(self.ctx, s, self.exec);
    }
}

/// Buffers, flag banks, slice table, workspaces and steal state of one
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
    table: SliceTable,
    dim: usize,
    /// Index-buffer elements the producer needs per item.
    bag_len: usize,
    /// One workspace per (PE, persistent WG), sized for the steal policy.
    workspaces: Workspaces,
    /// How the task order maps onto persistent WGs at runtime.
    steal: StealPolicy,
    /// Pooled per-execution deque sets (allocation-free steady state).
    steal_arena: StealArena,
}

impl FusedCore {
    /// Allocates output, staging and both flag banks for `table` in
    /// `layout`, and the workspaces (`bag_len` index elements per item) on
    /// the host heap.
    pub(crate) fn new(
        layout: &mut HeapLayout,
        dim: usize,
        bag_len: usize,
        output_len: usize,
        table: SliceTable,
    ) -> FusedCore {
        let n_pes = table.n_pes();
        let mut core = FusedCore {
            output: layout.alloc::<f32>(output_len),
            staging: layout.alloc::<f32>(table.max_items() * dim),
            wg_done: layout.alloc_flags(table.slices_per_source),
            slice_rdy: layout.alloc_flags(table.num_flags()),
            table,
            dim,
            bag_len,
            workspaces: Workspaces::new(n_pes, 1),
            steal: StealPolicy::default(),
            steal_arena: StealArena::new(),
        };
        core.set_steal(core.steal);
        core
    }

    /// Elements of the widest slice's payload.
    pub(crate) fn widest_payload(&self) -> usize {
        self.table.widest() * self.dim
    }

    pub(crate) fn output(&self) -> SymSlice<f32> {
        self.output
    }

    pub(crate) fn table(&self) -> &SliceTable {
        &self.table
    }

    /// Installs `steal` and rebuilds the workspaces for its worker count:
    /// one per (PE, persistent WG), each sized for an item and the widest
    /// slice.
    pub(crate) fn set_steal(&mut self, steal: StealPolicy) {
        self.steal = steal;
        let workers = steal.effective_workers(self.table.max_items());
        let (n_pes, payload) = (self.table.n_pes(), self.widest_payload());
        self.workspaces = Workspaces::sized(n_pes, workers, self.dim, self.bag_len, payload);
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
        let items = self.table.max_items();
        let workers = self.steal.effective_workers(items);
        self.steal_arena
            .prewarm(self.table.n_pes(), workers, items / workers + 1);
    }

    /// Worker `worker`'s workspace on PE `pe`, for the loops the fault
    /// ladder runs on the PE thread outside [`run_tasks`](Self::run_tasks).
    pub(crate) fn workspace(&self, pe: usize, worker: usize) -> WorkspaceGuard<'_> {
        self.workspaces.borrow(pe, worker)
    }

    /// The persistent kernel's task loop on the calling PE: `tasks`
    /// ([`SliceTable::task`] ids) in priority order seed one Chase–Lev
    /// deque per persistent WG, and a WG that drains its own deque steals
    /// a sibling's tail instead of idling. Each WG holds its workspace for
    /// the whole loop and runs [`step`] per task. `ship` runs on the
    /// elected last finisher of every *network* slice, with that WG's
    /// workspace, and must end by [`publish`](Self::publish)ing it (or
    /// giving the execution up); own-PE and P2P slices are published here.
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
        assert_eq!(ctx.n_pes(), self.table.n_pes(), "plan/world size mismatch");
        let me = ctx.me();
        let root = crate::op::ctx_root(exec);
        let clock = Functional {
            core: self,
            ctx,
            producer,
            exec,
            ship,
        };
        let borrow = |worker| self.workspaces.borrow(me, worker);
        let body = |ws: &mut WorkspaceGuard<'_>, task: u64| {
            let (s, item) = self.table.step_of(me, task);
            // Rayon workers are not the PE thread: re-seed the causal
            // context, qualified with this item's slice publication.
            let _ctx_guard = fcc_shmem::scoped_ctx(root.with_slice(s.flag as u64));
            step(&clock, &mut **ws, s, item, exec);
        };
        execute_stealing(&self.steal_arena, tasks, self.steal, borrow, body);
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
    use crate::sim::fused::{simulate_fused, FusedParams, WgSchedule};
    use fcc_telemetry::trace::TID_WIRE;
    use fcc_telemetry::{Telemetry, TraceData, TraceRecord, TraceSink};

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

    /// One slice publication: (flag index, destination, rows, network,
    /// fenced, flagged).
    type Publication = (usize, usize, usize, bool, bool, bool);

    /// The functional clock's publications per PE, in program order: every
    /// `sliceRdy` store, with the network row PUTs its fence ordered.
    fn functional_publications(
        table: &SliceTable,
        events: Vec<TraceEvent>,
    ) -> Vec<Vec<Publication>> {
        let cells = events.iter().filter_map(|e| match e {
            TraceEvent::FlagStore { cell, .. } => Some(*cell),
            _ => None,
        });
        let base = cells.min().expect("slices were published");
        let slices: Vec<&Slice> = (0..table.n_pes()).flat_map(|pe| table.slices(pe)).collect();
        let per_pe = publications(events, table.n_pes());
        per_pe
            .into_iter()
            .map(|events| {
                let (mut rows, mut fenced_rows, mut fenced) = (0, 0, false);
                let mut out = Vec::new();
                for e in events {
                    match e {
                        TraceEvent::Put { network, .. } => {
                            rows += usize::from(network);
                            fenced = false;
                        }
                        TraceEvent::Fence { .. } => {
                            (fenced_rows, rows, fenced) = (rows, 0, true);
                        }
                        TraceEvent::FlagStore { dst, cell, .. } => {
                            let flag = (cell - base) as usize;
                            let s = slices.iter().find(|s| s.flag == flag).expect("a slice");
                            let network = fenced_rows > 0;
                            let n = if network { fenced_rows } else { s.len };
                            out.push((flag, dst, n, network, fenced, true));
                            (fenced_rows, fenced) = (0, false);
                        }
                        _ => {}
                    }
                }
                out
            })
            .collect()
    }

    /// The timed clock's publications per PE, in completion order, from
    /// the instants on its WG tracks: a shipped slice's fenced payload +
    /// flag, or an own or P2P slice's fenced flag.
    fn timed_publications(table: &SliceTable, trace: &TraceData) -> Vec<Vec<Publication>> {
        let mut per_pe = vec![Vec::new(); table.n_pes()];
        for r in &trace.records {
            let TraceRecord::Instant {
                track,
                name,
                tag: Some(index),
                ..
            } = r
            else {
                continue;
            };
            if track.tid < TID_WIRE {
                let pe = track.pid as usize;
                let s = &table.slices(pe)[*index as usize];
                let network = name == "remote_put";
                per_pe[pe].push((s.flag, s.dst, s.len, network, true, true));
            }
        }
        per_pe
    }

    #[test]
    fn the_timed_clock_prices_the_shipped_protocol() {
        // Four PEs, two per NIC: P2P groups [0, 0, 1, 1] on the functional
        // clock, a two-endpoint topology on the timed one.
        let cfg = tiny_cfg(4, 16, 2, 16);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let functional = |steal: StealPolicy| {
            let mut layout = HeapLayout::new();
            let plan = FusedPlan::plan(&mut layout, &cfg, 2).with_steal(steal);
            let mut world = ShmemWorld::new(4, layout)
                .with_p2p_groups(vec![0, 0, 1, 1])
                .with_trace();
            world.run(|ctx| {
                let local = &tables[ctx.me() * 2..(ctx.me() + 1) * 2];
                let (mode, kind) = (PoolingMode::Sum, ScheduleKind::CommAware);
                plan.execute(ctx, local, &gen, mode, kind, 1);
            });
            functional_publications(plan.core().table(), world.take_trace())
        };
        let map = crate::slice::SliceMap::new(4, 2, 16, 2);
        let table = map.table();
        let timed = |occupancy_cap, wg_schedule| {
            let link = fcc_net::LinkSpec::infiniband_20gbs();
            let topo = fcc_net::Topology::Switched { endpoints: 2, link };
            let sink = TraceSink::enabled();
            let params = FusedParams {
                slice_embeddings: 2,
                occupancy_cap: Some(occupancy_cap),
                wg_schedule,
                telemetry: Telemetry {
                    trace: sink.clone(),
                    ..Telemetry::disabled()
                },
                ..FusedParams::new(cfg.clone(), fcc_gpu::GpuConfig::mi210(), topo)
            };
            let per_pe = simulate_fused(&params).per_pe;
            (timed_publications(&table, &sink.data()), per_pe)
        };

        // One persistent WG: the same publications in the same order.
        let (one_wg, _) = timed(1, WgSchedule::Static);
        for seed in 0..3 {
            let shipped = functional(StealPolicy::sequential(seed).with_workers(1));
            assert_eq!(shipped, one_wg, "seed {seed}");
        }
        // Per PE: 32 items in 16 two-item slices — 8 own or P2P, 8 network.
        for pubs in &one_wg {
            assert_eq!(pubs.len(), 16);
            assert_eq!(pubs.iter().filter(|p| p.3).count(), 8);
        }

        // Several WGs, stealing on both clocks: the same publications per
        // PE as a multiset, and the NIC carries exactly the shipped ones.
        for seed in 0..3 {
            let sorted = |mut pubs: Vec<Vec<Publication>>| {
                pubs.iter_mut().for_each(|p| p.sort_unstable());
                pubs
            };
            let shipped = sorted(functional(StealPolicy::sequential(seed)));
            let (priced, per_pe) = timed(4, WgSchedule::Stealing { seed });
            assert_eq!(shipped, sorted(priced), "seed {seed}");
            for (pubs, out) in shipped.iter().zip(&per_pe) {
                let network = pubs.iter().filter(|p| p.3);
                let rows: usize = network.clone().map(|p| p.2).sum();
                assert_eq!(out.messages, 2 * network.count() as u64);
                assert_eq!(out.bytes, (rows * cfg.dim * 4) as u64);
            }
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
                .flat_map(|me| {
                    plan.core()
                        .table()
                        .slices(me)
                        .iter()
                        .filter(move |s| s.dst != me)
                })
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
