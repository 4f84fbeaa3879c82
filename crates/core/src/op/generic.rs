//! Generic fused computation-collective operator.
//!
//! The fusion recipe only needs three things from a workload: *what* each
//! logical workgroup computes, *where* its vector goes, and *how wide*
//! vectors are. [`FusedProducer`] captures that contract —
//! [`super::fused::FusedPlan`] is the paper's instance of it (embedding
//! pooling, batch-shard All-to-All) — and [`GenericFusedPlan`] runs the
//! full protocol of the shared core — slice grouping,
//! remote-first scheduling, `WG_Done` last-finisher election, staging +
//! PUT + fence + `sliceRdy` for network peers, zero-copy stores for P2P
//! peers — for any implementor. This is how a downstream user fuses a
//! GEMM, a graph gather, or anything else with its dependent exchange
//! (§3.5's generality, as an API instead of an example). When computation
//! depends on the exchange instead, [`GenericFusedPlan::execute_consuming`]
//! hands every arriving row to it as the drain sees its slice flag; the
//! `crate::ext` operators are [`RowCopy`] producers drained that way.

use std::ops::ControlFlow;

use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymSlice};

use crate::op::protocol::{FusedCore, Slice, SliceTable};
use crate::schedule::steal::StealPolicy;
use crate::scratch::{fit, Workspace};

/// A workload that can be fused with its output exchange.
///
/// Items are the logical workgroups: PE `me` computes items
/// `0..num_items(me)`, each one `dim()`-wide vector whose destination
/// (PE, element offset) is a pure function of `(me, item)`. Distinct items
/// on the same source must map to disjoint destination ranges.
pub trait FusedProducer: Sync {
    /// Output vector width (elements).
    fn dim(&self) -> usize;
    /// Logical work items computed by source PE `me`.
    fn num_items(&self, me: usize) -> usize;
    /// Per-PE output buffer length (elements).
    fn output_len(&self) -> usize;
    /// Where item `(me, item)`'s vector lands: `(dst_pe, element offset)`.
    fn destination(&self, me: usize, item: usize) -> (usize, usize);
    /// Computes item `(me, item)` into `out` (`dim()` elements). `out`
    /// arrives holding the worker's previous item, not zeros: write every
    /// element.
    fn produce(&self, me: usize, item: usize, out: &mut [f32]);
    /// [`produce`](Self::produce) with the calling worker's reusable index
    /// buffer, for producers that gather through a per-item index list
    /// (an embedding bag): fill `indices` instead of allocating one. The
    /// buffer's contents on entry are the previous item's. Defaults to
    /// plain `produce`.
    fn produce_with(&self, me: usize, item: usize, indices: &mut Vec<u32>, out: &mut [f32]) {
        let _ = indices;
        self.produce(me, item, out);
    }
}

/// The generic fused plan for one world size.
#[derive(Debug)]
pub struct GenericFusedPlan {
    /// Per-PE output buffer.
    pub output: SymSlice<f32>,
    core: FusedCore,
    /// Per PE: its item order, fixed at plan time.
    tasks: Vec<Vec<u64>>,
}

impl GenericFusedPlan {
    /// Builds the slice tables from the producer's destination function
    /// and allocates buffers in `layout`.
    ///
    /// `items_per_slice` bounds slice width; slices also break wherever
    /// the destination changes, so every slice is single-destination.
    pub fn plan(
        layout: &mut HeapLayout,
        n_pes: usize,
        producer: &impl FusedProducer,
        items_per_slice: usize,
    ) -> GenericFusedPlan {
        let (table, tasks) = Self::slicing(n_pes, producer, items_per_slice);
        let core = FusedCore::new(layout, producer.dim(), 0, producer.output_len(), table);
        GenericFusedPlan {
            output: core.output(),
            core,
            tasks,
        }
    }

    /// The plan's slice table and per-PE task order — what
    /// [`plan`](Self::plan) executes and the timed
    /// [`price_producer`](crate::sim::generic::price_producer) prices.
    pub(crate) fn slicing<P: FusedProducer + ?Sized>(
        n_pes: usize,
        producer: &P,
        items_per_slice: usize,
    ) -> (SliceTable, Vec<Vec<u64>>) {
        assert!(items_per_slice >= 1);
        let runs: Vec<Vec<(usize, usize)>> = (0..n_pes)
            .map(|me| {
                let mut table: Vec<(usize, usize)> = Vec::new();
                for item in 0..producer.num_items(me) {
                    let (dst, _) = producer.destination(me, item);
                    match table.last_mut() {
                        Some((len, d)) if *d == dst && *len < items_per_slice => *len += 1,
                        _ => table.push((1, dst)),
                    }
                }
                table
            })
            .collect();
        let table = SliceTable::new(&runs);
        // Remote-first (communication-aware) execution order over slices,
        // flattened to item-level tasks so the work-stealing deques
        // rebalance within a slice too.
        let tasks = (0..n_pes)
            .map(|me| {
                let mut order: Vec<&Slice> = table.slices(me).iter().collect();
                order.sort_by_key(|s| s.dst == me);
                order.into_iter().flat_map(SliceTable::tasks).collect()
            })
            .collect();
        (table, tasks)
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> GenericFusedPlan {
        self.core.set_steal(steal);
        self
    }

    /// Replaces the work-stealing policy in place (call before running).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.core.set_steal(steal);
    }

    /// Slices PE `me` will communicate (diagnostics).
    pub fn num_slices(&self, me: usize) -> usize {
        self.core.table().slices(me).len()
    }

    /// Scratch-buffer allocations that missed the pools — zero growth
    /// across executions means the steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.core.scratch_misses()
    }

    /// Executes the fused operator on the calling PE. `exec` is 1-based
    /// and monotonic across plan reuses.
    pub fn execute(&self, ctx: &PeCtx<'_>, producer: &impl FusedProducer, exec: u64) {
        self.execute_consuming(ctx, producer, exec, |_, _, _, _| {});
    }

    /// [`execute`](Self::execute), consuming each row destined to the
    /// calling PE on arrival: right after a slice's `sliceRdy` flag is
    /// seen, the drain calls `consume(src, item, row, indices)` once per
    /// row of the slice — source-major, then in item order. `row` is read
    /// into the PE's own workspace and `indices` is that workspace's
    /// reusable index buffer, so a consumer allocates nothing.
    pub fn execute_consuming<P: FusedProducer>(
        &self,
        ctx: &PeCtx<'_>,
        producer: &P,
        exec: u64,
        mut consume: impl FnMut(usize, usize, &[f32], &mut Vec<u32>),
    ) {
        let me = ctx.me();
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));
        let core = &self.core;
        core.run_tasks(ctx, producer, &self.tasks[me], exec, |s, ws| {
            core.ship(ctx, producer, s, exec, ws)
        });
        let mut ws = core.workspace(me, 0);
        let Workspace { vector, bag, .. } = &mut *ws;
        let row = fit(vector, producer.dim());
        core.table().drain(me, |s| {
            core.wait_ready(ctx, s, exec);
            for item in s.first_item..s.first_item + s.len {
                let (_, off) = producer.destination(s.src, item);
                ctx.get(row, self.output, off, me);
                consume(s.src, item, row, bag);
            }
            ControlFlow::Continue(())
        });
    }
}

/// Where a row-copy item goes: `(me, item)` → (source row, destination
/// PE, destination row).
pub(crate) trait Route: Fn(usize, usize) -> (usize, usize, usize) + Sync {}
impl<R: Fn(usize, usize) -> (usize, usize, usize) + Sync> Route for R {}

/// A producer that copies `dim`-wide rows out of a borrowed host buffer,
/// each as its [`Route`] says: the send side of the `crate::ext`
/// operators. Every PE sends `items` rows and receives as many. A plan
/// built from one with empty `rows` slices exactly like one holding data.
pub(crate) struct RowCopy<'a, R> {
    rows: &'a [f32],
    dim: usize,
    pub items: usize,
    route: R,
}

impl<R: Route> RowCopy<'_, R> {
    pub(crate) fn new(rows: &[f32], dim: usize, items: usize, route: R) -> RowCopy<'_, R> {
        RowCopy {
            rows,
            dim,
            items,
            route,
        }
    }
}

impl<R: Route> FusedProducer for RowCopy<'_, R> {
    fn dim(&self) -> usize {
        self.dim
    }
    fn num_items(&self, _me: usize) -> usize {
        self.items
    }
    fn output_len(&self) -> usize {
        self.items * self.dim
    }
    fn destination(&self, me: usize, item: usize) -> (usize, usize) {
        let (_, dst, row) = (self.route)(me, item);
        (dst, row * self.dim)
    }
    fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
        let (row, ..) = (self.route)(me, item);
        out.copy_from_slice(&self.rows[row * self.dim..][..self.dim]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_shmem::ShmemWorld;

    /// Producer 1: a plain all-to-all — item `i` of PE `me` is a constant
    /// vector destined to PE `i % n`, landing at a block indexed by
    /// source.
    struct ExchangeProducer {
        n_pes: usize,
        items_per_dst: usize,
        dim: usize,
    }

    impl FusedProducer for ExchangeProducer {
        fn dim(&self) -> usize {
            self.dim
        }
        fn num_items(&self, _me: usize) -> usize {
            self.n_pes * self.items_per_dst
        }
        fn output_len(&self) -> usize {
            self.n_pes * self.items_per_dst * self.dim
        }
        fn destination(&self, me: usize, item: usize) -> (usize, usize) {
            let dst = item / self.items_per_dst;
            let slot = item % self.items_per_dst;
            (dst, (me * self.items_per_dst + slot) * self.dim)
        }
        fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
            for (k, o) in out.iter_mut().enumerate() {
                *o = (me * 10_000 + item * 100 + k) as f32;
            }
        }
    }

    /// Producer 2: a row-sharded GEMM — PE `me` owns a row block of `W`
    /// and computes `y = W·x` rows destined to the PE that owns that
    /// output shard (round-robin).
    struct GemmProducer {
        n_pes: usize,
        rows_per_pe: usize,
        in_dim: usize,
    }

    impl GemmProducer {
        fn weight(&self, me: usize, row: usize, col: usize) -> f32 {
            ((me * 31 + row * 7 + col * 3) % 13) as f32 * 0.25 - 1.0
        }
        fn x(&self, col: usize) -> f32 {
            ((col * 5) % 11) as f32 * 0.5 - 1.0
        }
    }

    impl FusedProducer for GemmProducer {
        fn dim(&self) -> usize {
            1 // each item is one output scalar-row (dim 1 keeps the oracle tiny)
        }
        fn num_items(&self, _me: usize) -> usize {
            self.rows_per_pe
        }
        fn output_len(&self) -> usize {
            self.n_pes * self.rows_per_pe
        }
        fn destination(&self, me: usize, item: usize) -> (usize, usize) {
            // Row (me, item) goes to PE item % n, at offset by source/row.
            (item % self.n_pes, me * self.rows_per_pe + item)
        }
        fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
            out[0] = (0..self.in_dim)
                .map(|c| self.weight(me, item, c) * self.x(c))
                .sum();
        }
    }

    #[test]
    fn exchange_producer_matches_direct_computation() {
        let n = 4;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 3,
            dim: 5,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 2);
        let mut world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        world.run(|ctx| plan.execute(ctx, &producer, 1));

        for dst in 0..n {
            let got = world.read(dst, plan.output);
            // Expected: for each source and slot, the produced vector.
            for src in 0..n {
                for slot in 0..3 {
                    let item = dst * 3 + slot;
                    let mut want = vec![0.0f32; 5];
                    producer.produce(src, item, &mut want);
                    let off = (src * 3 + slot) * 5;
                    assert_eq!(&got[off..off + 5], want.as_slice(), "dst {dst} src {src}");
                }
            }
        }
    }

    #[test]
    fn gemm_producer_matches_oracle() {
        let n = 3;
        let producer = GemmProducer {
            n_pes: n,
            rows_per_pe: 6,
            in_dim: 8,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 4);
        let mut world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        world.run(|ctx| plan.execute(ctx, &producer, 1));
        for dst in 0..n {
            let got = world.read(dst, plan.output);
            for src in 0..n {
                for row in 0..6 {
                    let (d, off) = producer.destination(src, row);
                    if d != dst {
                        continue;
                    }
                    let mut want = [0.0f32];
                    producer.produce(src, row, &mut want);
                    assert!(
                        (got[off] - want[0]).abs() < 1e-5,
                        "dst {dst} src {src} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn works_on_all_p2p_worlds_too() {
        let n = 2;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 4,
            dim: 3,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 4);
        let mut world = ShmemWorld::new(n, layout); // all P2P: zero-copy path
        world.run(|ctx| plan.execute(ctx, &producer, 1));
        let got = world.read(0, plan.output);
        let mut want = vec![0.0f32; 3];
        producer.produce(1, 0, &mut want);
        assert_eq!(&got[4 * 3..5 * 3], want.as_slice());
    }

    #[test]
    fn slices_break_at_destination_changes() {
        let producer = ExchangeProducer {
            n_pes: 2,
            items_per_dst: 5,
            dim: 1,
        };
        let mut layout = HeapLayout::new();
        // items_per_slice 3 over 5-item destination runs: 3+2 per dst.
        let plan = GenericFusedPlan::plan(&mut layout, 2, &producer, 3);
        assert_eq!(plan.num_slices(0), 4);
    }

    #[test]
    fn prewarmed_plan_never_misses_a_pool() {
        let producer = ExchangeProducer {
            n_pes: 2,
            items_per_dst: 4,
            dim: 3,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, 2, &producer, 2)
            .with_steal(StealPolicy::concurrent(7).with_workers(2));
        plan.core.prewarm(0);
        let world = ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1]);
        for exec in 1..=4 {
            world.run(|ctx| plan.execute(ctx, &producer, exec));
        }
        assert_eq!(plan.scratch_misses(), 0);
        assert_eq!(plan.core.steal_misses(), 0);
    }

    #[test]
    fn reusable_across_runs() {
        let n = 2;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 2,
            dim: 2,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 2);
        let mut world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        for exec in 1..=3 {
            world.run(|ctx| plan.execute(ctx, &producer, exec));
            let got = world.read(1, plan.output);
            let mut want = vec![0.0f32; 2];
            producer.produce(0, 2, &mut want);
            assert_eq!(&got[..2], want.as_slice(), "exec {exec}");
        }
    }
}
