//! Fused backward `gradient All-to-All + embedding update` — the paper's
//! stated future work ("we want to use our approach to hide communication
//! along the backward pass of DLRM"), implemented.
//!
//! After interaction-backward, PE `p` holds the pooled-embedding gradients
//! for *its batch shard* across *all* global tables — the transpose of the
//! forward output. Those gradients must return to their table owners
//! (a reverse All-to-All) and be scattered into table rows (the SGD
//! update). The bulk-synchronous schedule serializes the two; the fused
//! schedule PUTs gradient slices as they are assembled and lets the owner
//! scatter each slice the moment it arrives, overlapping wire time with
//! row updates.

use fcc_dlrm::backward::embedding_backward_sgd;
use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymFlags, SymSlice};

use crate::scratch::{fit, Workspace, Workspaces};

/// Symmetric-heap plan for the backward fused operator.
#[derive(Debug)]
pub struct BackwardFusedPlan {
    /// Gradient input at each PE: `{local_batch, total_tables × dim}` —
    /// the same layout the forward operator produced.
    pub grads_in: SymSlice<f32>,
    /// Gradient staging at each table owner: `{tables_per_pe ×
    /// global_batch × dim}`, indexed `(local table, global sample)`.
    staging: SymSlice<f32>,
    /// One readiness flag per `(sender, local table, shard slice)`.
    slice_rdy: SymFlags,
    cfg: DlrmConfig,
    slice_embeddings: usize,
    slices_per_shard: usize,
    /// One workspace per PE: the gradient row in flight and the bag it
    /// scatters through.
    workspaces: Workspaces,
}

impl BackwardFusedPlan {
    /// Allocates buffers and flags in `layout`.
    pub fn plan(
        layout: &mut HeapLayout,
        cfg: &DlrmConfig,
        slice_embeddings: usize,
    ) -> BackwardFusedPlan {
        assert!(slice_embeddings >= 1);
        let total_tables = cfg.n_pes * cfg.tables_per_pe;
        let slice_embeddings = slice_embeddings.min(cfg.local_batch());
        let slices_per_shard = cfg.local_batch().div_ceil(slice_embeddings);
        BackwardFusedPlan {
            grads_in: layout.alloc::<f32>(cfg.local_batch() * total_tables * cfg.dim),
            staging: layout.alloc::<f32>(cfg.tables_per_pe * cfg.global_batch * cfg.dim),
            slice_rdy: layout.alloc_flags(cfg.n_pes * cfg.tables_per_pe * slices_per_shard),
            cfg: cfg.clone(),
            slice_embeddings,
            slices_per_shard,
            workspaces: Workspaces::sized(cfg.n_pes, 1, cfg.dim, cfg.pooling, 0),
        }
    }

    fn flag_index(&self, sender: usize, lt: usize, slice: usize) -> usize {
        (sender * self.cfg.tables_per_pe + lt) * self.slices_per_shard + slice
    }

    /// Executes the backward fused operator on the calling PE: ships this
    /// PE's gradient slices to their table owners while scattering every
    /// arriving slice into this PE's own tables with an SGD step of rate
    /// `lr`.
    ///
    /// `grads_in` must be seeded (e.g. with
    /// [`fcc_shmem::ShmemWorld::write`]) before the run. `exec` is
    /// 1-based and monotonic across reuses.
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &mut [EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        lr: f32,
        exec: u64,
    ) {
        assert_eq!(local_tables.len(), self.cfg.tables_per_pe, "table shard");
        self.execute_with(ctx, gen, exec, |lt, bag, grad| {
            embedding_backward_sgd(&mut local_tables[lt], bag, mode, grad, lr);
        });
    }

    /// [`execute`](Self::execute) with row-wise Adagrad instead of SGD —
    /// the optimizer production DLRM uses for sparse parameters.
    ///
    /// `states[lt]` is table `lt`'s accumulator state.
    pub fn execute_adagrad(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &mut [EmbeddingTable],
        states: &mut [fcc_dlrm::RowwiseAdagrad],
        gen: &BatchGenerator,
        mode: PoolingMode,
        exec: u64,
    ) {
        assert_eq!(local_tables.len(), self.cfg.tables_per_pe, "table shard");
        assert_eq!(states.len(), self.cfg.tables_per_pe, "state shard");
        self.execute_with(ctx, gen, exec, |lt, bag, grad| {
            states[lt].update(&mut local_tables[lt], bag, mode, grad);
        });
    }

    /// The transport skeleton shared by both optimizers: ship gradient
    /// slices to their owners, then hand each arriving `(table, bag,
    /// gradient-row)` to `apply` in a deterministic (sender-major,
    /// sample-ascending) order.
    pub fn execute_with(
        &self,
        ctx: &PeCtx<'_>,
        gen: &BatchGenerator,
        exec: u64,
        mut apply: impl FnMut(usize, &[u32], &[f32]),
    ) {
        assert!(exec >= 1, "executions are 1-based");
        assert_eq!(ctx.n_pes(), self.cfg.n_pes, "plan/world size mismatch");
        let me = ctx.me();
        let dim = self.cfg.dim;
        let total_tables = self.cfg.n_pes * self.cfg.tables_per_pe;
        let local_batch = self.cfg.local_batch();

        // --- Send phase: slice-granular gradient PUTs -------------------
        // Remote owners first (the communication-aware order), then the
        // local shard, which is "shipped" with plain local copies.
        let mut ws = self.workspaces.borrow(me, 0);
        let ws: &mut Workspace = &mut ws;
        let row = fit(&mut ws.vector, dim);
        let owners = (0..self.cfg.n_pes)
            .filter(|&o| o != me)
            .chain(std::iter::once(me));
        for owner in owners {
            for lt in 0..self.cfg.tables_per_pe {
                let gt = owner * self.cfg.tables_per_pe + lt;
                for slice in 0..self.slices_per_shard {
                    let start = slice * self.slice_embeddings;
                    let len = self.slice_embeddings.min(local_batch - start);
                    for i in 0..len {
                        let ls = start + i;
                        let sample = me * local_batch + ls;
                        let src_off = ls * total_tables * dim + gt * dim;
                        ctx.get(row, self.grads_in, src_off, me);
                        let dst_off = (lt * self.cfg.global_batch + sample) * dim;
                        ctx.put(self.staging, dst_off, row, owner);
                    }
                    ctx.fence();
                    ctx.flag_store(self.slice_rdy, self.flag_index(me, lt, slice), exec, owner);
                }
            }
        }

        // --- Scatter phase: update rows as slices arrive ----------------
        // Arrival order: iterate senders round-robin so early arrivals
        // from any sender are consumed while later ones are in flight.
        for sender in 0..self.cfg.n_pes {
            for lt in 0..self.cfg.tables_per_pe {
                let gt = me * self.cfg.tables_per_pe + lt;
                for slice in 0..self.slices_per_shard {
                    ctx.wait_until(self.slice_rdy, self.flag_index(sender, lt, slice), |v| {
                        v >= exec
                    });
                    let start = slice * self.slice_embeddings;
                    let len = self.slice_embeddings.min(local_batch - start);
                    for i in 0..len {
                        let sample = sender * local_batch + start + i;
                        let off = (lt * self.cfg.global_batch + sample) * dim;
                        ctx.get(row, self.staging, off, me);
                        gen.bag_into(gt, sample, &mut ws.bag);
                        apply(lt, &ws.bag, row);
                    }
                }
            }
        }
    }
}

/// Sequential oracle: apply every sample's gradient to every table.
pub fn reference_backward(
    cfg: &DlrmConfig,
    tables: &mut [EmbeddingTable],
    gen: &BatchGenerator,
    mode: PoolingMode,
    grads: &[Vec<f32>],
    lr: f32,
) {
    let total_tables = cfg.n_pes * cfg.tables_per_pe;
    assert_eq!(tables.len(), total_tables);
    let local_batch = cfg.local_batch();
    for (shard, grad) in grads.iter().enumerate() {
        for ls in 0..local_batch {
            let sample = shard * local_batch + ls;
            for (gt, table) in tables.iter_mut().enumerate() {
                let off = ls * total_tables * cfg.dim + gt * cfg.dim;
                let bag = gen.bag(gt, sample);
                embedding_backward_sgd(table, &bag, mode, &grad[off..off + cfg.dim], lr);
            }
        }
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
    use std::sync::Mutex;

    fn tiny_cfg(n_pes: usize, batch: usize, tables_per_pe: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
        cfg.table_rows = 40;
        cfg.dim = 8;
        cfg.pooling = 3;
        cfg
    }

    fn grads_for(cfg: &DlrmConfig, shard: usize) -> Vec<f32> {
        let total = cfg.n_pes * cfg.tables_per_pe;
        (0..cfg.local_batch() * total * cfg.dim)
            .map(|i| ((shard * 31 + i) % 17) as f32 * 0.01 - 0.08)
            .collect()
    }

    fn check(n_pes: usize, batch: usize, tables_per_pe: usize, slice: usize) {
        let cfg = tiny_cfg(n_pes, batch, tables_per_pe);
        let gen = reference::build_generator(&cfg);
        let lr = 0.05;

        // Oracle tables.
        let mut oracle = reference::build_tables(&cfg);
        let grads: Vec<Vec<f32>> = (0..n_pes).map(|p| grads_for(&cfg, p)).collect();
        reference_backward(&cfg, &mut oracle, &gen, PoolingMode::Sum, &grads, lr);

        // Distributed tables behind per-PE mutexes (each thread takes only
        // its own).
        let shards: Vec<Mutex<Vec<EmbeddingTable>>> = {
            let all = reference::build_tables(&cfg);
            (0..n_pes)
                .map(|p| Mutex::new(all[p * tables_per_pe..(p + 1) * tables_per_pe].to_vec()))
                .collect()
        };

        let mut layout = HeapLayout::new();
        let plan = BackwardFusedPlan::plan(&mut layout, &cfg, slice);
        let mut world = ShmemWorld::new(n_pes, layout);
        for (p, grad) in grads.iter().enumerate() {
            world.write(p, plan.grads_in, 0, grad);
        }
        world.run(|ctx| {
            let mut tables = shards[ctx.me()].lock().unwrap();
            plan.execute(ctx, &mut tables, &gen, PoolingMode::Sum, lr, 1);
        });

        for p in 0..n_pes {
            let got = shards[p].lock().unwrap();
            for (lt, table) in got.iter().enumerate() {
                let want = &oracle[p * tables_per_pe + lt];
                for r in 0..cfg.table_rows {
                    for (a, b) in table.row(r as u32).iter().zip(want.row(r as u32)) {
                        assert!(
                            (a - b).abs() < 1e-4,
                            "PE {p} table {lt} row {r}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn backward_fused_matches_oracle_two_pes() {
        check(2, 8, 2, 2);
    }

    #[test]
    fn backward_fused_matches_oracle_four_pes() {
        check(4, 8, 1, 1);
    }

    #[test]
    fn backward_fused_wide_slices() {
        check(2, 8, 2, 64);
    }

    #[test]
    fn backward_fused_single_pe() {
        check(1, 4, 2, 2);
    }

    #[test]
    fn backward_fused_adagrad_matches_sequential_adagrad() {
        use fcc_dlrm::RowwiseAdagrad;
        let n_pes = 2;
        let tables_per_pe = 2;
        let cfg = tiny_cfg(n_pes, 8, tables_per_pe);
        let gen = reference::build_generator(&cfg);
        let grads: Vec<Vec<f32>> = (0..n_pes).map(|p| grads_for(&cfg, p)).collect();

        // Oracle: sequential Adagrad in the same (sender, sample) order
        // the fused scatter applies.
        let mut oracle = reference::build_tables(&cfg);
        let mut oracle_states: Vec<RowwiseAdagrad> = (0..oracle.len())
            .map(|_| RowwiseAdagrad::new(cfg.table_rows, 0.05))
            .collect();
        let total = n_pes * tables_per_pe;
        for (shard, grad) in grads.iter().enumerate() {
            for ls in 0..cfg.local_batch() {
                let sample = shard * cfg.local_batch() + ls;
                for gt in 0..total {
                    let off = ls * total * cfg.dim + gt * cfg.dim;
                    let bag = gen.bag(gt, sample);
                    oracle_states[gt].update(
                        &mut oracle[gt],
                        &bag,
                        PoolingMode::Sum,
                        &grad[off..off + cfg.dim],
                    );
                }
            }
        }

        // Distributed Adagrad through the fused operator.
        let shards: Vec<Mutex<(Vec<EmbeddingTable>, Vec<RowwiseAdagrad>)>> = {
            let all = reference::build_tables(&cfg);
            (0..n_pes)
                .map(|p| {
                    Mutex::new((
                        all[p * tables_per_pe..(p + 1) * tables_per_pe].to_vec(),
                        (0..tables_per_pe)
                            .map(|_| RowwiseAdagrad::new(cfg.table_rows, 0.05))
                            .collect(),
                    ))
                })
                .collect()
        };
        let mut layout = HeapLayout::new();
        let plan = BackwardFusedPlan::plan(&mut layout, &cfg, 2);
        let mut world = ShmemWorld::new(n_pes, layout);
        for (p, grad) in grads.iter().enumerate() {
            world.write(p, plan.grads_in, 0, grad);
        }
        world.run(|ctx| {
            let mut guard = shards[ctx.me()].lock().unwrap();
            let (tables, states) = &mut *guard;
            plan.execute_adagrad(ctx, tables, states, &gen, PoolingMode::Sum, 1);
        });

        for p in 0..n_pes {
            let guard = shards[p].lock().unwrap();
            for (lt, table) in guard.0.iter().enumerate() {
                let want = &oracle[p * tables_per_pe + lt];
                for r in 0..cfg.table_rows {
                    for (a, b) in table.row(r as u32).iter().zip(want.row(r as u32)) {
                        assert!((a - b).abs() < 1e-4, "PE {p} table {lt} row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn backward_updates_actually_move_weights() {
        let cfg = tiny_cfg(2, 4, 1);
        let gen = reference::build_generator(&cfg);
        let before = reference::build_tables(&cfg);
        let mut after = before.clone();
        let grads: Vec<Vec<f32>> = (0..2).map(|p| grads_for(&cfg, p)).collect();
        reference_backward(&cfg, &mut after, &gen, PoolingMode::Sum, &grads, 0.1);
        assert_ne!(before, after);
    }
}
