//! Fused backward `gradient All-to-All + embedding update` — the paper's
//! stated future work ("we want to use our approach to hide communication
//! along the backward pass of DLRM"), implemented.
//!
//! After interaction-backward, PE `p` holds the pooled-embedding gradients
//! for *its batch shard* across *all* global tables — the transpose of the
//! forward output. Those gradients must return to their table owners
//! (a reverse All-to-All) and be scattered into table rows (the SGD
//! update). The bulk-synchronous schedule serializes the two; the fused
//! schedule ships gradient slices on the shared protocol core and the
//! owner's optimizer consumes each row the moment its slice arrives,
//! overlapping wire time with row updates.

use fcc_dlrm::backward::embedding_backward_sgd;
use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::PeCtx;

use crate::op::generic::{GenericFusedPlan, Route, RowCopy};
use crate::schedule::steal::StealPolicy;

/// Symmetric-heap plan for the backward fused operator.
#[derive(Debug)]
pub struct BackwardFusedPlan {
    /// The gradient return; its output is the owner's staging,
    /// `{tables_per_pe × global_batch × dim}` indexed `(local table,
    /// global sample)`.
    scatter: GenericFusedPlan,
    cfg: DlrmConfig,
}

/// The gradient return: item `(global table, local sample)` of PE `me` —
/// owner-major, so the table owner drains sender, table, sample in order —
/// is row `(sample, table)` of `grads`, landing at the owner's staging
/// row `(local table, me's sample)`.
fn gradients<'a>(cfg: &DlrmConfig, grads: &'a [f32]) -> RowCopy<'a, impl Route> {
    let (tpp, lb, gb) = (cfg.tables_per_pe, cfg.local_batch(), cfg.global_batch);
    let tables = cfg.n_pes * tpp;
    let route = move |me, item| {
        let (table, ls) = (item / lb, item % lb);
        let staged = table % tpp * gb + me * lb + ls;
        (ls * tables + table, table / tpp, staged)
    };
    RowCopy::new(grads, cfg.dim, tables * lb, route)
}

impl BackwardFusedPlan {
    /// Allocates buffers and flags in `layout`.
    pub fn plan(
        layout: &mut HeapLayout,
        cfg: &DlrmConfig,
        slice_embeddings: usize,
    ) -> BackwardFusedPlan {
        assert!(slice_embeddings >= 1);
        let width = slice_embeddings.min(cfg.local_batch());
        let scatter = GenericFusedPlan::plan(layout, cfg.n_pes, &gradients(cfg, &[]), width);
        let cfg = cfg.clone();
        BackwardFusedPlan { scatter, cfg }
    }

    /// Replaces the work-stealing policy in place (call before running):
    /// the gradient return runs one task per (global table, local sample).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.scatter.set_steal(steal);
    }

    /// Executes the backward fused operator on the calling PE: ships this
    /// PE's gradient slices to their table owners while scattering every
    /// arriving slice into this PE's own tables with an SGD step of rate
    /// `lr`.
    ///
    /// `grads` is this PE's `{local_batch, total_tables × dim}` gradient —
    /// the layout the forward operator produced. `exec` is 1-based and
    /// monotonic across reuses.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        grads: &[f32],
        local_tables: &mut [EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        lr: f32,
        exec: u64,
    ) {
        assert_eq!(local_tables.len(), self.cfg.tables_per_pe, "table shard");
        let (tpp, lb) = (self.cfg.tables_per_pe, self.cfg.local_batch());
        let sends = gradients(&self.cfg, grads);
        assert_eq!(grads.len(), sends.items * self.cfg.dim, "gradient shape");
        // Each arriving `(table, bag, gradient-row)` is applied in a
        // deterministic (sender-major, then table, then sample) order.
        let optimizer = |src, item, grad: &[f32], bag: &mut Vec<u32>| {
            let (table, ls) = (item / lb, item % lb);
            gen.bag_into(table, src * lb + ls, bag);
            embedding_backward_sgd(&mut local_tables[table % tpp], bag, mode, grad, lr);
        };
        self.scatter.execute_consuming(ctx, &sends, exec, optimizer);
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
        let world = ShmemWorld::new(n_pes, layout);
        world.run(|ctx| {
            let me = ctx.me();
            let mut tables = shards[me].lock().unwrap();
            plan.execute(ctx, &grads[me], &mut tables, &gen, PoolingMode::Sum, lr, 1);
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
