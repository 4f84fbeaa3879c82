//! Fused `AllGather + GEMM` — the fully-sharded-data-parallel pattern.
//!
//! In FSDP the weight matrix is row-sharded across PEs and must be
//! all-gathered before `y = W·x`. The unfused schedule serializes
//! gather-then-multiply; the fused operator computes the output rows of
//! each weight shard *as that shard arrives*, overlapping the gather with
//! the multiplication — exactly the slice idea with the dependence
//! direction reversed (communication feeds computation). The gather runs
//! on the shared protocol core, one slice per (shard, destination), and
//! the GEMM block is its drain's consumer.

use fcc_net::{analytic, Topology};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymSlice};
use fcc_sim::SimTime;

use crate::op::generic::{GenericFusedPlan, Route, RowCopy};
use crate::schedule::steal::StealPolicy;

/// Functional fused AllGather + GEMM plan.
///
/// Weights: `total_out × in_dim`, row-sharded so PE `p` owns rows
/// `p·(total_out/n) ..`. Inputs are per-PE activation batches; outputs are
/// per-PE `batch × total_out`.
#[derive(Debug)]
pub struct AllGatherGemmPlan {
    /// Gathered weight buffer on every PE (`total_out × in_dim`).
    pub weights: SymSlice<f32>,
    gather: GenericFusedPlan,
    rows: usize,
    in_dim: usize,
}

/// Shard publication: item `(pe, r)` of PE `me` is row `r` of its
/// `rows`-row shard, landing at weight row `me·rows + r` on `pe`.
fn shards(n_pes: usize, rows: usize, in_dim: usize, shard: &[f32]) -> RowCopy<'_, impl Route> {
    let route = move |me, item| (item % rows, item / rows, me * rows + item % rows);
    RowCopy::new(shard, in_dim, n_pes * rows, route)
}

impl AllGatherGemmPlan {
    /// Allocates the gathered-weight buffer and per-shard flags: one slice
    /// per (shard, destination).
    ///
    /// # Panics
    /// Panics unless `total_out` divides evenly among PEs.
    pub fn plan(
        layout: &mut HeapLayout,
        n_pes: usize,
        in_dim: usize,
        total_out: usize,
    ) -> AllGatherGemmPlan {
        assert_eq!(total_out % n_pes, 0, "rows must shard evenly");
        let rows = total_out / n_pes;
        let gather = GenericFusedPlan::plan(layout, n_pes, &shards(n_pes, rows, in_dim, &[]), rows);
        AllGatherGemmPlan {
            weights: gather.output,
            gather,
            rows,
            in_dim,
        }
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> AllGatherGemmPlan {
        self.set_steal(steal);
        self
    }

    /// Replaces the work-stealing policy in place (call before running):
    /// the gather runs one task per (destination, shard row).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.gather.set_steal(steal);
    }

    /// Executes the fused operator on the calling PE: gathers every weight
    /// shard while multiplying arrived shards into the output.
    ///
    /// `local_shard` is this PE's `shard_rows × in_dim` weight rows; `xs`
    /// is the local activation batch (rows of `in_dim`). Returns the local
    /// `batch × total_out` output. `exec` is 1-based and monotonic across
    /// plan reuses.
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        local_shard: &[f32],
        xs: &[Vec<f32>],
        exec: u64,
    ) -> Vec<Vec<f32>> {
        let (n, rows, in_dim) = (ctx.n_pes(), self.rows, self.in_dim);
        assert_eq!(local_shard.len(), rows * in_dim, "shard shape");
        assert!(xs.iter().all(|x| x.len() == in_dim), "activation width");
        // The GEMM is decomposed by output rows, each computed as soon as
        // its weight row's shard flag is seen.
        let mut out = vec![vec![0.0f32; n * rows]; xs.len()];
        let gemm = |src, item, w: &[f32], _: &mut _| {
            for (x, y) in xs.iter().zip(out.iter_mut()) {
                y[src * rows + item % rows] = w.iter().zip(x).map(|(a, b)| a * b).sum();
            }
        };
        let shard = shards(n, rows, in_dim, local_shard);
        self.gather.execute_consuming(ctx, &shard, exec, gemm);
        out
    }
}

/// Reference: gather all shards then multiply.
pub fn reference_gemm(shards: &[Vec<f32>], in_dim: usize, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let full: Vec<f32> = shards.iter().flatten().copied().collect();
    let total_out = full.len() / in_dim;
    xs.iter()
        .map(|x| {
            (0..total_out)
                .map(|r| {
                    full[r * in_dim..(r + 1) * in_dim]
                        .iter()
                        .zip(x)
                        .map(|(a, b)| a * b)
                        .sum()
                })
                .collect()
        })
        .collect()
}

/// Closed-form overlap timing: the unfused schedule pays
/// `T_allgather + T_gemm`; the fused schedule pipelines shard arrivals
/// against per-shard GEMM blocks, costing
/// `max(T_allgather, T_gemm) + (the other)/n + overhead_per_shard × n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapTiming {
    pub baseline: SimTime,
    pub fused: SimTime,
}

/// Prices AllGather+GEMM overlap on `topo` for `bytes_per_shard` gathered
/// per PE and `gemm_time` of total multiplication work.
pub fn overlap_timing(
    topo: &Topology,
    bytes_per_shard: u64,
    gemm_time: SimTime,
    per_shard_overhead: SimTime,
) -> OverlapTiming {
    let n = topo.endpoints() as u64;
    let ag = analytic::allgather(topo, bytes_per_shard);
    let baseline = ag + gemm_time;
    let long = ag.max(gemm_time);
    let short = ag.min(gemm_time);
    let tail = SimTime::from_nanos(short.as_nanos() / n.max(1));
    let overhead = SimTime::from_nanos(per_shard_overhead.as_nanos() * n);
    OverlapTiming {
        baseline,
        fused: long + tail + overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;
    use fcc_shmem::ShmemWorld;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fused_matches_reference() {
        let n = 4;
        let in_dim = 8;
        let total_out = 16;
        let batch = 3;
        let mut layout = HeapLayout::new();
        let plan = AllGatherGemmPlan::plan(&mut layout, n, in_dim, total_out);
        let world = ShmemWorld::new(n, layout);

        let mut rng = SmallRng::seed_from_u64(5);
        let shards: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..(total_out / n) * in_dim)
                    .map(|_| rng.gen::<f32>() - 0.5)
                    .collect()
            })
            .collect();
        let xs_all: Vec<Vec<Vec<f32>>> = (0..n)
            .map(|_| {
                (0..batch)
                    .map(|_| (0..in_dim).map(|_| rng.gen::<f32>() - 0.5).collect())
                    .collect()
            })
            .collect();

        world.run(|ctx| {
            let me = ctx.me();
            let got = plan.execute(ctx, &shards[me], &xs_all[me], 1);
            let want = reference_gemm(&shards, in_dim, &xs_all[me]);
            for (g, w) in got.iter().zip(&want) {
                for (a, b) in g.iter().zip(w) {
                    assert!((a - b).abs() < 1e-5, "mismatch on PE {me}");
                }
            }
        });
    }

    #[test]
    fn single_pe_is_plain_gemm() {
        let mut layout = HeapLayout::new();
        let plan = AllGatherGemmPlan::plan(&mut layout, 1, 4, 6);
        let world = ShmemWorld::new(1, layout);
        let shard: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let xs = vec![vec![1.0, 0.0, 0.0, 0.0]];
        world.run(|ctx| {
            let got = plan.execute(ctx, &shard, &xs, 1);
            // y[r] = W[r][0].
            let want: Vec<f32> = (0..6).map(|r| (r * 4) as f32).collect();
            assert_eq!(got[0], want);
        });
    }

    #[test]
    fn overlap_timing_beats_baseline_when_balanced() {
        let topo = presets::torus_128();
        let t = overlap_timing(
            &topo,
            4 << 20,
            SimTime::from_millis(5),
            SimTime::from_nanos(900),
        );
        assert!(t.fused < t.baseline);
    }

    #[test]
    fn overlap_gain_bounded_by_shorter_leg() {
        let topo = presets::dual_node_ib();
        let gemm = SimTime::from_millis(10);
        let t = overlap_timing(&topo, 1 << 20, gemm, SimTime::ZERO);
        let gain = t.baseline - t.fused;
        let ag = t.baseline - gemm;
        assert!(gain <= ag, "cannot hide more than the gather itself");
    }

    #[test]
    #[should_panic(expected = "shard evenly")]
    fn uneven_sharding_rejected() {
        let mut layout = HeapLayout::new();
        AllGatherGemmPlan::plan(&mut layout, 3, 4, 10);
    }
}
