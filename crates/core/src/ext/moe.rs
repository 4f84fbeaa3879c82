//! Fused `All-to-All + expert computation` — the mixture-of-experts
//! pattern.
//!
//! Expert parallelism places one expert per PE; tokens are routed to their
//! expert with an All-to-All (*dispatch*), transformed, and routed back
//! (*combine*). Unfused, the expert waits for the whole dispatch. Fused,
//! both All-to-Alls run on the shared protocol core at token-chunk
//! granularity — a slice is one (source, expert) chunk — and the expert
//! consumes each token row the moment its chunk's flag is seen, so the
//! expert overlaps the rest of the dispatch. The combine ships the
//! expert's outputs once this PE's dispatch drain is done.
//!
//! The functional expert here is an affine map `y = scale_e · x + bias_e`
//! (distinct per expert), which keeps the oracle trivial while still
//! proving that every token reaches the right expert, is transformed with
//! the right parameters, and returns to its source in order.

use fcc_net::{analytic, Topology};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymSlice};
use fcc_sim::SimTime;

use crate::op::generic::{GenericFusedPlan, Route, RowCopy};
use crate::schedule::steal::StealPolicy;

/// Functional fused MoE dispatch → expert → combine plan.
///
/// Each PE holds `tokens_per_pair` tokens of width `dim` destined to
/// *each* expert (uniform routing, the shape MoE capacity factors enforce).
#[derive(Debug)]
pub struct MoePlan {
    /// Combine buffer at the source: `n_pes × tokens_per_pair × dim`,
    /// chunk `e` holding tokens returned by expert `e`.
    pub combined: SymSlice<f32>,
    /// Tokens to their experts; its output is the expert's `n_pes ×
    /// tokens_per_pair × dim` dispatch buffer, chunk `src` from PE `src`.
    dispatch: GenericFusedPlan,
    /// Expert outputs back to their sources, into `combined`.
    combine: GenericFusedPlan,
    tokens_per_pair: usize,
    dim: usize,
}

/// Both All-to-Alls: item `(peer, token)` of PE `me` is row `item` of
/// `rows`, landing at row `(me, token)` of `peer`'s buffer.
fn exchange(n_pes: usize, t: usize, dim: usize, rows: &[f32]) -> RowCopy<'_, impl Route> {
    let route = move |me, item| (item, item / t, me * t + item % t);
    RowCopy::new(rows, dim, n_pes * t, route)
}

impl MoePlan {
    /// Allocates both exchanges' buffers and flag banks: one slice per
    /// (source, expert) token chunk.
    pub fn plan(
        layout: &mut HeapLayout,
        n_pes: usize,
        tokens_per_pair: usize,
        dim: usize,
    ) -> MoePlan {
        let shape = exchange(n_pes, tokens_per_pair, dim, &[]);
        let dispatch = GenericFusedPlan::plan(layout, n_pes, &shape, tokens_per_pair);
        let combine = GenericFusedPlan::plan(layout, n_pes, &shape, tokens_per_pair);
        MoePlan {
            combined: combine.output,
            dispatch,
            combine,
            tokens_per_pair,
            dim,
        }
    }

    /// Replaces the work-stealing policy of both exchanges (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> MoePlan {
        self.set_steal(steal);
        self
    }

    /// Replaces the work-stealing policy of both exchanges in place (call
    /// before running): each runs one task per token row.
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.dispatch.set_steal(steal);
        self.combine.set_steal(steal);
    }

    /// Executes one fused dispatch → expert → combine round on the calling
    /// PE. `tokens` is this PE's `n_pes × tokens_per_pair × dim` input,
    /// chunk `e` routed to expert `e`. The expert function is
    /// `y = scale(me)·x + bias(me)`. `exec` is 1-based and monotonic;
    /// in-run reuses need a `barrier_all` between rounds.
    pub fn execute(&self, ctx: &PeCtx<'_>, tokens: &[f32], exec: u64) {
        let (n, t, dim) = (ctx.n_pes(), self.tokens_per_pair, self.dim);
        assert_eq!(tokens.len(), n * t * dim, "token shape");
        // The expert runs on each token row as it arrives, into the row
        // the combine ships back: `(src, token)`.
        let (scale, bias) = expert_params(ctx.me());
        let mut expert_out = vec![0.0f32; tokens.len()];
        let sends = exchange(n, t, dim, tokens);
        let expert = |src, item, x: &[f32], _: &mut _| {
            let y = &mut expert_out[(src * t + item % t) * dim..][..dim];
            for (y, &x) in y.iter_mut().zip(x) {
                *y = scale * x + bias;
            }
        };
        self.dispatch.execute_consuming(ctx, &sends, exec, expert);
        let returns = exchange(n, t, dim, &expert_out);
        self.combine.execute(ctx, &returns, exec);
    }
}

/// The per-expert affine parameters (shared with the oracle).
fn expert_params(expert: usize) -> (f32, f32) {
    (1.0 + expert as f32 * 0.5, expert as f32 * 0.125)
}

/// Oracle: route, transform, route back — sequentially.
pub fn reference_moe(inputs: &[Vec<f32>], tokens_per_pair: usize, dim: usize) -> Vec<Vec<f32>> {
    let n = inputs.len();
    let chunk = tokens_per_pair * dim;
    (0..n)
        .map(|src| {
            let mut out = vec![0.0f32; n * chunk];
            for expert in 0..n {
                let (scale, bias) = expert_params(expert);
                let x = &inputs[src][expert * chunk..(expert + 1) * chunk];
                for (o, &v) in out[expert * chunk..(expert + 1) * chunk].iter_mut().zip(x) {
                    *o = scale * v + bias;
                }
            }
            out
        })
        .collect()
}

/// Closed-form overlap timing for the MoE layer: unfused pays
/// `dispatch + expert + combine`; fused overlaps the expert with both
/// all-to-alls at chunk granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeTiming {
    pub baseline: SimTime,
    pub fused: SimTime,
}

/// Prices the layer on `topo` with `bytes_per_pair` per dispatch pair and
/// `expert_time` of per-PE expert compute.
pub fn moe_timing(
    topo: &Topology,
    bytes_per_pair: u64,
    expert_time: SimTime,
    per_chunk_overhead: SimTime,
) -> MoeTiming {
    let n = topo.endpoints() as u64;
    let a2a = analytic::alltoall(topo, bytes_per_pair);
    let baseline = a2a + expert_time + a2a;
    // Fused: the expert pipeline is bounded by its slowest stage, plus one
    // chunk's worth of each other stage, plus per-chunk API overhead.
    let stage = a2a.max(expert_time);
    let chunk_tail = SimTime::from_nanos((a2a.min(expert_time).as_nanos() / n.max(1)) * 2);
    let overhead = SimTime::from_nanos(per_chunk_overhead.as_nanos() * n);
    MoeTiming {
        baseline,
        fused: stage + a2a.min(expert_time).max(chunk_tail) + overhead,
    }
}

#[cfg(test)]
// Indexing several parallel collections by PE reads clearer than nested
// iterator adaptors in these comparisons.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use fcc_net::presets;
    use fcc_shmem::ShmemWorld;

    #[test]
    fn fused_moe_matches_reference() {
        let n = 4;
        let tokens = 3;
        let dim = 5;
        let chunk = tokens * dim;
        let mut layout = HeapLayout::new();
        let plan = MoePlan::plan(&mut layout, n, tokens, dim);
        let mut world = ShmemWorld::new(n, layout);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|pe| {
                (0..n * chunk)
                    .map(|i| (pe * 1000 + i) as f32 * 0.01)
                    .collect()
            })
            .collect();
        let inputs_ref = inputs.clone();
        world.run(|ctx| {
            plan.execute(ctx, &inputs[ctx.me()], 1);
        });
        let want = reference_moe(&inputs_ref, tokens, dim);
        for pe in 0..n {
            let got = world.read(pe, plan.combined);
            for (a, b) in got.iter().zip(&want[pe]) {
                assert!((a - b).abs() < 1e-5, "PE {pe}");
            }
        }
    }

    #[test]
    fn fused_moe_reusable() {
        let n = 2;
        let (tokens, dim) = (2, 3);
        let chunk = tokens * dim;
        let mut layout = HeapLayout::new();
        let plan = MoePlan::plan(&mut layout, n, tokens, dim);
        let mut world = ShmemWorld::new(n, layout);
        for exec in 1..=3u64 {
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|pe| {
                    (0..n * chunk)
                        .map(|i| (exec as usize * 10 + pe + i) as f32)
                        .collect()
                })
                .collect();
            let inputs_run = inputs.clone();
            world.run(|ctx| plan.execute(ctx, &inputs_run[ctx.me()], exec));
            let want = reference_moe(&inputs, tokens, dim);
            for pe in 0..n {
                assert_eq!(world.read(pe, plan.combined), want[pe], "exec {exec}");
            }
        }
    }

    #[test]
    fn expert_params_are_distinct() {
        let all: Vec<(f32, f32)> = (0..8).map(expert_params).collect();
        for i in 0..8 {
            for j in 0..i {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn moe_timing_fused_wins() {
        let t = moe_timing(
            &presets::torus_128(),
            1 << 20,
            SimTime::from_millis(3),
            SimTime::from_nanos(900),
        );
        assert!(t.fused < t.baseline);
    }

    #[test]
    fn moe_fused_never_beats_single_stage() {
        let t = moe_timing(
            &presets::dual_node_ib(),
            1 << 22,
            SimTime::from_micros(100),
            SimTime::ZERO,
        );
        let a2a = analytic::alltoall(&presets::dual_node_ib(), 1 << 22);
        assert!(t.fused >= a2a, "cannot finish before one dispatch");
    }
}
