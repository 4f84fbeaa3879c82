//! A complete distributed DLRM *training* step on two simulated nodes —
//! every communication pattern in the paper, end to end, with real data:
//!
//! 1. **forward**: the fused `embedding + All-to-All` operator (network
//!    path, slice PUTs, `sliceRdy` flags);
//! 2. **model backward**: top MLP → interaction → bottom MLP gradients,
//!    computed numerically per sample;
//! 3. **embedding backward**: the backward fused operator (the paper's
//!    future work) — gradient All-to-All overlapped with the SGD scatter
//!    into the owning tables;
//! 4. **data-parallel sync**: an all-gather of the MLP gradients on the
//!    pairwise All-to-All (every PE sends its whole gradient to every
//!    PE), summed in PE order on each replica, keeping the MLP replicas
//!    bit-identical.
//!
//! The check is the one that matters for a training system: the loss goes
//! down, and the MLP replicas never diverge.
//!
//! ```sh
//! cargo run --release --example distributed_training_step
//! ```

use std::sync::Mutex;

use fused_collectives::collectives::AllToAllPlan;
use fused_collectives::core::ext::backward_fused::BackwardFusedPlan;
use fused_collectives::core::op::reference;
use fused_collectives::core::{FusedPlan, ScheduleKind};
use fused_collectives::dlrm::{
    backward::interaction_backward, interact, interaction::interaction_output_dim, DlrmConfig, Mlp,
    PoolingMode,
};
use fused_collectives::shmem::{heap::HeapLayout, ShmemWorld};

fn dense_features(width: usize, sample: usize) -> Vec<f32> {
    (0..width)
        .map(|i| (((sample * 37 + i * 13) % 101) as f32) / 101.0 - 0.5)
        .collect()
}

fn target(sample: usize) -> f32 {
    (((sample * 29) % 7) as f32) / 7.0
}

fn main() {
    let n_pes = 2;
    let steps = 6u64;
    let lr = 0.02f32;

    let mut cfg = DlrmConfig::hw_eval(n_pes, 16, 2);
    cfg.table_rows = 400;
    cfg.dim = 16;
    cfg.pooling = 4;
    let total_tables = n_pes * cfg.tables_per_pe;
    cfg.bottom_mlp = vec![8, 32, cfg.dim];
    cfg.top_mlp = vec![interaction_output_dim(cfg.dim, total_tables), 32, 1];
    let local_batch = cfg.local_batch();
    let row_width = total_tables * cfg.dim;

    // --- Symmetric-heap plans -------------------------------------------
    let mut layout = HeapLayout::new();
    let fwd = FusedPlan::plan(&mut layout, &cfg, 2);
    let bwd = BackwardFusedPlan::plan(&mut layout, &cfg, 2);
    // All-gather of the flattened MLP gradients: one whole copy per pair.
    let probe_bottom = Mlp::new_random(&cfg.bottom_mlp, 0);
    let probe_top = Mlp::new_random(&cfg.top_mlp, 0);
    let grad_len = probe_bottom.num_params() + probe_top.num_params();
    let gather = AllToAllPlan::<f32>::plan(&mut layout, n_pes, grad_len);
    let world = ShmemWorld::new(n_pes, layout).with_p2p_groups(vec![0, 1]);

    // --- Model state: per-PE table shards, replicated MLPs ---------------
    let gen = reference::build_generator(&cfg);
    let all_tables = reference::build_tables(&cfg);
    let shards: Vec<Mutex<_>> = (0..n_pes)
        .map(|p| {
            Mutex::new(all_tables[p * cfg.tables_per_pe..(p + 1) * cfg.tables_per_pe].to_vec())
        })
        .collect();
    let mlps: Vec<Mutex<(Mlp, Mlp)>> = (0..n_pes)
        .map(|_| {
            Mutex::new((
                Mlp::new_random(&cfg.bottom_mlp, 21),
                Mlp::new_random(&cfg.top_mlp, 22),
            ))
        })
        .collect();
    let step_losses: Vec<Mutex<f32>> = (0..n_pes).map(|_| Mutex::new(0.0)).collect();

    let mut history = Vec::new();
    for step in 1..=steps {
        world.run(|ctx| {
            let me = ctx.me();
            let mut tables = shards[me]
                .lock()
                .expect("table shard mutex poisoned by an earlier PE panic");
            let mut mlp_guard = mlps[me]
                .lock()
                .expect("MLP mutex poisoned by an earlier PE panic");
            let (bottom, top) = &mut *mlp_guard;

            // 1. Fused forward exchange.
            fwd.execute(
                ctx,
                &tables,
                &gen,
                PoolingMode::Sum,
                ScheduleKind::CommAware,
                step,
            );
            let mut gathered = vec![0.0f32; local_batch * row_width];
            ctx.get(&mut gathered, fwd.output, 0, me);

            // 2. Per-sample forward tail + backward to gradient buffers.
            let mut grads = vec![0.0f32; local_batch * row_width];
            let mut bot_grad_acc: Option<Vec<_>> = None;
            let mut top_grad_acc: Option<Vec<_>> = None;
            let mut loss_sum = 0.0f32;
            for ls in 0..local_batch {
                let sample = me * local_batch + ls;
                let x = dense_features(cfg.bottom_mlp[0], sample);
                let (dense_out, bot_cache) = bottom.forward_with_cache(&x);
                let embs = &gathered[ls * row_width..(ls + 1) * row_width];
                let inter = interact(&dense_out, embs);
                let (pred, top_cache) = top.forward_with_cache(&inter);
                let err = pred[0] - target(sample);
                loss_sum += err * err;

                // Backward: loss -> top -> interaction -> (bottom, embs).
                let (dinter, top_grads) = top.backward(&top_cache, &[2.0 * err]);
                let (ddense, dembs) = interaction_backward(&dense_out, embs, &dinter);
                let (_, bot_grads) = bottom.backward(&bot_cache, &ddense);
                grads[ls * row_width..(ls + 1) * row_width].copy_from_slice(&dembs);

                // Accumulate MLP gradients over the shard.
                let acc = |store: &mut Option<Vec<_>>, new: Vec<_>| match store {
                    None => *store = Some(new),
                    Some(acc) => {
                        for (a, n) in acc.iter_mut().zip(&new) {
                            let a: &mut fused_collectives::dlrm::DenseGrad = a;
                            let n: &fused_collectives::dlrm::DenseGrad = n;
                            for (x, y) in a.dw.iter_mut().zip(&n.dw) {
                                *x += y;
                            }
                            for (x, y) in a.db.iter_mut().zip(&n.db) {
                                *x += y;
                            }
                        }
                    }
                };
                acc(&mut bot_grad_acc, bot_grads);
                acc(&mut top_grad_acc, top_grads);
            }
            *step_losses[me]
                .lock()
                .expect("loss mutex poisoned by an earlier PE panic") = loss_sum;

            // 3. Backward fused: gradient All-to-All + embedding SGD.
            bwd.execute(ctx, &grads, &mut tables, &gen, PoolingMode::Sum, lr, step);

            // 4. Data-parallel MLP sync: all-gather the gradients, sum the
            // copies in PE order (the same sum on every replica), then an
            // identical SGD step on every replica.
            let bot_acc = bot_grad_acc
                .as_ref()
                .expect("local_batch >= 1, so the shard accumulated bottom gradients");
            let top_acc = top_grad_acc
                .as_ref()
                .expect("local_batch >= 1, so the shard accumulated top gradients");
            let mut flat = bottom.flatten_grads(bot_acc);
            flat.extend(top.flatten_grads(top_acc));
            ctx.put(gather.src, 0, &flat.repeat(n_pes), me);
            gather.execute(ctx, step);
            let mut copies = vec![0.0f32; n_pes * grad_len];
            ctx.get(&mut copies, gather.dst, 0, me);
            // Start from PE 0's copy, not from 0.0, so that -0.0 survives.
            let (first, rest) = copies.split_at(grad_len);
            let mut summed = first.to_vec();
            for copy in rest.chunks_exact(grad_len) {
                for (s, v) in summed.iter_mut().zip(copy) {
                    *s += v;
                }
            }
            let scale = 1.0 / cfg.global_batch as f32;
            for v in summed.iter_mut() {
                *v *= scale;
            }
            let nb = bottom.num_params();
            let bot_mean = bottom.unflatten_grads(&summed[..nb]);
            let top_mean = top.unflatten_grads(&summed[nb..]);
            bottom.sgd_step(&bot_mean, lr);
            top.sgd_step(&top_mean, lr);
        });

        let loss: f32 = step_losses
            .iter()
            .map(|l| {
                *l.lock()
                    .expect("loss mutex poisoned by an earlier PE panic")
            })
            .sum::<f32>()
            / cfg.global_batch as f32;
        history.push(loss);
        println!("step {step}: mean squared error {loss:.5}");
    }

    // MLP replicas must not have diverged.
    let a = mlps[0].lock().expect("MLP mutex poisoned");
    let b = mlps[1].lock().expect("MLP mutex poisoned");
    assert_eq!(a.0, b.0, "bottom MLP replicas diverged");
    assert_eq!(a.1, b.1, "top MLP replicas diverged");
    let first = *history.first().expect("steps >= 1 records a first loss");
    let last = *history.last().expect("steps >= 1 records a last loss");
    assert!(last < first, "loss must decrease: {history:?}");
    println!(
        "\nloss fell {:.1}% over {steps} steps; MLP replicas bit-identical across nodes",
        (1.0 - last / first) * 100.0
    );
}
