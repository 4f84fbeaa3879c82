//! End-to-end DLRM forward pass on a simulated 4-GPU node.
//!
//! Embedding tables are model-parallel (one shard per GPU thread); the
//! fused operator on this all-P2P node is the zero-copy operator: it
//! performs `embedding + All-to-All` in one step with direct peer stores; each PE then runs the data-parallel tail —
//! bottom MLP on dense features, feature interaction, top MLP — for its
//! batch shard, exactly the pipeline of the paper's Figure 2. Every PE's
//! predictions are checked against a sequential oracle.
//!
//! ```sh
//! cargo run --release --example dlrm_inference_node
//! ```

use fused_collectives::core::op::reference;
use fused_collectives::core::{FusedPlan, ScheduleKind};
use fused_collectives::dlrm::{interact, DlrmConfig, Mlp, PoolingMode};
use fused_collectives::shmem::{heap::HeapLayout, ShmemWorld};

/// Deterministic dense feature vector for a sample.
fn dense_features(cfg: &DlrmConfig, sample: usize) -> Vec<f32> {
    (0..cfg.bottom_mlp[0])
        .map(|i| (((sample * 31 + i * 17) % 97) as f32) / 97.0 - 0.5)
        .collect()
}

fn main() {
    let n_pes = 4;
    let mut cfg = DlrmConfig::hw_eval(n_pes, 64, 2);
    cfg.table_rows = 5_000;
    cfg.dim = 32;
    cfg.pooling = 10;
    // Narrow MLPs keep the example fast while exercising every operator.
    cfg.bottom_mlp = vec![13, 64, cfg.dim];
    let total_tables = n_pes * cfg.tables_per_pe;
    cfg.top_mlp = vec![
        fused_collectives::dlrm::interaction::interaction_output_dim(cfg.dim, total_tables),
        64,
        1,
    ];

    let tables = reference::build_tables(&cfg);
    let gen = reference::build_generator(&cfg);
    let bottom = Mlp::new_random(&cfg.bottom_mlp, 77);
    let top = Mlp::new_random(&cfg.top_mlp, 78);

    // Sequential oracle: predictions for every sample.
    let oracle: Vec<f32> = (0..cfg.global_batch)
        .map(|sample| {
            let dense = bottom.forward(&dense_features(&cfg, sample));
            let embs: Vec<f32> = tables
                .iter()
                .enumerate()
                .flat_map(|(t, table)| table.pool(&gen.bag(t, sample), PoolingMode::Sum))
                .collect();
            top.forward(&interact(&dense, &embs))[0]
        })
        .collect();

    // Distributed run: 4 P2P GPUs (threads), zero-copy fused exchange —
    // one slice per (table, destination).
    let local_batch = cfg.local_batch();
    let mut layout = HeapLayout::new();
    let plan = FusedPlan::plan(&mut layout, &cfg, local_batch);
    let world = ShmemWorld::new(n_pes, layout);

    world.run(|ctx| {
        let me = ctx.me();
        let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];

        // Model-parallel phase: fused embedding + All-to-All.
        plan.execute(
            ctx,
            local,
            &gen,
            PoolingMode::Sum,
            ScheduleKind::CommAware,
            1,
        );

        // Data-parallel tail over this PE's batch shard.
        let row = total_tables * cfg.dim;
        let mut gathered = vec![0.0f32; local_batch * row];
        ctx.get(&mut gathered, plan.output, 0, me);
        for ls in 0..local_batch {
            let sample = me * local_batch + ls;
            let dense = bottom.forward(&dense_features(&cfg, sample));
            let pred = top.forward(&interact(&dense, &gathered[ls * row..(ls + 1) * row]))[0];
            let want = oracle[sample];
            assert!(
                (pred - want).abs() <= 1e-4 * want.abs().max(1.0),
                "PE {me} sample {sample}: {pred} vs oracle {want}"
            );
        }
    });

    println!(
        "4-GPU DLRM forward: {} samples x {} tables (dim {}), zero-copy fused exchange — \
         all predictions match the sequential oracle",
        cfg.global_batch, total_tables, cfg.dim
    );
    println!("sample predictions: {:?}", &oracle[..4.min(oracle.len())]);
}
