//! Production-shaped tables: heterogeneous sizes, planner-driven
//! placement, and the generic fused operator.
//!
//! The paper's evaluation uses uniform tables; production embedding sets
//! are anything but — a few monsters and a long tail. This example runs
//! the full pipeline a real deployment needs:
//!
//! 1. cost each table (`fcc_dlrm::sharding::TableCost`),
//! 2. place tables with the LPT planner (vs round-robin for contrast),
//! 3. run the fused `embedding + All-to-All` through the *generic*
//!    operator API, whose `FusedProducer` contract handles the resulting
//!    uneven per-PE work lists without any changes,
//! 4. verify against a sequential oracle.
//!
//! ```sh
//! cargo run --release --example heterogeneous_sharding
//! ```

use fused_collectives::core::op::generic::{FusedProducer, GenericFusedPlan};
use fused_collectives::dlrm::sharding::{plan_table_shards, round_robin_shards, TableCost};
use fused_collectives::dlrm::{BatchGenerator, EmbeddingTable, PoolingMode};
use fused_collectives::shmem::{heap::HeapLayout, ShmemWorld};

const N_PES: usize = 4;
const N_TABLES: usize = 26;
const DIM: usize = 32;
const GLOBAL_BATCH: usize = 32;
const LOCAL_BATCH: usize = GLOBAL_BATCH / N_PES;

/// Heterogeneous workload: pooling factors spanning 2..=96.
fn poolings() -> Vec<usize> {
    (0..N_TABLES)
        .map(|t| if t % 9 == 0 { 96 } else { 2 + (t * 7) % 23 })
        .collect()
}

/// The fused producer for one PE's planner-assigned table set.
struct ShardedEmbedding {
    /// Tables this PE owns (global table index order as assigned).
    my_tables: Vec<usize>,
    tables: Vec<EmbeddingTable>,
    gens: Vec<BatchGenerator>,
}

impl FusedProducer for ShardedEmbedding {
    fn dim(&self) -> usize {
        DIM
    }
    fn num_items(&self, _me: usize) -> usize {
        self.my_tables.len() * GLOBAL_BATCH
    }
    fn output_len(&self) -> usize {
        LOCAL_BATCH * N_TABLES * DIM
    }
    fn destination(&self, _me: usize, item: usize) -> (usize, usize) {
        let table = self.my_tables[item / GLOBAL_BATCH];
        let sample = item % GLOBAL_BATCH;
        let owner = sample / LOCAL_BATCH;
        let ls = sample % LOCAL_BATCH;
        (owner, (ls * N_TABLES + table) * DIM)
    }
    fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
        self.produce_with(me, item, &mut Vec::new(), out);
    }
    // The worker's reusable index buffer: no bag allocation per item.
    fn produce_with(&self, _me: usize, item: usize, bag: &mut Vec<u32>, out: &mut [f32]) {
        let table = self.my_tables[item / GLOBAL_BATCH];
        let sample = item % GLOBAL_BATCH;
        self.gens[table].bag_into(table, sample, bag);
        self.tables[table].pool_into(bag, PoolingMode::Sum, out);
    }
}

fn main() {
    let poolings = poolings();
    let costs: Vec<TableCost> = poolings
        .iter()
        .map(|&p| TableCost::new(2_000, DIM, p, GLOBAL_BATCH))
        .collect();

    let lpt = plan_table_shards(&costs, N_PES);
    let rr = round_robin_shards(&costs, N_PES);
    println!(
        "{N_TABLES} heterogeneous tables over {N_PES} PEs: load imbalance \
         {:.1}% (LPT) vs {:.1}% (round-robin)",
        lpt.imbalance() * 100.0,
        rr.imbalance() * 100.0
    );
    for (pe, tables) in lpt.assignment.iter().enumerate() {
        println!(
            "  PE {pe}: {:2} tables, {:.1} MB of pass traffic",
            tables.len(),
            lpt.load[pe] / 1e6
        );
    }

    // Shared model state: every PE constructs the same tables/generators
    // but only pools its assigned ones.
    let tables: Vec<EmbeddingTable> = (0..N_TABLES)
        .map(|t| EmbeddingTable::new_random(2_000, DIM, 400 + t as u64))
        .collect();
    let gens: Vec<BatchGenerator> = poolings
        .iter()
        .map(|&p| BatchGenerator::new(41, 2_000, p))
        .collect();

    let producers: Vec<ShardedEmbedding> = (0..N_PES)
        .map(|pe| ShardedEmbedding {
            my_tables: lpt.assignment[pe].clone(),
            tables: tables.clone(),
            gens: gens.clone(),
        })
        .collect();

    // One plan per PE shape is not needed — the generic plan handles
    // per-PE item lists, but needs one shared layout; plan with the
    // worst-case producer set via a per-PE adapter.
    struct AllPes(Vec<ShardedEmbedding>);
    impl FusedProducer for AllPes {
        fn dim(&self) -> usize {
            DIM
        }
        fn num_items(&self, me: usize) -> usize {
            self.0[me].num_items(me)
        }
        fn output_len(&self) -> usize {
            self.0[0].output_len()
        }
        fn destination(&self, me: usize, item: usize) -> (usize, usize) {
            self.0[me].destination(me, item)
        }
        fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
            self.0[me].produce(me, item, out)
        }
    }
    let producer = AllPes(producers);

    let mut layout = HeapLayout::new();
    let plan = GenericFusedPlan::plan(&mut layout, N_PES, &producer, 4);
    let mut world = ShmemWorld::new(N_PES, layout).with_p2p_groups((0..N_PES as u32).collect());
    world.run(|ctx| plan.execute(ctx, &producer, 1));

    // Oracle: every (table, sample) pooled sequentially.
    for owner in 0..N_PES {
        let got = world.read(owner, plan.output);
        for ls in 0..LOCAL_BATCH {
            let sample = owner * LOCAL_BATCH + ls;
            for t in 0..N_TABLES {
                let want = tables[t].pool(&gens[t].bag(t, sample), PoolingMode::Sum);
                let off = (ls * N_TABLES + t) * DIM;
                assert_eq!(&got[off..off + DIM], want.as_slice(), "owner {owner}");
            }
        }
    }
    println!(
        "\nfused exchange over planner-assigned heterogeneous tables matches the \
         sequential oracle on all {N_PES} PEs"
    );
}
