//! Table-wise sharding planner.
//!
//! The paper's DLRM substrate (Neo, \[43\]) distributes embedding tables
//! across GPUs with "table-wise, row-wise, column-wise and data"
//! parallelism. This module implements the table-wise planner: production
//! tables are wildly heterogeneous (a few huge, many small), and a naive
//! round-robin assignment leaves the GPU holding the big tables as the
//! straggler every fused kernel waits on. The planner uses LPT greedy
//! scheduling (longest processing time first) on per-table cost, which is
//! within 4/3 of optimal for makespan.

/// Per-table placement cost: the HBM traffic one training pass generates
/// against the table (the quantity the fused kernel's duration follows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableCost {
    /// Rows in the table (capacity; reported per shard for memory checks).
    pub rows: usize,
    /// Bytes touched per pass: `batch × (pooling + 1) × dim × 4`.
    pub traffic: f64,
}

impl TableCost {
    /// Cost of a table under a given workload.
    pub fn new(rows: usize, dim: usize, pooling: usize, batch: usize) -> TableCost {
        TableCost {
            rows,
            traffic: (batch * (pooling + 1) * dim * 4) as f64,
        }
    }
}

/// A sharding plan: `assignment[pe]` lists table indices placed on `pe`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingPlan {
    pub assignment: Vec<Vec<usize>>,
    /// Per-PE total traffic.
    pub load: Vec<f64>,
}

impl ShardingPlan {
    /// Load imbalance: `max_load / mean_load − 1` (0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let max = self.load.iter().copied().fold(0.0, f64::max);
        let mean = self.load.iter().sum::<f64>() / self.load.len().max(1) as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }
}

/// LPT greedy: sort tables by descending traffic, place each on the
/// currently least-loaded PE.
///
/// # Panics
/// Panics if `n_pes == 0`.
pub fn plan_table_shards(costs: &[TableCost], n_pes: usize) -> ShardingPlan {
    assert!(n_pes > 0, "need at least one PE");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .traffic
            .partial_cmp(&costs[a].traffic)
            .expect("traffic is never NaN")
            .then(a.cmp(&b)) // deterministic ties
    });
    let mut assignment = vec![Vec::new(); n_pes];
    let mut load = vec![0.0f64; n_pes];
    for t in order {
        let pe = load
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("no NaN loads"))
            .map(|(i, _)| i)
            .expect("n_pes > 0");
        assignment[pe].push(t);
        load[pe] += costs[t].traffic;
    }
    ShardingPlan { assignment, load }
}

/// Round-robin placement, the naive baseline the planner is judged
/// against.
pub fn round_robin_shards(costs: &[TableCost], n_pes: usize) -> ShardingPlan {
    assert!(n_pes > 0, "need at least one PE");
    let mut assignment = vec![Vec::new(); n_pes];
    let mut load = vec![0.0f64; n_pes];
    for (t, c) in costs.iter().enumerate() {
        assignment[t % n_pes].push(t);
        load[t % n_pes] += c.traffic;
    }
    ShardingPlan { assignment, load }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A production-like skew: a few huge tables, a long tail of small
    /// ones.
    fn skewed_costs(n: usize) -> Vec<TableCost> {
        (0..n)
            .map(|i| {
                let pooling = if i % 17 == 0 { 120 } else { 4 + i % 9 };
                TableCost::new(1_000_000 / (1 + i % 50), 92, pooling, 1024)
            })
            .collect()
    }

    #[test]
    fn every_table_assigned_exactly_once() {
        let costs = skewed_costs(100);
        let plan = plan_table_shards(&costs, 8);
        let mut seen = vec![false; costs.len()];
        for tables in &plan.assignment {
            for &t in tables {
                assert!(!seen[t], "table {t} assigned twice");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every table has an owner");
    }

    #[test]
    fn lpt_beats_round_robin_on_skewed_tables() {
        let costs = skewed_costs(120);
        let lpt = plan_table_shards(&costs, 8);
        let rr = round_robin_shards(&costs, 8);
        assert!(
            lpt.imbalance() < rr.imbalance(),
            "LPT {:.3} !< round-robin {:.3}",
            lpt.imbalance(),
            rr.imbalance()
        );
        // LPT's guarantee: within 4/3 of the perfect split (loose check).
        assert!(lpt.imbalance() < 1.0 / 3.0 + 1e-9);
    }

    #[test]
    fn uniform_tables_balance_perfectly() {
        let costs = vec![TableCost::new(1000, 64, 10, 256); 16];
        let plan = plan_table_shards(&costs, 4);
        assert!(plan.imbalance() < 1e-12);
        assert!(plan.assignment.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn more_tables_than_pes_not_required() {
        let costs = skewed_costs(3);
        let plan = plan_table_shards(&costs, 8);
        let nonempty = plan.assignment.iter().filter(|t| !t.is_empty()).count();
        assert_eq!(nonempty, 3);
    }

    #[test]
    fn deterministic_plans() {
        let costs = skewed_costs(64);
        assert_eq!(plan_table_shards(&costs, 8), plan_table_shards(&costs, 8));
    }

    #[test]
    fn traffic_formula() {
        let c = TableCost::new(10, 256, 32, 1024);
        assert_eq!(c.traffic, (1024 * 33 * 256 * 4) as f64);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        plan_table_shards(&[], 0);
    }
}
