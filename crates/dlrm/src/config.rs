//! DLRM model configurations and byte/FLOP accounting.

/// A distributed DLRM configuration.
///
/// Embedding tables are model-parallel (each PE owns `tables_per_pe` whole
/// tables — the paper's table-wise parallelism); MLPs are data-parallel.
/// The All-to-All between them exchanges, for every ordered PE pair,
/// `tables_per_pe × (global_batch / n_pes) × dim` floats.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmConfig {
    /// Participating PEs (GPUs).
    pub n_pes: usize,
    /// Embedding tables owned by each PE.
    pub tables_per_pe: usize,
    /// Rows per embedding table.
    pub table_rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Indices pooled per lookup bag.
    pub pooling: usize,
    /// Global batch size (must divide evenly among PEs).
    pub global_batch: usize,
    /// Bottom-MLP widths `[dense_in, ..., dim]`.
    pub bottom_mlp: Vec<usize>,
    /// Top-MLP widths `[interaction_out, ..., 1]`.
    pub top_mlp: Vec<usize>,
    /// RNG seed for tables, parameters, and data.
    pub seed: u64,
}

impl DlrmConfig {
    /// The hardware-evaluation shape (§4.1–4.3): embedding dim 256, with
    /// batch size and tables-per-GPU swept per figure. The paper does not
    /// state the hardware-eval pooling factor; 44 is calibrated so that at
    /// the 1024 | 256 design point embedding compute and All-to-All wire
    /// time are of the same order (the regime in which both the occupancy
    /// sweep of Fig. 11 and the slice sweep of Fig. 12 show structure, as
    /// they do in the paper).
    pub fn hw_eval(n_pes: usize, global_batch: usize, tables_per_pe: usize) -> DlrmConfig {
        DlrmConfig {
            n_pes,
            tables_per_pe,
            table_rows: 100_000,
            dim: 256,
            pooling: 44,
            global_batch,
            bottom_mlp: vec![13, 512, 256, 256],
            top_mlp: vec![0, 512, 256, 1], // top input patched by callers
            seed: 0xD1_2034,
        }
        .with_patched_top()
    }

    /// The Table 2 scale-out shape: dim 92, pooling 70, "avg MLP size 682,
    /// num MLP layers 43". We realize the 43 layers as an 8-layer bottom
    /// MLP and a 35-layer top MLP of width ≈682 (the paper does not give
    /// the split; total layer count and width match). Unlike
    /// [`hw_eval`](Self::hw_eval), the top-MLP input width stays at
    /// Table 2's stated average rather than being derived from the
    /// interaction output — with hundreds of tables the full pairwise
    /// interaction width would dwarf the published MLP sizes, so the
    /// published sizes win for the cost model.
    pub fn scale_out(n_pes: usize, global_batch: usize, tables_per_pe: usize) -> DlrmConfig {
        let mut bottom = vec![256];
        bottom.extend(std::iter::repeat_n(682, 7));
        bottom.push(92);
        let mut top = vec![682];
        top.extend(std::iter::repeat_n(682, 34));
        top.push(1);
        DlrmConfig {
            n_pes,
            tables_per_pe,
            table_rows: 1_000_000,
            dim: 92,
            pooling: 70,
            global_batch,
            bottom_mlp: bottom,
            top_mlp: top,
            seed: 0x5CA1E,
        }
    }

    /// Fills in the top MLP's input width from the interaction output
    /// size.
    fn with_patched_top(mut self) -> Self {
        let total_tables = self.tables_per_pe * self.n_pes;
        self.top_mlp[0] = crate::interaction::interaction_output_dim(self.dim, total_tables);
        self
    }

    /// Samples processed by each PE after the All-to-All.
    ///
    /// # Panics
    /// Panics if the global batch does not divide evenly.
    pub fn local_batch(&self) -> usize {
        assert_eq!(
            self.global_batch % self.n_pes,
            0,
            "global batch {} not divisible by {} PEs",
            self.global_batch,
            self.n_pes
        );
        self.global_batch / self.n_pes
    }

    /// Pooled output vectors each PE computes (its tables × the global
    /// batch — embedding is model-parallel, so every PE pools for
    /// *everyone's* samples).
    pub fn outputs_per_pe(&self) -> usize {
        self.tables_per_pe * self.global_batch
    }

    /// Bytes each ordered PE pair exchanges in the All-to-All.
    pub fn alltoall_bytes_per_pair(&self) -> u64 {
        (self.tables_per_pe * self.local_batch() * self.dim * 4) as u64
    }

    /// HBM bytes of one pooled lookup (reads + output write).
    pub fn bytes_per_pooled_lookup(&self) -> f64 {
        ((self.pooling + 1) * self.dim * 4) as f64
    }

    /// FLOPs of the bottom MLP per sample.
    pub fn bottom_mlp_flops_per_sample(&self) -> f64 {
        mlp_flops(&self.bottom_mlp)
    }

    /// FLOPs of the top MLP per sample.
    pub fn top_mlp_flops_per_sample(&self) -> f64 {
        mlp_flops(&self.top_mlp)
    }
}

fn mlp_flops(widths: &[usize]) -> f64 {
    widths.windows(2).map(|w| 2.0 * (w[0] * w[1]) as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hw_eval_shape_matches_paper() {
        let c = DlrmConfig::hw_eval(2, 1024, 256);
        assert_eq!(c.dim, 256);
        assert_eq!(c.local_batch(), 512);
        assert_eq!(c.outputs_per_pe(), 256 * 1024);
        // Per pair: 256 tables x 512 samples x 1 KiB = 128 MiB.
        assert_eq!(c.alltoall_bytes_per_pair(), 128 * 1024 * 1024);
    }

    #[test]
    fn scale_out_shape_matches_table2() {
        let c = DlrmConfig::scale_out(128, 4096, 4);
        assert_eq!(c.dim, 92);
        assert_eq!(c.pooling, 70);
        // 43 total MLP layers = 8 bottom + 35 top (widths lists have one
        // more entry than layer count).
        let layers = (c.bottom_mlp.len() - 1) + (c.top_mlp.len() - 1);
        assert_eq!(layers, 43);
        // Interior widths are 682.
        assert!(c.bottom_mlp[1..c.bottom_mlp.len() - 1]
            .iter()
            .all(|&w| w == 682));
    }

    #[test]
    fn top_mlp_input_matches_interaction_output() {
        let c = DlrmConfig::hw_eval(2, 256, 4);
        assert_eq!(
            c.top_mlp[0],
            crate::interaction::interaction_output_dim(256, 8)
        );
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uneven_batch_rejected() {
        DlrmConfig::hw_eval(3, 1024, 4).local_batch();
    }

    #[test]
    fn byte_accounting_scales_linearly() {
        let a = DlrmConfig::hw_eval(2, 512, 64);
        let b = DlrmConfig::hw_eval(2, 1024, 64);
        assert_eq!(2 * a.alltoall_bytes_per_pair(), b.alltoall_bytes_per_pair());
    }

    #[test]
    fn mlp_flops_positive() {
        let c = DlrmConfig::scale_out(128, 4096, 4);
        assert!(c.bottom_mlp_flops_per_sample() > 0.0);
        assert!(c.top_mlp_flops_per_sample() > c.bottom_mlp_flops_per_sample());
    }
}
