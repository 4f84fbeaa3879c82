//! Timed simulation of the zero-copy fused kernel on an all-P2P node
//! (Fig. 14).
//!
//! On a fully connected xGMI node the paper launches one *zero-copy fused
//! kernel per table* (like the baseline, no persistence): GPU threads pool
//! and store results directly to the destination GPU's buffer. Versus the
//! baseline this removes (a) the bulk All-to-All's exposed wire time,
//! (b) the RCCL copy kernel, and (c) the intermediate store of remote
//! vectors to local HBM — remote stores stream over xGMI concurrently with
//! the pooling reads, so the kernel's duration is the max of its HBM time
//! and its per-link egress time.

use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::run_kernel;
use fcc_gpu::kernel::{KernelDesc, KernelResources, WorkShape};
use fcc_net::Topology;
use fcc_sim::SimTime;

use super::FusedTuning;

/// Cost breakdown of the zero-copy fused pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroCopyResult {
    /// Device compute (HBM-bound pooling) across all table kernels.
    pub compute: SimTime,
    /// Extra time in kernels where xGMI egress, not HBM, was the
    /// bottleneck.
    pub exposed_egress: SimTime,
    /// Host launch overheads.
    pub overheads: SimTime,
    /// End-to-end time.
    pub total: SimTime,
}

/// Simulates one PE's zero-copy fused pass over a fully connected node.
///
/// # Panics
/// Panics if `topo` is not [`Topology::FullyConnected`].
pub fn simulate_zero_copy(
    cfg: &DlrmConfig,
    gpu: &GpuConfig,
    topo: &Topology,
    tuning: &FusedTuning,
) -> ZeroCopyResult {
    let Topology::FullyConnected { endpoints, link } = topo else {
        panic!("zero-copy fused kernels require an all-P2P (fully connected) node");
    };
    assert_eq!(*endpoints as usize, cfg.n_pes, "config/topology mismatch");

    let mut compute = SimTime::ZERO;
    let mut exposed = SimTime::ZERO;
    let mut overheads = SimTime::ZERO;

    // The local quarter of each output is an HBM store (already counted in
    // bytes_per_pooled_lookup); the remote fraction streams to each peer
    // over its dedicated link.
    let per_peer_bytes_per_table = (cfg.local_batch() * cfg.dim * 4) as u64;

    // Every table's kernel is the same kernel: price it once.
    let desc = KernelDesc {
        name: "zero-copy fused embedding".into(),
        resources: KernelResources::embedding_fused(),
        shape: WorkShape::MemoryBound {
            bytes_per_task: cfg.bytes_per_pooled_lookup(),
        },
        num_tasks: cfg.global_batch as u64,
    };
    let hbm_time = run_kernel(gpu, &desc, None).duration;
    // All peer links stream concurrently; each carries one shard.
    let egress_time =
        SimTime::from_nanos_f64(per_peer_bytes_per_table as f64 / link.bandwidth) + link.latency;
    let kernel = hbm_time.max(egress_time);
    for _ in 0..cfg.tables_per_pe {
        compute += hbm_time;
        exposed += kernel - hbm_time;
        overheads += gpu.kernel_launch_overhead;
    }

    let total = compute + exposed + overheads + tuning.drain_poll;
    ZeroCopyResult {
        compute,
        exposed_egress: exposed,
        overheads,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::baseline::{simulate_baseline, EmbeddingLaunch};
    use fcc_net::presets;

    fn cfg(batch: usize, tables: usize) -> DlrmConfig {
        DlrmConfig::hw_eval(4, batch, tables)
    }

    #[test]
    fn egress_hides_behind_compute_at_reference_point() {
        // At pooling 44 / dim 256, HBM traffic per output vastly exceeds
        // the per-peer xGMI bytes, so egress should be fully hidden.
        let r = simulate_zero_copy(
            &cfg(2048, 64),
            &GpuConfig::mi210(),
            &presets::quad_gpu_node(),
            &FusedTuning::default(),
        );
        assert_eq!(r.exposed_egress, SimTime::ZERO);
    }

    #[test]
    fn zero_copy_beats_intranode_baseline() {
        let gpu = GpuConfig::mi210();
        let topo = presets::quad_gpu_node();
        let c = cfg(2048, 64);
        let zc = simulate_zero_copy(&c, &gpu, &topo, &FusedTuning::default());
        let base = simulate_baseline(&c, &gpu, &topo, EmbeddingLaunch::PerTable);
        assert!(
            zc.total < base.total,
            "zero-copy {} !< baseline {}",
            zc.total,
            base.total
        );
    }

    #[test]
    fn tiny_pooling_exposes_egress() {
        // Shrink HBM work per output until the xGMI stream becomes the
        // bottleneck.
        let mut c = cfg(4096, 8);
        c.pooling = 1;
        let r = simulate_zero_copy(
            &c,
            &GpuConfig::mi210(),
            &presets::quad_gpu_node(),
            &FusedTuning::default(),
        );
        assert!(r.exposed_egress > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "fully connected")]
    fn rejects_non_p2p_topologies() {
        simulate_zero_copy(
            &cfg(1024, 8),
            &GpuConfig::mi210(),
            &presets::dual_node_ib(),
            &FusedTuning::default(),
        );
    }
}
