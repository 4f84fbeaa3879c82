//! Timed simulation of the bulk-synchronous baseline.
//!
//! The paper's baseline is the public DLRM code: one
//! `EmbeddingBag_updateOutputKernel_sum_mean` launch per table, a stream
//! synchronization, then RCCL's All-to-All at the kernel boundary. An
//! ablation variant batches all tables into one kernel to separate the
//! launch-overhead effect from the overlap effect.

use fcc_collectives::baseline::BaselineCosts;
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::run_kernel;
use fcc_gpu::host::{HostTimeline, PhaseKind};
use fcc_gpu::kernel::KernelDesc;
use fcc_net::Topology;
use fcc_sim::SimTime;

/// Kernel-granularity choice for the baseline embedding pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbeddingLaunch {
    /// One kernel per table (the DLRM reference behaviour).
    PerTable,
    /// A single batched kernel over all tables (ablation).
    Batched,
}

/// Cost breakdown of the baseline `embedding → All-to-All` sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineResult {
    /// Device time in embedding kernels.
    pub embedding: SimTime,
    /// Host launch + sync overheads.
    pub overheads: SimTime,
    /// The collective's full cost (entry/wire/copy/exit).
    pub alltoall: SimTime,
    /// End-to-end time.
    pub total: SimTime,
}

/// Simulates one PE's baseline pass (all PEs are symmetric).
pub fn simulate_baseline(
    cfg: &DlrmConfig,
    gpu: &GpuConfig,
    topo: &Topology,
    launch: EmbeddingLaunch,
) -> BaselineResult {
    let tl = timeline(cfg, gpu, topo, launch);
    BaselineResult {
        embedding: tl.total(PhaseKind::Kernel),
        overheads: tl.total(PhaseKind::Launch) + tl.total(PhaseKind::Sync),
        alltoall: tl.total(PhaseKind::Communication),
        total: tl.now(),
    }
}

/// The baseline pass on the host timeline: the embedding launches, a
/// stream sync, the bulk All-to-All.
fn timeline<'g>(
    cfg: &DlrmConfig,
    gpu: &'g GpuConfig,
    topo: &Topology,
    launch: EmbeddingLaunch,
) -> HostTimeline<'g> {
    let mut tl = HostTimeline::new(gpu);
    match launch {
        EmbeddingLaunch::PerTable => {
            let desc = KernelDesc::embedding_pooling(
                "EmbeddingBag_updateOutputKernel_sum_mean",
                cfg.global_batch as u64,
                cfg.dim as u32,
                cfg.pooling as u32,
            );
            // Every table's kernel is the same kernel: price it once.
            let timing = run_kernel(gpu, &desc, None);
            for _ in 0..cfg.tables_per_pe {
                tl.launch_priced(&desc, timing);
            }
        }
        EmbeddingLaunch::Batched => {
            let desc = KernelDesc::embedding_pooling(
                "embedding_batched",
                cfg.outputs_per_pe() as u64,
                cfg.dim as u32,
                cfg.pooling as u32,
            );
            tl.launch_kernel(&desc, None);
        }
    }
    tl.sync();

    let a2a = BaselineCosts::alltoall(gpu, topo, cfg.alltoall_bytes_per_pair());
    tl.communication("rccl all-to-all", a2a.total());
    tl
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;

    fn cfg() -> DlrmConfig {
        DlrmConfig::hw_eval(2, 256, 16)
    }

    #[test]
    fn breakdown_sums_to_total() {
        let r = simulate_baseline(
            &cfg(),
            &GpuConfig::mi210(),
            &presets::dual_node_ib(),
            EmbeddingLaunch::PerTable,
        );
        assert_eq!(r.embedding + r.overheads + r.alltoall, r.total);
    }

    #[test]
    fn per_table_launches_every_table_and_prices_one_kernel() {
        let (c, gpu) = (cfg(), GpuConfig::mi210());
        let topo = presets::dual_node_ib();
        let tl = timeline(&c, &gpu, &topo, EmbeddingLaunch::PerTable);
        // A launch and a kernel phase per table, the sync, the All-to-All.
        assert_eq!(tl.phases().len(), 2 * c.tables_per_pe + 2);
        let desc = KernelDesc::embedding_pooling(
            "EmbeddingBag_updateOutputKernel_sum_mean",
            c.global_batch as u64,
            c.dim as u32,
            c.pooling as u32,
        );
        let kernel = run_kernel(&gpu, &desc, None).duration.as_nanos();
        let r = simulate_baseline(&c, &gpu, &topo, EmbeddingLaunch::PerTable);
        assert_eq!(r.embedding.as_nanos(), c.tables_per_pe as u64 * kernel);
    }

    #[test]
    fn per_table_pays_more_overhead_than_batched() {
        let gpu = GpuConfig::mi210();
        let topo = presets::dual_node_ib();
        let per = simulate_baseline(&cfg(), &gpu, &topo, EmbeddingLaunch::PerTable);
        let bat = simulate_baseline(&cfg(), &gpu, &topo, EmbeddingLaunch::Batched);
        assert!(per.overheads > bat.overheads);
        assert!(per.total > bat.total);
        // Same bytes on the wire either way.
        assert_eq!(per.alltoall, bat.alltoall);
    }

    #[test]
    fn small_batch_underutilizes_per_table_kernels() {
        // With a tiny batch, each per-table kernel runs few WGs and the
        // batched kernel's better occupancy shows as less device time.
        let gpu = GpuConfig::mi210();
        let topo = presets::dual_node_ib();
        let mut small = cfg();
        small.global_batch = 64;
        let per = simulate_baseline(&small, &gpu, &topo, EmbeddingLaunch::PerTable);
        let bat = simulate_baseline(&small, &gpu, &topo, EmbeddingLaunch::Batched);
        assert!(per.embedding > bat.embedding);
    }

    #[test]
    fn alltoall_scales_with_batch() {
        let gpu = GpuConfig::mi210();
        let topo = presets::dual_node_ib();
        let mut big = cfg();
        big.global_batch = 512;
        let a = simulate_baseline(&cfg(), &gpu, &topo, EmbeddingLaunch::PerTable);
        let b = simulate_baseline(&big, &gpu, &topo, EmbeddingLaunch::PerTable);
        assert!(b.alltoall > a.alltoall);
    }
}
