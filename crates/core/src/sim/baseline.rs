//! Timed simulation of the bulk-synchronous baseline.
//!
//! The paper's baseline is the public DLRM code: one
//! `EmbeddingBag_updateOutputKernel_sum_mean` launch per table, a stream
//! synchronization, then RCCL's All-to-All at the kernel boundary. Two
//! ablation variants batch all tables into one kernel: in one piece, to
//! separate the launch-overhead effect from the overlap effect, or in `K`
//! batch chunks pipelined against their collectives — Wang et al.'s
//! kernel-granular decomposition (ASPLOS'23), the paper's closest related
//! work. The paper argues that decomposition pays a launch and a stream
//! sync per chunk, and kernels that lose efficiency as chunks shrink.

use fcc_collectives::baseline::BaselineCosts;
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::run_kernel;
use fcc_gpu::kernel::KernelDesc;
use fcc_net::Topology;
use fcc_sim::SimTime;

/// Kernel-granularity choice for the baseline embedding pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbeddingLaunch {
    /// One kernel per table (the DLRM reference behaviour).
    PerTable,
    /// One batched kernel over all tables per chunk of the batch, each
    /// chunk's All-to-All overlapping the next chunk's kernel. `Batched(1)`
    /// is the unpipelined batched ablation.
    Batched(u32),
}

/// Cost breakdown of the baseline `embedding → All-to-All` sequence.
///
/// With one chunk the parts run back to back and sum to `total`; with `K`
/// pipelined chunks they are totals over the chunks and overlap.
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

/// Simulates one PE's baseline pass (all PEs are symmetric; PEs beyond
/// `topo`'s endpoints share NICs, see [`BaselineCosts::alltoall`]).
///
/// The compute stream runs each chunk's launches back to back. A chunk's
/// collective starts, after a stream sync, once its kernels are done and
/// the previous chunk's collective has finished (one NIC).
///
/// # Panics
/// Panics unless `1 ≤ K ≤ global_batch` for `Batched(K)`.
pub fn simulate_baseline(
    cfg: &DlrmConfig,
    gpu: &GpuConfig,
    topo: &Topology,
    launch: EmbeddingLaunch,
) -> BaselineResult {
    let (desc, launches, chunks) = match launch {
        EmbeddingLaunch::PerTable => {
            let desc = KernelDesc::embedding_pooling(
                "EmbeddingBag_updateOutputKernel_sum_mean",
                cfg.global_batch as u64,
                cfg.dim as u32,
                cfg.pooling as u32,
            );
            (desc, cfg.tables_per_pe as u64, 1)
        }
        EmbeddingLaunch::Batched(k) => {
            let in_range = k >= 1 && k as usize <= cfg.global_batch;
            assert!(in_range, "chunk count {k} out of range");
            let tasks = (cfg.outputs_per_pe() as u64).div_ceil(k as u64);
            let desc = KernelDesc::embedding_pooling(
                "embedding_batched",
                tasks,
                cfg.dim as u32,
                cfg.pooling as u32,
            );
            (desc, 1, k as u64)
        }
    };
    // Every launch runs the same kernel: price it once.
    let kernel = run_kernel(gpu, &desc, None).duration.as_nanos() * launches;
    let launch_overhead = gpu.kernel_launch_overhead.as_nanos() * launches;
    let chunk_compute = SimTime::from_nanos(kernel + launch_overhead);
    let bytes = cfg.alltoall_bytes_per_pair() / chunks;
    let a2a = BaselineCosts::alltoall(gpu, topo, cfg.n_pes, bytes).total();

    let (mut compute_end, mut comm_end) = (SimTime::ZERO, SimTime::ZERO);
    for _ in 0..chunks {
        compute_end += chunk_compute;
        comm_end = compute_end.max(comm_end) + gpu.stream_sync_overhead + a2a;
    }
    let all_chunks = |per_chunk: u64| SimTime::from_nanos(per_chunk * chunks);
    BaselineResult {
        embedding: all_chunks(kernel),
        overheads: all_chunks(launch_overhead + gpu.stream_sync_overhead.as_nanos()),
        alltoall: all_chunks(a2a.as_nanos()),
        total: comm_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fused::{simulate_fused, FusedParams};
    use fcc_net::{presets, LinkSpec};

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
        let desc = KernelDesc::embedding_pooling(
            "EmbeddingBag_updateOutputKernel_sum_mean",
            c.global_batch as u64,
            c.dim as u32,
            c.pooling as u32,
        );
        let kernel = run_kernel(&gpu, &desc, None).duration.as_nanos();
        let r = simulate_baseline(&c, &gpu, &topo, EmbeddingLaunch::PerTable);
        let tables = c.tables_per_pe as u64;
        assert_eq!(r.embedding.as_nanos(), tables * kernel);
        let launch = gpu.kernel_launch_overhead.as_nanos();
        let sync = gpu.stream_sync_overhead.as_nanos();
        assert_eq!(r.overheads.as_nanos(), tables * launch + sync);
    }

    #[test]
    fn per_table_pays_more_overhead_than_batched() {
        let gpu = GpuConfig::mi210();
        let topo = presets::dual_node_ib();
        let per = simulate_baseline(&cfg(), &gpu, &topo, EmbeddingLaunch::PerTable);
        let bat = simulate_baseline(&cfg(), &gpu, &topo, EmbeddingLaunch::Batched(1));
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
        let bat = simulate_baseline(&small, &gpu, &topo, EmbeddingLaunch::Batched(1));
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

    /// The tiling ablation's point: 1024|64 on two IB nodes.
    fn tiled(chunks: u32) -> SimTime {
        let c = DlrmConfig::hw_eval(2, 1024, 64);
        let topo = presets::dual_node_ib();
        let launch = EmbeddingLaunch::Batched(chunks);
        simulate_baseline(&c, &GpuConfig::mi210(), &topo, launch).total
    }

    #[test]
    fn moderate_tiling_beats_bulk() {
        // The decomposition DOES overlap — the paper grants that. 4-8
        // chunks should beat the bulk baseline.
        assert!(tiled(8) < tiled(1));
    }

    #[test]
    fn excessive_tiling_degrades() {
        // Past some K, launch overheads and shrunken kernels win out.
        let (t8, t256) = (tiled(8), tiled(256));
        assert!(t256 > t8, "256 chunks {t256} !> 8 chunks {t8}");
    }

    #[test]
    fn fused_beats_best_tiled() {
        // The paper's claim versus Wang et al.: slice-granular fusion beats
        // kernel-granular pipelining at its best K.
        let best_tiled = [2u32, 4, 8, 16, 32].map(tiled).into_iter().min().unwrap();
        let params = FusedParams::new(
            DlrmConfig::hw_eval(2, 1024, 64),
            GpuConfig::mi210(),
            presets::dual_node_ib(),
        );
        let fused = simulate_fused(&params).makespan();
        assert!(
            fused < best_tiled,
            "fused {fused} !< best tiled {best_tiled}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_chunks_rejected() {
        tiled(0);
    }

    /// `n_pes` GPUs behind `nics` switched NICs, 64 samples per GPU.
    fn shared(n_pes: usize, nics: u32) -> (DlrmConfig, Topology) {
        let topo = Topology::Switched {
            endpoints: nics,
            link: LinkSpec::infiniband_20gbs(),
        };
        (DlrmConfig::hw_eval(n_pes, 64 * n_pes, 32), topo)
    }

    fn base(cfg: &DlrmConfig, topo: &Topology) -> SimTime {
        let launch = EmbeddingLaunch::PerTable;
        simulate_baseline(cfg, &GpuConfig::mi210(), topo, launch).total
    }

    /// The fused kernel's makespan, and the messages its PEs posted.
    fn fused(cfg: DlrmConfig, topo: Topology) -> (SimTime, u64) {
        let r = simulate_fused(&FusedParams::new(cfg, GpuConfig::mi210(), topo));
        (r.makespan(), r.per_pe.iter().map(|p| p.messages).sum())
    }

    #[test]
    fn fused_wins_across_gpus_per_nic() {
        for g in [1usize, 2, 4] {
            let (cfg, topo) = shared(4 * g, 4);
            let baseline = base(&cfg, &topo);
            let (fused, _) = fused(cfg, topo);
            assert!(
                fused < baseline,
                "g={g}: fused {fused} !< baseline {baseline}"
            );
        }
    }

    #[test]
    fn shared_nic_slows_both_systems() {
        // Same total PEs, fewer NICs: absolute times grow for both. With 4
        // GPUs per NIC the fused kernel has more exposed communication
        // than with a NIC per GPU.
        let (narrow, wide) = (shared(8, 8), shared(8, 2));
        assert!(base(&wide.0, &wide.1) >= base(&narrow.0, &narrow.1));
        assert!(fused(wide.0, wide.1).0 >= fused(narrow.0, narrow.1).0);
    }

    #[test]
    fn single_node_all_p2p_has_no_nic_traffic() {
        let (cfg, topo) = shared(4, 1);
        let baseline = base(&cfg, &topo);
        let (fused, messages) = fused(cfg, topo);
        assert!(fused < baseline);
        assert_eq!(messages, 0, "same-NIC peers are P2P");
    }

    #[test]
    #[should_panic(expected = "cannot share 3 NICs evenly")]
    fn config_system_size_checked() {
        let (cfg, topo) = shared(4, 3);
        base(&cfg, &topo);
    }
}
