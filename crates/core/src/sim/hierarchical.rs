//! The hierarchical baseline: several GPUs per node sharing one NIC.
//!
//! The paper's hardware evaluations are the two extremes — 4 P2P GPUs
//! with no NIC traffic (Fig. 14) and 1 GPU per NIC (Fig. 10). Production
//! nodes sit in between: `g` GPUs per node reach each other over xGMI but
//! *share* the node's NIC for everything cross-node (the Fig. 1a legacy
//! design the paper contrasts with Fig. 1b's NIC-per-GPU trend).
//!
//! The fused side of that system is [`simulate_fused`] itself, on a
//! topology with fewer endpoints than PEs: same-NIC slices take the
//! zero-copy store path, cross-NIC slices serialize on the shared NIC
//! (`sim/timed.rs`). This module is the baseline it is compared against:
//! per-table kernels, then a hierarchical bulk All-to-All — intra-node
//! copy kernel + the shared NIC carrying each node's whole cross-node
//! volume.
//!
//! The interesting output is how the fused win erodes as `g` grows (less
//! NIC bandwidth per GPU means less communication to hide *per unit
//! compute* — and more of it exposed past compute's end).
//!
//! [`simulate_fused`]: super::fused::simulate_fused

use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::run_kernel;
use fcc_gpu::kernel::{KernelDesc, KernelResources, WorkShape};
use fcc_net::Topology;
use fcc_sim::SimTime;

/// The baseline on `topo`'s nodes, `cfg.n_pes / topo.endpoints()` GPUs
/// behind each NIC.
pub fn hierarchical_baseline(cfg: &DlrmConfig, gpu: &GpuConfig, topo: &Topology) -> SimTime {
    let nodes = topo.endpoints() as usize;
    let gpus_per_node = cfg.n_pes / nodes;
    let fits = gpus_per_node * nodes == cfg.n_pes;
    assert!(fits, "config/system size mismatch");
    // Per-table kernels, then hierarchical bulk All-to-All.
    let desc = KernelDesc {
        name: "embedding".into(),
        resources: KernelResources::embedding_baseline(),
        shape: WorkShape::MemoryBound {
            bytes_per_task: cfg.bytes_per_pooled_lookup(),
        },
        num_tasks: cfg.global_batch as u64,
    };
    let kernel = run_kernel(gpu, &desc, None).duration;
    let compute = SimTime::from_nanos(
        (kernel + gpu.kernel_launch_overhead).as_nanos() * cfg.tables_per_pe as u64,
    );
    // Cross-node volume per node: its g GPUs' payloads to all other nodes.
    let cross_bytes = cfg.alltoall_bytes_per_pair() as f64
        * gpus_per_node as f64
        * (cfg.n_pes - gpus_per_node) as f64;
    let nic_time =
        SimTime::from_nanos_f64(cross_bytes / topo.link().bandwidth) + topo.link().latency;
    // Intra-node copy kernel (as in BaselineCosts::alltoall).
    let intra_bytes = cfg.alltoall_bytes_per_pair() * (gpus_per_node.saturating_sub(1)) as u64;
    let copy_desc = KernelDesc {
        name: "copy".into(),
        resources: KernelResources {
            wg_size: 256,
            vgprs_per_thread: 32,
            lds_per_wg: 0,
        },
        shape: WorkShape::MemoryBound {
            bytes_per_task: 4096.0,
        },
        num_tasks: (2 * intra_bytes).div_ceil(4096).max(1),
    };
    let copy = if intra_bytes > 0 {
        run_kernel(gpu, &copy_desc, None).duration
    } else {
        SimTime::ZERO
    };
    compute + gpu.stream_sync_overhead + copy + nic_time + gpu.stream_sync_overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fused::{simulate_fused, FusedParams};
    use fcc_net::LinkSpec;

    fn cfg(n_pes: usize) -> DlrmConfig {
        DlrmConfig::hw_eval(n_pes, 64 * n_pes, 32)
    }

    fn nodes(n: u32) -> Topology {
        Topology::Switched {
            endpoints: n,
            link: LinkSpec::infiniband_20gbs(),
        }
    }

    /// The fused kernel's makespan on `topo`, and the messages its PEs posted.
    fn fused(cfg: DlrmConfig, topo: Topology) -> (SimTime, u64) {
        let r = simulate_fused(&FusedParams::new(cfg, GpuConfig::mi210(), topo));
        (r.makespan(), r.per_pe.iter().map(|p| p.messages).sum())
    }

    #[test]
    fn fused_wins_across_gpus_per_nic() {
        let gpu = GpuConfig::mi210();
        for g in [1usize, 2, 4] {
            let (cfg, topo) = (cfg(4 * g), nodes(4));
            let baseline = hierarchical_baseline(&cfg, &gpu, &topo);
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
        let gpu = GpuConfig::mi210();
        let (narrow, wide) = (nodes(8), nodes(2));
        let base = |topo| hierarchical_baseline(&cfg(8), &gpu, topo);
        assert!(base(&wide) >= base(&narrow));
        assert!(fused(cfg(8), wide).0 >= fused(cfg(8), narrow).0);
    }

    #[test]
    fn single_node_all_p2p_has_no_nic_traffic() {
        let gpu = GpuConfig::mi210();
        let baseline = hierarchical_baseline(&cfg(4), &gpu, &nodes(1));
        let (fused, messages) = fused(cfg(4), nodes(1));
        assert!(fused < baseline);
        assert_eq!(messages, 0, "same-NIC peers are P2P");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn config_system_size_checked() {
        hierarchical_baseline(&cfg(4), &GpuConfig::mi210(), &nodes(3));
    }
}
