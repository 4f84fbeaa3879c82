//! Timing of the bulk-synchronous (RCCL-style) baseline.
//!
//! The baseline the paper measures against is: finish the producer kernel,
//! synchronize the stream (control transfer to the CPU), have the host
//! trigger the collective, wait for the wire, synchronize again. Intra-node
//! collectives additionally run a copy kernel that moves data between GPU
//! buffers over xGMI. [`BaselineCosts`] prices those pieces so the figure
//! harness can assemble "embedding kernels + All-to-All" denominators.

use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::run_kernel;
use fcc_gpu::kernel::{KernelDesc, KernelResources, WorkShape};
use fcc_net::{analytic, Topology};
use fcc_sim::SimTime;

/// Cost components of a host-initiated collective on a given system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineCosts {
    /// Host-side control transfer into the collective (stream sync +
    /// launch of the communication kernel / NIC posting).
    pub entry_overhead: SimTime,
    /// Pure communication time.
    pub wire: SimTime,
    /// Device copy-kernel time (intra-node staging), zero for NIC paths.
    pub copy_kernel: SimTime,
    /// Host-side control transfer back to compute.
    pub exit_overhead: SimTime,
}

impl BaselineCosts {
    /// Total latency added to the critical path.
    pub fn total(&self) -> SimTime {
        self.entry_overhead + self.wire + self.copy_kernel + self.exit_overhead
    }

    /// Prices a bulk All-to-All of `bytes_per_pair` per ordered PE pair.
    ///
    /// On a [`Topology::FullyConnected`] node, RCCL moves data with a
    /// device copy kernel: every GPU streams its full send buffer out over
    /// xGMI *and* writes its receive buffer to HBM, so the copy kernel is
    /// charged `2 × total bytes` of HBM traffic in addition to the wire
    /// time.
    pub fn alltoall(gpu: &GpuConfig, topo: &Topology, bytes_per_pair: u64) -> BaselineCosts {
        let n = topo.endpoints() as u64;
        let wire = analytic::alltoall(topo, bytes_per_pair);
        let copy_kernel = match topo {
            Topology::FullyConnected { .. } => {
                let total_bytes = bytes_per_pair * n.saturating_sub(1);
                copy_kernel_time(gpu, 2 * total_bytes)
            }
            _ => SimTime::ZERO,
        };
        BaselineCosts {
            entry_overhead: gpu.stream_sync_overhead + gpu.kernel_launch_overhead,
            wire,
            copy_kernel,
            exit_overhead: gpu.stream_sync_overhead,
        }
    }

    /// Prices a bulk AllReduce of `bytes` per endpoint.
    pub fn allreduce(gpu: &GpuConfig, topo: &Topology, bytes: u64) -> BaselineCosts {
        BaselineCosts {
            entry_overhead: gpu.stream_sync_overhead + gpu.kernel_launch_overhead,
            wire: analytic::allreduce(topo, bytes),
            copy_kernel: SimTime::ZERO,
            exit_overhead: gpu.stream_sync_overhead,
        }
    }
}

/// Device time for a memory-bound copy kernel moving `bytes` through HBM.
fn copy_kernel_time(gpu: &GpuConfig, bytes: u64) -> SimTime {
    if bytes == 0 {
        return SimTime::ZERO;
    }
    // Model as 4 KiB tasks on a lightweight kernel.
    let task_bytes = 4096u64;
    let desc = KernelDesc {
        name: "rccl copy".into(),
        resources: KernelResources {
            wg_size: 256,
            vgprs_per_thread: 32,
            lds_per_wg: 0,
        },
        shape: WorkShape::MemoryBound {
            bytes_per_task: task_bytes as f64,
        },
        num_tasks: bytes.div_ceil(task_bytes),
    };
    run_kernel(gpu, &desc, None).duration
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;

    #[test]
    fn internode_alltoall_has_no_copy_kernel() {
        let gpu = GpuConfig::mi210();
        let c = BaselineCosts::alltoall(&gpu, &presets::dual_node_ib(), 1 << 20);
        assert_eq!(c.copy_kernel, SimTime::ZERO);
        assert!(c.wire > SimTime::ZERO);
        assert!(c.total() > c.wire);
    }

    #[test]
    fn intranode_alltoall_pays_copy_kernel() {
        let gpu = GpuConfig::mi210();
        let c = BaselineCosts::alltoall(&gpu, &presets::quad_gpu_node(), 1 << 20);
        assert!(c.copy_kernel > SimTime::ZERO);
    }

    #[test]
    fn overheads_are_fixed_costs() {
        let gpu = GpuConfig::mi210();
        let small = BaselineCosts::alltoall(&gpu, &presets::dual_node_ib(), 1 << 10);
        let large = BaselineCosts::alltoall(&gpu, &presets::dual_node_ib(), 1 << 24);
        assert_eq!(small.entry_overhead, large.entry_overhead);
        assert_eq!(small.exit_overhead, large.exit_overhead);
        assert!(large.wire > small.wire);
        // Small transfers are overhead-dominated — the regime where fusing
        // kernels wins disproportionately.
        assert!(small.entry_overhead + small.exit_overhead > small.wire);
    }

    #[test]
    fn allreduce_priced() {
        let gpu = GpuConfig::mi210();
        let t = presets::torus_128();
        assert!(BaselineCosts::allreduce(&gpu, &t, 1 << 22).total() > SimTime::ZERO);
    }
}
