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

    /// Prices a bulk All-to-All of `bytes_per_pair` per ordered pair of
    /// `n_pes` PEs on `topo`.
    ///
    /// With more PEs than endpoints, `g = n_pes / endpoints` PEs share each
    /// NIC, as in the fused simulation; only a [`Topology::Switched`] NIC
    /// can be shared. The node's `g × (n_pes − g)` cross-NIC payloads
    /// serialize through its NIC. Its `g − 1` same-node peers, and every
    /// peer on a [`Topology::FullyConnected`] node, are reached over xGMI
    /// by RCCL's device copy kernel: it streams each payload out *and*
    /// writes it to HBM, so it is charged `2 ×` their bytes of HBM traffic.
    ///
    /// # Panics
    /// Panics if the PEs cannot share the endpoints evenly, or share them
    /// on a topology other than `Switched`.
    pub fn alltoall(
        gpu: &GpuConfig,
        topo: &Topology,
        n_pes: usize,
        bytes_per_pair: u64,
    ) -> BaselineCosts {
        let nics = topo.endpoints() as usize;
        let fits = n_pes <= nics || n_pes.is_multiple_of(nics);
        assert!(fits, "{n_pes} PEs cannot share {nics} NICs evenly");
        let g = (n_pes / nics).max(1);
        let shared = matches!(topo, Topology::Switched { .. });
        assert!(g == 1 || shared, "only a switched NIC can be shared");
        let (wire, p2p_peers) = match topo {
            Topology::Switched { link, .. } if g > 1 => {
                let cross = (g * (n_pes - g)) as u64;
                let serialization = link.occupancy(bytes_per_pair).as_nanos() * cross;
                (SimTime::from_nanos(serialization) + link.latency, g - 1)
            }
            Topology::FullyConnected { .. } => (analytic::alltoall(topo, bytes_per_pair), nics - 1),
            _ => (analytic::alltoall(topo, bytes_per_pair), 0),
        };
        BaselineCosts {
            entry_overhead: gpu.stream_sync_overhead + gpu.kernel_launch_overhead,
            wire,
            copy_kernel: copy_kernel_time(gpu, 2 * bytes_per_pair * p2p_peers as u64),
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
        let c = BaselineCosts::alltoall(&gpu, &presets::dual_node_ib(), 2, 1 << 20);
        assert_eq!(c.copy_kernel, SimTime::ZERO);
        assert!(c.wire > SimTime::ZERO);
        assert!(c.total() > c.wire);
    }

    #[test]
    fn intranode_alltoall_pays_copy_kernel() {
        let gpu = GpuConfig::mi210();
        let c = BaselineCosts::alltoall(&gpu, &presets::quad_gpu_node(), 4, 1 << 20);
        assert!(c.copy_kernel > SimTime::ZERO);
    }

    #[test]
    fn overheads_are_fixed_costs() {
        let gpu = GpuConfig::mi210();
        let small = BaselineCosts::alltoall(&gpu, &presets::dual_node_ib(), 2, 1 << 10);
        let large = BaselineCosts::alltoall(&gpu, &presets::dual_node_ib(), 2, 1 << 24);
        assert_eq!(small.entry_overhead, large.entry_overhead);
        assert_eq!(small.exit_overhead, large.exit_overhead);
        assert!(large.wire > small.wire);
        // Small transfers are overhead-dominated — the regime where fusing
        // kernels wins disproportionately.
        assert!(small.entry_overhead + small.exit_overhead > small.wire);
    }

    #[test]
    fn a_nic_per_pe_prices_the_unshared_alltoall() {
        // Values of the model before NIC sharing, which priced every
        // topology with one PE per endpoint.
        let gpu = GpuConfig::mi210();
        let switched = Topology::Switched {
            endpoints: 8,
            link: fcc_net::LinkSpec::infiniband_20gbs(),
        };
        for (topo, n_pes, wire, copy) in [
            (switched, 8, 368_303, 0),
            (presets::quad_gpu_node(), 4, 39_822, 8_781),
            (presets::torus((4, 4)), 16, 672_488, 0),
        ] {
            let c = BaselineCosts::alltoall(&gpu, &topo, n_pes, 1 << 20);
            assert_eq!(c.entry_overhead, SimTime::from_nanos(8_000));
            assert_eq!(c.wire, SimTime::from_nanos(wire), "{topo:?}");
            assert_eq!(c.copy_kernel, SimTime::from_nanos(copy), "{topo:?}");
            assert_eq!(c.exit_overhead, SimTime::from_nanos(2_000));
        }
    }

    #[test]
    fn shared_nics_serialize_cross_node_payloads_and_copy_the_rest() {
        let gpu = GpuConfig::mi210();
        let link = fcc_net::LinkSpec::infiniband_20gbs();
        let bytes = 1 << 20;
        for g in [1u64, 2, 4] {
            let n = 16;
            let topo = Topology::Switched {
                endpoints: (n / g) as u32,
                link,
            };
            let c = BaselineCosts::alltoall(&gpu, &topo, n as usize, bytes);
            let floor = (g * (n - g) * bytes) as f64 / link.bandwidth;
            let floor = SimTime::from_nanos_f64(floor) + link.latency;
            assert!(c.wire >= floor, "g={g}: wire {} < {floor}", c.wire);
            assert_eq!(c.copy_kernel > SimTime::ZERO, g > 1, "g={g}");
        }
    }

    #[test]
    fn allreduce_priced() {
        let gpu = GpuConfig::mi210();
        let t = presets::torus_128();
        assert!(BaselineCosts::allreduce(&gpu, &t, 1 << 22).total() > SimTime::ZERO);
    }
}
