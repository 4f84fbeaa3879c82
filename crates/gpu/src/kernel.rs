//! Kernel descriptors: resource footprints and work shapes.

use crate::config::GpuConfig;

/// Static per-workgroup resource footprint of a compiled kernel —
/// the inputs to the occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Threads per workgroup.
    pub wg_size: u32,
    /// Vector registers per thread.
    pub vgprs_per_thread: u32,
    /// LDS bytes allocated per workgroup.
    pub lds_per_wg: u32,
}

impl KernelResources {
    /// The plain embedding-pooling kernel
    /// (`EmbeddingBag_updateOutputKernel_sum_mean`): 256 threads, moderate
    /// register use, no LDS (paper §3.4: "Embedding operations do not use
    /// any LDS").
    pub fn embedding_baseline() -> Self {
        KernelResources {
            wg_size: 256,
            vgprs_per_thread: 64,
            lds_per_wg: 0,
        }
    }

    /// The fused embedding + All-to-All kernel: the ROC_SHMEM context costs
    /// extra registers (and LDS for the communication context), which is
    /// what produces the paper's 12.5 % occupancy loss (8 → 7 WGs/CU on an
    /// MI210-class device).
    pub fn embedding_fused() -> Self {
        KernelResources {
            wg_size: 256,
            vgprs_per_thread: 73,
            lds_per_wg: 2048,
        }
    }
}

/// What a kernel's workgroups actually do, for the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkShape {
    /// Memory-bound: each logical task moves `bytes_per_task` through HBM
    /// (embedding pooling, copy kernels). Progress is governed by the
    /// load-dependent bandwidth curve.
    MemoryBound { bytes_per_task: f64 },
    /// Compute-bound: each logical task executes `flops_per_task` FLOPs at
    /// the device's peak rate divided evenly among resident workgroups
    /// (dense MLP layers).
    ComputeBound { flops_per_task: f64 },
}

impl WorkShape {
    /// Work units per task under this shape (bytes or FLOPs — the paired
    /// capacity curve uses the same unit).
    pub fn work_per_task(&self) -> f64 {
        match *self {
            WorkShape::MemoryBound { bytes_per_task } => bytes_per_task,
            WorkShape::ComputeBound { flops_per_task } => flops_per_task,
        }
    }

    /// The aggregate capacity curve (work units per ns for `n` resident
    /// WGs) this shape draws on, for the given device.
    pub fn capacity_fn(&self, gpu: &GpuConfig) -> Box<dyn Fn(usize) -> f64 + Send> {
        match *self {
            WorkShape::MemoryBound { .. } => {
                let curve = gpu.hbm.clone();
                Box::new(move |n| curve.aggregate(n))
            }
            WorkShape::ComputeBound { .. } => {
                // ALU throughput scales linearly with resident waves up to
                // the device peak; no contention roll-off.
                let peak = gpu.peak_flops_per_ns;
                let max_wgs = (gpu.num_cus * gpu.max_wgs_per_cu) as f64;
                Box::new(move |n| peak * (n as f64 / max_wgs).min(1.0))
            }
        }
    }
}

/// A launchable kernel: footprint + shape + task count.
///
/// A "task" is one logical workgroup's worth of work — for embedding
/// pooling, one pooled output vector.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    pub name: String,
    pub resources: KernelResources,
    pub shape: WorkShape,
    /// Number of logical tasks (logical workgroups) in the grid.
    pub num_tasks: u64,
}

impl KernelDesc {
    /// An embedding-pooling kernel over `num_outputs` pooled vectors, each
    /// reading `pooling` vectors of `embdim` f32 elements and writing one.
    pub fn embedding_pooling(name: &str, num_outputs: u64, embdim: u32, pooling: u32) -> Self {
        let bytes = (pooling as f64 + 1.0) * embdim as f64 * 4.0;
        KernelDesc {
            name: name.to_string(),
            resources: KernelResources::embedding_baseline(),
            shape: WorkShape::MemoryBound {
                bytes_per_task: bytes,
            },
            num_tasks: num_outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_footprint_costs_occupancy_vs_baseline() {
        use crate::occupancy::occupancy;
        let g = GpuConfig::mi210();
        let base = occupancy(&g, &KernelResources::embedding_baseline());
        let fused = occupancy(&g, &KernelResources::embedding_fused());
        assert_eq!(base.wgs_per_cu, 8);
        assert_eq!(fused.wgs_per_cu, 7);
        // Paper §3.4: 12.5 % lower occupancy.
        let loss = 1.0 - fused.fraction(&g) / base.fraction(&g);
        assert!((loss - 0.125).abs() < 1e-12);
    }

    #[test]
    fn embedding_kernel_bytes_accounting() {
        // embdim 256, pooling 32: reads 32 KiB, writes 1 KiB per output.
        let k = KernelDesc::embedding_pooling("emb", 10, 256, 32);
        match k.shape {
            WorkShape::MemoryBound { bytes_per_task } => {
                assert_eq!(bytes_per_task, 33.0 * 1024.0);
            }
            _ => panic!("expected memory-bound"),
        }
    }

    #[test]
    fn compute_capacity_scales_linearly_to_peak() {
        let g = GpuConfig::mi210();
        let shape = WorkShape::ComputeBound {
            flops_per_task: 1.0,
        };
        let cap = shape.capacity_fn(&g);
        let max_wgs = (g.num_cus * g.max_wgs_per_cu) as usize;
        assert!(cap(max_wgs / 2) < cap(max_wgs));
        assert_eq!(cap(max_wgs), g.peak_flops_per_ns);
        assert_eq!(cap(max_wgs * 2), g.peak_flops_per_ns);
    }

    #[test]
    fn memory_capacity_uses_hbm_curve() {
        let g = GpuConfig::mi210();
        let shape = WorkShape::MemoryBound {
            bytes_per_task: 1.0,
        };
        let cap = shape.capacity_fn(&g);
        assert_eq!(cap(100), g.hbm.aggregate(100));
    }
}
