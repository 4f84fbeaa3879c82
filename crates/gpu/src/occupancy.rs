//! Occupancy calculation — the `hipOccupancyMaxActiveBlocksPerMultiprocessor`
//! equivalent.
//!
//! The paper launches its persistent kernel "with a fixed, input-independent
//! grid size (less than or equal to maximum occupancy as determined from the
//! HIP occupancy API)" and reports that ROC_SHMEM's register and LDS usage
//! costs the fused kernel 12.5 % occupancy versus the plain embedding
//! kernel. This module computes those limits from a kernel's resource
//! footprint.

use crate::config::GpuConfig;
use crate::kernel::KernelResources;

/// Result of an occupancy query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Workgroups resident per CU.
    pub wgs_per_cu: u32,
    /// Workgroups resident across the whole device.
    pub wgs_per_device: u32,
    /// Wavefronts resident per CU.
    pub waves_per_cu: u32,
}

impl Occupancy {
    /// Achieved occupancy as a fraction of the hardware wave-slot maximum.
    pub fn fraction(&self, gpu: &GpuConfig) -> f64 {
        self.waves_per_cu as f64 / gpu.max_waves_per_cu() as f64
    }
}

/// Computes the occupancy of `res` on `gpu`.
///
/// # Panics
/// Panics if the kernel cannot run at all (zero workgroups fit), which
/// indicates a configuration error rather than a schedulable kernel.
pub fn occupancy(gpu: &GpuConfig, res: &KernelResources) -> Occupancy {
    let waves_per_wg = res.wg_size.div_ceil(gpu.wavefront_size).max(1);

    // Wave-slot / WG-slot constraint.
    let by_slots = (gpu.max_waves_per_cu() / waves_per_wg).min(gpu.max_wgs_per_cu);

    // Register constraint: each wave needs `vgprs_per_thread` VGPRs from its
    // SIMD's file. Waves per SIMD = floor(file / per-wave), spread over the
    // CU's SIMDs.
    let by_regs = match gpu.vgprs_per_simd.checked_div(res.vgprs_per_thread) {
        None => u32::MAX, // kernel uses no VGPRs
        Some(waves_per_simd) => (waves_per_simd * gpu.simds_per_cu) / waves_per_wg,
    };

    // LDS constraint: workgroups share the CU's LDS.
    let by_lds = gpu
        .lds_per_cu
        .checked_div(res.lds_per_wg)
        .unwrap_or(u32::MAX);

    let wgs_per_cu = by_slots.min(by_regs).min(by_lds);
    assert!(
        wgs_per_cu > 0,
        "kernel {res:?} does not fit on {}: slots={by_slots} regs={by_regs} lds={by_lds}",
        gpu.name
    );

    Occupancy {
        wgs_per_cu,
        wgs_per_device: wgs_per_cu * gpu.num_cus,
        waves_per_cu: wgs_per_cu * waves_per_wg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn res(wg_size: u32, vgprs: u32, lds: u32) -> KernelResources {
        KernelResources {
            wg_size,
            vgprs_per_thread: vgprs,
            lds_per_wg: lds,
        }
    }

    #[test]
    fn slot_limited_kernel_reaches_full_occupancy() {
        let g = GpuConfig::mi210();
        // Light kernel: 256 threads, 32 VGPRs, no LDS.
        let occ = occupancy(&g, &res(256, 32, 0));
        assert_eq!(occ.wgs_per_cu, 8);
        assert_eq!(occ.wgs_per_device, 832);
        assert!((occ.fraction(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_pressure_limits_occupancy() {
        let g = GpuConfig::mi210();
        // 73 VGPRs/thread: 512/73 = 7 waves/SIMD -> 28 waves/CU -> 7 WGs of
        // 4 waves each: the paper's 12.5% occupancy loss (8 -> 7).
        let occ = occupancy(&g, &res(256, 73, 0));
        assert_eq!(occ.wgs_per_cu, 7);
        assert!((occ.fraction(&g) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn lds_limits_occupancy() {
        let g = GpuConfig::mi210();
        // 20 KiB LDS per WG -> 3 WGs per CU on a 64 KiB LDS.
        let occ = occupancy(&g, &res(256, 32, 20 * 1024));
        assert_eq!(occ.wgs_per_cu, 3);
    }

    #[test]
    fn large_wg_reduces_slots() {
        let g = GpuConfig::mi210();
        let occ = occupancy(&g, &res(1024, 32, 0));
        // 16 waves per WG, 32 slots -> 2 WGs/CU.
        assert_eq!(occ.wgs_per_cu, 2);
        assert_eq!(occ.waves_per_cu, 32);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn impossible_kernel_panics() {
        let g = GpuConfig::mi210();
        // More LDS than a CU owns.
        occupancy(&g, &res(256, 32, 128 * 1024));
    }

    #[test]
    fn sub_wavefront_wg_counts_one_wave() {
        let g = GpuConfig::mi210();
        let occ = occupancy(&g, &res(32, 16, 0));
        // 1 wave per WG, but WG-per-CU hardware cap (8) binds first.
        assert_eq!(occ.wgs_per_cu, 8);
        assert_eq!(occ.waves_per_cu, 8);
    }
}
