//! Shared experiment definitions: the sweeps and simulation wrappers the
//! figure binaries are built from.

use fcc_core::sim::baseline::{simulate_baseline, EmbeddingLaunch};
use fcc_core::sim::fused::{simulate_fused, FusedParams};
use fcc_core::sim::intranode::simulate_zero_copy;
use fcc_core::sim::FusedTuning;
use fcc_core::ScheduleKind;
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_net::{presets, LinkSpec, Topology};
use fcc_sim::SimTime;

/// The paper's `<global batch> | <tables per GPU>` configuration label.
pub fn label(batch: usize, tables: usize) -> String {
    format!("{batch}|{tables}")
}

/// Inter-node sweep grid (Fig. 10).
pub const INTER_NODE_BATCHES: [usize; 4] = [256, 512, 1024, 2048];
/// Tables-per-GPU values used in both hardware sweeps.
pub const TABLE_COUNTS: [usize; 3] = [64, 128, 256];
/// Intra-node sweep grid (Fig. 14).
pub const INTRA_NODE_BATCHES: [usize; 4] = [512, 1024, 2048, 4096];

/// The 1024 | 256 design point used by Figs. 9, 11, 12, 13.
pub fn design_point() -> DlrmConfig {
    DlrmConfig::hw_eval(2, 1024, 256)
}

/// Table 1's inter-node system at `nodes` nodes: one NIC each, InfiniBand
/// at 20 GB/s. A run with more PEs than nodes shares each NIC among them.
pub fn ib_nodes(nodes: usize) -> Topology {
    let link = LinkSpec::infiniband_20gbs();
    let endpoints = nodes as u32;
    Topology::Switched { endpoints, link }
}

/// One normalized inter-node measurement: fused vs. baseline on the
/// 2-node InfiniBand system.
#[derive(Debug, Clone, Copy)]
pub struct InterNodePoint {
    pub baseline: SimTime,
    pub fused: SimTime,
    /// `fused / baseline` — the paper's normalized execution time.
    pub normalized: f64,
}

/// Runs one Fig. 10 grid point.
pub fn inter_node_point(batch: usize, tables: usize) -> InterNodePoint {
    let cfg = DlrmConfig::hw_eval(2, batch, tables);
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let base = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::PerTable);
    let fused = simulate_fused(&FusedParams::new(cfg, gpu, topo)).makespan();
    InterNodePoint {
        baseline: base.total,
        fused,
        normalized: fused.as_nanos_f64() / base.total.as_nanos_f64(),
    }
}

/// Runs one Fig. 11 occupancy point at the design configuration;
/// `occupancy_frac` is relative to the 832-WG hardware maximum.
pub fn occupancy_point(occupancy_frac: f64) -> SimTime {
    let gpu = GpuConfig::mi210();
    let hw_max = gpu.hw_max_concurrent_wgs(256);
    let cap = ((hw_max as f64 * occupancy_frac).round() as u32).max(1);
    let params = FusedParams {
        occupancy_cap: Some(cap),
        ..FusedParams::new(design_point(), gpu, presets::dual_node_ib())
    };
    simulate_fused(&params).makespan()
}

/// Runs one Fig. 12 slice-size point at the design configuration.
pub fn slice_size_point(slice_embeddings: usize) -> SimTime {
    let params = FusedParams {
        slice_embeddings,
        ..FusedParams::new(design_point(), GpuConfig::mi210(), presets::dual_node_ib())
    };
    simulate_fused(&params).makespan()
}

/// Per-node fused execution times under a schedule (Fig. 13).
pub fn scheduling_point(kind: ScheduleKind) -> Vec<SimTime> {
    let params = FusedParams {
        schedule: kind,
        ..FusedParams::new(design_point(), GpuConfig::mi210(), presets::dual_node_ib())
    };
    simulate_fused(&params)
        .per_pe
        .iter()
        .map(|p| p.total)
        .collect()
}

/// One normalized intra-node measurement: zero-copy fused vs. baseline on
/// the 4-GPU xGMI node (Fig. 14).
#[derive(Debug, Clone, Copy)]
pub struct IntraNodePoint {
    pub baseline: SimTime,
    pub zero_copy: SimTime,
    pub normalized: f64,
}

/// Runs one Fig. 14 grid point.
pub fn intra_node_point(batch: usize, tables: usize) -> IntraNodePoint {
    let cfg = DlrmConfig::hw_eval(4, batch, tables);
    let gpu = GpuConfig::mi210();
    let topo = presets::quad_gpu_node();
    let base = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::PerTable);
    let zc = simulate_zero_copy(&cfg, &gpu, &topo, &FusedTuning::default());
    IntraNodePoint {
        baseline: base.total,
        zero_copy: zc.total,
        normalized: zc.total.as_nanos_f64() / base.total.as_nanos_f64(),
    }
}

/// Scale-out node counts swept in the Fig. 15 series.
pub const SCALE_OUT_NODES: [(u32, u32); 4] = [(4, 4), (8, 4), (8, 8), (16, 8)];

/// Runs one Fig. 15 point: baseline vs fused DLRM pass on an `a × b`
/// torus, with the All-to-All wire time *measured* on the flow-level
/// fair-sharing fabric ([`crate::scaleout::measure_wire`]) instead of
/// the closed-form analytic model — the same pricing the 1k–8k fast
/// sweep uses, so Fig. 15 and `BENCH_scaleout.json` form one curve from
/// 16 to 8192 nodes. Returns `(baseline, fused)` makespans.
pub fn scale_out_point(dims: (u32, u32)) -> (SimTime, SimTime) {
    let n = (dims.0 * dims.1) as usize;
    let cfg = DlrmConfig::scale_out(n, 64 * n, 6);
    let gpu = GpuConfig::mi210();
    let topo = presets::torus(dims);
    let tuning = FusedTuning::default();
    let (wire, _) = crate::scaleout::measure_wire(&topo, cfg.alltoall_bytes_per_pair());
    let (_, base) = fcc_astra::build_pass_with_wire(
        &cfg,
        &gpu,
        &topo,
        fcc_astra::OperatorMode::Baseline,
        &tuning,
        Some(wire),
    );
    let (_, fused) = fcc_astra::build_pass_with_wire(
        &cfg,
        &gpu,
        &topo,
        fcc_astra::OperatorMode::Fused,
        &tuning,
        Some(wire),
    );
    (base.makespan, fused.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_node_fused_wins_at_small_point() {
        // Keep the unit-test configuration small; the binaries run the
        // full grid.
        let p = inter_node_point(256, 64);
        assert!(p.normalized < 1.0, "normalized {}", p.normalized);
        assert!(p.normalized > 0.2, "normalized {}", p.normalized);
    }

    #[test]
    fn intra_node_zero_copy_wins() {
        let p = intra_node_point(512, 64);
        assert!(p.normalized < 1.0, "normalized {}", p.normalized);
    }

    #[test]
    fn scale_out_fused_wins() {
        let (base, fused) = scale_out_point((4, 4));
        assert!(fused < base);
    }

    #[test]
    fn labels_match_paper_format() {
        assert_eq!(label(1024, 256), "1024|256");
    }
}
