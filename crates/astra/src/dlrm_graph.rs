//! One DLRM training pass as an execution graph.
//!
//! Node durations come from the same models the hardware-scale figures
//! use: memory-bound kernels through `fcc-gpu`'s bandwidth executor, dense
//! layers at a derated GEMM rate, collectives through `fcc-net`'s
//! topology-aware analytic costs. [`OperatorMode`] selects whether the
//! forward `embedding → All-to-All` pair runs bulk-synchronous or as the
//! fused operator (the backward pass stays unfused in both modes — the
//! paper leaves backward fusion to future work, and so do we).

use std::cell::OnceCell;

use fcc_collectives::baseline::BaselineCosts;
use fcc_core::sim::FusedTuning;
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::run_kernel;
use fcc_gpu::kernel::{KernelDesc, KernelResources, WorkShape};
use fcc_net::{analytic, Topology};
use fcc_sim::SimTime;

use crate::graph::{ExecGraph, NodeKind};

/// How the `embedding ↔ All-to-All` pairs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorMode {
    /// Per-table kernels, stream sync, bulk RCCL All-to-All.
    Baseline,
    /// The paper's contribution: the forward pair runs as one fused
    /// persistent kernel; backward stays bulk-synchronous.
    Fused,
    /// The paper's future work, implemented here: the backward gradient
    /// All-to-All also fuses with the embedding update
    /// (`fcc-core::ext::backward_fused`).
    FusedForwardBackward,
}

/// Fraction of peak FLOPs dense layers achieve (GEMMs at DLRM's modest
/// local batch sizes are far from roofline).
const GEMM_EFFICIENCY: f64 = 0.4;

/// Summary of one scheduled training pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    pub mode: OperatorMode,
    pub makespan: SimTime,
    /// `(label, duration)` of every node, in graph order.
    pub components: Vec<(String, SimTime)>,
    /// Labels along the critical path.
    pub critical_path: Vec<String>,
}

fn gemm_time(gpu: &GpuConfig, flops: f64) -> SimTime {
    SimTime::from_nanos_f64(flops / (gpu.peak_flops_per_ns * GEMM_EFFICIENCY))
}

fn mem_kernel_time(
    gpu: &GpuConfig,
    res: KernelResources,
    bytes_per_task: f64,
    tasks: u64,
) -> SimTime {
    let desc = KernelDesc {
        name: "mem".into(),
        resources: res,
        shape: WorkShape::MemoryBound { bytes_per_task },
        num_tasks: tasks.max(1),
    };
    run_kernel(gpu, &desc, None).duration
}

/// Builds and schedules one forward+backward DLRM pass on `topo`.
///
/// ```
/// use fcc_astra::{build_pass, OperatorMode};
/// use fcc_core::sim::FusedTuning;
/// use fcc_dlrm::DlrmConfig;
/// use fcc_gpu::GpuConfig;
/// use fcc_net::presets;
///
/// let cfg = DlrmConfig::scale_out(16, 1024, 4);
/// let gpu = GpuConfig::mi210();
/// let topo = presets::torus((4, 4));
/// let t = FusedTuning::default();
/// let (_, base) = build_pass(&cfg, &gpu, &topo, OperatorMode::Baseline, &t);
/// let (_, fused) = build_pass(&cfg, &gpu, &topo, OperatorMode::Fused, &t);
/// assert!(fused.makespan < base.makespan);
/// ```
pub fn build_pass(
    cfg: &DlrmConfig,
    gpu: &GpuConfig,
    topo: &Topology,
    mode: OperatorMode,
    tuning: &FusedTuning,
) -> (ExecGraph, PassReport) {
    build_pass_with_wire(cfg, gpu, topo, mode, tuning, None)
}

/// [`build_pass`] with an explicit All-to-All wire time.
///
/// By default the All-to-All nodes are priced by the closed-form
/// `fcc_net::analytic` model. The scale-out study instead measures the
/// wire time once on the flow-level fabric simulator
/// (`fcc_net::flow::FlowFabric`) and threads it through here, so both
/// the baseline bulk collective and the fused operator's overlapped
/// window price congestion the same simulated way.
pub fn build_pass_with_wire(
    cfg: &DlrmConfig,
    gpu: &GpuConfig,
    topo: &Topology,
    mode: OperatorMode,
    tuning: &FusedTuning,
    a2a_wire: Option<SimTime>,
) -> (ExecGraph, PassReport) {
    assert_eq!(topo.endpoints() as usize, cfg.n_pes, "config/topology size");
    let local = cfg.local_batch() as f64;
    let lb = cfg.local_batch() as u64;
    let total_tables = cfg.n_pes * cfg.tables_per_pe;

    // --- Component durations -------------------------------------------
    let bot_fwd = gemm_time(gpu, local * cfg.bottom_mlp_flops_per_sample());
    let top_fwd = gemm_time(gpu, local * cfg.top_mlp_flops_per_sample());
    let bot_bwd = SimTime::from_nanos(bot_fwd.as_nanos() * 2);
    let top_bwd = SimTime::from_nanos(top_fwd.as_nanos() * 2);

    // Embedding forward, per-table kernels (the baseline granularity —
    // also the unfused backward scatter, which moves the same bytes).
    // Each kernel below is priced only in the modes that read it, once.
    let emb = OnceCell::new();
    let per_table_embedding = || {
        *emb.get_or_init(|| {
            let kernel = mem_kernel_time(
                gpu,
                KernelResources::embedding_baseline(),
                cfg.bytes_per_pooled_lookup(),
                cfg.global_batch as u64,
            );
            SimTime::from_nanos(
                (kernel + gpu.kernel_launch_overhead).as_nanos() * cfg.tables_per_pe as u64,
            )
        })
    };

    let mut a2a = BaselineCosts::alltoall(gpu, topo, cfg.n_pes, cfg.alltoall_bytes_per_pair());
    if let Some(w) = a2a_wire {
        a2a.wire = w;
    }

    // Interaction reads the gathered embeddings and writes pair features.
    let interaction_bytes = 2.0 * (total_tables * cfg.dim * 4) as f64;
    let inter_fwd = mem_kernel_time(
        gpu,
        KernelResources::embedding_baseline(),
        interaction_bytes,
        lb,
    );
    let inter_bwd = SimTime::from_nanos(inter_fwd.as_nanos() * 2);

    // Data-parallel MLP gradient AllReduce.
    let mlp_params: usize = cfg
        .bottom_mlp
        .windows(2)
        .chain(cfg.top_mlp.windows(2))
        .map(|w| w[0] * w[1])
        .sum();
    let allreduce = BaselineCosts::allreduce(gpu, topo, (mlp_params * 4) as u64);

    // A fused operator is one persistent kernel; the All-to-All wire time
    // spreads across it, so the duration is the max of compute and wire
    // plus the GPU-initiated networking overheads. The forward one pools
    // every output; the backward one's gradient scatter reads each
    // gradient row and read-modify-writes the pooled rows, overlapped with
    // the reverse All-to-All of the same byte volume.
    let wire = a2a_wire.unwrap_or_else(|| analytic::alltoall(topo, cfg.alltoall_bytes_per_pair()));
    let slices = (cfg.outputs_per_pe() / 32).max(1) as u64; // slice = 32 embeddings
    let n_persistent =
        fcc_gpu::occupancy::occupancy(gpu, &KernelResources::embedding_fused()).wgs_per_device;
    let api_tail = SimTime::from_nanos(
        (tuning.bookkeeping + tuning.api_latency).as_nanos() * slices / n_persistent.max(1) as u64,
    );
    let fused = |bytes_per_task| {
        let compute = mem_kernel_time(
            gpu,
            KernelResources::embedding_fused(),
            bytes_per_task,
            cfg.outputs_per_pe() as u64,
        );
        gpu.kernel_launch_overhead + compute.max(wire) + api_tail + tuning.drain_poll
    };
    let scatter_bytes = ((2 * cfg.pooling + 1) * cfg.dim * 4) as f64;

    // --- Graph ----------------------------------------------------------
    let mut g = ExecGraph::new();
    let bot = g.add("bottom_mlp_fwd", NodeKind::Compute, bot_fwd, &[]);
    let exchange = match mode {
        OperatorMode::Baseline => {
            let emb_fwd = per_table_embedding();
            let emb = g.add("embedding_fwd", NodeKind::Compute, emb_fwd, &[]);
            g.add("alltoall_fwd", NodeKind::Communication, a2a.total(), &[emb])
        }
        OperatorMode::Fused | OperatorMode::FusedForwardBackward => {
            let fused_fwd = fused(cfg.bytes_per_pooled_lookup());
            g.add("fused_emb_alltoall_fwd", NodeKind::Fused, fused_fwd, &[])
        }
    };
    let inter = g.add(
        "interaction_fwd",
        NodeKind::Compute,
        inter_fwd,
        &[bot, exchange],
    );
    let topf = g.add("top_mlp_fwd", NodeKind::Compute, top_fwd, &[inter]);
    let topb = g.add("top_mlp_bwd", NodeKind::Compute, top_bwd, &[topf]);
    let interb = g.add("interaction_bwd", NodeKind::Compute, inter_bwd, &[topb]);
    let embb = match mode {
        OperatorMode::FusedForwardBackward => g.add(
            "fused_grad_alltoall_emb_bwd",
            NodeKind::Fused,
            fused(scatter_bytes),
            &[interb],
        ),
        _ => {
            let a2ab = g.add(
                "alltoall_bwd",
                NodeKind::Communication,
                a2a.total(),
                &[interb],
            );
            let emb_bwd = per_table_embedding();
            g.add("embedding_bwd", NodeKind::Compute, emb_bwd, &[a2ab])
        }
    };
    let botb = g.add("bottom_mlp_bwd", NodeKind::Compute, bot_bwd, &[interb]);
    let ar = g.add(
        "mlp_grad_allreduce",
        NodeKind::Communication,
        allreduce.total(),
        &[topb, botb],
    );
    g.add(
        "optimizer_step",
        NodeKind::Compute,
        SimTime::from_micros(50),
        &[embb, ar],
    );

    let sched = g.schedule();
    let report = PassReport {
        mode,
        makespan: sched.makespan,
        components: (0..g.len())
            .map(|i| {
                (
                    g.label(crate::graph::NodeId(i)).to_string(),
                    g.duration(crate::graph::NodeId(i)),
                )
            })
            .collect(),
        critical_path: sched
            .critical_path
            .iter()
            .map(|&id| g.label(id).to_string())
            .collect(),
    };
    (g, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;

    fn setup() -> (DlrmConfig, GpuConfig, Topology) {
        (
            DlrmConfig::scale_out(128, 8192, 8),
            GpuConfig::mi210(),
            presets::torus_128(),
        )
    }

    #[test]
    fn fused_pass_is_faster() {
        let (cfg, gpu, topo) = setup();
        let t = FusedTuning::default();
        let (_, base) = build_pass(&cfg, &gpu, &topo, OperatorMode::Baseline, &t);
        let (_, fused) = build_pass(&cfg, &gpu, &topo, OperatorMode::Fused, &t);
        assert!(
            fused.makespan < base.makespan,
            "fused {} !< baseline {}",
            fused.makespan,
            base.makespan
        );
    }

    #[test]
    fn scale_out_benefit_near_paper_band() {
        // Paper Fig. 15: ~10% reduction of one DLRM pass at 128 nodes.
        let (cfg, gpu, topo) = setup();
        let t = FusedTuning::default();
        let (_, base) = build_pass(&cfg, &gpu, &topo, OperatorMode::Baseline, &t);
        let (_, fused) = build_pass(&cfg, &gpu, &topo, OperatorMode::Fused, &t);
        let reduction = 1.0 - fused.makespan.as_nanos_f64() / base.makespan.as_nanos_f64();
        assert!(
            (0.04..=0.20).contains(&reduction),
            "reduction {reduction:.3} outside [0.04, 0.20]"
        );
    }

    #[test]
    fn benefit_bounded_by_min_of_overlapped_ops() {
        // "The extent of the benefit ... is limited by the minimum of the
        // overlapping operations."
        let (cfg, gpu, topo) = setup();
        let t = FusedTuning::default();
        let (gb, base) = build_pass(&cfg, &gpu, &topo, OperatorMode::Baseline, &t);
        let (_, fused) = build_pass(&cfg, &gpu, &topo, OperatorMode::Fused, &t);
        let emb = gb.duration(crate::graph::NodeId(1));
        let a2a = gb.duration(crate::graph::NodeId(2));
        let saving = base.makespan - fused.makespan;
        let bound = emb.min(a2a) + SimTime::from_micros(50);
        assert!(saving <= bound, "saving {saving} exceeds min bound {bound}");
    }

    #[test]
    fn baseline_graph_contains_expected_stages() {
        let (cfg, gpu, topo) = setup();
        let (_, report) = build_pass(
            &cfg,
            &gpu,
            &topo,
            OperatorMode::Baseline,
            &FusedTuning::default(),
        );
        let labels: Vec<&str> = report.components.iter().map(|(l, _)| l.as_str()).collect();
        for want in [
            "bottom_mlp_fwd",
            "embedding_fwd",
            "alltoall_fwd",
            "interaction_fwd",
            "top_mlp_fwd",
            "top_mlp_bwd",
            "alltoall_bwd",
            "embedding_bwd",
            "mlp_grad_allreduce",
        ] {
            assert!(labels.contains(&want), "missing {want}");
        }
        assert!(report.critical_path.len() >= 4);
    }

    #[test]
    fn fused_graph_replaces_the_pair() {
        let (cfg, gpu, topo) = setup();
        let (_, report) = build_pass(
            &cfg,
            &gpu,
            &topo,
            OperatorMode::Fused,
            &FusedTuning::default(),
        );
        let labels: Vec<&str> = report.components.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"fused_emb_alltoall_fwd"));
        assert!(!labels.contains(&"embedding_fwd"));
        assert!(!labels.contains(&"alltoall_fwd"));
        // Backward remains unfused.
        assert!(labels.contains(&"alltoall_bwd"));
    }

    #[test]
    fn backward_fusion_stacks_on_forward_fusion() {
        let (cfg, gpu, topo) = setup();
        let t = FusedTuning::default();
        let (_, fwd) = build_pass(&cfg, &gpu, &topo, OperatorMode::Fused, &t);
        let (_, both) = build_pass(&cfg, &gpu, &topo, OperatorMode::FusedForwardBackward, &t);
        // Never worse; at the Table 2 shape the MLP-gradient AllReduce
        // branch dominates the backward, so the makespan may tie.
        assert!(both.makespan <= fwd.makespan);
        let labels: Vec<&str> = both.components.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"fused_grad_alltoall_emb_bwd"));
        assert!(!labels.contains(&"alltoall_bwd"));

        // With a small MLP (tiny AllReduce) the embedding branch is the
        // backward critical path and fusion wins outright.
        let mut lean = cfg.clone();
        lean.bottom_mlp = vec![64, 64, lean.dim];
        lean.top_mlp = vec![64, 64, 1];
        let (_, fwd) = build_pass(&lean, &gpu, &topo, OperatorMode::Fused, &t);
        let (_, both) = build_pass(&lean, &gpu, &topo, OperatorMode::FusedForwardBackward, &t);
        assert!(
            both.makespan < fwd.makespan,
            "lean model: fwd+bwd {} !< fwd-only {}",
            both.makespan,
            fwd.makespan
        );
    }

    #[test]
    fn wire_override_threads_through_both_modes() {
        let gpu = GpuConfig::mi210();
        let t = FusedTuning::default();
        let topo = presets::torus((4, 4));
        let cfg = DlrmConfig::scale_out(16, 1024, 8);
        for mode in [OperatorMode::Baseline, OperatorMode::Fused] {
            let (_, plain) = build_pass(&cfg, &gpu, &topo, mode, &t);
            let analytic_wire = fcc_net::analytic::alltoall(&topo, cfg.alltoall_bytes_per_pair());
            let (_, same) = build_pass_with_wire(&cfg, &gpu, &topo, mode, &t, Some(analytic_wire));
            assert_eq!(plain.makespan, same.makespan, "{mode:?}");
            let (_, slow) = build_pass_with_wire(
                &cfg,
                &gpu,
                &topo,
                mode,
                &t,
                Some(SimTime::from_micros(100_000)),
            );
            assert!(slow.makespan > plain.makespan, "{mode:?}");
        }
    }

    #[test]
    fn smaller_cluster_sees_smaller_absolute_times() {
        let gpu = GpuConfig::mi210();
        let t = FusedTuning::default();
        let small_topo = presets::torus((4, 4));
        let small_cfg = DlrmConfig::scale_out(16, 1024, 8);
        let (_, small) = build_pass(&small_cfg, &gpu, &small_topo, OperatorMode::Baseline, &t);
        let (cfg, _, topo) = setup();
        let (_, big) = build_pass(&cfg, &gpu, &topo, OperatorMode::Baseline, &t);
        assert!(small.makespan < big.makespan);
    }
}
