//! Ablations beyond the paper's figures: the design-choice studies
//! DESIGN.md calls out.
//!
//! 1. Kernel-granular tiling (Wang et al.-style decomposition) vs. bulk
//!    vs. slice-granular fusion.
//! 2. Per-table vs. batched baseline launches (launch-overhead isolation).
//! 3. Bruck vs. pairwise All-to-All across message sizes (the message-rate
//!    argument of Fig. 12 from the algorithm side).
//! 4. Analytic torus collective model vs. packet-level fabric simulation.
//! 5. Backward fusion (the paper's future work) on the 128-node pass.

use fcc_astra::{simulate_run_with_recovery, InputPipeline, OperatorMode, RecoverySpec};
use fcc_bench::report::{print_recovery_counters, print_table, write_json, FigureRecord, Series};
use fcc_core::sim::baseline::{simulate_baseline, EmbeddingLaunch};
use fcc_core::sim::fused::{simulate_fused, FusedParams};
use fcc_core::sim::tiled::simulate_tiled;
use fcc_core::sim::FusedTuning;
use fcc_core::{ElasticTrainer, TrainerConfig};
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_net::{analytic, fabric, presets, CorruptKind, FaultPlan, LinkSpec, Topology};

fn tiling_study() -> Series {
    let cfg = DlrmConfig::hw_eval(2, 1024, 64);
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let bulk = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::Batched).total;
    let mut rows = Vec::new();
    let mut series = Series::new("normalized_to_bulk");
    rows.push(vec!["bulk (K=1)".into(), format!("{bulk}"), "1.000".into()]);
    series.push("bulk", 1.0);
    for k in [2u32, 4, 8, 16, 64, 256] {
        let t = simulate_tiled(&cfg, &gpu, &topo, k).total;
        let norm = t.as_nanos_f64() / bulk.as_nanos_f64();
        rows.push(vec![
            format!("tiled K={k}"),
            format!("{t}"),
            format!("{norm:.3}"),
        ]);
        series.push(format!("K={k}"), norm);
    }
    let fused = simulate_fused(&FusedParams::new(cfg, gpu, topo)).makespan();
    let norm = fused.as_nanos_f64() / bulk.as_nanos_f64();
    rows.push(vec![
        "fused (slice=32)".into(),
        format!("{fused}"),
        format!("{norm:.3}"),
    ]);
    series.push("fused", norm);
    print_table(
        "Ablation 1: kernel-granular tiling vs slice-granular fusion (1024|64, inter-node)",
        &["system", "time", "normalized"],
        &rows,
    );
    series
}

fn launch_study() -> Series {
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let mut rows = Vec::new();
    let mut series = Series::new("per_table_over_batched");
    for batch in [256usize, 1024, 4096] {
        let cfg = DlrmConfig::hw_eval(2, batch, 128);
        let per = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::PerTable);
        let bat = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::Batched);
        let ratio = per.total.as_nanos_f64() / bat.total.as_nanos_f64();
        rows.push(vec![
            format!("{batch}|128"),
            format!("{}", per.total),
            format!("{}", bat.total),
            format!("{ratio:.3}"),
        ]);
        series.push(format!("{batch}|128"), ratio);
    }
    print_table(
        "Ablation 2: per-table vs batched baseline launches",
        &["config", "per-table", "batched", "ratio"],
        &rows,
    );
    series
}

fn bruck_study() -> Series {
    let link = LinkSpec::infiniband_20gbs();
    let n = 64;
    let switched = Topology::Switched {
        endpoints: n as u32,
        link,
    };
    let mut rows = Vec::new();
    let mut series = Series::new("bruck_over_pairwise");
    for shift in [6u32, 10, 14, 18, 22] {
        let bytes = 1u64 << shift;
        let b = analytic::bruck_alltoall(&link, n, bytes);
        let p = analytic::alltoall(&switched, bytes);
        let ratio = b.as_nanos_f64() / p.as_nanos_f64();
        rows.push(vec![
            format!("{} B", bytes),
            format!("{b}"),
            format!("{p}"),
            format!("{ratio:.3}"),
            if ratio < 1.0 { "bruck" } else { "pairwise" }.into(),
        ]);
        series.push(format!("{bytes}B"), ratio);
    }
    print_table(
        "Ablation 3: Bruck vs pairwise All-to-All (64 endpoints, per-pair bytes sweep)",
        &["bytes/pair", "bruck", "pairwise", "ratio", "winner"],
        &rows,
    );
    series
}

fn fabric_validation() -> Series {
    let mut rows = Vec::new();
    let mut series = Series::new("des_over_analytic");
    for dims in [(4u32, 4u32), (8, 4), (8, 8)] {
        let topo = presets::torus(dims);
        for bytes in [64u64 * 1024, 512 * 1024] {
            let des = fabric::uniform_alltoall(&topo, bytes);
            let ana = analytic::alltoall(&topo, bytes);
            let ratio = des.as_nanos_f64() / ana.as_nanos_f64();
            rows.push(vec![
                format!("{}x{}", dims.0, dims.1),
                format!("{} KiB", bytes / 1024),
                format!("{des}"),
                format!("{ana}"),
                format!("{ratio:.2}"),
            ]);
            series.push(format!("{}x{}/{}K", dims.0, dims.1, bytes / 1024), ratio);
        }
    }
    print_table(
        "Ablation 4: packet-level fabric DES vs analytic torus model (uniform All-to-All)",
        &["torus", "bytes/pair", "DES", "analytic", "ratio"],
        &rows,
    );
    series
}

fn backward_fusion_study() -> Series {
    let gpu = GpuConfig::mi210();
    let topo = presets::torus_128();
    let cfg = DlrmConfig::scale_out(128, 64 * 128, 6);
    let tuning = FusedTuning::default();
    let mut rows = Vec::new();
    let mut series = Series::new("normalized_pass_time");
    let (_, base) = fcc_astra::build_pass(
        &cfg,
        &gpu,
        &topo,
        fcc_astra::OperatorMode::Baseline,
        &tuning,
    );
    for (name, mode) in [
        ("baseline", fcc_astra::OperatorMode::Baseline),
        ("fused fwd (paper)", fcc_astra::OperatorMode::Fused),
        (
            "fused fwd+bwd (future work)",
            fcc_astra::OperatorMode::FusedForwardBackward,
        ),
    ] {
        let (_, r) = fcc_astra::build_pass(&cfg, &gpu, &topo, mode, &tuning);
        let norm = r.makespan.as_nanos_f64() / base.makespan.as_nanos_f64();
        rows.push(vec![
            name.into(),
            format!("{}", r.makespan),
            format!("{norm:.3}"),
            r.critical_path.join(" → "),
        ]);
        series.push(name, norm);
    }
    print_table(
        "Ablation 5: backward fusion on the 128-node DLRM pass",
        &["mode", "pass time", "normalized", "critical path"],
        &rows,
    );
    series
}

fn multi_qp_study() -> Series {
    // The Fig. 12 small-slice penalty is a per-QP message-rate effect;
    // per-WG communication contexts (multiple QPs) divide it.
    let cfg = DlrmConfig::hw_eval(2, 1024, 256);
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let mut rows = Vec::new();
    let mut series = Series::new("kernel_time_ms");
    for slice in [4usize, 32] {
        for qps in [1usize, 4, 16] {
            let params = FusedParams {
                slice_embeddings: slice,
                num_qps: qps,
                ..FusedParams::new(cfg.clone(), gpu.clone(), topo.clone())
            };
            let t = simulate_fused(&params).makespan();
            rows.push(vec![
                format!("slice={slice}"),
                format!("{qps}"),
                format!("{t}"),
            ]);
            series.push(format!("s{slice}q{qps}"), t.as_millis_f64());
        }
    }
    print_table(
        "Ablation 7: queue pairs vs slice size (1024|256, inter-node)",
        &["slice", "QPs", "fused kernel time"],
        &rows,
    );
    series
}

fn gpus_per_nic_study() -> Series {
    // The Fig. 1a -> 1b system trend, quantified: same 8 GPUs, varying how
    // many share each NIC (PEs beyond the topology's endpoints share one).
    use fcc_core::sim::hierarchical::hierarchical_baseline;
    let gpu = GpuConfig::mi210();
    let cfg = DlrmConfig::hw_eval(8, 512, 32);
    let mut rows = Vec::new();
    let mut series = Series::new("fused_over_baseline");
    for (nodes, g) in [(8, 1), (4, 2), (2, 4)] {
        let topo = fcc_bench::runs::ib_nodes(nodes);
        let baseline = hierarchical_baseline(&cfg, &gpu, &topo);
        let fused = simulate_fused(&FusedParams::new(cfg.clone(), gpu.clone(), topo)).makespan();
        let normalized = fused.as_nanos_f64() / baseline.as_nanos_f64();
        rows.push(vec![
            format!("{nodes} nodes x {g} GPUs"),
            format!("{baseline}"),
            format!("{fused}"),
            format!("{normalized:.3}"),
        ]);
        series.push(format!("{g}/NIC"), normalized);
    }
    print_table(
        "Ablation 9: GPUs per NIC (8 GPUs total, 512|32)",
        &["system", "baseline", "fused", "normalized"],
        &rows,
    );
    series
}

fn cosim_validation_study() -> Series {
    // How much error does the fast decoupled model make by ignoring
    // destination-side HBM interference from incoming slice writes? The
    // integrated co-simulation closes that loop.
    use fcc_core::sim::fused_des::simulate_fused_integrated;
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let mut rows = Vec::new();
    let mut series = Series::new("integrated_over_decoupled");
    for (batch, tables) in [(256usize, 64usize), (1024, 64), (1024, 256)] {
        let params = FusedParams::new(
            DlrmConfig::hw_eval(2, batch, tables),
            gpu.clone(),
            topo.clone(),
        );
        let decoupled = simulate_fused(&params).makespan();
        let integrated = simulate_fused_integrated(&params)
            .iter()
            .map(|o| o.total)
            .max()
            .expect("integrated co-simulation must report at least one PE outcome");
        let ratio = integrated.as_nanos_f64() / decoupled.as_nanos_f64();
        rows.push(vec![
            format!("{batch}|{tables}"),
            format!("{decoupled}"),
            format!("{integrated}"),
            format!("{ratio:.4}"),
        ]);
        series.push(format!("{batch}|{tables}"), ratio);
    }
    print_table(
        "Ablation 8: decoupled three-stage model vs integrated DES co-simulation",
        &["config", "decoupled", "integrated", "ratio"],
        &rows,
    );
    series
}

fn topology_study() -> Series {
    // Same 128 nodes, two torus shapes: the 3D torus's extra bisection
    // shrinks the All-to-All, which shrinks what fusion can hide.
    let gpu = GpuConfig::mi210();
    let cfg = DlrmConfig::scale_out(128, 64 * 128, 6);
    let tuning = FusedTuning::default();
    let mut rows = Vec::new();
    let mut series = Series::new("fused_over_baseline");
    for (name, topo) in [
        ("2D torus 16x8", presets::torus_128()),
        ("3D torus 4x4x8", presets::torus3_128()),
    ] {
        let (_, base) = fcc_astra::build_pass(
            &cfg,
            &gpu,
            &topo,
            fcc_astra::OperatorMode::Baseline,
            &tuning,
        );
        let (_, fused) =
            fcc_astra::build_pass(&cfg, &gpu, &topo, fcc_astra::OperatorMode::Fused, &tuning);
        let norm = fused.makespan.as_nanos_f64() / base.makespan.as_nanos_f64();
        rows.push(vec![
            name.into(),
            format!("{}", base.makespan),
            format!("{}", fused.makespan),
            format!("{norm:.3}"),
        ]);
        series.push(name, norm);
    }
    print_table(
        "Ablation 10: torus dimensionality at 128 nodes",
        &["topology", "baseline pass", "fused pass", "normalized"],
        &rows,
    );
    series
}

fn training_throughput_study() -> Series {
    use fcc_astra::{simulate_run, InputPipeline, OperatorMode};
    let gpu = GpuConfig::mi210();
    let topo = presets::torus((4, 4));
    let cfg = DlrmConfig::scale_out(16, 1024, 4);
    let mut rows = Vec::new();
    let mut series = Series::new("samples_per_second");
    for (name, pipeline) in [
        ("fast pipeline", InputPipeline::fast()),
        (
            "slow pipeline",
            InputPipeline {
                assembly_per_step: fcc_sim::SimTime::from_millis(20),
                h2d_bandwidth: 2.0,
            },
        ),
    ] {
        for (mode_name, mode) in [
            ("baseline", OperatorMode::Baseline),
            ("fused", OperatorMode::Fused),
        ] {
            let r = simulate_run(&cfg, &gpu, &topo, mode, &pipeline, 100);
            let label = format!("{name} / {mode_name}");
            rows.push(vec![
                label.clone(),
                format!("{}", r.step_time),
                format!("{}", r.pipeline_time),
                format!("{:.0}", r.throughput),
                if r.ingestion_bound {
                    "ingestion"
                } else {
                    "device"
                }
                .into(),
            ]);
            series.push(label, r.throughput);
        }
    }
    print_table(
        "Ablation 6: training throughput vs input-pipeline health (16-node torus)",
        &["configuration", "step", "pipeline", "samples/s", "bound by"],
        &rows,
    );
    series
}

fn fault_tolerance_study() -> Series {
    // Robustness: how much of the fused overlap win survives a lossy
    // fabric? The fused kernel's slice PUTs replay through a NIC under the
    // plan (RoCE-style go-back-N, 20 µs RTO per lost attempt), while the bulk
    // baseline is held fault-free — giving the baseline the benefit of
    // the doubt, since a lossy fabric slows it too.
    let cfg = DlrmConfig::hw_eval(2, 1024, 64);
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let baseline = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::Batched).total;
    let mut rows = Vec::new();
    let mut series = Series::new("fused_over_clean_baseline");
    for rate in [0.0f64, 0.05, 0.1, 0.2, 0.4] {
        let params = FusedParams {
            faults: Some(FaultPlan::new(0xFA117).with_drop_rate(rate)),
            ..FusedParams::new(cfg.clone(), gpu.clone(), topo.clone())
        };
        let r = simulate_fused(&params);
        let t = r.makespan();
        let retrans: u64 = r.fault_stats.iter().map(|s| s.retransmitted_bytes).sum();
        let norm = t.as_nanos_f64() / baseline.as_nanos_f64();
        rows.push(vec![
            format!("{:.0}%", rate * 100.0),
            format!("{t}"),
            format!("{} KiB", retrans / 1024),
            format!("{norm:.3}"),
        ]);
        series.push(format!("drop{:.0}%", rate * 100.0), norm);
    }
    print_table(
        "Ablation 11: fused overlap win vs injected drop rate (1024|64, go-back-N recovery)",
        &[
            "drop rate",
            "fused time",
            "retransmitted",
            "vs clean bulk baseline",
        ],
        &rows,
    );
    series
}

fn recovery_study() -> Series {
    // Timed model: where in the step the PE dies determines wasted work,
    // while checkpoint cadence determines replay — MTTR decomposed per
    // crash point on the Table 2 torus.
    let cfg = DlrmConfig::scale_out(16, 1024, 4);
    let gpu = GpuConfig::mi210();
    let topo = presets::torus((4, 4));
    let pipeline = InputPipeline::fast();
    let mut rows = Vec::new();
    let mut series = Series::new("mttr_ms_vs_crash_frac");
    for frac in [0.0, 0.25, 0.5, 0.75, 0.99] {
        let spec = RecoverySpec::for_one_crash(&cfg, 25, frac);
        let r = simulate_run_with_recovery(
            &cfg,
            &gpu,
            &topo,
            OperatorMode::Fused,
            &pipeline,
            50,
            &spec,
        );
        rows.push(vec![
            format!("{frac:.2}"),
            format!("{}", r.detection),
            format!("{}", r.reconfiguration),
            format!("{}", r.restore),
            format!("{}", r.replay),
            format!("{}", r.mttr),
            format!("{}", r.wasted_work),
            format!("{}", r.total),
        ]);
        series.push(format!("frac{frac:.2}"), r.mttr.as_nanos_f64() / 1e6);
    }
    print_table(
        "Ablation 12: recovery time vs crash point in step (16 nodes, 1 crash, ckpt every 10)",
        &[
            "crash frac",
            "detect",
            "reconfig",
            "restore",
            "replay",
            "MTTR",
            "wasted",
            "run total",
        ],
        &rows,
    );

    // Functional cross-check: an actual crashed run through the elastic
    // trainer, with the team's recovery counters.
    let mut dcfg = DlrmConfig::hw_eval(4, 8, 2);
    dcfg.table_rows = 64;
    dcfg.dim = 8;
    dcfg.pooling = 4;
    let report = ElasticTrainer::new(dcfg, TrainerConfig::default())
        .run(&FaultPlan::new(12).with_pe_crash(1, 2));
    print_recovery_counters(
        "Ablation 12 (functional): crash-recovery counters, 4 PEs, PE 1 dies entering step 2",
        &report.counters,
    );
    series
}

fn corruption_study() -> Series {
    // Integrity: how much of the fused overlap win survives a fabric
    // that *corrupts* instead of drops? Wire-detectable flips are caught
    // by the link checksum and replayed (one RTO stall each — the
    // detection latency the wire pays per corruption), while
    // self-consistent replays sail through the wire on time and are only
    // caught end-to-end by the fused checksum.
    let cfg = DlrmConfig::hw_eval(2, 1024, 64);
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();
    let baseline = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::Batched).total;
    let clean = simulate_fused(&FusedParams::new(cfg.clone(), gpu.clone(), topo.clone()));
    let mut rows = Vec::new();
    let mut series = Series::new("fused_over_clean_baseline");
    for (kind, tag) in [
        (CorruptKind::BitFlip, "bitflip"),
        (CorruptKind::StaleReplay, "replay"),
    ] {
        for rate in [0.05f64, 0.1, 0.2, 0.4] {
            let params = FusedParams {
                faults: Some(FaultPlan::new(0xC0DE).with_corrupt_only(rate, kind)),
                ..FusedParams::new(cfg.clone(), gpu.clone(), topo.clone())
            };
            let r = simulate_fused(&params);
            let t = r.makespan();
            let injected: u64 = r.fault_stats.iter().map(|s| s.corrupt_injected).sum();
            let detected: u64 = r.fault_stats.iter().map(|s| s.corrupt_detected).sum();
            let escaped: u64 = r.fault_stats.iter().map(|s| s.corrupt_escaped).sum();
            // Wire-side stall amortized per injected corruption: the
            // detect→retransmit latency this rate costs the kernel.
            let latency_ns = if injected > 0 {
                (t.as_nanos_f64() - clean.makespan().as_nanos_f64()).max(0.0) / injected as f64
            } else {
                0.0
            };
            let norm = t.as_nanos_f64() / baseline.as_nanos_f64();
            rows.push(vec![
                format!("{tag} {:.0}%", rate * 100.0),
                format!("{t}"),
                format!("{injected}"),
                format!("{detected}"),
                format!("{escaped}"),
                format!("{:.2} us", latency_ns / 1e3),
                format!("{norm:.3}"),
            ]);
            series.push(format!("{tag}{:.0}%", rate * 100.0), norm);
        }
    }
    print_table(
        "Ablation 13: overlap win + detection latency vs corruption rate (1024|64, inter-node)",
        &[
            "corruption",
            "fused time",
            "injected",
            "wire-detected",
            "escaped",
            "detect latency/corruption",
            "vs clean bulk baseline",
        ],
        &rows,
    );
    series
}

fn main() {
    let record = FigureRecord {
        id: "ablations".into(),
        paper_claim: "design-choice studies beyond the paper's figures".into(),
        measured: "see series".into(),
        series: vec![
            tiling_study(),
            launch_study(),
            bruck_study(),
            fabric_validation(),
            backward_fusion_study(),
            multi_qp_study(),
            cosim_validation_study(),
            gpus_per_nic_study(),
            topology_study(),
            training_throughput_study(),
            fault_tolerance_study(),
            recovery_study(),
            corruption_study(),
        ],
    };
    write_json(&record);
}
