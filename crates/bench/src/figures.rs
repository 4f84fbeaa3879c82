//! One driver per paper artifact: runs the experiment, prints the
//! paper-style table, returns the JSON record.
//!
//! Binaries (`src/bin/fig*.rs`) are one-line wrappers over these so that
//! `all_figures` can regenerate everything in one process.
//!
//! Each sweep figure evaluates its independent design points across a
//! rayon pool first and only then prints, so tables stay in grid order
//! while the wall-clock cost is that of the slowest point, not the sum.

use fcc_core::sim::fused::{simulate_fused, FusedParams};
use fcc_core::ScheduleKind;
use fcc_gpu::config::GpuConfig;
use fcc_net::presets;
use fcc_sim::{stats, SimTime};
use fcc_telemetry::{
    check_chrome_trace, export_chrome_trace, Telemetry, TraceRecord, TraceSink, TrackId,
};
use rayon::prelude::*;

use crate::report::{print_table, FigureRecord, Series};
use crate::runs;

/// Figure 9: persistent-WG execution timeline with PUT issue points.
pub fn fig09() -> FigureRecord {
    // The paper profiles the 1024|256 point with slices of 16 WGs and
    // shows the first 32 persistent WGs.
    const SHOWN_WGS: u32 = 32;
    let sink = TraceSink::enabled();
    let params = FusedParams {
        slice_embeddings: 16,
        telemetry: Telemetry {
            trace: sink.clone(),
            ..Telemetry::disabled()
        },
        ..FusedParams::new(
            runs::design_point(),
            GpuConfig::mi210(),
            presets::dual_node_ib(),
        )
    };
    let result = simulate_fused(&params);
    let trace = sink.data();
    println!("\n== Fig 9: persistent-WG timeline (node 0, first 32 WGs) ==");
    println!("legend: # compute   ! remote PUT issued   o local slice completion\n");
    print!("{}", trace.render_ascii(0, SHOWN_WGS, 100));

    // Quantify the overlap the chart shows: how many PUTs are issued
    // strictly before this PE's compute drains (all of them should be).
    let puts: Vec<(u32, SimTime)> = (trace.records.iter())
        .filter_map(|r| match r {
            TraceRecord::Instant {
                track, name, at, ..
            } if track.pid == 0 && name == "remote_put" => Some((track.tid, *at)),
            _ => None,
        })
        .collect();
    let compute_end = result.per_pe[0].compute_end;
    let overlapped = puts.iter().filter(|&&(_, at)| at < compute_end).count();
    // Keep the charted tracks alone; all of PE 0's WG tracks would export
    // to ~39 MB of Perfetto/chrome://tracing JSON.
    let shown = |t: TrackId| t.pid == 0 && t.tid < SHOWN_WGS;
    let mut chart = trace;
    chart.records.retain(|r| shown(r.track()));
    chart.processes.retain(|&pid, _| pid == 0);
    chart
        .threads
        .retain(|&(pid, tid), _| shown(TrackId::new(pid, tid)));
    // Mean per-WG compute utilization up to the kernel's end — the
    // "others keep computing while some communicate" claim, as a number.
    let horizon = result.per_pe[0].total;
    let utils: Vec<f64> = (0..SHOWN_WGS)
        .filter_map(|wg| chart.compute_utilization(TrackId::new(0, wg), horizon))
        .collect();
    let mean_util = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
    let measured = format!(
        "{}/{} remote PUTs issued before compute drained; kernel ends at {}; \
         mean WG compute utilization {:.0}%",
        overlapped,
        puts.len(),
        result.per_pe[0].total,
        mean_util * 100.0
    );
    println!("\n{measured}");

    // Distribution of inter-PUT intervals: fine-grained overlap means the
    // network is fed continuously, not in bursts at kernel boundaries.
    let mut issue_times: Vec<f64> = puts.iter().map(|(_, at)| at.as_micros_f64()).collect();
    issue_times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mut hist = fcc_sim::stats::Histogram::new(0.0, 16.0, 8);
    for w in issue_times.windows(2) {
        hist.record(w[1] - w[0]);
    }
    println!("inter-PUT intervals (us, 2us buckets): {}", hist.render());

    let json = export_chrome_trace(&chart);
    check_chrome_trace(&json).expect("Fig. 9's trace must pass the Chrome-trace checker");
    crate::report::write_result("fig09_trace.json", &json);

    let mut s = Series::new("put_issue_times_us");
    for (wg, at) in &puts {
        s.push(format!("wg{wg}"), at.as_micros_f64());
    }
    FigureRecord {
        id: "fig09".into(),
        paper_claim: "PUTs issued mid-kernel by last-finishing WGs; remote slices computed before local ones; communication overlaps computation".into(),
        measured,
        series: vec![s],
    }
}

/// Figure 10: inter-node normalized execution time grid.
pub fn fig10() -> FigureRecord {
    let grid: Vec<(usize, usize)> = runs::TABLE_COUNTS
        .iter()
        .flat_map(|&tables| {
            runs::INTER_NODE_BATCHES
                .iter()
                .map(move |&batch| (batch, tables))
        })
        .collect();
    let points: Vec<runs::InterNodePoint> = grid
        .par_iter()
        .map(|&(batch, tables)| runs::inter_node_point(batch, tables))
        .collect();
    let mut rows = Vec::new();
    let mut series = Series::new("fused/baseline");
    let mut normalized = Vec::new();
    for (&(batch, tables), p) in grid.iter().zip(&points) {
        rows.push(vec![
            runs::label(batch, tables),
            format!("{}", p.baseline),
            format!("{}", p.fused),
            format!("{:.3}", p.normalized),
        ]);
        series.push(runs::label(batch, tables), p.normalized);
        normalized.push(p.normalized);
    }
    print_table(
        "Fig 10: inter-node fused embedding+All-to-All, normalized execution time",
        &["config", "baseline", "fused", "normalized"],
        &rows,
    );
    let summary = stats::Summary::of(&normalized).expect("non-empty grid");
    let measured = format!(
        "mean reduction {:.1}% (max {:.1}%), normalized mean {:.3}",
        (1.0 - summary.mean) * 100.0,
        (1.0 - summary.min) * 100.0,
        summary.mean
    );
    println!("{measured}");
    FigureRecord {
        id: "fig10".into(),
        paper_claim: "31% average (up to 58%) lower combined execution time inter-node".into(),
        measured,
        series: vec![series],
    }
}

/// Figure 11: occupancy sweep at 1024|256.
pub fn fig11() -> FigureRecord {
    let fracs = [0.25, 0.375, 0.5, 0.625, 0.75, 0.875];
    let points: Vec<_> = fracs
        .par_iter()
        .map(|&f| runs::occupancy_point(f))
        .collect();
    let mut rows = Vec::new();
    let mut series = Series::new("execution_time_ms");
    let times: Vec<f64> = fracs
        .iter()
        .zip(&points)
        .map(|(&f, &t)| {
            rows.push(vec![format!("{:.1}%", f * 100.0), format!("{}", t)]);
            series.push(format!("{:.1}%", f * 100.0), t.as_millis_f64());
            t.as_millis_f64()
        })
        .collect();
    print_table(
        "Fig 11: impact of WG occupancy on fused-kernel execution time (1024|256)",
        &["occupancy", "fused kernel time"],
        &rows,
    );
    let drop_25_75 = 1.0 - times[4] / times[0];
    let rise_75_875 = times[5] / times[4] - 1.0;
    let measured = format!(
        "time falls {:.0}% from 25%→75% occupancy, rises {:.0}% at 87.5%",
        drop_25_75 * 100.0,
        rise_75_875 * 100.0
    );
    println!("{measured}");
    FigureRecord {
        id: "fig11".into(),
        paper_claim: "execution time reduces 46% from 25%→75% occupancy, then increases 25% at 87.5% (memory contention)".into(),
        measured,
        series: vec![series],
    }
}

/// Figure 12: slice-size sweep at 1024|256.
pub fn fig12() -> FigureRecord {
    let sizes = [4usize, 8, 16, 32, 64, 128, 256];
    let points: Vec<_> = sizes
        .par_iter()
        .map(|&s| runs::slice_size_point(s))
        .collect();
    let mut rows = Vec::new();
    let mut series = Series::new("execution_time_ms");
    let times: Vec<f64> = sizes
        .iter()
        .zip(&points)
        .map(|(&s, &t)| {
            rows.push(vec![s.to_string(), format!("{}", t)]);
            series.push(s.to_string(), t.as_millis_f64());
            t.as_millis_f64()
        })
        .collect();
    print_table(
        "Fig 12: impact of slice size on fused-kernel execution time (1024|256)",
        &["slice (embeddings)", "fused kernel time"],
        &rows,
    );
    let slice64_vs_4 = 1.0 - times[4] / times[0];
    let sat = (times[6] - times[4]).abs() / times[4];
    let measured = format!(
        "slice=64 is {:.0}% faster than slice=4; beyond 64 the curve is flat ({:.1}% change to 256)",
        slice64_vs_4 * 100.0,
        sat * 100.0
    );
    println!("{measured}");
    FigureRecord {
        id: "fig12".into(),
        paper_claim: "execution time reduces with slice size and saturates beyond 64 embeddings; slice 64 ≈55% faster than slice 4".into(),
        measured,
        series: vec![series],
    }
}

/// Figure 13: communication-aware vs oblivious scheduling skew.
pub fn fig13() -> FigureRecord {
    let baseline = runs::inter_node_point(1024, 256).baseline.as_nanos_f64();
    let schedules = [
        ("comm-oblivious", ScheduleKind::Oblivious),
        ("comm-aware", ScheduleKind::CommAware),
    ];
    let per_schedule: Vec<_> = schedules
        .par_iter()
        .map(|&(_, kind)| runs::scheduling_point(kind))
        .collect();
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut skews = Vec::new();
    for (&(name, _), per_node) in schedules.iter().zip(&per_schedule) {
        let mut s = Series::new(name);
        for (node, t) in per_node.iter().enumerate() {
            rows.push(vec![
                name.to_string(),
                format!("node {node}"),
                format!("{}", t),
                format!("{:.3}", t.as_nanos_f64() / baseline),
            ]);
            s.push(format!("node{node}"), t.as_nanos_f64() / baseline);
        }
        let max = per_node
            .iter()
            .map(|t| t.as_nanos_f64())
            .fold(0.0, f64::max);
        let min = per_node
            .iter()
            .map(|t| t.as_nanos_f64())
            .fold(f64::INFINITY, f64::min);
        skews.push((max - min) / max);
        series.push(s);
    }
    print_table(
        "Fig 13: impact of communication-aware WG scheduling (1024|256, normalized to baseline node 0)",
        &["schedule", "node", "fused kernel time", "normalized"],
        &rows,
    );
    let measured = format!(
        "execution-time skew: {:.1}% oblivious vs {:.1}% comm-aware",
        skews[0] * 100.0,
        skews[1] * 100.0
    );
    println!("{measured}");
    FigureRecord {
        id: "fig13".into(),
        paper_claim: "~7% inter-node execution skew with oblivious scheduling vs ~1% with communication-aware scheduling".into(),
        measured,
        series,
    }
}

/// Figure 14: intra-node zero-copy grid.
pub fn fig14() -> FigureRecord {
    let grid: Vec<(usize, usize)> = runs::TABLE_COUNTS
        .iter()
        .flat_map(|&tables| {
            runs::INTRA_NODE_BATCHES
                .iter()
                .map(move |&batch| (batch, tables))
        })
        .collect();
    let points: Vec<runs::IntraNodePoint> = grid
        .par_iter()
        .map(|&(batch, tables)| runs::intra_node_point(batch, tables))
        .collect();
    let mut rows = Vec::new();
    let mut series = Series::new("zero-copy/baseline");
    let mut normalized = Vec::new();
    for (&(batch, tables), p) in grid.iter().zip(&points) {
        rows.push(vec![
            runs::label(batch, tables),
            format!("{}", p.baseline),
            format!("{}", p.zero_copy),
            format!("{:.3}", p.normalized),
        ]);
        series.push(runs::label(batch, tables), p.normalized);
        normalized.push(p.normalized);
    }
    print_table(
        "Fig 14: intra-node zero-copy fused kernels, normalized execution time (4x MI210, xGMI)",
        &["config", "baseline", "zero-copy", "normalized"],
        &rows,
    );
    let summary = stats::Summary::of(&normalized).expect("non-empty grid");
    let measured = format!(
        "mean reduction {:.1}% (max {:.1}%), normalized mean {:.3}",
        (1.0 - summary.mean) * 100.0,
        (1.0 - summary.min) * 100.0,
        summary.mean
    );
    println!("{measured}");
    FigureRecord {
        id: "fig14".into(),
        paper_claim:
            "25% average (up to 35%) lower execution time intra-node; smaller batches benefit less"
                .into(),
        measured,
        series: vec![series],
    }
}

/// Figure 15: scale-out DLRM training pass.
pub fn fig15() -> FigureRecord {
    let points: Vec<_> = runs::SCALE_OUT_NODES
        .par_iter()
        .map(|&dims| runs::scale_out_point(dims))
        .collect();
    let mut rows = Vec::new();
    let mut series = Series::new("fused/baseline");
    let mut at_128 = 0.0;
    for (&dims, &(base, fused)) in runs::SCALE_OUT_NODES.iter().zip(&points) {
        let n = dims.0 * dims.1;
        let norm = fused.as_nanos_f64() / base.as_nanos_f64();
        rows.push(vec![
            format!("{n} ({}x{})", dims.0, dims.1),
            format!("{}", base),
            format!("{}", fused),
            format!("{norm:.3}"),
        ]);
        series.push(n.to_string(), norm);
        if n == 128 {
            at_128 = 1.0 - norm;
        }
    }
    print_table(
        "Fig 15: DLRM training pass on a 2D torus, baseline vs fused forward emb+All-to-All",
        &["nodes", "baseline pass", "fused pass", "normalized"],
        &rows,
    );
    let measured = format!("{:.1}% pass-time reduction at 128 nodes", at_128 * 100.0);
    println!("{measured}");
    FigureRecord {
        id: "fig15".into(),
        paper_claim: "~10% reduction in DLRM training-pass time at 128 nodes".into(),
        measured,
        series: vec![series],
    }
}

/// Tables 1 and 2: the encoded system configurations.
pub fn tables() -> FigureRecord {
    let gpu = GpuConfig::mi210();
    let intra = presets::quad_gpu_node();
    let inter = presets::dual_node_ib();
    let torus = presets::torus_128();
    let model = fcc_dlrm::DlrmConfig::scale_out(128, 8192, 8);
    let rows = vec![
        vec![
            "GPU".into(),
            format!(
                "{} ({} CUs, {:.1} TB/s HBM)",
                gpu.name,
                gpu.num_cus,
                gpu.hbm.peak_bytes_per_ns / 1000.0
            ),
        ],
        vec![
            "intra-node".into(),
            format!(
                "{} GPUs fully connected, xGMI {:.0} GB/s aggregate",
                intra.endpoints(),
                fcc_net::LinkSpec::xgmi_aggregate_bandwidth()
            ),
        ],
        vec![
            "inter-node".into(),
            format!(
                "{} nodes, InfiniBand {:.0} GB/s",
                inter.endpoints(),
                inter.link().bandwidth
            ),
        ],
        vec![
            "scale-out".into(),
            format!("{} nodes, 2D torus 200 Gb/s, 700 ns", torus.endpoints()),
        ],
        vec![
            "model (Table 2)".into(),
            format!(
                "dim {}, pooling {}, {} MLP layers of ~682",
                model.dim,
                model.pooling,
                (model.bottom_mlp.len() - 1) + (model.top_mlp.len() - 1)
            ),
        ],
    ];
    print_table(
        "Tables 1 & 2: system and model setup",
        &["item", "value"],
        &rows,
    );
    FigureRecord {
        id: "tables".into(),
        paper_claim: "Table 1 hardware setup; Table 2 scale-out model and network parameters".into(),
        measured: "encoded as presets (fcc-gpu::GpuConfig::mi210, fcc-net::presets, fcc-dlrm::DlrmConfig::scale_out)".into(),
        series: vec![],
    }
}
