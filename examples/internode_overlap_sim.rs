//! Inter-node overlap study on the simulated hardware: sweep slice sizes
//! and schedules at one configuration, print the persistent-WG timeline,
//! and show where the fused kernel's time goes.
//!
//! ```sh
//! cargo run --release --example internode_overlap_sim
//! ```

use fused_collectives::core::sim::baseline::{simulate_baseline, EmbeddingLaunch};
use fused_collectives::core::sim::fused::{simulate_fused, FusedParams};
use fused_collectives::core::ScheduleKind;
use fused_collectives::dlrm::DlrmConfig;
use fused_collectives::gpu::GpuConfig;
use fused_collectives::net::presets;
use fused_collectives::telemetry::{Telemetry, TraceSink};

fn main() {
    let cfg = DlrmConfig::hw_eval(2, 512, 64);
    let gpu = GpuConfig::mi210();
    let topo = presets::dual_node_ib();

    let base = simulate_baseline(&cfg, &gpu, &topo, EmbeddingLaunch::PerTable);
    println!(
        "baseline (512 | 64): embedding {} + overheads {} + All-to-All {} = {}",
        base.embedding, base.overheads, base.alltoall, base.total
    );

    println!("\nslice-size sweep (communication-aware schedule):");
    println!(
        "{:>8}  {:>12}  {:>10}  {:>12}  {:>10}",
        "slice", "kernel", "msgs/PE", "last arrival", "vs base"
    );
    for slice in [2usize, 8, 32, 128] {
        let params = FusedParams {
            slice_embeddings: slice,
            ..FusedParams::new(cfg.clone(), gpu.clone(), topo.clone())
        };
        let r = simulate_fused(&params);
        let pe = &r.per_pe[0];
        println!(
            "{:>8}  {:>12}  {:>10}  {:>12}  {:>9.3}x",
            slice,
            format!("{}", r.makespan()),
            pe.messages,
            format!("{}", pe.last_arrival),
            r.makespan().as_nanos_f64() / base.total.as_nanos_f64(),
        );
    }

    println!("\nschedule comparison (slice = 32):");
    for (name, kind) in [
        ("comm-aware", ScheduleKind::CommAware),
        ("comm-oblivious", ScheduleKind::Oblivious),
    ] {
        let params = FusedParams {
            schedule: kind,
            ..FusedParams::new(cfg.clone(), gpu.clone(), topo.clone())
        };
        let r = simulate_fused(&params);
        println!(
            "  {name:<16} node0 {}  node1 {}  skew {:.2}%",
            r.per_pe[0].total,
            r.per_pe[1].total,
            r.skew() * 100.0
        );
    }

    // A small traced run for the WG timeline (the Fig. 9 view).
    let mut tiny = DlrmConfig::hw_eval(2, 128, 4);
    tiny.pooling = 16;
    let sink = TraceSink::enabled();
    let params = FusedParams {
        slice_embeddings: 16,
        occupancy_cap: Some(16),
        telemetry: Telemetry {
            trace: sink.clone(),
            ..Telemetry::disabled()
        },
        ..FusedParams::new(tiny, gpu, topo)
    };
    simulate_fused(&params);
    println!("\npersistent-WG timeline, node 0 (# compute, ! remote PUT, o local slice):");
    print!("{}", sink.data().render_ascii(0, 16, 96));
}
