//! The fast scale-out study behind `fig15_scaleout --fast`: the DLRM
//! pass at 1k–8k nodes across torus, fat-tree, dragonfly, and
//! multi-rail fabrics, with the All-to-All wire time *measured* on the
//! flow-level fair-sharing simulator (`fcc_net::flow::FlowFabric`)
//! instead of the closed-form analytic model.
//!
//! Every wire measurement runs with the fast path's always-on invariant
//! checking (fair-share and conservation); a violation aborts the
//! bench. The committed `results/BENCH_scaleout.json` artifact is the
//! CI regression floor: `--check` re-runs points and holds every
//! sim-clock leaf of each to the committed value exactly (the
//! simulation is deterministic); only `wall_s` is ungated.

use fcc_core::sim::FusedTuning;
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_net::fabric::Injection;
use fcc_net::{presets, FlowFabric, FlowStats, Topology};
use fcc_sim::SimTime;
use fcc_telemetry::artifact::{field, Artifact, Point, Value};

use crate::gate::{Rule, Rules};

/// Node counts in the fast scale-out sweep. The small end overlaps the
/// flow-fabric Fig. 15 grid so the committed artifact holds one priced
/// curve from 16 to 8192 nodes; fabrics whose preset needs more
/// endpoints than a size provides skip it ([`fabric_min_nodes`]).
pub const FAST_NODES: [u32; 7] = [16, 64, 256, 1024, 2048, 4096, 8192];

/// Smallest node count a fabric family's preset supports.
pub fn fabric_min_nodes(name: &str) -> u32 {
    match name {
        "torus" | "multi-rail" => 4,
        "fat-tree" => 64,
        "dragonfly" => 128,
        other => panic!("unknown scale-out fabric {other:?} (want one of {FABRICS:?})"),
    }
}

/// Fabric families in the fast scale-out sweep.
pub const FABRICS: [&str; 4] = ["torus", "fat-tree", "dragonfly", "multi-rail"];

/// Resolves a sweep fabric name to its scale-out preset.
pub fn fabric(name: &str, nodes: u32) -> Topology {
    match name {
        "torus" => presets::torus_scaleout(nodes),
        "fat-tree" => presets::fat_tree_scaleout(nodes),
        "dragonfly" => presets::dragonfly_scaleout(nodes),
        "multi-rail" => presets::multi_rail_scaleout(nodes),
        other => panic!("unknown scale-out fabric {other:?} (want one of {FABRICS:?})"),
    }
}

/// One measured point of the fast scale-out study.
#[derive(Debug, Clone)]
pub struct ScaleOutPoint {
    pub fabric: String,
    pub nodes: u32,
    /// Measured uniform All-to-All completion on the flow fabric.
    pub wire_ns: f64,
    pub baseline_ns: f64,
    pub fused_ns: f64,
    /// fused / baseline pass time.
    pub normalized: f64,
    /// Flow-engine stats for the wire measurement.
    pub stats: FlowStats,
    /// Wall-clock seconds spent simulating the wire.
    pub wall_s: f64,
}

/// Runs one fast scale-out point: measures the All-to-All wire on the
/// flow fabric (invariants checked), then prices the baseline and fused
/// DLRM pass with that wire time.
pub fn fast_point(fabric_name: &str, nodes: u32) -> ScaleOutPoint {
    let topo = fabric(fabric_name, nodes);
    let n = nodes as usize;
    let cfg = DlrmConfig::scale_out(n, 64 * n, 6);
    let gpu = GpuConfig::mi210();
    let tuning = FusedTuning::default();
    let bytes = cfg.alltoall_bytes_per_pair();

    let t0 = std::time::Instant::now();
    let (wire, stats) = measure_wire(&topo, bytes);
    let wall_s = t0.elapsed().as_secs_f64();

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
    ScaleOutPoint {
        fabric: fabric_name.to_string(),
        nodes,
        wire_ns: wire.as_nanos_f64(),
        baseline_ns: base.makespan.as_nanos_f64(),
        fused_ns: fused.makespan.as_nanos_f64(),
        normalized: fused.makespan.as_nanos_f64() / base.makespan.as_nanos_f64(),
        stats,
        wall_s,
    }
}

/// Uniform all-to-all completion time on the flow fabric, with run
/// stats. Panics on any invariant violation — a bench result from a
/// model that failed its own checks is worthless.
pub fn measure_wire(topo: &Topology, bytes_per_pair: u64) -> (SimTime, FlowStats) {
    let n = topo.endpoints();
    assert!(n >= 2 && bytes_per_pair > 0);
    let mut injections = Vec::with_capacity(n as usize * (n as usize - 1));
    let mut tag = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                injections.push(Injection {
                    at: SimTime::ZERO,
                    src,
                    dst,
                    bytes: bytes_per_pair,
                    tag,
                });
                tag += 1;
            }
        }
    }
    let (deliveries, stats) = FlowFabric::new()
        .run_checked(topo, &injections)
        .unwrap_or_else(|v| panic!("flow fabric invariant violated at {n} nodes: {v}"));
    let makespan = deliveries
        .iter()
        .map(|d| d.arrival)
        .max()
        .unwrap_or(SimTime::ZERO);
    (makespan, stats)
}

/// The artifact written to `results/BENCH_scaleout.json`.
#[derive(Debug, Clone)]
pub struct ScaleOutRun {
    pub points: Vec<ScaleOutPoint>,
}

impl ScaleOutRun {
    /// The `BENCH_scaleout.json` record: one point per fabric × size,
    /// named `<fabric>-<nodes>`.
    pub fn artifact(&self) -> Artifact {
        let points = self
            .points
            .iter()
            .map(|p| {
                Point::new(
                    format!("{}-{}", p.fabric, p.nodes),
                    vec![
                        field("fabric", p.fabric.as_str()),
                        field("nodes", p.nodes),
                        field("wire_ns", Value::Fixed(p.wire_ns, 1)),
                        field("baseline_ns", Value::Fixed(p.baseline_ns, 1)),
                        field("fused_ns", Value::Fixed(p.fused_ns, 1)),
                        field("normalized", Value::Fixed(p.normalized, 6)),
                        field("flow_events", p.stats.events),
                        field("flow_refreshes", p.stats.refreshes),
                        field("max_active", p.stats.max_active),
                        field("wall_s", Value::Fixed(p.wall_s, 3)),
                    ],
                )
            })
            .collect();
        Artifact {
            name: "scaleout".to_string(),
            fields: vec![field(
                "description",
                "DLRM pass, baseline vs fused, wire measured on the flow-level \
                 fair-sharing fabric (invariants checked every run)",
            )],
            points,
        }
    }
}

/// Gate rules for `BENCH_scaleout.json`: the simulator's own wall time
/// is the only wall-clock leaf; every priced time and flow count is
/// deterministic and held exactly.
pub const RULES: &Rules = &[("wall_s", Rule::Ungated)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips() {
        let run = ScaleOutRun {
            points: vec![ScaleOutPoint {
                fabric: "torus".into(),
                nodes: 1024,
                wire_ns: 1.5e6,
                baseline_ns: 4.0e6,
                fused_ns: 3.5e6,
                normalized: 0.875,
                stats: FlowStats::default(),
                wall_s: 0.0421,
            }],
        };
        let leaves = crate::gate::assert_round_trips(&run.artifact());
        assert_eq!(leaves.len(), 9);
        assert_eq!(leaves["points.torus-1024.nodes"], 1024.0);
        assert_eq!(leaves["points.torus-1024.normalized"], 0.875);
        assert!(
            run.artifact().to_json().contains("\"wall_s\": 0.042"),
            "wall time prints at millisecond precision"
        );
    }

    #[test]
    fn every_sweep_fabric_resolves_at_every_supported_sweep_size() {
        for name in FABRICS {
            for nodes in FAST_NODES {
                if nodes < fabric_min_nodes(name) {
                    continue;
                }
                assert_eq!(fabric(name, nodes).endpoints(), nodes, "{name} {nodes}");
            }
        }
        // The curve starts at 16 for the families that reach it.
        assert_eq!(fabric("torus", 16).endpoints(), 16);
        assert_eq!(fabric("multi-rail", 16).endpoints(), 16);
    }

    #[test]
    fn a_small_fast_point_shows_the_fused_win() {
        // The sweep entry point at a miniature size (the real grid starts
        // at 1024; torus_scaleout accepts any power of two >= 4).
        let p = fast_point("torus", 64);
        assert!(p.normalized < 1.0, "normalized {}", p.normalized);
        assert!(p.wire_ns > 0.0);
        assert_eq!(p.stats.links, 64 * 4);
    }
}
