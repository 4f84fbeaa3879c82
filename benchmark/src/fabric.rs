//! `fabric_uniform` and `fabric_skewed`: the flow-level fair-sharing
//! fabric pricing an All-to-All, then both DLRM pass prices per point.
//! Uniform traffic is massively symmetric (a handful of refreshes carry a
//! million flows); skewed, wave-staggered traffic makes every arrival and
//! completion its own event. An engine change that helps one and taxes the
//! other shows up as a regression on the other.

use std::time::Instant;

use fcc_astra::{build_pass_with_wire, OperatorMode};
use fcc_core::FusedTuning;
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_net::{presets, FlowFabric, FlowStats, FlowViolation, Injection, Topology};
use fcc_sim::SimTime;

use crate::harness::{micros, Fnv, LayerValues, Outcome, Recorder, SplitMix};
use crate::Args;

/// Skewed traffic: one pair in `HEAVY_ONE_IN` carries `HEAVY_FACTOR`x the
/// uniform bytes, the rest half; injected in `WAVES` waves `WAVE_GAP` apart.
const HEAVY_ONE_IN: u64 = 8;
const HEAVY_FACTOR: u64 = 16;
const WAVES: u64 = 8;
const WAVE_GAP: SimTime = SimTime::from_micros(50);

const WARM_UP_FLOWS: usize = 32_768;

#[derive(Clone, Copy, PartialEq)]
pub enum Traffic {
    Uniform,
    Skewed,
}

#[derive(Clone, Copy)]
struct PointSpec {
    fabric: &'static str,
    nodes: u32,
}

const UNIFORM_POINTS: [PointSpec; 4] = [
    PointSpec {
        fabric: "torus",
        nodes: 512,
    },
    PointSpec {
        fabric: "fat-tree",
        nodes: 512,
    },
    PointSpec {
        fabric: "dragonfly",
        nodes: 512,
    },
    PointSpec {
        fabric: "multi-rail",
        nodes: 512,
    },
];

const SKEWED_POINTS: [PointSpec; 4] = [
    PointSpec {
        fabric: "torus",
        nodes: 64,
    },
    PointSpec {
        fabric: "fat-tree",
        nodes: 128,
    },
    PointSpec {
        fabric: "dragonfly",
        nodes: 128,
    },
    PointSpec {
        fabric: "multi-rail",
        nodes: 128,
    },
];

const TINY_POINTS: [PointSpec; 2] = [
    PointSpec {
        fabric: "torus",
        nodes: 64,
    },
    PointSpec {
        fabric: "fat-tree",
        nodes: 64,
    },
];

fn topology(spec: PointSpec) -> Topology {
    match spec.fabric {
        "torus" => presets::torus_scaleout(spec.nodes),
        "fat-tree" => presets::fat_tree_scaleout(spec.nodes),
        "dragonfly" => presets::dragonfly_scaleout(spec.nodes),
        "multi-rail" => presets::multi_rail_scaleout(spec.nodes),
        other => unreachable!("no preset for fabric {other}"),
    }
}

/// Every ordered pair sends `bytes` at t = 0.
pub fn uniform_alltoall(n: u32, bytes: u64) -> Vec<Injection> {
    let mut out = Vec::with_capacity(n as usize * (n as usize - 1));
    for src in 0..n {
        for dst in (0..n).filter(|&d| d != src) {
            out.push(Injection {
                at: SimTime::ZERO,
                src,
                dst,
                bytes,
                tag: out.len() as u64,
            });
        }
    }
    out
}

/// The MoE-like pattern: a seeded 1/8 of pairs are heavy, waves are
/// assigned round-robin by source so each wave is itself an All-to-All
/// slice.
fn skewed_alltoall(n: u32, bytes: u64, seed: u64) -> Vec<Injection> {
    let mut rng = SplitMix(seed);
    let mut out = uniform_alltoall(n, bytes);
    for inj in &mut out {
        let heavy = rng.next().is_multiple_of(HEAVY_ONE_IN);
        inj.bytes = if heavy {
            bytes * HEAVY_FACTOR
        } else {
            bytes / 2
        };
        let wave = (inj.src as u64 + inj.dst as u64) % WAVES;
        inj.at = SimTime::from_nanos(WAVE_GAP.as_nanos() * wave);
    }
    out
}

/// `FlowFabric::run_checked` under a span; a lost delivery is reported as
/// the violation the checker would raise.
pub fn run_flows(
    rec: &mut Recorder,
    topo: &Topology,
    flows: &[Injection],
) -> Result<(SimTime, FlowStats), FlowViolation> {
    let (result, _) = rec.time("net.flow_run", || {
        FlowFabric::new().run_checked(topo, flows)
    });
    let (deliveries, stats) = result?;
    if deliveries.len() != flows.len() {
        return Err(FlowViolation::MissingDelivery {
            tag: deliveries.len() as u64,
        });
    }
    let wire = deliveries
        .iter()
        .map(|d| d.arrival)
        .max()
        .unwrap_or(SimTime::ZERO);
    Ok((wire, stats))
}

struct Point {
    cfg: DlrmConfig,
    topo: Topology,
    flows: Vec<Injection>,
}

fn build_points(
    specs: &[PointSpec],
    traffic: Traffic,
    seed: u64,
    rec: &mut Recorder,
) -> Vec<Point> {
    specs
        .iter()
        .map(|&spec| {
            let n = spec.nodes as usize;
            let cfg = DlrmConfig::scale_out(n, 64 * n, 6);
            let topo = rec.time("net.topology_build", || topology(spec)).0;
            let bytes = cfg.alltoall_bytes_per_pair();
            let flows = match traffic {
                Traffic::Uniform => uniform_alltoall(spec.nodes, bytes),
                Traffic::Skewed => skewed_alltoall(spec.nodes, bytes, seed ^ spec.nodes as u64),
            };
            Point { cfg, topo, flows }
        })
        .collect()
}

pub fn run(
    traffic: Traffic,
    args: &Args,
    rec: &mut Recorder,
    layer: &mut LayerValues,
) -> Result<Outcome, String> {
    let specs: &[PointSpec] = match (args.tiny, traffic) {
        (true, _) => &TINY_POINTS,
        (false, Traffic::Uniform) => &UNIFORM_POINTS,
        (false, Traffic::Skewed) => &SKEWED_POINTS,
    };
    let gpu = GpuConfig::mi210();
    let tuning = FusedTuning::default();

    let t0 = Instant::now();
    let points = build_points(specs, traffic, args.seed, rec);
    // Warm-up: a bounded share of the first point's own traffic through
    // the engine once.
    let warm = &points[0];
    let share = warm.flows.len().min(WARM_UP_FLOWS);
    run_flows(rec, &warm.topo, &warm.flows[..share]).map_err(|v| v.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let topo_build: f64 = specs
        .iter()
        .map(|&s| {
            let t = Instant::now();
            std::hint::black_box(topology(s));
            t.elapsed().as_secs_f64()
        })
        .sum();
    layer.set("net.topology.build_s", topo_build);

    let flows_per_pass: u64 = points.iter().map(|p| p.flows.len() as u64).sum();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut point_us = Vec::new();
    let mut digest = Fnv::new();
    let mut totals = FlowStats::default();
    let (mut flow_run_s, mut pass_price_s) = (0.0, 0.0);
    for p in &points {
        let open = rec.open("driver.point");
        let t = Instant::now();
        let flow = run_flows(rec, &p.topo, &p.flows);
        flow_run_s += t.elapsed().as_secs_f64();
        attempted += p.flows.len() as u64;
        match flow {
            Ok((wire, stats)) => {
                let t = Instant::now();
                for mode in [OperatorMode::Baseline, OperatorMode::Fused] {
                    let (_, report) = rec
                        .time("astra.build_pass", || {
                            build_pass_with_wire(&p.cfg, &gpu, &p.topo, mode, &tuning, Some(wire))
                        })
                        .0;
                    digest.word(report.makespan.as_nanos());
                }
                pass_price_s += t.elapsed().as_secs_f64();
                digest.word(wire.as_nanos());
                digest.word(stats.events);
                digest.word(stats.refreshes);
                totals.events += stats.events;
                totals.refreshes += stats.refreshes;
                totals.max_active = totals.max_active.max(stats.max_active);
            }
            Err(v) => {
                failed += p.flows.len() as u64;
                notes.push(format!("flow violation: {v}"));
            }
        }
        point_us.push(micros(rec.close(open)));
    }
    let mut out = Outcome::from_latencies(setup_s, &point_us);
    out.op_sequence_us = point_us;
    out.attempted = attempted;
    out.failed = failed;
    out.digest = digest.0;
    out.notes = notes;

    layer.set("net.flow.flows", flows_per_pass as f64);
    layer.set(
        "net.flow.flows_per_s",
        out.ops_per_s * flows_per_pass as f64 / points.len() as f64,
    );
    layer.set("net.flow.refreshes", totals.refreshes as f64);
    layer.set(
        "net.flow.refreshes_per_flow",
        totals.refreshes as f64 / flows_per_pass as f64,
    );
    layer.set("net.flow.events", totals.events as f64);
    layer.set("net.flow.max_active", totals.max_active as f64);
    layer.set("net.flow.run_s", flow_run_s);
    layer.set(
        "net.flow.ns_per_refresh_flow",
        flow_run_s * 1e9 / (totals.refreshes as f64 * totals.max_active as f64),
    );
    layer.set(
        "astra.pass_ms",
        pass_price_s * 1e3 / (points.len() * 2) as f64,
    );
    let list: Vec<String> = specs
        .iter()
        .map(|s| format!("{}-{}", s.fabric, s.nodes))
        .collect();
    out.notes.push(format!(
        "batch; one pass over {} fabric points ({}) per part, single-threaded; {flows_per_pass} \
         flows, {} refreshes, {} events per pass (exact)",
        points.len(),
        list.join(" "),
        totals.refreshes,
        totals.events,
    ));
    Ok(out)
}
