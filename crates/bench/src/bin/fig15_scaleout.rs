//! Regenerates the paper's Figure 15 — and, with `--fast`, extends the
//! scale-out study to 1k–8k nodes and more fabrics. Both price the
//! All-to-All wire on the flow-level fabric (`scaleout::measure_wire`).
//!
//! ```text
//! fig15_scaleout                     # Fig 15 (16–128-node tori)
//! fig15_scaleout --fast              # full 16-8192 sweep, all fabrics,
//!                                    # writes results/BENCH_scaleout.json
//! fig15_scaleout --fast --point N    # one node count (all fabrics)
//! fig15_scaleout --fast --fabric F   # one fabric (torus | fat-tree |
//!                                    # dragonfly | multi-rail)
//! fig15_scaleout --fast --check    # hold every sim-clock leaf of the
//!                                    # points run to the committed
//!                                    # artifact, exactly; writes nothing
//! fig15_scaleout --fast --alloc-check
//!                                    # assert the flow engine's steady-state
//!                                    # allocation discipline first
//! ```
//!
//! The committed artifact is only rewritten by a *full* sweep without
//! `--check` (the policy lives in `fcc_bench::gate`), so a restricted CI
//! invocation (`--point 1024 --check`) can never clobber the regression
//! baseline it is checking against.

use fcc_bench::args::{die, parse_value, usage_exit};
use fcc_bench::gate::{gate, Mode};
use fcc_bench::report::print_table;
use fcc_bench::scaleout::{self, ScaleOutRun};
use fcc_telemetry::alloc_count::{allocs_during, CountingAlloc};

const USAGE: &str = "fig15_scaleout [--fast] [--point N] [--fabric NAME] [--check] [--alloc-check]";

/// Counting allocator so `--alloc-check` can assert the fabric bench's
/// steady-state allocation discipline (see crates/net/tests/fabric_alloc.rs
/// for the test-suite version of the same contract).
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_check() {
    // Steady state: the flow engine's allocation count must not move
    // with message size (its event count is byte-independent), and must
    // stay within a fixed budget per run regardless of flow count.
    let topo = fcc_net::presets::torus_scaleout(256);
    let probe = |bytes: u64| {
        let (allocs, (wire, _)) = allocs_during(|| scaleout::measure_wire(&topo, bytes));
        assert!(wire > fcc_sim::SimTime::ZERO);
        allocs
    };
    probe(4 * 1024); // warm-up
    let small = probe(4 * 1024);
    let large = probe(256 * 1024);
    assert!(
        large <= small + 8,
        "flow engine allocations moved with bytes: {small} -> {large}"
    );
    assert!(
        small < 256,
        "flow engine allocation budget blown: {small} allocations for one run"
    );
    println!("alloc-check: steady-state holds ({small} allocs/run, byte-invariant)");
}

fn main() {
    let mut fast = false;
    let mut point: Option<u32> = None;
    let mut fabric: Option<String> = None;
    let mut check = false;
    let mut do_alloc_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--point" => point = Some(parse_value(&mut args, "--point")),
            "--fabric" => fabric = Some(parse_value(&mut args, "--fabric")),
            "--check" => check = true,
            "--alloc-check" => do_alloc_check = true,
            other => usage_exit(other, USAGE),
        }
    }
    if !fast {
        if point.is_some() || fabric.is_some() || check || do_alloc_check {
            die("--point/--fabric/--check/--alloc-check require --fast");
        }
        fcc_bench::report::write_json(&fcc_bench::figures::fig15());
        return;
    }

    if do_alloc_check {
        alloc_check();
    }

    let nodes: Vec<u32> = match point {
        Some(n) => {
            if !scaleout::FAST_NODES.contains(&n) {
                die(format_args!(
                    "--point {n} not in the sweep {:?}",
                    scaleout::FAST_NODES
                ));
            }
            vec![n]
        }
        None => scaleout::FAST_NODES.to_vec(),
    };
    let fabrics: Vec<&str> = match &fabric {
        Some(f) => {
            if !scaleout::FABRICS.contains(&f.as_str()) {
                die(format_args!(
                    "--fabric {f:?} not in the sweep {:?}",
                    scaleout::FABRICS
                ));
            }
            vec![f.as_str()]
        }
        None => scaleout::FABRICS.to_vec(),
    };
    let mut run = ScaleOutRun { points: Vec::new() };
    for &f in &fabrics {
        for &n in &nodes {
            if n < scaleout::fabric_min_nodes(f) {
                println!(
                    "[{f} {n}: skipped — preset needs >= {} nodes]",
                    scaleout::fabric_min_nodes(f)
                );
                continue;
            }
            let p = scaleout::fast_point(f, n);
            println!(
                "[{f} {n}: wire {:.3} ms, normalized {:.3}, {} events, \
                 {} refreshes, {:.1}s wall]",
                p.wire_ns / 1e6,
                p.normalized,
                p.stats.events,
                p.stats.refreshes,
                p.wall_s
            );
            run.points.push(p);
        }
    }

    let rows: Vec<Vec<String>> = run
        .points
        .iter()
        .map(|p| {
            vec![
                p.fabric.clone(),
                p.nodes.to_string(),
                format!("{:.3}", p.wire_ns / 1e6),
                format!("{:.3}", p.baseline_ns / 1e6),
                format!("{:.3}", p.fused_ns / 1e6),
                format!("{:.3}", p.normalized),
                format!("{:.1}", p.wall_s),
            ]
        })
        .collect();
    print_table(
        "Fig 15 (fast): DLRM pass at scale, flow-level fabric wire, baseline vs fused",
        &[
            "fabric",
            "nodes",
            "a2a wire ms",
            "baseline ms",
            "fused ms",
            "normalized",
            "wall s",
        ],
        &rows,
    );

    gate(
        "BENCH_scaleout.json",
        &run.artifact(),
        scaleout::RULES,
        Mode {
            check,
            full: point.is_none() && fabric.is_none(),
        },
        Vec::new(),
    );
}
