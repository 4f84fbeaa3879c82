//! Data-plane throughput harness — and, with `--serving`, the serving
//! latency-under-load harness.
//!
//! Default mode measures operator executions/sec and network PUTs/sec
//! for the fused functional operator over the delivery rings (plus the
//! same operator on an all-P2P world, `zerocopy`), prints the table, and writes
//! `BENCH_throughput.json` to the results directory.
//!
//! ```text
//! throughput [--pes N] [--slice W] [--execs N] [--check] [--integrity]
//! throughput --serving [--pes N] [--duration-ms N] [--slo-ms N] [--seed N]
//!            [--slo-gate] [--shed-ceiling F]
//! ```
//!
//! `--check` hands the run to the one gate (`fcc_bench::gate`) against
//! the committed `BENCH_throughput.json`: the shape and every PUT count
//! must match exactly, the ring plane's PUTs/sec must hold the 0.2x
//! smoke floor (the CI `profile-smoke` guard; wide enough for a shared
//! runner), and nothing is written — only a plain run writes. The gated
//! `fused-ring` variant always runs with integrity *disabled* — that is
//! the zero-cost contract the check holds — while `--integrity` adds a
//! third `fused-ring-integrity` variant measuring the armed checksum
//! layer's price (a plain-run study: the committed artifact holds two
//! variants, so `--check` rejects the third).
//!
//! `--serving` instead drives the request frontend (`fcc-serve`) with
//! real fused executions through the Poisson load curve, a diurnal
//! swing, and the 2× flash crowd, writing `BENCH_serving.json`.
//! `--slo-gate` exits non-zero if any scenario completed nothing or
//! reported a completed-request p99 above the SLO; `--shed-ceiling F`
//! exits non-zero if the sub-capacity Poisson points or the flash
//! crowd's *nominal phase* shed more than fraction `F` — overload may
//! shed, nominal load must not.

use fcc_bench::args::{parse_value, usage_exit};
use fcc_bench::gate::{gate, Mode};
use fcc_bench::report::print_table;
use fcc_bench::{serving, throughput};
use fcc_telemetry::alloc_count::{allocs_during, CountingAlloc};
use fcc_telemetry::{FlightKind, FlightRecorder, TraceCtx};

const USAGE: &str = "throughput [--pes N] [--slice W] [--execs N] [--check] \
                     [--integrity] [--flight-alloc-check] | throughput --serving \
                     [--pes N] [--duration-ms N] [--slo-ms N] [--seed N] [--slo-gate] \
                     [--shed-ceiling F]";

/// Counting allocator backing `--flight-alloc-check` (the test-suite
/// version of the check lives in crates/telemetry/tests/recorder_alloc.rs).
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Asserts the flight recorder's allocation contract before the gated
/// throughput run: the disabled recorder is zero-cost on the hot path,
/// the enabled one allocation-free in steady state (overwrites included).
fn flight_alloc_check() {
    let burst = |r: &FlightRecorder, n: u64| {
        let records = || {
            for i in 0..n {
                r.record(
                    FlightKind::NetPut,
                    TraceCtx::step(1).with_slice(i),
                    i % 4,
                    64,
                );
            }
        };
        allocs_during(records).0
    };
    let disabled = FlightRecorder::disabled();
    let d = burst(&disabled, 10_000);
    assert_eq!(d, 0, "disabled flight recorder allocated {d} times");
    assert_eq!(disabled.recorded(), 0, "disabled recorder retained events");
    let enabled = FlightRecorder::enabled(256);
    burst(&enabled, 512); // warm-up lap
    let e = burst(&enabled, 10_000);
    assert_eq!(
        e, 0,
        "enabled flight recorder allocated {e} times in steady state"
    );
    println!("flight-alloc-check: disabled zero-cost, enabled allocation-free (10k records)");
}

fn main() {
    let mut pes = 4usize;
    let mut slice = 4usize;
    let mut execs = 12u64;
    let mut check = false;
    let mut integrity = false;
    let mut serving = false;
    let mut duration_ms = 200u64;
    let mut slo_ms = 10u64;
    let mut seed = 42u64;
    let mut slo_gate = false;
    let mut shed_ceiling: Option<f64> = None;
    let mut do_flight_alloc_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flight-alloc-check" => do_flight_alloc_check = true,
            "--pes" => pes = parse_value(&mut args, "--pes"),
            "--slice" => slice = parse_value(&mut args, "--slice"),
            "--execs" => execs = parse_value(&mut args, "--execs"),
            "--check" => check = true,
            "--integrity" => integrity = true,
            "--serving" => serving = true,
            "--duration-ms" => duration_ms = parse_value(&mut args, "--duration-ms"),
            "--slo-ms" => slo_ms = parse_value(&mut args, "--slo-ms"),
            "--seed" => seed = parse_value(&mut args, "--seed"),
            "--slo-gate" => slo_gate = true,
            "--shed-ceiling" => shed_ceiling = Some(parse_value(&mut args, "--shed-ceiling")),
            other => usage_exit(other, USAGE),
        }
    }

    if do_flight_alloc_check {
        flight_alloc_check();
    }

    if serving {
        run_serving_mode(pes, duration_ms, slo_ms, seed, slo_gate, shed_ceiling);
        return;
    }

    let run = throughput::run_throughput_with(pes, slice, execs, integrity);

    let rows: Vec<Vec<String>> = run
        .variants
        .iter()
        .map(|v| {
            vec![
                v.name.clone(),
                format!("{:.3}", v.wall_ns as f64 / 1e6),
                format!("{:.1}", v.ops_per_sec),
                v.network_puts_per_exec.to_string(),
                format!("{:.0}", v.puts_per_sec),
                v.ring.full_spins.to_string(),
                v.scratch_misses.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("throughput @ {pes} PEs, slice {slice}, {execs} execs"),
        &[
            "variant",
            "ms",
            "ops/s",
            "puts/exec",
            "puts/s",
            "full spins",
            "alloc misses",
        ],
        &rows,
    );

    gate(
        "BENCH_throughput.json",
        &run.artifact(),
        throughput::RULES,
        Mode { check, full: true },
        Vec::new(),
    );
}

fn run_serving_mode(
    pes: usize,
    duration_ms: u64,
    slo_ms: u64,
    seed: u64,
    slo_gate: bool,
    shed_ceiling: Option<f64>,
) {
    let slo_us = slo_ms * 1000;
    let run = serving::run_serving(pes, duration_ms * 1000, slo_us, seed);

    let rows: Vec<Vec<String>> = run
        .points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                format!("{:.0}", p.rps),
                p.requests.to_string(),
                p.completed.to_string(),
                format!("{:.1}%", p.shed_rate * 100.0),
                format!("{:.1}%", p.nominal_shed_rate * 100.0),
                p.p50_us.to_string(),
                p.p99_us.to_string(),
                p.p999_us.to_string(),
                p.batches.to_string(),
                p.degrades.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "serving @ {pes} PEs, {duration_ms}ms/scenario, SLO {slo_ms}ms, \
             floor {}us, capacity {:.0} rps",
            run.floor_us, run.capacity_rps
        ),
        &[
            "scenario",
            "rps",
            "reqs",
            "done",
            "shed",
            "nominal shed",
            "p50us",
            "p99us",
            "p999us",
            "batches",
            "degrades",
        ],
        &rows,
    );

    let mut failures = Vec::new();
    if slo_gate {
        for p in &run.points {
            if p.completed == 0 {
                failures.push(format!("SLO gate: scenario {} completed nothing", p.name));
            } else if p.p99_us > slo_us {
                failures.push(format!(
                    "SLO gate: scenario {} p99 {}us exceeds the SLO {}us",
                    p.name, p.p99_us, slo_us
                ));
            }
        }
        if failures.is_empty() {
            println!("SLO gate: every scenario's completed p99 within {slo_us}us");
        }
    }
    if let Some(ceiling) = shed_ceiling {
        // Overload points are allowed (expected) to shed; the ceiling
        // holds where the system is not overloaded: sub-capacity Poisson
        // points and the flash crowd's nominal phase.
        for p in &run.points {
            let gated = p.name.starts_with("poisson") && p.load_frac < 1.0;
            if gated && p.shed_rate > ceiling {
                failures.push(format!(
                    "shed ceiling: {} shed {:.2}% > {:.2}% at {:.2}x load",
                    p.name,
                    p.shed_rate * 100.0,
                    ceiling * 100.0,
                    p.load_frac
                ));
            }
        }
        if let Some(p) = run.point("flash-crowd-2x") {
            if p.nominal_shed_rate > ceiling {
                failures.push(format!(
                    "shed ceiling: flash-crowd nominal phase shed {:.2}% > {:.2}%",
                    p.nominal_shed_rate * 100.0,
                    ceiling * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "shed ceiling: nominal-phase shed rates within {:.2}%",
                ceiling * 100.0
            );
        }
    }
    gate(
        "BENCH_serving.json",
        &run.artifact(),
        serving::RULES,
        Mode::PLAIN,
        failures,
    );
}
