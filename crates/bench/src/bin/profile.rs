//! Overlap-efficiency profiler.
//!
//! Runs every variant (baseline, fused, fused-multiqp, resilient) with
//! telemetry enabled, prints the variant table and the fused run's metric
//! summary, and writes `profile_trace.json` (Perfetto-loadable merged
//! trace) plus `BENCH_baseline.json` to the results directory.
//!
//! ```text
//! profile [--pes N] [--validate] [--floor F] [--tuned] [--iters N]
//! profile --serving [--pes N]
//! ```
//!
//! `--validate` re-checks the merged trace and prints the track list;
//! `--floor F` exits non-zero unless the fused variant's overlap
//! efficiency is at least `F` (the CI `profile-smoke` guard).
//! `--tuned` additionally runs the online auto-tuner on the timed
//! design point (at most `--iters` measured iterations, default 10) and
//! profiles a fifth `fused-tuned` variant at the winning knobs.
//!
//! `--serving` instead drives the serving stack under deliberate
//! overload with a traced executor and writes
//! `profile_serving_trace.json` — one Perfetto trace in which any
//! request (completed or shed) can be followed
//! request → admission → batch → slice PUTs → fabric transfer via flow
//! arrows. Exits non-zero if the merged trace fails validation or any
//! protocol event lacks a causal root.

use fcc_bench::args::{parse_value, usage_exit};
use fcc_bench::gate::{gate, Mode};
use fcc_bench::report::{print_table, write_result};
use fcc_telemetry::render_summary;

fn main() {
    let mut pes = 4usize;
    let mut validate = false;
    let mut floor: Option<f64> = None;
    let mut serving = false;
    let mut tuned = false;
    let mut iters = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pes" => pes = parse_value(&mut args, "--pes"),
            "--validate" => validate = true,
            "--floor" => floor = Some(parse_value(&mut args, "--floor")),
            "--serving" => serving = true,
            "--tuned" => tuned = true,
            "--iters" => iters = parse_value(&mut args, "--iters"),
            other => usage_exit(
                other,
                "profile [--pes N] [--validate] [--floor F] [--tuned] [--iters N] | \
                 profile --serving [--pes N]",
            ),
        }
    }

    if serving {
        run_serving_mode(pes);
        return;
    }

    let run = match fcc_bench::profile::run_profile_with(pes, tuned.then_some(iters)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("merged trace failed validation: {e}");
            std::process::exit(1);
        }
    };

    let rows: Vec<Vec<String>> = run
        .snapshot
        .variants
        .iter()
        .map(|v| {
            vec![
                v.name.clone(),
                format!("{:.3}", v.wall_time_ns as f64 / 1e6),
                v.overlap_efficiency
                    .map_or_else(|| "-".to_string(), |e| format!("{e:.3}")),
                v.bytes_on_wire.to_string(),
                v.messages.to_string(),
                v.retries.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("profile @ {pes} PEs"),
        &["variant", "ms", "overlap", "wire bytes", "msgs", "retries"],
        &rows,
    );

    if tuned {
        let metric = |name: &str| {
            run.snapshot
                .metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
        };
        let occ = metric("tuner.occupancy_cap").unwrap_or(-1.0);
        println!(
            "\ntuned knobs ({} evals): slice {}, {} QPs, occupancy cap {}",
            metric("tuner.evals").unwrap_or(0.0),
            metric("tuner.slice").unwrap_or(0.0),
            metric("tuner.qps").unwrap_or(0.0),
            if occ < 0.0 {
                "none".to_string()
            } else {
                format!("{occ}")
            }
        );
    }

    println!("\n== fused metrics ==");
    print!("{}", render_summary(&run.metrics));

    if validate {
        println!(
            "\ntrace: {} events, {} spans, {} tracks",
            run.check.events,
            run.check.spans,
            run.check.tracks.len()
        );
        for t in &run.check.tracks {
            println!("  {t}");
        }
    }

    write_result("profile_trace.json", &run.trace_json);

    let mut failures = Vec::new();
    if let Some(floor) = floor {
        let eff = run.fused_efficiency().unwrap_or(0.0);
        if eff < floor {
            failures.push(format!(
                "fused overlap efficiency {eff:.3} is below the floor {floor:.3}"
            ));
        } else {
            println!("fused overlap efficiency {eff:.3} >= floor {floor:.3}");
        }
    }
    gate(
        &run.snapshot.file_name(),
        &run.snapshot.artifact(),
        &[],
        Mode::PLAIN,
        failures,
    );
}

fn run_serving_mode(pes: usize) {
    let run = match fcc_bench::profile::run_serving_profile(pes) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("merged serving trace failed validation: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serving profile @ {pes} PEs: {} completed, {} shed, {} batches",
        run.completed, run.shed, run.batches
    );
    println!(
        "causal coverage: {} protocol events attributed, {} orphans",
        run.attributed_events, run.orphan_events
    );
    println!(
        "trace: {} events, {} spans, {} flows, {} counter samples, {} tracks",
        run.check.events,
        run.check.spans,
        run.check.flows,
        run.check.counters,
        run.check.tracks.len()
    );
    write_result("profile_serving_trace.json", &run.trace_json);
    if run.orphan_events > 0 {
        eprintln!(
            "{} protocol event(s) carry no causal root — every PUT must \
             trace back to a serving batch",
            run.orphan_events
        );
        std::process::exit(1);
    }
}
