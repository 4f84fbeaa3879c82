//! Skewed-workload scheduler ablation and auto-tuner gate.
//!
//! Prices the static deal, the work-stealing schedule, and the offline
//! LPT oracle on a straggler-skewed design point, runs the online
//! auto-tuner against an exhaustive knob sweep, prints both tables, and
//! writes `BENCH_skew.json` to the results directory.
//!
//! ```text
//! skew [--pes N] [--steal-seed N] [--iters N] [--gate] [--check]
//! ```
//!
//! `--gate` exits non-zero unless stealing's makespan is within 5% of
//! the oracle's and the tuner's best is within 5% of the swept optimum
//! (the ISSUE's acceptance bars). `--check` hands the run to the one
//! gate (`fcc_bench::gate`) instead of writing it: every leaf must equal
//! the committed `BENCH_skew.json` exactly — the harness is a
//! deterministic simulation, so any drift means a code change, and the
//! ranked attribution prints what moved.

use fcc_bench::args::{parse_value, usage_exit};
use fcc_bench::gate::{gate, Mode};
use fcc_bench::report::print_table;
use fcc_bench::skew::run_skew;

const USAGE: &str = "skew [--pes N] [--steal-seed N] [--iters N] [--gate] [--check]";

fn main() {
    let mut pes = 2usize;
    let mut steal_seed = 1u64;
    let mut iters = 10usize;
    let mut hold_bars = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pes" => pes = parse_value(&mut args, "--pes"),
            "--steal-seed" => steal_seed = parse_value(&mut args, "--steal-seed"),
            "--iters" => iters = parse_value(&mut args, "--iters"),
            "--gate" => hold_bars = true,
            "--check" => check = true,
            other => usage_exit(other, USAGE),
        }
    }

    let run = run_skew(pes, steal_seed, iters);

    let rows: Vec<Vec<String>> = run
        .schedules
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.3}", s.makespan_ns as f64 / 1e6),
                format!("{:.3}", s.pe_skew),
                s.steals.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "skew @ {pes} PEs, {:.0}% stragglers x{:.0}, slice {}",
            run.straggler_rate * 100.0,
            run.straggler_factor,
            run.slice_embeddings
        ),
        &["schedule", "ms", "pe skew", "steals"],
        &rows,
    );
    println!(
        "\nstealing vs static: {:.2}x faster; stealing vs oracle: {:.4} (1.0 = matched)",
        run.stealing_speedup(),
        run.stealing_vs_oracle()
    );
    let t = &run.tuner;
    let occ = |o: Option<u32>| o.map_or("none".to_string(), |c| c.to_string());
    print_table(
        &format!(
            "auto-tuner ({} evals) vs offline sweep ({} points)",
            t.evals, t.sweep_points
        ),
        &["", "slice", "qps", "occ cap", "makespan ms"],
        &[
            vec![
                "tuned".to_string(),
                t.tuned.slice_embeddings.to_string(),
                t.tuned.num_qps.to_string(),
                occ(t.tuned.occupancy_cap),
                format!("{:.3}", t.tuned_makespan_ns / 1e6),
            ],
            vec![
                "swept".to_string(),
                t.swept.slice_embeddings.to_string(),
                t.swept.num_qps.to_string(),
                occ(t.swept.occupancy_cap),
                format!("{:.3}", t.swept_makespan_ns / 1e6),
            ],
        ],
    );
    println!(
        "\ntuned vs swept optimum: {:.4} (1.0 = the tuner found it)",
        t.tuned_vs_swept()
    );

    let mut failures = Vec::new();
    if hold_bars {
        let so = run.stealing_vs_oracle();
        if so > 1.05 {
            failures.push(format!("gate: stealing/oracle {so:.4} exceeds 1.05"));
        }
        let ts = t.tuned_vs_swept();
        if ts > 1.05 {
            failures.push(format!("gate: tuned/swept {ts:.4} exceeds 1.05"));
        }
        if run.stealing_speedup() <= 1.0 {
            failures.push(format!(
                "gate: stealing is not faster than static ({:.4}x)",
                run.stealing_speedup()
            ));
        }
        if failures.is_empty() {
            println!("gate: stealing within 5% of oracle, tuner within 5% of sweep");
        }
    }
    gate(
        "BENCH_skew.json",
        &run.artifact(),
        &[],
        Mode { check, full: true },
        failures,
    );
}
