//! The repo's yardstick.
//!
//! ```text
//! fcc-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!               [--scale tiny] [--trace-out <file>]
//! fcc-benchmark --agree <setA> <setB>
//! fcc-benchmark --list
//! ```
//!
//! Every layer is measured from outside — by timing calls into its public
//! functions and reading its public counters.
//!
//! `--trace 0` reports the end-to-end metrics. The run is split into
//! *parts*: each part is a child process that sets the workload up from
//! scratch, times one segment of fixed work and checks its outputs. On the
//! reference box a process lands in a fast or a slow regime for its whole
//! life (same code, same inputs, up to 30 % apart), so one process cannot
//! give a steady number however long it runs; several can.
//!
//! `--trace 1` runs one part twice in this process — plain, then under the
//! driver-side span recorder — runs the layer probes and reports the
//! per-layer metrics. README.md explains every name.

mod agree;
mod fabric;
mod fused;
mod harness;
mod probes;
mod serving;
mod sim_sweep;

use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::Value;

use harness::{
    median, quartiles, LayerValues, Outcome, Recorder, END_TO_END, PER_LAYER, SPAN_LAYERS,
};

pub const WORKLOADS: [&str; 6] = [
    "fused_small_slice",
    "fused_pool_heavy",
    "sim_design_sweep",
    "fabric_uniform",
    "fabric_skewed",
    "serve_open_loop",
];

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Run length: every workload does fixed work, sized so that all its
    /// parts together take about this long on the reference box.
    pub seconds: u64,
    pub trace: bool,
    /// `--scale tiny`: shapes shrunk for the smoke test; not a yardstick.
    pub tiny: bool,
    pub trace_out: Option<String>,
    /// Set in a child process: which part of the run this is.
    pub part: Option<u64>,
}

const USAGE: &str = "usage: fcc-benchmark --workload <name> --seed <u64> --seconds <1..60> \
                     --trace <0|1> [--scale tiny] [--trace-out <file>]\n       \
                     fcc-benchmark --agree <setA> <setB>\n       fcc-benchmark --list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        tiny: false,
        trace_out: None,
        part: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--trace-out" => args.trace_out = Some(value.clone()),
            "--scale" if value == "tiny" => args.tiny = true,
            "--part" => args.part = Some(number()?),
            _ => return Err(format!("unknown argument {flag} {value}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?}\n{USAGE}",
            args.workload
        ));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

/// Parts per run. The simulator and fabric parts are one full pass each,
/// so their count follows the run length; the others fix the count and
/// scale the work per part.
fn parts(args: &Args) -> u64 {
    match args.workload.as_str() {
        _ if args.tiny => 2,
        "sim_design_sweep" => (args.seconds * 3 / 10).max(2),
        "fabric_uniform" | "fabric_skewed" => (args.seconds * 8 / 10).max(2),
        _ => 24,
    }
}

fn run_part(args: &Args, rec: &mut Recorder, layer: &mut LayerValues) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "fused_small_slice" => fused::run(&fused::SMALL_SLICE, args, rec, layer),
        "fused_pool_heavy" => fused::run(&fused::POOL_HEAVY, args, rec, layer),
        "sim_design_sweep" => sim_sweep::run(args, rec, layer),
        "fabric_uniform" => fabric::run(fabric::Traffic::Uniform, args, rec, layer),
        "fabric_skewed" => fabric::run(fabric::Traffic::Skewed, args, rec, layer),
        "serve_open_loop" => serving::run(args, rec, layer),
        other => unreachable!("parse_args admitted {other}"),
    }
}

// ---------------------------------------------------------------------
// A part: child side and parent side of one line of JSON
// ---------------------------------------------------------------------

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Child: run one part and print it as one line for the parent.
fn part_main(args: &Args) -> Result<bool, String> {
    let mut layer = LayerValues::default();
    let out = run_part(args, &mut Recorder::new(false), &mut layer)?;
    let notes: Vec<String> = out.notes.iter().map(|n| json_string(n)).collect();
    let sequence: Vec<String> = out.op_sequence_us.iter().map(f64::to_string).collect();
    // The digest travels as a string: a u64 does not fit an f64.
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"setup_s\": {}, \"ops_per_s\": {}, \"op_p50_us\": {}, \
         \"op_p90_us\": {}, \"op_p99_us\": {}, \"samples\": {}, \"digest\": \"{}\", \"peak_rss_mb\": {}, \"op_sequence_us\": [{}], \
         \"notes\": [{}]}}",
        out.attempted,
        out.failed,
        out.setup_s,
        out.ops_per_s,
        out.op_p50_us,
        out.op_p90_us,
        out.op_p99_us,
        out.samples,
        out.digest,
        harness::peak_rss_mb(),
        sequence.join(", "),
        notes.join(", ")
    );
    Ok(true)
}

struct Part {
    outcome: Outcome,
    peak_rss_mb: f64,
}

/// Parent: run one part as a child process and read its line back.
fn spawn_part(args: &Args, part: u64) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .args(["--part", &part.to_string()]);
    if args.tiny {
        cmd.args(["--scale", "tiny"]);
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("part {part}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "part {part} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or("");
    let v =
        serde_json::from_str(line).map_err(|e| format!("part {part} printed {line:?}: {e:?}"))?;
    let number = |k: &str| {
        v[k].as_f64()
            .ok_or_else(|| format!("part {part}: no number for {k}"))
    };
    let digest = v["digest"]
        .as_str()
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| format!("part {part}: no digest"))?;
    let notes = v["notes"].as_array().map_or(Vec::new(), |a| {
        a.iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect()
    });
    Ok(Part {
        outcome: Outcome {
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            setup_s: number("setup_s")?,
            ops_per_s: number("ops_per_s")?,
            op_p50_us: number("op_p50_us")?,
            op_p90_us: number("op_p90_us")?,
            op_p99_us: number("op_p99_us")?,
            samples: number("samples")? as usize,
            op_sequence_us: v["op_sequence_us"]
                .as_array()
                .map_or(Vec::new(), |a| a.iter().filter_map(Value::as_f64).collect()),
            digest,
            notes,
        },
        peak_rss_mb: number("peak_rss_mb")?,
    })
}

/// The quartile of `values` on the better side, kept inside the sample.
/// Interference on the reference box only ever slows a part down, so the
/// better quartile estimates what the program costs and the median what
/// the box happened to do; both are printed, the quartile is the metric.
fn better_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    let (q1, q3) = quartiles(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if lower_is_better { q1 } else { q3 }.clamp(lo, hi)
}

fn cells(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    cells.join(" ")
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(args: &Args) -> Result<(Metrics, u64, u64), String> {
    let parts: Vec<Part> = (0..parts(args))
        .map(|part| spawn_part(args, part))
        .collect::<Result<_, _>>()?;
    for note in &parts[0].outcome.notes {
        println!("# {note}");
    }
    println!(
        "# {} parts, one process each; {} latency samples per part; a timing metric is the best \
         time per point across parts (batch workloads) or the better quartile across parts, setup_s \
         their median, peak_rss_mb their maximum",
        parts.len(),
        parts[0].outcome.samples
    );

    let column =
        |f: fn(&Outcome) -> f64| -> Vec<f64> { parts.iter().map(|p| f(&p.outcome)).collect() };
    let setup = column(|o| o.setup_s);
    let ops = column(|o| o.ops_per_s);
    let p50 = column(|o| o.op_p50_us);
    let p90 = column(|o| o.op_p90_us);
    let rss: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    // Batch workloads price the same sequence of points in every part:
    // there the best time per point across parts makes one composite pass.
    // Elsewhere a timing metric is the better quartile across parts.
    let points = parts[0].outcome.op_sequence_us.len();
    let timing = if points > 0
        && parts
            .iter()
            .all(|p| p.outcome.op_sequence_us.len() == points)
    {
        let best: Vec<f64> = (0..points)
            .map(|i| {
                parts
                    .iter()
                    .map(|p| p.outcome.op_sequence_us[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let pass = Outcome::from_latencies(0.0, &best);
        [pass.ops_per_s, pass.op_p50_us, pass.op_p90_us]
    } else {
        [
            better_quartile(&ops, false),
            better_quartile(&p50, true),
            better_quartile(&p90, true),
        ]
    };
    let values = [
        median(&setup),
        timing[0],
        timing[1],
        timing[2],
        rss.iter().copied().fold(0.0, f64::max),
    ];
    for (((name, unit), value), column) in END_TO_END
        .iter()
        .zip(values)
        .zip([&setup, &ops, &p50, &p90, &rss])
    {
        println!(
            "{name} {value} {unit}  (median {:.6}; per part: {})",
            median(column),
            cells(column)
        );
    }

    let attempted: u64 = parts.iter().map(|p| p.outcome.attempted).sum();
    let mut failed: u64 = parts.iter().map(|p| p.outcome.failed).sum();
    // Parts of one run share a seed: what must repeat exactly, must agree.
    if parts
        .iter()
        .any(|p| p.outcome.digest != parts[0].outcome.digest)
    {
        println!("# exact results differ between parts of one seed");
        failed += attempted;
    }
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Ok((metrics, attempted, failed))
}

fn per_layer(args: &Args) -> Result<(Metrics, u64, u64), String> {
    // A part is short; where work scales with the run length, each pass
    // here does a few parts' worth so the per-layer numbers rest on more
    // than a few dozen operations.
    let work = Args {
        seconds: (args.seconds * 3).min(60),
        ..args.clone()
    };
    let mut layer = LayerValues::default();
    let cpu_before = harness::cpu_s();
    let started = Instant::now();
    let plain = run_part(&work, &mut Recorder::new(false), &mut layer)?;
    let plain_wall = started.elapsed();
    for note in &plain.notes {
        println!("# {note}");
    }

    let mut rec = Recorder::new(true);
    let root = rec.open("driver.run");
    let started = Instant::now();
    let traced = run_part(&work, &mut rec, &mut layer)?;
    layer.set(
        "trace_overhead_ratio",
        started.elapsed().as_secs_f64() / plain_wall.as_secs_f64(),
    );
    let probed = probes::run(&work, &mut rec, &mut layer)?;
    rec.close(root);

    let (by_layer, wall_s) = rec.self_times();
    layer.set("driver.wall_s", wall_s);
    layer.set(
        "driver.span_coverage_ratio",
        by_layer.values().sum::<f64>() / wall_s,
    );
    for &(name, metric) in SPAN_LAYERS {
        layer.set(metric, by_layer.get(name).copied().unwrap_or(0.0));
    }
    layer.set("host.cpu_s", harness::cpu_s() - cpu_before);
    layer.set("op_p99_us", plain.op_p99_us);
    let json = rec.chrome_trace()?;
    println!(
        "# traced pass: {} spans, Chrome trace {} bytes, accepted by check_chrome_trace",
        rec.span_count(),
        json.len()
    );
    if let Some(path) = &args.trace_out {
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("# trace written to {path}");
    }

    let mut failed = plain.failed + traced.failed + probed.1;
    if plain.digest != traced.digest {
        println!("# exact results differ between the plain and the traced pass");
        failed += traced.attempted;
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layer.get(name);
            println!("{name} {v} {unit}");
            (name, v, unit)
        })
        .collect();
    Ok((
        metrics,
        plain.attempted + traced.attempted + probed.0,
        failed,
    ))
}

fn run(args: &Args) -> Result<bool, String> {
    println!(
        "# fcc-benchmark workload={} seed={} seconds={} trace={} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.tiny { "tiny" } else { "full" }
    );
    println!(
        "# host nproc={} llc={} toolchain=\"{}\" commit={}",
        harness::nproc(),
        harness::llc_size(),
        harness::toolchain(),
        harness::commit()
    );
    let (metrics, attempted, failed) = if args.trace {
        per_layer(args)?
    } else {
        end_to_end(args)?
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} = {v} is not a finite number"));
    }
    println!(
        "fail_ratio {} ratio  ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    // The record carries the verdict; the exit code says it was written.
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--list") => {
            WORKLOADS.iter().for_each(|w| println!("{w}"));
            Ok(true)
        }
        Some("--agree") if argv.len() == 3 => agree::run(&argv[1], &argv[2]),
        _ => parse_args(&argv).and_then(|args| {
            if args.part.is_some() {
                part_main(&args)
            } else {
                run(&args)
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("fcc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
