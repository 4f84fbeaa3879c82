//! `serve_open_loop`: the request-facing path — admission, batch close,
//! fused execution, shed ladder — under an open-loop load at fixed rates.
//!
//! The serving timeline is virtual: arrivals sit at generated instants and
//! the clock advances by each batch's *measured* service time, so the
//! generator is never late (lateness is 0 by construction) and the host
//! cost of the serve loop itself does not reach the latency numbers; the
//! `serve.loop_ns_per_request` probe reports that cost separately.

use std::time::Instant;

use fcc_dlrm::DlrmConfig;
use fcc_serve::{
    check_serve_trace, serve, BatchExecutor, BatchPolicy, DegradeLevel, FusedExecutor, LoadPattern,
    LoadSpec, Priority, Request, ServeReport, ServerConfig,
};
use fcc_telemetry::Telemetry;

use crate::harness::{nproc, quantile_sorted, sorted, LayerValues, Outcome, Recorder};
use crate::Args;

pub const PES: usize = 2;
pub const SLICE: usize = 2;
/// Offered rates are constants of the benchmark, never re-derived from a
/// capacity calibrated at run time.
pub const NOMINAL_RPS: f64 = 12_000.0;
pub const OVERLOAD_RPS: f64 = 50_000.0;
pub const SLO_US: u64 = 20_000;
/// Timeline per part for a 10 s run on the reference box, µs.
const NOMINAL_US: u64 = 270_000;
const OVERLOAD_US: u64 = 100_000;

pub fn policy() -> BatchPolicy {
    BatchPolicy {
        target_batch: 32,
        max_wait_us: 2_000,
        close_margin_us: 100,
    }
}

pub fn shape(args: &Args) -> DlrmConfig {
    let mut cfg = DlrmConfig::hw_eval(PES, 128, 8);
    cfg.table_rows = 4096;
    cfg.dim = 64;
    cfg.pooling = 8;
    cfg.seed = args.seed;
    if args.tiny {
        cfg.global_batch = 16;
        cfg.tables_per_pe = 2;
    }
    cfg
}

pub fn server_config(seed: u64) -> ServerConfig {
    ServerConfig::new(8 * policy().target_batch, policy(), seed)
}

fn timeline_us(args: &Args, base: u64) -> u64 {
    if args.tiny {
        base / 40
    } else {
        base * args.seconds / 10
    }
}

/// The two phases' arrivals. Each part of a run draws its own arrival
/// streams from the run's seed.
fn generate(args: &Args) -> (Vec<Request>, Vec<Request>) {
    let spec = |stream: u64, duration_us: u64, pattern| {
        LoadSpec {
            seed: args
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(2 * args.part.unwrap_or(0) + stream),
            rps: NOMINAL_RPS,
            duration_us,
            slo_us: SLO_US,
            pattern,
        }
        .generate()
    };
    let overload_us = timeline_us(args, OVERLOAD_US);
    let crowd = LoadPattern::FlashCrowd {
        at_us: 0,
        len_us: overload_us,
        multiplier: OVERLOAD_RPS / NOMINAL_RPS,
    };
    (
        spec(0, timeline_us(args, NOMINAL_US), LoadPattern::Poisson),
        spec(1, overload_us, crowd),
    )
}

fn calibration_batch() -> Vec<Request> {
    (0..policy().target_batch as u64)
        .map(|id| Request {
            id,
            user: id,
            arrival_us: 0,
            deadline_us: u64::MAX,
            priority: Priority::Normal,
        })
        .collect()
}

/// Runs one phase and audits its event log; returns the report and the
/// number of arrivals that failed the audit (all of them, on a violation).
fn phase(
    rec: &mut Recorder,
    exec: &mut FusedExecutor,
    seed: u64,
    workload: &[Request],
) -> (ServeReport, u64) {
    let (report, _) = rec.time("serve.serve", || {
        serve(server_config(seed), exec, workload, &Telemetry::disabled())
    });
    let sound = match check_serve_trace(&report.events) {
        Ok(stats) => {
            stats.arrivals as usize == workload.len()
                && stats.completed + stats.shed == stats.arrivals
        }
        Err(_) => false,
    };
    let failed = if sound { 0 } else { workload.len() as u64 };
    (report, failed)
}

pub fn run(args: &Args, rec: &mut Recorder, layer: &mut LayerValues) -> Result<Outcome, String> {
    let cfg = shape(args);
    let t0 = Instant::now();
    // FusedExecutor::new builds tables, plans and the world, and runs its
    // own warm-up execution.
    let (mut exec, _) = rec.time("serve.executor_new", || {
        FusedExecutor::new(&cfg, SLICE, Some((0..PES as u32).collect()), args.seed)
    });
    let ((nominal_load, crowd_load), dt) = rec.time("serve.loadgen", || generate(args));
    layer.set("serve.loadgen_s", dt.as_secs_f64());
    // Settle the executor's floor estimate past its cold-start sample.
    let warm = calibration_batch();
    for _ in 0..4 {
        exec.execute(&warm, u64::MAX, DegradeLevel::Normal);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let (nominal, bad_n) = phase(rec, &mut exec, args.seed, &nominal_load);
    let (crowd, bad_o) = phase(rec, &mut exec, args.seed, &crowd_load);

    let service = sorted(
        &nominal
            .batches
            .iter()
            .map(|b| b.service_us as f64)
            .collect::<Vec<_>>(),
    );
    let exec_p50 = quantile_sorted(&service, 0.5);
    let out = Outcome {
        attempted: (nominal_load.len() + crowd_load.len()) as u64,
        failed: bad_n + bad_o,
        setup_s,
        ops_per_s: crowd.goodput_rps(),
        op_p50_us: nominal.latency_quantile_us(0.50) as f64,
        op_p90_us: nominal.latency_quantile_us(0.90) as f64,
        op_p99_us: nominal.latency_quantile_us(0.99) as f64,
        samples: nominal.completed as usize,
        op_sequence_us: Vec::new(),
        // Service times are measured, so nothing here repeats exactly.
        digest: 0,
        notes: vec![
            format!(
                "open loop at fixed rates: nominal {NOMINAL_RPS} rps Poisson x {} us, then overload \
                 {OVERLOAD_RPS} rps flash crowd x {} us; SLO {SLO_US} us; virtual timeline with \
                 measured service times, so generator lateness is 0 by construction",
                timeline_us(args, NOMINAL_US),
                timeline_us(args, OVERLOAD_US),
            ),
            format!(
                "ops_per_s = within-SLO completions per timeline second in the overload phase; \
                 op_p50/p90_us = completed-request latency in the nominal phase; FusedExecutor runs \
                 {PES} PE threads x {} steal worker(s) of its own choosing on {} core(s)",
                nproc().min(8),
                nproc()
            ),
        ],
    };

    layer.set("serve.exec_us_p50", exec_p50);
    layer.set("serve.queue_wait_us_p50", out.op_p50_us - exec_p50);
    layer.set(
        "serve.batch_fill",
        nominal.batches.iter().map(|b| b.size as f64).sum::<f64>()
            / (nominal.batches.len() * policy().target_batch) as f64,
    );
    layer.set(
        "serve.slo_miss_ratio",
        nominal.shed_total() as f64 / nominal_load.len() as f64,
    );
    let both = |f: fn(&ServeReport) -> u64| (f(&nominal) + f(&crowd)) as f64;
    layer.set("serve.batches", both(|r| r.batches.len() as u64));
    layer.set(
        "serve.degrades",
        both(|r| r.degrade_transitions.len() as u64),
    );
    layer.set("serve.rejected", both(|r| r.rejected));
    layer.set("serve.shed_hopeless", both(|r| r.shed_hopeless));
    layer.set("serve.shed_overload", both(|r| r.shed_overload));
    layer.set("serve.shed_late", both(|r| r.shed_late));
    // FusedExecutor sizes its own steal workers to the machine; from
    // outside it can only be recorded, not set.
    layer.set("serve.steal_workers_per_pe", nproc().min(8) as f64);
    Ok(out)
}
