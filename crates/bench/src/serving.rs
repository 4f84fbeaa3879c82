//! Serving latency-under-load harness behind `throughput --serving`.
//!
//! Drives the `fcc-serve` frontend with real fused executions (a
//! [`FusedExecutor`] over a threaded `ShmemWorld`, so service times are
//! measured wall time) across an open-loop load sweep:
//!
//! * a **Poisson curve** at fractions of the measured capacity — the
//!   latency-under-load curve, where p99/p999 stay flat until the knee
//!   and the ladder sheds instead of collapsing past it;
//! * a **diurnal** day/night swing;
//! * a **2× flash crowd** — the overload gate scenario: the burst runs at
//!   twice the nominal rate, and the harness splits shed rates into the
//!   burst phase (expected to shed) and the nominal phase (held to a
//!   ceiling by CI).
//!
//! Every scenario's event log is audited with [`check_serve_trace`]
//! before any number is reported — a result that violated
//! exactly-one-outcome is a crash, not a data point. The artifact lands
//! in `results/BENCH_serving.json`.

use fcc_dlrm::DlrmConfig;
use fcc_serve::{
    check_serve_trace, serve, BatchExecutor, BatchPolicy, DegradeLevel, FusedExecutor, LoadPattern,
    LoadSpec, Priority, Request, ServeReport, ServerConfig,
};
use fcc_telemetry::artifact::{field, Artifact, Point, Value};
use fcc_telemetry::Telemetry;

use crate::gate::{Rule, Rules};

/// One scenario's outcome counts and latency tail.
#[derive(Debug, Clone)]
pub struct ServingPoint {
    /// Scenario name, e.g. `poisson-0.50x` or `flash-crowd-2x`.
    pub name: String,
    /// Offered load as a fraction of measured capacity.
    pub load_frac: f64,
    /// Offered base rate, requests/sec.
    pub rps: f64,
    /// Generated arrivals.
    pub requests: usize,
    /// Admitted past the queue bound.
    pub admitted: u64,
    /// Completed within deadline.
    pub completed: u64,
    /// Shed at arrival (queue full).
    pub rejected: u64,
    /// Shed at close (budget below floor).
    pub shed_hopeless: u64,
    /// Shed under saturation (priority ladder).
    pub shed_overload: u64,
    /// Completed too late, converted to shed.
    pub shed_late: u64,
    /// Sheds over arrivals, all phases.
    pub shed_rate: f64,
    /// Sheds over arrivals in the nominal (non-burst) phase; equals
    /// `shed_rate` for scenarios without a burst window.
    pub nominal_shed_rate: f64,
    /// Median completed latency, µs.
    pub p50_us: u64,
    /// 99th-percentile completed latency, µs.
    pub p99_us: u64,
    /// 99.9th-percentile completed latency, µs.
    pub p999_us: u64,
    /// Completed requests per second of timeline.
    pub goodput_rps: f64,
    /// Batches executed.
    pub batches: usize,
    /// Degrade-ladder transitions taken.
    pub degrades: usize,
}

/// A full serving sweep at one design point.
#[derive(Debug, Clone)]
pub struct ServingRun {
    /// Endpoints in the world under the executor.
    pub pes: usize,
    /// Per-request SLO budget, µs.
    pub slo_us: u64,
    /// Workload seed.
    pub seed: u64,
    /// Calibrated execution floor, µs.
    pub floor_us: u64,
    /// Estimated capacity (`target_batch / floor`), requests/sec.
    pub capacity_rps: f64,
    /// Scenario results.
    pub points: Vec<ServingPoint>,
}

impl ServingRun {
    /// A point by name.
    pub fn point(&self, name: &str) -> Option<&ServingPoint> {
        self.points.iter().find(|p| p.name == name)
    }

    /// The `BENCH_serving.json` record: one point per scenario.
    pub fn artifact(&self) -> Artifact {
        let points = self
            .points
            .iter()
            .map(|p| {
                Point::new(
                    p.name.as_str(),
                    vec![
                        field("load_frac", Value::Fixed(p.load_frac, 3)),
                        field("rps", Value::Fixed(p.rps, 3)),
                        field("requests", p.requests),
                        field("admitted", p.admitted),
                        field("completed", p.completed),
                        field("rejected", p.rejected),
                        field("shed_hopeless", p.shed_hopeless),
                        field("shed_overload", p.shed_overload),
                        field("shed_late", p.shed_late),
                        field("shed_rate", Value::Fixed(p.shed_rate, 5)),
                        field("nominal_shed_rate", Value::Fixed(p.nominal_shed_rate, 5)),
                        field("p50_us", p.p50_us),
                        field("p99_us", p.p99_us),
                        field("p999_us", p.p999_us),
                        field("goodput_rps", Value::Fixed(p.goodput_rps, 3)),
                        field("batches", p.batches),
                        field("degrades", p.degrades),
                    ],
                )
            })
            .collect();
        Artifact {
            name: "serving".to_string(),
            fields: vec![
                field("pes", self.pes),
                field("slo_us", self.slo_us),
                field("seed", self.seed),
                field("floor_us", self.floor_us),
                field("capacity_rps", Value::Fixed(self.capacity_rps, 3)),
            ],
            points,
        }
    }
}

/// Gate rules for `BENCH_serving.json`: service times are real
/// executions, so the calibrated floor and everything sized from it or
/// measured against it — offered rates, outcome counts, shed rates, the
/// latency tail — is wall-clock. Only the shape (`pes`, `slo_us`,
/// `seed`, `load_frac`) is deterministic.
pub const RULES: &Rules = &[
    ("floor_us", Rule::Ungated),
    ("capacity_rps", Rule::Ungated),
    ("rps", Rule::Ungated),
    ("requests", Rule::Ungated),
    ("admitted", Rule::Ungated),
    ("completed", Rule::Ungated),
    ("rejected", Rule::Ungated),
    ("shed_hopeless", Rule::Ungated),
    ("shed_overload", Rule::Ungated),
    ("shed_late", Rule::Ungated),
    ("shed_rate", Rule::Ungated),
    ("nominal_shed_rate", Rule::Ungated),
    ("p50_us", Rule::Ungated),
    ("p99_us", Rule::Ungated),
    ("p999_us", Rule::Ungated),
    ("goodput_rps", Rule::Ungated),
    ("batches", Rule::Ungated),
    ("degrades", Rule::Ungated),
];

/// The serving design point: a deliberately small operator shape so one
/// fused execution is short enough for thousands of batch closes to fit a
/// CI smoke budget.
pub fn serving_point(pes: usize) -> DlrmConfig {
    let mut cfg = DlrmConfig::hw_eval(pes, 4 * pes, 2);
    cfg.table_rows = 64;
    cfg.dim = 16;
    cfg.pooling = 4;
    cfg
}

/// The batch policy every scenario runs under.
pub fn serving_policy() -> BatchPolicy {
    BatchPolicy {
        target_batch: 32,
        max_wait_us: 2_000,
        close_margin_us: 100,
    }
}

fn calibration_batch(n: usize) -> Vec<Request> {
    (0..n as u64)
        .map(|id| Request {
            id,
            user: id,
            arrival_us: 0,
            deadline_us: u64::MAX,
            priority: Priority::Normal,
        })
        .collect()
}

fn summarize(
    name: &str,
    load_frac: f64,
    spec: &LoadSpec,
    workload: &[Request],
    report: &ServeReport,
) -> ServingPoint {
    // A result that broke exactly-one-outcome is not a data point.
    let stats = check_serve_trace(&report.events)
        .unwrap_or_else(|v| panic!("scenario {name} violated the serve trace: {v:?}"));
    assert_eq!(stats.arrivals as usize, workload.len());

    // Nominal-phase shed rate: arrivals outside the burst window (plus a
    // drain slack of 4 SLOs after it, while the backlog clears) that were
    // shed. Without a burst, the nominal phase is the whole run.
    let nominal = |arrival_us: u64| match spec.pattern {
        LoadPattern::FlashCrowd { at_us, len_us, .. } => {
            arrival_us < at_us || arrival_us >= at_us + len_us + 4 * spec.slo_us
        }
        _ => true,
    };
    let arrival_of: std::collections::BTreeMap<u64, u64> =
        workload.iter().map(|r| (r.id, r.arrival_us)).collect();
    let mut nominal_arrivals = 0u64;
    let mut nominal_sheds = 0u64;
    for resp in &report.responses {
        let at = arrival_of[&resp.id];
        if nominal(at) {
            nominal_arrivals += 1;
            if matches!(resp.outcome, fcc_serve::Outcome::Shed { .. }) {
                nominal_sheds += 1;
            }
        }
    }

    let arrivals = workload.len().max(1) as f64;
    ServingPoint {
        name: name.to_string(),
        load_frac,
        rps: spec.rps,
        requests: workload.len(),
        admitted: report.admitted,
        completed: report.completed,
        rejected: report.rejected,
        shed_hopeless: report.shed_hopeless,
        shed_overload: report.shed_overload,
        shed_late: report.shed_late,
        shed_rate: report.shed_total() as f64 / arrivals,
        nominal_shed_rate: nominal_sheds as f64 / nominal_arrivals.max(1) as f64,
        p50_us: report.p50_us(),
        p99_us: report.p99_us(),
        p999_us: report.p999_us(),
        goodput_rps: report.goodput_rps(),
        batches: report.batches.len(),
        degrades: report.degrade_transitions.len(),
    }
}

/// Runs the full sweep: the Poisson load curve, a diurnal swing, and the
/// 2× flash crowd, all against one real fused executor.
///
/// `duration_us` is the virtual horizon per scenario; wall time is of the
/// same order (service times are real). `slo_us` is the per-request
/// budget.
pub fn run_serving(pes: usize, duration_us: u64, slo_us: u64, seed: u64) -> ServingRun {
    assert!(pes >= 2, "serving harness needs at least 2 PEs");
    let cfg = serving_point(pes);
    let policy = serving_policy();
    let mut executor = FusedExecutor::new(&cfg, 2, Some((0..pes as u32).collect()), seed);

    // Settle the EWMA floor past the cold-start measurement before using
    // it to size the load sweep.
    let warm = calibration_batch(policy.target_batch);
    for _ in 0..4 {
        executor.execute(&warm, u64::MAX, DegradeLevel::Normal);
    }
    let floor_us = executor.floor_us();
    let capacity_rps = policy.target_batch as f64 * 1e6 / floor_us as f64;

    let mut points = Vec::new();
    let scenario = |name: &str, load_frac: f64, pattern: LoadPattern, ex: &mut FusedExecutor| {
        let spec = LoadSpec {
            seed,
            rps: capacity_rps * load_frac,
            duration_us,
            slo_us,
            pattern,
        };
        let workload = spec.generate();
        let report = serve(
            ServerConfig::new(8 * policy.target_batch, policy, seed),
            ex,
            &workload,
            &Telemetry::disabled(),
        );
        summarize(name, load_frac, &spec, &workload, &report)
    };

    // The latency-under-load curve: flat tail below the knee, shed-not-
    // collapse above it.
    for load_frac in [0.25, 0.5, 1.0, 2.0] {
        let name = format!("poisson-{load_frac:.2}x");
        points.push(scenario(
            &name,
            load_frac,
            LoadPattern::Poisson,
            &mut executor,
        ));
    }
    points.push(scenario(
        "diurnal",
        0.5,
        LoadPattern::Diurnal {
            period_us: duration_us,
            depth: 0.6,
        },
        &mut executor,
    ));
    // The gate scenario: nominal at half capacity, burst at 2× nominal
    // over the middle half of the horizon.
    points.push(scenario(
        "flash-crowd-2x",
        0.5,
        LoadPattern::FlashCrowd {
            at_us: duration_us / 4,
            len_us: duration_us / 2,
            multiplier: 2.0,
        },
        &mut executor,
    ));

    ServingRun {
        pes,
        slo_us,
        seed,
        floor_us,
        capacity_rps,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run() -> ServingRun {
        run_serving(2, 40_000, 10_000, 7)
    }

    #[test]
    fn sweep_covers_curve_and_burst_scenarios() {
        let run = quick_run();
        assert_eq!(run.points.len(), 6);
        assert!(run.point("poisson-0.25x").is_some());
        assert!(run.point("flash-crowd-2x").is_some());
        assert!(run.floor_us >= 1);
        assert!(run.capacity_rps > 0.0);
        for p in &run.points {
            // summarize() already enforced the trace invariants; counts
            // must tie out per scenario.
            let answered =
                p.completed + p.rejected + p.shed_hopeless + p.shed_overload + p.shed_late;
            assert_eq!(answered as usize, p.requests, "{}", p.name);
            // Completions are within-deadline by construction.
            assert!(p.p99_us <= run.slo_us, "{}: p99 {}", p.name, p.p99_us);
        }
    }

    #[test]
    fn artifact_round_trips() {
        let run = quick_run();
        let leaves = crate::gate::assert_round_trips(&run.artifact());
        assert_eq!(leaves.len(), 5 + 6 * 17);
        assert!(leaves["capacity_rps"] > 0.0);
        assert!(leaves.contains_key("points.poisson-0.25x.p99_us"));
    }
}
