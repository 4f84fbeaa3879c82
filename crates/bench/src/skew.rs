//! Skewed-workload ablation harness behind `--bin skew`.
//!
//! The paper's persistent kernel deals logical WGs onto resident slots
//! statically, which is optimal only when every task costs the same. This
//! harness prices the three schedulers the timed simulator models on a
//! deliberately skewed design point (a straggler fraction of logical WGs
//! inflated several-fold, the shape GPU scheduling jitter and uneven
//! embedding bags produce):
//!
//! * **`static`** — the paper's round-robin deal; stragglers strand work
//!   behind a busy slot while its siblings idle;
//! * **`stealing`** — the runtime's Chase–Lev schedule: a drained slot
//!   robs the tail of a seeded victim's queue (comm-aware priority order
//!   preserved at the head);
//! * **`oracle`** — offline LPT list scheduling with perfect knowledge of
//!   every task's cost: the lower bound stealing chases.
//!
//! The second half of the run closes the loop on the online auto-tuner:
//! [`tune_fused`] climbs slice width / QP count / WG occupancy on the
//! *skewed, stealing* operator for a bounded iteration budget, and the
//! result is compared against an exhaustive offline sweep of the same
//! knob ladders. Both headline ratios are regression-gated in CI
//! (`skew-smoke`): stealing within 5% of the oracle, the tuner within 5%
//! of the swept optimum.
//!
//! Everything here runs on the deterministic timed simulator, so the
//! committed artifact (`results/BENCH_skew.json`) is reproducible
//! bit-for-bit on any host — `--check` holds every leaf of it exactly.

use fcc_core::{simulate_fused, tune_fused, FusedParams, Knobs, SkewSpec, TuneOutcome, WgSchedule};
use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::kernel::KernelResources;
use fcc_gpu::occupancy::occupancy;
use fcc_net::presets;
use fcc_telemetry::artifact::{field, Artifact, Point, Value};

/// One scheduler's outcome at the skewed design point.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Scheduler name (`static`, `stealing`, `oracle`).
    pub name: String,
    /// End-to-end makespan, nanoseconds.
    pub makespan_ns: u64,
    /// Relative finish-time spread between the fastest and slowest PE.
    pub pe_skew: f64,
    /// Tasks executed by a slot other than the one they were dealt to,
    /// summed over PEs (zero except under `stealing`).
    pub steals: u64,
}

/// The auto-tuner's outcome vs. the offline sweep on the same ladders.
#[derive(Debug, Clone)]
pub struct TunerComparison {
    /// Knobs the online tuner settled on.
    pub tuned: Knobs,
    /// Makespan at the tuned knobs, nanoseconds.
    pub tuned_makespan_ns: f64,
    /// Measurements the tuner spent (its iteration budget or fewer).
    pub evals: usize,
    /// Knobs the exhaustive sweep crowned.
    pub swept: Knobs,
    /// Makespan at the swept optimum, nanoseconds.
    pub swept_makespan_ns: f64,
    /// Configurations the sweep priced (the full ladder cross-product).
    pub sweep_points: usize,
}

impl TunerComparison {
    /// Tuned makespan over the swept optimum (1.0 = the tuner found it).
    pub fn tuned_vs_swept(&self) -> f64 {
        self.tuned_makespan_ns / self.swept_makespan_ns
    }
}

/// A full skew-ablation run: every scheduler plus the tuner comparison
/// at one design point.
#[derive(Debug, Clone)]
pub struct SkewRun {
    pub pes: usize,
    /// Base slice width the scheduler ablation runs at.
    pub slice_embeddings: usize,
    /// Fraction of logical WGs inflated into stragglers.
    pub straggler_rate: f64,
    /// Work multiplier on straggler tasks.
    pub straggler_factor: f64,
    /// Straggler-selection seed.
    pub skew_seed: u64,
    /// Victim-selection seed of the `stealing` schedule.
    pub steal_seed: u64,
    pub schedules: Vec<ScheduleOutcome>,
    pub tuner: TunerComparison,
}

impl SkewRun {
    /// A scheduler's outcome by name.
    pub fn schedule(&self, name: &str) -> Option<&ScheduleOutcome> {
        self.schedules.iter().find(|s| s.name == name)
    }

    fn makespan(&self, name: &str) -> f64 {
        self.schedule(name)
            .map_or(f64::NAN, |s| s.makespan_ns as f64)
    }

    /// Stealing makespan over the oracle's (1.0 = matched the bound).
    pub fn stealing_vs_oracle(&self) -> f64 {
        self.makespan("stealing") / self.makespan("oracle")
    }

    /// Static makespan over stealing's — the headline speedup stealing
    /// buys on this skew.
    pub fn stealing_speedup(&self) -> f64 {
        self.makespan("static") / self.makespan("stealing")
    }

    /// The `BENCH_skew.json` record: the headline ratios and the tuner
    /// comparison (`tuner.*`) at top level, one point per scheduler.
    /// Every leaf is sim-clock, so the gate holds all of them exactly.
    pub fn artifact(&self) -> Artifact {
        let t = &self.tuner;
        let points = self
            .schedules
            .iter()
            .map(|s| {
                Point::new(
                    s.name.as_str(),
                    vec![
                        field("makespan_ns", s.makespan_ns),
                        field("pe_skew", Value::Fixed(s.pe_skew, 4)),
                        field("steals", s.steals),
                    ],
                )
            })
            .collect();
        Artifact {
            name: "skew".to_string(),
            fields: vec![
                field("pes", self.pes),
                field("slice_embeddings", self.slice_embeddings),
                field("straggler_rate", Value::Fixed(self.straggler_rate, 4)),
                field("straggler_factor", Value::Fixed(self.straggler_factor, 4)),
                field("skew_seed", self.skew_seed),
                field("steal_seed", self.steal_seed),
                field(
                    "stealing_vs_oracle",
                    Value::Fixed(self.stealing_vs_oracle(), 4),
                ),
                field(
                    "stealing_speedup_vs_static",
                    Value::Fixed(self.stealing_speedup(), 4),
                ),
                field("tuner.evals", t.evals),
                field("tuner.tuned_slice", t.tuned.slice_embeddings),
                field("tuner.tuned_qps", t.tuned.num_qps),
                field("tuner.tuned_occupancy_cap", t.tuned.occupancy_cap),
                field(
                    "tuner.tuned_makespan_ns",
                    Value::Fixed(t.tuned_makespan_ns, 1),
                ),
                field("tuner.swept_slice", t.swept.slice_embeddings),
                field("tuner.swept_qps", t.swept.num_qps),
                field("tuner.swept_occupancy_cap", t.swept.occupancy_cap),
                field(
                    "tuner.swept_makespan_ns",
                    Value::Fixed(t.swept_makespan_ns, 1),
                ),
                field("tuner.sweep_points", t.sweep_points),
                field("tuner.tuned_vs_swept", Value::Fixed(t.tuned_vs_swept(), 4)),
            ],
            points,
        }
    }
}

/// The skewed design point: the timed simulator's straggler regime — a
/// batch large enough that each PE queues many logical WGs per resident
/// slot (occupancy capped at 8 so queues are deep), with 20% of tasks
/// inflated 8×. That is the shape where a static deal strands the most
/// work and stealing has the most to reclaim.
pub fn skew_point(pes: usize) -> FusedParams {
    let mut cfg = DlrmConfig::hw_eval(pes, 128 * pes, 8);
    cfg.pooling = 8;
    let mut p = FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib());
    p.slice_embeddings = 8;
    p.occupancy_cap = Some(8);
    p.skew = Some(SkewSpec::stragglers(0.2, 8.0, 11));
    p
}

fn outcome(name: &str, params: &FusedParams) -> ScheduleOutcome {
    let r = simulate_fused(params);
    ScheduleOutcome {
        name: name.to_string(),
        makespan_ns: r.makespan().as_nanos(),
        pe_skew: r.skew(),
        steals: r.per_pe.iter().map(|p| p.steals).sum(),
    }
}

/// The knob ladders [`tune_fused`] climbs, reproduced for the offline
/// sweep so the tuner and the sweep search the same space: power-of-two
/// slice widths within the local batch, QP counts 1–8, and the Figure 11
/// occupancy points (full, 3/4, 1/2, 1/4) plus the starting cap.
fn sweep_ladders(params: &FusedParams) -> (Vec<usize>, Vec<usize>, Vec<Option<u32>>) {
    let mut slices: Vec<usize> = std::iter::successors(Some(8usize), |s| Some(s * 2))
        .take_while(|&s| s <= params.cfg.local_batch().clamp(8, 512))
        .collect();
    if !slices.contains(&params.slice_embeddings) {
        slices.push(params.slice_embeddings);
        slices.sort_unstable();
    }
    let mut qps = vec![1usize, 2, 4, 8];
    if !qps.contains(&params.num_qps) {
        qps.push(params.num_qps);
        qps.sort_unstable();
    }
    let full = occupancy(&params.gpu, &KernelResources::embedding_fused()).wgs_per_device;
    let mut occ = vec![
        None,
        Some((full * 3 / 4).max(1)),
        Some((full / 2).max(1)),
        Some((full / 4).max(1)),
    ];
    if !occ.contains(&params.occupancy_cap) {
        occ.push(params.occupancy_cap);
    }
    (slices, qps, occ)
}

/// Exhaustively prices every ladder combination and returns the winner.
fn sweep(params: &FusedParams) -> (Knobs, f64, usize) {
    let (slices, qps, occs) = sweep_ladders(params);
    let mut best = (Knobs::of(params), f64::INFINITY);
    let mut points = 0usize;
    for &slice in &slices {
        for &q in &qps {
            for &occ in &occs {
                let knobs = Knobs {
                    slice_embeddings: slice,
                    num_qps: q,
                    occupancy_cap: occ,
                };
                let mut p = params.clone();
                knobs.apply(&mut p);
                let m = simulate_fused(&p).makespan().as_nanos_f64();
                points += 1;
                if m < best.1 {
                    best = (knobs, m);
                }
            }
        }
    }
    (best.0, best.1, points)
}

/// Runs the full ablation: the three schedulers at the skewed point,
/// then the online tuner (budget `tune_iters`) against the offline
/// sweep — both on the skewed, stealing operator.
pub fn run_skew(pes: usize, steal_seed: u64, tune_iters: usize) -> SkewRun {
    assert!(pes >= 2, "skew ablation needs at least 2 PEs");
    let base = skew_point(pes);
    let mut stealing = base.clone();
    stealing.wg_schedule = WgSchedule::Stealing { seed: steal_seed };
    let mut oracle = base.clone();
    oracle.wg_schedule = WgSchedule::Oracle;

    let schedules = vec![
        outcome("static", &base),
        outcome("stealing", &stealing),
        outcome("oracle", &oracle),
    ];

    // The tuner starts from the deployment defaults (no occupancy cap) —
    // the ablation's deliberately throttled cap of 8 is a skew amplifier,
    // not a starting configuration anyone would deploy.
    let mut tuner_base = stealing.clone();
    tuner_base.occupancy_cap = None;
    let TuneOutcome {
        best,
        best_makespan_ns,
        evals,
        ..
    } = tune_fused(&tuner_base, tune_iters);
    let (swept, swept_makespan_ns, sweep_points) = sweep(&tuner_base);

    let skew = base.skew.as_ref().expect("skew point is skewed");
    SkewRun {
        pes,
        slice_embeddings: base.slice_embeddings,
        straggler_rate: skew.straggler_rate,
        straggler_factor: skew.straggler_factor,
        skew_seed: skew.seed,
        steal_seed,
        schedules,
        tuner: TunerComparison {
            tuned: best,
            tuned_makespan_ns: best_makespan_ns,
            evals,
            swept,
            swept_makespan_ns,
            sweep_points,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_orders_the_three_schedulers() {
        let run = run_skew(2, 1, 10);
        let names: Vec<&str> = run.schedules.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["static", "stealing", "oracle"]);
        let (st, wk, or) = (
            run.schedule("static").unwrap(),
            run.schedule("stealing").unwrap(),
            run.schedule("oracle").unwrap(),
        );
        // The oracle is the best *static* assignment, so it beats the
        // static deal; stealing rebalances dynamically and must at least
        // track it (it may even win). Only stealing actually steals.
        assert!(or.makespan_ns <= st.makespan_ns);
        assert!(wk.makespan_ns < st.makespan_ns);
        assert!(wk.makespan_ns as f64 <= or.makespan_ns as f64 * 1.05);
        assert_eq!(st.steals, 0);
        assert_eq!(or.steals, 0);
        assert!(wk.steals > 0);
    }

    #[test]
    fn stealing_lands_within_five_percent_of_the_oracle() {
        let run = run_skew(2, 1, 10);
        let r = run.stealing_vs_oracle();
        assert!(r <= 1.05, "stealing/oracle {r:.4} exceeds 1.05");
        assert!(run.stealing_speedup() > 1.0);
    }

    #[test]
    fn tuner_lands_within_five_percent_of_the_full_sweep() {
        let run = run_skew(2, 1, 10);
        let t = &run.tuner;
        assert!(t.evals <= 10, "budget overrun: {} evals", t.evals);
        assert!(
            t.sweep_points >= 80,
            "sweep covered {} points",
            t.sweep_points
        );
        let r = t.tuned_vs_swept();
        assert!(
            r <= 1.05,
            "tuned {} vs swept {} ({r:.4})",
            t.tuned_makespan_ns,
            t.swept_makespan_ns
        );
    }

    #[test]
    fn artifact_round_trips() {
        let run = run_skew(2, 1, 4);
        let leaves = crate::gate::assert_round_trips(&run.artifact());
        // 19 top-level leaves, less an occupancy cap of `None` (null).
        assert!((17 + 3 * 3..=19 + 3 * 3).contains(&leaves.len()));
        assert!(leaves["stealing_vs_oracle"] > 0.0);
        assert!(leaves["tuner.tuned_vs_swept"] > 0.0);
        assert!(leaves["tuner.sweep_points"] > 0.0);
    }

    #[test]
    fn run_is_deterministic() {
        // Everything runs on the timed simulator, so the artifact must be
        // reproducible bit-for-bit — the property `--check` relies on.
        let a = run_skew(2, 1, 6).artifact();
        let b = run_skew(2, 1, 6).artifact();
        assert_eq!(a, b);
    }
}
