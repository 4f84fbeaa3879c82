//! Bounded schedule exploration: exhaustive over small put-key sets,
//! seeded pseudo-random beyond them.
//!
//! Every program run under the functional backend issues a
//! *deterministic* set of network-put keys (see
//! [`fcc_shmem::delivery`]), so its put-deferral space is the boolean
//! cube over that set. [`explore`] walks it in three passes:
//!
//! 1. **Probe** — one [`ProgramOrder`] run discovers the key set and
//!    doubles as the all-deliver corner of the cube.
//! 2. **Exhaustive** — every mask over the first
//!    [`Budget::exhaustive_bits`] keys, via [`DecisionVector`]. When the
//!    program has at most that many keys the entire cube is covered and
//!    the report says so ([`Report::space_exhausted`]).
//! 3. **Seeded top-up** — [`SeededOrder`] runs until
//!    [`Budget::target_distinct`] distinct schedule signatures have been
//!    seen (RMW-yield perturbation gives these runs diversity even when
//!    the put cube is tiny), the run cap hits, or seeds stop finding new
//!    schedules.
//!
//! Every run's trace goes through the invariant checker and every run's
//! output was already diffed against the reference by the case itself;
//! the [`Report`] aggregates both.
//!
//! [`explore_steal`] walks the orthogonal dimension: seeded
//! work-stealing schedules of the operator's task loop (who executes
//! which task, in what order), with a seeded delivery order drawn per
//! run so both adversaries are live.

use std::collections::HashSet;
use std::sync::Arc;

use fcc_core::schedule::steal::execute_stealing;
use fcc_core::{StealArena, StealPolicy};
use fcc_shmem::{DecisionVector, ProgramOrder, SeededOrder};

use fcc_shmem::TraceCtx;

use crate::cases::{CaseRun, ProtocolCase};
use crate::ctx::{check_ctx_trace, CtxViolation};
use crate::invariants::{check_trace, CheckConfig, Violation};

/// How much schedule space one [`explore`] call may spend.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Put keys enumerated exhaustively (`2^bits` runs), capped at 16.
    pub exhaustive_bits: u32,
    /// Distinct schedule signatures to reach before stopping the seeded
    /// pass.
    pub target_distinct: usize,
    /// Hard cap on total runs.
    pub max_runs: usize,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            exhaustive_bits: 10,
            target_distinct: 1000,
            max_runs: 4096,
        }
    }
}

impl Budget {
    /// A small budget for debug-build test suites.
    pub fn smoke() -> Budget {
        Budget {
            exhaustive_bits: 4,
            target_distinct: 24,
            max_runs: 64,
        }
    }
}

/// Aggregate outcome of exploring one case.
#[derive(Debug)]
pub struct Report {
    /// Case name (variant and shape).
    pub case: String,
    /// Total schedule-runs performed.
    pub runs: usize,
    /// Distinct schedule signatures observed.
    pub distinct_schedules: usize,
    /// Whether the exhaustive pass covered the *entire* put-deferral
    /// cube (the program had no more keys than the budget's bits).
    pub space_exhausted: bool,
    /// Invariant breaches, capped at [`Report::KEPT`]; see
    /// `violations_total` for the full count.
    pub violations: Vec<Violation>,
    /// Total invariant breaches across all runs.
    pub violations_total: usize,
    /// Causal-coverage breaches, capped at [`Report::KEPT`].
    pub ctx_violations: Vec<CtxViolation>,
    /// Total causal-coverage breaches across all runs.
    pub ctx_violations_total: usize,
    /// Reference mismatches, capped at [`Report::KEPT`].
    pub mismatches: Vec<String>,
    /// Total reference mismatches across all runs.
    pub mismatches_total: usize,
}

impl Report {
    /// How many violations/mismatches a report stores verbatim.
    pub const KEPT: usize = 16;

    fn new(case: String) -> Report {
        Report {
            case,
            runs: 0,
            distinct_schedules: 0,
            space_exhausted: false,
            violations: Vec::new(),
            violations_total: 0,
            ctx_violations: Vec::new(),
            ctx_violations_total: 0,
            mismatches: Vec::new(),
            mismatches_total: 0,
        }
    }

    /// No violations (protocol or causal-coverage) and no mismatches on
    /// any explored schedule.
    pub fn clean(&self) -> bool {
        self.violations_total == 0 && self.ctx_violations_total == 0 && self.mismatches_total == 0
    }

    /// [`clean`](Report::clean) *and* the exploration was deep enough:
    /// either the target distinct-schedule count was reached or the put
    /// cube was fully enumerated.
    pub fn passed(&self, target_distinct: usize) -> bool {
        self.clean() && (self.distinct_schedules >= target_distinct || self.space_exhausted)
    }

    fn absorb(
        &mut self,
        run: CaseRun,
        sigs: &mut HashSet<u64>,
        cfg: &CheckConfig,
        ctx_root: Option<TraceCtx>,
    ) {
        self.runs += 1;
        sigs.insert(run.signature);
        self.distinct_schedules = sigs.len();
        let violations = check_trace(&run.trace, cfg);
        self.violations_total += violations.len();
        for v in violations {
            if self.violations.len() < Report::KEPT {
                self.violations.push(v);
            }
        }
        if let Some(root) = ctx_root {
            let ctx_violations = check_ctx_trace(&run.timed, root);
            self.ctx_violations_total += ctx_violations.len();
            for v in ctx_violations {
                if self.ctx_violations.len() < Report::KEPT {
                    self.ctx_violations.push(v);
                }
            }
        }
        if let Some(m) = run.mismatch {
            self.mismatches_total += 1;
            if self.mismatches.len() < Report::KEPT {
                self.mismatches.push(m);
            }
        }
    }
}

/// Explores `case` under `budget`. See the module docs for the passes.
pub fn explore(case: &dyn ProtocolCase, budget: &Budget) -> Report {
    let mut report = Report::new(case.name());
    let mut sigs = HashSet::new();
    let cfg = case.check_config();
    let ctx_root = case.expected_ctx_root();

    // Pass 1: probe. Discovers the deterministic put-key set and runs
    // the all-deliver (mask 0) corner.
    let probe = case.run(Arc::new(ProgramOrder));
    let keys = probe.put_keys.clone();
    report.absorb(probe, &mut sigs, &cfg, ctx_root);

    // Pass 2: exhaustive cube walk over the first `bits` keys.
    let bits = keys.len().min(budget.exhaustive_bits.min(16) as usize);
    report.space_exhausted = bits == keys.len();
    for mask in 1..(1u64 << bits) {
        if report.runs >= budget.max_runs {
            report.space_exhausted = false;
            break;
        }
        let order = DecisionVector::from_mask(&keys[..bits], mask, false);
        report.absorb(case.run(Arc::new(order)), &mut sigs, &cfg, ctx_root);
    }

    // Pass 3: seeded top-up toward the distinct target. Stop early when
    // seeds repeatedly stop discovering new schedules — a program with a
    // tiny schedule space (e.g. two PEs, two puts) saturates fast.
    let mut stale = 0u32;
    let mut seed = 0x5eed_0000u64;
    while sigs.len() < budget.target_distinct && report.runs < budget.max_runs && stale < 200 {
        let before = sigs.len();
        report.absorb(
            case.run(Arc::new(SeededOrder::new(seed))),
            &mut sigs,
            &cfg,
            ctx_root,
        );
        stale = if sigs.len() > before { 0 } else { stale + 1 };
        seed += 1;
    }
    report
}

/// Explores the full [`crate::standard_cases`] suite at `n_pes` PEs.
pub fn explore_all(n_pes: usize, budget: &Budget) -> Vec<Report> {
    crate::cases::standard_cases(n_pes)
        .iter()
        .map(|case| explore(case.as_ref(), budget))
        .collect()
}

/// Consecutive duplicate steal seeds after which the reachable
/// steal-schedule space is declared saturated.
const STEAL_STALE_CUTOFF: u32 = 400;

/// Explores the seeded steal-schedule dimension of `case` under
/// `budget`.
///
/// Each run overrides the plan's work-stealing policy with
/// [`StealPolicy::sequential`] under a fresh seed — the deterministic
/// interleaving whose `(step, worker, task)` signature
/// ([`StealStats::signature`](fcc_core::StealStats)) names the realized
/// steal schedule — and also draws a seeded delivery order, so the steal
/// and delivery adversaries are live together. Every run goes through
/// the invariant checker, the causal-coverage checker, and the case's
/// own reference diff, exactly like [`explore`].
///
/// The schedule a `(tasks, workers, seed)` triple realizes is computable
/// without running the operator, so duplicate seeds are skipped for
/// free: [`Report::runs`] counts only runs on *distinct* steal
/// schedules. When `STEAL_STALE_CUTOFF` (400) consecutive seeds realize
/// nothing new, the reachable space (bounded by the scheduler's
/// interleavings, far below `tasks!`) is saturated and the report says
/// [`Report::space_exhausted`] — the small-space analogue of fully
/// enumerating a put cube. Cases without a task loop
/// ([`ProtocolCase::steal_tasks`] `== 0`) return an empty report.
pub fn explore_steal(case: &dyn ProtocolCase, budget: &Budget) -> Report {
    let mut report = Report::new(case.name());
    let n = case.steal_tasks();
    if n == 0 {
        return report;
    }
    let mut sigs = HashSet::new();
    let cfg = case.check_config();
    let ctx_root = case.expected_ctx_root();
    let ids: Vec<u64> = (0..n as u64).collect();
    let arena = StealArena::new();
    let mut stale = 0u32;
    let mut seed = 0x57ea_1000u64;
    while sigs.len() < budget.target_distinct
        && report.runs < budget.max_runs
        && stale < STEAL_STALE_CUTOFF
    {
        let policy = StealPolicy::sequential(seed);
        let sig = execute_stealing(&arena, &ids, policy, |_| (), |_, _| {}).signature;
        if sigs.contains(&sig) {
            stale += 1;
            seed += 1;
            continue;
        }
        stale = 0;
        let order: Arc<dyn fcc_shmem::DeliveryOrder> = Arc::new(SeededOrder::new(seed));
        let mut run = case.run_with_steal(Some(order), Some(policy));
        // Count distinctness over realized *steal* schedules; the
        // delivery signature is the other explorer's dimension.
        run.signature = sig;
        report.absorb(run, &mut sigs, &cfg, ctx_root);
        seed += 1;
    }
    report.space_exhausted = stale >= STEAL_STALE_CUTOFF;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::UnfencedFlagCase;

    #[test]
    fn exploring_the_buggy_case_finds_the_missing_fence_on_every_schedule() {
        let report = explore(&UnfencedFlagCase, &Budget::smoke());
        // One network put → a 2-schedule cube, fully enumerable.
        assert!(report.space_exhausted, "one-put cube must be exhausted");
        assert_eq!(
            report.violations_total, report.runs,
            "every schedule of an unfenced publication violates I1"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::FlagBeforePayload { src: 0, dst: 1, .. })),
            "wrong violation kind: {:?}",
            report.violations
        );
        assert!(!report.clean());
        assert!(!report.passed(report.runs + 1));
    }
}
