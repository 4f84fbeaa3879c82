//! The crash-tolerant training loop: detect → reconfigure → restore →
//! retry, with step-level checkpoint/rollback.
//!
//! [`ElasticTrainer`] drives `steps` rounds of the elastic fused
//! `embedding + All-to-All` over a team that may lose members to
//! fail-stop crashes at any point inside a step ([`CrashPoint`]). The
//! protocol per step, per PE:
//!
//! 1. **scatter** — pool and publish every owned slice at the
//!    team-agreed round number;
//! 2. **drain** — await all inbound slices, probing (only) the blocking
//!    source once per tick;
//! 3. **commit rendezvous** — broadcast "I committed round r" and await
//!    the same from every member;
//! 4. **update** — only now apply the deterministic optimizer step to
//!    owned tables, checkpointing to the vault on the configured cadence.
//!
//! A crash surfaces as [`fcc_shmem::ShmemError::PeerDead`] in phase 2 or
//! 3. The survivor then accuses the peer, runs the membership agreement
//! ([`RecoveryBoard::reconfigure`]), re-shards **all** tables over the
//! survivor set, restores any newly-gained table from the checkpoint
//! vault (replaying the missed optimizer steps), and retries the *same*
//! step at a strictly larger round number.
//!
//! ### Why the result is bit-deterministic
//!
//! * Updates are applied strictly after a full-team commit, and a
//!   crashed step never commits — so every live table always equals
//!   `initial + committed × update`, and a vault restore reproduces that
//!   state exactly (same f32 operations in the same order).
//! * The pooled output for `(table, sample)` is the same f32 reduction
//!   whoever owns the table, so re-owned slices overwrite a dead PE's
//!   partial writes with identical bytes — and the tombstone fence in
//!   `reconfigure` makes that overwrite happen-after the dead PE's last
//!   store.
//! * Rounds are strictly monotone across retries and epochs, so stale
//!   `sliceRdy`/commit flags from an abandoned round can never satisfy a
//!   later wait.
//!
//! Survivors keep their original batch shards (the dead PE's shard is
//! dropped), so each surviving destination's output is bit-equal to the
//! full-team unfused reference restricted to that destination — the
//! acceptance property the chaos tests assert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fcc_dlrm::{
    apply_step_update, table_after_steps, BatchGenerator, CheckpointVault, DlrmConfig,
    EmbeddingTable, PoolingMode,
};
use fcc_net::{CrashPoint, FaultPlan};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{FailureDetector, PeCtx, ShmemError, ShmemWorld};

use crate::op::elastic::ElasticFusedPlan;
use crate::op::reference;
use crate::progress::{RecoveryCounters, RecoverySnapshot};
use crate::team::{RecoveryBoard, TeamView};

/// Knobs of the crash-tolerant training loop.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Training steps to run.
    pub steps: u64,
    /// Checkpoint owned tables to the vault every this many committed
    /// steps (the initial state is always checkpointed as step 0).
    pub checkpoint_every: u64,
    /// Heartbeat lease: a peer silent this long is declared dead.
    pub lease: Duration,
    /// How long a blocked wait spins before probing the blocking peer.
    pub tick: Duration,
    /// Samples per slice of the elastic fused operator.
    pub slice_embeddings: usize,
    /// Learning rate of the synthetic optimizer step.
    pub lr: f32,
}

impl Default for TrainerConfig {
    fn default() -> TrainerConfig {
        TrainerConfig {
            steps: 3,
            checkpoint_every: 2,
            lease: Duration::from_millis(200),
            tick: Duration::from_millis(10),
            slice_embeddings: 4,
            lr: 0.05,
        }
    }
}

/// How one PE's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeOutcome {
    /// Survived to the end: committed every step on the final view.
    Finished {
        /// Steps committed (always `TrainerConfig::steps`).
        committed_steps: u64,
        /// The membership this PE finished on.
        view: TeamView,
    },
    /// Fail-stopped by the fault plan.
    Crashed {
        /// The step (0-based) it was executing when it died.
        at_step: u64,
    },
}

/// The result of a training run.
#[derive(Debug)]
pub struct TrainerReport {
    /// Per-PE outcome, indexed by original rank.
    pub outcomes: Vec<PeOutcome>,
    /// The membership every survivor finished on (they must agree).
    pub final_view: TeamView,
    /// Final `{local_batch, tables × dim}` output per original rank.
    /// Only surviving ranks' entries are meaningful.
    pub outputs: Vec<Vec<f32>>,
    /// Team-wide recovery counters.
    pub counters: RecoverySnapshot,
    /// Highest round number any PE committed (MTTR accounting: rounds
    /// beyond `steps · n_pes` are retries).
    pub max_round: u64,
}

/// Crash-tolerant training over the elastic fused operator.
pub struct ElasticTrainer {
    cfg: DlrmConfig,
    tcfg: TrainerConfig,
    registry: fcc_telemetry::Registry,
    flight: fcc_telemetry::FlightRecorder,
}

impl ElasticTrainer {
    /// A trainer for the given model and recovery configuration.
    pub fn new(cfg: DlrmConfig, tcfg: TrainerConfig) -> ElasticTrainer {
        assert!(tcfg.steps > 0, "need at least one step");
        assert!(tcfg.checkpoint_every > 0, "checkpoint cadence must be > 0");
        ElasticTrainer {
            cfg,
            tcfg,
            registry: fcc_telemetry::Registry::enabled(),
            flight: fcc_telemetry::FlightRecorder::disabled(),
        }
    }

    /// Registers the run's recovery counters in `registry` (under the
    /// `recovery.*` names) instead of a private one, so callers and tests
    /// observe them as named metrics alongside the rest of a telemetry
    /// snapshot.
    pub fn with_registry(mut self, registry: &fcc_telemetry::Registry) -> ElasticTrainer {
        self.registry = registry.clone();
        self
    }

    /// Attaches a flight recorder to the trainer's world, so crash
    /// detections, recovery rungs, and every network publication land in
    /// the always-on window a failure dump exposes.
    pub fn with_flight(mut self, recorder: fcc_telemetry::FlightRecorder) -> ElasticTrainer {
        self.flight = recorder;
        self
    }

    /// The reference output of `(step, dst)`: the unfused full-team
    /// pipeline at the table state after `step` committed updates. The
    /// final buffer of any run — crashed or not — must bit-equal
    /// `expected_step_output(cfg, tcfg, steps − 1, dst)` for every
    /// surviving `dst`.
    pub fn expected_step_output(
        cfg: &DlrmConfig,
        tcfg: &TrainerConfig,
        step: u64,
        dst: usize,
    ) -> Vec<f32> {
        let gen = reference::build_generator(cfg);
        let tables: Vec<EmbeddingTable> = reference::build_tables(cfg)
            .iter()
            .enumerate()
            .map(|(t, table)| table_after_steps(table, t, &gen, cfg.global_batch, tcfg.lr, step))
            .collect();
        reference::expected_output(cfg, &tables, &gen, PoolingMode::Sum, dst)
    }

    /// Runs the training loop under `faults` and returns the report.
    ///
    /// Consumes the trainer: flag banks and the vault are single-run
    /// state.
    pub fn run(self, faults: &FaultPlan) -> TrainerReport {
        let ElasticTrainer {
            cfg,
            tcfg,
            registry,
            flight,
        } = self;
        let n = cfg.n_pes;
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, n);
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, tcfg.slice_embeddings);
        let mut world = ShmemWorld::new(n, layout).with_flight(flight);

        let all_tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let vault = CheckpointVault::new();
        for (t, table) in all_tables.iter().enumerate() {
            vault.save(t, 0, table.clone());
        }
        let counters = RecoveryCounters::in_registry(&registry);
        let max_round = AtomicU64::new(0);

        let outcomes = world.run_collect(|ctx| {
            pe_main(
                ctx,
                &cfg,
                &tcfg,
                &plan,
                &board,
                &all_tables,
                &gen,
                &vault,
                &counters,
                faults,
                &max_round,
            )
        });

        let final_view = outcomes
            .iter()
            .filter_map(|o| match o {
                PeOutcome::Finished { view, .. } => Some(*view),
                PeOutcome::Crashed { .. } => None,
            })
            .reduce(|a, b| {
                assert_eq!(a, b, "survivors finished on different views");
                a
            })
            .expect("at least one PE must survive the fault plan");

        let outputs = (0..n).map(|pe| world.read(pe, plan.output)).collect();
        TrainerReport {
            outcomes,
            final_view,
            outputs,
            counters: counters.snapshot(),
            max_round: max_round.load(Ordering::Relaxed),
        }
    }
}

/// The strictly monotone, team-agreed round number of `(step, epoch)`.
/// Epochs are bounded by `n_pes`, so `(step, epoch)` ↦ `step·n + epoch`
/// is order-preserving over the lexicographic attempt sequence.
fn round_number(step: u64, epoch: u32, n_pes: usize) -> u64 {
    step * n_pes as u64 + epoch as u64 + 1
}

#[allow(clippy::too_many_arguments)]
fn pe_main(
    ctx: &PeCtx<'_>,
    cfg: &DlrmConfig,
    tcfg: &TrainerConfig,
    plan: &ElasticFusedPlan,
    board: &RecoveryBoard,
    all_tables: &[EmbeddingTable],
    gen: &BatchGenerator,
    vault: &CheckpointVault,
    counters: &RecoveryCounters,
    faults: &FaultPlan,
    max_round: &AtomicU64,
) -> PeOutcome {
    let me = ctx.me();
    let detector = FailureDetector::new(cfg.n_pes, tcfg.lease);
    let mut view = TeamView::founding(cfg.n_pes);
    let mut assignment = ElasticFusedPlan::assignment_for(cfg, &view);
    let mut my_tables: HashMap<usize, EmbeddingTable> = assignment[me]
        .iter()
        .map(|&t| (t, all_tables[t].clone()))
        .collect();

    let mut step: u64 = 0;
    while step < tcfg.steps {
        board.beats.beat(ctx);
        let round = round_number(step, view.epoch(), cfg.n_pes);
        max_round.fetch_max(round, Ordering::Relaxed);

        // Each attempt runs under its own step context (rounds are
        // monotone across retries, so a retried step traces separately),
        // and its start lands in the flight recorder.
        let _ctx_guard = fcc_shmem::scoped_ctx(fcc_shmem::TraceCtx::step(round));
        ctx.flight().record(
            fcc_shmem::FlightKind::StepStart,
            fcc_shmem::current_ctx(),
            me as u64,
            round,
        );

        // Crash injection: `exec` is 1-based, like the operators' `exec`.
        if let Some(point) = faults.crash_point(me as u32, step + 1) {
            match point {
                CrashPoint::Start => {}
                CrashPoint::AfterSlices(k) => {
                    plan.scatter(
                        ctx,
                        &view,
                        &assignment,
                        &my_tables,
                        gen,
                        PoolingMode::Sum,
                        round,
                        Some(k as usize),
                        board,
                    );
                }
                CrashPoint::AfterCompute | CrashPoint::InDrain => {
                    plan.scatter(
                        ctx,
                        &view,
                        &assignment,
                        &my_tables,
                        gen,
                        PoolingMode::Sum,
                        round,
                        None,
                        board,
                    );
                    if point == CrashPoint::InDrain {
                        // Dies mid-drain: whether its own inbound slices
                        // arrived is irrelevant to the survivors — it
                        // never reaches the commit rendezvous.
                        let _ =
                            plan.drain(ctx, &view, &assignment, round, tcfg.tick, &detector, board);
                    }
                }
            }
            board.die(ctx);
            return PeOutcome::Crashed { at_step: step };
        }

        plan.scatter(
            ctx,
            &view,
            &assignment,
            &my_tables,
            gen,
            PoolingMode::Sum,
            round,
            None,
            board,
        );
        let committed = plan
            .drain(ctx, &view, &assignment, round, tcfg.tick, &detector, board)
            .and_then(|()| {
                board.announce_commit(ctx, round);
                board.await_commits(ctx, &detector, &view, round, tcfg.tick)
            });

        match committed {
            Ok(()) => {
                // The step is committed team-wide: apply the optimizer
                // update to owned tables in a fixed global order, then
                // checkpoint on cadence.
                let mut owned: Vec<usize> = my_tables.keys().copied().collect();
                owned.sort_unstable();
                for (&t, table) in {
                    let mut entries: Vec<_> = my_tables.iter_mut().collect();
                    entries.sort_unstable_by_key(|&(&t, _)| t);
                    entries
                } {
                    apply_step_update(table, t, gen, cfg.global_batch, tcfg.lr);
                }
                let done = step + 1;
                if done.is_multiple_of(tcfg.checkpoint_every) || done == tcfg.steps {
                    for &t in &owned {
                        vault.save(t, done, my_tables[&t].clone());
                        counters.record_checkpoint();
                    }
                }
                step += 1;
            }
            Err(ShmemError::PeerDead { peer, .. }) => {
                counters.record_detection();
                board.suspect(ctx, peer);
                view = board.reconfigure(ctx, &detector, tcfg.tick);
                counters.record_reconfiguration();
                // Roll the step back (nothing was applied) and rebuild
                // the data plane over the survivors.
                assignment = ElasticFusedPlan::assignment_for(cfg, &view);
                let mine: std::collections::HashSet<usize> =
                    assignment[me].iter().copied().collect();
                my_tables.retain(|t, _| mine.contains(t));
                for &t in &assignment[me] {
                    my_tables.entry(t).or_insert_with(|| {
                        let (table, replayed) =
                            vault.restore(t, gen, cfg.global_batch, tcfg.lr, step);
                        counters.record_restore(replayed);
                        table
                    });
                }
            }
            Err(ShmemError::Corruption { .. }) => {
                // The final rung of the recovery ladder: a quarantined
                // delivery surfaced at the drain boundary, so state
                // derived from this round's payloads cannot be trusted.
                // Nothing committed, so the vault state *is* the step's
                // state: roll every owned table back to it (bit-exact by
                // the replay property) and retry the step — re-scattered
                // slices overwrite whatever the corrupt round touched.
                counters.record_corrupt_detected();
                let mut owned: Vec<usize> = my_tables.keys().copied().collect();
                owned.sort_unstable();
                for t in owned {
                    let (table, replayed) = vault.restore(t, gen, cfg.global_batch, tcfg.lr, step);
                    counters.record_restore(replayed);
                    my_tables.insert(t, table);
                }
            }
            // The supervised waits produce exactly the errors above;
            // anything else (a wait/quiet timeout from a misconfigured
            // policy) is a harness bug, not a recoverable fault.
            Err(other) => panic!("PE {me}: unexpected runtime error: {other}"),
        }
    }

    PeOutcome::Finished {
        committed_steps: tcfg.steps,
        view,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(n_pes: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, 2 * n_pes, 2);
        cfg.table_rows = 48;
        cfg.dim = 4;
        cfg.pooling = 3;
        cfg
    }

    fn fast_tcfg() -> TrainerConfig {
        TrainerConfig {
            steps: 3,
            checkpoint_every: 2,
            lease: Duration::from_millis(120),
            tick: Duration::from_millis(5),
            slice_embeddings: 2,
            lr: 0.05,
        }
    }

    fn assert_survivor_outputs(cfg: &DlrmConfig, tcfg: &TrainerConfig, report: &TrainerReport) {
        for dst in report.final_view.members() {
            let expect = ElasticTrainer::expected_step_output(cfg, tcfg, tcfg.steps - 1, dst);
            assert_eq!(
                report.outputs[dst], expect,
                "dst {dst}: survivor output must bit-equal the reference"
            );
        }
    }

    #[test]
    fn fault_free_run_commits_every_step() {
        let cfg = tiny_cfg(4);
        let tcfg = fast_tcfg();
        let report = ElasticTrainer::new(cfg.clone(), tcfg.clone()).run(&FaultPlan::new(7));
        assert_eq!(report.final_view, TeamView::founding(4));
        for outcome in &report.outcomes {
            assert!(
                matches!(outcome, PeOutcome::Finished { committed_steps, .. } if *committed_steps == 3)
            );
        }
        assert_eq!(report.counters.detections, 0);
        assert_eq!(report.counters.reconfigurations, 0);
        assert_eq!(report.counters.restores, 0);
        // Checkpoints at steps 2 and 3 (final): 8 tables × 2 cadence hits.
        assert_eq!(report.counters.checkpoints, 16);
        assert_survivor_outputs(&cfg, &tcfg, &report);
    }

    #[test]
    fn crash_at_step_start_recovers_and_matches_reference() {
        let cfg = tiny_cfg(4);
        let tcfg = fast_tcfg();
        let faults = FaultPlan::new(7).with_pe_crash(2, 2); // dies entering step 1
        let report = ElasticTrainer::new(cfg.clone(), tcfg.clone()).run(&faults);

        assert_eq!(report.outcomes[2], PeOutcome::Crashed { at_step: 1 });
        let expect_view = TeamView::with_suspects(4, 1 << 2);
        assert_eq!(report.final_view, expect_view);
        assert!(report.counters.detections >= 1, "someone must detect");
        assert!(
            report.counters.reconfigurations >= 3,
            "each survivor reconfigures"
        );
        assert!(
            report.counters.restores >= 2,
            "the dead PE's 2 tables re-owned"
        );
        assert_survivor_outputs(&cfg, &tcfg, &report);
    }

    #[test]
    fn mid_pipeline_crash_points_all_recover() {
        let cfg = tiny_cfg(3);
        let tcfg = fast_tcfg();
        for point in [
            CrashPoint::AfterSlices(1),
            CrashPoint::AfterCompute,
            CrashPoint::InDrain,
        ] {
            let faults = FaultPlan::new(7).with_pe_crash_at(1, 2, point);
            let report = ElasticTrainer::new(cfg.clone(), tcfg.clone()).run(&faults);
            assert_eq!(
                report.outcomes[1],
                PeOutcome::Crashed { at_step: 1 },
                "{point:?}"
            );
            assert_eq!(report.final_view, TeamView::with_suspects(3, 1 << 1));
            assert_survivor_outputs(&cfg, &tcfg, &report);
        }
    }

    #[test]
    fn replay_crosses_checkpoint_gaps() {
        // Crash in the last step with checkpoints far apart: restore must
        // replay several optimizer steps to reach the committed state.
        let cfg = tiny_cfg(3);
        let mut tcfg = fast_tcfg();
        tcfg.steps = 4;
        tcfg.checkpoint_every = 10; // only the initial state is in the vault
        let faults = FaultPlan::new(7).with_pe_crash(0, 4);
        let report = ElasticTrainer::new(cfg.clone(), tcfg.clone()).run(&faults);
        assert_eq!(report.outcomes[0], PeOutcome::Crashed { at_step: 3 });
        assert!(
            report.counters.replayed_steps >= 3,
            "restoring at step 3 from the step-0 checkpoint replays 3 updates, got {}",
            report.counters.replayed_steps
        );
        assert_survivor_outputs(&cfg, &tcfg, &report);
    }

    #[test]
    fn sequential_crashes_in_different_steps_both_recover() {
        let cfg = tiny_cfg(4);
        let tcfg = fast_tcfg();
        let faults =
            FaultPlan::new(7)
                .with_pe_crash(1, 1)
                .with_pe_crash_at(3, 3, CrashPoint::AfterCompute);
        let report = ElasticTrainer::new(cfg.clone(), tcfg.clone()).run(&faults);
        assert_eq!(report.outcomes[1], PeOutcome::Crashed { at_step: 0 });
        assert_eq!(report.outcomes[3], PeOutcome::Crashed { at_step: 2 });
        let expect_view = TeamView::with_suspects(4, (1 << 1) | (1 << 3));
        assert_eq!(report.final_view, expect_view);
        assert_eq!(expect_view.epoch(), 2);
        assert_survivor_outputs(&cfg, &tcfg, &report);
    }
}
