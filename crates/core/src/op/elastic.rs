//! Elastic fused `embedding + All-to-All` — the crash-tolerant functional
//! operator.
//!
//! [`super::FusedPlan`] bakes the paper's fixed geometry in at plan time:
//! every PE owns a contiguous band of tables forever, and every rendezvous
//! counts all `n_pes`. This operator keeps the same data plane — slice
//! PUTs into the `{local batch, tables × dim}` destination layout,
//! published by `sliceRdy` flags — but parameterises *who computes what*
//! by a ([`TeamView`], table assignment) pair, so the same plan executes
//! correctly on any survivor set:
//!
//! * **Global slice ids.** A slice is `(table, dst, chunk)`; its id is a
//!   pure function of that triple, independent of who owns the table. A
//!   destination therefore knows exactly which flags to await under *any*
//!   assignment, and when a table migrates to a new owner after a crash,
//!   the new owner's stores land on the very flags the old owner would
//!   have used.
//! * **Monotone rounds.** `sliceRdy` flags carry the team-agreed round
//!   number instead of an execution count. Rounds strictly increase
//!   across retries and reconfigurations, so a half-delivered round from
//!   a crashed sender can never satisfy a survivor's wait after rollback.
//! * **Supervised drains.** Every flag wait beats the waiter's own
//!   heartbeat and probes (only) the blocking source, converting a crash
//!   from a hang into a typed [`ShmemError::PeerDead`].
//! * **Slice-granular tasks.** Each slice is produced by one task, so the
//!   sender needs no `WG_Done` election — that machinery (and its
//!   monotone counters, which would not survive ownership migration) is
//!   exercised by the fixed-team `FusedPlan`; here slices are the unit of
//!   both compute and recovery.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fcc_dlrm::{
    plan_table_shards, BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode, TableCost,
};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{FailureDetector, PeCtx, ShmemError, SymFlags, SymSlice};

use crate::schedule::steal::{sequential_order, StealPolicy};
use crate::scratch::{fit, Workspace, Workspaces};
use crate::team::{RecoveryBoard, TeamView};

/// One unit of elastic work: pool `len` samples of `table` for `dst` and
/// publish them as slice `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceJob {
    /// Global slice id — `(table · n_pes + dst) · slices_per_shard + chunk`.
    pub id: usize,
    /// Global table index.
    pub table: usize,
    /// Destination PE (original rank).
    pub dst: usize,
    /// First local sample of `dst`'s shard covered by this slice.
    pub start: usize,
    /// Samples in this slice.
    pub len: usize,
}

/// Symmetric-heap plan for the elastic fused operator.
#[derive(Debug)]
pub struct ElasticFusedPlan {
    /// Output buffer: `{local_batch, total_tables × dim}` per PE — the
    /// original full-team geometry. Survivors keep their original batch
    /// shard; a dead PE's shard is simply dropped, so surviving outputs
    /// stay bit-comparable with the full-team reference.
    pub output: SymSlice<f32>,
    /// `sliceRdy` flags, one per *global* slice id, set at the
    /// destination with the current round number.
    slice_rdy: SymFlags,
    cfg: DlrmConfig,
    slice_embeddings: usize,
    slices_per_shard: usize,
    /// One workspace per PE (the scatter loop is sequential), reused
    /// across rounds and survivors.
    workspaces: Workspaces,
    /// Issue order of the scatter loop when no crash limit is armed. The
    /// loop stays sequential — [`Self::jobs_for`] order is the
    /// crash-injection coordinate, so `limit: Some(k)` always walks the
    /// canonical order — but an unlimited scatter may publish in any
    /// order, and the steal schedule decides which one.
    steal: StealPolicy,
}

impl ElasticFusedPlan {
    /// Allocates output and flag banks for `cfg`. Flag space is sized for
    /// the *worst case* — any PE may come to own any table — which is
    /// exactly `total_tables × n_pes × slices_per_shard` global slices.
    pub fn plan(
        layout: &mut HeapLayout,
        cfg: &DlrmConfig,
        slice_embeddings: usize,
    ) -> ElasticFusedPlan {
        assert!(slice_embeddings > 0, "slice width must be positive");
        let total_tables = cfg.n_pes * cfg.tables_per_pe;
        let local_batch = cfg.local_batch();
        let slices_per_shard = local_batch.div_ceil(slice_embeddings);
        ElasticFusedPlan {
            output: layout.alloc::<f32>(local_batch * total_tables * cfg.dim),
            slice_rdy: layout.alloc_flags(total_tables * cfg.n_pes * slices_per_shard),
            cfg: cfg.clone(),
            slice_embeddings,
            slices_per_shard,
            workspaces: Workspaces::sized(cfg.n_pes, 1, 0, cfg.pooling, slice_embeddings * cfg.dim),
            steal: StealPolicy::sequential(0),
        }
    }

    /// Replaces the work-stealing policy (builder form). Only the seed
    /// matters here: scatter stays sequential so the crash coordinate is
    /// well-defined; the policy picks the unlimited-scatter issue order.
    pub fn with_steal(mut self, steal: StealPolicy) -> ElasticFusedPlan {
        self.steal = steal;
        self
    }

    /// Replaces the work-stealing policy in place (call before running).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.steal = steal;
    }

    /// Workspace re-allocations — zero growth across rounds means the
    /// steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.workspaces.misses()
    }

    /// The global slice id of `(table, dst, chunk)`.
    fn slice_id(&self, table: usize, dst: usize, chunk: usize) -> usize {
        debug_assert!(chunk < self.slices_per_shard);
        (table * self.cfg.n_pes + dst) * self.slices_per_shard + chunk
    }

    /// Slices per destination shard (per table).
    pub fn slices_per_shard(&self) -> usize {
        self.slices_per_shard
    }

    /// The founding-team table placement: PE `p` owns the contiguous band
    /// `p·tables_per_pe ..`, matching the paper's layout and the unfused
    /// reference.
    fn canonical_assignment(cfg: &DlrmConfig) -> Vec<Vec<usize>> {
        (0..cfg.n_pes)
            .map(|pe| (pe * cfg.tables_per_pe..(pe + 1) * cfg.tables_per_pe).collect())
            .collect()
    }

    /// The table placement for `view`: the founding layout at epoch 0,
    /// otherwise an LPT re-shard of *all* tables over the survivors via
    /// [`plan_table_shards`]. Indexed by original rank; evicted ranks get
    /// empty lists. Deterministic, so every survivor derives the same
    /// placement from the agreed view alone.
    pub fn assignment_for(cfg: &DlrmConfig, view: &TeamView) -> Vec<Vec<usize>> {
        assert_eq!(view.n_pes(), cfg.n_pes, "view/config team size mismatch");
        if view.epoch() == 0 {
            return Self::canonical_assignment(cfg);
        }
        let total_tables = cfg.n_pes * cfg.tables_per_pe;
        let costs: Vec<TableCost> = (0..total_tables)
            .map(|_| TableCost::new(cfg.table_rows, cfg.dim, cfg.pooling, cfg.global_batch))
            .collect();
        let plan = plan_table_shards(&costs, view.len());
        let mut full: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_pes];
        for pe in view.members() {
            let rank = view.rank_of(pe).expect("member has a rank");
            let mut tables = plan.assignment[rank].clone();
            tables.sort_unstable();
            full[pe] = tables;
        }
        full
    }

    /// The slice jobs PE `src` must perform under (`view`, `assignment`),
    /// in deterministic order: ascending table, destination, chunk. The
    /// order doubles as the crash-injection coordinate — "crash after `k`
    /// slices" means after `jobs[..k]`.
    pub fn jobs_for(
        &self,
        src: usize,
        view: &TeamView,
        assignment: &[Vec<usize>],
    ) -> Vec<SliceJob> {
        let local_batch = self.cfg.local_batch();
        let mut jobs = Vec::new();
        for &table in &assignment[src] {
            for dst in view.members() {
                for chunk in 0..self.slices_per_shard {
                    let start = chunk * self.slice_embeddings;
                    let len = self.slice_embeddings.min(local_batch - start);
                    jobs.push(SliceJob {
                        id: self.slice_id(table, dst, chunk),
                        table,
                        dst,
                        start,
                        len,
                    });
                }
            }
        }
        jobs
    }

    /// Computes and publishes this PE's slices for one round.
    ///
    /// `limit` is the crash-injection hook: `Some(k)` performs only the
    /// first `k` jobs (in [`jobs_for`](Self::jobs_for) order) and returns,
    /// modelling a kernel that died mid-pipeline. Heartbeats are woven
    /// through the pooling loop so a slow-but-live sender is never
    /// mistaken for a dead one.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter(
        &self,
        ctx: &PeCtx<'_>,
        view: &TeamView,
        assignment: &[Vec<usize>],
        tables: &HashMap<usize, EmbeddingTable>,
        gen: &BatchGenerator,
        mode: PoolingMode,
        round: u64,
        limit: Option<usize>,
        board: &RecoveryBoard,
    ) {
        let me = ctx.me();
        let dim = self.cfg.dim;
        let row = self.cfg.n_pes * self.cfg.tables_per_pe * dim;
        let local_batch = self.cfg.local_batch();
        let jobs = self.jobs_for(me, view, assignment);
        let n = limit.map_or(jobs.len(), |k| k.min(jobs.len()));
        let root = crate::op::ctx_root(round);
        let mut ws = self.workspaces.borrow(me, 0);
        let ws: &mut Workspace = &mut ws;
        // A crash limit pins the canonical `jobs_for` order (it *is* the
        // crash coordinate); an unlimited scatter issues in steal order.
        let order: Vec<u64> = if limit.is_some() {
            (0..n as u64).collect()
        } else {
            let idx: Vec<u64> = (0..n as u64).collect();
            sequential_order(self.steal.effective_workers(n), &idx, self.steal.seed)
        };
        for &ji in &order {
            let job = &jobs[ji as usize];
            let _ctx_guard = fcc_shmem::scoped_ctx(root.with_slice(job.id as u64));
            let table = tables
                .get(&job.table)
                .unwrap_or_else(|| panic!("PE {me} assigned table {} it does not hold", job.table));
            let buf = fit(&mut ws.payload, job.len * dim);
            for i in 0..job.len {
                let sample = job.dst * local_batch + job.start + i;
                gen.bag_into(job.table, sample, &mut ws.bag);
                table.pool_into(&ws.bag, mode, &mut buf[i * dim..][..dim]);
                board.beats.beat(ctx);
            }
            // Payload first, fence, then the flag — the same publication
            // discipline as the fixed-team fused kernel.
            ctx.put_strided(
                self.output,
                job.start * row + job.table * dim,
                row,
                buf,
                dim,
                job.dst,
            );
            ctx.fence();
            ctx.flag_store(self.slice_rdy, job.id, round, job.dst);
        }
    }

    /// Awaits every slice destined to this PE for `round`, probing the
    /// blocking source whenever a wait exceeds `tick`. Returns the first
    /// dead-peer verdict ([`ShmemError::PeerDead`] — the caller rolls the
    /// round back and reconfigures) or quarantined-delivery verdict
    /// ([`ShmemError::Corruption`] — the caller rolls back to vault state
    /// and retries): each satisfied slice wait is an integrity boundary,
    /// so no unverified payload is consumed past it.
    #[allow(clippy::too_many_arguments)]
    pub fn drain(
        &self,
        ctx: &PeCtx<'_>,
        view: &TeamView,
        assignment: &[Vec<usize>],
        round: u64,
        tick: Duration,
        detector: &FailureDetector,
        board: &RecoveryBoard,
    ) -> Result<(), ShmemError> {
        let me = ctx.me();
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(round));
        for src in view.members() {
            for &table in &assignment[src] {
                for chunk in 0..self.slices_per_shard {
                    let idx = self.slice_id(table, me, chunk);
                    let mut last_probe = Instant::now();
                    loop {
                        if ctx.flag_load(self.slice_rdy, idx, me) >= round {
                            break;
                        }
                        board.beats.beat(ctx);
                        if last_probe.elapsed() >= tick {
                            board.watch(ctx, detector, src)?;
                            last_probe = Instant::now();
                        }
                        std::hint::spin_loop();
                    }
                    ctx.check_integrity()?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::reference;
    use fcc_shmem::ShmemWorld;

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(4, 8, 2);
        cfg.table_rows = 64;
        cfg.dim = 4;
        cfg.pooling = 3;
        cfg
    }

    fn hold_tables(
        all: &[EmbeddingTable],
        assignment: &[Vec<usize>],
        pe: usize,
    ) -> HashMap<usize, EmbeddingTable> {
        assignment[pe]
            .iter()
            .map(|&t| (t, all[t].clone()))
            .collect()
    }

    #[test]
    fn slice_ids_are_dense_and_unique() {
        let cfg = tiny_cfg();
        let mut layout = HeapLayout::new();
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, 1);
        let view = TeamView::founding(cfg.n_pes);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);
        let mut seen = std::collections::HashSet::new();
        for src in view.members() {
            for job in plan.jobs_for(src, &view, &assignment) {
                assert!(seen.insert(job.id), "slice id {} reused", job.id);
            }
        }
        let total = cfg.n_pes * cfg.tables_per_pe * cfg.n_pes * plan.slices_per_shard();
        assert_eq!(seen.len(), total, "full team covers every global slice");
    }

    #[test]
    fn full_team_round_matches_the_unfused_reference() {
        let cfg = tiny_cfg();
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, cfg.n_pes);
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, 3);
        let mut world = ShmemWorld::new(cfg.n_pes, layout);

        let all = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let view = TeamView::founding(cfg.n_pes);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);
        assert_eq!(assignment, ElasticFusedPlan::canonical_assignment(&cfg));

        world.run(|ctx| {
            let detector = FailureDetector::new(cfg.n_pes, Duration::from_secs(5));
            let mine = hold_tables(&all, &assignment, ctx.me());
            plan.scatter(
                ctx,
                &view,
                &assignment,
                &mine,
                &gen,
                PoolingMode::Sum,
                1,
                None,
                &board,
            );
            plan.drain(
                ctx,
                &view,
                &assignment,
                1,
                Duration::from_millis(50),
                &detector,
                &board,
            )
            .expect("nobody crashes");
        });

        for dst in 0..cfg.n_pes {
            let expect = reference::expected_output(&cfg, &all, &gen, PoolingMode::Sum, dst);
            assert_eq!(world.read(dst, plan.output), expect, "dst {dst}");
        }
    }

    #[test]
    fn resharded_team_reproduces_survivor_outputs_bit_for_bit() {
        // Epoch 1: PE 1 is gone. All tables are LPT-resharded over the
        // survivors, who still produce the full-team reference outputs for
        // every surviving destination.
        let cfg = tiny_cfg();
        let dead = 1usize;
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, cfg.n_pes);
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, 3);
        let mut world = ShmemWorld::new(cfg.n_pes, layout);

        let all = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let view = TeamView::with_suspects(cfg.n_pes, 1 << dead);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);
        assert!(assignment[dead].is_empty(), "the dead rank owns nothing");
        let owned: usize = assignment.iter().map(Vec::len).sum();
        assert_eq!(owned, cfg.n_pes * cfg.tables_per_pe, "every table re-owned");

        world.run(|ctx| {
            if !view.contains(ctx.me()) {
                return;
            }
            let detector = FailureDetector::new(cfg.n_pes, Duration::from_secs(5));
            let mine = hold_tables(&all, &assignment, ctx.me());
            plan.scatter(
                ctx,
                &view,
                &assignment,
                &mine,
                &gen,
                PoolingMode::Sum,
                2,
                None,
                &board,
            );
            plan.drain(
                ctx,
                &view,
                &assignment,
                2,
                Duration::from_millis(50),
                &detector,
                &board,
            )
            .expect("all survivors are live");
        });

        for dst in view.members() {
            let expect = reference::expected_output(&cfg, &all, &gen, PoolingMode::Sum, dst);
            assert_eq!(world.read(dst, plan.output), expect, "dst {dst}");
        }
    }

    #[test]
    fn drain_surfaces_quarantined_deliveries_at_the_slice_boundary() {
        let mut cfg = DlrmConfig::hw_eval(2, 4, 1);
        cfg.table_rows = 32;
        cfg.dim = 4;
        cfg.pooling = 2;
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, cfg.n_pes);
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, 2);
        // Split nodes + integrity: cross-PE slices ride checksummed rings.
        let world = ShmemWorld::new(cfg.n_pes, layout)
            .with_p2p_groups(vec![0, 1])
            .with_integrity();

        let all = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let view = TeamView::founding(cfg.n_pes);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);

        let verdicts = world.run_collect(|ctx| {
            let detector = FailureDetector::new(cfg.n_pes, Duration::from_secs(5));
            let mine = hold_tables(&all, &assignment, ctx.me());
            plan.scatter(
                ctx,
                &view,
                &assignment,
                &mine,
                &gen,
                PoolingMode::Sum,
                1,
                None,
                &board,
            );
            if ctx.me() == 0 {
                // A bit-flipped delivery slips in behind the clean round:
                // corrupt bytes beside the checksum of the intended ones.
                let garbage = [7.0f32; 4];
                ctx.put_claiming(plan.output, 0, &garbage, 1, fcc_shmem::checksum(&[0u8; 16]));
                ctx.fence();
            }
            ctx.barrier_all();
            plan.drain(
                ctx,
                &view,
                &assignment,
                1,
                Duration::from_millis(50),
                &detector,
                &board,
            )
        });
        assert_eq!(verdicts[0], Ok(()), "PE 0 saw only clean traffic");
        assert!(
            matches!(verdicts[1], Err(ShmemError::Corruption { pe: 1, .. })),
            "the quarantined delivery must surface before consumption: {:?}",
            verdicts[1]
        );
    }

    #[test]
    fn scatter_limit_publishes_a_deterministic_prefix() {
        let cfg = tiny_cfg();
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, cfg.n_pes);
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, 3);
        let world = ShmemWorld::new(cfg.n_pes, layout);

        let all = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let view = TeamView::founding(cfg.n_pes);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);

        let published = world.run_collect(|ctx| {
            let mine = hold_tables(&all, &assignment, ctx.me());
            let limit = if ctx.me() == 0 { Some(2) } else { None };
            plan.scatter(
                ctx,
                &view,
                &assignment,
                &mine,
                &gen,
                PoolingMode::Sum,
                1,
                limit,
                &board,
            );
            ctx.barrier_all();
            // Count this PE's inbound flags that reached round 1.
            let mut ready = 0usize;
            for src in view.members() {
                for &t in &assignment[src] {
                    for chunk in 0..plan.slices_per_shard() {
                        if ctx.flag_load(
                            plan.slice_rdy,
                            plan.slice_id(t, ctx.me(), chunk),
                            ctx.me(),
                        ) >= 1
                        {
                            ready += 1;
                        }
                    }
                }
            }
            ready
        });

        let jobs0 = plan.jobs_for(0, &view, &assignment);
        let expected_all = cfg.tables_per_pe * cfg.n_pes * plan.slices_per_shard();
        for (dst, &ready) in published.iter().enumerate() {
            // PE 0 sent only its first two jobs; everyone else sent all.
            let lost = jobs0[2..].iter().filter(|j| j.dst == dst).count();
            assert_eq!(ready, expected_all - lost, "dst {dst}");
        }
    }
}
