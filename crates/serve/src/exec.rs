//! Batch executors: the deterministic cost model and the real fused plan.
//!
//! The server's control loop is executor-agnostic behind
//! [`BatchExecutor`]: it hands over a closed batch plus the tightest
//! remaining deadline budget and gets back a service time in µs. Two
//! implementations:
//!
//! * [`ModelExecutor`] — a fixed affine cost model. Bit-deterministic, so
//!   the overload invariants (exactly-one-outcome, seeded shed sets,
//!   budget-vs-floor at close) are *exactly* testable.
//! * [`FusedExecutor`] — runs a real fused embedding+All-to-All execution
//!   per batch over a [`ShmemWorld`], propagating the budget into the
//!   drain via [`FusedPlan::execute_deadline`], and a host-pooled bulk
//!   All-to-All when the degrade ladder says so. Service time is measured
//!   wall time, so latency-under-load curves are honest.
//!
//! Both maintain the **execution floor**: an EWMA of observed service
//! times. The floor is what makes pre-execution shedding possible — a
//! request whose remaining budget is under the floor cannot possibly be
//! answered in time, so it is shed *before* consuming pipeline capacity.

use std::time::Instant;

use fcc_collectives::AllToAllPlan;
use fcc_core::op::reference;
use fcc_core::scratch::fit;
use fcc_core::{FusedPlan, ScheduleKind, Workspace, Workspaces};
use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{ShmemWorld, TraceCtx};

use crate::degrade::DegradeLevel;
use crate::request::Request;

/// What one batch execution reported back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Service time, µs on the serving timeline.
    pub service_us: u64,
    /// Whether execution itself beat the budget it was given. `false`
    /// means the drain overran ([`FusedPlan::execute_deadline`] timed
    /// out); the output is still complete, only late.
    pub within_budget: bool,
}

/// One closed batch in, one service time out.
pub trait BatchExecutor {
    /// Executes `batch` with `budget_us` of deadline headroom at the
    /// given degrade level.
    fn execute(&mut self, batch: &[Request], budget_us: u64, level: DegradeLevel) -> ExecReport;

    /// Current execution-floor estimate (EWMA of service times), µs. The
    /// admission ladder sheds any request whose remaining budget is below
    /// this.
    fn floor_us(&self) -> u64;

    /// [`BatchExecutor::execute`] under an explicit causal context: the
    /// serving loop passes the closing batch's [`TraceCtx`] so executors
    /// that own worker threads can re-install it as the ambient context
    /// and every PUT the batch issues traces back to it. The default
    /// ignores the context.
    fn execute_ctx(
        &mut self,
        batch: &[Request],
        budget_us: u64,
        level: DegradeLevel,
        ctx: TraceCtx,
    ) -> ExecReport {
        let _ = ctx;
        self.execute(batch, budget_us, level)
    }
}

/// EWMA with a 1/4 step — old estimate dominates, one outlier cannot
/// collapse or explode the floor.
fn ewma_update(floor: u64, observed: u64) -> u64 {
    (floor * 3 + observed) / 4
}

/// Deterministic affine cost model: `base + per_request × n`, with the
/// bulk path trading a higher base for a lower marginal cost (no overlap
/// machinery, one big collective) — cheaper only at large batches, which
/// is exactly when the ladder degrades to it.
#[derive(Debug, Clone)]
pub struct ModelExecutor {
    /// Fixed per-batch cost of the fused path, µs.
    pub fused_base_us: u64,
    /// Marginal per-request cost of the fused path, µs.
    pub fused_per_req_us: u64,
    /// Fixed per-batch cost of the bulk path, µs.
    pub bulk_base_us: u64,
    /// Marginal per-request cost of the bulk path, µs.
    pub bulk_per_req_us: u64,
    floor_us: u64,
}

impl ModelExecutor {
    /// A model with the given fused/bulk cost coefficients. The floor
    /// starts at the cost of a single-request fused batch — the smallest
    /// execution that can exist.
    pub fn new(
        fused_base_us: u64,
        fused_per_req_us: u64,
        bulk_base_us: u64,
        bulk_per_req_us: u64,
    ) -> ModelExecutor {
        ModelExecutor {
            fused_base_us,
            fused_per_req_us,
            bulk_base_us,
            bulk_per_req_us,
            floor_us: fused_base_us + fused_per_req_us,
        }
    }

    /// A shape used across the serving tests: fused 200 + 8n µs, bulk
    /// 400 + 5n µs (bulk wins beyond ~67 requests per batch).
    pub fn default_model() -> ModelExecutor {
        ModelExecutor::new(200, 8, 400, 5)
    }

    /// The modeled cost of a batch of `n` at `level`, µs.
    fn cost_us(&self, n: usize, level: DegradeLevel) -> u64 {
        match level {
            DegradeLevel::Bulk => self.bulk_base_us + self.bulk_per_req_us * n as u64,
            _ => self.fused_base_us + self.fused_per_req_us * n as u64,
        }
    }
}

impl BatchExecutor for ModelExecutor {
    fn execute(&mut self, batch: &[Request], budget_us: u64, level: DegradeLevel) -> ExecReport {
        let service_us = self.cost_us(batch.len(), level);
        self.floor_us = ewma_update(self.floor_us, service_us.min(self.floor_us * 4));
        ExecReport {
            service_us,
            within_budget: service_us <= budget_us,
        }
    }

    fn floor_us(&self) -> u64 {
        self.floor_us
    }
}

/// Real fused executions over a threaded [`ShmemWorld`].
///
/// Every closed batch maps onto one fused execution of the plan's fixed
/// shape (static shapes, as a real inference engine pads to); the batch's
/// inputs come from a [`BatchGenerator`] reseeded by `(seed, batch
/// counter)` so every execution pools distinct data. The deadline budget
/// flows into the drain through [`FusedPlan::execute_deadline`]; at
/// [`DegradeLevel::Bulk`] the operator instead pools host-side and ships
/// one bulk [`AllToAllPlan`] round — the paper's baseline path, traded in
/// when sustained saturation makes overlap machinery a liability.
pub struct FusedExecutor {
    cfg: DlrmConfig,
    world: ShmemWorld,
    plan: FusedPlan,
    bulk: AllToAllPlan<f32>,
    /// One workspace per PE for the bulk path's host-side pooling loop.
    bulk_workspaces: Workspaces,
    tables: Vec<EmbeddingTable>,
    seed: u64,
    exec: u64,
    bulk_round: u64,
    floor_us: u64,
    /// Causal context of the batch being executed, installed as the PE
    /// threads' ambient so slice PUTs trace back to the serving batch.
    ctx: TraceCtx,
}

impl FusedExecutor {
    /// Builds the world + plans for `cfg` and runs two warm-up executions
    /// to calibrate the floor. `slice_embeddings` is the fused plan's
    /// slice width; `p2p_groups` as in [`ShmemWorld::with_p2p_groups`].
    pub fn new(
        cfg: &DlrmConfig,
        slice_embeddings: usize,
        p2p_groups: Option<Vec<u32>>,
        seed: u64,
    ) -> FusedExecutor {
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, cfg, slice_embeddings);
        let per_pair = cfg.local_batch() * cfg.tables_per_pe * cfg.dim;
        let bulk = AllToAllPlan::plan(&mut layout, cfg.n_pes, per_pair);
        let mut world = ShmemWorld::new(cfg.n_pes, layout);
        if let Some(groups) = p2p_groups {
            world = world.with_p2p_groups(groups);
        }
        plan.prewarm(cfg.n_pes * 4);
        let bulk_workspaces = Workspaces::sized(cfg.n_pes, 1, 0, cfg.pooling, per_pair);
        let tables = reference::build_tables(cfg);
        let mut ex = FusedExecutor {
            cfg: cfg.clone(),
            world,
            plan,
            bulk,
            bulk_workspaces,
            tables,
            seed,
            exec: 0,
            bulk_round: 0,
            floor_us: 0,
            ctx: TraceCtx::NONE,
        };
        // Warm-up: the first unbudgeted fused execution faults in
        // scratch, rings and thread stacks, so it can read tens of times
        // high; the floor is calibrated from the faster of it and a second,
        // warm one. A floor above the SLO is absorbing — every request is
        // shed as hopeless before an execution could correct it.
        let cold = ex.run_fused(u64::MAX).1;
        let warm = ex.run_fused(u64::MAX).1;
        ex.floor_us = cold.min(warm).max(1);
        ex
    }

    /// Current fused-execution counter (1-based, monotonic).
    pub fn executions(&self) -> u64 {
        self.exec
    }

    /// Enables protocol tracing on the underlying [`ShmemWorld`] so every
    /// slice PUT / flag publish carries the batch's [`TraceCtx`]. Call
    /// after [`FusedExecutor::new`] (the warm-up executions stay
    /// untraced) and drain with [`FusedExecutor::take_trace_timed`].
    pub fn with_world_trace(mut self) -> FusedExecutor {
        self.world = self.world.with_trace();
        self
    }

    /// Drains the timestamped protocol event log accumulated since the
    /// last call (empty unless built with
    /// [`FusedExecutor::with_world_trace`]).
    pub fn take_trace_timed(&mut self) -> Vec<fcc_shmem::TimedEvent> {
        self.world.take_trace_timed()
    }

    fn batch_gen(&self) -> BatchGenerator {
        // Reseed per execution so every batch pools distinct inputs.
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.exec);
        BatchGenerator::new(key, self.cfg.table_rows, self.cfg.pooling)
    }

    /// One fused execution with `budget_us` of drain budget; returns
    /// (all PEs within budget, measured µs).
    fn run_fused(&mut self, budget_us: u64) -> (bool, u64) {
        self.exec += 1;
        let gen = self.batch_gen();
        let budget = std::time::Duration::from_micros(budget_us);
        let cfg = &self.cfg;
        let tables = &self.tables;
        let plan = &self.plan;
        let exec = self.exec;
        let cause = self.ctx;
        let start = Instant::now();
        let oks = self.world.run_collect(|ctx| {
            let _ctx_guard = fcc_shmem::scoped_ctx(cause);
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute_deadline(
                ctx,
                local,
                &gen,
                PoolingMode::Sum,
                ScheduleKind::CommAware,
                exec,
                budget,
            )
            .is_ok()
        });
        let us = (start.elapsed().as_micros() as u64).max(1);
        (oks.iter().all(|&ok| ok), us)
    }

    /// One bulk-path execution: pool host-side into per-destination
    /// chunks, one All-to-All round, scatter into the fused output
    /// layout. Host-initiated, so there is no drain to budget — lateness
    /// shows up purely in the measured service time.
    fn run_bulk(&mut self) -> u64 {
        self.exec += 1;
        self.bulk_round += 1;
        let gen = self.batch_gen();
        let cfg = &self.cfg;
        let tables = &self.tables;
        let plan = &self.plan;
        let bulk = &self.bulk;
        let workspaces = &self.bulk_workspaces;
        let round = self.bulk_round;
        let (dim, tpp) = (cfg.dim, cfg.tables_per_pe);
        let local_batch = cfg.local_batch();
        let per_pair = local_batch * tpp * dim;
        let cause = self.ctx;
        let start = Instant::now();
        self.world.run(|ctx| {
            let _ctx_guard = fcc_shmem::scoped_ctx(cause);
            let me = ctx.me();
            let local = &tables[me * tpp..(me + 1) * tpp];
            // Chunk p holds my pooled vectors for p's batch shard, laid
            // out [sample][local table][dim].
            let mut ws = workspaces.borrow(me, 0);
            let ws: &mut Workspace = &mut ws;
            let chunk = fit(&mut ws.payload, per_pair);
            for p in 0..ctx.n_pes() {
                for si in 0..local_batch {
                    let sample = p * local_batch + si;
                    for (lt, table) in local.iter().enumerate() {
                        gen.bag_into(me * tpp + lt, sample, &mut ws.bag);
                        table.pool_into(
                            &ws.bag,
                            PoolingMode::Sum,
                            &mut chunk[(si * tpp + lt) * dim..][..dim],
                        );
                    }
                }
                ctx.put(bulk.src, p * per_pair, chunk, me);
            }
            bulk.execute(ctx, round);
            // Scatter into the fused output layout, one source at a time
            // through the same buffer, so either path leaves the same
            // tensor behind.
            let total_tables = ctx.n_pes() * tpp;
            for src in 0..ctx.n_pes() {
                ctx.get(chunk, bulk.dst, src * per_pair, me);
                for si in 0..local_batch {
                    for lt in 0..tpp {
                        let vector = &chunk[(si * tpp + lt) * dim..][..dim];
                        let off = si * total_tables * dim + (src * tpp + lt) * dim;
                        ctx.put(plan.output, off, vector, me);
                    }
                }
            }
        });
        (start.elapsed().as_micros() as u64).max(1)
    }
}

/// Measured service times above this multiple of the EWMA floor are
/// treated as wall-clock measurement noise, not workload: one OS
/// preemption during a ~100µs execution reads as a ~100× service spike,
/// and feeding that raw number into the virtual timeline stalls every
/// queued request behind a hiccup the modeled system never had. A
/// *sustained* slowdown raises the floor itself within a few executions
/// and stays fully visible; only isolated spikes are clipped.
const NOISE_CLAMP: u64 = 8;

impl BatchExecutor for FusedExecutor {
    fn execute(&mut self, _batch: &[Request], budget_us: u64, level: DegradeLevel) -> ExecReport {
        let (within_budget, raw_us) = match level {
            DegradeLevel::Bulk => {
                let us = self.run_bulk();
                (us <= budget_us, us)
            }
            _ => self.run_fused(budget_us),
        };
        let service_us = raw_us.min(self.floor_us.saturating_mul(NOISE_CLAMP).max(1));
        self.floor_us = ewma_update(self.floor_us, service_us);
        ExecReport {
            service_us,
            within_budget,
        }
    }

    fn floor_us(&self) -> u64 {
        self.floor_us
    }

    fn execute_ctx(
        &mut self,
        batch: &[Request],
        budget_us: u64,
        level: DegradeLevel,
        ctx: TraceCtx,
    ) -> ExecReport {
        self.ctx = ctx;
        let report = self.execute(batch, budget_us, level);
        self.ctx = TraceCtx::NONE;
        report
    }
}

impl std::fmt::Debug for FusedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedExecutor")
            .field("pes", &self.cfg.n_pes)
            .field("exec", &self.exec)
            .field("floor_us", &self.floor_us)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn reqs(n: usize) -> Vec<Request> {
        (0..n as u64)
            .map(|id| Request {
                id,
                user: id,
                arrival_us: 0,
                deadline_us: 1_000_000,
                priority: Priority::Normal,
            })
            .collect()
    }

    fn tiny_cfg() -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(2, 8, 2);
        cfg.table_rows = 64;
        cfg.dim = 16;
        cfg.pooling = 4;
        cfg
    }

    #[test]
    fn model_costs_are_affine_and_cross_over() {
        let m = ModelExecutor::default_model();
        assert_eq!(m.cost_us(10, DegradeLevel::Normal), 280);
        assert_eq!(m.cost_us(10, DegradeLevel::Bulk), 450);
        // Bulk wins at large batches.
        assert!(m.cost_us(100, DegradeLevel::Bulk) < m.cost_us(100, DegradeLevel::Normal));
    }

    #[test]
    fn model_floor_tracks_service_times() {
        let mut m = ModelExecutor::default_model();
        let before = m.floor_us();
        for _ in 0..16 {
            m.execute(&reqs(32), 10_000, DegradeLevel::Normal);
        }
        assert!(m.floor_us() > before, "floor should rise toward batch cost");
        let r = m.execute(&reqs(32), 100, DegradeLevel::Normal);
        assert!(!r.within_budget, "456us cannot fit a 100us budget");
    }

    #[test]
    fn fused_executor_runs_and_calibrates_floor() {
        let cfg = tiny_cfg();
        let mut ex = FusedExecutor::new(&cfg, 2, Some(vec![0, 1]), 42);
        assert!(ex.floor_us() >= 1);
        let r = ex.execute(&reqs(4), 5_000_000, DegradeLevel::Normal);
        assert!(r.within_budget, "5s budget must hold for a tiny config");
        assert_eq!(ex.executions(), 3); // two warm-ups + this one
    }

    #[test]
    fn fused_and_bulk_paths_produce_identical_output() {
        // Same exec counter => same generator => the bulk path must leave
        // the exact tensor the fused path would have.
        let cfg = tiny_cfg();
        let mut fused = FusedExecutor::new(&cfg, 2, Some(vec![0, 1]), 7);
        let mut bulk = FusedExecutor::new(&cfg, 2, Some(vec![0, 1]), 7);
        fused.execute(&reqs(4), 5_000_000, DegradeLevel::Normal);
        bulk.execute(&reqs(4), 5_000_000, DegradeLevel::Bulk);
        for pe in 0..cfg.n_pes {
            let a = fused.world.read(pe, fused.plan.output);
            let b = bulk.world.read(pe, bulk.plan.output);
            assert_eq!(a, b, "pe {pe}: bulk output diverged from fused");
        }
    }
}
