//! Differential conformance cases: one per operator variant.
//!
//! A [`ProtocolCase`] builds a fresh world with tracing on, optionally
//! installs a [`DeliveryOrder`] as the policy on the delivery rings, runs
//! the operator once, and bit-compares every destination's output
//! against the sequential unfused reference. The returned [`CaseRun`]
//! carries the protocol trace (for [`crate::check_trace`]), the realized
//! schedule signature (for distinct-schedule counting) and the
//! deterministic put-key set (the exhaustive explorer's decision
//! dimensions); with no order installed nothing is logged, so the
//! signature is 0 and the key set empty.
//!
//! Shapes are public fields so property tests can randomize them; the
//! defaults from [`standard_cases`] are the smallest shapes that still
//! exercise multi-slice, multi-destination traffic. Unless a case is
//! about the zero-copy path, every PE is placed in its own P2P group so
//! all cross-PE puts take the deferrable network path.
//!
//! Every operator variant also carries a *steal* dimension
//! ([`ProtocolCase::run_with_steal`]): a seeded
//! [`StealPolicy`](fcc_core::StealPolicy) overriding how the plan's task
//! loop maps onto persistent WGs. [`crate::explore_steal`] walks that
//! dimension the same way [`crate::explore`] walks delivery orders.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fcc_core::ext::allgather_gemm::{reference_gemm, AllGatherGemmPlan};
use fcc_core::ext::backward_fused::{reference_backward, BackwardFusedPlan};
use fcc_core::ext::moe::{reference_moe, MoePlan};
use fcc_core::op::elastic::ElasticFusedPlan;
use fcc_core::op::generic::{FusedProducer, GenericFusedPlan};
use fcc_core::op::reference;
use fcc_core::op::resilient::ResilientFusedPlan;
use fcc_core::{
    FusedPlan, RecoveryBoard, RecoveryCounters, RecoveryPolicy, ScheduleKind, StealPolicy, TeamView,
};
use fcc_dlrm::{DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_net::FaultPlan;
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{
    DeliveryOrder, FailureDetector, PutKey, ShmemWorld, TimedEvent, TraceCtx, TraceEvent,
};

use crate::invariants::CheckConfig;

/// Everything one schedule-exploration run of a case produces.
pub struct CaseRun {
    /// Stable signature of the realized delivery schedule.
    pub signature: u64,
    /// Deterministic, sorted network-put key set of the program.
    pub put_keys: Vec<PutKey>,
    /// The protocol event trace, for the invariant checker.
    pub trace: Vec<TraceEvent>,
    /// The same trace with timestamps and causal contexts, for the
    /// causal-coverage checker ([`crate::check_ctx_trace`]).
    pub timed: Vec<TimedEvent>,
    /// `Some(description)` when any destination's output diverged from
    /// the unfused reference.
    pub mismatch: Option<String>,
}

/// One operator variant, runnable with or without a delivery order.
pub trait ProtocolCase: Send + Sync {
    /// Variant and shape, e.g. `fused/p4`.
    fn name(&self) -> String;

    /// Invariant configuration appropriate for this protocol family.
    fn check_config(&self) -> CheckConfig {
        CheckConfig::default()
    }

    /// The root context every causal send of a run must resolve to, for
    /// the causal-coverage checker. All operator cases execute once with
    /// `exec = 1` and no ambient context, so the operators mint
    /// `TraceCtx::step(1)`. `None` opts a case out — the deliberately
    /// broken cases issue raw puts with no operator (hence no minted
    /// context) and would be convicted as orphans by design.
    fn expected_ctx_root(&self) -> Option<TraceCtx> {
        Some(TraceCtx::step(1))
    }

    /// Runs the operator once and diffs it against the reference.
    ///
    /// With `Some(order)` that order decides which network puts stay in
    /// the delivery rings until the issuer's next ordering point
    /// (schedule exploration). With `None` every slot-sized put does —
    /// production's configuration, where the adversary is real
    /// cross-thread timing instead of a modeled schedule.
    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun;

    /// Like [`run_with`](Self::run_with), with the plan's work-stealing
    /// policy overridden when `steal` is `Some` — the second exploration
    /// dimension ([`crate::explore_steal`]) alongside the delivery
    /// order. The default ignores the override: the deliberately broken
    /// cases issue raw puts with no operator plan, hence no steal knob.
    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let _ = steal;
        self.run_with(order)
    }

    /// Number of tasks the variant's steal-schedulable loop issues per
    /// PE — the positional size of its seeded steal-schedule space. `0`
    /// opts a case out of steal exploration (no operator plan, no task
    /// loop).
    fn steal_tasks(&self) -> usize {
        0
    }

    /// Runs under an installed delivery order.
    fn run(&self, order: Arc<dyn DeliveryOrder>) -> CaseRun {
        self.run_with(Some(order))
    }
}

/// Every PE in its own group: all cross-PE traffic is network traffic.
fn internode_groups(n_pes: usize) -> Vec<u32> {
    (0..n_pes as u32).collect()
}

/// Installs `order` when present.
fn with_order(world: ShmemWorld, order: Option<Arc<dyn DeliveryOrder>>) -> ShmemWorld {
    match order {
        Some(order) => world.with_delivery_order(order),
        None => world,
    }
}

fn finish(world: &mut ShmemWorld, mismatch: Option<String>) -> CaseRun {
    let timed = world.take_trace_timed();
    CaseRun {
        signature: world.schedule_signature().unwrap_or(0),
        put_keys: world.put_keys(),
        trace: timed.iter().map(|t| t.event.clone()).collect(),
        timed,
        mismatch,
    }
}

fn diff_exact(name: &str, dst: usize, got: &[f32], want: &[f32]) -> Option<String> {
    (got != want).then(|| {
        let at = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len());
        format!("{name}: dst {dst} diverged from the reference at element {at}")
    })
}

fn diff_approx(name: &str, dst: usize, got: &[f32], want: &[f32]) -> Option<String> {
    got.iter()
        .zip(want)
        .position(|(a, b)| (a - b).abs() > 1e-5)
        .map(|at| format!("{name}: dst {dst} diverged from the reference at element {at}"))
}

/// The paper's DLRM fused operator ([`FusedPlan`]) on an all-internode
/// topology.
pub struct FusedCase {
    /// Number of PEs.
    pub n_pes: usize,
    /// Global batch size (must divide by `n_pes`).
    pub batch: usize,
    /// Tables owned per PE.
    pub tables_per_pe: usize,
    /// Embeddings per communication slice.
    pub slice_embeddings: usize,
}

/// The DLRM shape of the fused, zero-copy, resilient and backward cases.
fn dlrm_cfg(n_pes: usize, batch: usize, tables_per_pe: usize) -> DlrmConfig {
    let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
    cfg.table_rows = 64;
    cfg.dim = 8;
    cfg.pooling = 4;
    cfg
}

impl ProtocolCase for FusedCase {
    fn name(&self) -> String {
        format!("fused/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One logical WG per (owned table, global sample).
        self.tables_per_pe * self.batch
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let cfg = dlrm_cfg(self.n_pes, self.batch, self.tables_per_pe);
        let (slice, groups) = (self.slice_embeddings, internode_groups(self.n_pes));
        run_fused(&self.name(), &cfg, slice, groups, order, steal)
    }
}

/// Runs [`FusedPlan`] once on a world with `groups` as its P2P groups and
/// diffs every destination against the reference.
fn run_fused(
    name: &str,
    cfg: &DlrmConfig,
    slice_embeddings: usize,
    groups: Vec<u32>,
    order: Option<Arc<dyn DeliveryOrder>>,
    steal: Option<StealPolicy>,
) -> CaseRun {
    let mut layout = HeapLayout::new();
    let mut plan = FusedPlan::plan(&mut layout, cfg, slice_embeddings);
    if let Some(policy) = steal {
        plan.set_steal(policy);
    }
    let world = ShmemWorld::new(cfg.n_pes, layout)
        .with_p2p_groups(groups)
        .with_trace();
    let mut world = with_order(world, order);
    let tables = reference::build_tables(cfg);
    let gen = reference::build_generator(cfg);
    world.run(|ctx| {
        let me = ctx.me();
        let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
        plan.execute(
            ctx,
            local,
            &gen,
            PoolingMode::Sum,
            ScheduleKind::CommAware,
            1,
        );
    });
    let mut mismatch = None;
    for dst in 0..cfg.n_pes {
        let want = reference::expected_output(cfg, &tables, &gen, PoolingMode::Sum, dst);
        let got = world.read(dst, plan.output);
        mismatch = mismatch.or_else(|| diff_exact(name, dst, &got, &want));
    }
    finish(&mut world, mismatch)
}

/// The intra-node zero-copy operator: [`FusedPlan`] on one fully
/// connected node, one slice per (table, destination). All traffic is
/// P2P, so the explorable surface is the `WG_Done` RMW interleaving, not
/// put deferral.
pub struct ZeroCopyCase {
    /// Number of PEs (one fully connected node).
    pub n_pes: usize,
    /// Global batch size.
    pub batch: usize,
    /// Tables owned per PE.
    pub tables_per_pe: usize,
}

impl ProtocolCase for ZeroCopyCase {
    fn name(&self) -> String {
        format!("zerocopy/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One logical WG per (owned table, global sample).
        self.tables_per_pe * self.batch
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let cfg = dlrm_cfg(self.n_pes, self.batch, self.tables_per_pe);
        let groups = vec![0; self.n_pes];
        run_fused(&self.name(), &cfg, cfg.local_batch(), groups, order, steal)
    }
}

/// All-to-all exchange driven through [`GenericFusedPlan`]: PE `me`'s
/// item `i` goes to PE `i / per_peer`, landing in the source-indexed
/// block of the destination's output.
struct Exchange {
    n_pes: usize,
    per_peer: usize,
    dim: usize,
}

impl Exchange {
    fn value(&self, me: usize, item: usize, k: usize) -> f32 {
        (me * 100_000 + item * 100 + k) as f32 * 0.5
    }
}

impl FusedProducer for Exchange {
    fn dim(&self) -> usize {
        self.dim
    }
    fn num_items(&self, _me: usize) -> usize {
        self.n_pes * self.per_peer
    }
    fn output_len(&self) -> usize {
        self.n_pes * self.per_peer * self.dim
    }
    fn destination(&self, me: usize, item: usize) -> (usize, usize) {
        let dst = item / self.per_peer;
        let slot = item % self.per_peer;
        (dst, (me * self.per_peer + slot) * self.dim)
    }
    fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
        for (k, v) in out.iter_mut().enumerate() {
            *v = self.value(me, item, k);
        }
    }
}

/// The producer-parameterized operator ([`GenericFusedPlan`]) running an
/// all-to-all exchange across nodes.
pub struct GenericCase {
    /// Number of PEs.
    pub n_pes: usize,
    /// Items each PE sends to each peer.
    pub per_peer: usize,
    /// Items per communication slice.
    pub items_per_slice: usize,
}

impl ProtocolCase for GenericCase {
    fn name(&self) -> String {
        format!("generic/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One task per produced item (the slice loop flattens to items).
        self.n_pes * self.per_peer
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let producer = Exchange {
            n_pes: self.n_pes,
            per_peer: self.per_peer,
            dim: 6,
        };
        let mut layout = HeapLayout::new();
        let mut plan =
            GenericFusedPlan::plan(&mut layout, self.n_pes, &producer, self.items_per_slice);
        if let Some(policy) = steal {
            plan.set_steal(policy);
        }
        let world = ShmemWorld::new(self.n_pes, layout)
            .with_p2p_groups(internode_groups(self.n_pes))
            .with_trace();
        let mut world = with_order(world, order);
        world.run(|ctx| plan.execute(ctx, &producer, 1));
        let mut mismatch = None;
        for dst in 0..self.n_pes {
            let got = world.read(dst, plan.output);
            let mut want = vec![0.0f32; producer.output_len()];
            for src in 0..self.n_pes {
                for slot in 0..self.per_peer {
                    let item = dst * self.per_peer + slot;
                    let off = (src * self.per_peer + slot) * producer.dim;
                    for k in 0..producer.dim {
                        want[off + k] = producer.value(src, item, k);
                    }
                }
            }
            mismatch = mismatch.or_else(|| diff_exact(&self.name(), dst, &got, &want));
        }
        finish(&mut world, mismatch)
    }
}

/// One full-team round of the elastic operator ([`ElasticFusedPlan`]):
/// scatter + drain under the founding view, heartbeats running.
pub struct ElasticCase {
    /// Number of PEs.
    pub n_pes: usize,
    /// Global batch size.
    pub batch: usize,
    /// Tables owned per PE.
    pub tables_per_pe: usize,
    /// Embeddings per communication slice.
    pub slice_embeddings: usize,
}

impl ElasticCase {
    fn cfg(&self) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(self.n_pes, self.batch, self.tables_per_pe);
        cfg.table_rows = 64;
        cfg.dim = 4;
        cfg.pooling = 3;
        cfg
    }
}

impl ProtocolCase for ElasticCase {
    fn name(&self) -> String {
        format!("elastic/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One task per scatter job of the founding view (the steal order
        // only applies without a crash limit, which is how this case
        // runs).
        let cfg = self.cfg();
        let mut layout = HeapLayout::new();
        let plan = ElasticFusedPlan::plan(&mut layout, &cfg, self.slice_embeddings);
        let view = TeamView::founding(cfg.n_pes);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);
        plan.jobs_for(0, &view, &assignment).len()
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let cfg = self.cfg();
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, cfg.n_pes);
        let mut plan = ElasticFusedPlan::plan(&mut layout, &cfg, self.slice_embeddings);
        if let Some(policy) = steal {
            plan.set_steal(policy);
        }
        let world = ShmemWorld::new(cfg.n_pes, layout)
            .with_p2p_groups(internode_groups(cfg.n_pes))
            .with_trace();
        let mut world = with_order(world, order);
        let all = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let view = TeamView::founding(cfg.n_pes);
        let assignment = ElasticFusedPlan::assignment_for(&cfg, &view);
        world.run(|ctx| {
            let detector = FailureDetector::new(cfg.n_pes, Duration::from_secs(5));
            let mine: HashMap<usize, EmbeddingTable> = assignment[ctx.me()]
                .iter()
                .map(|&t| (t, all[t].clone()))
                .collect();
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
            .expect("full team: nobody dies");
        });
        let mut mismatch = None;
        for dst in 0..cfg.n_pes {
            let want = reference::expected_output(&cfg, &all, &gen, PoolingMode::Sum, dst);
            let got = world.read(dst, plan.output);
            mismatch = mismatch.or_else(|| diff_exact(&self.name(), dst, &got, &want));
        }
        finish(&mut world, mismatch)
    }
}

/// A fault-free execution of the resilient operator
/// ([`ResilientFusedPlan`]): must match the reference *and* must not
/// degrade to the bulk fallback.
pub struct ResilientCase {
    /// Number of PEs.
    pub n_pes: usize,
    /// Global batch size.
    pub batch: usize,
    /// Tables owned per PE.
    pub tables_per_pe: usize,
    /// Embeddings per communication slice.
    pub slice_embeddings: usize,
}

impl ProtocolCase for ResilientCase {
    fn name(&self) -> String {
        format!("resilient/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // Same task loop as the fused operator it wraps.
        self.tables_per_pe * self.batch
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let cfg = dlrm_cfg(self.n_pes, self.batch, self.tables_per_pe);
        let mut layout = HeapLayout::new();
        let mut plan = ResilientFusedPlan::plan(
            &mut layout,
            &cfg,
            self.slice_embeddings,
            RecoveryPolicy::default(),
        );
        if let Some(policy) = steal {
            plan.set_steal(policy);
        }
        let world = ShmemWorld::new(cfg.n_pes, layout)
            .with_p2p_groups(internode_groups(cfg.n_pes))
            .with_trace();
        let mut world = with_order(world, order);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let faults = FaultPlan::new(1);
        let counters = RecoveryCounters::new();
        let degraded = world.run_collect(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute(
                ctx,
                local,
                &gen,
                PoolingMode::Sum,
                ScheduleKind::CommAware,
                1,
                &faults,
                &counters,
            )
        });
        let mut mismatch = degraded
            .iter()
            .position(|&d| d)
            .map(|pe| format!("{}: PE {pe} degraded on a fault-free run", self.name()));
        for dst in 0..cfg.n_pes {
            let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
            let got = world.read(dst, plan.output());
            mismatch = mismatch.or_else(|| diff_exact(&self.name(), dst, &got, &want));
        }
        finish(&mut world, mismatch)
    }
}

/// The fused MoE dispatch/combine extension ([`MoePlan`]).
pub struct MoeCase {
    /// Number of PEs (= experts).
    pub n_pes: usize,
    /// Tokens routed per (source, expert) pair.
    pub tokens_per_pair: usize,
    /// Token embedding width.
    pub dim: usize,
}

impl ProtocolCase for MoeCase {
    fn name(&self) -> String {
        format!("moe/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One task per token row, in each of the two exchanges.
        self.n_pes * self.tokens_per_pair
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let chunk = self.tokens_per_pair * self.dim;
        let mut layout = HeapLayout::new();
        let mut plan = MoePlan::plan(&mut layout, self.n_pes, self.tokens_per_pair, self.dim);
        if let Some(policy) = steal {
            plan.set_steal(policy);
        }
        let world = ShmemWorld::new(self.n_pes, layout)
            .with_p2p_groups(internode_groups(self.n_pes))
            .with_trace();
        let mut world = with_order(world, order);
        let inputs: Vec<Vec<f32>> = (0..self.n_pes)
            .map(|pe| {
                (0..self.n_pes * chunk)
                    .map(|i| (pe * 1000 + i) as f32 * 0.01)
                    .collect()
            })
            .collect();
        world.run(|ctx| plan.execute(ctx, &inputs[ctx.me()], 1));
        let want = reference_moe(&inputs, self.tokens_per_pair, self.dim);
        let mut mismatch = None;
        for (pe, want_pe) in want.iter().enumerate() {
            let got = world.read(pe, plan.combined);
            mismatch = mismatch.or_else(|| diff_approx(&self.name(), pe, &got, want_pe));
        }
        finish(&mut world, mismatch)
    }
}

/// The fused allgather-GEMM extension ([`AllGatherGemmPlan`]).
pub struct AllGatherGemmCase {
    /// Number of PEs.
    pub n_pes: usize,
    /// GEMM reduction width.
    pub in_dim: usize,
    /// Output rows per PE's weight shard.
    pub rows_per_pe: usize,
    /// Local activation batch per PE.
    pub batch: usize,
}

impl ProtocolCase for AllGatherGemmCase {
    fn name(&self) -> String {
        format!("allgather-gemm/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One task per (destination PE, shard row).
        self.n_pes * self.rows_per_pe
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        let total_out = self.n_pes * self.rows_per_pe;
        let mut layout = HeapLayout::new();
        let mut plan = AllGatherGemmPlan::plan(&mut layout, self.n_pes, self.in_dim, total_out);
        if let Some(policy) = steal {
            plan.set_steal(policy);
        }
        let world = ShmemWorld::new(self.n_pes, layout)
            .with_p2p_groups(internode_groups(self.n_pes))
            .with_trace();
        let mut world = with_order(world, order);
        let shards: Vec<Vec<f32>> = (0..self.n_pes)
            .map(|pe| {
                (0..self.rows_per_pe * self.in_dim)
                    .map(|i| (pe * 31 + i) as f32 * 0.125)
                    .collect()
            })
            .collect();
        let xs: Vec<Vec<Vec<f32>>> = (0..self.n_pes)
            .map(|pe| {
                (0..self.batch)
                    .map(|b| {
                        (0..self.in_dim)
                            .map(|i| (pe + b * 7 + i) as f32 * 0.25)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let outputs =
            world.run_collect(|ctx| plan.execute(ctx, &shards[ctx.me()], &xs[ctx.me()], 1));
        let mut mismatch = None;
        for pe in 0..self.n_pes {
            let want = reference_gemm(&shards, self.in_dim, &xs[pe]);
            for (b, (got, want)) in outputs[pe].iter().zip(&want).enumerate() {
                mismatch = mismatch.or_else(|| diff_approx(&self.name(), pe * 100 + b, got, want));
            }
        }
        finish(&mut world, mismatch)
    }
}

/// The fused backward operator ([`BackwardFusedPlan`]): gradient rows
/// return to their table owners, whose SGD step consumes each on arrival.
pub struct BackwardCase {
    /// Number of PEs.
    pub n_pes: usize,
    /// Global batch size (must divide by `n_pes`).
    pub batch: usize,
    /// Tables owned per PE.
    pub tables_per_pe: usize,
    /// Gradient rows per communication slice.
    pub slice_embeddings: usize,
}

impl ProtocolCase for BackwardCase {
    fn name(&self) -> String {
        format!("backward/p{}", self.n_pes)
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        self.run_with_steal(order, None)
    }

    fn steal_tasks(&self) -> usize {
        // One task per (global table, local sample): the plan's items.
        self.tables_per_pe * self.batch
    }

    fn run_with_steal(
        &self,
        order: Option<Arc<dyn DeliveryOrder>>,
        steal: Option<StealPolicy>,
    ) -> CaseRun {
        const LR: f32 = 0.05;
        let cfg = dlrm_cfg(self.n_pes, self.batch, self.tables_per_pe);
        let tpp = cfg.tables_per_pe;
        let mut layout = HeapLayout::new();
        let mut plan = BackwardFusedPlan::plan(&mut layout, &cfg, self.slice_embeddings);
        if let Some(policy) = steal {
            plan.set_steal(policy);
        }
        let world = ShmemWorld::new(cfg.n_pes, layout)
            .with_p2p_groups(internode_groups(cfg.n_pes))
            .with_trace();
        let mut world = with_order(world, order);
        let mut want = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let grad_len = cfg.local_batch() * cfg.n_pes * tpp * cfg.dim;
        let grads: Vec<Vec<f32>> = (0..cfg.n_pes)
            .map(|pe| {
                (0..grad_len)
                    .map(|i| ((pe * 31 + i) % 17) as f32 * 0.01 - 0.08)
                    .collect()
            })
            .collect();
        let shards: Vec<Mutex<Vec<EmbeddingTable>>> =
            want.chunks(tpp).map(|c| Mutex::new(c.to_vec())).collect();
        world.run(|ctx| {
            let me = ctx.me();
            let mut tables = shards[me].lock().expect("one PE per shard");
            plan.execute(ctx, &grads[me], &mut tables, &gen, PoolingMode::Sum, LR, 1);
        });
        reference_backward(&cfg, &mut want, &gen, PoolingMode::Sum, &grads, LR);
        let rows = |tables: &[EmbeddingTable]| -> Vec<f32> {
            tables
                .iter()
                .flat_map(|t| (0..t.rows() as u32).flat_map(move |r| t.row(r).to_vec()))
                .collect()
        };
        let mut mismatch = None;
        for (pe, shard) in shards.into_iter().enumerate() {
            let got = rows(&shard.into_inner().expect("one PE per shard"));
            let want = rows(&want[pe * tpp..(pe + 1) * tpp]);
            mismatch = mismatch.or_else(|| diff_approx(&self.name(), pe, &got, &want));
        }
        finish(&mut world, mismatch)
    }
}

/// A deliberately broken protocol: payload put, **no fence**, flag
/// store. The invariant checker must flag every schedule of this case
/// ([`crate::Violation::FlagBeforePayload`]), and under a deferring
/// order the payload genuinely trails the flag. The negative tests pin
/// this — it is the checker's own regression case.
pub struct UnfencedFlagCase;

impl ProtocolCase for UnfencedFlagCase {
    fn name(&self) -> String {
        "buggy/unfenced-flag".into()
    }

    fn expected_ctx_root(&self) -> Option<TraceCtx> {
        None // raw puts, no operator: orphans by design
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        let mut layout = HeapLayout::new();
        let data = layout.alloc::<f32>(8);
        let ready = layout.alloc_flags(1);
        let world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_trace();
        let mut world = with_order(world, order);
        let payload = [4.0f32; 8];
        world.run(|ctx| {
            if ctx.me() == 0 {
                ctx.put(data, 0, &payload, 1);
                // BUG under test: the fence belongs here.
                ctx.flag_store(ready, 0, 1, 1);
            } else {
                ctx.wait_until(ready, 0, |v| v >= 1);
                // Reading `data` here would race the in-flight payload —
                // the precise hazard the missing fence creates. The
                // checker catches it from the trace instead.
            }
        });
        // Run end delivered everything, so the *final* state is correct;
        // only the trace betrays the bug.
        let got = world.read(1, data);
        let mismatch = (got != payload).then(|| format!("{}: payload lost entirely", self.name()));
        finish(&mut world, mismatch)
    }
}

/// A deliberately broken runtime: a corrupted network put, then a
/// consumer that spins on the raw flag and **bypasses the integrity
/// gate** before reading the payload. Whenever the corrupt put is
/// deferred — always with no order installed, and on every explored
/// schedule that defers it — the ring pop quarantines it, so the bypass
/// consumes stale bytes and the trace carries an
/// `IntegrityGate { consumed: true }` the checker must convict
/// ([`crate::Violation::PoisonConsumed`]). On a schedule that releases
/// the put the corrupt bytes land verbatim, and the differential diff
/// convicts it instead. The negative tests pin both convictions.
pub struct ChecksumBypassCase;

impl ProtocolCase for ChecksumBypassCase {
    fn name(&self) -> String {
        "buggy/checksum-bypass".into()
    }

    fn expected_ctx_root(&self) -> Option<TraceCtx> {
        None // raw puts, no operator: orphans by design
    }

    fn run_with(&self, order: Option<Arc<dyn DeliveryOrder>>) -> CaseRun {
        let mut layout = HeapLayout::new();
        let data = layout.alloc::<f32>(8);
        let ready = layout.alloc_flags(1);
        let world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_integrity()
            .with_trace();
        let mut world = with_order(world, order);
        let intended = [4.0f32; 8];
        world.run(|ctx| {
            if ctx.me() == 0 {
                // A link fault flips an element mid-flight; the sender's
                // claim is the checksum of what it *meant* to send (the
                // link-CRC analogue), so the ring pop quarantines it.
                let mut dirty = intended;
                dirty[3] = -4.0;
                // SAFETY: f32 has no padding; viewing its bytes is sound.
                let intended_bytes = unsafe {
                    std::slice::from_raw_parts(
                        intended.as_ptr() as *const u8,
                        std::mem::size_of_val(&intended),
                    )
                };
                let claim = fcc_shmem::checksum(intended_bytes);
                ctx.put_claiming(data, 0, &dirty, 1, claim);
                ctx.fence();
                ctx.flag_store(ready, 0, 1, 1);
            } else {
                // BUG under test: the honest runtime waits (which checks
                // the gate); this one spins on the raw flag and then
                // swallows the quarantine without surfacing it.
                while ctx.flag_load(ready, 0, ctx.me()) < 1 {
                    std::hint::spin_loop();
                }
                ctx.consume_unverified();
            }
        });
        let got = world.read(1, data);
        let mismatch = (got != intended)
            .then(|| format!("{}: consumer trusted unverified payload", self.name()));
        finish(&mut world, mismatch)
    }
}

/// The full conformance suite at `n_pes` PEs, smallest shapes that still
/// produce multi-slice, multi-destination traffic.
pub fn standard_cases(n_pes: usize) -> Vec<Box<dyn ProtocolCase>> {
    assert!(n_pes >= 2, "conformance needs at least two PEs");
    vec![
        Box::new(FusedCase {
            n_pes,
            batch: 2 * n_pes,
            tables_per_pe: 2,
            slice_embeddings: 2,
        }),
        Box::new(ZeroCopyCase {
            n_pes,
            batch: 2 * n_pes,
            tables_per_pe: 2,
        }),
        Box::new(GenericCase {
            n_pes,
            per_peer: 3,
            items_per_slice: 2,
        }),
        Box::new(ElasticCase {
            n_pes,
            batch: 2 * n_pes,
            tables_per_pe: 2,
            slice_embeddings: 3,
        }),
        Box::new(ResilientCase {
            n_pes,
            batch: 2 * n_pes,
            tables_per_pe: 2,
            slice_embeddings: 2,
        }),
        Box::new(MoeCase {
            n_pes,
            tokens_per_pair: 3,
            dim: 5,
        }),
        Box::new(AllGatherGemmCase {
            n_pes,
            in_dim: 6,
            rows_per_pe: 2,
            batch: 3,
        }),
        Box::new(BackwardCase {
            n_pes,
            batch: 2 * n_pes,
            tables_per_pe: 2,
            slice_embeddings: 2,
        }),
    ]
}
