//! Fault-tolerant execution of the fused operator.
//!
//! [`ResilientFusedPlan`] wraps [`FusedPlan`] with the recovery protocol
//! of a production collective:
//!
//! * **Sender-side bounded retry** — a slice PUT whose transmission
//!   attempt is lost (per the [`FaultPlan`]'s deterministic decision)
//!   backs off exponentially and re-issues, re-rolling the fault dice
//!   each attempt, exactly like a RoCE reliable connection retransmits.
//! * **Receiver-side timeouts** — the drain phase polls each `sliceRdy`
//!   flag with a deadline ([`PeCtx::wait_until_timeout`]) instead of
//!   spinning forever, re-polling a bounded number of times.
//! * **Graceful degradation** — when either side exhausts its retries
//!   (or a PE's GPU-initiated path is crashed outright), the execution is
//!   marked *degraded* on every PE. After an unconditional team barrier,
//!   all PEs abandon the fine-grained result and rebuild the entire
//!   output through the host-initiated bulk All-to-All baseline
//!   ([`AllToAllPlan`]) — losing the overlap win but never correctness.
//!
//! Agreement on degradation needs no consensus round: any PE that gives
//! up stores the execution index into a `degraded` flag on *all* PEs
//! before entering the barrier, and the barrier's full-fence semantics
//! publish those stores to everyone, so after the barrier every PE reads
//! the same verdict. Late deliveries are harmless — a delayed slice PUT
//! writes the same bytes the fallback rewrites.
//!
//! Every timeout, retry, delayed delivery, and fallback is counted in
//! [`RecoveryCounters`], so tests (and operators) can see recovery
//! happening rather than infer it.

use std::ops::ControlFlow;
use std::time::Duration;

use fcc_collectives::functional::AllToAllPlan;
use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_net::{CorruptEvent, FaultAction, FaultPlan};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{checksum, FlightKind, PeCtx, ShmemError, SymFlags, SymSlice};
use fcc_sim::SimTime;

use crate::op::fused::{EmbeddingProducer, FusedPlan};
use crate::op::generic::FusedProducer;
use crate::op::protocol::Slice;
use crate::progress::{RecoveryCounters, RecoveryPolicy};
use crate::schedule::ScheduleKind;
use crate::scratch::{fit, Workspace};

fn to_duration(t: SimTime) -> Duration {
    Duration::from_nanos(t.as_nanos())
}

/// Byte view of a pooled-vector slice, for checksumming.
fn f32_bytes(v: &[f32]) -> &[u8] {
    // SAFETY: any live &[f32] is a valid byte region of its own length.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

/// A [`FusedPlan`] with timeout, bounded retry, and a degraded-mode
/// fallback to the bulk All-to-All: the same task loop and drain, with
/// the fault ladder as their ship hook and wait closure.
#[derive(Debug)]
pub struct ResilientFusedPlan {
    inner: FusedPlan,
    cfg: DlrmConfig,
    /// Degradation verdict per execution: holds the highest `exec` any PE
    /// gave up on. Written to *all* PEs before the post-drain barrier, so
    /// the whole team agrees on the fallback decision.
    degraded: SymFlags,
    /// Fused (ABFT-style) slice checksums, one flag per `(src, slice)`
    /// pair mirroring `sliceRdy`'s indexing: the sender accumulates the
    /// checksum of the staged payload during its compute pass and
    /// publishes it here *before* the `sliceRdy` store, so a receiver
    /// that observes readiness can re-derive the checksum over what
    /// actually landed and catch corruption the wire CRC cannot see
    /// (stale replays, misroutes — self-consistent payloads).
    slice_sum: SymFlags,
    /// Per-PE count of fallbacks taken, which doubles as the monotonic
    /// round number the bulk collective requires. All PEs degrade
    /// together (barrier-enforced agreement), so every PE's count — and
    /// hence round — always matches.
    fallback_rounds: SymFlags,
    /// The host-initiated escape hatch: one bulk exchange moving each
    /// PE's whole embedding output, `{local_batch × tables_per_pe × dim}`
    /// per ordered pair.
    fallback: AllToAllPlan<f32>,
    policy: RecoveryPolicy,
}

/// What the ship hook and the wait closure share for one execution.
struct Attempt<'a> {
    ctx: &'a PeCtx<'a>,
    producer: &'a EmbeddingProducer<'a>,
    exec: u64,
    faults: &'a FaultPlan,
    counters: &'a RecoveryCounters,
}

impl ResilientFusedPlan {
    /// Allocates the fused plan plus recovery state in `layout`.
    pub fn plan(
        layout: &mut HeapLayout,
        cfg: &DlrmConfig,
        slice_embeddings: usize,
        policy: RecoveryPolicy,
    ) -> ResilientFusedPlan {
        let inner = FusedPlan::plan(layout, cfg, slice_embeddings);
        let per_pair = cfg.local_batch() * cfg.tables_per_pe * cfg.dim;
        let slice_sum = layout.alloc_flags(cfg.n_pes * inner.map().num_slices());
        ResilientFusedPlan {
            inner,
            cfg: cfg.clone(),
            slice_sum,
            degraded: layout.alloc_flags(1),
            fallback_rounds: layout.alloc_flags(1),
            fallback: AllToAllPlan::plan(layout, cfg.n_pes, per_pair),
            policy,
        }
    }

    /// The wrapped fault-oblivious plan.
    pub fn inner(&self) -> &FusedPlan {
        &self.inner
    }

    /// The output buffer handle (same layout as [`FusedPlan::output`]).
    pub fn output(&self) -> SymSlice<f32> {
        self.inner.output
    }

    /// The recovery policy in force.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Replaces the work-stealing policy on the wrapped plan.
    pub fn set_steal(&mut self, steal: crate::schedule::steal::StealPolicy) {
        self.inner.set_steal(steal);
    }

    /// Workspace re-allocations — zero growth across executions means the
    /// steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.inner.scratch_misses()
    }

    /// Pre-sizes the steal arena and the workspaces; see
    /// [`FusedPlan::prewarm`]. Payloads also cover what the fault ladder
    /// holds — a sending worker's slice beside its corrupt wire image, and
    /// one per-pair chunk of the degraded-mode fallback — so even a
    /// faulted run stays allocation-free after prewarming.
    pub fn prewarm(&self, concurrency: usize) {
        let _ = concurrency;
        let core = self.inner.core();
        core.prewarm(self.per_pair().max(2 * core.widest_payload()));
    }

    /// Elements one PE sends another in the bulk fallback.
    fn per_pair(&self) -> usize {
        self.cfg.local_batch() * self.cfg.tables_per_pe * self.cfg.dim
    }

    /// Marks execution `exec` degraded on every PE. Racing writers all
    /// store the same value, and executions are barrier-separated, so the
    /// flag is monotone and race-free.
    fn mark_degraded(&self, ctx: &PeCtx<'_>, exec: u64) {
        ctx.flight().record(
            FlightKind::Degrade,
            fcc_shmem::current_ctx(),
            ctx.me() as u64,
            exec,
        );
        for pe in 0..ctx.n_pes() {
            ctx.flag_store(self.degraded, 0, exec, pe);
        }
    }

    /// The ship hook: ships one staged slice under the fault plan —
    /// deliver, deliver late, or lose-and-retry with exponential backoff.
    /// On exhausting `max_retries` the execution is marked degraded
    /// instead of delivering.
    ///
    /// A `Delay` blocks the *sender* before the PUT (the wire holding the
    /// message), so every delivery still happens-before the sender's
    /// barrier entry — no write can race the fallback's rebuild.
    fn send_slice(&self, at: &Attempt<'_>, s: &Slice, ws: &mut Workspace) {
        let (ctx, exec, faults) = (at.ctx, at.exec, at.faults);
        let (me, dst) = (s.src as u32, s.dst as u32);
        // Fail-stop: the GPU-initiated path is dead, nothing we post
        // leaves this PE. Give up immediately rather than burning the
        // retry budget per slice.
        if faults.is_crashed(me, exec) {
            self.mark_degraded(ctx, exec);
            return;
        }
        let core = self.inner.core();

        // Stage the slice payload, as the fault-oblivious path does; the
        // workspace's second half is where a corrupted wire image is built.
        let len = s.len * self.cfg.dim;
        let (payload, dirty) = fit(&mut ws.payload, 2 * len).split_at_mut(len);
        core.staged(ctx, s, payload);
        let payload = &*payload;
        // The fused slice checksum, accumulated from the staged payload
        // the compute pass produced — whatever the wire later does to the
        // bytes, this is the sum of what the sender *meant* to ship.
        let sum = checksum(f32_bytes(payload));

        // A straggler PE is slow on every send.
        let straggle = faults.straggle(me);
        if straggle > SimTime::ZERO {
            std::thread::sleep(to_duration(straggle));
        }

        let mut attempt: u32 = 0;
        loop {
            match faults.decide(me, dst, s.index as u64, exec, attempt) {
                FaultAction::Drop => {
                    if !self.retry(at, s, &mut attempt) {
                        return;
                    }
                }
                FaultAction::Corrupt(ev) => {
                    at.counters.record_corruption();
                    ctx.flight().record(
                        FlightKind::Corruption,
                        fcc_shmem::current_ctx(),
                        ((me as u64) << 32) | dst as u64,
                        exec,
                    );
                    self.send_corrupted(at, s, payload, dirty, sum, ev);
                    if !ctx.integrity_enabled() {
                        // No wire checksum, no fused verify: nothing
                        // downstream can tell, so no NAK ever reaches this
                        // sender and the corruption lands silently.
                        return;
                    }
                    // The wire CRC (or the receiver's fused-checksum
                    // verify) rejects the transmission; go back and
                    // re-send the whole slice clean, like any NAK'd
                    // reliable stream — bounded like a drop.
                    if !self.retry(at, s, &mut attempt) {
                        return;
                    }
                }
                action => {
                    if let FaultAction::Delay(by) = action {
                        at.counters.record_delay();
                        std::thread::sleep(to_duration(by));
                    }
                    // `Duplicate` delivers once here: a duplicated RDMA
                    // write of identical bytes is invisible to the
                    // functional layer (the timed layer charges its wire
                    // cost instead).
                    core.put_rows(ctx, at.producer, s, payload);
                    ctx.fence();
                    // The fused checksum rides the rdy edge: stored after
                    // the payload fence, before the Release on `sliceRdy`
                    // that publishes both to the Acquiring receiver.
                    ctx.flag_store(self.slice_sum, s.flag, sum, s.dst);
                    core.publish(ctx, s, exec);
                    return;
                }
            }
        }
    }

    /// The bounded retry both lost and NAK'd transmissions take: back off
    /// and go around again, or — the budget exhausted — mark the
    /// execution degraded and return `false`.
    fn retry(&self, at: &Attempt<'_>, s: &Slice, attempt: &mut u32) -> bool {
        if *attempt >= self.policy.max_retries {
            self.mark_degraded(at.ctx, at.exec);
            return false;
        }
        at.counters.record_retry();
        at.ctx.flight().record(
            FlightKind::Retry,
            fcc_shmem::current_ctx(),
            ((s.src as u64) << 32) | s.dst as u64,
            *attempt as u64,
        );
        std::thread::sleep(self.policy.backoff(*attempt));
        *attempt += 1;
        true
    }

    /// Ships `payload` with `ev` applied to its wire image (built in
    /// `dirty`, as long as `payload`), row by row —
    /// each row is one ring message carrying its own wire checksum, so a
    /// wire-detectable kind presents corrupt bytes beside the checksum of
    /// the intended row (the pop quarantines it, the link-CRC analogue),
    /// while a self-consistent kind carries the checksum of the corrupt
    /// bytes themselves and sails through to the fused verify. A torn put
    /// loses its trailing rows outright. The *intended* slice checksum is
    /// still published beside `sliceRdy`: the sender accumulated it
    /// during compute, before the wire touched the bytes.
    fn send_corrupted(
        &self,
        at: &Attempt<'_>,
        s: &Slice,
        payload: &[f32],
        dirty: &mut [f32],
        sum: u64,
        ev: CorruptEvent,
    ) {
        let ctx = at.ctx;
        let core = self.inner.core();
        let dim = self.cfg.dim;
        dirty.copy_from_slice(payload);
        let byte_len = std::mem::size_of_val(payload);
        // SAFETY: dirty is a live &mut [f32]; every byte pattern is a
        // valid f32.
        let delivered = ev.apply(unsafe {
            std::slice::from_raw_parts_mut(dirty.as_mut_ptr() as *mut u8, byte_len)
        });
        let row_bytes = dim * std::mem::size_of::<f32>();
        for row in 0..s.len {
            let start = row * row_bytes;
            if start >= delivered {
                break; // torn off the wire: trailing rows were never sent
            }
            let sent_elems = ((delivered - start) / std::mem::size_of::<f32>()).min(dim);
            if sent_elems == 0 {
                break;
            }
            let sent = &dirty[row * dim..][..sent_elems];
            let claimed = if ev.kind.wire_detectable() {
                // The NIC computed the CRC over what it was handed — the
                // intended row — so the flipped/torn bytes mismatch it.
                checksum(f32_bytes(&payload[row * dim..][..dim]))
            } else {
                checksum(f32_bytes(sent))
            };
            let (_, off) = at.producer.destination(s.src, s.first_item + row);
            ctx.put_claiming(self.inner.output, off, sent, s.dst, claimed);
        }
        ctx.fence();
        // Same publication order as the clean path: sum after the fence,
        // before the rdy Release. The *intended* sum is published even
        // though the wire image was corrupted — exactly what a sender
        // unaware of the in-flight fault would do.
        ctx.flag_store(self.slice_sum, s.flag, sum, s.dst);
        core.publish(ctx, s, at.exec);
    }

    /// Recomputes the fused checksum over the rows `s` landed in this
    /// PE's output and compares against the sum published beside
    /// `sliceRdy`. On a mismatch, re-verifies with backoff — the sender's
    /// clean go-back-N re-put is already on its way — and on exhausting
    /// the budget marks the execution degraded. Returns whether the
    /// slice verified (or was repaired) in place.
    fn verify_slice(&self, at: &Attempt<'_>, s: &Slice, ws: &mut Workspace) -> bool {
        let (ctx, exec, counters) = (at.ctx, at.exec, at.counters);
        let me = ctx.me();
        let dim = self.cfg.dim;
        let landed = fit(&mut ws.payload, s.len * dim);
        let mut attempt: u32 = 0;
        let mut detected = false;
        loop {
            for (row, out) in landed.chunks_exact_mut(dim).enumerate() {
                let (_, off) = at.producer.destination(s.src, s.first_item + row);
                ctx.get(out, self.inner.output, off, me);
            }
            let want = ctx.flag_load(self.slice_sum, s.flag, me);
            if checksum(f32_bytes(landed)) == want {
                if detected {
                    counters.record_corrupt_repaired();
                }
                return true;
            }
            if detected {
                counters.record_reverify();
            } else {
                detected = true;
                counters.record_corrupt_detected();
                ctx.flight().record(
                    FlightKind::Corruption,
                    fcc_shmem::current_ctx(),
                    s.src as u64,
                    exec,
                );
            }
            // Someone else may already have called the run degraded; the
            // fallback rebuilds this slice anyway.
            if ctx.flag_load(self.degraded, 0, me) >= exec {
                return false;
            }
            if attempt >= self.policy.max_retries {
                self.mark_degraded(ctx, exec);
                return false;
            }
            std::thread::sleep(self.policy.backoff(attempt));
            attempt += 1;
        }
    }

    /// The wait closure: waits for `s` with deadlines, and on each timeout
    /// checks whether anyone has already called the run degraded before
    /// burning another retry. Exhausting the budget makes *this* PE the
    /// one that calls it. With the integrity layer on, each satisfied wait
    /// is also a detection point: wire-quarantine verdicts surface here,
    /// and every network slice is re-verified against its fused checksum
    /// before the drain accepts it. Breaks the drain once the execution is
    /// degraded. `ws` is the draining PE thread's workspace.
    fn await_slice(&self, at: &Attempt<'_>, s: &Slice, ws: &mut Workspace) -> ControlFlow<()> {
        let (ctx, exec, counters) = (at.ctx, at.exec, at.counters);
        let me = ctx.me();
        let network = s.src != me && !ctx.is_p2p(s.src);
        let mut attempt: u32 = 0;
        loop {
            let timeout = self.policy.slice_timeout;
            match self.inner.core().wait_ready_timeout(ctx, s, exec, timeout) {
                Ok(_) => {
                    let verify = network && ctx.integrity_enabled();
                    if verify && !self.verify_slice(at, s, ws) {
                        return ControlFlow::Break(());
                    }
                    return ControlFlow::Continue(());
                }
                Err(ShmemError::Corruption { .. }) => {
                    // The wire layer quarantined a delivery headed
                    // here; the sender's clean go-back-N re-put is
                    // already in flight, so consume the verdict
                    // and re-poll without burning the retry budget
                    // — each surfaced record is progress.
                    counters.record_corrupt_detected();
                    ctx.flight().record(
                        FlightKind::Corruption,
                        fcc_shmem::current_ctx(),
                        s.src as u64,
                        exec,
                    );
                }
                Err(_) => {
                    counters.record_timeout();
                    ctx.flight().record(
                        FlightKind::Timeout,
                        fcc_shmem::current_ctx(),
                        ((s.src as u64) << 32) | me as u64,
                        attempt as u64,
                    );
                    if ctx.flag_load(self.degraded, 0, me) >= exec {
                        return ControlFlow::Break(());
                    }
                    if attempt >= self.policy.max_retries {
                        self.mark_degraded(ctx, exec);
                        return ControlFlow::Break(());
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// The degraded path: re-pool every output vector on the host side,
    /// run the bulk All-to-All, and scatter into the paper's
    /// `{local batch, tables × dim}` output layout. Rebuilds the whole
    /// output, so it is correct regardless of which fused slices landed.
    fn run_fallback(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        round: u64,
    ) {
        let me = ctx.me();
        let cfg = &self.cfg;
        let (dim, tpp) = (cfg.dim, cfg.tables_per_pe);
        let local_batch = cfg.local_batch();
        let per_pair = self.per_pair();
        // No task loop runs now: the PE thread takes its first worker's
        // workspace for the whole rebuild.
        let mut ws = self.inner.core().workspace(me, 0);
        let ws: &mut Workspace = &mut ws;
        let chunk = fit(&mut ws.payload, per_pair);

        // Stage my send buffer: chunk `p` holds the pooled vectors for
        // `p`'s batch shard, laid out `[sample][local table][dim]`. Pooling
        // lands directly in the chunk — no per-vector staging.
        for p in 0..ctx.n_pes() {
            for si in 0..local_batch {
                let sample = p * local_batch + si;
                for (lt, table) in local_tables.iter().enumerate() {
                    gen.bag_into(me * tpp + lt, sample, &mut ws.bag);
                    table.pool_into(&ws.bag, mode, &mut chunk[(si * tpp + lt) * dim..][..dim]);
                }
            }
            ctx.put(self.fallback.src, p * per_pair, chunk, me);
        }

        self.fallback.execute(ctx, round);

        // Scatter received chunks into the destination layout, one source
        // at a time through the same buffer: source `s`'s local table `lt`
        // is global table `s × tpp + lt`.
        let total_tables = ctx.n_pes() * tpp;
        for src in 0..ctx.n_pes() {
            ctx.get(chunk, self.fallback.dst, src * per_pair, me);
            for si in 0..local_batch {
                for lt in 0..tpp {
                    let vector = &chunk[(si * tpp + lt) * dim..][..dim];
                    let off = si * total_tables * dim + (src * tpp + lt) * dim;
                    ctx.put(self.inner.output, off, vector, me);
                }
            }
        }
    }

    /// Executes the fused operator under `faults`, recovering per the
    /// plan's [`RecoveryPolicy`]. Same contract as [`FusedPlan::execute`]
    /// (1-based monotonically increasing `exec`, all PEs call together);
    /// additionally performs one team barrier per call.
    ///
    /// Returns `true` iff this execution degraded to the bulk fallback —
    /// the verdict is team-wide, so every PE returns the same value. The
    /// output buffer holds the correct result either way, provided the
    /// fault schedule lets *some* path through (the fallback collective
    /// is host-initiated and not subject to `faults`).
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
        faults: &FaultPlan,
        counters: &RecoveryCounters,
    ) -> bool {
        let me = ctx.me();
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));
        let producer = self.inner.producer(local_tables, gen, mode);
        let at = Attempt {
            ctx,
            producer: &producer,
            exec,
            faults,
            counters,
        };

        // A crashed PE knows its sends cannot arrive: declare degradation
        // up front so peers' drain phases abort after one timeout instead
        // of exhausting their full retry budgets.
        if faults.is_crashed(me as u32, exec) {
            self.mark_degraded(ctx, exec);
        }

        // The fault-oblivious task loop and drain, with the fault ladder
        // as ship hook and wait closure. Zero-copy stores (own shard, xGMI
        // peers) are plain memory traffic — the fault model applies to the
        // NIC only.
        let core = self.inner.core();
        let tasks = self.inner.tasks(me, kind);
        core.run_tasks(ctx, &producer, tasks, exec, |s, ws| {
            self.send_slice(&at, s, ws)
        });
        {
            // The task loop is over: the draining PE thread verifies landed
            // slices in its first worker's workspace.
            let mut ws = core.workspace(me, 0);
            core.drain(me, |s| self.await_slice(&at, s, &mut ws));
        }

        // Unconditional rendezvous: publishes every PE's `degraded`
        // stores (and all in-flight slice writes — delayed senders sleep
        // *before* their PUT, so every delivery precedes this barrier) to
        // the whole team. Afterwards all PEs read the same verdict.
        ctx.barrier_all();

        // Quarantine verdicts still pending were raised against rows a
        // clean re-put has since overwritten (or the fallback is about to
        // rebuild): consume them so the next execution starts at a clean
        // integrity boundary.
        while ctx.check_integrity().is_err() {
            counters.record_corrupt_detected();
        }

        let degraded = ctx.flag_load(self.degraded, 0, me) >= exec;
        if degraded {
            counters.record_fallback();
            ctx.flight().record(
                FlightKind::Fallback,
                fcc_shmem::current_ctx(),
                me as u64,
                exec,
            );
            // Per-PE fallback count = the bulk collective's monotonic
            // round number; counts agree because degradation is team-wide.
            let round = ctx.flag_fetch_add(self.fallback_rounds, 0, 1, me) + 1;
            self.run_fallback(ctx, local_tables, gen, mode, round);
        }
        degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::reference;
    use fcc_shmem::ShmemWorld;

    fn tiny_cfg(n_pes: usize, batch: usize, tables_per_pe: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
        cfg.table_rows = 64;
        cfg.dim = 16;
        cfg.pooling = 5;
        cfg
    }

    /// Runs `execs` executions under `faults`, asserting the output
    /// matches the unfused reference after every one. Returns the
    /// per-exec degradation verdicts and the final counter snapshot.
    fn run_resilient(
        cfg: &DlrmConfig,
        slice_embeddings: usize,
        policy: RecoveryPolicy,
        faults: &FaultPlan,
        execs: u64,
    ) -> (Vec<bool>, crate::progress::RecoverySnapshot) {
        run_resilient_world(cfg, slice_embeddings, policy, faults, execs, false)
    }

    /// [`run_resilient`] with the wire-integrity layer optionally enabled
    /// — the configuration the corruption ladder runs under.
    fn run_resilient_world(
        cfg: &DlrmConfig,
        slice_embeddings: usize,
        policy: RecoveryPolicy,
        faults: &FaultPlan,
        execs: u64,
        integrity: bool,
    ) -> (Vec<bool>, crate::progress::RecoverySnapshot) {
        let mut layout = HeapLayout::new();
        let plan = ResilientFusedPlan::plan(&mut layout, cfg, slice_embeddings, policy);
        // Every PE in its own P2P group: all cross-PE slices take the
        // (faultable) network path.
        let groups = (0..cfg.n_pes as u32).collect();
        let mut world = ShmemWorld::new(cfg.n_pes, layout).with_p2p_groups(groups);
        if integrity {
            world = world.with_integrity();
        }
        let tables = reference::build_tables(cfg);
        let gen = reference::build_generator(cfg);
        let counters = RecoveryCounters::new();

        let mut verdicts = Vec::new();
        for exec in 1..=execs {
            let per_pe: Vec<bool> = world.run_collect(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                plan.execute(
                    ctx,
                    local,
                    &gen,
                    PoolingMode::Sum,
                    ScheduleKind::CommAware,
                    exec,
                    faults,
                    &counters,
                )
            });
            assert!(
                per_pe.iter().all(|&d| d == per_pe[0]),
                "PEs disagree on degradation: {per_pe:?}"
            );
            verdicts.push(per_pe[0]);
            for dst in 0..cfg.n_pes {
                let got = world.read(dst, plan.output());
                let want = reference::expected_output(cfg, &tables, &gen, PoolingMode::Sum, dst);
                assert_eq!(got, want, "exec {exec}, dst {dst} mismatch");
            }
        }
        (verdicts, counters.snapshot())
    }

    #[test]
    fn fault_free_run_matches_reference_with_zero_counters() {
        let cfg = tiny_cfg(2, 8, 2);
        let faults = FaultPlan::new(1);
        let (verdicts, snap) = run_resilient(&cfg, 2, RecoveryPolicy::default(), &faults, 1);
        assert_eq!(verdicts, vec![false]);
        assert_eq!(snap, Default::default());
    }

    #[test]
    fn recovers_from_dropped_slice_puts() {
        let cfg = tiny_cfg(2, 8, 2);
        let policy = RecoveryPolicy::default().with_backoff(Duration::from_micros(50), 2);
        let faults = FaultPlan::new(7).with_drop_rate(0.4);
        let (_, snap) = run_resilient(&cfg, 2, policy, &faults, 1);
        assert!(
            snap.retries > 0,
            "drops must force re-issued PUTs: {snap:?}"
        );
    }

    #[test]
    fn crash_degrades_to_bulk_fallback() {
        let cfg = tiny_cfg(2, 8, 2);
        let policy = RecoveryPolicy::default().with_slice_timeout(Duration::from_millis(5));
        let faults = FaultPlan::new(3).with_pe_crash(1, 1);
        let (verdicts, snap) = run_resilient(&cfg, 2, policy, &faults, 1);
        assert_eq!(verdicts, vec![true]);
        // Both PEs fall back; the healthy PE's drain saw >= 1 deadline.
        assert_eq!(snap.fallbacks, 2);
        assert!(snap.timeouts >= 1, "missing slices must time out: {snap:?}");
    }

    #[test]
    fn total_loss_still_produces_correct_output() {
        let cfg = tiny_cfg(2, 8, 1);
        let policy = RecoveryPolicy::default()
            .with_slice_timeout(Duration::from_millis(2))
            .with_backoff(Duration::from_micros(20), 2);
        let faults = FaultPlan::new(11).with_drop_rate(1.0);
        let (verdicts, snap) = run_resilient(&cfg, 2, policy, &faults, 1);
        assert_eq!(verdicts, vec![true]);
        assert!(snap.retries > 0, "senders retry before giving up: {snap:?}");
        assert_eq!(snap.fallbacks, 2);
    }

    #[test]
    fn delayed_puts_deliver_without_degrading() {
        let cfg = tiny_cfg(2, 8, 2);
        let faults = FaultPlan::new(5).with_delay(1.0, SimTime::from_micros(50));
        let (verdicts, snap) = run_resilient(&cfg, 2, RecoveryPolicy::default(), &faults, 1);
        assert_eq!(
            verdicts,
            vec![false],
            "µs delays never trip a 50 ms deadline"
        );
        assert!(
            snap.delayed > 0,
            "every network slice was delayed: {snap:?}"
        );
        assert_eq!(snap.fallbacks, 0);
    }

    #[test]
    fn crash_mid_sequence_degrades_only_later_execs() {
        let cfg = tiny_cfg(2, 8, 1);
        let policy = RecoveryPolicy::default().with_slice_timeout(Duration::from_millis(5));
        let faults = FaultPlan::new(9).with_pe_crash(0, 2);
        let (verdicts, snap) = run_resilient(&cfg, 2, policy, &faults, 3);
        // Exec 1 is healthy; execs 2 and 3 degrade (and the fallback's
        // monotonic round numbering survives the reuse).
        assert_eq!(verdicts, vec![false, true, true]);
        assert_eq!(snap.fallbacks, 4);
    }

    #[test]
    fn clean_run_with_integrity_has_zero_false_positives() {
        let cfg = tiny_cfg(2, 8, 2);
        let faults = FaultPlan::new(1);
        let (verdicts, snap) =
            run_resilient_world(&cfg, 2, RecoveryPolicy::default(), &faults, 2, true);
        assert_eq!(verdicts, vec![false, false]);
        assert_eq!(
            snap.corrupt_detected, 0,
            "clean traffic must verify: {snap:?}"
        );
        assert_eq!(snap.reverifies, 0);
        assert_eq!(snap.fallbacks, 0);
    }

    #[test]
    fn bit_flips_are_detected_and_recovered_bit_exact() {
        let cfg = tiny_cfg(2, 8, 2);
        let policy = RecoveryPolicy::default().with_backoff(Duration::from_micros(50), 2);
        let faults = FaultPlan::new(13).with_corrupt_only(0.5, fcc_net::CorruptKind::BitFlip);
        let (_, snap) = run_resilient_world(&cfg, 2, policy, &faults, 2, true);
        assert!(snap.corruptions > 0, "the plan must inject: {snap:?}");
        assert!(
            snap.corrupt_detected > 0,
            "flipped payloads must be caught before commit: {snap:?}"
        );
    }

    #[test]
    fn self_consistent_corruption_is_caught_by_the_fused_checksum() {
        let cfg = tiny_cfg(2, 8, 2);
        let policy = RecoveryPolicy::default().with_backoff(Duration::from_micros(50), 2);
        // Stale replays carry a matching wire checksum: only the fused
        // (ABFT) slice checksum can catch them.
        let faults = FaultPlan::new(17).with_corrupt_only(0.5, fcc_net::CorruptKind::StaleReplay);
        let (_, snap) = run_resilient_world(&cfg, 2, policy, &faults, 2, true);
        assert!(snap.corruptions > 0, "{snap:?}");
        assert!(
            snap.corrupt_detected > 0,
            "escapes must still be caught end to end: {snap:?}"
        );
    }

    #[test]
    fn torn_puts_recover() {
        let cfg = tiny_cfg(2, 8, 2);
        let policy = RecoveryPolicy::default().with_backoff(Duration::from_micros(50), 2);
        let faults = FaultPlan::new(19).with_corrupt_only(0.6, fcc_net::CorruptKind::Torn);
        let (_, snap) = run_resilient_world(&cfg, 2, policy, &faults, 1, true);
        assert!(snap.corruptions > 0, "{snap:?}");
        assert!(snap.corrupt_detected > 0, "{snap:?}");
    }

    #[test]
    fn total_corruption_degrades_to_bulk_fallback() {
        let cfg = tiny_cfg(2, 8, 1);
        let policy = RecoveryPolicy::default()
            .with_slice_timeout(Duration::from_millis(2))
            .with_backoff(Duration::from_micros(20), 2);
        let faults = FaultPlan::new(23).with_corrupt_only(1.0, fcc_net::CorruptKind::BitFlip);
        let (verdicts, snap) = run_resilient_world(&cfg, 2, policy, &faults, 1, true);
        assert_eq!(verdicts, vec![true], "nothing clean ever lands: {snap:?}");
        assert_eq!(snap.fallbacks, 2);
        assert!(snap.corrupt_detected > 0, "{snap:?}");
    }

    #[test]
    fn silent_corruption_without_integrity_poisons_the_output() {
        // The negative control for the whole ladder: same fault plan, no
        // integrity layer — the corruption lands and nobody notices.
        let cfg = tiny_cfg(2, 8, 1);
        let mut layout = HeapLayout::new();
        let plan = ResilientFusedPlan::plan(&mut layout, &cfg, 2, RecoveryPolicy::default());
        let groups = (0..cfg.n_pes as u32).collect();
        let mut world = ShmemWorld::new(cfg.n_pes, layout).with_p2p_groups(groups);
        let tables = reference::build_tables(&cfg);
        let gen = reference::build_generator(&cfg);
        let counters = RecoveryCounters::new();
        let faults = FaultPlan::new(23).with_corrupt_only(1.0, fcc_net::CorruptKind::StaleReplay);
        let verdicts: Vec<bool> = world.run_collect(|ctx| {
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
        assert_eq!(
            verdicts,
            vec![false, false],
            "nobody detects, nobody degrades"
        );
        let snap = counters.snapshot();
        assert!(snap.corruptions > 0, "{snap:?}");
        assert_eq!(snap.corrupt_detected, 0, "silent by construction: {snap:?}");
        let mut any_wrong = false;
        for dst in 0..cfg.n_pes {
            let got = world.read(dst, plan.output());
            let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
            any_wrong |= got != want;
        }
        assert!(any_wrong, "XORed payloads must change some output");
    }

    #[test]
    fn four_pes_with_one_crashed_still_converge() {
        let cfg = tiny_cfg(4, 8, 1);
        let policy = RecoveryPolicy::default().with_slice_timeout(Duration::from_millis(5));
        let faults = FaultPlan::new(21).with_pe_crash(2, 1);
        let (verdicts, snap) = run_resilient(&cfg, 2, policy, &faults, 1);
        assert_eq!(verdicts, vec![true]);
        assert_eq!(snap.fallbacks, 4);
    }
}
