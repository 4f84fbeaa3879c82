//! Per-PE operation context — the `roc_shmem_*` API surface.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fcc_telemetry::{FlightKind, FlightRecorder};

use crate::delivery::{PutKey, RmwKey};
use crate::error::ShmemError;
use crate::heap::{SymFlags, SymSlice};
use crate::integrity::{checksum, IntegrityLayer};
use crate::pod::Pod;
use crate::ring::SLOT_PAYLOAD;
use crate::trace::{current_ctx, RmwOp, TraceEvent};
use crate::world::ShmemWorld;

thread_local! {
    /// Network puts this thread has issued per destination PE since its
    /// last ordering point — the `unfenced` bookkeeping the invariant
    /// checker reads off flag stores. Counts every network put, deferred
    /// or not: a real NIC gives no inline-completion guarantee either
    /// way. Maintained only while tracing is on (the bench path never
    /// touches it). Threads are per-run (PE threads and rayon workers
    /// alike), so entries never leak across worlds.
    static UNFENCED: RefCell<HashMap<usize, u64>> = RefCell::new(HashMap::new());
}

/// The handle a PE's thread uses to communicate. One exists per PE for the
/// duration of [`ShmemWorld::run`].
///
/// # Protocol contract
///
/// The symmetric heap is shared mutable memory. The runtime guarantees:
///
/// * flag operations are atomic with the documented orderings;
/// * `put`/`get` are plain byte copies.
///
/// The *program* must guarantee that a plain-copied region is never
/// concurrently accessed by another PE except through a happens-before
/// edge established by a flag (`flag_store` Release → `wait_until`
/// Acquire), a counter RMW, or `barrier_all`. This is the same contract
/// ROC_SHMEM imposes on device code.
pub struct PeCtx<'w> {
    world: &'w ShmemWorld,
    me: usize,
}

/// A put whose delivery is deliberately deferred — the functional
/// backend's stand-in for a message still sitting in a NIC queue.
///
/// Created by [`PeCtx::begin_deferred_put`]; while alive it keeps the
/// issuing PE's outstanding-put gauge non-zero, so that PE's
/// [`PeCtx::quiet`] blocks and [`PeCtx::quiet_timeout`] can genuinely
/// time out. Drop it when the deferred delivery lands (fault injectors
/// hand the guard to whatever completes the delivery later).
#[must_use = "dropping the guard immediately completes the put"]
pub struct PendingPut<'a> {
    gauge: &'a AtomicU64,
}

impl Drop for PendingPut<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Release);
    }
}

impl<'w> PeCtx<'w> {
    pub(crate) fn new(world: &'w ShmemWorld, me: usize) -> Self {
        PeCtx { world, me }
    }

    /// This PE's outstanding-put gauge — what `quiet` drains.
    #[inline]
    fn gauge(&self) -> &'w AtomicU64 {
        &self.world.pending[self.me].0
    }

    /// This PE's rank.
    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// Team size.
    #[inline]
    pub fn n_pes(&self) -> usize {
        self.world.n_pes()
    }

    /// Whether `pe` is reachable with direct loads/stores (the
    /// `roc_shmem_ptr() != NULL` test).
    #[inline]
    pub fn is_p2p(&self, pe: usize) -> bool {
        self.world.is_p2p(self.me, pe)
    }

    /// The world's wire-integrity layer, if enabled.
    #[inline]
    fn integrity(&self) -> Option<&'w IntegrityLayer> {
        self.world.integrity.as_deref()
    }

    /// Whether this world checksums its network puts (see
    /// [`crate::ShmemWorld::with_integrity`]).
    #[inline]
    pub fn integrity_enabled(&self) -> bool {
        self.world.integrity.is_some()
    }

    /// The world's flight recorder — resilient operators stamp their
    /// recovery rungs through this handle. Disabled unless the world was
    /// built with [`crate::ShmemWorld::with_flight`].
    #[inline]
    pub fn flight(&self) -> &'w FlightRecorder {
        &self.world.flight
    }

    /// Quarantined (checksum-failed) deliveries currently pending
    /// against this PE. Always 0 with integrity disabled.
    #[inline]
    pub fn poisoned(&self) -> u64 {
        self.integrity().map_or(0, |layer| layer.poisoned(self.me))
    }

    /// Surfaces the oldest quarantined delivery targeting this PE as
    /// [`ShmemError::Corruption`], or `Ok(())` when the quarantine is
    /// clear (always, with integrity disabled). Resilient operators call
    /// this at their `wait`/fence boundaries — the detection points of
    /// the recovery ladder.
    pub fn check_integrity(&self) -> Result<(), ShmemError> {
        let Some(layer) = self.integrity() else {
            return Ok(());
        };
        let poisoned = layer.poisoned(self.me);
        if poisoned > 0 {
            self.world.flight.record(
                FlightKind::Quarantine,
                current_ctx(),
                self.me as u64,
                poisoned,
            );
        }
        if self.world.trace.is_some() {
            self.world.record_trace(TraceEvent::IntegrityGate {
                pe: self.me,
                poisoned,
                consumed: false,
            });
        }
        layer.surface(self.me)
    }

    /// Models a **checksum-bypass bug** for the negative conformance
    /// suite: consumes past the integrity gate, swallowing any pending
    /// quarantine records instead of surfacing them. Records
    /// [`TraceEvent::IntegrityGate`] with `consumed: true`, which the
    /// invariant checker must convict whenever the quarantine was
    /// non-empty. Returns the number of quarantined puts swallowed.
    /// Production operators never call this.
    pub fn consume_unverified(&self) -> u64 {
        let Some(layer) = self.integrity() else {
            return 0;
        };
        let poisoned = layer.poisoned(self.me);
        if self.world.trace.is_some() {
            self.world.record_trace(TraceEvent::IntegrityGate {
                pe: self.me,
                poisoned,
                consumed: true,
            });
        }
        while layer.surface(self.me).is_err() {}
        poisoned
    }

    fn data_ptr<T: Pod>(&self, slice: SymSlice<T>, offset: usize, len: usize, pe: usize) -> *mut T {
        assert!(pe < self.n_pes(), "PE {pe} out of range");
        assert!(
            offset
                .checked_add(len)
                .is_some_and(|end| end <= slice.len()),
            "access [{offset}, +{len}) exceeds slice length {}",
            slice.len()
        );
        let byte = slice.byte_offset + offset * std::mem::size_of::<T>();
        // SAFETY: in-bounds of the arena by construction (HeapLayout never
        // hands out offsets beyond bytes_used, and arenas are that large);
        // alignment guaranteed by the word-backed arena.
        unsafe { self.world.arena(pe).base().add(byte) as *mut T }
    }

    /// Copies `src` into `dst[offset..]` on `pe`. The `put_nbi` analogue —
    /// non-blocking: P2P and loopback puts complete inline, while a
    /// network put that fits a ring slot rides the `(src, dst)` delivery
    /// ring and is only guaranteed delivered once the issuing PE reaches
    /// an ordering point (`fence`/`quiet`/`barrier_all`/run end). An
    /// installed [`crate::DeliveryOrder`] may release individual network
    /// puts to deliver eagerly instead, as oversized ones always do.
    ///
    /// The destination region must not be concurrently accessed (see the
    /// type-level contract).
    pub fn put<T: Pod>(&self, dst: SymSlice<T>, offset: usize, src: &[T], pe: usize) {
        self.put_with(dst, offset, src, pe, None);
    }

    /// A [`put`](Self::put) that carries `claimed` as its wire checksum
    /// instead of deriving one — the fault injector's hook for modelling
    /// in-flight payload corruption on the checksummed ring.
    ///
    /// Passing the checksum of the *intended* bytes alongside corrupted
    /// `src` models a bit-flip or torn put (the pop detects it and
    /// quarantines the delivery); passing the checksum of the corrupted
    /// bytes themselves models a self-consistent stale replay that only
    /// an end-to-end ABFT check can catch.
    ///
    /// Returns `true` iff the put rode the checksummed ring; otherwise
    /// (integrity off, P2P/loopback destination, oversized payload, or
    /// released by the installed delivery order) it behaves exactly like
    /// [`put`](Self::put) and returns `false` — the delivery lands
    /// unverified, which is precisely the escape the caller is modelling.
    pub fn put_claiming<T: Pod>(
        &self,
        dst: SymSlice<T>,
        offset: usize,
        src: &[T],
        pe: usize,
        claimed: u64,
    ) -> bool {
        self.put_with(dst, offset, src, pe, Some(claimed))
    }

    /// The one put routine; returns whether the put rode the checksummed
    /// ring. `claimed` overrides the derived wire checksum.
    fn put_with<T: Pod>(
        &self,
        dst: SymSlice<T>,
        offset: usize,
        src: &[T],
        pe: usize,
        claimed: Option<u64>,
    ) -> bool {
        let ptr = self.data_ptr(dst, offset, src.len(), pe);
        let byte_offset = dst.byte_offset + offset * std::mem::size_of::<T>();
        let byte_len = std::mem::size_of_val(src);
        let trace_put = |network: bool, deferred: bool| {
            self.world.record_trace(TraceEvent::Put {
                src: self.me,
                dst: pe,
                byte_offset,
                byte_len,
                network,
                deferred,
            });
        };
        let copy_now = || {
            // The put is in flight for the duration of the copy: track it
            // on the gauge so `quiet` has the same observable meaning here
            // as on the timed backend (drain everything issued so far).
            self.gauge().fetch_add(1, Ordering::AcqRel);
            // SAFETY: bounds checked; regions from a &[T] borrow and an
            // arena cannot overlap unless the caller passed a slice derived
            // from the same arena region, which the contract forbids.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), ptr, src.len());
            }
            self.gauge().fetch_sub(1, Ordering::Release);
        };

        // A ring exists exactly for the network pairs; a P2P or loopback
        // put is a plain inline copy.
        let Some(ring) = self.world.rings.ring(self.me, pe) else {
            trace_put(false, false);
            copy_now();
            return false;
        };
        let ctx = current_ctx();
        self.world.flight.record(
            FlightKind::NetPut,
            ctx,
            ((self.me as u64) << 32) | pe as u64,
            byte_len as u64,
        );
        // The one delivery decision. A put that fits a slot waits in its
        // ring for this PE's next ordering point — the window in which a
        // one-sided PUT is legally in flight — unless the installed order
        // releases it; an oversized put is always delivered now. The log
        // records what was realized.
        let fits = byte_len <= SLOT_PAYLOAD;
        let deferred = match &self.world.delivery {
            None => fits,
            Some(model) => {
                let key = PutKey {
                    src: self.me as u32,
                    dst: pe as u32,
                    byte_offset: byte_offset as u64,
                    byte_len: byte_len as u64,
                };
                let deferred = fits && model.order.defer_put(key);
                model.log.record_put(key, deferred);
                deferred
            }
        };
        if self.world.trace.is_some() {
            UNFENCED.with(|m| *m.borrow_mut().entry(pe).or_insert(0) += 1);
        }
        // Recorded before the payload moves, so a concurrent drainer's
        // `PutDelivered` can only follow it in the log.
        trace_put(true, deferred);
        let sinks = self.world.drain_sinks();
        if !deferred {
            // Delivering now: drain the ring first so older puts to this
            // destination keep their per-queue-pair FIFO order.
            let counters = self.world.rings.counters(self.me);
            counters.bypasses.fetch_add(1, Ordering::Relaxed);
            ring.drain(sinks);
            copy_now();
            return false;
        }
        // SAFETY: src is a live &[T] of Pod elements.
        let bytes = unsafe { std::slice::from_raw_parts(src.as_ptr() as *const u8, byte_len) };
        // Integrity on: the put carries a checksum beside its payload,
        // verified at the ring pop.
        let sum = self.integrity().map_or(0, |layer| {
            layer.record_put();
            claimed.unwrap_or_else(|| checksum(bytes))
        });
        // SAFETY: ptr was bounds-checked against the dst arena, which
        // outlives every PE thread; the protocol contract keeps the
        // region free of concurrent access until the publication this
        // delivery precedes.
        unsafe {
            ring.push(
                ptr as usize,
                bytes,
                sum,
                ctx,
                &self.world.rings.counters(self.me).full_spins,
                sinks,
            );
        }
        self.integrity_enabled()
    }

    /// Copies `src[offset..offset+out.len()]` on `pe` into `out`. The
    /// source region must be quiescent or published to this PE.
    pub fn get<T: Pod>(&self, out: &mut [T], src: SymSlice<T>, offset: usize, pe: usize) {
        let ptr = self.data_ptr(src, offset, out.len(), pe);
        // SAFETY: bounds checked; contract forbids concurrent writers.
        unsafe {
            std::ptr::copy_nonoverlapping(ptr as *const T, out.as_mut_ptr(), out.len());
        }
    }

    /// Strided put (the `shmem_iput` analogue): copies blocks of `block`
    /// elements from the contiguous `src` into `dst` on `pe`, placing
    /// block `i` at `offset + i × dst_stride`. This is exactly the shape
    /// of a slice landing in the paper's `{local batch, tables × dim}`
    /// output layout: contiguous at the source, row-strided at the
    /// destination.
    ///
    /// # Panics
    /// Panics if `src.len()` is not a whole number of blocks,
    /// `dst_stride < block`, or any block lands out of bounds.
    pub fn put_strided<T: Pod>(
        &self,
        dst: SymSlice<T>,
        offset: usize,
        dst_stride: usize,
        src: &[T],
        block: usize,
        pe: usize,
    ) {
        assert!(block > 0 && dst_stride >= block, "invalid stride/block");
        assert_eq!(src.len() % block, 0, "source not a whole number of blocks");
        for (i, chunk) in src.chunks_exact(block).enumerate() {
            self.put(dst, offset + i * dst_stride, chunk, pe);
        }
    }

    /// Orders preceding puts before subsequent puts *to the same PE* (the
    /// `roc_shmem_fence` analogue): waits until every entry published so
    /// far in this PE's rings is copied out — stronger than the per-dst
    /// ordering `fence` promises (delivering early is always legal), and
    /// it completes the calling thread's own puts before the Release
    /// flag store that typically follows.
    #[inline]
    pub fn fence(&self) {
        self.drain_rings();
        self.world.record_trace(TraceEvent::Fence { pe: self.me });
        fence(Ordering::SeqCst);
    }

    /// Blocks until all outstanding puts are complete (`roc_shmem_quiet`).
    ///
    /// Ring entries are drained here, so past that this only ever spins
    /// on deliveries deferred via
    /// [`begin_deferred_put`](Self::begin_deferred_put) — a delivery that
    /// never lands hangs this call forever, exactly like classic SHMEM.
    /// Deadline-sensitive code should use
    /// [`quiet_timeout`](Self::quiet_timeout).
    pub fn quiet(&self) {
        self.drain_rings();
        self.world.record_trace(TraceEvent::Quiet { pe: self.me });
        fence(Ordering::SeqCst);
        let gauge = self.gauge();
        let mut spins = 0u32;
        while gauge.load(Ordering::Acquire) != 0 {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// The ordering point proper: everything this PE has in its rings
    /// lands, from any issuing thread, and the calling thread's unfenced
    /// bookkeeping resets.
    fn drain_rings(&self) {
        self.world
            .rings
            .drain_src(self.me, self.world.drain_sinks());
        if self.world.trace.is_some() {
            UNFENCED.with(|m| m.borrow_mut().clear());
        }
    }

    /// Registers a put whose delivery is deferred: the returned guard
    /// keeps this PE's outstanding-put count non-zero until dropped. This
    /// is how fault injectors model a message held in a NIC queue on the
    /// functional backend — `quiet`/`quiet_timeout` must not report
    /// completion while the guard lives.
    pub fn begin_deferred_put(&self) -> PendingPut<'w> {
        self.gauge().fetch_add(1, Ordering::AcqRel);
        PendingPut {
            gauge: self.gauge(),
        }
    }

    fn flag_ref(&self, pe: usize, flags: SymFlags, idx: usize) -> &AtomicU64 {
        assert!(pe < self.n_pes(), "PE {pe} out of range");
        assert!(
            idx < flags.count,
            "flag index {idx} out of range for bank of {}",
            flags.count
        );
        let byte = flags.byte_offset + idx * 8;
        // SAFETY: in-bounds, 8-aligned, and this word is only ever accessed
        // atomically (flag banks are distinct allocations from data).
        unsafe { AtomicU64::from_ptr(self.world.arena(pe).base().add(byte) as *mut u64) }
    }

    /// Global word index of flag `idx` — flag cell identity in the trace.
    fn flag_cell(&self, flags: SymFlags, idx: usize) -> u64 {
        (flags.byte_offset / 8 + idx) as u64
    }

    /// Stalls the calling thread per the installed delivery order's RMW
    /// perturbation — schedule diversity for all-P2P protocols whose
    /// races are thread interleavings, not message reorderings.
    fn perturb_rmw(&self, cell: u64, pe: usize) {
        if let Some(model) = &self.world.delivery {
            let key = RmwKey {
                dst: pe as u32,
                cell,
                ordinal: model.log.next_ordinal(pe as u32, cell),
            };
            let yields = model.order.rmw_yields(key);
            model.log.record_rmw(key, yields);
            for _ in 0..yields {
                std::thread::yield_now();
            }
        }
    }

    /// Atomically stores `value` into flag `idx` on `pe` with Release
    /// ordering — publishes all prior writes by this PE to any PE that
    /// acquires the flag.
    ///
    /// Note the publication guarantee covers *delivered* puts: a network
    /// put posted without an intervening [`fence`](Self::fence) is
    /// legally still in flight, and really can land after this flag —
    /// the checker's payload-after-flag invariant.
    pub fn flag_store(&self, flags: SymFlags, idx: usize, value: u64, pe: usize) {
        self.world.flight.record(
            FlightKind::FlagPub,
            current_ctx(),
            self.flag_cell(flags, idx),
            value,
        );
        if self.world.trace.is_some() {
            self.world.record_trace(TraceEvent::FlagStore {
                src: self.me,
                dst: pe,
                cell: self.flag_cell(flags, idx),
                value,
                unfenced: UNFENCED.with(|m| m.borrow().get(&pe).copied().unwrap_or(0)),
            });
        }
        self.flag_ref(pe, flags, idx)
            .store(value, Ordering::Release);
    }

    /// Atomically loads flag `idx` on `pe` with Acquire ordering.
    pub fn flag_load(&self, flags: SymFlags, idx: usize, pe: usize) -> u64 {
        self.flag_ref(pe, flags, idx).load(Ordering::Acquire)
    }

    /// Atomic `fetch_or` with AcqRel ordering — the cross-lane `WG_Done`
    /// bitmask update. Returns the previous value.
    pub fn flag_fetch_or(&self, flags: SymFlags, idx: usize, bits: u64, pe: usize) -> u64 {
        let cell = self.flag_cell(flags, idx);
        self.perturb_rmw(cell, pe);
        let prev = self
            .flag_ref(pe, flags, idx)
            .fetch_or(bits, Ordering::AcqRel);
        self.world.record_trace(TraceEvent::FlagRmw {
            op: RmwOp::Or,
            src: self.me,
            dst: pe,
            cell,
            operand: bits,
            prev,
        });
        prev
    }

    /// Atomic `fetch_add` with AcqRel ordering. Returns the previous value.
    pub fn flag_fetch_add(&self, flags: SymFlags, idx: usize, delta: u64, pe: usize) -> u64 {
        let cell = self.flag_cell(flags, idx);
        self.perturb_rmw(cell, pe);
        let prev = self
            .flag_ref(pe, flags, idx)
            .fetch_add(delta, Ordering::AcqRel);
        self.world.record_trace(TraceEvent::FlagRmw {
            op: RmwOp::Add,
            src: self.me,
            dst: pe,
            cell,
            operand: delta,
            prev,
        });
        prev
    }

    /// Spins until `pred(flag value)` holds on this PE's own copy of the
    /// flag (the `roc_shmem_wait_until` analogue). Acquire on success.
    pub fn wait_until(&self, flags: SymFlags, idx: usize, pred: impl Fn(u64) -> bool) -> u64 {
        let cell = self.flag_ref(self.me, flags, idx);
        let mut spins = 0u32;
        loop {
            let v = cell.load(Ordering::Acquire);
            if pred(v) {
                self.world.record_trace(TraceEvent::FlagWait {
                    pe: self.me,
                    cell: self.flag_cell(flags, idx),
                    value: v,
                });
                return v;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Deadline-aware [`wait_until`](Self::wait_until): spins until
    /// `pred(flag value)` holds or `timeout` elapses. On success returns
    /// the observed value with Acquire ordering; on timeout returns a
    /// [`ShmemError::WaitTimeout`] carrying the last value seen, so the
    /// caller can retry, degrade, or report how far the writer got.
    ///
    /// A satisfied wait is also an integrity boundary: with the wire
    /// checksum layer enabled, a delivery quarantined against this PE is
    /// surfaced here as [`ShmemError::Corruption`] *instead of* success,
    /// so no payload is consumed past the gate unverified. With
    /// integrity disabled the probe costs one `Option` test.
    ///
    /// The deadline is checked on a coarse stride (every 64 spins) to
    /// keep the success path as cheap as the infinite spin.
    pub fn wait_until_timeout(
        &self,
        flags: SymFlags,
        idx: usize,
        timeout: Duration,
        pred: impl Fn(u64) -> bool,
    ) -> Result<u64, ShmemError> {
        let cell = self.flag_ref(self.me, flags, idx);
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let v = cell.load(Ordering::Acquire);
            if pred(v) {
                self.world.record_trace(TraceEvent::FlagWait {
                    pe: self.me,
                    cell: self.flag_cell(flags, idx),
                    value: v,
                });
                self.check_integrity()?;
                return Ok(v);
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                let waited = start.elapsed();
                if waited >= timeout {
                    return Err(ShmemError::WaitTimeout {
                        pe: self.me,
                        flag: idx,
                        waited,
                        last_value: v,
                    });
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Deadline-aware [`quiet`](Self::quiet): polls the outstanding-put
    /// gauge until it drains or `timeout` elapses. On expiry returns
    /// [`ShmemError::QuietTimeout`] carrying how many deliveries were
    /// still in flight.
    ///
    /// With nothing outstanding this succeeds immediately, even with a
    /// zero timeout; the deadline is checked on a coarse stride (every 64
    /// spins) to keep the success path cheap.
    pub fn quiet_timeout(&self, timeout: Duration) -> Result<(), ShmemError> {
        self.drain_rings();
        self.world.record_trace(TraceEvent::Quiet { pe: self.me });
        fence(Ordering::SeqCst);
        let gauge = self.gauge();
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let outstanding = gauge.load(Ordering::Acquire);
            if outstanding == 0 {
                return Ok(());
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                let waited = start.elapsed();
                if waited >= timeout {
                    return Err(ShmemError::QuietTimeout {
                        pe: self.me,
                        waited,
                        outstanding,
                    });
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Full-team barrier (`roc_shmem_barrier_all`). Also a full memory
    /// fence: everything before the barrier on any PE happens-before
    /// everything after it on every PE.
    pub fn barrier_all(&self) {
        self.drain_rings();
        self.world.record_trace(TraceEvent::Barrier { pe: self.me });
        self.world.barrier.wait();
    }

    /// Marks this PE as tombstoned in the protocol trace: any put or
    /// flag operation it issues afterwards is a protocol violation the
    /// checker reports. Call *after* the tombstone flag itself is
    /// raised (the raise is the PE's legal final act).
    pub fn record_tombstone(&self) {
        self.world
            .record_trace(TraceEvent::Tombstone { pe: self.me });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapLayout;

    /// Puts `ctx` issued that have not completed delivery: deliberately
    /// deferred deliveries plus undrained ring entries.
    fn outstanding(ctx: &PeCtx) -> u64 {
        ctx.gauge().load(Ordering::Acquire) + ctx.world.rings.occupancy_src(ctx.me())
    }

    #[test]
    fn put_flag_get_handshake() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(64);
        let flags = layout.alloc_flags(1);
        let world = ShmemWorld::new(2, layout);
        world.run(|ctx| {
            if ctx.me() == 0 {
                let data: Vec<u64> = (0..64).collect();
                ctx.put(buf, 0, &data, 1);
                ctx.fence();
                ctx.flag_store(flags, 0, 1, 1);
            } else {
                ctx.wait_until(flags, 0, |v| v == 1);
                let mut out = vec![0u64; 64];
                ctx.get(&mut out, buf, 0, 1);
                assert_eq!(out, (0..64).collect::<Vec<u64>>());
            }
        });
    }

    #[test]
    fn handshake_is_reliable_under_repetition() {
        // Hammer the Release/Acquire protocol: many rounds, alternating
        // direction, fresh value each round. Any ordering bug shows up as
        // a stale read.
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(32);
        let flags = layout.alloc_flags(2);
        let world = ShmemWorld::new(2, layout);
        world.run(|ctx| {
            for round in 1..200u64 {
                let (writer, reader) = ((round % 2) as usize, ((round + 1) % 2) as usize);
                if ctx.me() == writer {
                    let data = vec![round * 1000 + 7; 32];
                    ctx.put(buf, 0, &data, reader);
                    ctx.fence();
                    ctx.flag_store(flags, 0, round, reader);
                } else {
                    ctx.wait_until(flags, 0, |v| v == round);
                    let mut out = vec![0u64; 32];
                    ctx.get(&mut out, buf, 0, ctx.me());
                    assert!(out.iter().all(|&v| v == round * 1000 + 7));
                }
                ctx.barrier_all();
            }
        });
    }

    #[test]
    fn fetch_or_elects_exactly_one_last_finisher() {
        // The WG_Done election at the heart of the fused kernel: N workers
        // OR their bit in; whoever observes all other bits set is the
        // unique last finisher.
        use std::sync::atomic::{AtomicU32, Ordering as O};
        let n = 8usize;
        let full: u64 = (1 << n) - 1;
        for _ in 0..50 {
            let mut layout = HeapLayout::new();
            let flags = layout.alloc_flags(1);
            let world = ShmemWorld::new(n, layout);
            let elected = AtomicU32::new(0);
            world.run(|ctx| {
                let bit = 1u64 << ctx.me();
                // Everyone ORs into PE 0's bank.
                let prev = ctx.flag_fetch_or(flags, 0, bit, 0);
                if prev | bit == full {
                    elected.fetch_add(1, O::Relaxed);
                }
            });
            assert_eq!(elected.load(O::Relaxed), 1, "exactly one last finisher");
        }
    }

    #[test]
    fn fetch_add_counts_all_pes() {
        let mut layout = HeapLayout::new();
        let flags = layout.alloc_flags(1);
        let n = 16;
        let world = ShmemWorld::new(n, layout);
        world.run(|ctx| {
            ctx.flag_fetch_add(flags, 0, 1, 0);
            ctx.barrier_all();
            assert_eq!(ctx.flag_load(flags, 0, 0), n as u64);
        });
    }

    #[test]
    fn put_works_for_p2p_peers() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<f32>(4);
        let world = ShmemWorld::new(2, layout); // default: all P2P
        world.run(|ctx| {
            if ctx.me() == 0 {
                assert!(ctx.is_p2p(1));
                ctx.put(buf, 0, &[1.0f32, 2.0, 3.0, 4.0], 1);
            }
            ctx.barrier_all();
            if ctx.me() == 1 {
                let mut out = [0.0f32; 4];
                ctx.get(&mut out, buf, 0, 1);
                assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
            }
        });
    }

    #[test]
    fn barriers_separate_phases() {
        // Writer phase / barrier / reader phase, repeated. Without the
        // barrier this would race; with it every read sees the phase's
        // value.
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(1);
        let world = ShmemWorld::new(4, layout);
        world.run(|ctx| {
            for phase in 0..32u64 {
                if ctx.me() == (phase % 4) as usize {
                    ctx.put(buf, 0, &[phase], 0);
                }
                ctx.barrier_all();
                let mut out = [0u64];
                ctx.get(&mut out, buf, 0, 0);
                assert_eq!(out[0], phase);
                ctx.barrier_all();
            }
        });
    }

    #[test]
    // The PE thread panics with "exceeds slice length"; std::thread::scope
    // surfaces it as its own payload.
    #[should_panic(expected = "a scoped thread panicked")]
    fn put_bounds_checked() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u32>(2);
        let world = ShmemWorld::new(1, layout);
        world.run(|ctx| {
            ctx.put(buf, 1, &[1u32, 2], 0);
        });
    }

    #[test]
    fn put_strided_scatters_rows() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u32>(12);
        let mut world = ShmemWorld::new(2, layout);
        world.run(|ctx| {
            if ctx.me() == 0 {
                // 3 blocks of 2, stride 4, starting at offset 1.
                ctx.put_strided(buf, 1, 4, &[10u32, 11, 20, 21, 30, 31], 2, 1);
            }
            ctx.barrier_all();
        });
        assert_eq!(
            world.read(1, buf),
            vec![0, 10, 11, 0, 0, 20, 21, 0, 0, 30, 31, 0]
        );
    }

    #[test]
    // The PE thread panics on the bad stride; the scope surfaces it.
    #[should_panic(expected = "a scoped thread panicked")]
    fn put_strided_rejects_overlapping_stride() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u32>(8);
        let world = ShmemWorld::new(1, layout);
        world.run(|ctx| {
            ctx.put_strided(buf, 0, 1, &[1u32, 2, 3, 4], 2, 0);
        });
    }

    #[test]
    fn wait_until_timeout_succeeds_like_wait_until() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(8);
        let flags = layout.alloc_flags(1);
        let world = ShmemWorld::new(2, layout);
        world.run(|ctx| {
            if ctx.me() == 0 {
                ctx.put(buf, 0, &[9u64; 8], 1);
                ctx.fence();
                ctx.flag_store(flags, 0, 5, 1);
            } else {
                let v = ctx
                    .wait_until_timeout(flags, 0, Duration::from_secs(10), |v| v >= 5)
                    .expect("publisher stores within the deadline");
                assert_eq!(v, 5);
                let mut out = [0u64; 8];
                ctx.get(&mut out, buf, 0, 1);
                assert_eq!(out, [9u64; 8]);
            }
        });
    }

    #[test]
    fn wait_until_timeout_reports_last_value() {
        let mut layout = HeapLayout::new();
        let flags = layout.alloc_flags(1);
        let world = ShmemWorld::new(1, layout);
        world.run(|ctx| {
            ctx.flag_store(flags, 0, 3, 0);
            let err = ctx
                .wait_until_timeout(flags, 0, Duration::from_millis(5), |v| v >= 10)
                .expect_err("nobody will store 10");
            match err {
                ShmemError::WaitTimeout {
                    pe,
                    flag,
                    waited,
                    last_value,
                } => {
                    assert_eq!((pe, flag, last_value), (0, 0, 3));
                    assert!(waited >= Duration::from_millis(5));
                }
                other => panic!("wrong error {other:?}"),
            }
        });
    }

    #[test]
    fn quiet_timeout_is_immediate_on_functional_backend() {
        let world = ShmemWorld::new(1, HeapLayout::new());
        world.run(|ctx| {
            assert_eq!(ctx.quiet_timeout(Duration::ZERO), Ok(()));
        });
    }

    #[test]
    fn quiet_timeout_expires_while_deliveries_are_deferred() {
        let world = ShmemWorld::new(2, HeapLayout::new());
        world.run(|ctx| {
            if ctx.me() != 1 {
                return;
            }
            let a = ctx.begin_deferred_put();
            let b = ctx.begin_deferred_put();
            assert_eq!(outstanding(ctx), 2);
            let err = ctx
                .quiet_timeout(Duration::from_millis(2))
                .expect_err("two deliveries still in flight");
            match err {
                ShmemError::QuietTimeout {
                    pe,
                    waited,
                    outstanding,
                } => {
                    assert_eq!((pe, outstanding), (1, 2));
                    assert!(waited >= Duration::from_millis(2));
                }
                other => panic!("wrong error {other:?}"),
            }
            drop(a);
            assert_eq!(outstanding(ctx), 1);
            drop(b);
            assert_eq!(ctx.quiet_timeout(Duration::ZERO), Ok(()));
        });
    }

    #[test]
    fn quiet_drains_once_the_deferred_delivery_lands() {
        let world = ShmemWorld::new(1, HeapLayout::new());
        world.run(|ctx| {
            std::thread::scope(|s| {
                let guard = ctx.begin_deferred_put();
                // Hand the in-flight delivery to a helper that completes
                // it later, like a delayed NIC.
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(3));
                    drop(guard);
                });
                ctx.quiet();
                assert_eq!(outstanding(ctx), 0);
                let guard = ctx.begin_deferred_put();
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(3));
                    drop(guard);
                });
                ctx.quiet_timeout(Duration::from_secs(30))
                    .expect("helper completes the put well inside the deadline");
            });
        });
    }

    #[test]
    fn flag_publication_survives_a_straggler_pe() {
        // One PE sleeps before publishing each round; readers block on the
        // flag (never on wall-clock assumptions) and must still observe
        // the full payload — Release/Acquire does the work, the straggler
        // just widens the race window.
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(16);
        let flags = layout.alloc_flags(1);
        let n = 3;
        let world = ShmemWorld::new(n, layout);
        world.run(|ctx| {
            for round in 1..20u64 {
                let writer = (round % n as u64) as usize;
                if ctx.me() == writer {
                    if writer == 0 {
                        // The straggler: deliberately late.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    ctx.put(buf, 0, &[round * 31; 16], 0);
                    ctx.fence();
                    ctx.flag_store(flags, 0, round, 0);
                }
                if ctx.me() == 0 {
                    ctx.wait_until(flags, 0, |v| v >= round);
                    let mut out = [0u64; 16];
                    ctx.get(&mut out, buf, 0, 0);
                    assert_eq!(out, [round * 31; 16], "round {round}");
                }
                ctx.barrier_all();
            }
        });
    }

    #[test]
    fn barrier_all_fences_stragglers_writes() {
        // The sense-reversing barrier must publish a straggler's plain
        // puts to every PE: PE 0 writes late, everyone reads after the
        // barrier.
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(4);
        let n = 4;
        let world = ShmemWorld::new(n, layout);
        world.run(|ctx| {
            for round in 1..10u64 {
                if ctx.me() == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                    for pe in 0..ctx.n_pes() {
                        ctx.put(buf, 0, &[round; 4], pe);
                    }
                }
                ctx.barrier_all();
                let mut out = [0u64; 4];
                ctx.get(&mut out, buf, 0, ctx.me());
                assert_eq!(out, [round; 4]);
                ctx.barrier_all();
            }
        });
    }

    #[test]
    fn adversarial_delivery_preserves_fenced_handshakes() {
        use crate::delivery::AdversarialOrder;
        use std::sync::Arc;
        // Two PEs on separate P2P islands, every network put deferred:
        // the fence before each flag store must still flush the payload,
        // so the classic handshake cannot observe stale bytes.
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(32);
        let flags = layout.alloc_flags(1);
        let world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_delivery_order(Arc::new(AdversarialOrder));
        world.run(|ctx| {
            for round in 1..50u64 {
                if ctx.me() == 0 {
                    ctx.put(buf, 0, &[round * 13; 32], 1);
                    ctx.fence();
                    ctx.flag_store(flags, 0, round, 1);
                } else {
                    ctx.wait_until(flags, 0, |v| v >= round);
                    let mut out = [0u64; 32];
                    ctx.get(&mut out, buf, 0, 1);
                    assert_eq!(out, [round * 13; 32], "round {round}");
                }
                ctx.barrier_all();
            }
        });
    }

    #[test]
    fn deferred_puts_block_quiet_until_drained() {
        use crate::delivery::AdversarialOrder;
        use std::sync::Arc;
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(4);
        let mut world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_delivery_order(Arc::new(AdversarialOrder));
        world.run(|ctx| {
            if ctx.me() == 0 {
                ctx.put(buf, 0, &[7u64; 4], 1);
                assert_eq!(outstanding(ctx), 1, "delivery deferred");
                // quiet is an ordering point: it drains the ring itself.
                ctx.quiet_timeout(Duration::from_secs(5))
                    .expect("quiet drains its own deferred deliveries");
                assert_eq!(outstanding(ctx), 0);
            }
        });
        assert_eq!(world.read(1, buf), vec![7u64; 4]);
    }

    #[test]
    fn run_end_delivers_unfenced_puts() {
        use crate::delivery::AdversarialOrder;
        use std::sync::Arc;
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(2);
        let mut world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_delivery_order(Arc::new(AdversarialOrder));
        world.run(|ctx| {
            if ctx.me() == 0 {
                // No fence, no barrier: the put stays in the ring until
                // the run's final ordering point.
                ctx.put(buf, 0, &[41u64, 42], 1);
            }
        });
        assert_eq!(world.read(1, buf), vec![41, 42]);
    }

    #[test]
    fn schedule_signatures_separate_seeds_and_strategies() {
        use crate::delivery::{DeliveryOrder, ProgramOrder, SeededOrder};
        use std::sync::Arc;
        let run = |order: Arc<dyn DeliveryOrder>| {
            let mut layout = HeapLayout::new();
            let buf = layout.alloc::<u64>(8);
            let flags = layout.alloc_flags(1);
            let world = ShmemWorld::new(2, layout)
                .with_p2p_groups(vec![0, 1])
                .with_delivery_order(order);
            world.run(|ctx| {
                if ctx.me() == 0 {
                    for i in 0..8 {
                        ctx.put(buf, i, &[i as u64], 1);
                    }
                    ctx.fence();
                    ctx.flag_store(flags, 0, 1, 1);
                } else {
                    ctx.wait_until(flags, 0, |v| v == 1);
                }
            });
            (world.schedule_signature().unwrap(), world.put_keys())
        };
        let (base, keys) = run(Arc::new(ProgramOrder));
        assert_eq!(keys.len(), 8, "eight distinct put keys");
        // Same strategy twice → same signature (deterministic replay).
        assert_eq!(run(Arc::new(ProgramOrder)).0, base);
        // Different seeds produce a spread of distinct schedules.
        let sigs: std::collections::HashSet<u64> = (0..16)
            .map(|s| run(Arc::new(SeededOrder::new(s))).0)
            .collect();
        assert!(sigs.len() > 8, "seeded schedules collapse: {}", sigs.len());
    }

    #[test]
    fn trace_flags_unfenced_publication() {
        use crate::delivery::ProgramOrder;
        use crate::trace::TraceEvent;
        use std::sync::Arc;
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(4);
        let flags = layout.alloc_flags(1);
        let mut world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_delivery_order(Arc::new(ProgramOrder))
            .with_trace();
        world.run(|ctx| {
            if ctx.me() == 0 {
                ctx.put(buf, 0, &[1u64; 4], 1);
                // BUG under test: no fence before the publication.
                ctx.flag_store(flags, 0, 1, 1);
            }
            ctx.barrier_all();
        });
        let unfenced = world.take_trace().into_iter().find_map(|e| match e {
            TraceEvent::FlagStore { unfenced, .. } => Some(unfenced),
            _ => None,
        });
        assert_eq!(
            unfenced,
            Some(1),
            "missing fence must be visible in the trace"
        );
    }

    #[test]
    fn a_delivery_drained_by_another_thread_keeps_its_issuers_ctx() {
        use crate::trace::scoped_ctx;
        use fcc_telemetry::TraceCtx;
        let issued_under = TraceCtx::step(7).with_slice(3);
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u64>(4);
        let mut world = ShmemWorld::new(2, layout)
            .with_p2p_groups(vec![0, 1])
            .with_trace();
        world.run(|ctx| {
            if ctx.me() == 0 {
                // Thread A issues the put under its task's context; the
                // join orders it before thread B (this one) fences under
                // a different ambient context and drains the ring.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let _task = scoped_ctx(issued_under);
                        ctx.put(buf, 0, &[5u64; 4], 1);
                    });
                });
                let _other = scoped_ctx(TraceCtx::step(9));
                ctx.fence();
            }
        });
        let delivered: Vec<_> = world
            .take_trace_timed()
            .into_iter()
            .filter(|e| matches!(e.event, TraceEvent::PutDelivered { .. }))
            .collect();
        assert_eq!(delivered.len(), 1, "one ring put, one delivery");
        assert_eq!(
            delivered[0].event,
            TraceEvent::PutDelivered {
                src: 0,
                dst: 1,
                byte_offset: buf.byte_offset,
            }
        );
        assert_eq!(delivered[0].ctx, issued_under);
    }

    #[test]
    fn sub_slice_put_targets_correct_region() {
        let mut layout = HeapLayout::new();
        let buf = layout.alloc::<u32>(8);
        let mut world = ShmemWorld::new(1, layout);
        let window = buf.slice(4, 2);
        world.run(|ctx| {
            ctx.put(window, 1, &[99u32], 0);
        });
        let all = world.read(0, buf);
        assert_eq!(all, vec![0, 0, 0, 0, 0, 99, 0, 0]);
    }
}
