//! The PE team and its symmetric arenas.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use fcc_telemetry::FlightRecorder;

use crate::ctx::PeCtx;
use crate::delivery::{DeliveryModel, DeliveryOrder, PutKey, ScheduleLog};
use crate::heap::{HeapLayout, SymSlice};
use crate::integrity::{IntegrityLayer, IntegrityStats};
use crate::pod::Pod;
use crate::ring::{DrainSinks, PeLine, RingPlane};
use crate::trace::{ProtocolTrace, TraceEvent};

/// Data-plane counters of one world's ring plane — what telemetry
/// exports as `shmem.ring.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Network puts that went through a delivery ring.
    pub ring_puts: u64,
    /// Producer stalls on a full ring (delivered early instead).
    pub full_spins: u64,
    /// Network puts delivered eagerly past the ring: oversized, or
    /// released by the installed delivery order.
    pub bypasses: u64,
}

/// A sense-reversing spin barrier — the GPU-style `barrier_all`.
///
/// Arrivals count up on a shared counter; the last arrival resets the
/// counter and flips the *sense* (here a monotonic generation number, the
/// multi-round generalisation of a boolean sense flag), releasing the
/// spinners. Unlike `std::sync::Barrier` this exposes its generation —
/// which the degraded-mode protocol and the straggler tests observe — and
/// spins rather than parking, matching how device-side barriers behave.
///
/// Memory ordering: the arrival `fetch_add` is AcqRel and the release
/// `generation` store is Release against the spinners' Acquire loads, so
/// everything before the barrier on any PE happens-before everything
/// after it on every PE — the same full-fence contract `barrier_all`
/// documents.
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicU64,
}

impl SenseBarrier {
    /// A barrier for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> SenseBarrier {
        assert!(n > 0, "need at least one participant");
        SenseBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Completed barrier rounds so far. Safe to read from any thread; a
    /// participant that just returned from [`wait`](Self::wait) observes
    /// at least its own round.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Blocks until all `n` participants have arrived.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: reset for the next round *before* flipping the
            // sense — nobody can re-enter until they observe the flip.
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// One PE's span of the symmetric heap. Backed by `u64` words so every
/// offset handed out by [`HeapLayout`] is 8-byte aligned.
pub(crate) struct Arena {
    words: Box<[UnsafeCell<u64>]>,
}

// SAFETY: all concurrent access to arena bytes goes through raw pointers
// under the crate's protocol contract (writers and readers separated by
// flag publication or barriers); the UnsafeCell makes the mutation legal,
// and the protocol makes it race-free.
unsafe impl Sync for Arena {}

impl Arena {
    fn new(bytes: usize) -> Arena {
        let words = bytes.div_ceil(8);
        Arena {
            words: (0..words).map(|_| UnsafeCell::new(0)).collect(),
        }
    }

    #[inline]
    pub(crate) fn base(&self) -> *mut u8 {
        self.words.as_ptr() as *mut u8
    }

    pub(crate) fn byte_len(&self) -> usize {
        self.words.len() * 8
    }
}

fn arena_bases(arenas: &[Arena]) -> Vec<usize> {
    arenas.iter().map(|a| a.base() as usize).collect()
}

/// A team of PEs sharing a symmetric heap — the `shmem_init` equivalent.
///
/// Build a [`HeapLayout`] first (the collective allocation phase), then a
/// world around it, then [`run`](ShmemWorld::run) a closure on every PE:
///
/// ```
/// use fcc_shmem::{heap::HeapLayout, ShmemWorld};
///
/// let mut layout = HeapLayout::new();
/// let buf = layout.alloc::<u32>(4);
/// let flags = layout.alloc_flags(1);
/// let world = ShmemWorld::new(2, layout);
///
/// world.run(|ctx| {
///     if ctx.me() == 0 {
///         ctx.put(buf, 0, &[1u32, 2, 3, 4], 1);
///         ctx.fence();
///         ctx.flag_store(flags, 0, 1, 1);
///     } else {
///         ctx.wait_until(flags, 0, |v| v == 1);
///         let mut out = [0u32; 4];
///         ctx.get(&mut out, buf, 0, ctx.me());
///         assert_eq!(out, [1, 2, 3, 4]);
///     }
/// });
/// ```
pub struct ShmemWorld {
    pub(crate) arenas: Vec<Arena>,
    pub(crate) barrier: SenseBarrier,
    /// P2P reachability group of each PE (same group = direct load/store
    /// peers, the `roc_shmem_ptr() != NULL` case).
    pub(crate) p2p_group: Vec<u32>,
    /// Per-PE gauge of puts issued but not yet confirmed complete — what
    /// `quiet` spins on once the rings are drained. An eager copy holds
    /// it for the copy's duration, so it only stays non-zero across a
    /// [`crate::ctx::PendingPut`] guard (a deliberately deferred
    /// delivery, e.g. a fault injector holding a message in flight).
    /// Bumped twice per loopback or eager put, so each PE's gauge sits on
    /// its own line.
    pub(crate) pending: Box<[PeLine<AtomicU64>]>,
    /// Installed delivery-ordering policy, if any — see
    /// [`with_delivery_order`](Self::with_delivery_order).
    pub(crate) delivery: Option<DeliveryModel>,
    /// Lock-free per-(src, dst) delivery rings — the one delivery
    /// mechanism for network puts, with or without a [`DeliveryOrder`].
    pub(crate) rings: RingPlane,
    /// Protocol event trace, if enabled — see
    /// [`with_trace`](Self::with_trace).
    pub(crate) trace: Option<ProtocolTrace>,
    /// Wire-integrity layer, if enabled — see
    /// [`with_integrity`](Self::with_integrity).
    pub(crate) integrity: Option<Arc<IntegrityLayer>>,
    /// Flight recorder stamped from the protocol hot paths — disabled by
    /// default (a single branch per hook); see
    /// [`with_flight`](Self::with_flight).
    pub(crate) flight: FlightRecorder,
    n_pes: usize,
}

impl ShmemWorld {
    /// Creates `n_pes` arenas sized to `layout`, all mutually P2P
    /// (single-node default).
    pub fn new(n_pes: usize, layout: HeapLayout) -> ShmemWorld {
        assert!(n_pes > 0, "need at least one PE");
        let p2p_group = vec![0; n_pes];
        let arenas: Vec<Arena> = (0..n_pes)
            .map(|_| Arena::new(layout.bytes_used()))
            .collect();
        ShmemWorld {
            rings: RingPlane::new(n_pes, &p2p_group, &arena_bases(&arenas)),
            arenas,
            barrier: SenseBarrier::new(n_pes),
            pending: (0..n_pes).map(|_| PeLine::default()).collect(),
            delivery: None,
            p2p_group,
            trace: None,
            integrity: None,
            flight: FlightRecorder::disabled(),
            n_pes,
        }
    }

    /// Assigns P2P groups (e.g. `[0,0,0,0,1,1,1,1]` for two 4-GPU nodes).
    /// PEs in different groups are reachable only through `put`/`get`
    /// (RDMA), not direct stores.
    ///
    /// # Panics
    /// Panics if `groups.len() != n_pes`.
    pub fn with_p2p_groups(mut self, groups: Vec<u32>) -> ShmemWorld {
        assert_eq!(groups.len(), self.n_pes, "one group per PE");
        // Rings exist exactly for the network pairs the groups define.
        self.rings = RingPlane::new(self.n_pes, &groups, &arena_bases(&self.arenas));
        self.p2p_group = groups;
        self
    }

    /// Installs a [`DeliveryOrder`] as the policy on the delivery rings:
    /// a network put it defers stays in its ring until the issuing PE
    /// reaches an ordering point (fence, `quiet`, `barrier_all`, or run
    /// end) — the window in which a one-sided PUT is legally still in
    /// flight — and one it releases takes the ring's eager path. Without
    /// an order every slot-sized put is deferred. Flag operations are
    /// never deferred; the order relaxes only what the SHMEM ordering
    /// rules actually leave open.
    pub fn with_delivery_order(mut self, order: Arc<dyn DeliveryOrder>) -> ShmemWorld {
        self.delivery = Some(DeliveryModel {
            order,
            log: ScheduleLog::default(),
        });
        self
    }

    /// Enables the wire-integrity layer: every deferred network put
    /// carries a per-put checksum beside its payload, verified at the
    /// delivery-ring pop; a mismatch quarantines the delivery and is
    /// surfaced to the destination PE at its next `wait`/fence boundary
    /// as [`crate::ShmemError::Corruption`]. Strictly pay-for-use: a
    /// world built without this computes no checksums and takes no
    /// extra branches beyond one `Option` test per put.
    pub fn with_integrity(mut self) -> ShmemWorld {
        self.integrity = Some(Arc::new(IntegrityLayer::new(self.n_pes)));
        self
    }

    /// Counters of the wire-integrity layer, or `None` when disabled.
    pub fn integrity_stats(&self) -> Option<IntegrityStats> {
        self.integrity.as_ref().map(|layer| layer.stats())
    }

    /// Attaches a [`FlightRecorder`]: network puts, flag publications,
    /// and integrity quarantines stamp one bounded-ring slot each —
    /// allocation-free when enabled, a single branch when the recorder
    /// is disabled. Cloning the recorder shares its ring, so the caller
    /// keeps a handle for dumping.
    pub fn with_flight(mut self, recorder: FlightRecorder) -> ShmemWorld {
        self.flight = recorder;
        self
    }

    /// The attached flight recorder (disabled unless
    /// [`with_flight`](Self::with_flight) was called).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Enables the protocol event trace consumed by `fcc-check`'s
    /// invariant checker, and with it the per-thread `unfenced`
    /// bookkeeping flag stores report.
    pub fn with_trace(mut self) -> ShmemWorld {
        self.trace = Some(ProtocolTrace::default());
        self
    }

    /// Drains the protocol trace recorded so far. Requires `&mut self`,
    /// so it can only run between [`run`](Self::run)s.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .map(ProtocolTrace::take)
            .unwrap_or_default()
    }

    /// Drains the protocol trace with epoch-relative timestamps — the
    /// form the telemetry merger consumes. Requires `&mut self`, so it
    /// can only run between [`run`](Self::run)s.
    pub fn take_trace_timed(&mut self) -> Vec<crate::trace::TimedEvent> {
        self.trace
            .as_ref()
            .map(ProtocolTrace::take_timed)
            .unwrap_or_default()
    }

    /// Stable signature of the delivery schedule the installed order
    /// realized in the last run, or `None` without a model.
    pub fn schedule_signature(&self) -> Option<u64> {
        self.delivery.as_ref().map(|m| m.log.signature())
    }

    /// The deterministic, sorted set of network-put keys the program
    /// issued — the decision dimensions an exhaustive explorer
    /// enumerates. Empty without a model.
    pub fn put_keys(&self) -> Vec<PutKey> {
        self.delivery
            .as_ref()
            .map(|m| m.log.put_keys())
            .unwrap_or_default()
    }

    /// Data-plane counters of the delivery rings since world creation.
    pub fn ring_stats(&self) -> RingStats {
        RingStats {
            ring_puts: self.rings.total_puts(),
            full_spins: self.rings.full_spins(),
            bypasses: self.rings.bypasses(),
        }
    }

    pub(crate) fn record_trace(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.record(event);
        }
    }

    /// The sinks every drain of this world's rings reports to.
    #[inline]
    pub(crate) fn drain_sinks(&self) -> DrainSinks<'_> {
        DrainSinks {
            integrity: self.integrity.as_deref(),
            trace: self.trace.as_ref(),
        }
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// Whether `a` and `b` can reach each other with direct loads/stores.
    pub fn is_p2p(&self, a: usize, b: usize) -> bool {
        self.p2p_group[a] == self.p2p_group[b]
    }

    pub(crate) fn arena(&self, pe: usize) -> &Arena {
        &self.arenas[pe]
    }

    /// Runs `f` once per PE on its own OS thread and joins them all.
    /// A panic on any PE propagates after the scope unwinds.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&PeCtx<'_>) + Sync,
    {
        std::thread::scope(|scope| {
            for me in 0..self.n_pes {
                let f = &f;
                scope.spawn(move || {
                    let ctx = PeCtx::new(self, me);
                    f(&ctx);
                    // Run end is the final ordering point: anything still
                    // in the rings lands before the world can be inspected.
                    self.rings.drain_src(me, self.drain_sinks());
                });
            }
        });
    }

    /// Like [`run`](Self::run), but gathers each PE's return value into a
    /// `Vec` indexed by rank — for algorithms that report a per-PE
    /// verdict (e.g. whether an execution degraded).
    pub fn run_collect<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&PeCtx<'_>) -> R + Sync,
        R: Send,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.n_pes)
                .map(|me| {
                    let f = &f;
                    scope.spawn(move || {
                        let ctx = PeCtx::new(self, me);
                        let out = f(&ctx);
                        self.rings.drain_src(me, self.drain_sinks());
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a scoped PE thread panicked"))
                .collect()
        })
    }

    /// Reads a slice out of `pe`'s arena. Requires `&mut self`, so it can
    /// only run while no PE threads exist — handy for seeding inputs and
    /// validating outputs around a [`run`](Self::run).
    pub fn read<T: Pod>(&mut self, pe: usize, slice: SymSlice<T>) -> Vec<T> {
        let mut out = vec![unsafe { std::mem::zeroed() }; slice.len()];
        let base = self.bounded_ptr(pe, slice.byte_offset, slice.byte_len());
        // SAFETY: exclusive access via &mut self; bounds checked above.
        unsafe {
            std::ptr::copy_nonoverlapping(base as *const T, out.as_mut_ptr(), slice.len());
        }
        out
    }

    /// Writes `data` into `pe`'s arena at `slice[offset..]`. Same
    /// exclusivity argument as [`read`](Self::read).
    pub fn write<T: Pod>(&mut self, pe: usize, slice: SymSlice<T>, offset: usize, data: &[T]) {
        assert!(
            offset + data.len() <= slice.len(),
            "write of {} elements at offset {offset} exceeds slice length {}",
            data.len(),
            slice.len()
        );
        let byte_off = slice.byte_offset + offset * std::mem::size_of::<T>();
        let base = self.bounded_ptr(pe, byte_off, std::mem::size_of_val(data));
        // SAFETY: exclusive access via &mut self; bounds checked above.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), base as *mut T, data.len());
        }
    }

    fn bounded_ptr(&self, pe: usize, byte_offset: usize, byte_len: usize) -> *mut u8 {
        let arena = self.arena(pe);
        assert!(
            byte_offset + byte_len <= arena.byte_len(),
            "access [{byte_offset}, +{byte_len}) exceeds arena of {} bytes",
            arena.byte_len()
        );
        // SAFETY: offset is within the allocation, checked above.
        unsafe { arena.base().add(byte_offset) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arenas_are_zeroed_and_sized() {
        let mut layout = HeapLayout::new();
        let a = layout.alloc::<u64>(16);
        let mut world = ShmemWorld::new(3, layout);
        for pe in 0..3 {
            assert!(world.read(pe, a).iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn no_two_pes_put_path_words_share_a_cache_line() {
        // Everything a PE writes on its own put path — its outstanding-put
        // gauge and its ring counters — on lines no other PE writes.
        let world = ShmemWorld::new(4, HeapLayout::new()).with_p2p_groups(vec![0, 1, 2, 3]);
        let line = |w: &AtomicU64| w as *const AtomicU64 as usize / 128;
        let mut owners: Vec<(usize, usize)> = (0..4)
            .flat_map(|pe| {
                let c = world.rings.counters(pe);
                [&world.pending[pe].0, &c.full_spins, &c.bypasses].map(|w| (line(w), pe))
            })
            .collect();
        owners.sort_unstable();
        for pair in owners.windows(2) {
            let same_line = pair[0].0 == pair[1].0;
            assert!(
                !same_line || pair[0].1 == pair[1].1,
                "two PEs on a line: {pair:?}"
            );
        }
    }

    #[test]
    fn host_read_write_round_trip() {
        let mut layout = HeapLayout::new();
        let a = layout.alloc::<f32>(8);
        let mut world = ShmemWorld::new(2, layout);
        world.write(0, a, 2, &[1.5, 2.5]);
        let back = world.read(0, a);
        assert_eq!(&back[2..4], &[1.5, 2.5]);
        // Other PE untouched.
        assert!(world.read(1, a).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn p2p_groups() {
        let world = ShmemWorld::new(4, HeapLayout::new()).with_p2p_groups(vec![0, 0, 1, 1]);
        assert!(world.is_p2p(0, 1));
        assert!(world.is_p2p(2, 3));
        assert!(!world.is_p2p(1, 2));
        assert!(world.is_p2p(3, 3));
    }

    #[test]
    #[should_panic(expected = "exceeds slice length")]
    fn write_bounds_checked() {
        let mut layout = HeapLayout::new();
        let a = layout.alloc::<u32>(4);
        let mut world = ShmemWorld::new(1, layout);
        world.write(0, a, 3, &[1u32, 2]);
    }

    #[test]
    fn run_spawns_every_pe() {
        use std::sync::atomic::AtomicU32;
        let world = ShmemWorld::new(8, HeapLayout::new());
        let count = AtomicU32::new(0);
        world.run(|ctx| {
            assert!(ctx.me() < 8);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn sense_barrier_counts_generations() {
        let b = SenseBarrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(b.generation(), 100);
    }

    #[test]
    fn sense_barrier_separates_rounds_with_nonatomic_data() {
        // Each round one thread writes a plain (non-atomic) cell, all
        // others read it after the barrier. Any missing happens-before
        // edge is a data race that shows up as a stale value (and under
        // Miri/TSan as UB).
        struct Cell(UnsafeCell<u64>);
        unsafe impl Sync for Cell {}
        let n = 3;
        let b = SenseBarrier::new(n);
        let cell = Cell(UnsafeCell::new(0));
        std::thread::scope(|s| {
            for me in 0..n {
                let (b, cell) = (&b, &cell);
                s.spawn(move || {
                    for round in 1..64u64 {
                        if me == (round % n as u64) as usize {
                            // SAFETY: this thread is the round's unique
                            // writer and readers are fenced off by the
                            // barrier below.
                            unsafe { *cell.0.get() = round }
                        }
                        b.wait();
                        // SAFETY: no writer until after the next barrier.
                        assert_eq!(unsafe { *cell.0.get() }, round);
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn sense_barrier_tolerates_a_straggler() {
        // One participant arrives late every round; the barrier must not
        // let the fast ones run ahead, and the generation count must stay
        // exact (a broken reset double-releases and overcounts).
        let n = 4;
        let b = SenseBarrier::new(n);
        let rounds = 20;
        std::thread::scope(|s| {
            for me in 0..n {
                let b = &b;
                s.spawn(move || {
                    for round in 0..rounds {
                        if me == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        assert_eq!(b.generation(), round, "PE {me} ran ahead");
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(b.generation(), rounds);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn sense_barrier_rejects_zero() {
        SenseBarrier::new(0);
    }
}
