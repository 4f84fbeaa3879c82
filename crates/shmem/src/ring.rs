//! Lock-free delivery rings — the one delivery mechanism for network
//! puts, shipped and schedule-explored alike.
//!
//! One bounded ring exists per ordered (src, dst) PE pair whose
//! endpoints are *not* P2P-reachable (P2P and loopback puts stay plain
//! inline copies). A deferred network put enqueues its payload into the
//! `(src, dst)` ring; the copy into the destination arena happens when
//! the issuing PE reaches an ordering point (`fence`, `quiet`,
//! `barrier_all`, or run end) — exactly the window in which a one-sided
//! PUT is legally in flight. Whether a put is deferred is decided once,
//! in [`crate::PeCtx::put`]: always when it fits a slot, unless an
//! installed [`crate::DeliveryOrder`] says "deliver now".
//!
//! The ring is Vyukov-style bounded with a per-slot sequence number:
//!
//! * **Producers** (any thread of the source PE — the operators run
//!   rayon workers inside one PE) claim a position with a CAS on the
//!   cache-line-padded `tail`, write the slot, then publish it with a
//!   Release store of `seq = pos + 1`.
//! * **Consumption is single-drainer by construction**: whoever wants
//!   to drain first wins an atomic `draining` flag, so `head` has a
//!   unique writer — the consume side is SPSC even when many threads
//!   hit an ordering point at once. The drainer copies a published
//!   slot into the destination arena, recycles it with a Release store
//!   of `seq = pos + capacity`, and advances `head` with a Release
//!   store that losers of the `draining` race acquire.
//!
//! # Memory-ordering argument
//!
//! `fence()` must guarantee that a subsequent `flag_store` (Release)
//! publishes the payload to a remote `wait_until` (Acquire). The chain
//! is: producer's slot write → Release `seq` store → drainer's Acquire
//! `seq` load → payload copy into the arena → Release `head` store →
//! fencing thread's Acquire `head` load (it spins until `head` reaches
//! the `tail` it observed *after* its own puts) → its Release flag
//! store → reader's Acquire flag load. Every link is a release/acquire
//! pair, so the arena bytes happen-before the flag observation — the
//! same edge the paper's `PUT → fence → sliceRdy` protocol needs from
//! the NIC.
//!
//! Delivering *early* is always legal in this model, so a full ring
//! self-drains and a put that is not deferred (larger than
//! [`SLOT_PAYLOAD`] bytes, or released by the installed order) is
//! delivered eagerly — after draining older entries to the same
//! destination to preserve the per-queue-pair FIFO the hardware
//! guarantees.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fcc_telemetry::TraceCtx;

use crate::integrity::IntegrityLayer;
use crate::trace::{ProtocolTrace, TraceEvent};

/// What a drain pass reports to besides the destination arena: the
/// integrity layer that verifies each pop and the protocol trace that
/// records each delivery. Both `None` (the default) on the bench path,
/// where a pop is an unconditional copy.
#[derive(Clone, Copy, Default)]
pub(crate) struct DrainSinks<'a> {
    pub(crate) integrity: Option<&'a IntegrityLayer>,
    pub(crate) trace: Option<&'a ProtocolTrace>,
}

/// Payload bytes stored inline in one ring slot. Covers a slice-width-4
/// put of dim ≤ 64 f32 rows split per-row by `put_strided`; larger puts
/// take the eager bypass.
pub const SLOT_PAYLOAD: usize = 256;

/// Slots per ring (power of two).
const CAPACITY: usize = 64;

/// Pads the hot head/tail words to a cache line so producers and the
/// drainer never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Pads a PE's own runtime words — the ones only its threads write, on
/// its put path — to 128 bytes, a cache line and its prefetch buddy, so
/// PEs on different cores never write the same line.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct PeLine<T>(pub(crate) T);

/// Data-plane event counts of one source PE.
#[derive(Debug, Default)]
pub(crate) struct PutCounters {
    /// Producer stalls on a full ring (`shmem.ring.full_spins`).
    pub(crate) full_spins: AtomicU64,
    /// Network puts delivered eagerly past the ring: oversized, or
    /// released by the installed delivery order.
    pub(crate) bypasses: AtomicU64,
}

struct Slot {
    /// Vyukov sequence: `pos` = free for the producer claiming `pos`,
    /// `pos + 1` = published, `pos + CAPACITY` = consumed/recycled.
    seq: AtomicU64,
    /// Absolute destination address (bounds-checked at enqueue time).
    dst_addr: UnsafeCell<usize>,
    /// Payload length in bytes.
    len: UnsafeCell<u32>,
    /// Per-put wire checksum carried beside the payload (0 = none; the
    /// integrity layer never produces 0).
    sum: UnsafeCell<u64>,
    /// Causal context ambient when the put was issued — the delivery
    /// keeps its issuer's attribution whichever thread drains it.
    ctx: UnsafeCell<TraceCtx>,
    bytes: UnsafeCell<[u8; SLOT_PAYLOAD]>,
}

/// One (src, dst) delivery ring.
pub struct Ring {
    src: usize,
    dst: usize,
    /// Base address of `dst`'s arena (traced deliveries report offsets).
    dst_base: usize,
    slots: Box<[Slot]>,
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
    /// Single-drainer election flag: `head` writes happen only while
    /// holding it.
    draining: CachePadded<AtomicBool>,
}

// SAFETY: slot interiors are written only by the producer that claimed
// the position (between observing `seq == pos` and releasing
// `seq = pos + 1`) and read only by the unique drainer (between
// acquiring `seq == pos + 1` and releasing `seq = pos + CAPACITY`);
// the seq handoffs establish the required happens-before edges.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(src: usize, dst: usize, dst_base: usize) -> Ring {
        Ring {
            src,
            dst,
            dst_base,
            slots: (0..CAPACITY as u64)
                .map(|pos| Slot {
                    seq: AtomicU64::new(pos),
                    dst_addr: UnsafeCell::new(0),
                    len: UnsafeCell::new(0),
                    sum: UnsafeCell::new(0),
                    ctx: UnsafeCell::new(TraceCtx::NONE),
                    bytes: UnsafeCell::new([0; SLOT_PAYLOAD]),
                })
                .collect(),
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            draining: CachePadded(AtomicBool::new(false)),
        }
    }

    /// Puts ever enqueued — `tail` doubles as a free per-ring counter.
    pub fn total_puts(&self) -> u64 {
        self.tail.0.load(Ordering::Acquire)
    }

    /// Entries enqueued but not yet delivered.
    #[cfg(test)]
    fn occupancy(&self) -> u64 {
        let tail = self.tail.0.load(Ordering::Acquire);
        tail.saturating_sub(self.head.0.load(Ordering::Acquire))
    }

    /// Enqueues one payload destined for `dst_addr`, stamped with its
    /// wire checksum and issue-time context. A full ring self-drains;
    /// `full_spins` counts those stalls.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`SLOT_PAYLOAD`]: the caller
    /// delivers such a put eagerly (after a [`drain`](Self::drain), to
    /// preserve FIFO) and never offers it to the ring.
    ///
    /// # Safety
    /// `dst_addr .. dst_addr + bytes.len()` must stay valid and free of
    /// concurrent access (per the crate's protocol contract) until the
    /// ring is next drained.
    pub(crate) unsafe fn push(
        &self,
        dst_addr: usize,
        bytes: &[u8],
        sum: u64,
        ctx: TraceCtx,
        full_spins: &AtomicU64,
        sinks: DrainSinks<'_>,
    ) {
        assert!(
            bytes.len() <= SLOT_PAYLOAD,
            "a {}-byte payload cannot ride a {SLOT_PAYLOAD}-byte slot",
            bytes.len()
        );
        let mut spins = 0u32;
        loop {
            let pos = self.tail.0.load(Ordering::Relaxed);
            let slot = &self.slots[(pos as usize) & (CAPACITY - 1)];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                if self
                    .tail
                    .0
                    .compare_exchange_weak(pos, pos + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: winning the CAS makes this thread the
                    // slot's unique writer until the Release below.
                    unsafe {
                        *slot.dst_addr.get() = dst_addr;
                        *slot.len.get() = bytes.len() as u32;
                        *slot.sum.get() = sum;
                        *slot.ctx.get() = ctx;
                        std::ptr::copy_nonoverlapping(
                            bytes.as_ptr(),
                            (*slot.bytes.get()).as_mut_ptr(),
                            bytes.len(),
                        );
                    }
                    slot.seq.store(pos + 1, Ordering::Release);
                    return;
                }
            } else if seq < pos {
                // Full: the consumer side is `CAPACITY` behind. Deliver
                // early (always legal) rather than deadlocking a
                // producer that never reaches an ordering point.
                full_spins.fetch_add(1, Ordering::Relaxed);
                if !self.try_drain(sinks) {
                    spins = spins.wrapping_add(1);
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
            // seq > pos: another producer advanced tail under us; retry.
        }
    }

    /// Attempts one drain pass; returns `false` if another thread holds
    /// the drainer flag. Never blocks while holding the flag.
    ///
    /// With an integrity layer, each pop's payload is verified against
    /// the checksum it carried *before* the copy; a mismatch quarantines
    /// the delivery (the arena is never touched) and records the poison
    /// against the destination PE. With a trace, each pop is recorded as
    /// a [`TraceEvent::PutDelivered`] under the put's issue-time context.
    fn try_drain(&self, sinks: DrainSinks<'_>) -> bool {
        if self
            .draining
            .0
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        loop {
            // Sole head writer while `draining` is held.
            let pos = self.head.0.load(Ordering::Relaxed);
            let slot = &self.slots[(pos as usize) & (CAPACITY - 1)];
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                break; // next entry unpublished (or ring empty)
            }
            // SAFETY: the Acquire above synchronizes with the
            // producer's Release publication, and holding `draining`
            // makes this thread the slot's unique reader. The target
            // region was bounds-checked at enqueue and is free of
            // concurrent access under the protocol contract until the
            // (yet unobserved) publication this delivery precedes.
            unsafe {
                let len = *slot.len.get() as usize;
                let addr = *slot.dst_addr.get();
                let deliver = match sinks.integrity {
                    Some(layer) => layer.verify_pop(
                        self.dst,
                        addr,
                        std::slice::from_raw_parts((*slot.bytes.get()).as_ptr(), len),
                        *slot.sum.get(),
                    ),
                    None => true,
                };
                if deliver {
                    std::ptr::copy_nonoverlapping(
                        (*slot.bytes.get()).as_ptr(),
                        addr as *mut u8,
                        len,
                    );
                }
                if let Some(trace) = sinks.trace {
                    trace.record_with(
                        TraceEvent::PutDelivered {
                            src: self.src,
                            dst: self.dst,
                            byte_offset: addr - self.dst_base,
                        },
                        *slot.ctx.get(),
                    );
                }
            }
            slot.seq.store(pos + CAPACITY as u64, Ordering::Release);
            self.head.0.store(pos + 1, Ordering::Release);
        }
        self.draining.0.store(false, Ordering::Release);
        true
    }

    /// Delivers every entry published so far; on return, all payloads
    /// enqueued before the call are visible in their destination arenas
    /// (whether this thread or a concurrent drainer copied them).
    pub(crate) fn drain(&self, sinks: DrainSinks<'_>) {
        let target = self.tail.0.load(Ordering::Acquire);
        let mut spins = 0u32;
        while self.head.0.load(Ordering::Acquire) < target {
            if !self.try_drain(sinks) {
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

/// All rings of one world: `rings[src * n_pes + dst]`, allocated only
/// for non-P2P pairs, plus the data-plane counters telemetry exports —
/// counted per source PE, each on that PE's own line, and summed on read.
pub struct RingPlane {
    n_pes: usize,
    rings: Vec<Option<Box<Ring>>>,
    counters: Box<[PeLine<PutCounters>]>,
}

impl RingPlane {
    /// Builds rings for every ordered non-P2P pair of `p2p_group`;
    /// `arena_bases[pe]` is the base address of `pe`'s arena.
    pub fn new(n_pes: usize, p2p_group: &[u32], arena_bases: &[usize]) -> RingPlane {
        assert_eq!(p2p_group.len(), n_pes);
        assert_eq!(arena_bases.len(), n_pes);
        let rings = (0..n_pes * n_pes)
            .map(|i| {
                let (src, dst) = (i / n_pes, i % n_pes);
                (p2p_group[src] != p2p_group[dst])
                    .then(|| Box::new(Ring::new(src, dst, arena_bases[dst])))
            })
            .collect();
        RingPlane {
            n_pes,
            rings,
            counters: (0..n_pes).map(|_| PeLine::default()).collect(),
        }
    }

    /// The counters source PE `src` bumps on its put path.
    #[inline]
    pub(crate) fn counters(&self, src: usize) -> &PutCounters {
        &self.counters[src].0
    }

    fn summed(&self, word: impl Fn(&PutCounters) -> &AtomicU64) -> u64 {
        let load = |c: &PeLine<PutCounters>| word(&c.0).load(Ordering::Relaxed);
        self.counters.iter().map(load).sum()
    }

    /// Producer stalls on a full ring, over all sources.
    pub fn full_spins(&self) -> u64 {
        self.summed(|c| &c.full_spins)
    }

    /// Network puts delivered eagerly past the rings, over all sources.
    pub fn bypasses(&self) -> u64 {
        self.summed(|c| &c.bypasses)
    }

    /// The (src, dst) ring, if that pair is a network pair.
    #[inline]
    pub fn ring(&self, src: usize, dst: usize) -> Option<&Ring> {
        self.rings[src * self.n_pes + dst].as_deref()
    }

    /// Drains every ring whose source is `src` (fence/quiet/barrier/run
    /// end on that PE).
    pub(crate) fn drain_src(&self, src: usize, sinks: DrainSinks<'_>) {
        for ring in self.rings[src * self.n_pes..(src + 1) * self.n_pes]
            .iter()
            .flatten()
        {
            ring.drain(sinks);
        }
    }

    /// Undelivered entries across `src`'s rings.
    #[cfg(test)]
    pub(crate) fn occupancy_src(&self, src: usize) -> u64 {
        self.rings[src * self.n_pes..(src + 1) * self.n_pes]
            .iter()
            .flatten()
            .map(|r| r.occupancy())
            .sum()
    }

    /// Puts ever enqueued across all rings — a free PUT counter.
    pub fn total_puts(&self) -> u64 {
        self.rings.iter().flatten().map(|r| r.total_puts()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A push with no checksum, context, or sinks — the bench-path shape.
    ///
    /// # Safety
    /// As for [`Ring::push`].
    unsafe fn push(ring: &Ring, dst_addr: usize, bytes: &[u8], spins: &AtomicU64) {
        // SAFETY: forwarded contract.
        unsafe {
            ring.push(
                dst_addr,
                bytes,
                0,
                TraceCtx::NONE,
                spins,
                DrainSinks::default(),
            )
        }
    }

    #[test]
    fn ring_delivers_in_fifo_order() {
        let ring = Ring::new(0, 1, 0);
        let spins = AtomicU64::new(0);
        let mut out = [0u64; 8];
        for (i, o) in out.iter_mut().enumerate() {
            let payload = (i as u64 + 1) * 3;
            // SAFETY: `o` outlives the drain below.
            unsafe {
                push(
                    &ring,
                    o as *mut u64 as usize,
                    &payload.to_ne_bytes(),
                    &spins,
                )
            };
        }
        assert_eq!(ring.occupancy(), 8);
        ring.drain(DrainSinks::default());
        assert_eq!(ring.occupancy(), 0);
        assert_eq!(ring.total_puts(), 8);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o, (i as u64 + 1) * 3);
        }
    }

    #[test]
    fn full_ring_self_drains_instead_of_deadlocking() {
        let ring = Ring::new(0, 1, 0);
        let spins = AtomicU64::new(0);
        let n = CAPACITY * 3 + 7;
        let mut out = vec![0u32; n];
        for (i, o) in out.iter_mut().enumerate() {
            // SAFETY: `out` outlives the final drain.
            unsafe {
                push(
                    &ring,
                    o as *mut u32 as usize,
                    &(i as u32).to_ne_bytes(),
                    &spins,
                )
            };
        }
        ring.drain(DrainSinks::default());
        assert!(
            spins.load(Ordering::Relaxed) > 0,
            "overflow must be counted"
        );
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o as usize, i);
        }
    }

    #[test]
    #[should_panic(expected = "cannot ride")]
    fn oversized_payloads_are_rejected_for_bypass() {
        let ring = Ring::new(0, 1, 0);
        let spins = AtomicU64::new(0);
        let big = vec![0u8; SLOT_PAYLOAD + 1];
        let mut sink = vec![0u8; SLOT_PAYLOAD + 1];
        // SAFETY: sink outlives the call.
        unsafe { push(&ring, sink.as_mut_ptr() as usize, &big, &spins) };
    }

    #[test]
    fn concurrent_producers_with_concurrent_drainers() {
        // 4 producer threads × 200 slot-sized increments each into
        // disjoint cells, with every thread also draining at the end —
        // the single-drainer election must keep deliveries exact.
        const THREADS: usize = 4;
        const PER: usize = 200;
        let ring = Ring::new(0, 1, 0);
        let spins = AtomicU64::new(0);
        let out: Vec<AtomicU64> = (0..THREADS * PER).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (ring, spins, out) = (&ring, &spins, &out);
                s.spawn(move || {
                    for i in 0..PER {
                        let idx = t * PER + i;
                        let val = (idx as u64 + 1).to_ne_bytes();
                        // SAFETY: each cell has exactly one writer (this
                        // enqueue) and `out` outlives the scope. Plain
                        // byte copies into an AtomicU64 cell are fine
                        // here: the drain/join below orders the reads.
                        unsafe { push(ring, out[idx].as_ptr() as usize, &val, spins) };
                    }
                    ring.drain(DrainSinks::default());
                });
            }
        });
        assert_eq!(ring.occupancy(), 0);
        assert_eq!(ring.total_puts(), (THREADS * PER) as u64);
        for (idx, cell) in out.iter().enumerate() {
            assert_eq!(cell.load(Ordering::Acquire), idx as u64 + 1);
        }
    }

    #[test]
    fn plane_allocates_rings_only_for_network_pairs() {
        let plane = RingPlane::new(4, &[0, 0, 1, 1], &[0; 4]);
        assert!(plane.ring(0, 1).is_none(), "P2P pair needs no ring");
        assert!(plane.ring(0, 2).is_some());
        assert!(plane.ring(2, 0).is_some(), "rings are per ordered pair");
        assert!(plane.ring(3, 3).is_none());
        assert_eq!(plane.total_puts(), 0);
    }

    #[test]
    fn counters_are_kept_per_source_and_summed_on_read() {
        // (`world.rs` holds the layout test: one PE per line.)
        let plane = RingPlane::new(4, &[0, 1, 2, 3], &[0; 4]);
        plane.counters(1).bypasses.fetch_add(2, Ordering::Relaxed);
        plane.counters(3).bypasses.fetch_add(3, Ordering::Relaxed);
        plane.counters(0).full_spins.fetch_add(1, Ordering::Relaxed);
        assert_eq!((plane.bypasses(), plane.full_spins()), (5, 1));
    }
}
