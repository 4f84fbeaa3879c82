//! Reusable scratch buffers for steady-state allocation-free kernels.
//!
//! Every operator in [`crate::op`] needs short-lived `f32` workspaces on
//! its hot path: one `dim`-wide vector per pooled lookup, one slice-wide
//! payload per elected last finisher. Allocating them per task keeps the
//! allocator on the critical path of every logical workgroup — exactly
//! the per-slice overhead the paper's persistent kernel avoids by reusing
//! registers and LDS across tasks.
//!
//! [`ScratchPool`] is the reuse mechanism: a free list of `Vec<f32>`
//! buffers owned by the *plan* (which outlives every execution), handed
//! out as RAII [`ScratchGuard`]s that return their buffer on drop. After
//! a warm-up execution has grown every buffer to its high-water capacity,
//! `take` never allocates again — the steady state is allocation-free,
//! and [`ScratchPool::misses`] proves it: the counter increments only
//! when a request could not be served from pooled capacity. The profile
//! harness exports the sum of these counters as the
//! `shmem.alloc.steady_state` telemetry metric and asserts it stays flat
//! after warm-up.
//!
//! The free list is a single `Mutex<Vec<_>>`: pop/push are O(1) pointer
//! moves, far cheaper than the malloc/free pair they replace, and the
//! vendored rayon substrate spawns fresh OS threads per parallel region,
//! so thread-local caching would never get warm anyway.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Spare elements allocated behind every pooled buffer (128 bytes: a
/// cache line and its prefetch buddy). The allocator places the buffers
/// of one `reserve` back to back, and two PE threads accumulating into
/// neighbouring vectors whose ends share a line ping-pong it on every
/// add; with the pad, used ranges never touch the same line.
const LINE_PAD: usize = 32;

/// A pool of reusable `f32` scratch buffers.
///
/// Buffers of mixed lengths may share a pool; capacity converges to the
/// largest request, after which every `take` is allocation-free. For
/// counters that stay exactly zero in steady state, give each distinct
/// buffer role (per-vector scratch vs. slice payloads) its own pool.
pub struct ScratchPool {
    free: Mutex<Vec<Vec<f32>>>,
    misses: AtomicU64,
}

impl ScratchPool {
    /// An empty pool. `const`, so plans can hold pools without plumbing.
    pub const fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
            misses: AtomicU64::new(0),
        }
    }

    /// Takes a zeroed buffer of exactly `len` elements.
    ///
    /// Serves from the free list when possible; a request that cannot be
    /// satisfied from pooled capacity allocates and bumps
    /// [`misses`](Self::misses).
    pub fn take(&self, len: usize) -> ScratchGuard<'_> {
        let mut buf = self.free.lock().expect("scratch pool poisoned").pop();
        let mut inner = buf.take().unwrap_or_default();
        inner.clear();
        if inner.capacity() < len {
            self.misses.fetch_add(1, Ordering::Relaxed);
            inner.reserve_exact(len + LINE_PAD);
        }
        inner.resize(len, 0.0);
        ScratchGuard {
            pool: self,
            buf: inner,
        }
    }

    /// Requests that allocated because no pooled buffer had the capacity.
    ///
    /// Zero growth across executions is the operator's allocation-free
    /// steady-state witness.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Pre-fills the free list so `count` concurrent `take(len)` calls are
    /// deterministically miss-free: at least `count` parked buffers, every
    /// one with capacity for `len` elements. Warm-up misses depend on how
    /// many workers happen to hold buffers simultaneously; reserving for
    /// the concurrency *bound* removes that scheduling dependence, which
    /// is what lets the profiler assert misses stay exactly zero.
    pub fn reserve(&self, count: usize, len: usize) {
        let mut free = self.free.lock().expect("scratch pool poisoned");
        while free.len() < count {
            free.push(Vec::with_capacity(len + LINE_PAD));
        }
        for buf in free.iter_mut() {
            if buf.capacity() < len {
                buf.reserve_exact(len + LINE_PAD - buf.len());
            }
        }
    }

    /// Buffers currently parked in the free list (diagnostics).
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.idle())
            .field("misses", &self.misses())
            .finish()
    }
}

/// An exclusively-borrowed scratch buffer; returns to its pool on drop.
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    buf: Vec<f32>,
}

impl Deref for ScratchGuard<'_> {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.pool
            .free
            .lock()
            .expect("scratch pool poisoned")
            .push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_and_sized() {
        let pool = ScratchPool::new();
        {
            let mut a = pool.take(8);
            a.iter_mut().for_each(|v| *v = 7.0);
        }
        let b = pool.take(8);
        assert_eq!(&*b, &[0.0; 8], "recycled buffers must come back zeroed");
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn steady_state_is_miss_free() {
        let pool = ScratchPool::new();
        drop(pool.take(16)); // warm-up allocates
        assert_eq!(pool.misses(), 1);
        for _ in 0..100 {
            drop(pool.take(16));
            drop(pool.take(4)); // smaller fits pooled capacity
        }
        assert_eq!(pool.misses(), 1, "warm pool must never allocate");
    }

    #[test]
    fn growth_is_counted() {
        let pool = ScratchPool::new();
        drop(pool.take(4));
        drop(pool.take(64)); // outgrows the pooled buffer
        assert_eq!(pool.misses(), 2);
        drop(pool.take(64));
        assert_eq!(pool.misses(), 2);
    }

    #[test]
    fn reserved_pools_never_miss() {
        let pool = ScratchPool::new();
        pool.reserve(3, 16);
        let a = pool.take(16);
        let b = pool.take(8);
        let c = pool.take(16);
        drop((a, b, c));
        assert_eq!(pool.misses(), 0, "reserved capacity must serve all takes");
        pool.reserve(3, 32); // re-reserving grows parked buffers in place
        drop(pool.take(32));
        assert_eq!(pool.misses(), 0);
    }

    #[test]
    fn pooled_buffers_never_share_a_cache_line() {
        let pool = ScratchPool::new();
        pool.reserve(4, 100);
        let held: Vec<_> = (0..4).map(|_| pool.take(100)).collect();
        let mut lines: Vec<(usize, usize)> = held
            .iter()
            .map(|g| (g.as_ptr() as usize / 64, (g.as_ptr() as usize + 399) / 64))
            .collect();
        lines.sort_unstable();
        for pair in lines.windows(2) {
            assert!(pair[0].1 < pair[1].0, "neighbours share a line: {pair:?}");
        }
    }

    #[test]
    fn concurrent_take_release_is_safe() {
        let pool = ScratchPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..200 {
                        let mut g = pool.take(32);
                        g[0] = i as f32;
                        assert_eq!(g[1], 0.0);
                    }
                });
            }
        });
        // All buffers parked again; at most one per thread was live.
        assert!(pool.idle() <= 4);
    }
}
