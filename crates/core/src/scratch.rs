//! Worker-owned workspaces: the item loops' scratch memory, with no lock
//! and no allocation per item.
//!
//! Every operator in [`crate::op`] needs short-lived buffers on its hot
//! path: one `dim`-wide vector and one bag of row indices per logical
//! workgroup, one slice-wide payload per elected last finisher. The
//! paper's persistent WG keeps that state in registers and LDS *across*
//! logical WGs (§3); the functional analogue is a [`Workspace`] per
//! (PE, persistent WG), owned by the plan (which outlives every
//! execution) and borrowed by its worker **once per task loop**, not once
//! per item.
//!
//! The buffers used to come from one plan-wide `Mutex<Vec<Vec<f32>>>`
//! free list. A plan is shared by all PE threads, so every logical WG of
//! every PE made two round trips through that one lock, and its LIFO
//! handed PE 0's still-hot buffer to PE 1: two PE threads on two cores ran
//! the small-slice operator no faster than both pinned to one core. The
//! old argument for a shared list — the rayon stand-in spawns fresh OS
//! threads per parallel region, so thread-local caches never get warm —
//! argues for *plan-owned* buffers, not for a *shared* lock: a workspace is
//! addressed by `(pe, worker)`, whichever OS thread plays that worker this
//! time.
//!
//! Layout: a [`Workspaces`] cell is 128-byte aligned (a cache line and
//! its prefetch buddy) and holds the workspace's `Vec` headers — `bag`'s
//! length is rewritten per item — and its two counters, so no two workers
//! share a line of control state; every buffer carries 128 bytes of spare
//! capacity, so the used ranges of two buffers never touch the same line
//! even when the allocator places them back to back.
//!
//! Steady state is allocation-free, and [`Workspaces::misses`] proves it:
//! it counts the borrows during which a buffer had to grow. Plans size
//! every buffer up front, so the count stays exactly zero.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Spare elements allocated behind every workspace buffer: 128 bytes of
/// `f32`/`u32`.
const LINE_PAD: usize = 32;

/// One persistent WG's scratch memory. Contents are unspecified at borrow
/// time — whatever the worker's previous item left behind.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The `dim`-wide vector an item is produced into.
    pub vector: Vec<f32>,
    /// Row indices of the bag being pooled
    /// ([`BatchGenerator::bag_into`](fcc_dlrm::BatchGenerator::bag_into)).
    pub bag: Vec<u32>,
    /// Slice-wide payload of an elected last finisher.
    pub payload: Vec<f32>,
}

impl Workspace {
    fn capacities(&self) -> [usize; 3] {
        [
            self.vector.capacity(),
            self.bag.capacity(),
            self.payload.capacity(),
        ]
    }
}

/// Grows `buf`'s capacity to `len` elements plus the line pad.
fn reserve_padded<T>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() < len {
        buf.reserve_exact(len + LINE_PAD - buf.len());
    }
}

/// `buf` as a slice of exactly `len` elements, reusing its capacity;
/// elements carried over keep their old values.
pub fn fit(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() != len {
        reserve_padded(buf, len);
        buf.resize(len, 0.0);
    }
    buf
}

/// One cell per (PE, worker), on its own pair of cache lines.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Cell {
    workspace: Mutex<Workspace>,
    /// Times the workspace was borrowed: once per task loop.
    borrows: AtomicU64,
    /// Borrows that ended with more capacity than they began with.
    grown: AtomicU64,
}

/// A plan's workspaces, `per_pe` of them for each PE.
#[derive(Debug)]
pub struct Workspaces {
    cells: Box<[Cell]>,
    per_pe: usize,
}

impl Workspaces {
    /// `per_pe` empty workspaces for each of `n_pes` PEs.
    pub fn new(n_pes: usize, per_pe: usize) -> Workspaces {
        assert!(per_pe > 0, "a PE needs at least one workspace");
        Workspaces {
            cells: (0..n_pes * per_pe).map(|_| Cell::default()).collect(),
            per_pe,
        }
    }

    /// [`new`](Self::new), then [`reserve`](Self::reserve): the workspaces
    /// of a plan whose buffer sizes are known up front.
    pub fn sized(
        n_pes: usize,
        per_pe: usize,
        vector: usize,
        bag: usize,
        payload: usize,
    ) -> Workspaces {
        let all = Workspaces::new(n_pes, per_pe);
        all.reserve(vector, bag, payload);
        all
    }

    /// Sizes every workspace for `vector`-, `bag`- and `payload`-element
    /// requests, so no borrow that stays within them ever allocates.
    /// Never shrinks.
    pub fn reserve(&self, vector: usize, bag: usize, payload: usize) {
        for cell in self.cells.iter() {
            // Scratch contents carry no invariant a panic could break.
            let mut ws = cell.workspace.lock().unwrap_or_else(|e| e.into_inner());
            reserve_padded(&mut ws.vector, vector);
            reserve_padded(&mut ws.bag, bag);
            reserve_padded(&mut ws.payload, payload);
        }
    }

    /// Borrows worker `worker`'s workspace on PE `pe` for one task loop.
    ///
    /// # Panics
    /// Panics if it is already borrowed: a workspace has one borrower at a
    /// time by construction (one task loop per PE, one worker per cell),
    /// so contention is a bug, not something to wait out.
    pub fn borrow(&self, pe: usize, worker: usize) -> WorkspaceGuard<'_> {
        assert!(
            worker < self.per_pe,
            "worker {worker} has no workspace: the plan holds {} per PE",
            self.per_pe
        );
        let cell = &self.cells[pe * self.per_pe + worker];
        let workspace = match cell.workspace.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                panic!("workspace ({pe}, {worker}) is already borrowed")
            }
        };
        cell.borrows.fetch_add(1, Ordering::Relaxed);
        WorkspaceGuard {
            capacities: workspace.capacities(),
            workspace,
            cell,
        }
    }

    /// Borrows during which a buffer outgrew its capacity. Zero growth
    /// across executions is the allocation-free steady-state witness.
    pub fn misses(&self) -> u64 {
        let grown = |c: &Cell| c.grown.load(Ordering::Relaxed);
        self.cells.iter().map(grown).sum()
    }

    /// Borrows so far, over all workspaces: one per worker per task loop,
    /// whatever the task count.
    pub fn borrows(&self) -> u64 {
        let borrows = |c: &Cell| c.borrows.load(Ordering::Relaxed);
        self.cells.iter().map(borrows).sum()
    }
}

/// An exclusively borrowed [`Workspace`]; released on drop.
#[derive(Debug)]
pub struct WorkspaceGuard<'a> {
    workspace: MutexGuard<'a, Workspace>,
    cell: &'a Cell,
    capacities: [usize; 3],
}

impl Deref for WorkspaceGuard<'_> {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        &self.workspace
    }
}

impl DerefMut for WorkspaceGuard<'_> {
    fn deref_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }
}

impl Drop for WorkspaceGuard<'_> {
    fn drop(&mut self) {
        if self.workspace.capacities() != self.capacities {
            self.cell.grown.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_resizes_without_reallocating_within_capacity() {
        let mut buf = Vec::new();
        reserve_padded(&mut buf, 16);
        let ptr = buf.as_ptr();
        fit(&mut buf, 16).fill(7.0);
        assert_eq!(fit(&mut buf, 4), [7.0; 4], "carried-over elements stay");
        assert_eq!(fit(&mut buf, 16).len(), 16);
        assert_eq!(buf.as_ptr(), ptr);
        assert!(buf.capacity() >= 16 + LINE_PAD);
    }

    #[test]
    fn reserved_workspaces_never_miss_and_growth_is_counted() {
        let all = Workspaces::new(2, 2);
        all.reserve(16, 8, 64);
        for round in 0..10 {
            let mut ws = all.borrow(round % 2, 1);
            let Workspace {
                vector,
                bag,
                payload,
            } = &mut *ws;
            fit(vector, 16);
            bag.clear();
            bag.extend(0..8);
            fit(payload, 64 - round);
        }
        assert_eq!(all.misses(), 0, "reserved capacity must serve every use");
        assert_eq!(all.borrows(), 10);
        fit(&mut all.borrow(0, 0).payload, 65 + LINE_PAD);
        assert_eq!(all.misses(), 1);
        fit(&mut all.borrow(0, 0).payload, 65 + LINE_PAD);
        assert_eq!(all.misses(), 1, "grown once, warm afterwards");
        all.reserve(32, 8, 64);
        assert_eq!(all.misses(), 1, "reserving is not a miss");
    }

    #[test]
    fn no_two_workspaces_share_a_cache_line() {
        let all = Workspaces::new(4, 2);
        all.reserve(100, 40, 300);
        let held: Vec<_> = (0..8).map(|i| all.borrow(i / 2, i % 2)).collect();
        // Every byte range a worker writes, as (start, bytes): its cell
        // (Vec headers, lock word, counters) and the used part of each
        // buffer.
        let mut ranges = Vec::new();
        for (cell, ws) in all.cells.iter().zip(&held) {
            let at = cell as *const Cell as usize;
            assert_eq!(at % 128, 0, "cells are line-aligned");
            ranges.push((at, std::mem::size_of::<Cell>()));
            ranges.push((ws.vector.as_ptr() as usize, 400));
            ranges.push((ws.bag.as_ptr() as usize, 160));
            ranges.push((ws.payload.as_ptr() as usize, 1200));
        }
        let mut lines: Vec<(usize, usize)> = ranges
            .iter()
            .map(|&(start, bytes)| (start / 128, (start + bytes - 1) / 128))
            .collect();
        lines.sort_unstable();
        for pair in lines.windows(2) {
            assert!(pair[0].1 < pair[1].0, "neighbours share a line: {pair:?}");
        }
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn a_second_borrower_is_a_bug() {
        let all = Workspaces::new(1, 1);
        let _held = all.borrow(0, 0);
        let _ = all.borrow(0, 0);
    }

    #[test]
    fn distinct_workers_borrow_concurrently() {
        let all = Workspaces::new(2, 2);
        all.reserve(32, 0, 0);
        std::thread::scope(|s| {
            for i in 0..4 {
                let all = &all;
                s.spawn(move || {
                    for round in 0..200 {
                        let mut ws = all.borrow(i / 2, i % 2);
                        fit(&mut ws.vector, 32)[0] = round as f32;
                    }
                });
            }
        });
        assert_eq!(all.borrows(), 800);
        assert_eq!(all.misses(), 0);
    }
}
