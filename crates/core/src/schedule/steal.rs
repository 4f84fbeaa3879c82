//! Work-stealing execution of a logical-WG order over persistent WGs.
//!
//! The static strided deal costs makespan whenever
//! execution skews — a straggling WG's tail runs alone while its siblings
//! idle (Fig. 13's pathology, runtime edition). Here each persistent WG
//! owns a lock-free Chase–Lev deque seeded with its strided share of the
//! order; a WG that drains its own deque *steals* from a sibling instead
//! of idling.
//!
//! ## Priority inversion trick
//!
//! The comm-aware order must survive dynamic scheduling: remote slices
//! still go first so their PUTs hide behind the remaining compute. Each
//! deque is seeded with its share **in reverse priority order**, so the
//! owner's LIFO `pop` (bottom end) yields highest-priority work first,
//! while thieves `steal` from the top end — the victim's *lowest*-priority
//! tail (its locally-consumed slices), exactly the work whose deferral is
//! cheapest.
//!
//! ## Memory-ordering argument (condensed; DESIGN.md §15 has the proof)
//!
//! The deque follows the C11 formulation of Chase–Lev (Lê, Pop, Cohen,
//! Nardelli, PPoPP'13):
//!
//! * `push` stores the slot `Relaxed`, then publishes `bottom` with
//!   `Release` — a thief that observes the new `bottom` (via its
//!   `Acquire` load) therefore also observes the slot write.
//! * `pop` decrements `bottom` `Relaxed`, then issues a `SeqCst` fence
//!   before reading `top`: the fence globally orders the decrement
//!   against any concurrent thief's `top` CAS, so owner and thief cannot
//!   both take the last element.
//! * `steal` reads `top` `Acquire`, fences `SeqCst`, reads `bottom`
//!   `Acquire`, then claims the element with a `SeqCst`
//!   `compare_exchange` on `top`; a failed CAS means racing with the
//!   owner (or another thief) and the caller retries.
//!
//! [`StealBug::ReleaseFenceOmitted`] arms the classic violation — the
//! `bottom` publication ordered *before* the slot write. On TSO hardware
//! the hardware never performs that reorder, so the bug performs it in
//! program order (publish, window, write), modelling what the missing
//! `Release` would permit on weak memory; slots are pre-poisoned so a
//! thief that wins the race observes the sentinel and the harness counts
//! a poisoned steal + a lost task.
//!
//! ## Determinism
//!
//! [`StealMode::Concurrent`] runs real scoped threads: results are
//! bit-identical (tasks are disjoint) but interleavings are OS-scheduled;
//! the victim *sequence each worker attempts* is still a pure function of
//! `(seed, worker)`. [`StealMode::Sequential`] simulates the whole race
//! on the calling thread — one seeded scheduler decides, step by step,
//! which virtual WG runs and whom it robs — so a `(tasks, workers, seed)`
//! triple maps to exactly one execution order with a stable
//! [`StealStats::signature`]. fcc-check explores those signatures the
//! same way it explores [`DeliveryOrder`](fcc_shmem::DeliveryOrder)s.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sentinel pre-poisoned into slots when a [`StealBug`] is armed; a stolen
/// sentinel is a caught ordering violation, never a real task.
pub const POISON: u64 = u64::MAX;

/// Injectable deque bugs for the negative suite (mirrors
/// `FlowFabric::with_bug` / `crates/check/tests/negative.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealBug {
    /// `push` publishes `bottom` *before* writing the slot (the reorder a
    /// missing `Release` store permits on weak memory), with a yield in
    /// the window so the race fires reliably under stress.
    ReleaseFenceOmitted,
}

/// How an operator schedules its logical-WG order onto persistent WGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealMode {
    /// Real scoped worker threads with lock-free stealing — the
    /// production path (replaces the static `par_iter` deal).
    Concurrent,
    /// Deterministic single-thread simulation of the steal race — one
    /// execution order per `(tasks, workers, seed)`, explorable.
    Sequential,
}

/// The work-stealing schedule knob carried by every operator plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    pub mode: StealMode,
    /// Seeds victim selection (both modes) and the interleaving
    /// (`Sequential`).
    pub seed: u64,
    /// Worker (persistent-WG) count; `None` sizes to the host's
    /// parallelism, capped at 8.
    pub workers: Option<usize>,
    /// Armed ordering violation, test-only.
    pub bug: Option<StealBug>,
}

impl StealPolicy {
    /// The production policy: concurrent stealing under `seed`.
    pub fn concurrent(seed: u64) -> StealPolicy {
        StealPolicy {
            mode: StealMode::Concurrent,
            seed,
            workers: None,
            bug: None,
        }
    }

    /// The explorable policy: deterministic sequential interleaving.
    pub fn sequential(seed: u64) -> StealPolicy {
        StealPolicy {
            mode: StealMode::Sequential,
            seed,
            workers: None,
            bug: None,
        }
    }

    /// Pins the worker count (persistent-WG occupancy).
    pub fn with_workers(mut self, workers: usize) -> StealPolicy {
        assert!(workers > 0, "need at least one worker");
        self.workers = Some(workers);
        self
    }

    /// Arms an ordering violation (negative tests only).
    pub fn with_bug(mut self, bug: StealBug) -> StealPolicy {
        self.bug = Some(bug);
        self
    }

    /// Workers to use for `n_tasks` tasks. `Sequential` defaults to a
    /// *fixed* 4 so a `(tasks, seed)` pair realizes the same schedule on
    /// every host; `Concurrent` sizes to the machine.
    pub fn effective_workers(&self, n_tasks: usize) -> usize {
        let default = || match self.mode {
            StealMode::Sequential => 4,
            StealMode::Concurrent => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
        };
        self.workers
            .unwrap_or_else(default)
            .max(1)
            .min(n_tasks.max(1))
    }
}

impl Default for StealPolicy {
    fn default() -> StealPolicy {
        StealPolicy::concurrent(0x5eed_1e55)
    }
}

/// One persistent WG's lock-free Chase–Lev deque over `u64` task payloads.
///
/// Fixed power-of-two capacity — operators size it to their strided share
/// up front, so the steady state never grows (and never allocates).
#[derive(Debug)]
pub struct WorkerDeque {
    top: AtomicI64,
    bottom: AtomicI64,
    slots: Box<[AtomicU64]>,
    mask: usize,
    /// 0 = clean, 1 = [`StealBug::ReleaseFenceOmitted`]; atomic so
    /// [`reset`](Self::reset) can re-arm through `&self` between runs.
    bug: std::sync::atomic::AtomicU8,
}

/// Outcome of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// Nothing left to steal.
    Empty,
    /// Lost a race (owner or another thief); try again.
    Retry,
    /// Took this task from the victim's top (lowest-priority) end.
    Success(u64),
}

impl WorkerDeque {
    /// A deque holding at most `cap` tasks (rounded up to a power of two).
    pub fn with_capacity(cap: usize) -> WorkerDeque {
        let cap = cap.max(1).next_power_of_two();
        WorkerDeque {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap - 1,
            bug: std::sync::atomic::AtomicU8::new(0),
        }
    }

    /// Rewinds to empty and re-arms `bug`, poisoning every slot when a
    /// bug is set so stolen garbage is detectable.
    pub fn reset(&self, bug: Option<StealBug>) {
        self.top.store(0, Ordering::Relaxed);
        self.bottom.store(0, Ordering::Relaxed);
        if bug.is_some() {
            for s in self.slots.iter() {
                s.store(POISON, Ordering::Relaxed);
            }
        }
        self.bug.store(
            match bug {
                None => 0,
                Some(StealBug::ReleaseFenceOmitted) => 1,
            },
            Ordering::Relaxed,
        );
    }

    /// Capacity in tasks.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Tasks currently resident (racy under concurrency; exact when
    /// quiesced).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// True when no tasks are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-only: pushes `task` at the bottom end.
    ///
    /// # Panics
    /// Panics if the deque is full — callers size capacity to their
    /// share; overflow is a logic error, not a resize.
    pub fn push(&self, task: u64) {
        debug_assert_ne!(task, POISON, "POISON is reserved");
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        assert!(
            (b - t) as usize <= self.mask,
            "WorkerDeque overflow: cap {}",
            self.capacity()
        );
        if self.bug.load(Ordering::Relaxed) == 1 {
            // The violation: publish first, write the slot after a
            // window. A thief acquiring the new bottom may read the
            // poisoned slot.
            self.bottom.store(b + 1, Ordering::Relaxed);
            std::thread::yield_now();
            self.slots[(b as usize) & self.mask].store(task, Ordering::Relaxed);
            return;
        }
        self.slots[(b as usize) & self.mask].store(task, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pops from the bottom (highest-priority) end.
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let task = self.slots[(b as usize) & self.mask].load(Ordering::Relaxed);
            if t == b {
                // Last element: race the thieves for it.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                return won.then_some(task);
            }
            Some(task)
        } else {
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief: steals from the top (lowest-priority) end.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let task = self.slots[(t as usize) & self.mask].load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Success(task)
    }
}

/// A matched set of per-worker deques, pooled by [`StealArena`].
#[derive(Debug)]
struct StealSet {
    deques: Vec<WorkerDeque>,
    cap: usize,
}

impl StealSet {
    fn new(workers: usize, cap: usize) -> StealSet {
        let cap = cap.max(1).next_power_of_two();
        StealSet {
            deques: (0..workers)
                .map(|_| WorkerDeque::with_capacity(cap))
                .collect(),
            cap,
        }
    }

    fn fits(&self, workers: usize, cap: usize) -> bool {
        self.deques.len() == workers && self.cap >= cap.max(1).next_power_of_two()
    }

    /// The per-worker deques.
    fn deques(&self) -> &[WorkerDeque] {
        &self.deques
    }

    /// Seeds the strided deal of `order` in reverse priority order:
    /// worker `w` receives `order[w], order[w+W], …`, pushed back-to-front
    /// so its LIFO `pop` yields `order[w]` first and thieves take the
    /// tail.
    pub fn seed(&self, order: &[u64], bug: Option<StealBug>) {
        let w = self.deques.len();
        let n = order.len();
        for (i, d) in self.deques.iter().enumerate() {
            d.reset(bug);
            if i >= n {
                continue;
            }
            // Strided share, pushed back-to-front without a staging Vec —
            // the seeding phase is on the zero-alloc steady-state path.
            let count = (n - i).div_ceil(w);
            for j in (0..count).rev() {
                d.push(order[i + j * w]);
            }
        }
    }
}

/// Pool of deque sets: executions after the first reuse their deques, so the stealing steady
/// state is allocation-free (asserted by a counting-allocator test).
#[derive(Debug, Default)]
pub struct StealArena {
    pool: Mutex<Vec<StealSet>>,
    misses: AtomicU64,
}

impl StealArena {
    /// An empty arena (const: embeddable in plan structs).
    pub const fn new() -> StealArena {
        StealArena {
            pool: Mutex::new(Vec::new()),
            misses: AtomicU64::new(0),
        }
    }

    /// Takes a set with `workers` deques of at least `cap` slots each,
    /// building one (a *miss*) only when the pool has no fit.
    fn take(&self, workers: usize, cap: usize) -> StealSetGuard<'_> {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let set = if let Some(i) = pool.iter().position(|s| s.fits(workers, cap)) {
            pool.swap_remove(i)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            StealSet::new(workers, cap)
        };
        drop(pool);
        StealSetGuard {
            arena: self,
            set: Some(set),
        }
    }

    /// Builds sets up front until `sets` parked ones fit, so that many
    /// concurrent first executions (one per PE thread sharing the arena)
    /// are already hits.
    pub fn prewarm(&self, sets: usize, workers: usize, cap: usize) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let fitting = pool.iter().filter(|s| s.fits(workers, cap)).count();
        pool.extend((fitting..sets).map(|_| StealSet::new(workers, cap)));
    }

    /// Sets built because the pool had no fit; flat across executions
    /// means the steady state is allocation-free.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Sets currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// RAII loan of a [`StealSet`]; returns it to the arena on drop.
#[derive(Debug)]
struct StealSetGuard<'a> {
    arena: &'a StealArena,
    set: Option<StealSet>,
}

impl std::ops::Deref for StealSetGuard<'_> {
    type Target = StealSet;
    fn deref(&self) -> &StealSet {
        self.set.as_ref().expect("set present until drop")
    }
}

impl Drop for StealSetGuard<'_> {
    fn drop(&mut self) {
        if let Some(set) = self.set.take() {
            let mut pool = self.arena.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.push(set);
        }
    }
}

/// What one work-stealing execution did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Tasks whose body actually ran.
    pub executed: u64,
    /// Tasks taken from a sibling's deque rather than the owner's.
    pub stolen: u64,
    /// Stolen [`POISON`] sentinels — ordering violations caught (always 0
    /// without an armed bug).
    pub poisoned: u64,
    /// Body executions per worker (load balance evidence).
    pub per_worker: Vec<u64>,
    /// FNV-1a hash of the `(step, worker, task)` sequence; stable per
    /// `(tasks, workers, seed)` in [`StealMode::Sequential`], 0 in
    /// [`StealMode::Concurrent`] (interleavings are OS-scheduled).
    pub signature: u64,
}

/// SplitMix64 — a self-contained seeded stream (no rand dependency in the
/// hot path).
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        fcc_sim::splitmix64(&mut self.0) % n
    }
}

fn fnv1a(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Executes `tasks` (already in priority order, highest first) over the
/// policy's workers with work stealing, calling `body(state, task)` once
/// per task. Every worker — a scoped thread, a virtual worker of the
/// sequential simulation, or the caller itself when one worker suffices —
/// builds its `state` with `init(worker)` once, before its first task, and
/// keeps it for the whole loop: what a persistent WG holds across logical
/// WGs (its workspace) lives there instead of being re-acquired per task.
/// `arena` supplies the pooled deques in concurrent mode.
pub fn execute_stealing<S, I, F>(
    arena: &StealArena,
    tasks: &[u64],
    policy: StealPolicy,
    init: I,
    body: F,
) -> StealStats
where
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, u64) + Sync,
{
    if tasks.is_empty() {
        return StealStats::default();
    }
    let workers = policy.effective_workers(tasks.len());
    match policy.mode {
        StealMode::Sequential => {
            let mut states: Vec<S> = (0..workers).map(&init).collect();
            simulate_sequential(workers, tasks, policy.seed, |w, t| body(&mut states[w], t))
        }
        StealMode::Concurrent => {
            if workers == 1 {
                // Degenerate: priority order, no deque traffic.
                let mut state = init(0);
                for &t in tasks {
                    body(&mut state, t);
                }
                return StealStats {
                    executed: tasks.len() as u64,
                    per_worker: vec![tasks.len() as u64],
                    ..StealStats::default()
                };
            }
            let cap = tasks.len() / workers + 1;
            let set = arena.take(workers, cap);
            set.seed(tasks, policy.bug);
            let remaining = AtomicUsize::new(tasks.len());
            let stolen = AtomicU64::new(0);
            let poisoned = AtomicU64::new(0);
            let per_worker: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
            let deques = set.deques();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let (init, body) = (&init, &body);
                    let remaining = &remaining;
                    let stolen = &stolen;
                    let poisoned = &poisoned;
                    let per_worker = &per_worker;
                    s.spawn(move || {
                        let mut state = init(w);
                        let mut rng = SplitMix::new(
                            policy.seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                        );
                        let mut run = |task: u64, theft: bool| {
                            if theft {
                                stolen.fetch_add(1, Ordering::Relaxed);
                            }
                            if task == POISON {
                                poisoned.fetch_add(1, Ordering::Relaxed);
                            } else {
                                body(&mut state, task);
                                per_worker[w].fetch_add(1, Ordering::Relaxed);
                            }
                            remaining.fetch_sub(1, Ordering::AcqRel);
                        };
                        loop {
                            if let Some(task) = deques[w].pop() {
                                run(task, false);
                                continue;
                            }
                            if remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            let victim = ((w as u64 + 1 + rng.below(workers as u64 - 1))
                                % workers as u64) as usize;
                            match deques[victim].steal() {
                                Steal::Success(task) => run(task, true),
                                Steal::Retry => std::hint::spin_loop(),
                                Steal::Empty => std::thread::yield_now(),
                            }
                        }
                    });
                }
            });
            StealStats {
                executed: per_worker.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
                stolen: stolen.load(Ordering::Relaxed),
                poisoned: poisoned.load(Ordering::Relaxed),
                per_worker: per_worker.into_iter().map(|c| c.into_inner()).collect(),
                signature: 0,
            }
        }
    }
}

/// Deterministically simulates the steal race on the calling thread: a
/// seeded scheduler picks which virtual worker acts at each step; the
/// worker drains its own share front-first or robs a seeded victim's
/// tail. Exactly one execution order per `(workers, tasks, seed)`.
fn simulate_sequential(
    workers: usize,
    tasks: &[u64],
    seed: u64,
    mut sink: impl FnMut(usize, u64),
) -> StealStats {
    // Virtual deque: the strided share in priority order; `front` is the
    // owner's end, `back` the thieves' end.
    struct Virt {
        share: Vec<u64>,
        front: usize,
        back: usize,
    }
    let mut virts: Vec<Virt> = (0..workers)
        .map(|w| {
            let share: Vec<u64> = tasks.iter().skip(w).step_by(workers).copied().collect();
            let back = share.len();
            Virt {
                share,
                front: 0,
                back,
            }
        })
        .collect();
    let mut rng = SplitMix::new(seed);
    let mut stats = StealStats {
        per_worker: vec![0; workers],
        signature: FNV_OFFSET,
        ..StealStats::default()
    };
    let mut left = tasks.len();
    let mut step = 0u64;
    while left > 0 {
        let w = rng.below(workers as u64) as usize;
        let v = &mut virts[w];
        let (task, theft) = if v.front < v.back {
            v.front += 1;
            (v.share[v.front - 1], false)
        } else {
            // Rob a seeded victim with work left; scan from a seeded
            // start so the choice stays uniform yet deterministic.
            let start = rng.below(workers as u64) as usize;
            let victim = (0..workers)
                .map(|i| (start + i) % workers)
                .find(|&i| i != w && virts[i].front < virts[i].back);
            let Some(victim) = victim else {
                continue;
            };
            let v = &mut virts[victim];
            v.back -= 1;
            (v.share[v.back], true)
        };
        if theft {
            stats.stolen += 1;
        }
        sink(w, task);
        stats.executed += 1;
        stats.per_worker[w] += 1;
        stats.signature = fnv1a(fnv1a(fnv1a(stats.signature, step), w as u64), task);
        step += 1;
        left -= 1;
    }
    stats
}

/// The deterministic execution order a sequential steal run realizes —
/// used by the elastic scatter, whose job loop stays single-threaded by
/// design: the steal schedule still decides its issue order, so fcc-check
/// explores it through the same seed dimension.
pub fn sequential_order(workers: usize, tasks: &[u64], seed: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(tasks.len());
    simulate_sequential(workers.max(1), tasks, seed, |_, t| out.push(t));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deque_fifo_from_top_lifo_from_bottom() {
        let d = WorkerDeque::with_capacity(8);
        for t in [10u64, 11, 12] {
            d.push(t);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), Steal::Success(10), "thief takes the oldest");
        assert_eq!(d.pop(), Some(12), "owner takes the newest");
        assert_eq!(d.pop(), Some(11));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn seed_realizes_priority_order_for_owner() {
        let set = StealSet::new(2, 8);
        set.seed(&[0, 1, 2, 3, 4, 5], None);
        // Worker 0's share is 0,2,4: pop yields highest priority first.
        assert_eq!(set.deques()[0].pop(), Some(0));
        assert_eq!(set.deques()[0].pop(), Some(2));
        // A thief on worker 1's deque takes the low-priority tail (5).
        assert_eq!(set.deques()[1].steal(), Steal::Success(5));
        assert_eq!(set.deques()[1].pop(), Some(1));
    }

    #[test]
    fn concurrent_executes_every_task_exactly_once() {
        let arena = StealArena::new();
        let n = 500u64;
        let tasks: Vec<u64> = (0..n).collect();
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stats = execute_stealing(
            &arena,
            &tasks,
            StealPolicy::concurrent(7).with_workers(4),
            |_| (),
            |_, t| {
                hits[t as usize].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(stats.executed, n);
        assert_eq!(stats.poisoned, 0);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.per_worker.iter().sum::<u64>(), n);
    }

    #[test]
    fn every_worker_builds_its_state_once_and_keeps_it() {
        // Sequential (4 virtual workers), the single-worker shortcut, and
        // real threads: `init` runs once per worker, and the state a
        // worker's tasks see is the one its earlier tasks left.
        let arena = StealArena::new();
        let tasks: Vec<u64> = (0..200).collect();
        for policy in [
            StealPolicy::sequential(5),
            StealPolicy::concurrent(5).with_workers(1),
            StealPolicy::concurrent(5).with_workers(3),
        ] {
            let inits = AtomicU64::new(0);
            let seen = AtomicU64::new(0);
            let stats = execute_stealing(
                &arena,
                &tasks,
                policy,
                |worker| {
                    inits.fetch_add(1, Ordering::Relaxed);
                    (worker, 0u64)
                },
                |(_, count), _| {
                    *count += 1;
                    seen.fetch_max(*count, Ordering::Relaxed);
                },
            );
            let workers = policy.effective_workers(tasks.len()) as u64;
            assert_eq!(inits.load(Ordering::Relaxed), workers, "{policy:?}");
            let busiest = *stats.per_worker.iter().max().expect("workers");
            assert_eq!(seen.load(Ordering::Relaxed), busiest, "{policy:?}");
        }
    }

    #[test]
    fn sequential_is_deterministic_and_seed_sensitive() {
        let tasks: Vec<u64> = (0..64).collect();
        let a = sequential_order(4, &tasks, 1);
        let b = sequential_order(4, &tasks, 1);
        let c = sequential_order(4, &tasks, 2);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "different seed perturbs the interleaving");
        let set: HashSet<u64> = a.iter().copied().collect();
        assert_eq!(set.len(), tasks.len(), "a permutation, nothing lost");
    }

    #[test]
    fn sequential_signatures_distinguish_seeds() {
        let arena = StealArena::new();
        let tasks: Vec<u64> = (0..32).collect();
        let sigs: HashSet<u64> = (0..100)
            .map(|seed| {
                execute_stealing(
                    &arena,
                    &tasks,
                    StealPolicy::sequential(seed),
                    |_| (),
                    |_, _| {},
                )
                .signature
            })
            .collect();
        assert!(sigs.len() >= 90, "only {} distinct signatures", sigs.len());
    }

    #[test]
    fn arena_steady_state_hits_the_pool() {
        let arena = StealArena::new();
        let tasks: Vec<u64> = (0..128).collect();
        for _ in 0..5 {
            execute_stealing(
                &arena,
                &tasks,
                StealPolicy::concurrent(3).with_workers(4),
                |_| (),
                |_, _| {},
            );
        }
        assert_eq!(arena.misses(), 1, "one build, then pool hits");
    }

    #[test]
    fn prewarm_absorbs_the_first_miss() {
        let arena = StealArena::new();
        arena.prewarm(1, 4, 33);
        let tasks: Vec<u64> = (0..128).collect();
        execute_stealing(
            &arena,
            &tasks,
            StealPolicy::concurrent(3).with_workers(4),
            |_| (),
            |_, _| {},
        );
        assert_eq!(arena.misses(), 0);
    }

    /// Owner pushes (and occasionally pops) live while thieves raid; every
    /// claimed value is tallied. Returns (poisoned steals, lost-or-duped
    /// tasks) across the run. The published-before-written window only
    /// exists while a push races a steal, so the stress keeps both sides
    /// hot.
    fn stress_live_pushes(bug: Option<StealBug>, rounds: u64) -> (u64, u64) {
        let mut poisoned = 0u64;
        let mut integrity = 0u64;
        for round in 0..rounds {
            let d = WorkerDeque::with_capacity(512);
            d.reset(bug);
            let n = 256u64;
            let claimed: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let poison_hits = AtomicU64::new(0);
            let done = AtomicU64::new(0);
            std::thread::scope(|s| {
                // Owner: pushes everything, popping a few along the way.
                s.spawn(|| {
                    for t in 0..n {
                        d.push(t);
                        if t % 7 == round % 7 {
                            if let Some(got) = d.pop() {
                                if got == POISON {
                                    poison_hits.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    claimed[got as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    // Drain the rest.
                    while let Some(got) = d.pop() {
                        if got == POISON {
                            poison_hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            claimed[got as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.store(1, Ordering::Release);
                });
                for _ in 0..3 {
                    s.spawn(|| loop {
                        match d.steal() {
                            Steal::Success(got) => {
                                if got == POISON {
                                    poison_hits.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    claimed[got as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) == 1 && d.is_empty() {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
            });
            poisoned += poison_hits.load(Ordering::Relaxed);
            integrity += claimed
                .iter()
                .filter(|c| c.load(Ordering::Relaxed) != 1)
                .count() as u64;
        }
        (poisoned, integrity)
    }

    #[test]
    fn armed_bug_is_caught_under_stress() {
        let (poisoned, integrity) = stress_live_pushes(Some(StealBug::ReleaseFenceOmitted), 12);
        assert!(
            poisoned + integrity > 0,
            "ordering violation never observed across 12 stress rounds"
        );
    }

    #[test]
    fn clean_deque_survives_the_same_stress() {
        let (poisoned, integrity) = stress_live_pushes(None, 6);
        assert_eq!(poisoned, 0, "clean deque surfaced a sentinel");
        assert_eq!(integrity, 0, "clean deque lost or duplicated a task");
    }

    #[test]
    fn clean_deque_never_poisons() {
        let arena = StealArena::new();
        let tasks: Vec<u64> = (0..400).collect();
        for round in 0..10 {
            let stats = execute_stealing(
                &arena,
                &tasks,
                StealPolicy::concurrent(round).with_workers(4),
                |_| (),
                |_, _| {},
            );
            assert_eq!(stats.poisoned, 0);
            assert_eq!(stats.executed, tasks.len() as u64);
        }
    }
}
