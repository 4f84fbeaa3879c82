//! Property tests for the work-stealing scheduler's public surface:
//! exactly-once execution under real concurrent stealing, determinism of
//! the sequential replay mode, and the negative pair — an armed deque bug
//! must be caught by the poison discipline while the corrected twin stays
//! silent (mirrors `crates/check/tests/negative.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use proptest::prelude::*;

use fcc_core::schedule::steal::{execute_stealing, sequential_order, Steal, WorkerDeque, POISON};
use fcc_core::{StealArena, StealBug, StealPolicy};

static ARENA: StealArena = StealArena::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Real threads, arbitrary shapes: every task body runs exactly once,
    /// nothing is poisoned, and the per-worker tallies conserve work.
    #[test]
    fn concurrent_stealing_executes_exactly_once(
        n in 1usize..300,
        workers in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let tasks: Vec<u64> = (0..n as u64).collect();
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let policy = StealPolicy::concurrent(seed).with_workers(workers);
        let stats = execute_stealing(&ARENA, &tasks, policy, |_| (), |_, t| {
            hits[t as usize].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert_eq!(stats.executed, n as u64);
        prop_assert_eq!(stats.poisoned, 0);
        prop_assert_eq!(stats.per_worker.iter().sum::<u64>(), n as u64);
        prop_assert_eq!(stats.per_worker.len(), policy.effective_workers(n));
        for (t, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "task {} ran wrong count", t);
        }
    }

    /// Sequential mode is a pure function of `(tasks, workers, seed)`:
    /// the realized order is a permutation of the input, identical across
    /// replays, and the stats signature pins the full interleaving.
    #[test]
    fn sequential_replay_is_a_deterministic_permutation(
        n in 1usize..200,
        workers in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let tasks: Vec<u64> = (0..n as u64).collect();
        let a = sequential_order(workers, &tasks, seed);
        let b = sequential_order(workers, &tasks, seed);
        prop_assert_eq!(&a, &b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, tasks.clone());

        let policy = StealPolicy::sequential(seed).with_workers(workers);
        let s1 = execute_stealing(&ARENA, &tasks, policy, |_| (), |_, _| {});
        let s2 = execute_stealing(&ARENA, &tasks, policy, |_| (), |_, _| {});
        prop_assert_eq!(s1.signature, s2.signature);
        prop_assert!(s1.signature != 0);
        prop_assert_eq!(s1.executed, n as u64);
    }

    /// One worker has nobody to rob: the schedule degenerates to the
    /// seeded priority order itself, for every seed.
    #[test]
    fn single_worker_preserves_priority_order(
        n in 1usize..128,
        seed in 0u64..u64::MAX,
    ) {
        let tasks: Vec<u64> = (0..n as u64).map(|t| t * 3 + 7).collect();
        prop_assert_eq!(sequential_order(1, &tasks, seed), tasks);
    }

    /// Worker sizing never exceeds the task count (no idle spawn) and
    /// never drops to zero.
    #[test]
    fn effective_workers_stays_within_bounds(
        n in 0usize..64,
        workers in 1usize..33,
        seed in 0u64..u64::MAX,
    ) {
        for policy in [
            StealPolicy::concurrent(seed).with_workers(workers),
            StealPolicy::sequential(seed).with_workers(workers),
            StealPolicy::concurrent(seed),
            StealPolicy::sequential(seed),
        ] {
            let w = policy.effective_workers(n);
            prop_assert!(w >= 1);
            prop_assert!(w <= n.max(1));
        }
    }

    /// Chase–Lev semantics on one thread: thieves drain the top (FIFO in
    /// push order), the owner drains the bottom (LIFO), and between them
    /// every pushed task surfaces exactly once.
    #[test]
    fn deque_splits_cleanly_between_thief_and_owner(
        n in 1usize..200,
        steals in 0usize..200,
    ) {
        let steals = steals.min(n);
        let d = WorkerDeque::with_capacity(n);
        for t in 0..n as u64 {
            d.push(t);
        }
        prop_assert_eq!(d.len(), n);
        for expect in 0..steals as u64 {
            match d.steal() {
                Steal::Success(t) => prop_assert_eq!(t, expect),
                other => prop_assert!(false, "steal {} returned {:?}", expect, other),
            }
        }
        for expect in (steals as u64..n as u64).rev() {
            prop_assert_eq!(d.pop(), Some(expect));
        }
        prop_assert!(d.is_empty());
        prop_assert_eq!(d.pop(), None);
    }
}

/// Live-race stress harness over the public deque API: one owner pushes
/// (and occasionally pops) while thieves spin-steal. Returns the number
/// of [`POISON`] sentinels observed plus the number of tasks that did
/// not surface exactly once.
fn live_stress(bug: Option<StealBug>) -> u64 {
    const TASKS: u64 = 192;
    let d = WorkerDeque::with_capacity(256);
    d.reset(bug);
    let hits: Vec<AtomicU64> = (0..TASKS).map(|_| AtomicU64::new(0)).collect();
    let poison = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let observe = |t: u64| {
        if t == POISON {
            poison.fetch_add(1, Ordering::Relaxed);
        } else {
            hits[t as usize].fetch_add(1, Ordering::Relaxed);
        }
    };
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| loop {
                match d.steal() {
                    Steal::Success(t) => observe(t),
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) && d.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        for t in 0..TASKS {
            d.push(t);
            if t % 13 == 0 {
                if let Some(v) = d.pop() {
                    observe(v);
                }
            }
        }
        while let Some(v) = d.pop() {
            observe(v);
        }
        done.store(true, Ordering::Release);
    });
    let integrity: u64 = hits
        .iter()
        .map(|h| h.load(Ordering::Relaxed).abs_diff(1))
        .sum();
    poison.load(Ordering::Relaxed) + integrity
}

/// The negative half of the pair: omitting the `Release` publish in
/// `push` must be *observable* through the public API — a thief reads a
/// poisoned (stale) slot or the exactly-once ledger breaks — within a
/// bounded number of stress rounds.
#[test]
fn armed_release_fence_bug_is_caught_by_the_stress_harness() {
    let mut caught = 0u64;
    for _ in 0..20 {
        caught += live_stress(Some(StealBug::ReleaseFenceOmitted));
        if caught > 0 {
            break;
        }
    }
    assert!(
        caught > 0,
        "armed ReleaseFenceOmitted was never observed across 20 stress rounds"
    );
}

/// The corrected twin: the same harness over the clean deque must stay
/// silent on every round — no poison, every task exactly once.
#[test]
fn clean_deque_stays_silent_under_the_same_stress() {
    for round in 0..8 {
        let violations = live_stress(None);
        assert_eq!(violations, 0, "clean deque misbehaved on round {round}");
    }
}
