//! Steady-state allocation discipline for the work-stealing scheduler,
//! matching the zero-alloc data-plane bar set by
//! `crates/net/tests/fabric_alloc.rs`: the deque hot path (push / pop /
//! steal) must never allocate, and a full `execute_stealing` round over a
//! prewarmed arena must not allocate *per task* — only the bounded
//! per-run scaffolding (worker threads, the stats vector) is allowed,
//! and that cost is independent of how many tasks flow through.
//!
//! The whole measurement lives in one `#[test]` so no concurrent test
//! thread pollutes the global counter.

use fcc_core::schedule::steal::WorkerDeque;
use fcc_core::{StealArena, StealPolicy};
use fcc_telemetry::alloc_count::{allocs_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

static ARENA: StealArena = StealArena::new();

#[test]
fn stealing_steady_state_does_not_allocate_per_task() {
    // --- The deque itself: strictly zero allocations after construction.
    let d = WorkerDeque::with_capacity(512);
    d.push(1);
    d.pop();
    let (deque_allocs, _) = allocs_during(|| {
        for round in 0u64..64 {
            for t in 0..256 {
                d.push(round * 256 + t);
            }
            for i in 0..256 {
                if i % 3 == 0 {
                    d.steal();
                } else {
                    d.pop();
                }
            }
            while d.pop().is_some() {}
        }
    });
    assert_eq!(
        deque_allocs, 0,
        "deque push/pop/steal allocated {deque_allocs} times"
    );

    // --- Full scheduler rounds: per-run scaffolding is bounded and does
    // not move when the task count grows 64x. Anything allocating per
    // task (re-dealing into fresh Vecs, growing deques mid-run) fails.
    const WORKERS: usize = 4;
    let small: Vec<u64> = (0..64).collect();
    let large: Vec<u64> = (0..4096).collect();
    ARENA.prewarm(1, WORKERS, small.len() / WORKERS + 1);
    ARENA.prewarm(1, WORKERS, large.len() / WORKERS + 1);
    let policy = StealPolicy::concurrent(0x57ea1).with_workers(WORKERS);
    let run = |tasks: &[u64]| {
        let stats = fcc_core::schedule::steal::execute_stealing(
            &ARENA,
            tasks,
            policy,
            |_| (),
            |_, t| {
                std::hint::black_box(t);
            },
        );
        assert_eq!(stats.executed, tasks.len() as u64);
        assert_eq!(stats.poisoned, 0);
    };
    // Warm both shapes so one-time thread/TLS setup is off the books,
    // then take the cheapest of three runs per shape (thread spawn cost
    // has OS jitter; the per-task component we are hunting does not).
    run(&small);
    run(&large);
    let best = |tasks: &[u64]| {
        (0..3)
            .map(|_| allocs_during(|| run(tasks)).0)
            .min()
            .unwrap()
    };
    let small_allocs = best(&small);
    let large_allocs = best(&large);
    assert!(
        large_allocs <= small_allocs + 32,
        "scheduler allocations scale with tasks: {small_allocs} allocs at \
         {} tasks vs {large_allocs} at {} tasks",
        small.len(),
        large.len()
    );

    // The prewarmed pool absorbed every take: no cold construction.
    assert_eq!(ARENA.misses(), 0, "arena missed despite prewarm");
}
