//! Property tests for the persistent-kernel executor: work conservation,
//! ordering, and hook-overhead accounting under arbitrary task plans.

use proptest::prelude::*;

use fcc_gpu::exec::{ExecResult, PersistentExec, TaskCompletion, TaskUnit, WgPlan};
use fcc_sim::SimTime;

type Hook = fn(&TaskCompletion) -> SimTime;

/// A hook overhead that varies by task, so workgroups resume at staggered
/// instants and some resumes tie with completions.
fn staggered(c: &TaskCompletion) -> SimTime {
    SimTime::from_nanos(c.id % 3 * 50)
}

/// A hook overhead that alternates between a long and a short value across
/// workgroups and along each workgroup's tasks, so a resume scheduled later
/// often lands before resumes already queued.
fn alternating(c: &TaskCompletion) -> SimTime {
    let long = (c.wg + c.seq).is_multiple_of(2);
    SimTime::from_nanos(if long { 700 } else { 30 })
}

/// `run`, its completions collected by the hook.
fn run_logged(exec: PersistentExec, hook: Hook) -> (ExecResult, Vec<TaskCompletion>) {
    let mut done = Vec::new();
    let result = exec.run(|c| {
        done.push(*c);
        hook(c)
    });
    (result, done)
}

/// The same run driven event by event through the executor's operations.
fn drive_logged(mut exec: PersistentExec, hook: Hook) -> (ExecResult, Vec<TaskCompletion>) {
    let mut done = Vec::new();
    exec.start();
    let mut now = SimTime::ZERO;
    while let Some(at) = exec.next_event() {
        assert!(at >= now, "events go back in time: {at} < {now}");
        now = at;
        let job = exec.step(|c| {
            done.push(*c);
            hook(c)
        });
        assert_eq!(job, None, "only tasks were started");
    }
    (exec.finish(), done)
}

fn plans_from(raw: &[Vec<u16>]) -> Vec<WgPlan> {
    let mut id = 0u64;
    raw.iter()
        .map(|works| WgPlan {
            tasks: works
                .iter()
                .map(|&w| {
                    id += 1;
                    TaskUnit {
                        id,
                        work: w as f64 + 1.0,
                    }
                })
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With constant capacity, the makespan is exactly total work /
    /// capacity whenever no workgroup idles (single WG), and never less
    /// than that bound in general.
    #[test]
    fn work_conservation(raw in prop::collection::vec(
        prop::collection::vec(0u16..500, 0..12), 1..8,
    )) {
        let total: f64 = raw.iter().flatten().map(|&w| w as f64 + 1.0).sum();
        let plans = plans_from(&raw);
        let result = PersistentExec::new(|_| 2.0, plans).run(|_| SimTime::ZERO);
        let bound = total / 2.0;
        let makespan = result.makespan.as_nanos_f64();
        // Perfect sharing: with equal-rate PS the device never idles while
        // work remains, so the makespan equals the capacity bound — within
        // nanosecond rounding, which can accumulate up to ~1 ns per
        // completion event in either direction.
        let events = raw.iter().map(Vec::len).sum::<usize>() as f64;
        prop_assert!(
            makespan + events + 2.0 >= bound,
            "makespan {makespan} < bound {bound}"
        );
        prop_assert!(makespan <= bound + events + 2.0);
    }

    /// Each workgroup's completions come back in task-list order, and
    /// every task completes exactly once.
    #[test]
    fn per_wg_ordering(raw in prop::collection::vec(
        prop::collection::vec(0u16..200, 0..10), 1..6,
    )) {
        let plans = plans_from(&raw);
        let expected: usize = raw.iter().map(Vec::len).sum();
        let (_, done) = run_logged(PersistentExec::new(|n| n as f64, plans), |_| SimTime::ZERO);
        prop_assert_eq!(done.len(), expected);
        let mut seen = std::collections::HashSet::new();
        let mut next_seq = vec![0u32; raw.len()];
        for c in &done {
            prop_assert!(seen.insert(c.id), "task {} completed twice", c.id);
            prop_assert_eq!(c.seq, next_seq[c.wg as usize], "wg {} out of order", c.wg);
            next_seq[c.wg as usize] += 1;
            prop_assert!(c.end >= c.start);
        }
    }

    /// Hook overhead is pure serial time for its workgroup: a WG's finish
    /// time grows by at least the sum of its injected overheads.
    #[test]
    fn hook_overhead_accounted(
        works in prop::collection::vec(1u16..300, 1..10),
        overhead_ns in 1u64..5_000,
    ) {
        let plans = vec![WgPlan {
            tasks: works
                .iter()
                .enumerate()
                .map(|(i, &w)| TaskUnit { id: i as u64, work: w as f64 })
                .collect(),
        }];
        let free = PersistentExec::new(|_| 1.0, plans.clone()).run(|_| SimTime::ZERO);
        let taxed = PersistentExec::new(|_| 1.0, plans)
            .run(|_| SimTime::from_nanos(overhead_ns));
        let delta = taxed.makespan.as_nanos() - free.makespan.as_nanos();
        prop_assert_eq!(delta, overhead_ns * works.len() as u64);
    }

    /// With equal task work, tasks complete in launch order, so the
    /// completions list the launches. With `alternating` overheads a later
    /// completion resumes before resumes already queued, yet workgroups
    /// resume in `(time, wg)` order.
    #[test]
    fn workgroups_resume_in_time_then_wg_order(
        wgs in 1usize..12,
        tasks in 1usize..12,
        contended in prop::strategy::AnyBool,
    ) {
        let capacity = move |n: usize| if contended { 2.0 } else { n as f64 };
        let plans = plans_from(&vec![vec![99u16; tasks]; wgs]);
        let (_, done) = run_logged(PersistentExec::new(capacity, plans), alternating);
        prop_assert_eq!(done.len(), wgs * tasks);
        for pair in done.windows(2) {
            let (a, b) = ((pair[0].start, pair[0].wg), (pair[1].start, pair[1].wg));
            prop_assert!(a < b, "launch {:?} before {:?}", b, a);
        }
    }

    /// Driving `start` / `next_event` / `step` / `finish` by hand is `run`:
    /// the same completions in the same order, finish and busy times,
    /// makespan and steals, with and without stealing, under either
    /// varying hook overhead.
    #[test]
    fn driven_executor_is_run(
        raw in prop::collection::vec(prop::collection::vec(0u16..300, 0..10), 1..6),
        seed in 0u64..1_000,
        stealing in prop::strategy::AnyBool,
        contended in prop::strategy::AnyBool,
        alternate in prop::strategy::AnyBool,
    ) {
        let hook: Hook = if alternate { alternating } else { staggered };
        let exec = || {
            let capacity = move |n: usize| if contended { 2.0 } else { n as f64 };
            let exec = PersistentExec::new(capacity, plans_from(&raw));
            if stealing {
                exec.with_stealing(seed)
            } else {
                exec
            }
        };
        let (run, run_done) = run_logged(exec(), hook);
        let (driven, driven_done) = drive_logged(exec(), hook);
        prop_assert_eq!(run_done, driven_done);
        prop_assert_eq!(run.wg_finish, driven.wg_finish);
        prop_assert_eq!(run.wg_busy, driven.wg_busy);
        prop_assert_eq!(run.makespan, driven.makespan);
        prop_assert_eq!(run.steals, driven.steals);
    }
}
