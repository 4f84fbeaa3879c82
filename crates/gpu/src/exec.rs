//! Workgroup-level kernel execution.
//!
//! Both ordinary grid kernels and persistent-thread kernels reduce to the
//! same timing problem: up to `n` workgroup slots are busy at once, each
//! working through a queue of logical tasks, with all resident workgroups
//! sharing the device's load-dependent capacity. The executor evaluates
//! this exactly using the processor-sharing resource from `fcc-sim`, and
//! lets a caller-supplied hook inject per-task post-completion overhead —
//! which is how the fused operator models `WG_Done` bookkeeping and the
//! GPU-initiated networking API latency of the last-finishing workgroup.
//!
//! The executor's unit of work is an *instant*, not a task: equal-work
//! tasks that start together finish together, so a design point's 262,144
//! task completions fall on 1,349 instants. Each
//! [`step`](PersistentExec::step) processes one batch: every resume due at
//! the earliest resume instant, or every completion at the next completion
//! instant. That reorders nothing. Resuming at `t` inserts a job at `t`,
//! so no completion precedes a resume due at the same instant; a
//! completion's hook either restarts its workgroup at once, in completion
//! order, or pushes a resume strictly later. The same floating-point
//! operations run at the same instants with the same job counts as one
//! event per step would run.
//!
//! [`PersistentExec::run`] drives the executor alone. A caller that couples
//! it to other clocks drives it batch by batch instead
//! ([`start`](PersistentExec::start), [`next_event`](PersistentExec::next_event),
//! [`step`](PersistentExec::step), [`finish`](PersistentExec::finish)) and
//! can [`insert`](PersistentExec::insert) jobs that are not tasks but share
//! the capacity curve, such as incoming writes into the same HBM.

use std::collections::VecDeque;

use fcc_sim::{splitmix64, JobId, MinQueue, PsResource, SimTime};

use crate::config::GpuConfig;
use crate::kernel::KernelDesc;
use crate::occupancy::occupancy;

/// One logical task in a persistent workgroup's task loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskUnit {
    /// Caller-assigned identifier (e.g. logical-WG index).
    pub id: u64,
    /// Work units (bytes or FLOPs, matching the capacity curve).
    pub work: f64,
}

/// The ordered task list of one persistent workgroup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WgPlan {
    pub tasks: Vec<TaskUnit>,
}

/// A completed logical task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCompletion {
    /// Persistent workgroup that executed the task.
    pub wg: u32,
    /// Position within the task loop of the plan that originally held the
    /// task (the victim's, if stolen).
    pub seq: u32,
    /// Caller-assigned task id.
    pub id: u64,
    /// When the task began consuming bandwidth.
    pub start: SimTime,
    /// When its work finished (before any hook-injected overhead).
    pub end: SimTime,
    /// Whether `wg` stole this task from another workgroup's queue.
    pub stolen: bool,
}

/// Result of executing a (persistent) kernel.
#[derive(Debug, Clone, Default)]
pub struct ExecResult {
    /// Per-workgroup time at which its task loop fully drained (including
    /// trailing hook overhead).
    pub wg_finish: Vec<SimTime>,
    /// Per-workgroup busy time: task execution plus hook overhead. The
    /// complement (against the makespan) is idle/starved time, which is
    /// what the telemetry occupancy metrics report.
    pub wg_busy: Vec<SimTime>,
    /// Time the last workgroup drained.
    pub makespan: SimTime,
    /// Tasks executed by a workgroup other than the one whose plan held
    /// them (zero unless stealing was enabled).
    pub steals: u64,
    /// Batches processed: instants at which workgroups resumed, plus
    /// instants at which jobs completed (an instant's completions split
    /// after each completed [`insert`](PersistentExec::insert)ed job).
    pub batches: u64,
}

/// A workgroup's task in flight: where it came from and when it began.
struct Started {
    seq: u32,
    id: u64,
    start: SimTime,
    stolen: bool,
}

/// `PersistentExec::job_wg` marks: a job that is no workgroup's task, and
/// a completed job.
const INSERTED: u32 = u32::MAX;
const DONE: u32 = u32::MAX - 1;

/// Tasks per block of [`Tasks`] (64 KiB).
const BLOCK: usize = 1 << 12;

/// Every workgroup's tasks in one sequence, stored in 64 KiB blocks. A
/// design point holds a quarter million tasks. As one multi-megabyte
/// array, allocated and freed point after point, they raised a design
/// sweep's peak RSS by 5%: an allocation that large gets its own mapping,
/// so its pages are not reused by the next allocations. Blocks below that
/// size are, as the per-workgroup plans were.
#[derive(Default)]
struct Tasks {
    blocks: Vec<Vec<TaskUnit>>,
}

impl Tasks {
    fn push(&mut self, task: TaskUnit) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK => block.push(task),
            _ => {
                let mut block = Vec::with_capacity(BLOCK);
                block.push(task);
                self.blocks.push(block);
            }
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    #[inline]
    fn get(&self, i: usize) -> TaskUnit {
        self.blocks[i / BLOCK][i % BLOCK]
    }
}

impl FromIterator<TaskUnit> for Tasks {
    fn from_iter<I: IntoIterator<Item = TaskUnit>>(iter: I) -> Self {
        let mut tasks = Tasks::default();
        iter.into_iter().for_each(|t| tasks.push(t));
        tasks
    }
}

/// Executes persistent workgroups over their task plans.
///
/// `capacity(n)` is the aggregate work rate with `n` workgroups actively
/// computing (workgroups serving hook overhead do not consume capacity —
/// bookkeeping and SHMEM API calls are not memory traffic).
pub struct PersistentExec {
    ps: PsResource,
    /// Every workgroup's tasks: task `seq` of workgroup `w` is
    /// `tasks[first[w] + seq * stride]`. A round-robin deal is stored in
    /// dealt order, so the task loops read it front to back.
    tasks: Tasks,
    first: Vec<u32>,
    stride: u32,
    /// (resume time, wg) for workgroups waiting out hook overhead. Equal
    /// overheads after completions in time order make resume keys arrive
    /// in order, so this is mostly a FIFO ([`MinQueue`]).
    pending: MinQueue<(SimTime, u32)>,
    /// Each workgroup's task in flight (a workgroup runs one at a time).
    running: Vec<Option<Started>>,
    /// The workgroup running each job from `first_job` on — [`INSERTED`]
    /// for a job that is no task, [`DONE`] once completed — trimmed from
    /// the front as jobs complete. Job ids are sequential, so this is a
    /// window over the live ids, not a map.
    job_wg: VecDeque<u32>,
    first_job: u64,
    /// Owner end of each workgroup's queue (next own task to start).
    front: Vec<u32>,
    /// Thief end (exclusive): tasks in `front..back` are stealable.
    back: Vec<u32>,
    /// Unstarted tasks across all queues (fast has-work check).
    remaining: usize,
    /// Work-stealing RNG state; `None` pins tasks to their planned WG.
    steal: Option<u64>,
    /// Finish and busy times and steals so far; the makespan is set by
    /// [`finish`](Self::finish).
    result: ExecResult,
}

impl PersistentExec {
    /// Creates an executor for `plans` over the given capacity curve.
    pub fn new(capacity: impl Fn(usize) -> f64 + Send + 'static, plans: Vec<WgPlan>) -> Self {
        let mut first = Vec::with_capacity(plans.len());
        let mut lens = Vec::with_capacity(plans.len());
        let mut tasks = Tasks::default();
        for plan in &plans {
            first.push(tasks.len() as u32);
            lens.push(plan.tasks.len() as u32);
            plan.tasks.iter().for_each(|&t| tasks.push(t));
        }
        Self::with_layout(capacity, tasks, first, 1, lens)
    }

    /// Creates an executor for `tasks` dealt round-robin onto `wgs`
    /// workgroups: task `i` runs as iteration `i / wgs` of workgroup
    /// `i % wgs`. The same as [`new`](Self::new) with those plans, without
    /// building them.
    pub fn dealt(
        capacity: impl Fn(usize) -> f64 + Send + 'static,
        tasks: impl IntoIterator<Item = TaskUnit>,
        wgs: u32,
    ) -> Self {
        assert!(wgs > 0, "a deal needs a workgroup");
        let tasks: Tasks = tasks.into_iter().collect();
        let len = tasks.len() as u32;
        let lens = (0..wgs).map(|w| (len + wgs - 1 - w) / wgs).collect();
        Self::with_layout(capacity, tasks, (0..wgs).collect(), wgs, lens)
    }

    fn with_layout(
        capacity: impl Fn(usize) -> f64 + Send + 'static,
        tasks: Tasks,
        first: Vec<u32>,
        stride: u32,
        lens: Vec<u32>,
    ) -> Self {
        let wgs = lens.len();
        PersistentExec {
            ps: PsResource::new(capacity),
            front: vec![0; wgs],
            remaining: lens.iter().map(|&l| l as usize).sum(),
            back: lens,
            pending: MinQueue::new(),
            running: (0..wgs).map(|_| None).collect(),
            job_wg: VecDeque::new(),
            first_job: 0,
            steal: None,
            result: ExecResult {
                wg_finish: vec![SimTime::ZERO; wgs],
                wg_busy: vec![SimTime::ZERO; wgs],
                ..ExecResult::default()
            },
            tasks,
            first,
            stride,
        }
    }

    /// Task `seq` of workgroup `w`'s plan.
    #[inline]
    fn task(&self, w: usize, seq: u32) -> TaskUnit {
        self.tasks.get((self.first[w] + seq * self.stride) as usize)
    }

    /// Enables work stealing: a workgroup that drains its own queue robs
    /// the *tail* of a seeded-scan victim's queue — the victim's
    /// lowest-priority unstarted task, mirroring the runtime deque where
    /// owners pop LIFO in priority order and thieves take the other end.
    /// Deterministic for a given `(plans, seed)` pair.
    pub fn with_stealing(mut self, seed: u64) -> Self {
        self.steal = Some(seed);
        self
    }

    fn start_next_task(&mut self, wg: u32, now: SimTime) {
        let w = wg as usize;
        if self.front[w] < self.back[w] {
            let seq = self.front[w];
            self.front[w] += 1;
            self.remaining -= 1;
            let task = self.task(w, seq);
            self.launch(wg, seq, task, now, false);
            return;
        }
        let n = self.front.len();
        if n <= 1 || self.remaining == 0 {
            return;
        }
        let Some(state) = self.steal.as_mut() else {
            return;
        };
        // Seeded victim selection: start at a random peer and scan
        // forward for a non-empty queue, as the runtime thieves do. The
        // SplitMix64 stream is the executor's only randomness, so a
        // `(plans, seed)` pair replays exactly.
        let offset = (splitmix64(state) % (n as u64 - 1)) as usize;
        let start = (w + 1 + offset) % n;
        for k in 0..n {
            let v = (start + k) % n;
            if v == w || self.front[v] >= self.back[v] {
                continue;
            }
            self.back[v] -= 1;
            self.remaining -= 1;
            self.result.steals += 1;
            let seq = self.back[v];
            let task = self.task(v, seq);
            self.launch(wg, seq, task, now, true);
            return;
        }
    }

    /// Starts `task` (position `seq` of its plan) on `wg` at `now`.
    fn launch(&mut self, wg: u32, seq: u32, task: TaskUnit, now: SimTime, stolen: bool) {
        self.submit(now, task.work, wg);
        self.running[wg as usize] = Some(Started {
            seq,
            id: task.id,
            start: now,
            stolen,
        });
    }

    /// Inserts a job of `work` units at `now`, run by workgroup `wg`.
    fn submit(&mut self, now: SimTime, work: f64, wg: u32) -> JobId {
        let job = self.ps.insert(now, work);
        debug_assert_eq!(job.0, self.first_job + self.job_wg.len() as u64);
        self.job_wg.push_back(wg);
        job
    }

    /// Whether `wg` could start another task right now.
    fn has_work(&self, wg: u32) -> bool {
        let w = wg as usize;
        self.front[w] < self.back[w] || (self.steal.is_some() && self.remaining > 0)
    }

    /// Starts every workgroup's first task at time zero.
    pub fn start(&mut self) {
        for wg in 0..self.front.len() as u32 {
            self.start_next_task(wg, SimTime::ZERO);
        }
    }

    /// The instant of the next event — a workgroup resuming after its hook
    /// overhead, or a job completing — or `None` once everything drained.
    pub fn next_event(&self) -> Option<SimTime> {
        let resume = self.pending.peek().map(|&(t, _)| t);
        resume.into_iter().chain(self.ps.next_completion()).min()
    }

    /// Processes the batch of events at [`next_event`](Self::next_event):
    /// every workgroup resuming then, or else every job completing then,
    /// up to and including the first completed [`insert`](Self::insert)ed
    /// job, which is returned. Each task completion goes through `hook`
    /// (see [`run`](Self::run)), in completion order.
    ///
    /// # Panics
    /// Panics if nothing is pending or capacity is zero.
    pub fn step(&mut self, mut hook: impl FnMut(&TaskCompletion) -> SimTime) -> Option<JobId> {
        self.advance(&mut hook).expect("step on a drained executor")
    }

    /// [`step`](Self::step), or `None` if nothing is pending.
    fn advance(
        &mut self,
        hook: &mut impl FnMut(&TaskCompletion) -> SimTime,
    ) -> Option<Option<JobId>> {
        let done = self.ps.next_completion();
        // Resuming a workgroup at or before the next completion keeps
        // capacity accounting exact: it shares bandwidth from that instant.
        // Its job starts at `t`, so every completion stays at or after `t`
        // and the other resumes due at `t` go first too.
        if let Some(&(t, _)) = self.pending.peek() {
            if done.is_none_or(|dt| t <= dt) {
                self.result.batches += 1;
                while let Some(&(rt, wg)) = self.pending.peek() {
                    if rt != t {
                        break;
                    }
                    self.pending.pop();
                    self.start_next_task(wg, t);
                }
                return Some(None);
            }
        }
        let dt = done?;
        assert!(dt < SimTime::MAX, "executor starved: zero capacity");
        self.result.batches += 1;
        // Hooks push resumes strictly later than `dt`, so until the next
        // completion moves past `dt` no resume comes before it.
        let mut job = self.ps.complete_next(dt);
        loop {
            if let Some(job) = self.complete(job, dt, hook) {
                return Some(Some(job));
            }
            match self.ps.complete_at(dt) {
                Some(next) => job = next,
                None => return Some(None),
            }
        }
    }

    /// Accounts `job`, completed at `dt`: an inserted job's id is
    /// returned; a task goes through `hook`, and its workgroup restarts at
    /// once or resumes after the overhead.
    fn complete(
        &mut self,
        job: JobId,
        dt: SimTime,
        hook: &mut impl FnMut(&TaskCompletion) -> SimTime,
    ) -> Option<JobId> {
        let wg = match (job.0 - self.first_job) as usize {
            // Jobs mostly complete in id order: the oldest live one.
            0 => {
                let wg = self.job_wg.pop_front().expect("a live job");
                self.first_job += 1;
                while self.job_wg.front() == Some(&DONE) {
                    self.job_wg.pop_front();
                    self.first_job += 1;
                }
                wg
            }
            i => std::mem::replace(&mut self.job_wg[i], DONE),
        };
        if wg == INSERTED {
            return Some(job);
        }
        let s = self.running[wg as usize].take().expect("a task in flight");
        let overhead = hook(&TaskCompletion {
            wg,
            seq: s.seq,
            id: s.id,
            start: s.start,
            end: dt,
            stolen: s.stolen,
        });
        let free_at = dt + overhead;
        let w = wg as usize;
        self.result.wg_finish[w] = free_at;
        self.result.wg_busy[w] = self.result.wg_busy[w] + (dt - s.start) + overhead;
        if self.has_work(wg) {
            if overhead == SimTime::ZERO {
                self.start_next_task(wg, dt);
            } else {
                self.pending.push((free_at, wg));
            }
        }
        None
    }

    /// Starts a job of `work` units at `now` that is no workgroup's task
    /// but shares the capacity curve with them; [`step`](Self::step)
    /// returns its id when it completes.
    pub fn insert(&mut self, now: SimTime, work: f64) -> JobId {
        self.submit(now, work, INSERTED)
    }

    /// The run's outcome so far; after a drained run, its final one.
    pub fn finish(self) -> ExecResult {
        let mut result = self.result;
        result.makespan = result.wg_finish.iter().copied().max().unwrap_or_default();
        result
    }

    /// Runs every workgroup's task loop to completion, starting at time
    /// zero.
    ///
    /// `hook` is invoked once per task completion and returns the extra
    /// time the workgroup stays busy (off the memory system) before
    /// starting its next task. Returning [`SimTime::ZERO`] means the next
    /// task starts immediately.
    pub fn run(mut self, mut hook: impl FnMut(&TaskCompletion) -> SimTime) -> ExecResult {
        self.start();
        while self.advance(&mut hook).is_some() {}
        self.finish()
    }
}

/// Timing of an ordinary (non-persistent) kernel launch, excluding host
/// launch overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Device-side duration from first task start to last task end.
    pub duration: SimTime,
    /// Resident workgroup slots used.
    pub concurrency: u32,
}

/// Executes an ordinary grid kernel: `desc.num_tasks` logical workgroups
/// dispatched onto at most `occupancy` resident slots (optionally capped by
/// `grid_cap` to model deliberately reduced launches).
pub fn run_kernel(gpu: &GpuConfig, desc: &KernelDesc, grid_cap: Option<u32>) -> KernelTiming {
    let occ = occupancy(gpu, &desc.resources);
    let mut slots = occ.wgs_per_device;
    if let Some(cap) = grid_cap {
        assert!(cap > 0, "grid cap must be positive");
        slots = slots.min(cap);
    }
    let slots = (slots as u64).min(desc.num_tasks.max(1)) as u32;

    // Deal tasks round-robin across slots; identical tasks make the deal
    // order irrelevant to the makespan.
    let work = desc.shape.work_per_task();
    let tasks = (0..desc.num_tasks).map(|id| TaskUnit { id, work });
    let exec = PersistentExec::dealt(desc.shape.capacity_fn(gpu), tasks, slots);
    let result = exec.run(|_| SimTime::ZERO);
    KernelTiming {
        duration: result.makespan,
        concurrency: slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelResources, WorkShape};

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn uniform_plans(num_wgs: usize, tasks_per_wg: usize, work: f64) -> Vec<WgPlan> {
        (0..num_wgs)
            .map(|wg| WgPlan {
                tasks: (0..tasks_per_wg)
                    .map(|s| TaskUnit {
                        id: (wg * tasks_per_wg + s) as u64,
                        work,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Runs `exec` under `overhead`, collecting completions in the hook.
    fn logged(
        exec: PersistentExec,
        overhead: impl Fn(&TaskCompletion) -> SimTime,
    ) -> (ExecResult, Vec<TaskCompletion>) {
        let mut done = Vec::new();
        let result = exec.run(|c| {
            done.push(*c);
            overhead(c)
        });
        (result, done)
    }

    #[test]
    fn single_wg_executes_serially() {
        let exec = PersistentExec::new(|_| 1.0, uniform_plans(1, 3, 100.0));
        let (result, done) = logged(exec, |_| SimTime::ZERO);
        let ends: Vec<u64> = done.iter().map(|c| c.end.as_nanos()).collect();
        assert_eq!(ends, vec![100, 200, 300]);
        assert_eq!(result.makespan, ns(300));
    }

    #[test]
    fn constant_capacity_shares_across_wgs() {
        // 2 WGs x 2 tasks of 100 on capacity 1.0: each WG progresses at
        // 0.5/ns -> tasks end at 200 and 400; makespan 400 (same total work
        // as serial).
        let exec = PersistentExec::new(|_| 1.0, uniform_plans(2, 2, 100.0));
        let (result, done) = logged(exec, |_| SimTime::ZERO);
        assert_eq!(result.makespan, ns(400));
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn linear_capacity_gives_parallel_speedup() {
        // Capacity n (perfect scaling): 4 WGs x 4 tasks of 100 -> each WG
        // runs at rate 1 regardless -> makespan 400 vs serial 1600.
        let exec = PersistentExec::new(|n| n as f64, uniform_plans(4, 4, 100.0));
        let result = exec.run(|_| SimTime::ZERO);
        assert_eq!(result.makespan, ns(400));
    }

    #[test]
    fn hook_overhead_delays_next_task_only_for_that_wg() {
        // WG0 pays 50ns after each task; WG1 pays nothing. Capacity is
        // linear (per-WG rate 1.0) so interference is zero: WG0 finishes at
        // 2*100 + 50 (no trailing overhead after last? hook applies after
        // last too) = 250; WG1 at 200.
        let exec = PersistentExec::new(|n| n as f64, uniform_plans(2, 2, 100.0));
        let result = exec.run(|c| if c.wg == 0 { ns(50) } else { SimTime::ZERO });
        assert_eq!(result.wg_finish[0], ns(300)); // 100+50+100+50
        assert_eq!(result.wg_finish[1], ns(200));
        assert_eq!(result.makespan, ns(300));
    }

    #[test]
    fn overhead_releases_bandwidth_to_others() {
        // Fixed capacity 1.0 shared. WG0: one task of 100 then a huge
        // overhead; WG1: two tasks of 100. Until t=200 both compute at 0.5.
        // At t=200 both finish their first task (tie). WG0 leaves for
        // overhead; WG1's second task then runs alone at 1.0 -> ends 300.
        let exec = PersistentExec::new(
            |_| 1.0,
            vec![
                WgPlan {
                    tasks: vec![TaskUnit { id: 0, work: 100.0 }],
                },
                WgPlan {
                    tasks: vec![
                        TaskUnit { id: 1, work: 100.0 },
                        TaskUnit { id: 2, work: 100.0 },
                    ],
                },
            ],
        );
        let (result, done) = logged(exec, |c| if c.wg == 0 { ns(1000) } else { SimTime::ZERO });
        let last = done.last().unwrap();
        assert_eq!(last.id, 2);
        assert_eq!(last.end, ns(300));
        assert_eq!(result.wg_finish[0], ns(1200));
    }

    #[test]
    fn wg_busy_accounts_tasks_and_overhead() {
        // Linear capacity: each WG runs its tasks back-to-back at rate 1.
        let exec = PersistentExec::new(|n| n as f64, uniform_plans(2, 2, 100.0));
        let result = exec.run(|c| if c.wg == 0 { ns(50) } else { SimTime::ZERO });
        assert_eq!(result.wg_busy[0], ns(300)); // 2*100 work + 2*50 overhead
        assert_eq!(result.wg_busy[1], ns(200));
        assert_eq!(result.makespan, ns(300));
    }

    #[test]
    fn completions_report_start_times() {
        let exec = PersistentExec::new(|_| 1.0, uniform_plans(1, 2, 50.0));
        let (_, done) = logged(exec, |_| SimTime::ZERO);
        assert_eq!(done[0].start, ns(0));
        assert_eq!(done[1].start, ns(50));
    }

    #[test]
    fn empty_plans_finish_instantly() {
        let exec = PersistentExec::new(|_| 1.0, vec![WgPlan::default(); 4]);
        let (result, done) = logged(exec, |_| SimTime::ZERO);
        assert_eq!(result.makespan, SimTime::ZERO);
        assert!(done.is_empty());
    }

    #[test]
    fn inserted_jobs_share_capacity_and_come_back_from_step() {
        // One task of 100 and an inserted job of 50 share capacity 1.0:
        // the job ends at 100 (rate 0.5), the task then runs alone to 150.
        let mut exec = PersistentExec::new(|_| 1.0, uniform_plans(1, 1, 100.0));
        exec.start();
        let job = exec.insert(SimTime::ZERO, 50.0);
        assert_eq!(exec.next_event(), Some(ns(100)));
        assert_eq!(exec.step(|_| panic!("the job ends first")), Some(job));
        assert_eq!(exec.next_event(), Some(ns(150)));
        assert_eq!(exec.step(|_| SimTime::ZERO), None);
        assert_eq!(exec.next_event(), None);
        assert_eq!(exec.finish().makespan, ns(150));
    }

    #[test]
    fn a_deal_runs_as_its_plans() {
        // 11 tasks of two works dealt onto 4 WGs: plans of 3, 3, 3, 2.
        let tasks: Vec<TaskUnit> = (0..11)
            .map(|id| TaskUnit {
                id,
                work: if id % 3 == 0 { 150.0 } else { 100.0 },
            })
            .collect();
        let mut plans = vec![WgPlan::default(); 4];
        for (i, &t) in tasks.iter().enumerate() {
            plans[i % 4].tasks.push(t);
        }
        let overhead = |c: &TaskCompletion| ns(c.id % 2 * 40);
        for steal in [None, Some(5)] {
            let with = |exec: PersistentExec| match steal {
                Some(seed) => exec.with_stealing(seed),
                None => exec,
            };
            let (dealt, dealt_done) = logged(
                with(PersistentExec::dealt(
                    |n| 2.0 * n as f64 / (n as f64 + 1.0),
                    tasks.clone(),
                    4,
                )),
                overhead,
            );
            let (planned, planned_done) = logged(
                with(PersistentExec::new(
                    |n| 2.0 * n as f64 / (n as f64 + 1.0),
                    plans.clone(),
                )),
                overhead,
            );
            assert_eq!(dealt_done, planned_done);
            assert_eq!(dealt.wg_finish, planned.wg_finish);
            assert_eq!(dealt.wg_busy, planned.wg_busy);
            assert_eq!(dealt.batches, planned.batches);
        }
    }

    #[test]
    fn equal_tasks_complete_in_one_batch_per_instant() {
        // 4 WGs x 3 equal tasks under a 50 ns hook: every round completes
        // at one instant and resumes at another.
        let exec = PersistentExec::new(|_| 1.0, uniform_plans(4, 3, 100.0));
        let result = exec.run(|_| ns(50));
        assert_eq!(result.batches, 3 + 2);
    }

    #[test]
    fn run_kernel_caps_concurrency_at_occupancy() {
        let gpu = GpuConfig::mi210();
        let desc = KernelDesc {
            name: "k".into(),
            resources: KernelResources::embedding_baseline(),
            shape: WorkShape::MemoryBound {
                bytes_per_task: 1024.0,
            },
            num_tasks: 10_000,
        };
        let t = run_kernel(&gpu, &desc, None);
        assert_eq!(t.concurrency, 832);
        assert!(t.duration > SimTime::ZERO);
    }

    #[test]
    fn run_kernel_small_grid_uses_fewer_slots() {
        let gpu = GpuConfig::mi210();
        let desc = KernelDesc {
            name: "k".into(),
            resources: KernelResources::embedding_baseline(),
            shape: WorkShape::MemoryBound {
                bytes_per_task: 1024.0,
            },
            num_tasks: 16,
        };
        let t = run_kernel(&gpu, &desc, None);
        assert_eq!(t.concurrency, 16);
    }

    #[test]
    fn run_kernel_grid_cap_slows_execution() {
        let gpu = GpuConfig::mi210();
        let desc = KernelDesc {
            name: "k".into(),
            resources: KernelResources::embedding_baseline(),
            shape: WorkShape::MemoryBound {
                bytes_per_task: 32.0 * 1024.0,
            },
            num_tasks: 8192,
        };
        let full = run_kernel(&gpu, &desc, None);
        let capped = run_kernel(&gpu, &desc, Some(208)); // 25 % occupancy
        assert!(capped.duration > full.duration);
    }

    #[test]
    fn oversubscription_contention_visible_through_kernel() {
        // On the MI210 curve the hardware maximum is 832 WGs and
        // contention starts at 624 (75 %): 75 % beats both 25 % (too few
        // WGs to saturate HBM) and 100 % (contended).
        let gpu = GpuConfig::mi210();
        let desc = KernelDesc {
            name: "k".into(),
            resources: KernelResources::embedding_baseline(),
            shape: WorkShape::MemoryBound {
                bytes_per_task: 32.0 * 1024.0,
            },
            num_tasks: 65536,
        };
        let q = run_kernel(&gpu, &desc, Some(208)); // 25 %
        let best = run_kernel(&gpu, &desc, Some(624)); // 75 %
        let full = run_kernel(&gpu, &desc, Some(832)); // 100 %
        assert!(best.duration < q.duration);
        assert!(best.duration < full.duration);
    }

    #[test]
    fn stealing_rebalances_a_skewed_queue() {
        // All 8 tasks planned onto WG0; three idle WGs. Linear capacity
        // (per-WG rate 1.0): static runs serially (800), stealing spreads
        // the queue across all four slots (200).
        let mut plans = uniform_plans(1, 8, 100.0);
        plans.extend(vec![WgPlan::default(); 3]);
        let still = PersistentExec::new(|n| n as f64, plans.clone()).run(|_| SimTime::ZERO);
        let exec = PersistentExec::new(|n| n as f64, plans).with_stealing(7);
        let (stolen, done) = logged(exec, |_| SimTime::ZERO);
        assert_eq!(still.makespan, ns(800));
        assert_eq!(still.steals, 0);
        assert_eq!(stolen.makespan, ns(200));
        assert_eq!(stolen.steals, 6, "three thieves rob two tasks each");
        assert!(done.iter().any(|c| c.stolen));
    }

    #[test]
    fn stealing_executes_every_task_exactly_once() {
        let mut plans = uniform_plans(2, 5, 64.0);
        plans.push(WgPlan::default());
        let exec = PersistentExec::new(|_| 2.0, plans).with_stealing(42);
        let (result, done) = logged(exec, |_| SimTime::ZERO);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        // Stolen completions credit the thief: its busy time is nonzero.
        assert!(result.steals > 0);
        assert!(result.wg_busy[2] > SimTime::ZERO);
    }

    #[test]
    fn stealing_is_deterministic_under_a_seed() {
        let mut plans = uniform_plans(3, 4, 50.0);
        plans[0].tasks[0].work = 400.0; // a straggler worth robbing around
        let run = |seed| {
            let exec = PersistentExec::new(|n| n as f64, plans.clone()).with_stealing(seed);
            logged(exec, |_| SimTime::ZERO)
        };
        let ((a, a_done), (b, b_done)) = (run(9), run(9));
        assert_eq!(a_done, b_done);
        assert_eq!(a.steals, b.steals);
    }

    #[test]
    fn thieves_take_the_victims_tail() {
        // WG1 never gets to its own queue: WG0's single long task keeps it
        // busy while WG1 drains its own then steals. The stolen tasks must
        // come off WG0's *back* (highest seq first).
        let plans = vec![
            WgPlan {
                tasks: vec![
                    TaskUnit {
                        id: 0,
                        work: 1000.0,
                    },
                    TaskUnit { id: 1, work: 10.0 },
                    TaskUnit { id: 2, work: 10.0 },
                ],
            },
            WgPlan {
                tasks: vec![TaskUnit { id: 3, work: 10.0 }],
            },
        ];
        let exec = PersistentExec::new(|n| n as f64, plans).with_stealing(1);
        let (_, done) = logged(exec, |_| SimTime::ZERO);
        let stolen: Vec<u64> = done.iter().filter(|c| c.stolen).map(|c| c.id).collect();
        assert_eq!(stolen, vec![2, 1], "tail first, then the next-innermost");
    }

    #[test]
    fn makespan_equals_total_work_over_capacity_for_saturated_runs() {
        // With constant capacity and identical tasks, makespan ==
        // total_work / capacity regardless of WG count (work conservation).
        for wgs in [1usize, 2, 4, 8] {
            let exec = PersistentExec::new(|_| 2.0, uniform_plans(wgs, 16 / wgs, 64.0));
            let result = exec.run(|_| SimTime::ZERO);
            assert_eq!(result.makespan, ns(512), "wgs={wgs}");
        }
    }
}
