//! Bit-identity pin for the executor and its processor-sharing resource.
//!
//! Seeded cases drive `PersistentExec` (run whole, and driven step by
//! step with extra jobs inserted between steps) and bare `PsResource`
//! streams, and fold every observable into one FNV-1a digest: each
//! `TaskCompletion` field, each inserted job's completion, each
//! `ExecResult`, and each resource completion with its generation. The
//! constant below was computed with the one-event-per-step executor; a
//! change that only makes the executor cheaper must reproduce it.
//!
//! The cases are chosen to hit the paths where event batching could
//! reorder floating-point work: works drawn from a small set (bit-equal
//! virtual finish keys, and distinct keys that round to one nanosecond),
//! zero, constant and mixed hook overheads, stealing on and off, arrivals
//! that share an instant, and a capacity curve with a zero region.

use fcc_gpu::exec::{ExecResult, PersistentExec, TaskCompletion, TaskUnit, WgPlan};
use fcc_sim::{splitmix64, PsResource, SimTime};

/// The digest of every case below, computed with the per-event executor.
const PINNED: u64 = 0xd129_6118_75ec_7c07;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn completion(&mut self, c: &TaskCompletion) {
        self.word(0xc0);
        self.word(u64::from(c.wg));
        self.word(u64::from(c.seq));
        self.word(c.id);
        self.word(c.start.as_nanos());
        self.word(c.end.as_nanos());
        self.word(u64::from(c.stolen));
    }

    fn result(&mut self, r: &ExecResult) {
        self.word(0xe0);
        for (finish, busy) in r.wg_finish.iter().zip(&r.wg_busy) {
            self.word(finish.as_nanos());
            self.word(busy.as_nanos());
        }
        self.word(r.makespan.as_nanos());
        self.word(r.steals);
    }
}

/// Works chosen so that equal-work tasks share bit-equal finish keys and
/// `100.0` / `100.0 + 1e-9` / `100.25` give distinct keys that complete
/// in one nanosecond.
const WORKS: [f64; 6] = [64.0, 100.0, 100.0 + 1e-9, 100.25, 333.0, 4096.0];

fn capacity(kind: u64) -> impl Fn(usize) -> f64 + Send + 'static {
    move |n: usize| match kind {
        0 => 2.0,
        1 => n as f64,
        // Saturating ramp with a contention knee, like the HBM curve.
        _ => {
            let n = n as f64;
            let base = 16.0 * n / (n + 4.0);
            if n <= 24.0 {
                base
            } else {
                base * (1.0 - 0.01 * (n - 24.0)).max(0.5)
            }
        }
    }
}

fn overhead(kind: u64, c: &TaskCompletion) -> SimTime {
    match kind {
        0 => SimTime::ZERO,
        1 => SimTime::from_nanos(150),
        // Mixed: zero for some tasks, so zero-overhead restarts interleave
        // with queued resumes at one instant.
        _ => SimTime::from_nanos((c.id + u64::from(c.wg)) % 3 * 75),
    }
}

struct Case {
    plans: Vec<WgPlan>,
    capacity: u64,
    overhead: u64,
    steal: Option<u64>,
}

impl Case {
    fn new(seed: u64) -> Case {
        let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5bd1_e995;
        let mut draw = |m: u64| splitmix64(&mut s) % m;
        let wgs = 1 + draw(64) as usize;
        let tasks = draw(12) as usize;
        // Few distinct works per case, so equal-key cohorts form.
        let palette = [
            WORKS[draw(WORKS.len() as u64) as usize],
            WORKS[draw(WORKS.len() as u64) as usize],
        ];
        let mut id = 0u64;
        let plans = (0..wgs)
            .map(|_| WgPlan {
                tasks: (0..tasks + draw(3) as usize)
                    .map(|_| {
                        id += 1;
                        let work = if draw(4) == 0 { palette[1] } else { palette[0] };
                        TaskUnit { id, work }
                    })
                    .collect(),
            })
            .collect();
        Case {
            plans,
            capacity: draw(3),
            overhead: draw(3),
            steal: (draw(2) == 0).then(|| draw(1 << 20)),
        }
    }

    fn exec(&self) -> PersistentExec {
        let exec = PersistentExec::new(capacity(self.capacity), self.plans.clone());
        match self.steal {
            Some(seed) => exec.with_stealing(seed),
            None => exec,
        }
    }
}

/// `run` to completion, every completion digested.
fn digest_run(case: &Case, h: &mut Fnv) {
    let kind = case.overhead;
    let result = case.exec().run(|c| {
        h.completion(c);
        overhead(kind, c)
    });
    h.result(&result);
}

/// Driven step by step, with `arrivals` (time, work) inserted as jobs
/// before the first event at or after their time — the way a co-simulation
/// couples the executor to another clock.
fn digest_driven(case: &Case, arrivals: &[(u64, f64)], h: &mut Fnv) {
    let kind = case.overhead;
    let mut exec = case.exec();
    exec.start();
    let mut next = 0;
    loop {
        let event = exec.next_event();
        if let Some(&(at, work)) = arrivals.get(next) {
            let at = SimTime::from_nanos(at);
            if event.is_none_or(|e| at <= e) {
                let job = exec.insert(at, work);
                h.word(0x1a);
                h.word(job.0);
                next += 1;
                continue;
            }
        }
        let Some(now) = event else { break };
        let job = exec.step(|c| {
            h.completion(c);
            overhead(kind, c)
        });
        if let Some(job) = job {
            h.word(0x1d);
            h.word(job.0);
            h.word(now.as_nanos());
        }
    }
    h.result(&exec.finish());
}

/// A bare resource: arrivals in groups that share an instant, works from
/// [`WORKS`], under a saturating capacity curve that, for odd seeds, is
/// zero for `n` in `5..=6` (a stream starved there with nothing left to
/// arrive ends).
fn digest_ps_stream(seed: u64, h: &mut Fnv) {
    let mut s = seed ^ 0x9e37_79b9;
    let mut draw = |m: u64| splitmix64(&mut s) % m;
    let mut arrivals = Vec::new();
    let mut t = 0u64;
    for _ in 0..1 + draw(10) {
        t += draw(4) * 97;
        for _ in 0..1 + draw(6) {
            arrivals.push((t, WORKS[draw(WORKS.len() as u64) as usize]));
        }
    }
    let gap = seed % 2 == 1;
    let mut ps = PsResource::new(move |n| {
        if gap && (5..=6).contains(&n) {
            0.0
        } else {
            (n as f64).min(4.0) * 0.75
        }
    });
    let mut next = 0;
    loop {
        let arrival = arrivals.get(next).map(|&(at, _)| SimTime::from_nanos(at));
        let done = ps.next_completion();
        match (arrival, done) {
            (Some(a), _) if done.is_none_or(|d| a <= d) => {
                let id = ps.insert(a, arrivals[next].1);
                h.word(0x5a);
                h.word(id.0);
                next += 1;
            }
            (_, Some(d)) if d < SimTime::MAX => {
                let id = ps.complete_next(d);
                h.word(0x5d);
                h.word(id.0);
                h.word(d.as_nanos());
            }
            // Starved with nothing left to arrive: the stream ends here.
            (_, Some(_)) => {
                h.word(0x57);
                h.word(ps.active() as u64);
                break;
            }
            _ => break,
        }
        h.word(ps.generation());
    }
}

#[test]
fn executor_and_resource_reproduce_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 0..200 {
        let case = Case::new(seed);
        digest_run(&case, &mut h);
        // Every fourth case is also driven, with jobs inserted between
        // steps: some alone, some sharing an instant and a work.
        if seed % 4 == 0 {
            let mut s = seed;
            let arrivals: Vec<(u64, f64)> = (0..6)
                .map(|i| {
                    let at = splitmix64(&mut s) % 2_000 / 50 * 50;
                    (at + i / 3 * 400, WORKS[(splitmix64(&mut s) % 3) as usize])
                })
                .collect();
            let mut sorted = arrivals;
            sorted.sort_by_key(|&(at, _)| at);
            digest_driven(&case, &sorted, &mut h);
        }
    }
    for seed in 0..64 {
        digest_ps_stream(seed, &mut h);
    }
    assert_eq!(h.0, PINNED, "digest {:#018x}", h.0);
}
