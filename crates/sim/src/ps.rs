//! Processor-sharing resource with load-dependent capacity.
//!
//! Models `n` concurrent jobs drawing on one shared resource (HBM bandwidth,
//! a NIC, an xGMI link). The aggregate capacity `C(n)` is supplied by the
//! caller as a function of the number of active jobs, which is how the GPU
//! model expresses its bandwidth-saturation/contention curve (Figure 11's
//! U-shape) and the NIC model expresses message-rate limits.
//!
//! Every active job progresses at the same instantaneous rate `C(n)/n`
//! (equal sharing). Rather than rescaling every job's remaining work each
//! time `n` changes — `O(n)` per event — we track a *virtual time* `V(t)`
//! with `dV/dt = C(n)/n`. A job inserted at virtual time `v0` with `work`
//! units finishes when `V` reaches `v0 + work`, so completions are just a
//! min-queue on virtual finish times ([`MinQueue`]). `V` never decreases,
//! so jobs of equal work arrive with nondecreasing finish keys: each
//! operation is `O(1)` while keys arrive in order and `O(log n)` for a
//! key that arrives below the latest one.

use crate::queue::MinQueue;
use crate::time::SimTime;

/// Identifier of a job inside a [`PsResource`]. Allocated sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// `f64` wrapper with a total order (no NaNs admitted by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct VirtualInstant(f64);

impl Eq for VirtualInstant {}
impl PartialOrd for VirtualInstant {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for VirtualInstant {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("virtual instants are never NaN")
    }
}

/// A shared resource under egalitarian processor sharing.
///
/// `work` units are arbitrary (bytes, flops); capacity is `work per
/// nanosecond`.
///
/// ```
/// use fcc_sim::{PsResource, SimTime};
///
/// // Two jobs of 100 units share 1 unit/ns: both finish at t = 200 ns.
/// let mut ps = PsResource::with_constant_capacity(1.0);
/// ps.insert(SimTime::ZERO, 100.0);
/// ps.insert(SimTime::ZERO, 100.0);
/// let done = ps.drain();
/// assert_eq!(done[1].0, SimTime::from_nanos(200));
/// ```
///
/// The resource is passive: the owner asks for
/// [`next_completion`](Self::next_completion), schedules an engine event at
/// that instant, and calls [`complete_next`](Self::complete_next) when it
/// fires. Because insertions change completion times, events must be
/// validated against [`generation`](Self::generation).
pub struct PsResource {
    capacity: Box<dyn Fn(usize) -> f64 + Send>,
    /// Virtual clock (work units delivered to a hypothetical job active
    /// since t=0).
    vnow: f64,
    /// Real instant at which `vnow` was last updated.
    anchor: SimTime,
    /// Current per-job rate, in work units per nanosecond.
    per_job_rate: f64,
    /// Active jobs keyed by virtual finish time; the id makes keys unique.
    jobs: MinQueue<(VirtualInstant, JobId)>,
    next_id: u64,
    generation: u64,
}

impl std::fmt::Debug for PsResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsResource")
            .field("active", &self.active())
            .field("vnow", &self.vnow)
            .field("anchor", &self.anchor)
            .field("per_job_rate", &self.per_job_rate)
            .field("generation", &self.generation)
            .finish()
    }
}

impl PsResource {
    /// Creates a resource whose aggregate capacity for `n` active jobs is
    /// `capacity(n)` work units per nanosecond.
    ///
    /// `capacity` must return a finite, non-negative value for every `n ≥ 1`
    /// and is never called with `n = 0`.
    pub fn new(capacity: impl Fn(usize) -> f64 + Send + 'static) -> Self {
        PsResource {
            capacity: Box::new(capacity),
            vnow: 0.0,
            anchor: SimTime::ZERO,
            per_job_rate: 0.0,
            jobs: MinQueue::new(),
            next_id: 0,
            generation: 0,
        }
    }

    /// Fixed-capacity convenience constructor.
    pub fn with_constant_capacity(capacity: f64) -> Self {
        Self::new(move |_| capacity)
    }

    /// Number of active jobs.
    #[inline]
    pub fn active(&self) -> usize {
        self.jobs.len()
    }

    /// Mutation counter. Bumped by [`insert`](Self::insert) and
    /// [`complete_next`](Self::complete_next); owners stamp scheduled
    /// completion events with it and drop events whose stamp is stale.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.anchor, "time went backwards");
        if now > self.anchor {
            let dt = (now - self.anchor).as_nanos_f64();
            self.vnow += self.per_job_rate * dt;
            self.anchor = now;
        }
    }

    fn refresh_rate(&mut self) {
        let n = self.jobs.len();
        self.per_job_rate = if n == 0 {
            0.0
        } else {
            let cap = (self.capacity)(n);
            assert!(
                cap.is_finite() && cap >= 0.0,
                "capacity({n}) must be finite and non-negative, got {cap}"
            );
            cap / n as f64
        };
    }

    /// Starts a job with `work > 0` units at real time `now`.
    ///
    /// # Panics
    /// Panics if `work` is not strictly positive and finite, or if `now`
    /// precedes a previously observed instant.
    pub fn insert(&mut self, now: SimTime, work: f64) -> JobId {
        assert!(
            work.is_finite() && work > 0.0,
            "job work must be positive and finite, got {work}"
        );
        self.advance_to(now);
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.push((VirtualInstant(self.vnow + work), id));
        self.refresh_rate();
        self.generation += 1;
        id
    }

    /// Real instant at which the earliest job will complete, given no
    /// further insertions. `None` if idle; `SimTime::MAX` if capacity is
    /// currently zero (starved).
    pub fn next_completion(&self) -> Option<SimTime> {
        let &(VirtualInstant(finish_v), _) = self.jobs.peek()?;
        if self.per_job_rate <= 0.0 {
            return Some(SimTime::MAX);
        }
        let remaining_v = (finish_v - self.vnow).max(0.0);
        let dt_ns = remaining_v / self.per_job_rate;
        Some(self.anchor + SimTime::from_nanos_f64(dt_ns))
    }

    /// Completes the earliest-finishing job at real time `now` (which must
    /// be at or after [`next_completion`](Self::next_completion), typically
    /// exactly the scheduled instant). Returns its id.
    ///
    /// # Panics
    /// Panics if the resource is idle.
    pub fn complete_next(&mut self, now: SimTime) -> JobId {
        self.advance_to(now);
        let (VirtualInstant(finish_v), id) =
            self.jobs.pop().expect("complete_next on idle resource");
        // Nanosecond rounding can leave vnow marginally short of finish_v;
        // snap forward so later jobs are not credited phantom work.
        if finish_v > self.vnow {
            debug_assert!(
                finish_v - self.vnow <= self.per_job_rate.max(1.0),
                "completion fired too early: deficit {} at rate {}",
                finish_v - self.vnow,
                self.per_job_rate
            );
            self.vnow = finish_v;
        }
        self.refresh_rate();
        self.generation += 1;
        id
    }

    /// Drains every remaining job in completion order, returning
    /// `(completion time, id)` pairs. Useful for closed workloads where no
    /// further arrivals occur.
    pub fn drain(&mut self) -> Vec<(SimTime, JobId)> {
        let mut out = Vec::with_capacity(self.jobs.len());
        while let Some(at) = self.next_completion() {
            assert!(at < SimTime::MAX, "drain would never finish: zero capacity");
            let id = self.complete_next(at);
            out.push((at, id));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    #[test]
    fn single_job_constant_capacity() {
        let mut ps = PsResource::with_constant_capacity(2.0); // 2 units/ns
        ps.insert(ns(0), 100.0);
        assert_eq!(ps.next_completion(), Some(ns(50)));
        let id = ps.complete_next(ns(50));
        assert_eq!(id, JobId(0));
        assert_eq!(ps.active(), 0);
        assert_eq!(ps.next_completion(), None);
    }

    #[test]
    fn equal_jobs_share_equally() {
        // 4 jobs of 100 units on capacity 1.0: each runs at 0.25/ns, all
        // finish together at t=400.
        let mut ps = PsResource::with_constant_capacity(1.0);
        for _ in 0..4 {
            ps.insert(ns(0), 100.0);
        }
        let done = ps.drain();
        assert_eq!(done.len(), 4);
        for &(at, _) in &done {
            assert_eq!(at, ns(400));
        }
    }

    #[test]
    fn late_arrival_slows_existing_job() {
        // Job A (work 100) alone on capacity 1.0 from t=0; at t=50 job B
        // (work 100) arrives. From t=50 each runs at 0.5/ns. A has 50 left
        // -> completes at t=150. B completes at... after A leaves, B runs
        // alone at 1.0 with 50 left -> t=200.
        let mut ps = PsResource::with_constant_capacity(1.0);
        let a = ps.insert(ns(0), 100.0);
        let b = ps.insert(ns(50), 100.0);
        let done = ps.drain();
        assert_eq!(done, vec![(ns(150), a), (ns(200), b)]);
    }

    #[test]
    fn load_dependent_capacity_knee() {
        // Capacity saturates at 2 jobs: C(1)=1, C(n>=2)=2. Two jobs of 100
        // inserted together each see rate 1.0 -> both done at t=100.
        let mut ps = PsResource::new(|n| if n >= 2 { 2.0 } else { 1.0 });
        ps.insert(ns(0), 100.0);
        ps.insert(ns(0), 100.0);
        let done = ps.drain();
        assert!(done.iter().all(|&(at, _)| at == ns(100)));
    }

    #[test]
    fn contention_degrades_capacity() {
        // Oversubscription curve: C(1)=2, C(2)=1. A lone job of 200 takes
        // 100ns; two jobs of 200 each take 400ns (rate 0.5 each) — slower
        // than running them back-to-back (200ns). This inversion is the
        // mechanism behind the paper's Figure 11.
        let mut solo = PsResource::new(|n| if n == 1 { 2.0 } else { 1.0 });
        solo.insert(ns(0), 200.0);
        assert_eq!(solo.drain()[0].0, ns(100));

        let mut pair = PsResource::new(|n| if n == 1 { 2.0 } else { 1.0 });
        pair.insert(ns(0), 200.0);
        pair.insert(ns(0), 200.0);
        let done = pair.drain();
        // Both share rate 0.5 until one "wins" the tie at v=200 (t=400ns),
        // then the other finishes instantly after (same virtual instant).
        assert_eq!(done[0].0, ns(400));
        assert_eq!(done[1].0, ns(400));
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let mut ps = PsResource::with_constant_capacity(1.0);
        let g0 = ps.generation();
        ps.insert(ns(0), 10.0);
        assert!(ps.generation() > g0);
        let g1 = ps.generation();
        ps.complete_next(ns(10));
        assert!(ps.generation() > g1);
    }

    #[test]
    fn zero_capacity_reports_starvation() {
        let mut ps = PsResource::with_constant_capacity(0.0);
        ps.insert(ns(0), 10.0);
        assert_eq!(ps.next_completion(), Some(SimTime::MAX));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_work() {
        let mut ps = PsResource::with_constant_capacity(1.0);
        ps.insert(ns(0), 0.0);
    }

    #[test]
    fn completion_order_matches_remaining_work() {
        // Shorter jobs inserted at the same instant complete first.
        let mut ps = PsResource::with_constant_capacity(1.0);
        let long = ps.insert(ns(0), 300.0);
        let short = ps.insert(ns(0), 100.0);
        let done = ps.drain();
        assert_eq!(done[0].1, short);
        assert_eq!(done[1].1, long);
        // short: shares 0.5 until v=100 at t=200; long then alone:
        // 200 units left at rate 1.0 -> t=400.
        assert_eq!(done[0].0, ns(200));
        assert_eq!(done[1].0, ns(400));
    }

    /// Brute-force reference: advance in tiny steps, splitting capacity
    /// evenly, and compare completion times against the virtual-time
    /// implementation.
    #[test]
    fn matches_brute_force_reference() {
        let works = [120.0, 37.0, 255.0, 64.0, 64.0, 511.0];
        let arrivals = [0u64, 0, 10, 25, 25, 300];
        let cap = |n: usize| match n {
            0 => 0.0,
            1 => 1.0,
            2 => 1.8,
            3 => 2.4,
            _ => 2.5,
        };

        // Virtual-time implementation.
        let mut ps = PsResource::new(cap);
        let mut completions = vec![None; works.len()];
        let mut inserted = 0usize;
        let mut id_map = std::collections::HashMap::new();
        loop {
            let next_arrival = (inserted < works.len()).then(|| ns(arrivals[inserted]));
            let next_done = ps.next_completion();
            match (next_arrival, next_done) {
                (Some(a), Some(d)) if a <= d => {
                    let id = ps.insert(a, works[inserted]);
                    id_map.insert(id, inserted);
                    inserted += 1;
                }
                (Some(a), None) => {
                    let id = ps.insert(a, works[inserted]);
                    id_map.insert(id, inserted);
                    inserted += 1;
                }
                (_, Some(d)) => {
                    let id = ps.complete_next(d);
                    completions[id_map[&id]] = Some(d);
                }
                (None, None) => break,
            }
        }

        // Brute force with 1ns steps (all arrivals are integral ns).
        let mut remaining: Vec<f64> = works.to_vec();
        let mut done_at = vec![None; works.len()];
        let mut t = 0u64;
        while done_at.iter().any(|d| d.is_none()) {
            let active: Vec<usize> = (0..works.len())
                .filter(|&i| arrivals[i] <= t && done_at[i].is_none())
                .collect();
            if !active.is_empty() {
                let rate = cap(active.len()) / active.len() as f64;
                for &i in &active {
                    remaining[i] -= rate;
                    if remaining[i] <= 1e-9 {
                        done_at[i] = Some(t + 1);
                    }
                }
            }
            t += 1;
            assert!(t < 10_000_000, "brute force runaway");
        }

        for i in 0..works.len() {
            let got = completions[i].unwrap().as_nanos();
            let want = done_at[i].unwrap();
            let diff = got.abs_diff(want);
            assert!(
                diff <= 2,
                "job {i}: virtual-time {got}ns vs brute-force {want}ns"
            );
        }
    }
}
