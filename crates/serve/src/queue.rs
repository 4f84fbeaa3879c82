//! Bounded admission queue — the first rung of the ladder.
//!
//! Overloaded queues are where serving systems die: an unbounded queue
//! converts excess load into unbounded latency, so by the time requests
//! reach the executor their deadlines are long gone and the system does
//! 100% work for 0% goodput. The fix is a hard bound with explicit
//! backpressure: admission either succeeds or fails *at arrival*, and a
//! failure is an immediate, cheap, attributable response.

use std::collections::VecDeque;

use crate::request::Request;

/// FIFO admission queue with a hard capacity.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    inner: VecDeque<Request>,
    capacity: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` waiting requests.
    ///
    /// # Panics
    /// Panics on zero capacity (a queue that admits nothing serves
    /// nothing).
    pub fn new(capacity: usize) -> AdmissionQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            inner: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Admits `req`, or returns it when the queue is full (backpressure —
    /// the caller must answer the request, not drop it).
    pub fn try_admit(&mut self, req: Request) -> Result<(), Request> {
        if self.inner.len() >= self.capacity {
            return Err(req);
        }
        self.inner.push_back(req);
        Ok(())
    }

    /// Waiting requests.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Hard bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupancy in `[0, 1]` — the saturation signal fed to the degrade
    /// controller.
    pub fn occupancy(&self) -> f64 {
        self.inner.len() as f64 / self.capacity as f64
    }

    /// Arrival time of the oldest waiting request.
    pub fn oldest_arrival_us(&self) -> Option<u64> {
        self.inner.front().map(|r| r.arrival_us)
    }

    /// Earliest absolute deadline over everything waiting.
    pub fn tightest_deadline_us(&self) -> Option<u64> {
        self.inner.iter().map(|r| r.deadline_us).min()
    }

    /// Removes and returns every waiting request that fails `keep` —
    /// order-preserving for the survivors.
    pub fn drain_failing(&mut self, keep: impl Fn(&Request) -> bool) -> Vec<Request> {
        let mut removed = Vec::new();
        let mut kept = VecDeque::with_capacity(self.inner.len());
        for req in self.inner.drain(..) {
            if keep(&req) {
                kept.push_back(req);
            } else {
                removed.push(req);
            }
        }
        self.inner = kept;
        removed
    }

    /// Queue-order view of the waiting requests.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.inner.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn req(id: u64, arrival: u64, deadline: u64) -> Request {
        Request {
            id,
            user: id,
            arrival_us: arrival,
            deadline_us: deadline,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn admits_until_full_then_backpressures() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.try_admit(req(0, 0, 10)).is_ok());
        assert!(q.try_admit(req(1, 1, 11)).is_ok());
        let bounced = q.try_admit(req(2, 2, 12)).unwrap_err();
        assert_eq!(bounced.id, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.occupancy(), 1.0);
    }

    #[test]
    fn oldest_and_tightest_track_contents() {
        let mut q = AdmissionQueue::new(8);
        q.try_admit(req(0, 5, 100)).unwrap();
        q.try_admit(req(1, 7, 40)).unwrap();
        assert_eq!(q.oldest_arrival_us(), Some(5));
        assert_eq!(q.tightest_deadline_us(), Some(40));
    }

    #[test]
    fn drain_failing_partitions_in_order() {
        let mut q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_admit(req(i, i, 100 + i)).unwrap();
        }
        let removed = q.drain_failing(|r| r.id % 2 == 0);
        assert_eq!(removed.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(q.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        AdmissionQueue::new(0);
    }
}
