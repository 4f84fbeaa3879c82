//! Continuous-batching close policy: size- and deadline-triggered.
//!
//! A batch closes for one of three reasons, checked in this order:
//!
//! * **Size** — the queue holds a full batch; waiting longer adds delay
//!   and nothing else.
//! * **Deadline** — the tightest deadline in the queue is about to become
//!   infeasible: closing any later than `deadline - floor - margin`
//!   would leave less than one measured execution of budget, so the
//!   request would have to be shed. This is deadline *propagation*: the
//!   per-request SLO reaches back into the batching decision.
//! * **Age** — the oldest request has waited `max_wait_us` (shrunk by the
//!   degrade ladder's
//!   [`wait_divisor`](crate::degrade::DegradeLevel::wait_divisor));
//!   bounded staleness under trickle load.
//!
//! The decision function is pure — `(queue summary, now, floor, level)`
//! in, close-now-or-wait-until out — which is what makes the batch-close
//! boundary properties directly proptestable.

use crate::degrade::DegradeLevel;
use crate::queue::AdmissionQueue;

/// Why a batch closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseTrigger {
    /// A full batch was waiting.
    Size,
    /// The tightest deadline in the queue forced the close.
    Deadline,
    /// The oldest request aged out of the batching window.
    Age,
}

/// Close thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Requests per batch the executor is shaped for.
    pub target_batch: usize,
    /// Maximum time the oldest request may wait before the batch closes,
    /// µs (at [`DegradeLevel::Normal`]; higher rungs divide it).
    pub max_wait_us: u64,
    /// Safety margin subtracted on top of the execution floor when
    /// computing the latest feasible close for a deadline, µs.
    pub close_margin_us: u64,
}

impl BatchPolicy {
    /// The batching window at `level`.
    fn effective_wait_us(&self, level: DegradeLevel) -> u64 {
        (self.max_wait_us / level.wait_divisor()).max(1)
    }
}

/// Outcome of one close decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseDecision {
    /// Close immediately with this trigger.
    Now(CloseTrigger),
    /// Nothing forces a close before this time, µs.
    WaitUntil(u64),
}

/// The close decision for a non-empty queue at `now`, given the measured
/// execution floor.
///
/// # Panics
/// Panics on an empty queue — there is nothing to decide.
pub fn close_decision(
    queue: &AdmissionQueue,
    now: u64,
    floor_us: u64,
    policy: &BatchPolicy,
    level: DegradeLevel,
) -> CloseDecision {
    assert!(!queue.is_empty(), "close decision needs a non-empty queue");
    if queue.len() >= policy.target_batch {
        return CloseDecision::Now(CloseTrigger::Size);
    }
    let oldest = queue.oldest_arrival_us().expect("non-empty");
    let tightest = queue.tightest_deadline_us().expect("non-empty");
    let age_close = oldest.saturating_add(policy.effective_wait_us(level));
    // Latest close that still leaves floor + margin of budget for the
    // tightest request. Saturates to "close now" when already infeasible
    // — the close path will shed it as hopeless.
    let deadline_close = tightest.saturating_sub(floor_us + policy.close_margin_us);
    let at = age_close.min(deadline_close);
    if at <= now {
        if deadline_close <= age_close {
            CloseDecision::Now(CloseTrigger::Deadline)
        } else {
            CloseDecision::Now(CloseTrigger::Age)
        }
    } else {
        CloseDecision::WaitUntil(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, Request};

    fn policy() -> BatchPolicy {
        BatchPolicy {
            target_batch: 4,
            max_wait_us: 1000,
            close_margin_us: 50,
        }
    }

    fn queue_with(reqs: &[(u64, u64, u64)]) -> AdmissionQueue {
        // (id, arrival, deadline)
        let mut q = AdmissionQueue::new(64);
        for &(id, arrival, deadline) in reqs {
            q.try_admit(Request {
                id,
                user: id,
                arrival_us: arrival,
                deadline_us: deadline,
                priority: Priority::Normal,
            })
            .unwrap();
        }
        q
    }

    #[test]
    fn full_batch_closes_on_size() {
        let q = queue_with(&[(0, 0, 9000), (1, 1, 9000), (2, 2, 9000), (3, 3, 9000)]);
        assert_eq!(
            close_decision(&q, 3, 100, &policy(), DegradeLevel::Normal),
            CloseDecision::Now(CloseTrigger::Size)
        );
    }

    #[test]
    fn partial_batch_waits_until_age_bound() {
        let q = queue_with(&[(0, 100, 99_000)]);
        // Oldest arrived at 100, window 1000 -> forced at 1100; deadline
        // bound is far away.
        assert_eq!(
            close_decision(&q, 150, 100, &policy(), DegradeLevel::Normal),
            CloseDecision::WaitUntil(1100)
        );
        assert_eq!(
            close_decision(&q, 1100, 100, &policy(), DegradeLevel::Normal),
            CloseDecision::Now(CloseTrigger::Age)
        );
    }

    #[test]
    fn tight_deadline_forces_early_close() {
        // Deadline 600, floor 100, margin 50 -> latest feasible close 450,
        // well before the age bound of 1100.
        let q = queue_with(&[(0, 100, 600)]);
        assert_eq!(
            close_decision(&q, 150, 100, &policy(), DegradeLevel::Normal),
            CloseDecision::WaitUntil(450)
        );
        assert_eq!(
            close_decision(&q, 450, 100, &policy(), DegradeLevel::Normal),
            CloseDecision::Now(CloseTrigger::Deadline)
        );
    }

    #[test]
    fn infeasible_deadline_closes_immediately() {
        // Remaining budget already below floor: close now, the shed path
        // handles the hopeless request.
        let q = queue_with(&[(0, 100, 220)]);
        assert_eq!(
            close_decision(&q, 200, 100, &policy(), DegradeLevel::Normal),
            CloseDecision::Now(CloseTrigger::Deadline)
        );
    }

    #[test]
    fn degraded_level_shrinks_the_window() {
        let q = queue_with(&[(0, 100, 99_000)]);
        // Window 1000/4 = 250 -> forced at 350.
        assert_eq!(
            close_decision(&q, 150, 100, &policy(), DegradeLevel::TightDeadline),
            CloseDecision::WaitUntil(350)
        );
    }
}
