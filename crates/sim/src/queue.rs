//! The simulators' one event list: a min-queue that is a FIFO while keys
//! arrive in order.
//!
//! Processor-sharing jobs of equal work finish in the order they started,
//! so the fused simulator's job and resume keys mostly arrive at or after
//! the last key pushed. [`MinQueue`] keeps such a run in a `VecDeque`
//! (push and pop `O(1)`) and only the keys that arrive below the run's
//! back in a binary heap (`O(log n)`). `pop` takes the smaller of the two
//! heads. Where most keys arrive out of order, as in the packet fabric's
//! event list, it costs what a heap does.
//!
//! Both sides are sorted by the same total order, so the smaller head is
//! the global minimum: the queue pops exactly the sequence a
//! `BinaryHeap<Reverse<K>>` pops, as long as no two keys compare equal
//! (every caller's key ends in a unique id or sequence number). Which side
//! a key joins depends only on the order keys arrive in.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A min-priority queue, `O(1)` per key pushed in nondecreasing order.
///
/// ```
/// use fcc_sim::MinQueue;
///
/// let mut q = MinQueue::new();
/// for k in [1, 3, 5, 2, 4] {
///     q.push(k);
/// }
/// let popped: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(popped, [1, 2, 3, 4, 5]);
/// ```
#[derive(Debug)]
pub struct MinQueue<K> {
    /// Keys pushed in nondecreasing order.
    run: VecDeque<K>,
    /// Keys that arrived below `run`'s back.
    heap: BinaryHeap<Reverse<K>>,
}

impl<K: Ord> Default for MinQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord> MinQueue<K> {
    /// An empty queue.
    pub fn new() -> Self {
        MinQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Queues `key`.
    #[inline]
    pub fn push(&mut self, key: K) {
        match self.run.back() {
            Some(back) if key < *back => self.heap.push(Reverse(key)),
            _ => self.run.push_back(key),
        }
    }

    /// Whether the heap's head is the minimum (`false` if the heap is
    /// empty).
    #[inline]
    fn heap_first(&self) -> bool {
        match self.heap.peek() {
            Some(Reverse(h)) => self.run.front().is_none_or(|r| h < r),
            None => false,
        }
    }

    /// The smallest key, if any.
    #[inline]
    pub fn peek(&self) -> Option<&K> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(k)| k)
        } else {
            self.run.front()
        }
    }

    /// Removes and returns the smallest key, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<K> {
        if self.heap_first() {
            self.heap.pop().map(|Reverse(k)| k)
        } else {
            self.run.pop_front()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_keys_never_touch_the_heap() {
        let mut q = MinQueue::new();
        for k in 0..100 {
            q.push(k);
        }
        assert!(q.heap.is_empty());
        assert_eq!(q.len(), 100);
        assert_eq!(q.peek(), Some(&0));
    }

    #[test]
    fn a_back_step_goes_to_the_heap_and_pops_first() {
        let mut q = MinQueue::new();
        q.push(10);
        q.push(20);
        q.push(5);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), Some(10));
        q.push(15); // below the run's back (20): heap again
        assert_eq!(q.pop(), Some(15));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
