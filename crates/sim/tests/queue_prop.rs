//! Property tests for [`fcc_sim::MinQueue`]: under any interleaving of
//! pushes and pops it pops exactly what a `BinaryHeap<Reverse<_>>` pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use proptest::prelude::*;

use fcc_sim::MinQueue;

/// Replays `ops` on a `MinQueue` and a binary heap side by side and
/// returns both pop sequences. An op `(kind, d)` pushes the key of value
/// `last + d` (a monotone run; `d = 0` is an exact tie) for kinds 0–3,
/// pushes `last - 1 - d` (a step below the run's back) for kind 4, pops
/// one key for kinds 5–6 and drains both queues for kind 7; both are
/// drained at the end. `key` turns the `n`-th pushed value into a key.
fn replay<K: Ord + Clone + Debug>(
    ops: &[(u8, i64)],
    mut key: impl FnMut(i64, usize) -> K,
) -> (Vec<K>, Vec<K>) {
    let mut q = MinQueue::new();
    let mut heap = BinaryHeap::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut last, mut pushed) = (0i64, 0usize);
    let mut pop = |q: &mut MinQueue<K>, heap: &mut BinaryHeap<Reverse<K>>| {
        got.extend(q.pop());
        want.extend(heap.pop().map(|Reverse(k)| k));
    };
    for &(kind, d) in ops {
        match kind {
            0..=4 => {
                last = if kind == 4 { last - 1 - d } else { last + d };
                let k = key(last, pushed);
                pushed += 1;
                q.push(k.clone());
                heap.push(Reverse(k));
            }
            5 | 6 => pop(&mut q, &mut heap),
            _ => {
                while !heap.is_empty() {
                    pop(&mut q, &mut heap);
                }
            }
        }
        assert_eq!(q.len(), heap.len());
        assert_eq!(q.peek(), heap.peek().map(|Reverse(k)| k));
    }
    while !heap.is_empty() {
        pop(&mut q, &mut heap);
    }
    assert!(q.is_empty() && q.pop().is_none());
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys made unique by their push order, as every simulator key is.
    #[test]
    fn pops_what_a_binary_heap_pops(ops in prop::collection::vec((0u8..8, 0i64..6), 0..300)) {
        let (got, want) = replay(&ops, |v, n| (v, n));
        prop_assert_eq!(got, want);
    }

    /// Bare values, so equal keys really are equal.
    #[test]
    fn pops_what_a_binary_heap_pops_with_duplicate_keys(
        ops in prop::collection::vec((0u8..8, 0i64..3), 0..300),
    ) {
        let (got, want) = replay(&ops, |v, _| v);
        prop_assert_eq!(got, want);
    }
}
