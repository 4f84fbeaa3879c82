//! Pairwise All-to-All over the SHMEM runtime.
//!
//! Each PE writes its chunk for peer `p` directly into `p`'s destination
//! buffer at the position reserved for this sender, fences, and bumps the
//! peer's arrival counter. Receivers wait for `n` arrivals. The counter is
//! monotonic so the plan can be executed repeatedly (round `r` waits for
//! `r × n`), with no reset step — the same trick the paper's `sliceRdy`
//! flags play per-slice.

use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, Pod, SymFlags, SymSlice};

/// A reusable All-to-All over `n_pes` PEs exchanging `per_pair` elements
/// per ordered pair.
///
/// ```
/// use fcc_collectives::functional::AllToAllPlan;
/// use fcc_shmem::{heap::HeapLayout, ShmemWorld};
///
/// let mut layout = HeapLayout::new();
/// let plan = AllToAllPlan::<u64>::plan(&mut layout, 2, 2);
/// let mut world = ShmemWorld::new(2, layout);
/// world.write(0, plan.src, 0, &[1, 2, 3, 4]);
/// world.write(1, plan.src, 0, &[5, 6, 7, 8]);
/// world.run(|ctx| plan.execute(ctx, 1));
/// assert_eq!(world.read(0, plan.dst), vec![1, 2, 5, 6]);
/// assert_eq!(world.read(1, plan.dst), vec![3, 4, 7, 8]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AllToAllPlan<T> {
    /// Send buffer: `n_pes × per_pair` elements, chunk `p` destined to PE
    /// `p`.
    pub src: SymSlice<T>,
    /// Receive buffer: `n_pes × per_pair` elements, chunk `s` arriving
    /// from PE `s`.
    pub dst: SymSlice<T>,
    arrivals: SymFlags,
    per_pair: usize,
    n_pes: usize,
}

impl<T: Pod> AllToAllPlan<T> {
    /// Allocates buffers and flags in `layout`.
    pub fn plan(layout: &mut HeapLayout, n_pes: usize, per_pair: usize) -> Self {
        AllToAllPlan {
            src: layout.alloc::<T>(n_pes * per_pair),
            dst: layout.alloc::<T>(n_pes * per_pair),
            arrivals: layout.alloc_flags(1),
            per_pair,
            n_pes,
        }
    }

    /// Elements per ordered pair.
    pub fn per_pair(&self) -> usize {
        self.per_pair
    }

    /// Executes round `round` (1-based) of the exchange on the calling PE.
    /// All PEs must call with the same round number, in order.
    pub fn execute(&self, ctx: &PeCtx<'_>, round: u64) {
        assert!(round >= 1, "rounds are 1-based");
        assert_eq!(ctx.n_pes(), self.n_pes, "plan/world size mismatch");
        let me = ctx.me();

        // Stage my send buffer out of the symmetric heap (models the GPU
        // reading its local output tensor).
        let mut staged = vec![unsafe { std::mem::zeroed() }; self.n_pes * self.per_pair];
        ctx.get(&mut staged, self.src, 0, me);

        // Scatter: my chunk for peer p lands at p's dst[me * per_pair..].
        for p in 0..self.n_pes {
            let chunk = &staged[p * self.per_pair..(p + 1) * self.per_pair];
            ctx.put(self.dst, me * self.per_pair, chunk, p);
            ctx.fence();
            ctx.flag_fetch_add(self.arrivals, 0, 1, p);
        }

        // Gather completion: n arrivals per round, counter is monotonic.
        let target = round * self.n_pes as u64;
        ctx.wait_until(self.arrivals, 0, |v| v >= target);
    }
}

#[cfg(test)]
// Indexing several parallel collections by PE reads clearer than nested
// iterator adaptors in these comparisons.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::reference;
    use fcc_shmem::ShmemWorld;

    fn run_alltoall(n_pes: usize, per_pair: usize, rounds: u64) {
        let mut layout = HeapLayout::new();
        let plan = AllToAllPlan::<u64>::plan(&mut layout, n_pes, per_pair);
        let mut world = ShmemWorld::new(n_pes, layout);

        for round in 1..=rounds {
            // Seed inputs: value encodes (round, src, position).
            let inputs: Vec<Vec<u64>> = (0..n_pes)
                .map(|pe| {
                    (0..n_pes * per_pair)
                        .map(|i| round * 1_000_000 + (pe as u64) * 1_000 + i as u64)
                        .collect()
                })
                .collect();
            for (pe, input) in inputs.iter().enumerate() {
                world.write(pe, plan.src, 0, input);
            }

            world.run(|ctx| plan.execute(ctx, round));

            let expect = reference::alltoall(&inputs, per_pair);
            for pe in 0..n_pes {
                assert_eq!(
                    world.read(pe, plan.dst),
                    expect[pe],
                    "PE {pe}, round {round}"
                );
            }
        }
    }

    #[test]
    fn alltoall_two_pes() {
        run_alltoall(2, 4, 1);
    }

    #[test]
    fn alltoall_four_pes() {
        run_alltoall(4, 8, 1);
    }

    #[test]
    fn alltoall_eight_pes_small_chunks() {
        run_alltoall(8, 1, 1);
    }

    #[test]
    fn alltoall_single_pe_is_local_copy() {
        run_alltoall(1, 16, 1);
    }

    #[test]
    fn alltoall_reusable_across_rounds() {
        run_alltoall(4, 4, 5);
    }

    #[test]
    fn alltoall_f32_payload() {
        let n = 4;
        let per = 8;
        let mut layout = HeapLayout::new();
        let plan = AllToAllPlan::<f32>::plan(&mut layout, n, per);
        let mut world = ShmemWorld::new(n, layout);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|pe| (0..n * per).map(|i| (pe * 100 + i) as f32 * 0.5).collect())
            .collect();
        for (pe, input) in inputs.iter().enumerate() {
            world.write(pe, plan.src, 0, input);
        }
        world.run(|ctx| plan.execute(ctx, 1));
        let expect = reference::alltoall(&inputs, per);
        for pe in 0..n {
            assert_eq!(world.read(pe, plan.dst), expect[pe]);
        }
    }
}
