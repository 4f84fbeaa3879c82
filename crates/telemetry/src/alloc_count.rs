//! The counting global allocator behind every allocation-discipline
//! check in the workspace (zero-alloc data plane, flight recorder, steal
//! scheduler, flow fabric, fused operator).
//!
//! A test or bench binary installs it —
//!
//! ```ignore
//! #[global_allocator]
//! static COUNTER: fcc_telemetry::alloc_count::CountingAlloc =
//!     fcc_telemetry::alloc_count::CountingAlloc;
//! ```
//!
//! — and brackets the code under test with [`allocs_during`]. The counter
//! is process-global, so a measurement shares its `#[test]` with nothing
//! that allocates concurrently. Without the `#[global_allocator]` line
//! nothing is counted and every reading is zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every `alloc` and `realloc`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and reallocations counted so far, on every thread.
fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `f` and returns how many allocations happened meanwhile, with
/// its result.
pub fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}
