//! `fcc-sim` — deterministic discrete-event simulation substrate.
//!
//! This crate provides the timing machinery shared by the GPU model
//! (`fcc-gpu`) and the network model (`fcc-net`):
//!
//! * [`time::SimTime`] — nanosecond-resolution simulated clock.
//! * [`engine`] — a minimal, allocation-light event engine. Models define an
//!   event enum and a [`engine::Model::handle`] method; the engine owns the
//!   priority queue and guarantees deterministic FIFO ordering among events
//!   scheduled for the same instant.
//! * [`ps`] — a *processor-sharing* resource: `n` concurrent jobs share an
//!   aggregate capacity `C(n)` that may itself depend on `n` (bandwidth
//!   saturation and contention curves). Completions are computed with the
//!   virtual-time technique so each insert/complete costs `O(1)` while
//!   finish keys arrive in order and `O(log n)` otherwise, regardless of
//!   how many jobs are in flight.
//! * [`queue::MinQueue`] — the one event list behind the engine, the
//!   processor-sharing resource and the GPU executor: a FIFO while keys
//!   arrive in order, a heap for the keys that do not.
//! * [`stats`] — small summary-statistics helpers for the benchmark harness.
//! * [`splitmix64`] — the one seeded 64-bit mixer behind every
//!   deterministic hash and random stream in the workspace.
//!
//! Everything here is deterministic: no wall-clock, no global state, and all
//! randomness is injected by callers through seeded RNGs. Timed traces are
//! recorded in `fcc-telemetry`'s trace sink.

pub mod engine;
pub mod ps;
pub mod queue;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model, Scheduler};
pub use ps::{JobId, PsResource};
pub use queue::MinQueue;
pub use time::SimTime;

/// SplitMix64: advances `state` by the golden-ratio increment and returns
/// the new state mixed. A seeded stream calls it on its state; a hash
/// calls it on a copy of its input and drops the copy.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
