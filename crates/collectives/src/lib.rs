//! `fcc-collectives` — host-initiated collective communication, the
//! RCCL-style baseline the paper compares against.
//!
//! The baseline is "embedding kernels + All-to-All at the kernel
//! boundary", and the fused operator's degrade path is the same bulk
//! exchange, so the crate holds one collective, seen three ways:
//!
//! * [`functional`] — real data movement over `fcc-shmem` PEs: pairwise
//!   All-to-All with counter-flag completion, exercised for real on
//!   threads. The resilient operator's fallback and the serving
//!   frontend's bulk path run it.
//! * [`baseline`] — the *timing* of the bulk-synchronous baseline: kernel
//!   boundary → stream sync → CPU triggers the collective → wire time from
//!   `fcc-net`'s analytic models, or a shared NIC's serialization → sync
//!   back. This is the denominator of
//!   every normalized figure in the paper; it also prices the AllReduce
//!   of the scale-out training pass.
//! * [`reference`](mod@reference) — the sequential All-to-All oracle used
//!   by tests across the workspace.
//!
//! Other collectives are priced only as closed forms in
//! `fcc_net::analytic`.

pub mod baseline;
pub mod functional;
pub mod reference;

pub use baseline::BaselineCosts;
pub use functional::AllToAllPlan;
