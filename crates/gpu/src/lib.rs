//! `fcc-gpu` — workgroup-level GPU timing model.
//!
//! The paper runs its kernels on AMD Instinct™ MI210 GPUs. A Rust
//! reproduction cannot execute HIP kernels, but every effect the paper
//! measures — occupancy limits from register/LDS pressure, the
//! parallelism-vs-memory-contention trade-off (Fig. 11), persistent-kernel
//! task loops, kernel-launch overhead amortization — is a *workgroup
//! scheduling and bandwidth* phenomenon. This crate models exactly that
//! level:
//!
//! * [`config::GpuConfig`] — CU count, SIMDs, wavefronts, register file,
//!   LDS, and an HBM [`config::BandwidthCurve`] with a saturation knee and a
//!   contention roll-off.
//! * [`occupancy`] — the HIP-occupancy-API equivalent: how many workgroups
//!   of a kernel fit per CU given its resource footprint.
//! * [`kernel`] — kernel descriptors: resource footprint plus a work shape
//!   (memory-bound task lists for embedding pooling; FLOP-bound for MLPs).
//! * [`exec`] — the executor. Ordinary grid kernels and persistent-thread
//!   kernels both reduce to "N concurrent workgroups sharing `eff_bw(n)`
//!   while a task queue drains", evaluated exactly with the
//!   processor-sharing resource from `fcc-sim`.

pub mod config;
pub mod exec;
pub mod kernel;
pub mod occupancy;

pub use config::{BandwidthCurve, GpuConfig};
pub use exec::{PersistentExec, TaskCompletion, WgPlan};
pub use kernel::{KernelDesc, KernelResources, WorkShape};
pub use occupancy::Occupancy;
