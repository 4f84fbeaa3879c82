//! `fcc-core` — fused computation-collective operators.
//!
//! This crate is the paper's primary contribution, reproduced in Rust:
//! fusing a producer computation (DLRM embedding-bag pooling) with its
//! dependent collective (All-to-All) inside one persistent kernel, and
//! overlapping them at *slice* granularity through GPU-initiated
//! networking.
//!
//! The pieces, mirroring §3 of the paper:
//!
//! * [`slice`](mod@slice) — the slice partition of the embedding output and the
//!   paper's `{local batch, tables × dim}` destination layout.
//! * [`schedule`] — communication-aware vs. communication-oblivious
//!   logical-WG ordering, and work stealing over persistent WGs.
//! * [`progress`] — the recovery policy/counters of the fault-tolerant
//!   path.
//! * [`op`] — **functional** operators over the `fcc-shmem` runtime. One
//!   protocol core (the `WG_Done` last-finisher election, staging + slice
//!   PUT + `sliceRdy` flags, with the zero-copy store path for P2P peers,
//!   whose per-item step the timed simulator runs too) carries
//!   [`op::FusedPlan`] (on an all-P2P node, the zero-copy operator), the
//!   producer-generic [`op::GenericFusedPlan`] and
//!   [`op::ResilientFusedPlan`], which adds timeout + bounded-retry
//!   recovery and a degraded-mode fallback to the bulk All-to-All under
//!   injected faults. All are tested bit-for-bit against the unfused
//!   `embedding → All-to-All` reference.
//! * [`sim`] — **timed** simulations of the same designs on the GPU and
//!   NIC models, which regenerate the paper's Figures 9–14; the fused
//!   kernel is priced by stepping the functional operators' protocol.
//! * [`ext`] — §3.5 generality on the same core: fused `AllGather + GEMM`
//!   (fully sharded data parallelism), fused `All-to-All + expert` (MoE)
//!   and the fused backward gradient return + embedding update, each a
//!   row-copy producer whose dependent computation consumes rows on
//!   arrival.
//! * [`tune`] — the online telemetry-driven auto-tuner closing the loop
//!   over slice width, QP count, and WG occupancy.

pub mod ext;
pub mod op;
pub mod progress;
pub mod schedule;
pub mod scratch;
pub mod sim;
pub mod slice;
pub mod team;
pub mod tune;

pub use op::{
    ElasticFusedPlan, ElasticTrainer, FusedPlan, PeOutcome, ResilientFusedPlan, TrainerConfig,
    TrainerReport,
};
pub use progress::{RecoveryCounters, RecoveryPolicy, RecoverySnapshot};
pub use schedule::steal::{StealArena, StealBug, StealMode, StealPolicy, StealStats};
pub use schedule::ScheduleKind;
pub use scratch::{Workspace, WorkspaceGuard, Workspaces};
pub use sim::fused::{simulate_fused, FusedParams, FusedResult, SkewSpec, WgSchedule};
pub use sim::FusedTuning;
pub use slice::{SliceInfo, SliceMap};
pub use team::{RecoveryBoard, TeamView};
pub use tune::{tune_fused, AutoTuner, Knobs, TuneOutcome, TunerSignals};
