//! `fcc-shmem` — a GPU-initiated-communication runtime in the style of
//! ROC_SHMEM / NVSHMEM / OpenSHMEM.
//!
//! The paper issues network operations from *inside* a GPU kernel through
//! ROC_SHMEM: a symmetric heap is allocated on every processing element
//! (PE), workgroups post non-blocking `PUT`s, order them with fences, and
//! publish readiness through flag writes that remote waiters poll. This
//! crate reproduces that programming model functionally ([`world`],
//! [`ctx`], [`heap`]): each PE is an OS thread; the symmetric heap is real
//! shared memory. `put` is a byte copy, flags are `AtomicU64`s with
//! Release/Acquire publication, and `barrier_all` is a real barrier. Every
//! data-movement algorithm in the workspace (baseline collectives, the
//! fused operator, the zero-copy path) executes for real against it, so
//! functional equivalence with reference implementations is *tested*, not
//! assumed. Pricing lives with the protocol, not here: the simulators run
//! the fused operator's own protocol step on a timed backend over
//! `fcc-net`'s NIC model (`fcc_core::sim`).
//!
//! # Memory-safety contract
//!
//! Like its C namesakes, this API trades compiler-checked exclusivity for
//! protocol-checked exclusivity: any byte of the symmetric heap may be
//! written by any PE, and correctness requires the *program* to ensure
//! writers and readers are separated by flag publication or barriers. All
//! heap access therefore goes through raw-pointer copies inside the
//! runtime; the `unsafe` is contained in this crate, and the protocol
//! obligations are spelled out on each method.

pub mod ctx;
pub mod delivery;
pub mod error;
pub mod heap;
pub mod integrity;
pub mod lease;
pub mod pod;
pub mod ring;
pub mod trace;
pub mod world;

pub use ctx::{PeCtx, PendingPut};
pub use delivery::{
    AdversarialOrder, DecisionVector, DeliveryOrder, ProgramOrder, PutKey, RmwKey, SeededOrder,
};
pub use error::ShmemError;
pub use heap::{SymFlags, SymSlice};
pub use integrity::{checksum, IntegrityStats, PoisonRecord};
pub use lease::{DetectionModel, FailureDetector, HeartbeatBoard, Verdict};
pub use pod::Pod;
pub use trace::{current_ctx, scoped_ctx, CtxScope, RmwOp, TimedEvent, TraceEvent};
pub use world::{RingStats, SenseBarrier, ShmemWorld};

// Re-exported so operator crates name the causal vocabulary through one
// import path.
pub use fcc_telemetry::{FlightKind, FlightRecorder, TraceCtx};
