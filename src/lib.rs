//! Fused computation-collective operations — workspace facade.
//!
//! Re-exports the sub-crates under one roof so downstream code (and the
//! integration tests in `tests/`) can depend on a single crate:
//!
//! * [`shmem`] — SHMEM-style symmetric heap, functional (threaded); the
//!   simulators in [`core`] price its protocol on [`net`]'s NIC model.
//! * [`net`] — link/NIC/topology models, the packet-level fabric, and the
//!   fault-injection layer ([`net::FaultPlan`], ridden out by [`net::Nic`]).
//! * [`gpu`] — GPU execution model (persistent work-groups, occupancy).
//! * [`sim`] — deterministic discrete-event simulation substrate.
//! * [`collectives`] — host-initiated baseline collectives (the bulk
//!   All-to-All the fused path degrades to under persistent faults).
//! * [`core`] — the fused embedding-pooling + All-to-All operator, its
//!   slice map, schedules, and the resilient execution path.
//! * [`dlrm`] — DLRM model configuration and end-to-end evaluation.
//! * [`astra`] — trace export for external simulators.
//! * [`telemetry`] — unified metrics registry, trace sink, Chrome-trace
//!   export, and overlap-efficiency derivation (DESIGN.md §9).
//! * [`serve`] — the online-serving frontend: request queueing,
//!   continuous batching into fused executions, admission control,
//!   deadline-aware load shedding, and the graceful-degradation ladder
//!   (DESIGN.md §12).
//!
//! The most common entry points are also re-exported at the top level.
//! [`timeouts`] exposes the shared CI/test timeout constants parsed from
//! `ci/timeouts.env`.

pub mod timeouts;

pub use fcc_astra as astra;
pub use fcc_collectives as collectives;
pub use fcc_core as core;
pub use fcc_dlrm as dlrm;
pub use fcc_gpu as gpu;
pub use fcc_net as net;
pub use fcc_serve as serve;
pub use fcc_shmem as shmem;
pub use fcc_sim as sim;
pub use fcc_telemetry as telemetry;

pub use fcc_core::{
    ElasticFusedPlan, ElasticTrainer, FusedParams, FusedPlan, FusedResult, FusedTuning, PeOutcome,
    RecoveryBoard, RecoveryCounters, RecoveryPolicy, RecoverySnapshot, ResilientFusedPlan,
    ScheduleKind, SliceInfo, SliceMap, TeamView, TrainerConfig, TrainerReport,
};
pub use fcc_dlrm::{CheckpointVault, DlrmConfig};
pub use fcc_net::{
    CorruptEvent, CorruptKind, CrashPoint, FaultAction, FaultPlan, FaultStats, LinkSpec, Nic,
    Topology,
};
pub use fcc_serve::{
    check_serve_trace, serve, BatchPolicy, DegradeController, DegradeLevel, FusedExecutor,
    LoadPattern, LoadSpec, ModelExecutor, Outcome, Priority, Request, Response, ServeReport,
    ServerConfig, ShedReason,
};
pub use fcc_shmem::{
    checksum, DetectionModel, FailureDetector, HeartbeatBoard, IntegrityStats, PeCtx, ShmemError,
    ShmemWorld, Verdict,
};
pub use fcc_telemetry::{
    FlightKind, FlightRecorder, MetricsSnapshot, Registry, Telemetry, TraceCtx, TraceSink,
};
