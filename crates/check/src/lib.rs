//! `fcc-check` — deterministic schedule exploration for the put/fence/flag
//! protocols.
//!
//! Every fused operator in this workspace publishes data with the same
//! three-step discipline the paper's kernels use on real hardware:
//! non-blocking `put`, `fence`, then a `sliceRdy`-style flag write. The
//! functional backend normally delivers puts inline, which exercises only
//! one of the many delivery schedules RDMA hardware is allowed to pick.
//! This crate drives the backend through *adversarially chosen* schedules
//! and checks two things on every one:
//!
//! * **Invariants** ([`check_trace`]) — properties of the protocol event
//!   trace that must hold on every legal schedule: no flag published while
//!   its payload is still unfenced ([`Violation::FlagBeforePayload`]), no
//!   `WG_Done` bit claimed twice ([`Violation::LostOrBit`]), no flag epoch
//!   moving backwards ([`Violation::StaleEpochFlag`]), no writes after a
//!   tombstone ([`Violation::PostTombstoneWrite`]).
//! * **Conformance** ([`cases`]) — the operator's output is bit-compared
//!   against the sequential unfused reference, per destination PE.
//!
//! The explorer ([`explore()`]) enumerates the put-deferral space
//! exhaustively for small key sets and tops up with seeded pseudo-random
//! schedules, counting *distinct* realized schedules by signature. Run it
//! from the workspace root with:
//!
//! ```text
//! cargo run --release -p fcc-bench --bin check
//! ```

pub mod cases;
pub mod ctx;
pub mod explore;
pub mod invariants;

pub use cases::{
    standard_cases, AllGatherGemmCase, BackwardCase, CaseRun, ChecksumBypassCase, ElasticCase,
    FusedCase, GenericCase, MoeCase, ProtocolCase, ResilientCase, UnfencedFlagCase, ZeroCopyCase,
};
pub use ctx::{check_ctx_trace, CtxViolation};
pub use explore::{explore, explore_steal, Budget, Report};
pub use invariants::{check_trace, CheckConfig, Violation};
