//! Overload-robust online serving for the fused DLRM operator.
//!
//! Earlier PRs built the fused embedding+All-to-All operator and drove it
//! batch-after-batch, throughput style. Real recommendation inference is
//! *request*-driven: users arrive one at a time with individual latency
//! SLOs, and the operator's static batch shape has to be fed by a
//! batching frontend. This crate is that frontend, designed around one
//! principle: **overload is answered, never absorbed**. Every request
//! gets exactly one terminal outcome — completed within its deadline, or
//! shed with a machine-readable reason — no matter how hard the arrival
//! process misbehaves.
//!
//! The pieces, bottom up:
//!
//! * [`request`] — requests, priorities, deadlines, outcomes on a
//!   virtual-µs timeline.
//! * [`loadgen`] — seeded open-loop generators (Poisson / diurnal /
//!   flash-crowd) via Lewis–Shedler thinning; bit-reproducible.
//! * [`queue`] — the bounded admission queue (backpressure at arrival).
//! * [`batch`] — size- / deadline- / age-triggered batch close as a pure
//!   decision function; deadlines propagate into the batching window.
//! * [`shed`] — priority-aware, seeded-deterministic victim selection.
//! * [`exec`] — the [`BatchExecutor`] boundary: a deterministic cost
//!   model for invariant tests and a [`FusedExecutor`] running real fused
//!   (or degraded bulk) executions with measured service times.
//! * [`degrade`] — the saturation-driven graceful-degradation ladder
//!   (shrink the batching window, then fall back to bulk All-to-All).
//! * [`trace`] — the serve-event log and its fcc-check-style invariant
//!   checker ([`check_serve_trace`]).
//! * [`server`] — the event loop tying it all together under the
//!   admission ladder, instrumented through `fcc-telemetry`.
//!
//! Quick start, all-virtual (deterministic):
//!
//! ```
//! use fcc_serve::{
//!     check_serve_trace, serve, BatchPolicy, LoadPattern, LoadSpec, ModelExecutor,
//!     ServerConfig,
//! };
//!
//! let workload = LoadSpec {
//!     seed: 42,
//!     rps: 50_000.0,
//!     duration_us: 500_000,
//!     slo_us: 10_000,
//!     pattern: LoadPattern::FlashCrowd { at_us: 100_000, len_us: 200_000, multiplier: 2.0 },
//! }
//! .generate();
//! let policy = BatchPolicy { target_batch: 32, max_wait_us: 2_000, close_margin_us: 100 };
//! let mut exec = ModelExecutor::default_model();
//! let report = serve(
//!     ServerConfig::new(256, policy, 7),
//!     &mut exec,
//!     &workload,
//!     &fcc_telemetry::Telemetry::disabled(),
//! );
//! // Exactly one outcome per arrival, audited from the event log.
//! let stats = check_serve_trace(&report.events).unwrap();
//! assert_eq!(stats.arrivals, workload.len() as u64);
//! assert_eq!(stats.completed + stats.shed, stats.arrivals);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod degrade;
pub mod exec;
pub mod loadgen;
pub mod queue;
pub mod request;
pub mod server;
pub mod shed;
pub mod trace;

pub use batch::{close_decision, BatchPolicy, CloseDecision, CloseTrigger};
pub use degrade::{DegradeController, DegradeLevel};
pub use exec::{BatchExecutor, ExecReport, FusedExecutor, ModelExecutor};
pub use loadgen::{LoadPattern, LoadSpec};
pub use queue::AdmissionQueue;
pub use request::{Outcome, Priority, Request, Response, ShedReason};
pub use server::{serve, BatchRecord, ServeReport, ServerConfig};
pub use shed::select_victims;
pub use trace::{check_serve_trace, ServeEvent, TraceStats, TraceViolation};
