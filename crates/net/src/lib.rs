//! `fcc-net` — NIC, link, and topology models.
//!
//! The paper's communication substrate is a mix of xGMI peer-to-peer links
//! inside a node (Table 1: 4 GPUs fully connected at 80 GB/s), InfiniBand
//! between nodes (20 GB/s), and — for the scale-out study — a 2D torus at
//! 200 Gb/s per link with 700 ns latency (Table 2). This crate models:
//!
//! * [`link::LinkSpec`] — bandwidth / latency / message-rate triple.
//! * [`nic`] — a GPU-direct NIC with queue-pair semantics: messages posted
//!   by (simulated) GPU threads via a doorbell serialize FIFO through the
//!   send queue, each occupying the NIC for
//!   `max(bytes/bandwidth, min_message_gap)`. The gap term is the message-
//!   rate bottleneck that makes tiny slices lose (Figure 12); FIFO ordering
//!   is what the fused kernel's payload→fence→flag sequence relies on.
//!   Queue pairs and a [`fault::FaultPlan`] are properties of the one
//!   [`Nic`].
//! * [`topology`] — the system shapes above plus the scale-out fabrics
//!   (fat-tree, dragonfly, multi-rail).
//! * [`analytic`] — closed-form collective costs on those shapes, used by
//!   the baseline (RCCL-like bulk collectives) and the scale-out simulator.
//! * [`fabric`] — the chunk-granular packet-level fabric simulator
//!   (ground truth at small scale).
//! * [`flow`] — the flow-level fair-sharing fabric simulator (fast path:
//!   1k–8k nodes), differentially verified against [`fabric`] via
//!   [`diff`].
//! * [`routes`] — the deterministic routing shared by both simulators.
//! * [`presets`] — Table 1 / Table 2 configurations.

pub mod analytic;
pub mod diff;
pub mod fabric;
pub mod fault;
pub mod flow;
pub mod link;
pub mod nic;
pub mod presets;
pub mod routes;
pub mod topology;

pub use diff::{DiffReport, DiffTolerance};
pub use fabric::{FabricDelivery, FabricSim, Injection, PacketFabric, Routing};
pub use fault::{CorruptEvent, CorruptKind, CrashPoint, FaultAction, FaultPlan, FaultStats};
pub use flow::{
    FlowFabric, FlowSpan, FlowStats, FlowTrace, FlowViolation, InjectedBug, LinkUtilSample,
};
pub use link::LinkSpec;
pub use nic::{Delivery, Message, MessageKind, Nic};
pub use topology::Topology;
