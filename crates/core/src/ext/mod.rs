//! Generality beyond `embedding + All-to-All` (§3.5).
//!
//! The paper argues the same fusion recipe applies wherever a collective
//! feeds (or is fed by) dependent computation: fully-sharded data
//! parallelism's `AllGather → GEMM`, and mixture-of-experts'
//! `All-to-All → expert FFN`. These modules implement both as fused
//! operators over the SHMEM runtime — functionally, with chunk-granular
//! flag handshakes standing in for slice PUTs — plus closed-form overlap
//! timing models for the benchmark ablations.
//!
//! These publish chunk-sequentially (no per-slice `WG_Done` election), so
//! they are not instances of the shared fused protocol core in
//! `op/protocol.rs`; a producer with slice-granular output belongs on
//! [`crate::op::GenericFusedPlan`] instead.

pub mod allgather_gemm;
pub mod backward_fused;
pub mod moe;
