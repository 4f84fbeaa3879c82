//! Generality beyond `embedding + All-to-All` (§3.5).
//!
//! The paper argues the same fusion recipe applies wherever a collective
//! feeds (or is fed by) dependent computation: fully-sharded data
//! parallelism's `AllGather → GEMM`, mixture-of-experts' `All-to-All →
//! expert FFN → All-to-All`, and the backward pass's gradient return into
//! the embedding optimizer. These modules implement all three over the
//! SHMEM runtime, plus closed-form overlap timing models for the benchmark
//! ablations.
//!
//! All three run on the shared protocol core in `op/protocol.rs`, "with
//! the same machinery": each send is a crate-private row-copy producer on
//! [`crate::op::GenericFusedPlan`] (a host buffer's rows, routed item by
//! item), and each dependent computation is the consumer its
//! [`execute_consuming`](crate::op::GenericFusedPlan::execute_consuming)
//! drain calls as every row arrives.

pub mod allgather_gemm;
pub mod backward_fused;
pub mod moe;
