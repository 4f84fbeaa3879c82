//! Timed simulations of the fused operator and its baselines.
//!
//! The functional layer (`crate::op`) proves the algorithms move the right
//! bytes; this layer prices them. The fused kernels are priced by running
//! the functional operators' own protocol step on a timed backend
//! (`timed`): one step, two clocks. Seven simulations:
//!
//! * [`fused::simulate_fused`] — the persistent fused kernel with
//!   GPU-initiated slice PUTs (Figs. 9, 10, 11, 12, 13), including GPUs
//!   that share a NIC when the topology has fewer endpoints than PEs.
//! * [`baseline::simulate_baseline`] — per-table embedding kernels plus a
//!   bulk-synchronous All-to-All (the denominator everywhere).
//! * [`intranode::simulate_zero_copy`] — per-table zero-copy fused kernels
//!   on an all-P2P node (Fig. 14).
//! * [`fused_des::simulate_fused_integrated`] — the fused kernel and the
//!   destinations' incoming HBM writes in one event engine, measuring
//!   what the decoupled model leaves out.
//! * [`generic::price_producer`] — fused vs unfused for any
//!   [`FusedProducer`](crate::op::FusedProducer), on the plan's own slice
//!   table and task order.
//! * [`hierarchical::hierarchical_baseline`] — the bulk baseline when
//!   several GPUs share a node's NIC.
//! * [`tiled::simulate_tiled`] — kernel-granular tiling, the pipelined
//!   alternative to slice-granular fusion.

pub mod baseline;
pub mod fused;
pub mod fused_des;
pub mod generic;
pub mod hierarchical;
pub mod intranode;
pub mod tiled;
pub(crate) mod timed;

use fcc_sim::SimTime;

/// GPU-side cost knobs of GPU-initiated networking (§3.4's overheads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedTuning {
    /// Per-logical-WG bookkeeping: the `WG_Done` update and computing
    /// the communication-aware logical-WG id.
    pub bookkeeping: SimTime,
    /// Extra latency the last-finishing WG pays to build the command
    /// packet and ring the doorbell (payload PUT + fence + flag PUT).
    pub api_latency: SimTime,
    /// End-of-kernel cost of polling this WG's subset of `sliceRdy` flags
    /// once data has arrived.
    pub drain_poll: SimTime,
}

impl Default for FusedTuning {
    fn default() -> Self {
        FusedTuning {
            bookkeeping: SimTime::from_nanos(150),
            api_latency: SimTime::from_nanos(900),
            drain_poll: SimTime::from_micros(2),
        }
    }
}
