//! Functional (real-data) executions of the fused operators.
//!
//! The paper's recipe — task loop, `WG_Done` election, slice PUT + fence +
//! `sliceRdy`, drain — lives once, in the crate-private `protocol` core,
//! whose per-item step the timed simulator (`crate::sim`) runs too.
//! [`FusedPlan`] (embedding pooling; on an all-P2P node it is the
//! zero-copy operator of §3.3), [`GenericFusedPlan`] (any
//! [`FusedProducer`], optionally consuming rows on arrival — what the
//! `crate::ext` operators are built from) and [`ResilientFusedPlan`] (the
//! fault ladder) are a producer, a slice table, an item order and a
//! ship/wait policy on it. [`ElasticFusedPlan`] is the one operator that
//! keeps its own loop, on purpose: it has no election, its slice ids
//! survive ownership migration, and heartbeats supervise its drain.

use fcc_shmem::TraceCtx;

pub mod elastic;
pub mod fused;
pub mod generic;
pub(crate) mod protocol;
pub mod recovery;
pub mod reference;
pub mod resilient;

/// The causal root an operator execution runs under: the ambient context
/// when a boundary (serving loop, trainer) already minted one, otherwise
/// a freshly minted per-execution step context — so direct harness calls
/// still produce fully attributed traces. The slice qualifier is cleared
/// either way; slices re-qualify per publication.
pub(crate) fn ctx_root(exec: u64) -> TraceCtx {
    let cur = fcc_shmem::current_ctx();
    if cur.is_none() {
        TraceCtx::step(exec)
    } else {
        cur.root()
    }
}

pub use elastic::{ElasticFusedPlan, SliceJob};
pub use fused::FusedPlan;
pub use generic::{FusedProducer, GenericFusedPlan};
pub use recovery::{ElasticTrainer, PeOutcome, TrainerConfig, TrainerReport};
pub use resilient::ResilientFusedPlan;
