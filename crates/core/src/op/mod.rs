//! Functional (real-data) executions of the fused operators.
//!
//! The paper's recipe — task loop, `WG_Done` election, slice PUT + fence +
//! `sliceRdy`, drain — lives once, in the crate-private `protocol` core.
//! [`FusedPlan`] (embedding pooling), [`GenericFusedPlan`] (any
//! [`FusedProducer`]) and [`ResilientFusedPlan`] (the fault ladder) are a
//! producer, a slice table, an item order and a ship/wait policy on it.
//! [`ZeroCopyPlan`] and [`ElasticFusedPlan`] signal differently (one
//! arrival counter; slice-granular jobs without an election) and keep
//! their own loops.

use fcc_shmem::TraceCtx;

pub mod elastic;
pub mod fused;
pub mod generic;
mod protocol;
pub mod recovery;
pub mod reference;
pub mod resilient;
pub mod zerocopy;

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
pub use zerocopy::ZeroCopyPlan;
