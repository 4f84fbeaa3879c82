//! `fcc-dlrm` — the deep-learning recommendation model substrate.
//!
//! The paper's workload is DLRM (Naumov et al.): sparse categorical
//! features looked up in embedding tables and pooled, a bottom MLP over
//! dense features, a feature-interaction operator, and a top MLP — with
//! embedding tables model-parallel across GPUs and the top MLP
//! data-parallel, joined by the All-to-All this whole project is about.
//!
//! This crate implements the *numeric* operators for real (f32 on CPU),
//! plus the synthetic data generator the
//! DLRM repository provides, plus the byte/FLOP accounting the timing
//! models consume:
//!
//! * [`embedding`] — tables and sum/mean pooling (the
//!   `EmbeddingBag_updateOutputKernel_sum_mean` equivalent).
//! * [`mlp`] — dense layers with ReLU.
//! * [`interaction`] — pairwise-dot feature interaction.
//! * [`datagen`] — seeded uniform categorical index generation.
//! * [`config`] — model configurations: the hardware-evaluation shape
//!   (embedding dim 256) and the Table 2 scale-out shape (dim 92, avg MLP
//!   682 × 43 layers, pooling 70).

pub mod backward;
pub mod checkpoint;
pub mod config;
pub mod datagen;
pub mod embedding;
pub mod interaction;
pub mod mlp;
pub mod sharding;

pub use backward::{embedding_backward_sgd, interaction_backward, DenseGrad, MlpCache};
pub use checkpoint::{apply_step_update, table_after_steps, CheckpointVault};
pub use config::DlrmConfig;
pub use datagen::BatchGenerator;
pub use embedding::{EmbeddingTable, PoolingMode};
pub use interaction::interact;
pub use mlp::Mlp;
pub use sharding::{plan_table_shards, ShardingPlan, TableCost};
