//! `fcc-bench` — the figure/table regeneration harness.
//!
//! One binary per evaluation artifact of the paper (`fig09_timeline`
//! through `fig15_scaleout`, plus `tables_setup` for Tables 1–2 and
//! `all_figures` to run the lot). Each binary prints the paper-style rows
//! and, when `FCC_RESULTS_DIR` is set (default `results/`), writes a JSON
//! record that `EXPERIMENTS.md` references.
//!
//! The library half holds what the binaries share: the experiment sweeps
//! (batch-size × tables-per-GPU grids), simulation wrappers, each run's
//! field table over the one `results/` record, and the one [`gate`]
//! between a fresh run and its committed artifact.

pub mod args;
pub mod figures;
pub mod gate;
pub mod postmortem;
pub mod profile;
pub mod report;
pub mod runs;
pub mod scaleout;
pub mod serving;
pub mod skew;
pub mod throughput;

pub use report::{print_table, write_json, FigureRecord, Series};
