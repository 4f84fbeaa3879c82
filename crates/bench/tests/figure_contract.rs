//! The figure contract: the models regenerate the committed figure
//! records byte for byte.
//!
//! CI also regenerates `results/` with `all_figures` and byte-diffs it;
//! these tests hold the same line inside plain `cargo test`, so a change
//! that shifts any simulated leaf of Figs. 10–15 fails here first. One
//! test per figure, so the test threads share them out. `tables` and
//! `fig09` have no committed record (`golden_trace.rs` pins fig09's
//! trace), so they are not compared.

use std::path::Path;

use fcc_bench::figures;
use fcc_bench::report::FigureRecord;

/// Regenerates `figure` and holds it to its committed record.
fn holds(figure: fn() -> FigureRecord) {
    let record = figure();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{}.json", record.id));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        record.artifact().to_json() == committed,
        "{} no longer matches {}; regenerate it with `all_figures` only for a deliberate \
         model change",
        record.id,
        path.display()
    );
}

#[test]
fn fig10_holds() {
    holds(figures::fig10);
}

#[test]
fn fig11_holds() {
    holds(figures::fig11);
}

#[test]
fn fig12_holds() {
    holds(figures::fig12);
}

#[test]
fn fig13_holds() {
    holds(figures::fig13);
}

#[test]
fn fig14_holds() {
    holds(figures::fig14);
}

#[test]
fn fig15_holds() {
    holds(figures::fig15);
}
