//! The figure contract: the models regenerate the committed figure and
//! ablation records byte for byte.
//!
//! CI also regenerates `results/` with `all_figures` and `ablations` and
//! byte-diffs it; these tests hold the same line inside plain `cargo
//! test`, so a change that shifts any simulated leaf of Figs. 10–15 or
//! of an ablation fails here first. One test per record, so the test
//! threads share them out. `tables` and `fig09` have no committed record
//! (`golden_trace.rs` pins fig09's trace), so they are not compared.

use std::path::Path;
use std::process::Command;

use fcc_bench::figures;
use fcc_bench::report::FigureRecord;

/// The committed record `<id>.json`.
fn committed(id: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{id}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Regenerates `figure` and holds it to its committed record.
fn holds(figure: fn() -> FigureRecord) {
    let record = figure();
    assert!(
        record.artifact().to_json() == committed(&record.id),
        "{} no longer matches results/{}.json; regenerate it with `all_figures` only for a \
         deliberate model change",
        record.id,
        record.id
    );
}

/// The `ablations` binary, run into a scratch results directory, writes
/// the committed `ablations.json`.
#[test]
fn ablations_hold() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ablations_hold");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch results dir");
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .env("FCC_RESULTS_DIR", &dir)
        .output()
        .expect("ablations runs");
    assert!(
        out.status.success(),
        "ablations failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("ablations.json")).expect("ablations.json");
    assert!(
        written == committed("ablations"),
        "ablations no longer matches results/ablations.json; regenerate it with `ablations` \
         only for a deliberate model change"
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
