//! Output formatting and result persistence.
//!
//! A [`FigureRecord`] is a field table over the one `results/` record
//! (`fcc_telemetry::artifact`), and [`write_result`] is the one place
//! that puts a file into the results directory.

use std::path::PathBuf;

use fcc_core::RecoverySnapshot;
use fcc_telemetry::artifact::{field, Artifact, Point, Value};

/// One named series of `(x-label, value)` points — a bar group or line in
/// a figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// A new, empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }
}

/// The JSON record a figure binary writes.
#[derive(Debug, Clone)]
pub struct FigureRecord {
    /// Artifact id, e.g. `"fig10"`.
    pub id: String,
    /// What the paper reports for this artifact (for EXPERIMENTS.md).
    pub paper_claim: String,
    /// What we measured, as a one-line summary.
    pub measured: String,
    pub series: Vec<Series>,
}

impl FigureRecord {
    /// The record in the one `results/` schema: each `(x, y)` of each
    /// series is a point named by its x label whose one field is the
    /// series name.
    pub fn artifact(&self) -> Artifact {
        let points = self
            .series
            .iter()
            .flat_map(|s| {
                s.points.iter().map(|(x, y)| {
                    Point::new(x.as_str(), vec![field(s.name.as_str(), Value::Real(*y))])
                })
            })
            .collect();
        Artifact {
            name: self.id.clone(),
            fields: vec![
                field("paper_claim", self.paper_claim.as_str()),
                field("measured", self.measured.as_str()),
            ],
            points,
        }
    }
}

/// Prints a fixed-width table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    // `println!`, not a locked `io::stdout()`: the test harness captures
    // only the former.
    println!("\n== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", header_line.join("  "));
    let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", rules.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// The recovery counters of a run as `(counter, count)` table rows —
/// message-level resilience (retries/timeouts/fallbacks) followed by the
/// crash-recovery pipeline (detections → reconfigurations → restores →
/// replay → checkpoints).
pub fn recovery_rows(snap: &RecoverySnapshot) -> Vec<Vec<String>> {
    [
        ("slice retries", snap.retries),
        ("wait timeouts", snap.timeouts),
        ("delayed slices", snap.delayed),
        ("degraded-mode fallbacks", snap.fallbacks),
        ("corruptions injected", snap.corruptions),
        ("corruptions detected", snap.corrupt_detected),
        ("corrupt slices re-verified", snap.reverifies),
        ("corrupt slices repaired", snap.corrupt_repaired),
        ("dead-peer detections", snap.detections),
        ("reconfigurations", snap.reconfigurations),
        ("tables restored", snap.restores),
        ("optimizer steps replayed", snap.replayed_steps),
        ("checkpoints saved", snap.checkpoints),
    ]
    .into_iter()
    .map(|(name, count)| vec![name.to_string(), count.to_string()])
    .collect()
}

/// Prints a run's recovery counters as a fixed-width table.
pub fn print_recovery_counters(title: &str, snap: &RecoverySnapshot) {
    print_table(title, &["counter", "count"], &recovery_rows(snap));
}

/// Directory results are persisted to (`FCC_RESULTS_DIR`, default
/// `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FCC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `contents` to `<results_dir>/<file_name>`. Failures are
/// reported but non-fatal (the printed table is the primary output).
pub fn write_result(file_name: &str, contents: &str) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(file_name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Writes `record` to `<results_dir>/<id>.json`.
pub fn write_json(record: &FigureRecord) {
    write_result(&format!("{}.json", record.id), &record.artifact().to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("fused");
        s.push("256|64", 0.7);
        s.push("512|64", 0.6);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[1].0, "512|64");
    }

    #[test]
    fn artifact_round_trips() {
        let mut series = Series::new("a\"b");
        series.push("x|1", 0.5);
        series.push("x|2", 3.0);
        series.push("inf", f64::INFINITY);
        let rec = FigureRecord {
            id: "fig00".into(),
            paper_claim: "x".into(),
            measured: "y\nz".into(),
            series: vec![series, Series::new("empty")],
        };
        let json = rec.artifact().to_json();
        assert!(json.contains("a\\\"b"), "quotes escaped: {json}");
        assert!(json.contains("\"measured\": \"y\\nz\""), "{json}");
        assert!(
            json.contains("{\"name\": \"x|2\", \"a\\\"b\": 3.0}"),
            "ints keep a decimal: {json}"
        );
        assert!(
            json.contains("{\"name\": \"inf\", \"a\\\"b\": null}"),
            "non-finite values stay valid JSON: {json}"
        );
        let leaves = crate::gate::assert_round_trips(&rec.artifact());
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves["points.x|1.a\"b"], 0.5);
    }

    #[test]
    fn results_dir_honours_env() {
        // Can't set env safely in parallel tests; just check the default.
        if std::env::var_os("FCC_RESULTS_DIR").is_none() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }
}
