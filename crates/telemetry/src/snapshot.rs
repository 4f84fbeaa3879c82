//! The profiler's result snapshot (`BENCH_baseline.json`).
//!
//! One snapshot records a profiling run: per-variant wall time, overlap
//! efficiency, bytes moved, and retry counts, plus a flattened copy of the
//! metrics registry. It serialises through [`crate::artifact`] — this
//! module only holds the field table ([`BenchSnapshot::artifact`]). The
//! file name is derived from the snapshot name (`BENCH_baseline.json` for
//! `baseline`) and checked into `results/` so the perf trajectory is
//! diffable across PRs.

use crate::artifact::{field, Artifact, Point, Value};
use crate::registry::{MetricValue, MetricsSnapshot};

/// One profiled variant inside a [`BenchSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct VariantProfile {
    /// Variant name, e.g. `fused` / `baseline` / `fused-multiqp`.
    pub name: String,
    /// Simulated wall time, ns.
    pub wall_time_ns: u64,
    /// Overlap efficiency in `[0, 1]`; `None` when the variant has no
    /// communication/compute decomposition (e.g. a functional-only run).
    pub overlap_efficiency: Option<f64>,
    /// Payload + flag bytes that crossed the wire.
    pub bytes_on_wire: u64,
    /// Messages posted to NICs.
    pub messages: u64,
    /// Retries observed (0 for fault-free variants).
    pub retries: u64,
}

/// A named collection of [`VariantProfile`]s plus the registry flattening.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSnapshot {
    /// Snapshot name; `baseline` produces `BENCH_baseline.json`.
    pub name: String,
    /// World size the profile ran at.
    pub pes: usize,
    /// Per-variant results.
    pub variants: Vec<VariantProfile>,
    /// Flattened metrics: `(rendered key, value)`, sorted by key.
    pub metrics: Vec<(String, f64)>,
}

impl BenchSnapshot {
    /// Flattens a registry snapshot into `(key, value)` rows (histograms
    /// contribute their count and quantile estimates as separate rows).
    pub fn flatten_metrics(snapshot: &MetricsSnapshot) -> Vec<(String, f64)> {
        let mut rows = Vec::new();
        for (key, value) in &snapshot.samples {
            let base = key.render();
            match value {
                MetricValue::Counter(v) => rows.push((base, *v as f64)),
                MetricValue::Gauge(v) => rows.push((base, *v)),
                MetricValue::Histogram(h) => {
                    rows.push((format!("{base}.count"), h.count as f64));
                    rows.push((format!("{base}.p50"), h.p50));
                    rows.push((format!("{base}.p95"), h.p95));
                    rows.push((format!("{base}.p99"), h.p99));
                    rows.push((format!("{base}.p999"), h.p999));
                }
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The snapshot as the one `results/` record: `pes` and every
    /// flattened metric (key `metrics.<rendered key>`) at top level, one
    /// point per variant.
    pub fn artifact(&self) -> Artifact {
        let mut fields = vec![field("pes", self.pes)];
        fields.extend(
            self.metrics
                .iter()
                .map(|(k, v)| field(format!("metrics.{k}"), Value::Real(*v))),
        );
        let points = self
            .variants
            .iter()
            .map(|v| {
                Point::new(
                    v.name.as_str(),
                    vec![
                        field("wall_time_ns", v.wall_time_ns),
                        field("overlap_efficiency", v.overlap_efficiency.map(Value::Real)),
                        field("bytes_on_wire", v.bytes_on_wire),
                        field("messages", v.messages),
                        field("retries", v.retries),
                    ],
                )
            })
            .collect();
        Artifact {
            name: self.name.clone(),
            fields,
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> BenchSnapshot {
        BenchSnapshot {
            name: "baseline".to_string(),
            pes: 4,
            variants: vec![
                VariantProfile {
                    name: "baseline".to_string(),
                    wall_time_ns: 1_000_000,
                    overlap_efficiency: Some(0.0),
                    bytes_on_wire: 4096,
                    messages: 12,
                    retries: 0,
                },
                VariantProfile {
                    name: "fused".to_string(),
                    wall_time_ns: 800_000,
                    overlap_efficiency: Some(0.75),
                    bytes_on_wire: 4096,
                    messages: 48,
                    retries: 2,
                },
            ],
            metrics: vec![("recovery.retries".to_string(), 2.0)],
        }
    }

    #[test]
    fn file_name_follows_convention() {
        assert_eq!(sample().file_name(), "BENCH_baseline.json");
    }

    #[test]
    fn artifact_carries_every_field_in_the_one_schema() {
        let json = sample().artifact().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["name"], "baseline");
        assert_eq!(v["pes"].as_u64(), Some(4));
        assert_eq!(v["metrics.recovery.retries"].as_f64(), Some(2.0));
        let points = v["points"].as_array().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1]["name"], "fused");
        assert_eq!(points[1]["overlap_efficiency"].as_f64(), Some(0.75));
        assert_eq!(points[1]["retries"].as_u64(), Some(2));
        assert!(json.contains("\"overlap_efficiency\": 0.0"), "{json}");
    }

    #[test]
    fn flatten_expands_histograms() {
        let r = Registry::enabled();
        r.counter("c", &[]).add(3);
        let h = r.histogram("lat", &[("pe", "0")], 0.0, 10.0, 2);
        h.observe(5.0);
        let rows = BenchSnapshot::flatten_metrics(&r.snapshot());
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "c",
                "lat{pe=0}.count",
                "lat{pe=0}.p50",
                "lat{pe=0}.p95",
                "lat{pe=0}.p99",
                "lat{pe=0}.p999"
            ]
        );
        assert_eq!(rows[0].1, 3.0);
    }
}
