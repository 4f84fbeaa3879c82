//! Regression attribution: which metrics account for a gate failure?
//!
//! When a CI gate trips (`--check` drift, serving SLO breach, scale-out
//! crossover regression), the snapshot JSON that failed and the
//! committed snapshot it was compared against together contain the
//! answer — but a wall of numbers is not an answer. This module diffs
//! two `BENCH_*.json` snapshots (any of them: the flattener is
//! schema-agnostic), scores every numeric leaf by log-ratio magnitude,
//! and prints a ranked attribution so the first line names the metric
//! that moved the most.
//!
//! Scoring is `|ln(after/before)|` with an epsilon floor, so a metric
//! that doubled and one that halved rank equally, and absolute scale
//! drops out — a 2× shift in `p99_us` outranks a 5% wobble in
//! `goodput_rps` regardless of their units. Metric *appearance* and
//! *disappearance* (a scenario added or removed) rank above any ratio.
//!
//! The same machinery diffs two validated Chrome traces structurally
//! ([`diff_trace_reports`]): event/span/flow/counter counts plus track
//! churn, for postmorteming a trace that stopped validating the same
//! shape.

use fcc_telemetry::TraceCheckReport;

/// Ratio floor: zero-valued metrics score against this instead of
/// dividing by zero, so `0 → 120` still produces a large finite score.
const EPS: f64 = 1e-9;

/// One ranked attribution line.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Dotted path of the numeric leaf (e.g. `points.flash-crowd-2x.p99_us`).
    pub key: String,
    /// Value in the BEFORE snapshot (`None` if the key appeared).
    pub before: Option<f64>,
    /// Value in the AFTER snapshot (`None` if the key disappeared).
    pub after: Option<f64>,
    /// `|ln(after/before)|`; `f64::INFINITY` for appear/disappear.
    pub score: f64,
}

impl Attribution {
    /// Multiplicative change, `after / before`, floored at `EPS` (1e-9).
    pub fn ratio(&self) -> Option<f64> {
        match (self.before, self.after) {
            (Some(b), Some(a)) => Some(a.abs().max(EPS) / b.abs().max(EPS)),
            _ => None,
        }
    }
}

/// Label for one element of a JSON array: its `"name"` field (every
/// point of every `results/` artifact has one), else the index.
fn element_label(v: &serde_json::Value, idx: usize) -> String {
    v.get("name")
        .and_then(|n| n.as_str())
        .map_or_else(|| idx.to_string(), str::to_string)
}

fn flatten_into(prefix: &str, v: &serde_json::Value, out: &mut Vec<(String, f64)>) {
    match v {
        serde_json::Value::Number(n) => out.push((prefix.to_string(), *n)),
        serde_json::Value::Object(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(&path, child, out);
            }
        }
        serde_json::Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                let label = element_label(child, i);
                let path = if prefix.is_empty() {
                    label
                } else {
                    format!("{prefix}.{label}")
                };
                flatten_into(&path, child, out);
            }
        }
        _ => {}
    }
}

/// Flattens every numeric leaf of `v` into `(dotted.path, value)`
/// pairs. Array elements are labeled by their `name` field when present,
/// so the paths stay stable when points are reordered or appended.
pub fn flatten(v: &serde_json::Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into("", v, &mut out);
    out
}

/// Diffs two flattened snapshots and returns attributions ranked
/// most-suspicious first. Unchanged leaves and leaves that are zero on
/// both sides are dropped; appear/disappear rank above every ratio.
pub fn attribute(before: &serde_json::Value, after: &serde_json::Value) -> Vec<Attribution> {
    let b = flatten(before);
    let a = flatten(after);
    let bmap: std::collections::BTreeMap<&str, f64> =
        b.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let amap: std::collections::BTreeMap<&str, f64> =
        a.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut keys: Vec<&str> = bmap.keys().chain(amap.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();

    let mut out = Vec::new();
    for key in keys {
        let (bv, av) = (bmap.get(key).copied(), amap.get(key).copied());
        let score = match (bv, av) {
            (Some(b), Some(a)) => {
                if b == a || (b == 0.0 && a == 0.0) {
                    continue;
                }
                (a.abs().max(EPS) / b.abs().max(EPS)).ln().abs()
            }
            _ => f64::INFINITY,
        };
        out.push(Attribution {
            key: key.to_string(),
            before: bv,
            after: av,
            score,
        });
    }
    out.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.key.cmp(&y.key))
    });
    out
}

/// Structural diff of two validated traces as attributions over the
/// checker's counts, plus track appearance/disappearance.
pub fn diff_trace_reports(before: &TraceCheckReport, after: &TraceCheckReport) -> Vec<Attribution> {
    let counts = |r: &TraceCheckReport| -> serde_json::Value {
        serde_json::from_str(&format!(
            r#"{{"trace":{{"events":{},"spans":{},"flows":{},"counters":{},"tracks":{}}}}}"#,
            r.events,
            r.spans,
            r.flows,
            r.counters,
            r.tracks.len()
        ))
        .expect("count JSON is well-formed")
    };
    let mut out = attribute(&counts(before), &counts(after));
    let bset: std::collections::BTreeSet<&String> = before.tracks.iter().collect();
    let aset: std::collections::BTreeSet<&String> = after.tracks.iter().collect();
    for gone in bset.difference(&aset) {
        out.push(Attribution {
            key: format!("trace.track.{gone}"),
            before: Some(1.0),
            after: None,
            score: f64::INFINITY,
        });
    }
    for new in aset.difference(&bset) {
        out.push(Attribution {
            key: format!("trace.track.{new}"),
            before: None,
            after: Some(1.0),
            score: f64::INFINITY,
        });
    }
    out.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.key.cmp(&y.key))
    });
    out
}

/// Returns a copy of `snapshot` with `metric` of the point named
/// `scenario` multiplied by `factor` — a known induced regression for
/// self-tests and the CI `postmortem-smoke` job.
///
/// # Panics
/// Panics if the snapshot has no `points` array, no point named
/// `scenario`, or that point lacks a numeric `metric`.
pub fn degrade_scenario(
    snapshot: &serde_json::Value,
    scenario: &str,
    metric: &str,
    factor: f64,
) -> serde_json::Value {
    let mut after = snapshot.clone();
    let serde_json::Value::Object(top) = &mut after else {
        panic!("snapshot is not an object");
    };
    let Some(serde_json::Value::Array(points)) = top.get_mut("points") else {
        panic!("snapshot has no points array");
    };
    let point = points
        .iter_mut()
        .find(|p| p.get("name").and_then(|n| n.as_str()) == Some(scenario))
        .unwrap_or_else(|| panic!("no point named {scenario}"));
    let serde_json::Value::Object(fields) = point else {
        panic!("point {scenario} is not an object");
    };
    let Some(serde_json::Value::Number(v)) = fields.get_mut(metric) else {
        panic!("point {scenario} has no numeric {metric}");
    };
    *v *= factor;
    after
}

/// Renders the top `n` attributions as a ranked table (the whole list
/// if `n` is `None`). Empty input renders an explicit "no drift" line
/// so a postmortem never silently prints nothing.
pub fn render(attrs: &[Attribution], n: Option<usize>) -> String {
    if attrs.is_empty() {
        return "no numeric drift between snapshots\n".to_string();
    }
    let shown = n.unwrap_or(attrs.len()).min(attrs.len());
    let mut s = String::new();
    s.push_str(&format!(
        "{:>4}  {:<52} {:>14} {:>14} {:>9}\n",
        "rank", "metric", "before", "after", "ratio"
    ));
    for (i, a) in attrs[..shown].iter().enumerate() {
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "—".to_string(),
        };
        let ratio = match a.ratio() {
            Some(r) => format!("{r:.3}x"),
            None if a.before.is_none() => "appeared".to_string(),
            None => "vanished".to_string(),
        };
        s.push_str(&format!(
            "{:>4}  {:<52} {:>14} {:>14} {:>9}\n",
            i + 1,
            a.key,
            fmt(a.before),
            fmt(a.after),
            ratio
        ));
    }
    if shown < attrs.len() {
        s.push_str(&format!("      … {} more\n", attrs.len() - shown));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> serde_json::Value {
        serde_json::from_str(s).unwrap()
    }

    #[test]
    fn flatten_labels_points_by_name_else_index() {
        let flat = flatten(&v(r#"{
            "pes": 2,
            "points": [
                {"name": "poisson-1x", "p99_us": 450},
                {"fabric": "torus", "wire_ns": 5.0}
            ]
        }"#));
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"pes"));
        assert!(keys.contains(&"points.poisson-1x.p99_us"));
        assert!(keys.contains(&"points.1.wire_ns"));
    }

    #[test]
    fn biggest_ratio_ranks_first_regardless_of_scale() {
        let before = v(r#"{"goodput_rps": 100000.0, "p99_us": 450}"#);
        let after = v(r#"{"goodput_rps": 95000.0, "p99_us": 4500}"#);
        let attrs = attribute(&before, &after);
        assert_eq!(attrs[0].key, "p99_us");
        assert!((attrs[0].ratio().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(attrs[1].key, "goodput_rps");
    }

    #[test]
    fn appearance_outranks_any_ratio_and_zero_is_finite() {
        let before = v(r#"{"a": 1.0, "shed_rate": 0.0}"#);
        let after = v(r#"{"a": 1000.0, "shed_rate": 0.2, "fresh": 7}"#);
        let attrs = attribute(&before, &after);
        assert_eq!(attrs[0].key, "fresh");
        assert!(attrs[0].score.is_infinite());
        // 0 → 0.2 scores finite but enormous (epsilon floor), above 1000x.
        assert_eq!(attrs[1].key, "shed_rate");
        assert!(attrs[1].score.is_finite());
        assert!(attrs[1].score > attrs[2].score);
    }

    #[test]
    fn unchanged_and_both_zero_are_dropped() {
        let before = v(r#"{"same": 5, "zed": 0.0}"#);
        let after = v(r#"{"same": 5, "zed": 0.0}"#);
        assert!(attribute(&before, &after).is_empty());
        assert!(render(&[], Some(5)).contains("no numeric drift"));
    }

    #[test]
    fn render_is_ranked_and_truncates() {
        let before = v(r#"{"x": 1, "y": 1, "z": 1}"#);
        let after = v(r#"{"x": 8, "y": 2, "z": 4}"#);
        let attrs = attribute(&before, &after);
        let table = render(&attrs, Some(2));
        let x_at = table.find("x").unwrap();
        let z_at = table.find("z").unwrap();
        assert!(x_at < z_at, "{table}");
        assert!(table.contains("… 1 more"));
        assert!(!table.contains(" y "), "truncated out: {table}");
    }

    #[test]
    fn induced_regression_on_committed_serving_snapshot_is_named() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_serving.json"
        ))
        .expect("committed serving snapshot");
        let before: serde_json::Value = serde_json::from_str(&text).unwrap();
        let after = degrade_scenario(&before, "flash-crowd-2x", "p99_us", 10.0);
        let attrs = attribute(&before, &after);
        assert_eq!(attrs[0].key, "points.flash-crowd-2x.p99_us");
    }

    #[test]
    fn trace_diff_reports_count_and_track_churn() {
        let before = TraceCheckReport {
            events: 100,
            spans: 10,
            flows: 5,
            counters: 3,
            tracks: vec!["serve/requests".into(), "pe0/protocol".into()],
        };
        let after = TraceCheckReport {
            events: 100,
            spans: 10,
            flows: 0,
            counters: 3,
            tracks: vec!["serve/requests".into()],
        };
        let attrs = diff_trace_reports(&before, &after);
        assert!(attrs
            .iter()
            .any(|a| a.key == "trace.track.pe0/protocol" && a.after.is_none()));
        assert!(attrs.iter().any(|a| a.key == "trace.flows"));
    }
}
