//! The paper's shape claims, read off the committed figure records.
//!
//! CI regenerates `results/fig10..fig15.json` and byte-diffs them, so
//! these records are exactly what the models produce. Each test states
//! one figure's qualitative claim (its `paper_claim`) as a verdict on
//! those numbers; a model change that keeps the bytes stable cannot
//! break them, and one that re-blesses a record has to keep the shape.

use std::path::Path;

use serde_json::Value;

fn record(fig: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{fig}.json"));
    let text = std::fs::read_to_string(&path).expect("committed figure record");
    serde_json::from_str(&text).expect("figure record parses")
}

/// `(point name, value of `key`)` for every point carrying `key`.
fn series(fig: &Value, key: &str) -> Vec<(String, f64)> {
    let points = fig["points"].as_array().expect("points");
    let series: Vec<_> = points
        .iter()
        .filter_map(|p| {
            let v = p.get(key)?.as_f64()?;
            Some((p["name"].as_str().expect("point name").to_string(), v))
        })
        .collect();
    assert!(!series.is_empty(), "no `{key}` points");
    series
}

fn value_at(series: &[(String, f64)], name: &str) -> f64 {
    series
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no point {name}"))
        .1
}

/// `max / min − 1` over a series.
fn skew(series: &[(String, f64)]) -> f64 {
    let max = series.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let min = series.iter().map(|p| p.1).fold(f64::MAX, f64::min);
    max / min - 1.0
}

#[test]
fn fig10_fused_beats_the_baseline_at_every_point() {
    for (name, v) in series(&record("fig10"), "fused/baseline") {
        assert!(v < 1.0, "fig10 point {name}: normalized time {v}");
    }
}

#[test]
fn fig14_zero_copy_beats_the_baseline_at_every_point() {
    for (name, v) in series(&record("fig14"), "zero-copy/baseline") {
        assert!(v < 1.0, "fig14 point {name}: normalized time {v}");
    }
}

#[test]
fn fig11_time_falls_through_75_percent_occupancy_then_rises() {
    let s = series(&record("fig11"), "execution_time_ms");
    let names: Vec<&str> = s.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["25.0%", "37.5%", "50.0%", "62.5%", "75.0%", "87.5%"]
    );
    for w in s[..5].windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "fig11: {} -> {} does not fall",
            w[0].0,
            w[1].0
        );
    }
    assert!(s[5].1 > s[4].1, "fig11: no rise at 87.5% occupancy");
}

#[test]
fn fig12_slice_64_is_much_faster_than_slice_4_and_the_curve_is_flat_beyond() {
    let s = series(&record("fig12"), "execution_time_ms");
    let gain = 1.0 - value_at(&s, "64") / value_at(&s, "4");
    assert!(
        gain >= 0.40,
        "fig12: slice 64 only {gain:.3} faster than slice 4"
    );
    let tail: Vec<_> = (s.iter())
        .filter(|(n, _)| ["64", "128", "256"].contains(&n.as_str()))
        .cloned()
        .collect();
    assert_eq!(tail.len(), 3);
    assert!(
        skew(&tail) <= 0.01,
        "fig12: 64..256 spread {:.4}",
        skew(&tail)
    );
}

#[test]
fn fig13_comm_aware_scheduling_has_less_skew_than_oblivious() {
    let fig = record("fig13");
    let oblivious = skew(&series(&fig, "comm-oblivious"));
    let aware = skew(&series(&fig, "comm-aware"));
    assert!(
        aware < oblivious,
        "fig13: aware {aware} vs oblivious {oblivious}"
    );
}

#[test]
fn fig15_reduction_grows_with_node_count_past_5_percent_at_128() {
    let s = series(&record("fig15"), "fused/baseline");
    let names: Vec<&str> = s.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["16", "32", "64", "128"]);
    for w in s.windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "fig15: reduction shrinks {} -> {}",
            w[0].0,
            w[1].0
        );
    }
    let at_128 = 1.0 - value_at(&s, "128");
    assert!(at_128 > 0.05, "fig15: {at_128:.3} reduction at 128 nodes");
}
