//! `--agree <setA> <setB>`: compares two result sets metric by metric
//! against the bounds in `BENCHMARK.json`.
//!
//! A set is what `run_set.sh` writes: one JSON object per line,
//! `{"workload": ..., "seed": ..., "record": <the run's last line>}`.
//! Set A is the reference (the parent commit, or the first of two sets of
//! one commit), set B the candidate. Per (workload, end-to-end metric):
//!
//! * `unresolved` — either set's spread (interquartile range over its
//!   median) exceeds the bound, so the sets cannot settle the question;
//! * `outside` — B's median is worse than A's by more than the bound;
//! * `within` — otherwise.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::harness::{median, quartiles};

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// Values per (workload, metric), plus how many records were incorrect.
struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    incorrect: usize,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = read("BENCHMARK.json")
        .or_else(|_| read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m[k].as_str().map(str::to_string);
            match (
                text("name"),
                text("unit"),
                text("better"),
                m["bound"].as_f64(),
            ) {
                (Some(name), Some(unit), Some(better), Some(bound)) => Ok(Bound {
                    name,
                    unit,
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err("BENCHMARK.json: malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

fn load(path: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        values: BTreeMap::new(),
        incorrect: 0,
    };
    for (i, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e:?}", i + 1))?;
        let workload = v["workload"]
            .as_str()
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let record = &v["record"];
        if record["correct"].as_bool() != Some(true) {
            set.incorrect += 1;
        }
        let metrics = record["metrics"]
            .as_object()
            .ok_or_else(|| format!("{path}:{}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m["value"]
                .as_f64()
                .ok_or_else(|| format!("{path}:{}: {name} has no value", i + 1))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Prints one row per (workload, metric); `Ok(false)` on any `outside`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<18} {:<12} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    let mut counts = BTreeMap::new();
    for workload in crate::WORKLOADS {
        for bound in &bounds {
            let key = (workload.to_string(), bound.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                return Err(format!("{workload}/{} is missing from a set", bound.name));
            };
            let (ma, mb) = (median(va), median(vb));
            let (sa, sb) = (spread(va), spread(vb));
            // Positive = B is worse, as a share of A's median.
            let worse = if bound.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            // setup_s is judged on its medians only, as the acceptance rule
            // does: a set-up is milliseconds long and its spread is the box's.
            let steady = bound.name == "setup_s" || (sa <= bound.bound && sb <= bound.bound);
            let verdict = if !steady {
                "unresolved"
            } else if worse > bound.bound {
                "outside"
            } else {
                "within"
            };
            *counts.entry(verdict).or_insert(0usize) += 1;
            println!(
                "{workload:<18} {:<12} {ma:>14.6} {:>7.2}% {mb:>14.6} {:>7.2}% {:>+7.2}% {:>5.1}%  {verdict}  [{} n={}/{}]",
                bound.name,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound.bound * 100.0,
                bound.unit,
                va.len(),
                vb.len(),
            );
        }
    }
    println!(
        "within {}  outside {}  unresolved {}  incorrect records: A {} B {}",
        counts.get("within").copied().unwrap_or(0),
        counts.get("outside").copied().unwrap_or(0),
        counts.get("unresolved").copied().unwrap_or(0),
        a.incorrect,
        b.incorrect,
    );
    Ok(!counts.contains_key("outside") && a.incorrect + b.incorrect == 0)
}
