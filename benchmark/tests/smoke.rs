//! Drives the built binary at `--scale tiny`: every workload, both trace
//! modes, checked against the lists in `../BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_fcc-benchmark");

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one of the manifest's metric lists.
fn declared(manifest: &Value, list: &str) -> BTreeMap<String, String> {
    manifest[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn workloads(manifest: &Value) -> Vec<String> {
    manifest["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_string())
        .collect()
}

/// Runs one tiny run and returns its whole standard output.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .args(["--scale", "tiny"])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

fn record(stdout: &str) -> Value {
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("the record parses")
}

fn metric(stdout: &str, name: &str) -> f64 {
    record(stdout)["metrics"][name]["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("{name} is missing"))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let manifest = manifest();
    let lists = [
        declared(&manifest, "end_to_end"),
        declared(&manifest, "per_layer"),
    ];
    for workload in workloads(&manifest) {
        for (trace, want) in lists.iter().enumerate() {
            let stdout = run(&workload, 7, trace as u8);
            let last = stdout.lines().last().expect("a last line");
            let record = record(&stdout);
            let keys: Vec<&String> = record.as_object().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(record["correct"].as_bool(), Some(true), "{workload}");
            assert!(record["attempted"].as_u64().expect("attempted") >= 1);
            assert_eq!(record["failed"].as_u64(), Some(0));

            let got = record["metrics"].as_object().expect("metrics");
            let names: Vec<&String> = got.keys().collect();
            assert_eq!(
                names,
                want.keys().collect::<Vec<_>>(),
                "{workload} trace {trace}"
            );
            for (name, unit) in want {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name} has a character outside [A-Za-z0-9_.-]"
                );
                let value = got[name]["value"].as_f64().expect("a numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(got[name]["unit"].as_str(), Some(unit.as_str()), "{name}");
                // Exactly once in the record (a parsed object would hide a
                // repeated key) and exactly once as a `name value unit` line.
                let key = format!("\"{name}\": {{\"value\"");
                assert_eq!(last.matches(&key).count(), 1, "{name} in the record");
                let lines = stdout
                    .lines()
                    .filter(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(name.as_str())
                            && words.next().is_some_and(|v| v.parse::<f64>().is_ok())
                            && words.next() == Some(unit.as_str())
                    })
                    .count();
                assert_eq!(lines, 1, "{workload}: lines for {name}");
            }
            if trace == 0 {
                for name in want.keys() {
                    assert!(metric(&stdout, name) > 0.0, "{workload}: {name} is 0");
                }
            }
        }
    }
}

#[test]
fn a_seed_fixes_the_exact_metrics_and_another_seed_changes_only_the_inputs() {
    let exact: [(&str, &[&str]); 4] = [
        (
            "sim_design_sweep",
            &[
                "core.sim.paper_gap_pp",
                "core.sim.digest",
                "core.sim.norm_time_geomean",
            ],
        ),
        (
            "fabric_skewed",
            &[
                "net.flow.flows",
                "net.flow.refreshes",
                "net.flow.events",
                "net.flow.max_active",
            ],
        ),
        (
            "fused_small_slice",
            &["shmem.ring.puts", "shmem.ring.puts_per_exec"],
        ),
        ("serve_open_loop", &["serve.model.p99_us"]),
    ];
    for (workload, names) in exact {
        let (a, b) = (run(workload, 5, 1), run(workload, 5, 1));
        for name in names {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
        }
    }

    // Another seed draws other inputs: the skew pattern moves the simulated
    // makespans, the heavy pairs move the fabric's events — while the
    // operation counts stay where they were.
    let (sim5, sim6) = (run("sim_design_sweep", 5, 1), run("sim_design_sweep", 6, 1));
    assert_ne!(
        metric(&sim5, "core.sim.digest"),
        metric(&sim6, "core.sim.digest")
    );
    let (fab5, fab6) = (run("fabric_skewed", 5, 1), run("fabric_skewed", 6, 1));
    assert_eq!(
        metric(&fab5, "net.flow.flows"),
        metric(&fab6, "net.flow.flows")
    );
    assert_ne!(
        metric(&fab5, "net.flow.run_s"),
        metric(&fab6, "net.flow.run_s")
    );
    let (put5, put6) = (
        run("fused_small_slice", 5, 1),
        run("fused_small_slice", 6, 1),
    );
    assert_eq!(
        metric(&put5, "shmem.ring.puts_per_exec"),
        metric(&put6, "shmem.ring.puts_per_exec")
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_record() {
    let out = Command::new(BIN)
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no record");
}
