//! The one gate between a fresh run and its committed `results/` file.
//!
//! Every binary that owns a `BENCH_*.json` builds its run, prints its
//! table and calls [`gate`], which holds the whole policy:
//!
//! * a `--check` run compares and **never writes**; a plain full run
//!   writes; a restricted (sub-grid) run does neither unless it checks,
//!   and then only the points it ran;
//! * both sides are flattened by [`crate::postmortem`] — the only
//!   parser — and a leaf missing from either side fails, whatever its
//!   rule;
//! * a leaf with no rule is *sim-clock*: deterministic, so it must equal
//!   the committed value exactly at the precision it is printed with;
//! * a *wall-clock* leaf is named by a [`Rule`]: [`Rule::Ungated`], or
//!   [`Rule::Floor`] — at least a constant fraction of the committed
//!   value;
//! * any failure (the caller's own in-run assertions included) prints
//!   the ranked attribution against the committed file and exits 1.

use crate::postmortem::{attribute, render, Attribution};
use crate::report::{results_dir, write_result};
use fcc_telemetry::artifact::Artifact;

/// How a wall-clock leaf is held. Leaves without a rule are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Recorded, never compared.
    Ungated,
    /// Fresh must be at least this fraction of committed.
    Floor(f64),
}

/// Rules by field name: a rule covers every leaf whose dotted path ends
/// in `.<name>` (or is `<name>`).
pub type Rules = [(&'static str, Rule)];

/// How the binary was invoked.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// `--check`: compare against the committed artifact, never write.
    pub check: bool,
    /// The run covers the artifact's whole grid.
    pub full: bool,
}

impl Mode {
    /// A binary with no `--check` and no grid to restrict: always writes.
    pub const PLAIN: Mode = Mode {
        check: false,
        full: true,
    };
}

fn rule_for(rules: &Rules, key: &str) -> Option<Rule> {
    rules
        .iter()
        .find(|(name, _)| key.rsplit('.').next() == Some(name))
        .map(|&(_, rule)| rule)
}

/// The leaves of `fresh_json` that break `rules` against `committed`,
/// most-moved first. With `full` unset, committed points the fresh run
/// did not run are left out of the comparison.
pub fn violations(
    committed: &str,
    fresh_json: &str,
    rules: &Rules,
    full: bool,
) -> Result<Vec<Attribution>, String> {
    let mut before: serde_json::Value =
        serde_json::from_str(committed).map_err(|e| format!("not valid JSON: {e}"))?;
    let after: serde_json::Value =
        serde_json::from_str(fresh_json).expect("the writer emits valid JSON");
    if !full {
        let ran: Vec<&serde_json::Value> = after["points"]
            .as_array()
            .map_or(Vec::new(), |ps| ps.iter().map(|p| &p["name"]).collect());
        if let serde_json::Value::Object(top) = &mut before {
            if let Some(serde_json::Value::Array(points)) = top.get_mut("points") {
                points.retain(|p| ran.contains(&&p["name"]));
            }
        }
    }
    let mut moved = attribute(&before, &after);
    moved.retain(|a| match (a.before, a.after, rule_for(rules, &a.key)) {
        (Some(_), Some(_), Some(Rule::Ungated)) => false,
        (Some(b), Some(a), Some(Rule::Floor(frac))) => a < frac * b,
        _ => true,
    });
    Ok(moved)
}

fn describe(a: &Attribution, rules: &Rules) -> String {
    match (a.before, a.after) {
        (Some(b), Some(f)) => match rule_for(rules, &a.key) {
            Some(Rule::Floor(frac)) => {
                format!("check: {} = {f} fell below {frac} x committed {b}", a.key)
            }
            _ => format!("check: {} = {f}, committed {b} (must match exactly)", a.key),
        },
        (Some(_), None) => format!(
            "check: {} is committed but the run did not produce it",
            a.key
        ),
        _ => format!("check: {} is not in the committed artifact", a.key),
    }
}

/// Applies the policy in the module docs to `fresh` and the committed
/// `<results_dir>/<file>`. `failures` are the caller's own in-run
/// assertion messages; with any failure the process exits 1.
pub fn gate(file: &str, fresh: &Artifact, rules: &Rules, mode: Mode, mut failures: Vec<String>) {
    let path = results_dir().join(file);
    let fresh_json = fresh.to_json();
    let committed = std::fs::read_to_string(&path);
    let mut ranked = Vec::new();
    if mode.check {
        match &committed {
            Err(e) => failures.push(format!("--check needs {}: {e}", path.display())),
            Ok(text) => match violations(text, &fresh_json, rules, mode.full) {
                Err(e) => failures.push(format!("check: {} is {e}", path.display())),
                Ok(found) if found.is_empty() => {
                    println!("check: every gated leaf matches {}", path.display())
                }
                Ok(found) => {
                    failures.extend(found.iter().take(10).map(|a| describe(a, rules)));
                    ranked = found;
                }
            },
        }
    } else if mode.full {
        write_result(file, &fresh_json);
    } else {
        println!("[restricted run: {} left untouched]", path.display());
    }
    if failures.is_empty() {
        return;
    }
    for f in &failures {
        eprintln!("{f}");
    }
    // Without leaf violations (an in-run assertion failed, or nothing was
    // checked) the whole committed -> fresh drift is the attribution.
    if let Ok(text) = &committed {
        if ranked.is_empty() {
            ranked = violations(text, &fresh_json, &[], true).unwrap_or_default();
        }
        eprintln!("attribution (committed -> fresh):");
        eprint!("{}", render(&ranked, Some(10)));
    }
    std::process::exit(1);
}

/// Test support: serialises `artifact`, parses it back, and asserts the
/// flattener yields exactly the artifact's finite numeric fields, each
/// once. Returns the leaves by path.
#[cfg(test)]
pub(crate) fn assert_round_trips(artifact: &Artifact) -> std::collections::BTreeMap<String, f64> {
    use fcc_telemetry::artifact::{Field, Value};

    let json = artifact.to_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed["name"], artifact.name.as_str());
    let numeric = |prefix: &str, fields: &[Field]| -> Vec<String> {
        fields
            .iter()
            .filter(|(_, v)| match v {
                Value::Int(_) => true,
                Value::Fixed(x, _) | Value::Real(x) => x.is_finite(),
                Value::Text(_) | Value::Null => false,
            })
            .map(|(k, _)| format!("{prefix}{k}"))
            .collect()
    };
    let mut declared = numeric("", &artifact.fields);
    for p in &artifact.points {
        declared.extend(numeric(&format!("points.{}.", p.name), &p.fields));
    }
    declared.sort();
    let flat = crate::postmortem::flatten(&parsed);
    let mut got: Vec<String> = flat.iter().map(|(k, _)| k.clone()).collect();
    got.sort();
    assert_eq!(got, declared, "flattened leaves vs declared fields: {json}");
    flat.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_telemetry::artifact::{field, Point, Value};

    const RULES: &Rules = &[
        ("wall_s", Rule::Ungated),
        ("puts_per_sec", Rule::Floor(0.2)),
    ];

    fn run(fused_ns: f64, wall_s: f64, puts_per_sec: f64) -> Artifact {
        Artifact {
            name: "demo".into(),
            fields: vec![field("pes", 2usize)],
            points: vec![
                Point::new(
                    "torus-1024",
                    vec![
                        field("fused_ns", Value::Fixed(fused_ns, 1)),
                        field("wall_s", Value::Fixed(wall_s, 3)),
                        field("puts_per_sec", Value::Fixed(puts_per_sec, 3)),
                    ],
                ),
                Point::new("torus-2048", vec![field("fused_ns", Value::Fixed(9.0, 1))]),
            ],
        }
    }

    fn keys(found: &[Attribution]) -> Vec<&str> {
        found.iter().map(|a| a.key.as_str()).collect()
    }

    #[test]
    fn exact_match_passes_whatever_the_wall_clock_did() {
        let committed = run(70479277.0, 1.1, 1000.0).to_json();
        let fresh = run(70479277.0, 7.5, 400.0).to_json();
        assert!(violations(&committed, &fresh, RULES, true)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn one_unit_in_the_last_printed_digit_fails_and_ranks_first() {
        let committed = run(70479277.0, 1.1, 1000.0).to_json();
        // wall_s moved 7x and is ungated; fused_ns moved by 1e-9 relative.
        let fresh = run(70479277.1, 7.5, 1000.0).to_json();
        let found = violations(&committed, &fresh, RULES, true).unwrap();
        assert_eq!(keys(&found), ["points.torus-1024.fused_ns"]);
        assert!(describe(&found[0], RULES).contains("70479277.1, committed 70479277"));
        // Below the printed precision is not a difference.
        let fresh = run(70479277.04, 1.1, 1000.0).to_json();
        assert!(violations(&committed, &fresh, RULES, true)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wall_clock_floor_holds_below_and_ignores_above() {
        let committed = run(1.0, 1.0, 1000.0).to_json();
        let below = run(1.0, 1.0, 199.999).to_json();
        let found = violations(&committed, &below, RULES, true).unwrap();
        assert_eq!(keys(&found), ["points.torus-1024.puts_per_sec"]);
        assert!(describe(&found[0], RULES).contains("fell below 0.2 x committed 1000"));
        for ok in [200.0, 1000.0, 5000.0] {
            let fresh = run(1.0, 1.0, ok).to_json();
            assert!(violations(&committed, &fresh, RULES, true)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn a_missing_leaf_fails_on_either_side_even_when_ungated() {
        let whole = run(1.0, 1.0, 1000.0);
        let mut cut = whole.clone();
        cut.points[0].fields.retain(|(k, _)| k != "wall_s");
        let found = violations(&whole.to_json(), &cut.to_json(), RULES, true).unwrap();
        assert_eq!(keys(&found), ["points.torus-1024.wall_s"]);
        assert!(describe(&found[0], RULES).contains("did not produce it"));
        let found = violations(&cut.to_json(), &whole.to_json(), RULES, true).unwrap();
        assert_eq!(keys(&found), ["points.torus-1024.wall_s"]);
        assert!(describe(&found[0], RULES).contains("not in the committed artifact"));
    }

    #[test]
    fn an_extra_point_fails_and_a_restricted_run_checks_only_its_points() {
        let committed = run(1.0, 1.0, 1000.0);
        let mut extra = committed.clone();
        extra
            .points
            .push(Point::new("torus-4096", vec![field("fused_ns", 3u64)]));
        let found = violations(&committed.to_json(), &extra.to_json(), RULES, true).unwrap();
        assert_eq!(keys(&found), ["points.torus-4096.fused_ns"]);

        let mut restricted = committed.clone();
        restricted.points.truncate(1);
        let (c, r) = (committed.to_json(), restricted.to_json());
        assert!(violations(&c, &r, RULES, false).unwrap().is_empty());
        assert_eq!(
            keys(&violations(&c, &r, RULES, true).unwrap()),
            ["points.torus-2048.fused_ns"],
            "a full run must produce every committed point"
        );
        // A restricted run still may not invent points.
        let found = violations(&r, &c, RULES, false).unwrap();
        assert_eq!(keys(&found), ["points.torus-2048.fused_ns"]);
    }

    #[test]
    fn an_unparsable_committed_artifact_is_an_error_not_a_pass() {
        let fresh = run(1.0, 1.0, 1.0).to_json();
        assert!(violations("{\"name\": ", &fresh, RULES, true).is_err());
    }
}
