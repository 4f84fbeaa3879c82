//! Shared timeout constants, parsed from `ci/timeouts.env`.
//!
//! CI hard caps and the fast in-test recovery knobs used to be duplicated
//! between `.github/workflows/ci.yml` and `tests/chaos.rs`; when one side
//! drifted the other silently stopped protecting anything (a test that
//! legitimately needs 130 s under a 120 s KILL cap flakes forever). Now
//! both sides read the same file: the workflow `source`s it as shell
//! variables, and this module compiles it in via `include_str!`, so a raw
//! number appearing in either place again is a review smell.
//!
//! Lookup panics on a missing or malformed key. That is deliberate: the
//! file is compiled into the binary, so a bad key is a build-content bug,
//! not a runtime condition, and the unit tests below fail fast on it.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// The raw contents of `ci/timeouts.env`, compiled into the crate.
const RAW: &str = include_str!("../ci/timeouts.env");

/// Look up `key` in [`RAW`] and parse its value.
///
/// Panics (with the key name) when the key is absent or unparseable —
/// see the module docs for why this is an assertion, not a `Result`.
fn get<T: FromStr>(key: &str) -> T
where
    T::Err: Display,
{
    for line in RAW.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        if k.trim() == key {
            return v
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("ci/timeouts.env: {key}={:?}: {e}", v.trim()));
        }
    }
    panic!("ci/timeouts.env: missing key {key}");
}

/// CI KILL cap for the chaos smoke steps.
pub fn chaos_smoke_cap() -> Duration {
    Duration::from_secs(get("CHAOS_SMOKE_TIMEOUT_SECS"))
}

/// CI KILL cap for the chaos matrix steps.
pub fn chaos_matrix_cap() -> Duration {
    Duration::from_secs(get("CHAOS_MATRIX_TIMEOUT_SECS"))
}

/// CI KILL cap for the conformance exploration run.
pub fn conformance_cap() -> Duration {
    Duration::from_secs(get("CONFORMANCE_TIMEOUT_SECS"))
}

/// CI KILL cap for the bench floor-gate runs (profile + throughput).
pub fn bench_gate_cap() -> Duration {
    Duration::from_secs(get("BENCH_GATE_TIMEOUT_SECS"))
}

/// CI KILL cap for the serving smoke run.
pub fn serving_smoke_cap() -> Duration {
    Duration::from_secs(get("SERVING_SMOKE_TIMEOUT_SECS"))
}

/// CI KILL cap for the postmortem attribution self-test.
pub fn postmortem_smoke_cap() -> Duration {
    Duration::from_secs(get("POSTMORTEM_SMOKE_TIMEOUT_SECS"))
}

/// CI KILL cap for the scale-out smoke steps (flow/packet differential
/// suite, then the 1024-node fast point with `--check --alloc-check`).
pub fn scaleout_smoke_cap() -> Duration {
    Duration::from_secs(get("SCALEOUT_SMOKE_TIMEOUT_SECS"))
}

/// KILL cap for any single scale-out sweep point run standalone, sized
/// for the slowest measured 8192-node fabric with headroom.
pub fn scaleout_bench_cap() -> Duration {
    Duration::from_secs(get("SCALEOUT_BENCH_TIMEOUT_SECS"))
}

/// CI KILL cap for the work-stealing skew smoke (scheduler ablation +
/// tuner-vs-sweep gate).
pub fn skew_smoke_cap() -> Duration {
    Duration::from_secs(get("SKEW_SMOKE_TIMEOUT_SECS"))
}

/// Per-slice delivery timeout used by the chaos tests' fast recovery
/// policy (`tests/chaos.rs::fast_policy`).
pub fn chaos_slice_timeout() -> Duration {
    Duration::from_millis(get("CHAOS_SLICE_TIMEOUT_MS"))
}

/// Initial retry backoff used by the chaos tests' fast recovery policy.
pub fn chaos_backoff() -> Duration {
    Duration::from_micros(get("CHAOS_BACKOFF_US"))
}

/// Heartbeat lease used by the crash-recovery trainer configs.
pub fn crash_lease() -> Duration {
    Duration::from_millis(get("CRASH_LEASE_MS"))
}

/// Heartbeat tick used by the crash-recovery trainer configs.
pub fn crash_tick() -> Duration {
    Duration::from_millis(get("CRASH_TICK_MS"))
}

/// Virtual duration of the CI serving smoke run, in microseconds.
pub fn serving_smoke_duration_us() -> u64 {
    get::<u64>("SERVING_SMOKE_DURATION_MS") * 1_000
}

/// Per-request SLO of the CI serving smoke run, in microseconds.
pub fn serving_smoke_slo_us() -> u64 {
    get::<u64>("SERVING_SMOKE_SLO_MS") * 1_000
}

/// Shed-rate ceiling enforced by the CI serving smoke gate.
pub fn serving_smoke_shed_ceiling() -> f64 {
    get("SERVING_SMOKE_SHED_CEILING")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_parses() {
        // Touch every accessor so a typo in the env file fails here, in
        // `cargo test`, rather than first surfacing as a CI shell error.
        chaos_smoke_cap();
        chaos_matrix_cap();
        conformance_cap();
        bench_gate_cap();
        serving_smoke_cap();
        postmortem_smoke_cap();
        scaleout_smoke_cap();
        scaleout_bench_cap();
        skew_smoke_cap();
        chaos_slice_timeout();
        chaos_backoff();
        crash_lease();
        crash_tick();
        serving_smoke_duration_us();
        serving_smoke_slo_us();
        serving_smoke_shed_ceiling();
    }

    #[test]
    #[should_panic(expected = "missing key")]
    fn missing_key_panics_with_name() {
        get::<u64>("NO_SUCH_KEY");
    }

    #[test]
    fn in_test_knobs_sit_far_below_their_ci_caps() {
        // The whole point of centralizing: the recovery knobs the chaos
        // tests run with must leave orders-of-magnitude headroom under
        // the CI cap that would KILL the job, or a single extra retry
        // ladder turns into a flaky timeout.
        let caps = [chaos_smoke_cap(), chaos_matrix_cap()];
        let knobs = [
            chaos_slice_timeout(),
            chaos_backoff(),
            crash_lease(),
            crash_tick(),
        ];
        for cap in caps {
            for knob in knobs {
                assert!(
                    knob * 100 < cap,
                    "in-test knob {knob:?} too close to CI cap {cap:?}"
                );
            }
        }
        // Serving: the virtual duration is decoupled from wall time, but
        // the SLO must fit inside the run many times over or the p99
        // gate is vacuous.
        assert!(serving_smoke_slo_us() * 10 <= serving_smoke_duration_us());
        // Scale-out: the CI smoke (1024-node point) must sit well below
        // the standalone-point cap sized for the 8192-node fabrics.
        assert!(scaleout_smoke_cap() <= scaleout_bench_cap());
        let ceiling = serving_smoke_shed_ceiling();
        assert!((0.0..=1.0).contains(&ceiling));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        assert!(RAW.lines().any(|l| l.trim_start().starts_with('#')));
        // A commented-out key must not resolve.
        assert_eq!(get::<u64>("CHAOS_SMOKE_TIMEOUT_SECS"), 120);
    }
}
