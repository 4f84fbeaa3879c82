//! What every workload shares: order statistics, the driver-side span
//! recorder, host facts, and the metric tables `BENCHMARK.json` mirrors.
//!
//! The statistics, hash and random stream are the benchmark's own rather
//! than `fcc_sim::stats` or the vendored `rand`: a change to the code under
//! test must not be able to move the instrument's arithmetic or inputs.

use std::time::{Duration, Instant};

use fcc_sim::SimTime;
use fcc_telemetry::{check_chrome_trace, export_chrome_trace, TraceSink, TrackId};

/// End-to-end metrics, emitted by every workload with `--trace 0`.
/// `BENCHMARK.json` holds the same names, units and the bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A value
/// of 0 means the workload does not exercise that layer (the "no change"
/// side of every prediction in README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    // driver
    ("trace_overhead_ratio", "ratio"),
    ("driver.wall_s", "s"),
    ("driver.self_s", "s"),
    ("driver.span_coverage_ratio", "ratio"),
    ("host.cpu_s", "s"),
    ("op_p99_us", "us"),
    // shmem
    ("shmem.self_s", "s"),
    ("shmem.world.new_s", "s"),
    ("shmem.world.launch_us", "us"),
    ("shmem.put_small_ns", "ns"),
    ("shmem.put_large_ns", "ns"),
    ("shmem.put_64k_ns", "ns"),
    ("shmem.fence_flag_ns", "ns"),
    ("shmem.barrier_ns", "ns"),
    ("shmem.book.put_small_ns", "ns"),
    ("shmem.ring.puts", "count"),
    ("shmem.ring.puts_per_exec", "count"),
    ("shmem.ring.full_spins", "count"),
    ("shmem.ring.bypasses", "count"),
    // dlrm
    ("dlrm.self_s", "s"),
    ("dlrm.tables_build_s", "s"),
    ("dlrm.table_mb", "MB"),
    ("dlrm.pool_ns_per_wg", "ns"),
    ("dlrm.pool_bytes_per_s", "B/s"),
    ("dlrm.bag_gen_ns", "ns"),
    ("dlrm.exec_share", "ratio"),
    // core
    ("core.self_s", "s"),
    ("core.plan_s", "s"),
    ("core.execute_self_us", "us"),
    ("core.steal.push_pop_ns", "ns"),
    ("core.steal.steal_ns", "ns"),
    ("core.scratch.misses", "count"),
    ("core.steal.misses", "count"),
    ("core.sim.fused_ms_per_point", "ms"),
    ("core.sim.baseline_ms_per_point", "ms"),
    ("core.sim.zero_copy_ms_per_point", "ms"),
    ("core.tune.s", "s"),
    ("core.sim.norm_time_geomean", "ratio"),
    ("core.sim.digest", "hash"),
    ("core.sim.paper_gap_pp", "pp"),
    // sim, gpu
    ("sim.ps.ns_per_job", "ns"),
    ("sim.engine.events_per_s", "1/s"),
    ("gpu.exec.tasks_per_s", "1/s"),
    // net
    ("net.self_s", "s"),
    ("net.nic.posts_per_s", "1/s"),
    ("net.topology.build_s", "s"),
    ("net.flow.flows", "count"),
    ("net.flow.flows_per_s", "1/s"),
    ("net.flow.refreshes", "count"),
    ("net.flow.refreshes_per_flow", "ratio"),
    ("net.flow.events", "count"),
    ("net.flow.max_active", "count"),
    ("net.flow.run_s", "s"),
    ("net.flow.ns_per_refresh_flow", "ns"),
    ("net.flow.diff_max_rel_err", "ratio"),
    // astra, collectives
    ("astra.self_s", "s"),
    ("astra.pass_ms", "ms"),
    ("collectives.alltoall_us", "us"),
    // serve
    ("serve.self_s", "s"),
    ("serve.loadgen_s", "s"),
    ("serve.exec_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.batch_fill", "ratio"),
    ("serve.batches", "count"),
    ("serve.degrades", "count"),
    ("serve.rejected", "count"),
    ("serve.shed_hopeless", "count"),
    ("serve.shed_overload", "count"),
    ("serve.shed_late", "count"),
    ("serve.slo_miss_ratio", "ratio"),
    ("serve.steal_workers_per_pe", "count"),
    ("serve.loop_ns_per_request", "ns"),
    ("serve.model.p99_us", "us"),
    // check, telemetry
    ("check.self_s", "s"),
    ("check.schedules_per_s", "1/s"),
    ("check.violations", "count"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.flight_record_ns", "ns"),
    ("telemetry.traced_ops_ratio", "ratio"),
];

/// Layers the span recorder attributes self time to, and the metric that
/// reports it.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    ("driver", "driver.self_s"),
    ("shmem", "shmem.self_s"),
    ("dlrm", "dlrm.self_s"),
    ("core", "core.self_s"),
    ("net", "net.self_s"),
    ("astra", "astra.self_s"),
    ("serve", "serve.self_s"),
    ("check", "check.self_s"),
];

/// Per-layer values a run collected; anything never set is reported as 0.
#[derive(Default)]
pub struct LayerValues(std::collections::BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not in the per-layer table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one part of a workload — one set-up and one timed segment, in a
/// process of its own — hands back to `main`.
pub struct Outcome {
    /// Operations checked against a reference, and how many disagreed.
    pub attempted: u64,
    pub failed: u64,
    /// Start of set-up to the first timed operation.
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p90_us: f64,
    /// Reported per layer only: with a few dozen samples per part it is
    /// the part's maximum, set by the box rather than the program.
    pub op_p99_us: f64,
    /// Latency samples behind the quantiles.
    pub samples: usize,
    /// The samples in order, when every part runs the same sequence of
    /// distinct operations (design points, fabric points); else empty.
    pub op_sequence_us: Vec<f64>,
    /// Everything the run computed that must repeat exactly for one seed:
    /// parts of one run must agree on it.
    pub digest: u64,
    /// Free-form facts worth a header line (sizes, counts, caveats).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Fills the three timing metrics from one segment's latency samples.
    pub fn from_latencies(setup_s: f64, lat_us: &[f64]) -> Outcome {
        let busy_s = lat_us.iter().sum::<f64>() / 1e6;
        let lat = sorted(lat_us);
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s,
            ops_per_s: lat.len() as f64 / busy_s,
            op_p50_us: quantile_sorted(&lat, 0.50),
            op_p90_us: quantile_sorted(&lat, 0.90),
            op_p99_us: quantile_sorted(&lat, 0.99),
            samples: lat.len(),
            op_sequence_us: Vec::new(),
            digest: 0,
            notes: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the rule the acceptance check
/// uses, so `--agree` reports the same spread. One sample has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

// ---------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span being timed; hand it back to [`Recorder::close`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// Driver-side span recorder. Spans wrap calls into the layers' public
/// functions and are named `<layer>.<call>`; they live in memory until
/// the run ends. When disabled, [`open`](Self::open)/[`close`](Self::close)
/// still time the call (the untraced run needs the latency) but keep
/// nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        end - open.start
    }

    /// Times `f` under a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    /// Self time (span minus the part its children cover) summed per
    /// layer, plus the root's wall time. The layer is the span name up to
    /// the first dot.
    pub fn self_times(&self) -> (std::collections::BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = std::collections::BTreeMap::new();
        let mut wall_ns = 0u64;
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                wall_ns += dur;
            }
            let layer = s.name.split('.').next().expect("split yields one item");
            *by_layer.entry(layer).or_insert(0.0) += dur.saturating_sub(covered) as f64 / 1e9;
        }
        (by_layer, wall_ns as f64 / 1e9)
    }

    /// The spans as Chrome-trace JSON (one track), validated by the repo's
    /// own structural checker.
    pub fn chrome_trace(&self) -> Result<String, String> {
        let sink = TraceSink::enabled();
        sink.name_process(1, "fcc-benchmark");
        sink.name_thread(1, 1, "driver");
        let track = TrackId::new(1, 1);
        for s in &self.spans {
            sink.span(
                track,
                s.name,
                SimTime::from_nanos(s.start_ns),
                SimTime::from_nanos(s.end_ns),
                None,
            );
        }
        let json = export_chrome_trace(&sink.data());
        check_chrome_trace(&json)?;
        Ok(json)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// How many spans carry `name`, and their total duration in seconds.
    pub fn span_stats(&self, name: &str) -> (usize, f64) {
        let hits = self.spans.iter().filter(|s| s.name == name);
        let (count, total_ns) =
            hits.fold((0, 0u64), |(n, ns), s| (n + 1, ns + s.end_ns - s.start_ns));
        (count, total_ns as f64 / 1e9)
    }
}

// ---------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads. `/proc`
/// reports them in `USER_HZ` ticks, which Linux fixes at 100.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => match (u.parse::<f64>(), s.parse::<f64>()) {
            (Ok(u), Ok(s)) => (u + s) / 100.0,
            _ => f64::NAN,
        },
        _ => f64::NAN,
    }
}

/// Last-level cache size as sysfs words it (`"16384K"`), or `unknown`.
pub fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// `rustc --version`, or `unknown` when no toolchain is on the path.
pub fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The checked-out commit, read from `.git` without running git; a bare
/// source checkout (the acceptance runs) has none.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or("unknown".to_string(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Refuses thread counts the driver controls that exceed the cores: two
/// spinning PE threads on one core time the scheduler, not the program.
pub fn require_cores(workload: &str, threads: usize) -> Result<(), String> {
    if threads > nproc() {
        return Err(format!(
            "{workload} needs {threads} concurrently running threads but nproc is {}",
            nproc()
        ));
    }
    Ok(())
}

/// FNV-1a over a stream of u64 words — the digest exact metrics use.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream for generated inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_pythons_exclusive_rule() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }

    #[test]
    fn more_threads_than_cores_is_refused() {
        assert!(require_cores("w", nproc()).is_ok());
        assert!(require_cores("w", nproc() + 1).is_err());
    }

    #[test]
    fn self_times_are_spans_minus_their_children() {
        let mut rec = Recorder::new(true);
        let root = rec.open("driver.run");
        let child = rec.open("core.execute");
        rec.close(child);
        rec.close(root);
        let (by_layer, wall_s) = rec.self_times();
        let covered: f64 = by_layer.values().sum();
        assert!((covered - wall_s).abs() < 1e-9);
        assert!(rec.chrome_trace().is_ok());
    }
}
