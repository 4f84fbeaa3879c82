//! SimTime-bucketed time series, exported as Perfetto counter tracks.
//!
//! A [`SeriesSet`] collects named samples on the shared [`SimTime`] clock
//! and folds them into fixed-width windows (mean and max per bucket).
//! Sources across the stack feed it — the serving loop (admission queue
//! depth, shed rate, degrade level), the flow fabric (per-link utilization
//! and fair share), the shmem data plane (delivery-ring occupancy) — and
//! [`SeriesSet::export_into`] turns each series into one Chrome counter
//! track, so Perfetto renders the system's load shape above the causal
//! spans.
//!
//! This is control-plane telemetry: sampling takes a mutex and may
//! allocate, so it belongs at batch close / refresh granularity, never
//! inside a per-put hot path (that is the flight recorder's job).

use std::collections::BTreeMap;
use std::sync::Mutex;

use fcc_sim::time::SimTime;

use crate::trace::{TraceSink, TrackId};

/// First `tid` used for exported series lanes.
const TID_SERIES: u32 = 20_000;

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    sum: f64,
    max: f64,
    count: u64,
}

/// Named, windowed sample streams on the `SimTime` clock.
#[derive(Debug)]
pub struct SeriesSet {
    bucket_ns: u64,
    // series name -> bucket start ns -> aggregate
    series: Mutex<BTreeMap<String, BTreeMap<u64, Bucket>>>,
}

impl SeriesSet {
    /// A set bucketing samples into `bucket`-wide windows (minimum 1 ns).
    pub fn new(bucket: SimTime) -> SeriesSet {
        SeriesSet {
            bucket_ns: bucket.as_nanos().max(1),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds one sample of `name` at `at`.
    pub fn sample(&self, name: &str, at: SimTime, value: f64) {
        let bucket = (at.as_nanos() / self.bucket_ns) * self.bucket_ns;
        let mut g = self.series.lock().expect("series poisoned");
        let b = g
            .entry(name.to_string())
            .or_default()
            .entry(bucket)
            .or_default();
        b.sum += value;
        b.max = if b.count == 0 {
            value
        } else {
            b.max.max(value)
        };
        b.count += 1;
    }

    /// Number of distinct series collected.
    pub fn len(&self) -> usize {
        self.series.lock().expect("series poisoned").len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-bucket `(bucket_start, mean, max)` rows of one series.
    pub fn buckets(&self, name: &str) -> Vec<(SimTime, f64, f64)> {
        let g = self.series.lock().expect("series poisoned");
        g.get(name).map_or_else(Vec::new, |buckets| {
            buckets
                .iter()
                .map(|(&start, b)| {
                    (
                        SimTime::from_nanos(start),
                        b.sum / b.count.max(1) as f64,
                        b.max,
                    )
                })
                .collect()
        })
    }

    /// Exports every series into `sink` as counter tracks under process
    /// lane `pid`: `<name>` carries the per-bucket mean and `<name>.max`
    /// the per-bucket max (emitted only when it differs from the mean
    /// anywhere, to keep flat gauges to one lane). Lane ids are assigned
    /// in series-name order from `TID_SERIES`, so the export is
    /// deterministic for the golden tests.
    pub fn export_into(&self, sink: &TraceSink, pid: u32) {
        if !sink.is_enabled() {
            return;
        }
        let g = self.series.lock().expect("series poisoned");
        let mut tid = TID_SERIES;
        for (name, buckets) in g.iter() {
            let needs_max = buckets
                .iter()
                .any(|(_, b)| b.count > 1 && b.max != b.sum / b.count as f64);
            let mean_track = TrackId::new(pid, tid);
            sink.name_thread(pid, tid, name);
            tid += 1;
            let max_track = if needs_max {
                let t = TrackId::new(pid, tid);
                sink.name_thread(pid, tid, &format!("{name}.max"));
                tid += 1;
                Some(t)
            } else {
                None
            };
            for (&start, b) in buckets {
                let at = SimTime::from_nanos(start);
                sink.counter_sample(mean_track, name, at, b.sum / b.count.max(1) as f64);
                if let Some(t) = max_track {
                    sink.counter_sample(t, &format!("{name}.max"), at, b.max);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn samples_fold_into_buckets() {
        let s = SeriesSet::new(us(10));
        s.sample("queue_depth", us(1), 2.0);
        s.sample("queue_depth", us(9), 6.0);
        s.sample("queue_depth", us(11), 3.0);
        let rows = s.buckets("queue_depth");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (us(0), 4.0, 6.0));
        assert_eq!(rows[1], (us(10), 3.0, 3.0));
    }

    #[test]
    fn export_produces_validating_counter_tracks() {
        let s = SeriesSet::new(us(10));
        s.sample("shed_rate", us(5), 0.0);
        s.sample("shed_rate", us(5), 1.0);
        s.sample("degrade", us(5), 2.0);
        let sink = TraceSink::enabled();
        sink.name_process(7, "serve");
        s.export_into(&sink, 7);
        let json = crate::export_chrome_trace(&sink.data());
        let report = crate::check_chrome_trace(&json).expect("valid");
        // shed_rate varies within the bucket -> mean + max lanes; degrade
        // is flat -> one lane.
        assert!(report.tracks.iter().any(|t| t == "serve/shed_rate"));
        assert!(report.tracks.iter().any(|t| t == "serve/shed_rate.max"));
        assert!(report.tracks.iter().any(|t| t == "serve/degrade"));
        assert!(!report.tracks.iter().any(|t| t == "serve/degrade.max"));
    }

    #[test]
    fn missing_series_reads_empty() {
        let s = SeriesSet::new(us(1));
        assert!(s.is_empty());
        assert!(s.buckets("nope").is_empty());
    }
}
