//! Zero-cost-when-disabled metrics registry.
//!
//! A [`Registry`] is either *enabled* (an `Arc` around a mutex-guarded
//! `BTreeMap` of named metrics) or *disabled* (`None`; the `Default`).
//! Handles returned from a disabled registry carry no storage, so the
//! record path is one branch on an `Option` — instrumentation left in hot
//! paths costs nothing when telemetry is off.
//!
//! Metric identity is a [`MetricKey`]: a name plus a *sorted* label set,
//! so `counter("x", &[("a","1"),("b","2")])` and the reversed label order
//! address the same metric. Registering the same key twice returns a
//! handle to the same underlying storage; registering the same key as a
//! *different* metric type panics (a programming error worth failing
//! loudly on).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fcc_sim::stats::Histogram as RawHistogram;

/// A metric name plus its sorted `key=value` label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `fused.put.latency_ns`.
    pub name: String,
    /// Sorted label pairs, e.g. `[("pe", "0")]`.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels so order at the call site does not
    /// create distinct metrics.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Prometheus-style rendering: `name{k=v,k2=v2}` (bare name when
    /// unlabeled).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>), // f64 bit pattern
    Histogram(Arc<Mutex<RawHistogram>>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// Monotonically increasing `u64` metric. No-op when detached.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a detached handle).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// Last-write-wins `f64` metric. No-op when detached.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a detached handle).
    pub fn value(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

/// Handle onto a shared bucketed [`RawHistogram`]. No-op when detached.
#[derive(Clone, Default)]
pub struct HistogramHandle(Option<Arc<Mutex<RawHistogram>>>);

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().expect("histogram poisoned").record(v);
        }
    }

    /// Snapshot of count / tails / quantile estimates.
    fn summary(&self) -> HistogramSummary {
        match &self.0 {
            None => HistogramSummary::default(),
            Some(h) => HistogramSummary::of(&h.lock().expect("histogram poisoned")),
        }
    }
}

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HistogramHandle(count={})", self.summary().count)
    }
}

/// Count, saturated tails, and bucket-estimated quantiles of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Total observations, including out-of-range ones.
    pub count: u64,
    /// Observations below the low edge (saturated to `lo` in quantiles).
    pub underflow: u64,
    /// Observations at/above the high edge (saturated to `hi`).
    pub overflow: u64,
    /// Estimated median; 0 when empty.
    pub p50: f64,
    /// Estimated 95th percentile; 0 when empty.
    pub p95: f64,
    /// Estimated 99th percentile; 0 when empty.
    pub p99: f64,
    /// Estimated 99.9th percentile; 0 when empty. The serving layer's SLO
    /// tail — a metric the throughput-oriented percentiles above miss.
    pub p999: f64,
}

impl HistogramSummary {
    fn of(h: &RawHistogram) -> HistogramSummary {
        let (underflow, overflow) = h.out_of_range();
        let (p50, p95, p99) = h.percentiles().unwrap_or((0.0, 0.0, 0.0));
        let p999 = h.quantile(0.999).unwrap_or(0.0);
        HistogramSummary {
            count: h.count(),
            underflow,
            overflow,
            p50,
            p95,
            p99,
            p999,
        }
    }
}

/// Value of one metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// Point-in-time, key-sorted copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(key, value)` pairs sorted by key.
    pub samples: Vec<(MetricKey, MetricValue)>,
}

impl MetricsSnapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let key = MetricKey::new(name, labels);
        self.samples
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.samples[i].1)
    }

    /// Reads a counter by exact name + labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Sums a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Reads a gauge by exact name + labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// All gauge readings sharing `name`, in label order.
    pub fn gauges_named(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Gauge(g) => Some(*g),
                _ => None,
            })
            .collect()
    }

    /// Reads a histogram summary by exact name + labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSummary> {
        match self.find(name, labels)? {
            MetricValue::Histogram(h) => Some(*h),
            _ => None,
        }
    }
}

/// The metrics registry. `Default` is the disabled registry.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<BTreeMap<MetricKey, Slot>>>>,
}

impl Registry {
    /// A collecting registry.
    pub fn enabled() -> Registry {
        Registry {
            inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
        }
    }

    /// The no-op registry; every handle it returns is detached.
    pub fn disabled() -> Registry {
        Registry::default()
    }

    /// Whether this registry stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a counter.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let key = MetricKey::new(name, labels);
        let mut map = inner.lock().expect("registry poisoned");
        let slot = map
            .entry(key.clone())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Some(Arc::clone(c))),
            other => panic!(
                "metric {} already registered as {}",
                key.render(),
                other.kind()
            ),
        }
    }

    /// Registers (or re-fetches) a gauge.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let key = MetricKey::new(name, labels);
        let mut map = inner.lock().expect("registry poisoned");
        let slot = map
            .entry(key.clone())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))));
        match slot {
            Slot::Gauge(g) => Gauge(Some(Arc::clone(g))),
            other => panic!(
                "metric {} already registered as {}",
                key.render(),
                other.kind()
            ),
        }
    }

    /// Registers (or re-fetches) a histogram with `bins` buckets over
    /// `[lo, hi)`. The bucket shape of the *first* registration wins.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric type.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> HistogramHandle {
        let Some(inner) = &self.inner else {
            return HistogramHandle::default();
        };
        let key = MetricKey::new(name, labels);
        let mut map = inner.lock().expect("registry poisoned");
        let slot = map.entry(key.clone()).or_insert_with(|| {
            Slot::Histogram(Arc::new(Mutex::new(RawHistogram::new(lo, hi, bins))))
        });
        match slot {
            Slot::Histogram(h) => HistogramHandle(Some(Arc::clone(h))),
            other => panic!(
                "metric {} already registered as {}",
                key.render(),
                other.kind()
            ),
        }
    }

    /// Key-sorted snapshot of every metric. Empty for a disabled registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let map = inner.lock().expect("registry poisoned");
        let samples = map
            .iter()
            .map(|(k, slot)| {
                let v = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => MetricValue::Histogram(HistogramSummary::of(
                        &h.lock().expect("histogram poisoned"),
                    )),
                };
                (k.clone(), v)
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry(enabled={})", self.is_enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_hands_out_noops() {
        let r = Registry::disabled();
        let c = r.counter("a", &[]);
        c.add(7);
        assert_eq!(c.value(), 0);
        let g = r.gauge("b", &[]);
        g.set(1.5);
        assert_eq!(g.value(), 0.0);
        let h = r.histogram("c", &[], 0.0, 1.0, 4);
        h.observe(0.5);
        assert_eq!(h.summary().count, 0);
        assert!(r.snapshot().samples.is_empty());
    }

    #[test]
    fn counters_share_storage_by_key() {
        let r = Registry::enabled();
        r.counter("hits", &[("pe", "0")]).add(2);
        r.counter("hits", &[("pe", "0")]).add(3);
        r.counter("hits", &[("pe", "1")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits", &[("pe", "0")]), Some(5));
        assert_eq!(snap.counter("hits", &[("pe", "1")]), Some(1));
        assert_eq!(snap.counter_total("hits"), 6);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::enabled();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.snapshot().samples.len(), 1);
        assert_eq!(
            MetricKey::new("x", &[("b", "2"), ("a", "1")]).render(),
            "x{a=1,b=2}"
        );
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::enabled();
        let g = r.gauge("eff", &[("pe", "3")]);
        g.set(0.25);
        g.set(0.75);
        assert_eq!(r.snapshot().gauge("eff", &[("pe", "3")]), Some(0.75));
        assert_eq!(r.snapshot().gauges_named("eff"), vec![0.75]);
    }

    #[test]
    fn histogram_summary_reports_quantiles_and_tails() {
        let r = Registry::enabled();
        let h = r.histogram("lat", &[], 0.0, 100.0, 10);
        for i in 0..100 {
            h.observe(i as f64);
        }
        h.observe(-1.0);
        h.observe(1e12);
        let s = r.snapshot().histogram("lat", &[]).unwrap();
        assert_eq!(s.count, 102);
        assert_eq!((s.underflow, s.overflow), (1, 1));
        assert!(s.p50 > 0.0 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::enabled();
        r.counter("dual", &[]);
        r.gauge("dual", &[]);
    }

    #[test]
    fn snapshot_is_key_sorted() {
        let r = Registry::enabled();
        r.counter("z", &[]).inc();
        r.counter("a", &[]).inc();
        r.counter("m", &[("pe", "1")]).inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
