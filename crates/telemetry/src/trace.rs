//! The unified trace sink: spans, instants, and counter samples on the
//! shared [`SimTime`] clock, organized into Perfetto-style tracks.
//!
//! A track is a `(pid, tid)` pair. By convention (documented in DESIGN.md
//! §9) `pid` identifies a PE (process lane) and `tid` a workgroup or one
//! of the reserved lanes ([`TID_WIRE`], [`TID_PROTOCOL`], [`TID_RECOVERY`]).
//! Track display names are registered with [`TraceSink::name_process`] /
//! [`TraceSink::name_thread`] and exported as Chrome metadata events.
//!
//! Like the registry, the sink is zero-cost when disabled: handles carry an
//! `Option<Arc<..>>` and every record path starts with one branch.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fcc_sim::time::SimTime;

/// Reserved `tid` for the per-PE "wire busy" lane (union of in-flight PUT
/// intervals).
pub const TID_WIRE: u32 = 10_000;
/// Reserved `tid` for shmem protocol events (PUT/fence/flag/quiet…).
pub const TID_PROTOCOL: u32 = 10_001;
/// Reserved `tid` for recovery counter samples.
pub const TID_RECOVERY: u32 = 10_002;

/// A Perfetto-style track address: process lane + thread lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId {
    /// Process lane (a PE, by convention).
    pub pid: u32,
    /// Thread lane (a WG or reserved lane, by convention).
    pub tid: u32,
}

impl TrackId {
    /// Builds a track id.
    pub fn new(pid: u32, tid: u32) -> TrackId {
        TrackId { pid, tid }
    }
}

/// One record in the unified trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A half-open `[start, end)` interval on a track.
    Span {
        /// Owning track.
        track: TrackId,
        /// Display name.
        name: String,
        /// Interval start.
        start: SimTime,
        /// Interval end.
        end: SimTime,
        /// Optional free-form tag (slice index…).
        tag: Option<u64>,
    },
    /// An instantaneous marker.
    Instant {
        /// Owning track.
        track: TrackId,
        /// Display name.
        name: String,
        /// Timestamp.
        at: SimTime,
        /// Optional free-form tag.
        tag: Option<u64>,
    },
    /// A counter sample (rendered as a counter track in Perfetto).
    Counter {
        /// Owning track.
        track: TrackId,
        /// Counter name.
        name: String,
        /// Timestamp.
        at: SimTime,
        /// Sampled value.
        value: f64,
    },
    /// A flow-arrow binding point: events sharing an `id` are connected
    /// by Perfetto with arrows, `Start → Step* → End`. Each binds to the
    /// slice enclosing `at` on `track`.
    Flow {
        /// Track whose enclosing slice the arrow binds to.
        track: TrackId,
        /// Flow display name.
        name: String,
        /// Binding timestamp.
        at: SimTime,
        /// Flow identity — every event in one causal chain shares it
        /// (conventionally [`crate::TraceCtx::bits`] of the root context).
        id: u64,
        /// Position in the chain.
        phase: FlowPhase,
    },
}

/// Where a flow event sits in its chain (Chrome `ph` `s` / `t` / `f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Chain head (exactly one per flow id, first in time).
    Start,
    /// Intermediate binding.
    Step,
    /// Chain tail (at most one, last in time).
    End,
}

impl TraceRecord {
    /// The record's track.
    pub fn track(&self) -> TrackId {
        match self {
            TraceRecord::Span { track, .. }
            | TraceRecord::Instant { track, .. }
            | TraceRecord::Counter { track, .. }
            | TraceRecord::Flow { track, .. } => *track,
        }
    }

    /// `(start, end)` of a span; `(at, at)` of any other record.
    fn extent(&self) -> (SimTime, SimTime) {
        match self {
            TraceRecord::Span { start, end, .. } => (*start, *end),
            TraceRecord::Instant { at, .. }
            | TraceRecord::Counter { at, .. }
            | TraceRecord::Flow { at, .. } => (*at, *at),
        }
    }
}

/// Owned copy of everything a [`TraceSink`] collected.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Records in insertion order.
    pub records: Vec<TraceRecord>,
    /// `pid -> display name`.
    pub processes: BTreeMap<u32, String>,
    /// `(pid, tid) -> display name`.
    pub threads: BTreeMap<(u32, u32), String>,
}

impl TraceData {
    /// Renders process `pid`'s workgroup tracks (every `tid` below the
    /// reserved lanes) as an ASCII Gantt chart: one row per WG, at most
    /// `max_wgs`, and `width` columns spanning `[0, end]`, where `end` is
    /// the latest record on those tracks. Spans are `#`; instants
    /// overprint them, `remote_put` as `!` and any other as `o`.
    pub fn render_ascii(&self, pid: u32, max_wgs: u32, width: usize) -> String {
        let mut records: Vec<&TraceRecord> = (self.records.iter())
            .filter(|r| r.track().pid == pid && r.track().tid < TID_WIRE)
            .collect();
        let end = (records.iter().map(|r| r.extent().1).max()).unwrap_or(SimTime::ZERO);
        if end == SimTime::ZERO || width == 0 {
            return String::new();
        }
        let scale = |t: SimTime| -> usize {
            let frac = t.as_nanos_f64() / end.as_nanos_f64();
            ((frac * (width.saturating_sub(1)) as f64).round() as usize).min(width - 1)
        };
        let rows = records.iter().map(|r| r.track().tid + 1).max().unwrap_or(0);
        let mut chart = vec![vec![' '; width]; rows.min(max_wgs) as usize];
        // Spans first (the sort is stable), so the instants overprint them.
        records.sort_by_key(|r| !matches!(r, TraceRecord::Span { .. }));
        for r in records {
            let ch = match r {
                TraceRecord::Span { .. } => '#',
                TraceRecord::Instant { name, .. } if name == "remote_put" => '!',
                _ => 'o',
            };
            if let Some(row) = chart.get_mut(r.track().tid as usize) {
                let (start, end) = r.extent();
                row[scale(start)..=scale(end)].fill(ch);
            }
        }
        let mut out = String::new();
        for (wg, row) in chart.into_iter().enumerate() {
            out.push_str(&format!("WG {wg:>3} |"));
            out.extend(row);
            out.push('\n');
        }
        out
    }

    /// The fraction of `[0, horizon]` that `compute` spans cover on
    /// `track`; `None` for a track without spans or a zero horizon.
    pub fn compute_utilization(&self, track: TrackId, horizon: SimTime) -> Option<f64> {
        let mut spans = (self.records.iter())
            .filter(|r| r.track() == track && matches!(r, TraceRecord::Span { .. }))
            .peekable();
        if horizon == SimTime::ZERO || spans.peek().is_none() {
            return None;
        }
        let busy: u64 = spans
            .filter(|r| matches!(r, TraceRecord::Span { name, .. } if name == "compute"))
            .map(|r| r.extent())
            .map(|(start, end)| end.min(horizon).saturating_sub(start).as_nanos())
            .sum();
        Some(busy as f64 / horizon.as_nanos_f64())
    }
}

/// Append-only, thread-safe trace sink. `Default` is disabled.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<TraceData>>>,
}

impl TraceSink {
    /// A collecting sink.
    pub fn enabled() -> TraceSink {
        TraceSink {
            inner: Some(Arc::default()),
        }
    }

    /// The no-op sink.
    pub fn disabled() -> TraceSink {
        TraceSink::default()
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the collected data under the sink's one lock; `None`
    /// when disabled.
    fn with<R>(&self, f: impl FnOnce(&mut TraceData) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(f(&mut inner.lock().expect("trace poisoned")))
    }

    /// Names a process lane (exported as `process_name` metadata).
    pub fn name_process(&self, pid: u32, name: &str) {
        self.with(|d| d.processes.insert(pid, name.to_string()));
    }

    /// Names a thread lane (exported as `thread_name` metadata).
    pub fn name_thread(&self, pid: u32, tid: u32, name: &str) {
        self.with(|d| d.threads.insert((pid, tid), name.to_string()));
    }

    fn push(&self, record: TraceRecord) {
        self.with(|d| d.records.push(record));
    }

    /// Appends records buffered elsewhere, in order, under one lock.
    pub fn extend(&self, records: impl IntoIterator<Item = TraceRecord>) {
        self.with(|d| d.records.extend(records));
    }

    /// Records a span.
    pub fn span(&self, track: TrackId, name: &str, start: SimTime, end: SimTime, tag: Option<u64>) {
        if self.inner.is_some() {
            self.push(TraceRecord::Span {
                track,
                name: name.to_string(),
                start,
                end: end.max(start),
                tag,
            });
        }
    }

    /// Records an instant marker.
    pub fn instant(&self, track: TrackId, name: &str, at: SimTime, tag: Option<u64>) {
        if self.inner.is_some() {
            self.push(TraceRecord::Instant {
                track,
                name: name.to_string(),
                at,
                tag,
            });
        }
    }

    /// Records a counter sample.
    pub fn counter_sample(&self, track: TrackId, name: &str, at: SimTime, value: f64) {
        if self.inner.is_some() {
            self.push(TraceRecord::Counter {
                track,
                name: name.to_string(),
                at,
                value,
            });
        }
    }

    /// Records a flow-arrow binding point. `id` joins events into one
    /// arrow chain; the event binds to the slice enclosing `at` on
    /// `track`.
    pub fn flow(&self, track: TrackId, name: &str, at: SimTime, id: u64, phase: FlowPhase) {
        if self.inner.is_some() {
            self.push(TraceRecord::Flow {
                track,
                name: name.to_string(),
                at,
                id,
                phase,
            });
        }
    }

    /// Owned copy of the collected data (empty when disabled).
    pub fn data(&self) -> TraceData {
        self.with(|d| d.clone()).unwrap_or_default()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceSink(enabled={})", self.is_enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    #[test]
    fn disabled_sink_drops_everything() {
        let s = TraceSink::disabled();
        s.span(TrackId::new(0, 0), "a", ns(0), ns(5), None);
        s.instant(TrackId::new(0, 0), "b", ns(1), None);
        s.counter_sample(TrackId::new(0, 0), "c", ns(2), 1.0);
        s.name_process(0, "pe0");
        let d = s.data();
        assert!(d.records.is_empty() && d.processes.is_empty());
    }

    #[test]
    fn sink_collects_and_names_tracks() {
        let s = TraceSink::enabled();
        s.name_process(1, "pe1");
        s.name_thread(1, 0, "wg0");
        s.span(TrackId::new(1, 0), "compute", ns(0), ns(10), Some(3));
        let d = s.data();
        assert_eq!(d.records.len(), 1);
        assert_eq!(d.processes.get(&1).map(String::as_str), Some("pe1"));
        assert_eq!(d.threads.get(&(1, 0)).map(String::as_str), Some("wg0"));
    }

    #[test]
    fn span_end_clamps_to_start() {
        let s = TraceSink::enabled();
        s.span(TrackId::new(0, 0), "x", ns(10), ns(5), None);
        match &s.data().records[0] {
            TraceRecord::Span { start, end, .. } => assert_eq!((*start, *end), (ns(10), ns(10))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ascii_rendering_has_one_row_per_actor() {
        let s = TraceSink::enabled();
        s.span(TrackId::new(0, 0), "compute", ns(0), ns(100), None);
        s.span(TrackId::new(0, 1), "compute", ns(0), ns(50), None);
        s.instant(TrackId::new(0, 1), "remote_put", ns(50), None);
        // Neither another PE's tracks nor the wire lane add rows.
        s.span(TrackId::new(1, 2), "compute", ns(0), ns(10), None);
        s.instant(TrackId::new(0, TID_WIRE), "slice_arrival", ns(400), None);
        let chart = s.data().render_ascii(0, 8, 40);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with(&"#".repeat(40)), "{chart}");
        assert!(lines[1].contains('!'));
    }

    #[test]
    fn ascii_rendering_respects_actor_cap() {
        let s = TraceSink::enabled();
        for wg in 0..10 {
            s.span(TrackId::new(0, wg), "compute", ns(0), ns(10), None);
        }
        assert_eq!(s.data().render_ascii(0, 4, 20).lines().count(), 4);
    }

    #[test]
    fn utilization_accounts_compute_only() {
        let s = TraceSink::enabled();
        let wg = TrackId::new(0, 0);
        s.span(wg, "compute", ns(0), ns(60), None);
        s.span(wg, "wait", ns(60), ns(100), None);
        let d = s.data();
        assert_eq!(d.compute_utilization(wg, ns(100)), Some(0.6));
        // Spans clip at the horizon.
        assert_eq!(d.compute_utilization(wg, ns(30)), Some(1.0));
        // Unknown track / zero horizon.
        assert_eq!(d.compute_utilization(TrackId::new(0, 5), ns(100)), None);
        assert_eq!(d.compute_utilization(wg, SimTime::ZERO), None);
    }
}
