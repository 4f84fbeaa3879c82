//! Unified telemetry for the fused-collectives workspace.
//!
//! One subsystem for metrics, traces and recent-event dumps:
//!
//! * [`Registry`] — a zero-cost-when-disabled metrics registry holding
//!   named, labeled counters, gauges, and histograms. A disabled registry
//!   hands out no-op handles whose record paths are a single branch on a
//!   `None`; no allocation, no locking.
//! * [`TraceSink`] — an append-only sink of spans / instants / counter
//!   samples on the shared [`SimTime`] clock, organized into Perfetto-style
//!   tracks (`pid` = process lane, `tid` = thread lane), behind one lock.
//!   The timed simulator records its per-WG compute spans and slice
//!   publications here, and [`TraceData`] renders them as the paper's
//!   Fig. 9 chart and per-WG compute utilization.
//! * [`chrome`] — Chrome trace-event JSON export (loadable in
//!   `chrome://tracing` / Perfetto) plus a structural checker used by the
//!   golden-file tests and the CI `profile-smoke` job.
//! * [`overlap`] — interval arithmetic deriving *overlap efficiency*, the
//!   paper's key metric: the fraction of communication time hidden under
//!   compute.
//! * [`summary`] — plain-text rendering of a metrics snapshot.
//! * [`artifact`] — the one record (and writer) behind every
//!   `results/*.json` file; [`snapshot`] is the profiler's field table
//!   over it (`BENCH_baseline.json`).
//! * [`ctx`] — the compact causal [`TraceCtx`] propagated through every
//!   subsystem; its bits double as the Perfetto flow id.
//! * [`flight`] — the always-on lock-free [`FlightRecorder`] ring of
//!   recent protocol events, dumped on panic / gate failure.
//! * [`timeseries`] — [`SeriesSet`], SimTime-bucketed gauges exported as
//!   Perfetto counter tracks.
//! * [`alloc_count`] — the one counting global allocator the workspace's
//!   allocation-discipline tests and bench gates install.
//!
//! The [`Telemetry`] handle bundles a registry, a trace sink, and a flight
//! recorder so call sites thread one cheap clonable value through the
//! stack.

pub mod alloc_count;
pub mod artifact;
pub mod chrome;
pub mod ctx;
pub mod flight;
pub mod overlap;
pub mod registry;
pub mod saturation;
pub mod snapshot;
pub mod summary;
pub mod timeseries;
pub mod trace;

mod json;

pub use chrome::{check_chrome_trace, export_chrome_trace, TraceCheckReport};
pub use ctx::{CtxKind, TraceCtx};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use overlap::{union_intervals, OverlapStats};
pub use registry::{
    Counter, Gauge, HistogramHandle, HistogramSummary, MetricKey, MetricValue, MetricsSnapshot,
    Registry,
};
pub use saturation::SaturationWindow;
pub use snapshot::{BenchSnapshot, VariantProfile};
pub use summary::render_summary;
pub use timeseries::SeriesSet;
pub use trace::{FlowPhase, TraceData, TraceRecord, TraceSink, TrackId};

use fcc_sim::time::SimTime;

/// Default flight-recorder capacity used by [`Telemetry::enabled`].
const FLIGHT_CAPACITY: usize = 4096;

/// Bundle of a metrics [`Registry`], a [`TraceSink`], and a
/// [`FlightRecorder`] — the one value instrumented code paths accept.
/// Cloning shares the underlying storage.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Named metrics (counters / gauges / histograms).
    pub registry: Registry,
    /// Span / instant / counter-sample trace on the `SimTime` clock.
    pub trace: TraceSink,
    /// Bounded lock-free ring of recent protocol events.
    pub flight: FlightRecorder,
}

impl Telemetry {
    /// Telemetry with the registry, trace sink, and flight recorder all
    /// collecting.
    pub fn enabled() -> Telemetry {
        Telemetry {
            registry: Registry::enabled(),
            trace: TraceSink::enabled(),
            flight: FlightRecorder::enabled(FLIGHT_CAPACITY),
        }
    }

    /// Fully disabled telemetry: every handle is a no-op. This is
    /// `Default`, so un-instrumented callers pay nothing.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether any part (registry, trace, or flight recorder) is
    /// collecting.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled() || self.trace.is_enabled() || self.flight.is_enabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("registry", &self.registry.is_enabled())
            .field("trace", &self.trace.is_enabled())
            .field("flight", &self.flight.is_enabled())
            .finish()
    }
}

/// Length of a half-open interval `[start, end)` in nanoseconds; zero when
/// the interval is empty or inverted.
pub(crate) fn interval_len(start: SimTime, end: SimTime) -> u64 {
    end.as_nanos().saturating_sub(start.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.registry.counter("x", &[]);
        c.add(5);
        assert_eq!(c.value(), 0);
        t.trace
            .instant(TrackId::new(0, 0), "e", SimTime::from_nanos(1), None);
        assert!(t.trace.data().records.is_empty());
    }

    #[test]
    fn enabled_telemetry_collects() {
        let t = Telemetry::enabled();
        assert!(t.is_enabled());
        t.registry.counter("x", &[]).add(2);
        assert_eq!(t.registry.snapshot().counter("x", &[]), Some(2));
    }

    #[test]
    fn debug_shows_enablement() {
        let s = format!("{:?}", Telemetry::enabled());
        assert!(s.contains("registry: true"), "{s}");
    }
}
