//! The overlap-efficiency profiler behind `--bin profile`.
//!
//! One profiling run executes each variant with telemetry enabled and
//! produces three artifacts:
//!
//! * a [`BenchSnapshot`] (`BENCH_baseline.json`) with per-variant wall
//!   time, overlap efficiency, bytes moved, and retry counts;
//! * one merged Chrome trace (`profile_trace.json`) carrying the timed
//!   fused run's PE × WG tracks and wire lanes, the functional resilient
//!   run's shmem protocol events, and the recovery counters — all on the
//!   shared `SimTime` representation (clock domains documented in
//!   DESIGN.md §9);
//! * a plain-text metrics summary.
//!
//! Variants: `baseline` (bulk-synchronous, sequential by construction, so
//! overlap efficiency 0), `fused` (single QP), `fused-multiqp` (4 QPs),
//! and `resilient` (a functional run under injected faults; wall-clock
//! timed, so it reports retries instead of an overlap decomposition).

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use fcc_core::op::reference;
use fcc_core::sim::baseline::{simulate_baseline, EmbeddingLaunch};
use fcc_core::{
    simulate_fused, FusedParams, RecoveryCounters, RecoveryPolicy, ResilientFusedPlan, ScheduleKind,
};
use fcc_dlrm::{DlrmConfig, PoolingMode};
use fcc_gpu::config::GpuConfig;
use fcc_net::{presets, FaultPlan, FlowFabric, Injection};
use fcc_serve::{serve, FusedExecutor, LoadPattern, LoadSpec, ServerConfig};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{ShmemWorld, TimedEvent, TraceEvent};
use fcc_sim::SimTime;
use fcc_telemetry::trace::{TrackId, TID_PROTOCOL, TID_RECOVERY};
use fcc_telemetry::{
    check_chrome_trace, export_chrome_trace, BenchSnapshot, FlowPhase, MetricsSnapshot, Registry,
    SeriesSet, Telemetry, TraceCheckReport, TraceCtx, TraceSink, VariantProfile,
};

use crate::runs::ib_nodes;

/// Everything one profiling run produces.
#[derive(Debug)]
pub struct ProfileRun {
    /// Machine-readable snapshot (serialize with
    /// [`BenchSnapshot::artifact`], name with
    /// [`BenchSnapshot::file_name`]).
    pub snapshot: BenchSnapshot,
    /// The timed fused variant's registry snapshot (for the text summary).
    pub metrics: MetricsSnapshot,
    /// The merged Chrome trace (sim spans + protocol events + recovery
    /// counters), already validated.
    pub trace_json: String,
    /// Structural report of the validated trace.
    pub check: TraceCheckReport,
}

impl ProfileRun {
    /// The fused variant's aggregate overlap efficiency.
    pub fn fused_efficiency(&self) -> Option<f64> {
        self.snapshot
            .variants
            .iter()
            .find(|v| v.name == "fused")
            .and_then(|v| v.overlap_efficiency)
    }
}

/// The timed design point the profiler runs: the paper's hardware
/// evaluation shape scaled to `pes` endpoints (256-sample global batch,
/// 64 tables per GPU keeps the run sub-second).
pub fn profile_point(pes: usize) -> DlrmConfig {
    DlrmConfig::hw_eval(pes, 256, 64)
}

fn timed_params(pes: usize) -> FusedParams {
    FusedParams::new(profile_point(pes), GpuConfig::mi210(), ib_nodes(pes))
}

/// Aggregate overlap efficiency across PEs: total hidden communication
/// over total communication (1.0 when there was none to hide).
fn aggregate_overlap(snap: &MetricsSnapshot) -> Option<f64> {
    let comm_per_pe = snap.gauges_named("overlap.comm_ns");
    if comm_per_pe.is_empty() {
        return None;
    }
    let comm: f64 = comm_per_pe.iter().sum();
    let hidden: f64 = snap.gauges_named("overlap.hidden_ns").iter().sum();
    Some(if comm == 0.0 { 1.0 } else { hidden / comm })
}

/// Runs one timed fused variant with telemetry and summarizes it.
fn timed_variant(name: &str, params: &FusedParams) -> (VariantProfile, MetricsSnapshot) {
    let result = simulate_fused(params);
    let snap = params.telemetry.registry.snapshot();
    let profile = VariantProfile {
        name: name.to_string(),
        wall_time_ns: result.makespan().as_nanos(),
        overlap_efficiency: aggregate_overlap(&snap),
        bytes_on_wire: snap.counter_total("net.bytes_on_wire"),
        messages: snap.counter_total("net.messages"),
        retries: 0,
    };
    (profile, snap)
}

/// The bulk-synchronous baseline. It never overlaps (kernel-boundary
/// All-to-All), so efficiency is 0 by definition; bytes are the payload
/// the collective moves (one bulk transfer per remote peer).
fn baseline_variant(pes: usize, payload_bytes: u64) -> VariantProfile {
    let cfg = profile_point(pes);
    let base = simulate_baseline(
        &cfg,
        &GpuConfig::mi210(),
        &ib_nodes(pes),
        EmbeddingLaunch::PerTable,
    );
    VariantProfile {
        name: "baseline".to_string(),
        wall_time_ns: base.total.as_nanos(),
        overlap_efficiency: Some(0.0),
        bytes_on_wire: payload_bytes,
        messages: (pes * (pes - 1)) as u64,
        retries: 0,
    }
}

/// A DLRM shape small enough that the functional resilient run (real
/// threads, real retries) stays in the milliseconds.
fn resilient_cfg(pes: usize) -> DlrmConfig {
    let mut cfg = DlrmConfig::hw_eval(pes, 4 * pes, 1);
    cfg.table_rows = 64;
    cfg.dim = 8;
    cfg.pooling = 4;
    cfg
}

/// Runs the functional resilient operator under a lossy fault plan,
/// verifying outputs against the unfused reference. Runs on the ring
/// data plane (distinct P2P groups, no delivery model), twice: the
/// second execution is the steady-state witness for the
/// `shmem.alloc.steady_state` and `shmem.ring.full_spins` metrics.
/// Returns the variant summary, the timed protocol events, and the
/// recovery-metric snapshot.
fn resilient_variant(pes: usize) -> (VariantProfile, Vec<TimedEvent>, MetricsSnapshot) {
    let cfg = resilient_cfg(pes);
    let policy = RecoveryPolicy::default()
        .with_slice_timeout(Duration::from_millis(5))
        .with_backoff(Duration::from_micros(20), 2);
    let faults = FaultPlan::new(0xF00D)
        .with_drop_rate(0.3)
        .with_delay(0.3, SimTime::from_micros(20));

    let mut layout = HeapLayout::new();
    let plan = ResilientFusedPlan::plan(&mut layout, &cfg, 2, policy);
    // Reserve scratch for the concurrency bound (every PE thread's rayon
    // workers holding a buffer at once): from here on, a single hot-path
    // allocation is a bug the zero assert below catches.
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    plan.prewarm(cfg.n_pes * workers);
    // One P2P group per PE: every cross-PE slice takes the faultable path.
    let groups = (0..cfg.n_pes as u32).collect();
    let mut world = ShmemWorld::new(cfg.n_pes, layout)
        .with_p2p_groups(groups)
        .with_trace();
    let tables = reference::build_tables(&cfg);
    let gen = reference::build_generator(&cfg);
    let registry = Registry::enabled();
    let counters = RecoveryCounters::in_registry(&registry);

    for exec in 1..=2u64 {
        world.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            plan.execute(
                ctx,
                local,
                &gen,
                PoolingMode::Sum,
                ScheduleKind::CommAware,
                exec,
                &faults,
                &counters,
            );
        });
        for dst in 0..cfg.n_pes {
            let got = world.read(dst, plan.output());
            let want = reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst);
            assert_eq!(
                got, want,
                "resilient profile run diverged at exec {exec}, dst {dst}"
            );
        }
    }

    // Data-plane health metrics: ring backpressure over the whole run and
    // hot-path allocations, which prewarming makes exactly zero — any
    // growth means an operator slipped an allocation back into the
    // per-slice path.
    let ring = world.ring_stats();
    registry
        .counter("shmem.ring.full_spins", &[])
        .add(ring.full_spins);
    let steady_allocs = plan.scratch_misses();
    registry
        .counter("shmem.alloc.steady_state", &[])
        .add(steady_allocs);
    assert_eq!(
        steady_allocs, 0,
        "prewarmed scratch pools must make the data plane allocation-free"
    );

    let events = world.take_trace_timed();
    let snap = registry.snapshot();
    let wall = events.iter().map(|e| e.at).max().unwrap_or(SimTime::ZERO);
    let (mut wire_bytes, mut messages) = (0u64, 0u64);
    for e in &events {
        if let TraceEvent::Put {
            byte_len,
            network: true,
            ..
        } = e.event
        {
            wire_bytes += byte_len as u64;
            messages += 1;
        }
    }
    let profile = VariantProfile {
        name: "resilient".to_string(),
        wall_time_ns: wall.as_nanos(),
        // A functional run has no modeled compute window to hide
        // communication under — no overlap decomposition.
        overlap_efficiency: None,
        bytes_on_wire: wire_bytes,
        messages,
        retries: snap.counter("recovery.retries", &[]).unwrap_or(0),
    };
    (profile, events, snap)
}

/// Merges the shmem protocol events into the sink as instants on each
/// PE's reserved protocol lane. Timestamps are wall-clock ns since the
/// trace epoch — a different clock *domain* than the virtual sim spans
/// (DESIGN.md §9), sharing only the representation.
///
/// Events carrying a [`TraceCtx`] additionally join their causal root's
/// flow: if the root's flow was already opened upstream (the serving
/// loop opens one per batch at close), the PUT binds as a `Step`;
/// otherwise the first protocol event opens it. Only the causal
/// *sends* — PUT, flag publish, flag RMW — get arrows; waits and
/// barriers stay plain instants so the arrows read as data movement.
fn record_protocol_events(sink: &TraceSink, events: &[TimedEvent]) {
    let mut started: HashSet<u64> = sink
        .data()
        .records
        .iter()
        .filter_map(|r| match r {
            fcc_telemetry::TraceRecord::Flow {
                id,
                phase: FlowPhase::Start,
                ..
            } => Some(*id),
            _ => None,
        })
        .collect();
    for e in events {
        let (pe, name, tag) = match &e.event {
            TraceEvent::Put { src, byte_len, .. } => (*src, "put", Some(*byte_len as u64)),
            TraceEvent::PutDelivered { src, .. } => (*src, "put_delivered", None),
            TraceEvent::Fence { pe } => (*pe, "fence", None),
            TraceEvent::Quiet { pe } => (*pe, "quiet", None),
            TraceEvent::Barrier { pe } => (*pe, "barrier", None),
            TraceEvent::FlagStore { src, cell, .. } => (*src, "flag_store", Some(*cell)),
            TraceEvent::FlagRmw { src, cell, .. } => (*src, "flag_rmw", Some(*cell)),
            TraceEvent::FlagWait { pe, cell, .. } => (*pe, "flag_wait", Some(*cell)),
            TraceEvent::Tombstone { pe } => (*pe, "tombstone", None),
            TraceEvent::IntegrityGate { pe, poisoned, .. } => {
                (*pe, "integrity_gate", Some(*poisoned))
            }
        };
        let pid = pe as u32;
        sink.name_process(pid, &format!("pe{pid}"));
        sink.name_thread(pid, TID_PROTOCOL, "protocol");
        let track = TrackId::new(pid, TID_PROTOCOL);
        sink.instant(track, name, e.at, tag);
        let causal_send = matches!(
            e.event,
            TraceEvent::Put { .. } | TraceEvent::FlagStore { .. } | TraceEvent::FlagRmw { .. }
        );
        if causal_send && !e.ctx.is_none() {
            let id = e.ctx.root().bits();
            let phase = if started.insert(id) {
                FlowPhase::Start
            } else {
                FlowPhase::Step
            };
            sink.flow(track, name, e.at, id, phase);
        }
    }
}

/// Samples the recovery counters onto the team lane at the end of the
/// trace, so Perfetto shows the final tallies alongside the spans.
fn record_recovery_counters(sink: &TraceSink, pid: u32, at: SimTime, snap: &MetricsSnapshot) {
    sink.name_process(pid, "team");
    sink.name_thread(pid, TID_RECOVERY, "recovery");
    let track = TrackId::new(pid, TID_RECOVERY);
    for name in RecoveryCounters::METRICS {
        if let Some(v) = snap.counter(name, &[]) {
            sink.counter_sample(track, name, at, v as f64);
        }
    }
}

/// Latest timestamp in the sink's collected records.
fn trace_end(sink: &TraceSink) -> SimTime {
    sink.data()
        .records
        .iter()
        .map(|r| match r {
            fcc_telemetry::TraceRecord::Span { end, .. } => *end,
            fcc_telemetry::TraceRecord::Instant { at, .. }
            | fcc_telemetry::TraceRecord::Counter { at, .. }
            | fcc_telemetry::TraceRecord::Flow { at, .. } => *at,
        })
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Runs every variant at `pes` endpoints and assembles the artifacts.
/// The merged trace is validated structurally before being returned.
pub fn run_profile(pes: usize) -> Result<ProfileRun, String> {
    run_profile_with(pes, None)
}

/// [`run_profile`] plus, when `tune_iters` is set, a fifth `fused-tuned`
/// variant: the online auto-tuner ([`fcc_core::tune_fused`]) climbs
/// slice width, QP count, and WG occupancy on the timed design point for
/// at most that many measured iterations, and the winning knobs are
/// profiled alongside the stock variants. The tuned knobs and the
/// tuner's evaluation count land in the snapshot's metrics
/// (`tuner.slice`, `tuner.qps`, `tuner.occupancy_cap`, `tuner.evals`).
pub fn run_profile_with(pes: usize, tune_iters: Option<usize>) -> Result<ProfileRun, String> {
    assert!(pes >= 2, "profiling needs at least 2 PEs");

    // Timed fused variant — its telemetry carries the merged trace.
    let mut fused_params = timed_params(pes);
    fused_params.telemetry = Telemetry::enabled();
    let (fused, fused_snap) = timed_variant("fused", &fused_params);

    // Multi-QP variant — metrics only (one trace per profile run).
    let mut mq_params = timed_params(pes);
    mq_params.num_qps = 4;
    mq_params.telemetry = Telemetry {
        registry: Registry::enabled(),
        ..Telemetry::disabled()
    };
    let (multiqp, _) = timed_variant("fused-multiqp", &mq_params);

    let baseline = baseline_variant(pes, fused_snap.counter_total("net.payload_bytes"));
    let (resilient, protocol_events, recovery_snap) = resilient_variant(pes);

    // Tuned variant — the auto-tuner's pick, priced like the others.
    let tuned = tune_iters.map(|iters| {
        let outcome = fcc_core::tune_fused(&timed_params(pes), iters);
        let mut tp = timed_params(pes);
        outcome.best.apply(&mut tp);
        tp.telemetry = Telemetry {
            registry: Registry::enabled(),
            ..Telemetry::disabled()
        };
        let (profile, _) = timed_variant("fused-tuned", &tp);
        (profile, outcome)
    });

    // Merge: protocol events, then the recovery tallies at trace end.
    let sink = &fused_params.telemetry.trace;
    record_protocol_events(sink, &protocol_events);
    record_recovery_counters(sink, pes as u32, trace_end(sink), &recovery_snap);

    let trace_json = export_chrome_trace(&sink.data());
    let check = check_chrome_trace(&trace_json)?;

    // The timed fused run's metrics, plus the data-plane health counters
    // sampled from the functional ring-path run.
    let mut metrics = BenchSnapshot::flatten_metrics(&fused_snap);
    for name in ["shmem.ring.full_spins", "shmem.alloc.steady_state"] {
        if let Some(v) = recovery_snap.counter(name, &[]) {
            metrics.push((name.to_string(), v as f64));
        }
    }
    let mut variants = vec![baseline, fused, multiqp, resilient];
    if let Some((profile, outcome)) = tuned {
        metrics.push((
            "tuner.slice".to_string(),
            outcome.best.slice_embeddings as f64,
        ));
        metrics.push(("tuner.qps".to_string(), outcome.best.num_qps as f64));
        metrics.push((
            "tuner.occupancy_cap".to_string(),
            outcome.best.occupancy_cap.map_or(-1.0, f64::from),
        ));
        metrics.push(("tuner.evals".to_string(), outcome.evals as f64));
        variants.push(profile);
    }
    let snapshot = BenchSnapshot {
        name: "baseline".to_string(),
        pes,
        variants,
        metrics,
    };
    Ok(ProfileRun {
        snapshot,
        metrics: fused_snap,
        trace_json,
        check,
    })
}

/// PID of the scale-out fabric lanes merged into the serving trace.
pub const FABRIC_PID: u32 = 9_500;

/// Everything one serving-mode profiling run produces: a single merged
/// Perfetto trace where each request can be followed
/// request → admission → batch → slice PUTs → fabric transfer via flow
/// arrows, plus attribution bookkeeping for the causal-coverage
/// invariant (every protocol event traces to exactly one batch).
#[derive(Debug)]
pub struct ServingProfileRun {
    /// The merged serve + protocol + fabric Chrome trace, validated.
    pub trace_json: String,
    /// Structural report of the validated trace.
    pub check: TraceCheckReport,
    /// Requests completed within deadline.
    pub completed: u64,
    /// Requests shed (any reason).
    pub shed: u64,
    /// Batches executed.
    pub batches: usize,
    /// Protocol events whose causal root mapped to a served batch.
    pub attributed_events: usize,
    /// Protocol events with no (or an unknown) causal root — must be 0.
    pub orphan_events: usize,
}

/// Rebases one batch's protocol events from the wall-clock-ns domain
/// onto the serving loop's virtual-µs window `[close, close+service]`
/// (as ns), preserving relative order. The linear map keeps intra-batch
/// structure visible while making the merged trace causally ordered:
/// every PUT lands at or after the batch-flow `Start` the serve loop
/// emitted at close time (DESIGN.md §9 clock domains).
fn rebase_events(events: &[TimedEvent], window_ns: (u64, u64)) -> Vec<TimedEvent> {
    let (w0, w1) = window_ns;
    let t0 = events.iter().map(|e| e.at).min().unwrap_or(SimTime::ZERO);
    let t1 = events.iter().map(|e| e.at).max().unwrap_or(SimTime::ZERO);
    let span = t1.as_nanos().saturating_sub(t0.as_nanos());
    let width = w1.saturating_sub(w0);
    events
        .iter()
        .map(|e| {
            let off = e.at.as_nanos() - t0.as_nanos();
            let at = if span == 0 {
                w0
            } else {
                w0 + (off as u128 * width as u128 / span as u128) as u64
            };
            TimedEvent {
                at: SimTime::from_nanos(at),
                ..e.clone()
            }
        })
        .collect()
}

/// Runs the serving stack under deliberate overload with a traced
/// [`FusedExecutor`] and merges three causal layers into one trace:
///
/// 1. the serve loop's request/batch flows, counter series, and instants
///    (virtual µs);
/// 2. the executor's shmem protocol events, grouped by originating
///    batch [`TraceCtx`] and rebased into each batch's service window so
///    PUT arrows extend the batch flows;
/// 3. a scale-out fabric round per batch (flow-level simulator), tagged
///    with the batch contexts, shown as transfer spans plus per-link
///    utilization / fair-share counter lanes.
///
/// The load is pinned at 4× measured capacity so the trace always shows
/// both a completed request chain and a shed one.
pub fn run_serving_profile(pes: usize) -> Result<ServingProfileRun, String> {
    assert!(pes >= 2, "serving profile needs at least 2 PEs");
    let cfg = crate::serving::serving_point(pes);
    let policy = crate::serving::serving_policy();
    let groups: Vec<u32> = (0..pes as u32).collect();
    use fcc_serve::{BatchExecutor, DegradeLevel};
    let mut executor = FusedExecutor::new(&cfg, 2, Some(groups), 0xC0FFEE);
    // The constructor's single calibration execution runs cold (page
    // faults, thread spawn), which inflates the floor and deflates the
    // capacity estimate — an idle machine then absorbs the "4×" load
    // without shedding. A few more executions settle the EWMA onto the
    // steady state; tracing is enabled after, so the warm-ups leave no
    // unattributed protocol events behind.
    for _ in 0..6 {
        executor.execute(&[], u64::MAX, DegradeLevel::Normal);
    }
    let mut executor = executor.with_world_trace();
    let capacity_rps = policy.target_batch as f64 * 1e6 / executor.floor_us() as f64;
    let workload = LoadSpec {
        seed: 0xBEEF,
        rps: 4.0 * capacity_rps,
        duration_us: 25_000,
        slo_us: 10_000,
        pattern: LoadPattern::Poisson,
    }
    .generate();

    let telemetry = Telemetry::enabled();
    let report = serve(
        ServerConfig::new(8 * policy.target_batch, policy, 7),
        &mut executor,
        &workload,
        &telemetry,
    );
    let events = executor.take_trace_timed();

    // Batch service windows on the virtual timeline, in ns. The serve
    // loop is sequential, so windows are disjoint and ordered.
    let windows: BTreeMap<u64, (u64, u64)> = report
        .batches
        .iter()
        .map(|b| {
            let start = b.close_at_us * 1_000;
            (b.batch, (start, start + b.service_us.max(1) * 1_000))
        })
        .collect();

    // Group protocol events by originating batch, then rebase each
    // group into its batch's window.
    let mut by_batch: BTreeMap<u64, Vec<TimedEvent>> = BTreeMap::new();
    let mut orphan_events = 0usize;
    for e in &events {
        let root = e.ctx.root();
        if root.is_none() || !windows.contains_key(&root.origin()) {
            orphan_events += 1;
        } else {
            by_batch.entry(root.origin()).or_default().push(e.clone());
        }
    }
    let attributed_events = by_batch.values().map(Vec::len).sum();

    let sink = &telemetry.trace;
    for (batch, group) in &by_batch {
        record_protocol_events(sink, &rebase_events(group, windows[batch]));
    }

    // Fabric side-channel: one all-to-all round on a small scale-out
    // torus, each transfer tagged with a served batch's context so span
    // tags line up with the batch flow ids. Spans + counter lanes only —
    // fabric timestamps start at sim-zero, before any batch flow opens,
    // so arrows from this layer would break causal ordering.
    let batch_ids: Vec<u64> = report.batches.iter().map(|b| b.batch).collect();
    if !batch_ids.is_empty() {
        let topo = presets::torus((2, 2));
        let bytes = cfg.alltoall_bytes_per_pair();
        let mut injections = Vec::new();
        let mut k = 0usize;
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src == dst {
                    continue;
                }
                injections.push(Injection {
                    at: SimTime::ZERO,
                    src,
                    dst,
                    bytes,
                    tag: TraceCtx::step(batch_ids[k % batch_ids.len()]).bits(),
                });
                k += 1;
            }
        }
        let (_deliveries, _stats, ftrace) = FlowFabric::new()
            .run_traced(&topo, &injections)
            .map_err(|v| format!("fabric violation: {v:?}"))?;
        sink.name_process(FABRIC_PID, "fabric");
        for s in &ftrace.spans {
            sink.name_thread(FABRIC_PID, s.src, &format!("node{}", s.src));
            sink.span(
                TrackId::new(FABRIC_PID, s.src),
                "transfer",
                s.start,
                s.end,
                Some(s.tag),
            );
        }
        let series = SeriesSet::new(SimTime::from_micros(1));
        for s in &ftrace.link_samples {
            series.sample(&format!("fabric.link{}.util", s.link), s.at, s.utilization);
            series.sample(
                &format!("fabric.link{}.fair_share", s.link),
                s.at,
                s.fair_share,
            );
        }
        series.export_into(sink, FABRIC_PID);
    }

    let trace_json = export_chrome_trace(&sink.data());
    let check = check_chrome_trace(&trace_json)?;
    Ok(ServingProfileRun {
        trace_json,
        check,
        completed: report.completed,
        shed: report.shed_total(),
        batches: report.batches.len(),
        attributed_events,
        orphan_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_produces_all_variants_and_a_valid_trace() {
        let run = run_profile(2).expect("trace must validate");
        let names: Vec<&str> = run
            .snapshot
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["baseline", "fused", "fused-multiqp", "resilient"]
        );
        let eff = run.fused_efficiency().expect("fused reports efficiency");
        assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");
        assert!(run.check.spans > 0);
        // All three sources landed in one trace: WG spans, the wire lane,
        // protocol instants, and recovery counter samples.
        assert!(run.check.tracks.iter().any(|t| t.ends_with("/wire")));
        assert!(run.check.tracks.iter().any(|t| t.ends_with("/protocol")));
        assert!(run.check.tracks.iter().any(|t| t == "team/recovery"));
        // The lossy functional run exercised the retry path.
        let resilient = &run.snapshot.variants[3];
        assert!(resilient.retries > 0, "30% drops must force retries");
        assert!(resilient.bytes_on_wire > 0);
    }

    #[test]
    fn profile_reports_data_plane_health() {
        let run = run_profile(2).expect("valid");
        let metric = |name: &str| {
            run.snapshot
                .metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
        };
        // The prewarmed functional ring run must be allocation-free — the
        // counter exists and is exactly zero.
        assert_eq!(metric("shmem.alloc.steady_state"), Some(0.0));
        // Ring backpressure is reported (usually zero at this tiny shape,
        // but the metric must be present either way).
        assert!(metric("shmem.ring.full_spins").is_some());
    }

    #[test]
    fn fused_hides_communication_the_baseline_cannot() {
        let run = run_profile(2).expect("valid");
        let baseline = &run.snapshot.variants[0];
        let fused = &run.snapshot.variants[1];
        assert_eq!(baseline.overlap_efficiency, Some(0.0));
        assert!(fused.overlap_efficiency.unwrap() > 0.0);
        assert!(fused.wall_time_ns < baseline.wall_time_ns);
    }

    #[test]
    fn serving_profile_follows_requests_to_the_wire() {
        let run = run_serving_profile(2).expect("trace must validate");
        assert!(run.completed > 0, "some requests must complete");
        assert!(run.shed > 0, "4x overload must shed");
        assert!(run.batches > 0);
        assert!(
            run.attributed_events > 0,
            "slice PUTs must attribute to serving batches"
        );
        assert_eq!(run.orphan_events, 0, "no orphan protocol events");
        // At least one flow per batch (request flows on top of that),
        // extended across layers, and the checker accepted all arrows.
        assert!(run.check.flows >= run.batches, "{:?}", run.check);
        assert!(run.check.counters > 0, "counter series lanes present");
        assert!(
            run.check.tracks.iter().any(|t| t.starts_with("fabric/")),
            "fabric lanes merged: {:?}",
            run.check.tracks
        );
        assert!(run.check.tracks.iter().any(|t| t.ends_with("/protocol")));
        assert!(run.check.tracks.iter().any(|t| t.starts_with("serve/")));
    }

    #[test]
    fn tuned_profile_adds_the_tuned_variant_and_its_knobs() {
        let run = run_profile_with(2, Some(8)).expect("valid");
        let names: Vec<&str> = run
            .snapshot
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "baseline",
                "fused",
                "fused-multiqp",
                "resilient",
                "fused-tuned"
            ]
        );
        let metric = |name: &str| {
            run.snapshot
                .metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
        };
        assert!(metric("tuner.slice").unwrap() >= 1.0);
        assert!(metric("tuner.qps").unwrap() >= 1.0);
        assert!((1.0..=8.0).contains(&metric("tuner.evals").unwrap()));
        // The tuner's pick cannot be slower than the stock fused variant
        // at the same design point: the stock knobs are its start anchor.
        let fused = &run.snapshot.variants[1];
        let tuned = &run.snapshot.variants[4];
        assert!(tuned.wall_time_ns <= fused.wall_time_ns);
    }

    #[test]
    fn snapshot_serializes_with_metrics() {
        let run = run_profile(2).expect("valid");
        assert_eq!(run.snapshot.file_name(), "BENCH_baseline.json");
        let artifact = run.snapshot.artifact();
        assert_eq!(artifact.points.len(), 4);
        let leaves = crate::gate::assert_round_trips(&artifact);
        // The resilient variant has no overlap decomposition: null, not a leaf.
        assert!(leaves.contains_key("points.fused.overlap_efficiency"));
        assert!(!leaves.contains_key("points.resilient.overlap_efficiency"));
        assert!(leaves.keys().any(|k| k.starts_with("metrics.fused.")));
    }
}
