//! Timed simulation of the persistent fused `embedding + All-to-All`
//! kernel.
//!
//! The simulation has three decoupled stages, which is sound because the
//! fused kernel never blocks on the network until its final drain phase
//! (all PUTs are non-blocking):
//!
//! 1. **Compute** — each PE's persistent workgroups execute their
//!    (scheduled) logical-WG task loops on the GPU model's shared-bandwidth
//!    executor, and every completion runs the functional operator's own
//!    protocol step on the timed backend (`sim/timed.rs`): `WG_Done`
//!    bookkeeping for every task, SHMEM API latency for the elected last
//!    finisher of a network slice, whose publication joins the replay
//!    list.
//! 2. **Network** — each NIC replays its PEs' publications (the slice's
//!    row PUTs + fence as one payload message, then the `sliceRdy` flag)
//!    in issue order, yielding per-slice arrival times at every
//!    destination.
//! 3. **Drain** — a PE's fused kernel ends when its own task loop has
//!    drained, its direct stores to same-NIC peers have left, *and* every
//!    slice destined to it has arrived.
//!
//! A topology with fewer endpoints than PEs shares each NIC among
//! `n_pes / endpoints` PEs, which reach each other P2P.

use std::ops::ControlFlow;

use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::{TaskUnit, WgPlan};
use fcc_gpu::kernel::KernelResources;
use fcc_net::{FaultPlan, FaultStats, Topology};
use fcc_sim::trace::SpanKind;
use fcc_sim::{SimTime, Timeline};
use fcc_telemetry::trace::{TrackId, TID_WIRE};
use fcc_telemetry::{union_intervals, OverlapStats, Telemetry};

use crate::op::protocol::Slice;
use crate::schedule::{self, ScheduleKind};
use crate::slice::SliceMap;

use super::timed::{persistent_wgs, Timed, Wire};
use super::FusedTuning;

/// How logical WGs map onto persistent WG slots at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WgSchedule {
    /// Static round-robin deal of the priority order onto slots — the
    /// paper's persistent kernel. Skewed task costs go unbalanced.
    Static,
    /// Work stealing: a slot that drains its own queue robs the tail of a
    /// seeded victim's queue (the runtime's Chase–Lev semantics). Owners
    /// still walk their queues in comm-aware priority order.
    Stealing {
        /// Victim-selection seed; each PE derives a distinct stream.
        seed: u64,
    },
    /// Longest-processing-time assignment computed with knowledge of every
    /// task's true (skewed) cost — the offline makespan bound stealing is
    /// judged against. Ignores comm-aware PUT priority, so only makespan
    /// (not overlap) is meaningful under it.
    Oracle,
}

/// Compute-cost skew injected into the task loops.
///
/// Two layers, matching how real skew presents: a *cross-PE* rate
/// multiplier (thermally throttled or noisy-neighbour devices run every
/// task slower) and seeded *intra-PE* stragglers (pooling cost varies per
/// logical WG with hot embedding rows). Stealing can fix the second; only
/// capacity can fix the first.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewSpec {
    /// Per-PE work multiplier (index = PE; missing entries mean 1.0).
    pub pe_mult: Vec<f64>,
    /// Fraction of logical WGs inflated into stragglers, in `[0, 1]`.
    pub straggler_rate: f64,
    /// Work multiplier applied to straggler tasks (≥ 1.0 slows them).
    pub straggler_factor: f64,
    /// Seed for straggler selection (per `(pe, logical WG)`).
    pub seed: u64,
}

impl SkewSpec {
    /// Stragglers only: every PE nominal, `rate` of tasks `factor`× slower.
    pub fn stragglers(rate: f64, factor: f64, seed: u64) -> SkewSpec {
        SkewSpec {
            pe_mult: Vec::new(),
            straggler_rate: rate,
            straggler_factor: factor,
            seed,
        }
    }

    /// The work multiplier for logical WG `wg` on PE `pe`. Pure in its
    /// arguments, so every schedule prices the same task identically.
    pub fn multiplier(&self, pe: u32, wg: u32) -> f64 {
        let mut m = self.pe_mult.get(pe as usize).copied().unwrap_or(1.0);
        if self.straggler_rate > 0.0 {
            let mut h = self
                .seed
                .wrapping_add(((pe as u64) << 32) | wg as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            if frac < self.straggler_rate {
                m *= self.straggler_factor;
            }
        }
        m
    }
}

/// Inputs of a fused-kernel simulation.
#[derive(Debug, Clone)]
pub struct FusedParams {
    pub cfg: DlrmConfig,
    pub gpu: GpuConfig,
    pub topo: Topology,
    /// Output vectors per slice (the Figure 12 sweep parameter).
    pub slice_embeddings: usize,
    pub schedule: ScheduleKind,
    /// Runtime mapping of logical WGs onto persistent slots.
    pub wg_schedule: WgSchedule,
    /// Compute-cost skew; `None` prices every task uniformly.
    pub skew: Option<SkewSpec>,
    /// Cap on concurrently resident persistent WGs (the Figure 11 sweep
    /// parameter); `None` = the kernel's occupancy limit.
    pub occupancy_cap: Option<u32>,
    pub tuning: FusedTuning,
    /// Queue pairs per NIC. ROC_SHMEM-style per-WG contexts map to
    /// multiple QPs: the per-QP message-rate limit divides across them
    /// while wire bandwidth stays shared. 1 = the paper's single-QP
    /// behaviour.
    pub num_qps: usize,
    /// Record per-WG timelines (Figure 9). Costs memory; leave off for
    /// sweeps.
    pub trace: bool,
    /// Inject faults into the network stage: PUTs replay through a
    /// [`fcc_net::FaultyNic`] (go-back-N retransmission, FIFO preserved)
    /// instead of a clean queue pair, and per-NIC [`FaultStats`] land in
    /// the result.
    /// Only the single-QP path models faults; combining a plan with
    /// `num_qps > 1` panics.
    pub faults: Option<FaultPlan>,
    /// Unified telemetry. When enabled, the simulation records per-WG
    /// timelines into the trace sink (one track per PE × WG plus a per-PE
    /// wire lane), publishes the hot-path metrics (`fused.*`, `net.*`,
    /// `overlap.*` — see DESIGN.md §9), and derives per-PE overlap
    /// efficiency. [`Telemetry::disabled`] (the default) costs nothing.
    pub telemetry: Telemetry,
}

impl FusedParams {
    /// Defaults for a config/topology pair: slice of 32 embeddings,
    /// communication-aware scheduling, full occupancy, no tracing.
    pub fn new(cfg: DlrmConfig, gpu: GpuConfig, topo: Topology) -> FusedParams {
        FusedParams {
            cfg,
            gpu,
            topo,
            slice_embeddings: 32,
            schedule: ScheduleKind::CommAware,
            wg_schedule: WgSchedule::Static,
            skew: None,
            occupancy_cap: None,
            tuning: FusedTuning::default(),
            num_qps: 1,
            trace: false,
            faults: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The point's slice partition, and how many persistent WGs its fused
    /// kernel keeps resident.
    pub(crate) fn shape(&self) -> (SliceMap, u32) {
        let cfg = &self.cfg;
        let (pes, tables, batch) = (cfg.n_pes, cfg.tables_per_pe, cfg.global_batch);
        let map = SliceMap::new(pes, tables, batch, self.slice_embeddings);
        let (kernel, items) = (KernelResources::embedding_fused(), map.num_wgs() as usize);
        let wgs = persistent_wgs(&self.gpu, &kernel, self.occupancy_cap, items);
        (map, wgs)
    }
}

/// Per-PE outcome of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeOutcome {
    /// When this PE's persistent task loop drained (all compute +
    /// bookkeeping done).
    pub compute_end: SimTime,
    /// When the last slice destined to this PE arrived.
    pub last_arrival: SimTime,
    /// Kernel end: launch + max(compute, arrivals) + drain polling.
    pub total: SimTime,
    /// Messages this PE posted (payloads + flags).
    pub messages: u64,
    /// Payload bytes this PE posted.
    pub bytes: u64,
    /// Persistent WGs resident.
    pub persistent_wgs: u32,
    /// Tasks executed by a slot other than the one they were dealt to
    /// (zero unless [`WgSchedule::Stealing`]).
    pub steals: u64,
}

/// Result of simulating all PEs.
#[derive(Debug)]
pub struct FusedResult {
    pub per_pe: Vec<PeOutcome>,
    /// One timeline per PE when tracing was requested.
    pub timelines: Vec<Timeline>,
    /// One entry per NIC (per PE unless PEs share NICs) when fault
    /// injection was requested, else empty.
    pub fault_stats: Vec<FaultStats>,
}

impl FusedResult {
    /// The slowest PE's total — the figure-level "fused execution time".
    pub fn makespan(&self) -> SimTime {
        self.per_pe
            .iter()
            .map(|p| p.total)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Relative execution-time skew between the fastest and slowest PE
    /// (Figure 13's metric).
    pub fn skew(&self) -> f64 {
        let max = self.makespan().as_nanos_f64();
        let min = self
            .per_pe
            .iter()
            .map(|p| p.total)
            .min()
            .unwrap_or(SimTime::ZERO)
            .as_nanos_f64();
        if max == 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }
}

/// Runs the three-stage simulation.
///
/// ```
/// use fcc_core::sim::fused::{simulate_fused, FusedParams};
/// use fcc_dlrm::DlrmConfig;
/// use fcc_gpu::GpuConfig;
/// use fcc_net::presets;
///
/// let params = FusedParams::new(
///     DlrmConfig::hw_eval(2, 64, 8),
///     GpuConfig::mi210(),
///     presets::dual_node_ib(),
/// );
/// let result = simulate_fused(&params);
/// assert!(result.makespan() > fcc_sim::SimTime::ZERO);
/// assert_eq!(result.per_pe.len(), 2);
/// ```
pub fn simulate_fused(params: &FusedParams) -> FusedResult {
    let (map, n_persistent) = params.shape();
    let table = map.table();
    let timed = Timed::new(&table, params.cfg.dim, params.tuning, &params.topo);
    let tel = &params.telemetry;
    // Telemetry derives slice latency and overlap from the timeline, so it
    // forces recording on even without `trace`.
    let record = params.trace || tel.is_enabled();

    // `sliceRdy` arrivals by flag index, read by the drain (stage 3).
    let mut arrivals = vec![SimTime::ZERO; table.num_flags()];
    let mut runs: Vec<PeRun> = Vec::with_capacity(params.cfg.n_pes);
    let mut fault_stats: Vec<FaultStats> = Vec::new();
    for pes in timed.nics() {
        // Stage 1: each PE's persistent WGs step the protocol per task.
        let mut puts: Vec<(SimTime, Slice)> = Vec::new();
        for pe in pes {
            let timeline = if record {
                Timeline::enabled()
            } else {
                Timeline::disabled()
            };
            let mut st = timed.pe(pe, timeline);
            // Each PE thieves from its own deterministic stream.
            let stream = (pe as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
            let steal = match params.wg_schedule {
                WgSchedule::Stealing { seed } => Some(seed ^ stream),
                _ => None,
            };
            let plans = wg_plans(params, &map, pe, n_persistent);
            let exec = timed.run(&params.gpu, plans, steal, &mut st);
            puts.append(&mut st.puts);
            runs.push(PeRun {
                compute_end: exec.makespan,
                tail: timed.p2p_tail(&st, exec.makespan),
                steals: exec.steals,
                wg_busy: exec.wg_busy,
                timeline: st.timeline,
                ..PeRun::default()
            });
        }

        // Stage 2: the NIC replays its PEs' publications merged by issue
        // time (within a PE, completion order: already chronological).
        puts.sort_by_key(|&(issue, _)| issue);
        let mut wire = Wire::new(*params.topo.link(), params.faults.as_ref(), params.num_qps);
        for (issue, s) in puts {
            let before = wire.sent();
            let bytes = timed.payload_bytes(&s);
            let (_, flag) = wire.publish(issue, &s, bytes);
            arrivals[s.flag] = flag.arrival;
            let (run, after) = (&mut runs[s.src], wire.sent());
            run.messages += after.0 - before.0;
            run.wire_bytes += after.1 - before.1;
            run.payload_bytes += bytes;
            if tel.is_enabled() {
                run.put_spans.push((issue, flag.arrival));
            }
        }
        fault_stats.extend(wire.fault_stats());
    }

    // Stage 3: a PE's kernel ends once its own task loop has drained, its
    // direct stores have left, and every slice destined to it has arrived.
    let mut timelines: Vec<Timeline> = Vec::new();
    let per_pe = runs
        .into_iter()
        .enumerate()
        .map(|(pe, run)| {
            let mut last_arrival = SimTime::ZERO;
            table.drain(pe, |s| {
                last_arrival = last_arrival.max(arrivals[s.flag]);
                ControlFlow::Continue(())
            });
            let body = run.compute_end.max(last_arrival) + run.tail;
            let out = PeOutcome {
                compute_end: run.compute_end,
                last_arrival,
                total: params.gpu.kernel_launch_overhead + body + params.tuning.drain_poll,
                messages: run.messages,
                bytes: run.payload_bytes,
                persistent_wgs: n_persistent,
                steals: run.steals,
            };
            if tel.is_enabled() {
                record_pe_telemetry(tel, pe as u32, &run, &out);
            }
            if params.trace {
                timelines.push(run.timeline);
            }
            out
        })
        .collect();

    FusedResult {
        per_pe,
        timelines,
        fault_stats,
    }
}

/// PE `pe`'s persistent-WG plans: its logical WGs in `params.schedule`
/// order, dealt under `params.wg_schedule`, each priced by the skew.
pub(super) fn wg_plans(params: &FusedParams, map: &SliceMap, pe: usize, n: u32) -> Vec<WgPlan> {
    let order = schedule::order(map, pe as u32, params.schedule);
    let bytes_per_task = params.cfg.bytes_per_pooled_lookup();
    let task = |wg: u32| TaskUnit {
        id: map.task(wg),
        work: match &params.skew {
            Some(skew) => bytes_per_task * skew.multiplier(pe as u32, wg),
            None => bytes_per_task,
        },
    };
    match params.wg_schedule {
        // Static and Stealing deal the priority order round-robin;
        // stealing then rebalances at runtime from the queue tails.
        WgSchedule::Static | WgSchedule::Stealing { .. } => {
            let deal = schedule::assign_to_persistent(&order, n as usize);
            let plan = |wgs: Vec<u32>| WgPlan {
                tasks: wgs.into_iter().map(task).collect(),
            };
            deal.into_iter().map(plan).collect()
        }
        // Oracle: longest-processing-time over the true task costs — each
        // task (heaviest first) goes to the least-loaded slot. Task ids
        // order like WG ids, so ties break as by WG.
        WgSchedule::Oracle => {
            let mut tasks: Vec<TaskUnit> = order.iter().map(|&wg| task(wg)).collect();
            tasks.sort_by(|a, b| b.work.total_cmp(&a.work).then(a.id.cmp(&b.id)));
            let mut plans = vec![WgPlan::default(); n as usize];
            let mut loads = vec![0.0f64; n as usize];
            for t in tasks {
                let slot = (0..loads.len())
                    .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
                    .expect("at least one slot");
                loads[slot] += t.work;
                plans[slot].tasks.push(t);
            }
            plans
        }
    }
}

/// One PE's stage-1 outcome and stage-2 NIC totals.
#[derive(Debug, Default)]
struct PeRun {
    compute_end: SimTime,
    /// Direct-store egress past `compute_end`.
    tail: SimTime,
    steals: u64,
    wg_busy: Vec<SimTime>,
    timeline: Timeline,
    wire_bytes: u64,
    messages: u64,
    payload_bytes: u64,
    /// Per-put [issue, arrival) intervals, when telemetry is on.
    put_spans: Vec<(SimTime, SimTime)>,
}

/// Publishes one PE's metrics and trace tracks.
///
/// Metric names and label conventions are documented in DESIGN.md §9; the
/// trace layout is one `pid` per PE with one `tid` per WG (from the
/// timeline) plus the reserved wire lane carrying the union of in-flight
/// PUT intervals (disjoint by construction, so `B`/`E` nesting holds).
fn record_pe_telemetry(tel: &Telemetry, pe: u32, run: &PeRun, out: &PeOutcome) {
    let pe_label = pe.to_string();
    let labels = [("pe", pe_label.as_str())];
    let reg = &tel.registry;
    let gauge = |name, value| reg.gauge(name, &labels).set(value);
    let timeline = &run.timeline;

    // Per-slice compute latency: first task start to last task end of
    // each slice, from the timeline's tagged compute spans.
    let mut slice_window: std::collections::BTreeMap<u64, (SimTime, SimTime)> =
        std::collections::BTreeMap::new();
    let mut compute_spans: Vec<(SimTime, SimTime)> = Vec::new();
    for s in timeline.spans() {
        if s.kind != SpanKind::Compute {
            continue;
        }
        compute_spans.push((s.start, s.end));
        slice_window
            .entry(s.tag)
            .and_modify(|w| {
                w.0 = w.0.min(s.start);
                w.1 = w.1.max(s.end);
            })
            .or_insert((s.start, s.end));
    }
    let slice_hist = reg.histogram("fused.slice.compute_ns", &labels, 0.0, 16.0e6, 64);
    for (start, end) in slice_window.values() {
        slice_hist.observe(end.saturating_sub(*start).as_nanos_f64());
    }

    // PUT issue -> arrival latency.
    let put_hist = reg.histogram("fused.put.latency_ns", &labels, 0.0, 4.0e6, 64);
    let put_spans = &run.put_spans;
    for &(issue, arrival) in put_spans {
        put_hist.observe(arrival.saturating_sub(issue).as_nanos_f64());
    }

    // Bytes on wire (payload + flags + retransmissions) and messages.
    reg.counter("net.bytes_on_wire", &labels)
        .add(run.wire_bytes);
    reg.counter("net.payload_bytes", &labels)
        .add(run.payload_bytes);
    reg.counter("net.messages", &labels).add(run.messages);

    // WG occupancy and mean busy fraction.
    gauge("fused.wg.occupancy", f64::from(out.persistent_wgs));
    let busy = &run.wg_busy;
    if run.compute_end > SimTime::ZERO && !busy.is_empty() {
        let mean_busy = busy.iter().map(|t| t.as_nanos_f64()).sum::<f64>() / busy.len() as f64;
        gauge(
            "fused.wg.utilization",
            mean_busy / run.compute_end.as_nanos_f64(),
        );
    }
    // `sliceRdy` wait exposed at the drain: arrivals past the end of this
    // PE's own compute are time the kernel sits polling.
    let wait = out.last_arrival.saturating_sub(out.compute_end);
    gauge("fused.wait.drain_ns", wait.as_nanos_f64());
    gauge("fused.wg.steals", out.steals as f64);

    // Overlap efficiency: communication hidden under this PE's compute.
    let overlap = OverlapStats::derive(put_spans, &compute_spans);
    gauge("overlap.comm_ns", overlap.comm_total_ns as f64);
    gauge("overlap.hidden_ns", overlap.comm_hidden_ns as f64);
    gauge("overlap.efficiency", overlap.efficiency());

    // Trace: WG tracks from the timeline, wire lane from the PUT union.
    let sink = &tel.trace;
    if sink.is_enabled() {
        sink.record_timeline(pe, timeline);
        sink.name_thread(pe, TID_WIRE, "wire");
        let wire = TrackId::new(pe, TID_WIRE);
        for (start, end) in union_intervals(put_spans) {
            sink.span(wire, "puts_in_flight", start, end, None);
        }
        for &(_, arrival) in put_spans {
            sink.instant(wire, "slice_arrival", arrival, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;
    use fcc_sim::trace::PointKind;

    fn small_params() -> FusedParams {
        let mut cfg = DlrmConfig::hw_eval(2, 64, 4);
        cfg.pooling = 8;
        FusedParams {
            slice_embeddings: 8,
            ..FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib())
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = small_params();
        let a = simulate_fused(&p);
        let b = simulate_fused(&p);
        assert_eq!(a.per_pe, b.per_pe);
        assert!(a.makespan() > SimTime::ZERO);
    }

    #[test]
    fn message_counts_match_remote_slices() {
        let p = small_params();
        let r = simulate_fused(&p);
        // Local batch 32, slice 8 -> 4 slices per shard; 4 tables x 1
        // remote shard x 4 = 16 payloads + 16 flags per PE.
        for pe in &r.per_pe {
            assert_eq!(pe.messages, 32);
            // Payload bytes: 16 slices x 8 embeddings x 256 dim x 4 B.
            assert_eq!(pe.bytes, 16 * 8 * 256 * 4);
        }
    }

    #[test]
    fn total_includes_arrivals_and_overheads() {
        let r = simulate_fused(&small_params());
        for pe in &r.per_pe {
            assert!(pe.total >= pe.compute_end);
            assert!(pe.total >= pe.last_arrival);
            assert!(pe.last_arrival > SimTime::ZERO, "remote slices must arrive");
        }
    }

    #[test]
    fn comm_aware_schedule_issues_puts_earlier() {
        // Cap occupancy so task loops are long — with fewer tasks than
        // persistent WGs every slice starts at t=0 and order is moot.
        let mut aware = small_params();
        aware.trace = true;
        aware.occupancy_cap = Some(16);
        let mut oblivious = aware.clone();
        oblivious.schedule = ScheduleKind::Oblivious;
        let ra = simulate_fused(&aware);
        let ro = simulate_fused(&oblivious);
        // PE 0's first remote PUT under comm-aware precedes oblivious
        // (under oblivious, PE 0 computes its local shard first).
        let first_put = |r: &FusedResult| {
            r.timelines[0]
                .points()
                .iter()
                .filter(|p| p.kind == PointKind::RemotePut)
                .map(|p| p.at)
                .min()
                .unwrap()
        };
        assert!(first_put(&ra) < first_put(&ro));
    }

    #[test]
    fn comm_aware_reduces_skew() {
        let mut aware = small_params();
        aware.cfg.global_batch = 128;
        aware.occupancy_cap = Some(16);
        let mut oblivious = aware.clone();
        oblivious.schedule = ScheduleKind::Oblivious;
        let ra = simulate_fused(&aware);
        let ro = simulate_fused(&oblivious);
        assert!(
            ra.skew() <= ro.skew(),
            "aware skew {} vs oblivious {}",
            ra.skew(),
            ro.skew()
        );
    }

    #[test]
    fn occupancy_cap_changes_compute_time() {
        let base = small_params();
        let mut capped = base.clone();
        capped.occupancy_cap = Some(8);
        let rb = simulate_fused(&base);
        let rc = simulate_fused(&capped);
        assert_eq!(rc.per_pe[0].persistent_wgs, 8);
        assert!(rc.per_pe[0].compute_end > rb.per_pe[0].compute_end);
    }

    #[test]
    fn tracing_produces_timelines() {
        let mut p = small_params();
        p.trace = true;
        let r = simulate_fused(&p);
        assert_eq!(r.timelines.len(), 2);
        assert!(!r.timelines[0].spans().is_empty());
        assert!(r.timelines[0]
            .points()
            .iter()
            .any(|pt| pt.kind == PointKind::RemotePut));
        assert!(r.timelines[0]
            .points()
            .iter()
            .any(|pt| pt.kind == PointKind::LocalSliceComplete));
    }

    #[test]
    fn telemetry_records_metrics_and_valid_trace() {
        let mut p = small_params();
        p.telemetry = Telemetry::enabled();
        let r = simulate_fused(&p);
        let snap = p.telemetry.registry.snapshot();

        // Per-PE overlap efficiency exists and is a sane fraction.
        let effs = snap.gauges_named("overlap.efficiency");
        assert_eq!(effs.len(), 2);
        assert!(effs.iter().all(|e| (0.0..=1.0).contains(e)), "{effs:?}");

        // Counters agree with the result struct.
        for (pe, out) in r.per_pe.iter().enumerate() {
            let label = pe.to_string();
            let labels = [("pe", label.as_str())];
            assert_eq!(snap.counter("net.messages", &labels), Some(out.messages));
            assert_eq!(snap.counter("net.payload_bytes", &labels), Some(out.bytes));
            let wire = snap.counter("net.bytes_on_wire", &labels).unwrap();
            assert!(wire > out.bytes, "wire bytes include flags");
            assert!(snap.gauge("fused.wait.drain_ns", &labels).is_some());
            assert!(snap.gauge("fused.wg.utilization", &labels).is_some());
        }

        // Slice latency histograms saw every slice.
        let h = snap
            .histogram("fused.slice.compute_ns", &[("pe", "0")])
            .unwrap();
        assert!(h.count > 0);

        // The merged trace round-trips through the checker with PE/WG and
        // wire tracks present.
        let json = fcc_telemetry::export_chrome_trace(&p.telemetry.trace.data());
        let report = fcc_telemetry::check_chrome_trace(&json).expect("valid chrome trace");
        assert!(report.spans > 0);
        assert!(report.tracks.iter().any(|t| t == "pe0/wire"), "{report:?}");
        assert!(report.tracks.iter().any(|t| t.starts_with("pe1/wg")));
    }

    #[test]
    fn telemetry_does_not_change_timings() {
        let base = simulate_fused(&small_params());
        let mut p = small_params();
        p.telemetry = Telemetry::enabled();
        let instrumented = simulate_fused(&p);
        assert_eq!(base.per_pe, instrumented.per_pe);
    }

    #[test]
    fn fault_free_plan_matches_clean_endpoint() {
        // A FaultPlan with no faults composed must price identically to
        // the plain endpoint — the wrapper adds no hidden cost.
        let mut p = small_params();
        p.faults = Some(FaultPlan::new(42));
        let faulty = simulate_fused(&p);
        let clean = simulate_fused(&small_params());
        assert_eq!(faulty.per_pe, clean.per_pe);
        assert_eq!(faulty.fault_stats.len(), 2);
        assert!(faulty
            .fault_stats
            .iter()
            .all(|s| s.drops == 0 && s.posted > 0));
    }

    #[test]
    fn injected_drops_slow_the_fused_kernel_and_count() {
        let mut p = small_params();
        p.faults = Some(FaultPlan::new(42).with_drop_rate(0.3));
        let r = simulate_fused(&p);
        let clean = simulate_fused(&small_params());
        let drops: u64 = r.fault_stats.iter().map(|s| s.drops).sum();
        let rebytes: u64 = r.fault_stats.iter().map(|s| s.retransmitted_bytes).sum();
        assert!(drops > 0, "30% drop rate must lose attempts");
        assert!(rebytes > 0, "lost attempts re-serialize");
        assert!(
            r.makespan() > clean.makespan(),
            "retransmission timeouts must push the drain later"
        );
    }

    #[test]
    fn injected_corruption_counts_and_detectable_kinds_cost_like_drops() {
        let mut p = small_params();
        p.faults = Some(FaultPlan::new(42).with_corrupt_only(0.4, fcc_net::CorruptKind::BitFlip));
        let r = simulate_fused(&p);
        let clean = simulate_fused(&small_params());
        let injected: u64 = r.fault_stats.iter().map(|s| s.corrupt_injected).sum();
        let detected: u64 = r.fault_stats.iter().map(|s| s.corrupt_detected).sum();
        assert!(injected > 0, "40% corruption must hit attempts");
        assert_eq!(detected, injected, "bit flips break the wire checksum");
        assert!(
            r.makespan() > clean.makespan(),
            "detected corruption retransmits, pushing the drain later"
        );
    }

    #[test]
    fn self_consistent_corruption_escapes_at_no_timing_cost() {
        let mut p = small_params();
        p.faults =
            Some(FaultPlan::new(42).with_corrupt_only(0.4, fcc_net::CorruptKind::StaleReplay));
        let r = simulate_fused(&p);
        let clean = simulate_fused(&small_params());
        let injected: u64 = r.fault_stats.iter().map(|s| s.corrupt_injected).sum();
        let escaped: u64 = r.fault_stats.iter().map(|s| s.corrupt_escaped).sum();
        assert!(injected > 0);
        assert_eq!(escaped, injected, "replays pass the wire check");
        assert_eq!(
            r.per_pe, clean.per_pe,
            "an escape is delivered on time — the cost lands on the ABFT layer, not the wire"
        );
    }

    #[test]
    fn faulty_simulation_is_deterministic() {
        let mut p = small_params();
        p.faults = Some(
            FaultPlan::new(7)
                .with_drop_rate(0.2)
                .with_delay(0.2, SimTime::from_micros(5))
                .with_dup_rate(0.1),
        );
        let a = simulate_fused(&p);
        let b = simulate_fused(&p);
        assert_eq!(a.per_pe, b.per_pe);
        assert_eq!(a.fault_stats, b.fault_stats);
    }

    #[test]
    #[should_panic(expected = "single-QP")]
    fn fault_injection_rejects_multi_qp() {
        let mut p = small_params();
        p.num_qps = 4;
        p.faults = Some(FaultPlan::new(1));
        simulate_fused(&p);
    }

    fn skewed_params() -> FusedParams {
        let mut p = small_params();
        p.cfg.global_batch = 256;
        p.occupancy_cap = Some(8);
        p.skew = Some(SkewSpec::stragglers(0.2, 8.0, 11));
        p
    }

    #[test]
    fn stealing_beats_static_under_stragglers() {
        let base = skewed_params();
        let mut stealing = base.clone();
        stealing.wg_schedule = WgSchedule::Stealing { seed: 1 };
        let rs = simulate_fused(&base);
        let rw = simulate_fused(&stealing);
        assert!(
            rw.makespan() < rs.makespan(),
            "stealing {} vs static {}",
            rw.makespan().as_nanos(),
            rs.makespan().as_nanos()
        );
        assert!(rw.per_pe.iter().any(|p| p.steals > 0));
        assert!(rs.per_pe.iter().all(|p| p.steals == 0));
    }

    #[test]
    fn stealing_tracks_the_oracle_under_stragglers() {
        let mut stealing = skewed_params();
        stealing.wg_schedule = WgSchedule::Stealing { seed: 1 };
        let mut oracle = skewed_params();
        oracle.wg_schedule = WgSchedule::Oracle;
        let rw = simulate_fused(&stealing);
        let ro = simulate_fused(&oracle);
        let (w, o) = (rw.makespan().as_nanos_f64(), ro.makespan().as_nanos_f64());
        assert!(
            w <= o * 1.05,
            "stealing {w} must be within 5% of oracle {o}"
        );
    }

    #[test]
    fn schedules_agree_without_skew() {
        // With uniform task costs, total work and message counts are
        // schedule-independent; stealing may only trim idle tails.
        let base = small_params();
        let mut stealing = base.clone();
        stealing.wg_schedule = WgSchedule::Stealing { seed: 3 };
        let rs = simulate_fused(&base);
        let rw = simulate_fused(&stealing);
        for (a, b) in rs.per_pe.iter().zip(&rw.per_pe) {
            assert_eq!(a.messages, b.messages);
            assert_eq!(a.bytes, b.bytes);
        }
        assert!(rw.makespan() <= rs.makespan());
    }

    #[test]
    fn stealing_simulation_is_deterministic() {
        let mut p = skewed_params();
        p.wg_schedule = WgSchedule::Stealing { seed: 9 };
        let a = simulate_fused(&p);
        let b = simulate_fused(&p);
        assert_eq!(a.per_pe, b.per_pe);
    }

    #[test]
    fn pe_rate_skew_slows_only_the_throttled_pe() {
        let mut p = small_params();
        p.skew = Some(SkewSpec {
            pe_mult: vec![1.0, 2.0],
            straggler_rate: 0.0,
            straggler_factor: 1.0,
            seed: 0,
        });
        let r = simulate_fused(&p);
        let clean = simulate_fused(&small_params());
        assert_eq!(r.per_pe[0].compute_end, clean.per_pe[0].compute_end);
        assert!(r.per_pe[1].compute_end > clean.per_pe[1].compute_end);
    }

    #[test]
    fn telemetry_exposes_steal_counts() {
        let mut p = skewed_params();
        p.wg_schedule = WgSchedule::Stealing { seed: 2 };
        p.telemetry = Telemetry::enabled();
        let r = simulate_fused(&p);
        let snap = p.telemetry.registry.snapshot();
        for (pe, out) in r.per_pe.iter().enumerate() {
            let label = pe.to_string();
            let labels = [("pe", label.as_str())];
            assert_eq!(
                snap.gauge("fused.wg.steals", &labels),
                Some(out.steals as f64)
            );
        }
    }

    #[test]
    fn single_pe_has_no_messages() {
        let mut cfg = DlrmConfig::hw_eval(1, 64, 2);
        cfg.pooling = 8;
        let p = FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib());
        let r = simulate_fused(&p);
        assert_eq!(r.per_pe[0].messages, 0);
        assert_eq!(r.per_pe[0].last_arrival, SimTime::ZERO);
    }
}
