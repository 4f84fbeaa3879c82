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
//!    list. Each distinct PE is simulated once: under a static deal, a PE
//!    whose inputs are an already simulated PE's up to a relabelling of
//!    slices (`isomorphism`) takes that PE's run, relabelled — the
//!    executor sees only work and overheads, and the step's overheads
//!    depend only on a slice's length and class, so the two runs are the
//!    same floating-point event sequence.
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

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use fcc_dlrm::DlrmConfig;
use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::{PersistentExec, TaskUnit, WgPlan};
use fcc_gpu::kernel::KernelResources;
use fcc_net::{FaultPlan, FaultStats, Nic, Topology};
use fcc_sim::SimTime;
use fcc_telemetry::trace::{TrackId, TID_WIRE};
use fcc_telemetry::{union_intervals, OverlapStats, Telemetry, TraceRecord};

use crate::op::protocol::{Backend, Slice, SliceTable};
use crate::schedule::{self, ScheduleKind};
use crate::slice::SliceMap;

use super::timed::{hbm_exec, persistent_wgs, Timed};
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
    /// Inject faults into the network stage: every NIC rides out the plan
    /// (go-back-N retransmission, FIFO per queue pair preserved), and
    /// per-NIC [`FaultStats`] land in the result.
    pub faults: Option<FaultPlan>,
    /// Unified telemetry. When enabled, the simulation records each PE's
    /// compute spans and slice publications (one track per PE × WG, the
    /// Figure 9 timeline) plus a per-PE wire lane into the trace sink,
    /// publishes the hot-path metrics (`fused.*`, `net.*`, `overlap.*` —
    /// see DESIGN.md §9), and derives per-PE overlap efficiency.
    /// [`Telemetry::disabled`] (the default) costs nothing.
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

    /// One NIC of this point: the topology's link, `num_qps` queue pairs,
    /// and the fault plan if there is one.
    pub(crate) fn nic(&self) -> Nic {
        let nic = Nic::new(*self.topo.link()).with_qps(self.num_qps);
        match &self.faults {
            Some(plan) => nic.with_faults(plan.clone()),
            None => nic,
        }
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

    // Stage 1: each PE's persistent WGs step the protocol per task.
    let mut runs = compute(params, &map, &timed, n_persistent);
    // Stage 2: each NIC replays its PEs' publications.
    let (arrivals, fault_stats) = replay(params, &timed, &mut runs);

    // Stage 3: a PE's kernel ends once its own task loop has drained, its
    // direct stores have left, and every slice destined to it has arrived.
    // Traces are flushed here, PE by PE, so each PE's WG tracks precede its
    // wire lane.
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
                record_pe_telemetry(tel, pe as u32, run, &out);
            }
            out
        })
        .collect();

    FusedResult {
        per_pe,
        fault_stats,
    }
}

/// Stage 1 for every PE, in PE order. Under [`WgSchedule::Static`], a PE
/// whose inputs are isomorphic to an already simulated PE's takes that
/// PE's run, relabelled; every other PE is simulated ([`run_pe`]).
/// Stealing draws a per-PE stream and the oracle breaks ties by task id,
/// so under those deals every PE is simulated.
fn compute(params: &FusedParams, map: &SliceMap, timed: &Timed, n: u32) -> Vec<PeRun> {
    let mut runs: Vec<PeRun> = Vec::with_capacity(params.cfg.n_pes);
    // The simulated PEs a later PE may share with, and their orders.
    let mut simulated: Vec<(usize, Vec<u32>)> = Vec::new();
    let shares = params.wg_schedule == WgSchedule::Static;
    for pe in 0..params.cfg.n_pes {
        let order = schedule::order(map, pe as u32, params.schedule);
        let shared = simulated.iter().find_map(|(p, of_p)| {
            Some((*p, isomorphism(params, map, timed, *p, of_p, pe, &order)?))
        });
        let run = match shared {
            Some((p, sigma)) => runs[p].relabel(pe, &sigma, timed.table),
            None => {
                let run = run_pe(params, map, timed, pe, &order, n);
                if shares {
                    simulated.push((pe, order));
                }
                run
            }
        };
        runs.push(run);
    }
    runs
}

/// Stage 2: each NIC replays its PEs' publications, merged by issue time
/// (within a PE, completion order: already chronological), and adds its
/// PEs' NIC totals to their runs. Returns the `sliceRdy` arrivals by flag
/// index, which the drain reads, and each NIC's fault stats.
fn replay(
    params: &FusedParams,
    timed: &Timed,
    runs: &mut [PeRun],
) -> (Vec<SimTime>, Vec<FaultStats>) {
    let record = params.telemetry.is_enabled();
    let mut arrivals = vec![SimTime::ZERO; timed.table.num_flags()];
    let mut fault_stats: Vec<FaultStats> = Vec::new();
    for pes in timed.nics() {
        let mut puts: Vec<(SimTime, Slice)> = (runs[pes].iter_mut())
            .flat_map(|run| std::mem::take(&mut run.puts))
            .collect();
        puts.sort_by_key(|&(issue, _)| issue);
        let mut nic = params.nic();
        for (issue, s) in puts {
            let before = (nic.posted(), nic.bytes_sent());
            let (_, flag) = timed.publish(&mut nic, issue, &s);
            arrivals[s.flag] = flag.arrival;
            let run = &mut runs[s.src];
            run.messages += nic.posted() - before.0;
            run.wire_bytes += nic.bytes_sent() - before.1;
            run.payload_bytes += timed.payload_bytes(&s);
            if record {
                run.put_spans.push((issue, flag.arrival));
            }
        }
        fault_stats.extend(nic.fault_stats());
    }
    (arrivals, fault_stats)
}

/// PE `pe`'s stage 1, simulated: its `n` persistent WGs run `order` and
/// step the protocol on every task completion.
fn run_pe(
    params: &FusedParams,
    map: &SliceMap,
    timed: &Timed,
    pe: usize,
    order: &[u32],
    n: u32,
) -> PeRun {
    // Metrics derive slice latency and overlap from the recorded compute
    // spans, so any enabled part of telemetry records.
    let mut st = timed.pe(pe, params.telemetry.is_enabled());
    let exec = pe_exec(params, map, pe, order, n).run(|c| timed.complete(&mut st, c));
    PeRun {
        compute_end: exec.makespan,
        tail: timed.p2p_tail(&st, exec.makespan),
        steals: exec.steals,
        wg_busy: exec.wg_busy,
        puts: st.puts,
        records: st.records.unwrap_or_default(),
        ..PeRun::default()
    }
}

/// Whether PE `q`'s stage-1 inputs are PE `p`'s up to a relabelling of
/// slices, given both PEs' task orders; if so, the relabelling `σ`: PE
/// `q`'s slice `σ[k]` plays PE `p`'s slice `k`.
///
/// Both orders are dealt onto the same persistent WGs, so position `i` of
/// either is the same WG's same iteration. The inputs are isomorphic if
/// every position holds bit-equal work and the positions' slices
/// correspond one to one, keeping `len` and class (own, P2P or network).
/// That is all the timed run reads: the executor sees work and the
/// step's overheads, and a step's overhead depends only on whether its
/// slice's `WG_Done` count reached `len` and on the slice's class.
fn isomorphism(
    params: &FusedParams,
    map: &SliceMap,
    timed: &Timed,
    p: usize,
    order_p: &[u32],
    q: usize,
    order_q: &[u32],
) -> Option<Vec<u32>> {
    const UNSET: u32 = u32::MAX;
    let (slices_p, slices_q) = (timed.table.slices(p), timed.table.slices(q));
    let class = |s: &Slice| (s.dst == s.src, timed.is_p2p(s));
    let mut sigma = vec![UNSET; slices_p.len()];
    let mut taken = vec![false; slices_q.len()];
    // Without a skew every task's work is the same constant.
    let skewed = params.skew.is_some();
    for (&wp, &wq) in order_p.iter().zip(order_q) {
        if skewed && task_work(params, p, wp).to_bits() != task_work(params, q, wq).to_bits() {
            return None;
        }
        let (a, b) = (map.slice_of_wg(wp).id as usize, map.slice_of_wg(wq).id);
        match sigma[a] {
            UNSET => {
                let (sa, sb) = (&slices_p[a], &slices_q[b as usize]);
                if taken[b as usize] || sa.len != sb.len || class(sa) != class(sb) {
                    return None;
                }
                sigma[a] = b;
                taken[b as usize] = true;
            }
            mapped if mapped != b => return None,
            _ => {}
        }
    }
    Some(sigma)
}

/// PE `pe`'s `n` persistent WGs on its HBM, running its [`wg_plans`] for
/// `order`; under [`WgSchedule::Stealing`] each PE thieves from its own
/// deterministic stream.
pub(super) fn pe_exec(
    params: &FusedParams,
    map: &SliceMap,
    pe: usize,
    order: &[u32],
    n: u32,
) -> PersistentExec {
    let exec = hbm_exec(&params.gpu, wg_plans(params, map, pe, order, n));
    match params.wg_schedule {
        WgSchedule::Stealing { seed } => {
            exec.with_stealing(seed ^ (pe as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
        }
        _ => exec,
    }
}

/// The work of PE `pe`'s logical WG `wg`, priced by the skew.
fn task_work(params: &FusedParams, pe: usize, wg: u32) -> f64 {
    let bytes_per_task = params.cfg.bytes_per_pooled_lookup();
    match &params.skew {
        Some(skew) => bytes_per_task * skew.multiplier(pe as u32, wg),
        None => bytes_per_task,
    }
}

/// PE `pe`'s persistent-WG plans: its logical WGs in `order` (its
/// `params.schedule` order), dealt under `params.wg_schedule`, each priced
/// by the skew.
fn wg_plans(params: &FusedParams, map: &SliceMap, pe: usize, order: &[u32], n: u32) -> Vec<WgPlan> {
    let task = |wg: u32| TaskUnit {
        id: map.task(wg),
        work: task_work(params, pe, wg),
    };
    match params.wg_schedule {
        // Static and Stealing deal the priority order round-robin;
        // stealing then rebalances at runtime from the queue tails.
        // `order[i]` runs as iteration `i / n` of persistent WG `i % n`.
        WgSchedule::Static | WgSchedule::Stealing { .. } => {
            let per_wg = order.len().div_ceil(n as usize);
            let mut plans: Vec<WgPlan> = (0..n)
                .map(|_| WgPlan {
                    tasks: Vec::with_capacity(per_wg),
                })
                .collect();
            for round in order.chunks(n as usize) {
                for (plan, &wg) in plans.iter_mut().zip(round) {
                    plan.tasks.push(task(wg));
                }
            }
            plans
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
#[derive(Debug, Default, PartialEq)]
struct PeRun {
    compute_end: SimTime,
    /// Direct-store egress past `compute_end`.
    tail: SimTime,
    steals: u64,
    wg_busy: Vec<SimTime>,
    /// Network publications in issue order, until stage 2 replays them.
    puts: Vec<(SimTime, Slice)>,
    /// The timed clock's records, when telemetry is on.
    records: Vec<TraceRecord>,
    wire_bytes: u64,
    messages: u64,
    payload_bytes: u64,
    /// Per-put [issue, arrival) intervals, when telemetry is on.
    put_spans: Vec<(SimTime, SimTime)>,
}

impl PeRun {
    /// This stage-1 run as PE `q`'s, whose slice `sigma[k]` plays this
    /// PE's slice `k` (see [`isomorphism`]): the same times, with every
    /// put and record moved onto `q` and its slices.
    fn relabel(&self, q: usize, sigma: &[u32], table: &SliceTable) -> PeRun {
        let slice = |k: usize| table.slices(q)[sigma[k] as usize];
        let record = |r: &TraceRecord| {
            let mut r = r.clone();
            if let TraceRecord::Span { track, tag, .. } | TraceRecord::Instant { track, tag, .. } =
                &mut r
            {
                track.pid = q as u32;
                *tag = tag.map(|k| u64::from(sigma[k as usize]));
            }
            r
        };
        PeRun {
            compute_end: self.compute_end,
            tail: self.tail,
            steals: self.steals,
            wg_busy: self.wg_busy.clone(),
            puts: self
                .puts
                .iter()
                .map(|&(t, s)| (t, slice(s.index)))
                .collect(),
            records: self.records.iter().map(record).collect(),
            ..PeRun::default()
        }
    }
}

/// Publishes one PE's metrics and trace tracks.
///
/// Metric names and label conventions are documented in DESIGN.md §9; the
/// trace layout is one `pid` per PE with one `tid` per WG (the timed
/// clock's records) plus the reserved wire lane carrying the union of
/// in-flight PUT intervals (disjoint by construction, so `B`/`E` nesting
/// holds).
fn record_pe_telemetry(tel: &Telemetry, pe: u32, run: PeRun, out: &PeOutcome) {
    let pe_label = pe.to_string();
    let labels = [("pe", pe_label.as_str())];
    let reg = &tel.registry;
    let gauge = |name, value| reg.gauge(name, &labels).set(value);

    // Per-slice compute latency: first task start to last task end of
    // each slice, from the tagged compute spans (the records' only spans).
    let mut slice_window: BTreeMap<u64, (SimTime, SimTime)> = BTreeMap::new();
    let mut compute_spans: Vec<(SimTime, SimTime)> = Vec::new();
    for r in &run.records {
        if let &TraceRecord::Span {
            start,
            end,
            tag: Some(slice),
            ..
        } = r
        {
            compute_spans.push((start, end));
            slice_window
                .entry(slice)
                .and_modify(|w| {
                    w.0 = w.0.min(start);
                    w.1 = w.1.max(end);
                })
                .or_insert((start, end));
        }
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

    // Trace: the WG tracks as recorded, the wire lane from the PUT union.
    let sink = &tel.trace;
    if sink.is_enabled() {
        // Every persistent WG runs at least its first task.
        sink.name_process(pe, &format!("pe{pe}"));
        for wg in 0..out.persistent_wgs {
            sink.name_thread(pe, wg, &format!("wg{wg}"));
        }
        sink.extend(run.records);
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
    use fcc_telemetry::{TraceData, TraceSink};

    fn small_params() -> FusedParams {
        let mut cfg = DlrmConfig::hw_eval(2, 64, 4);
        cfg.pooling = 8;
        FusedParams {
            slice_embeddings: 8,
            ..FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib())
        }
    }

    /// Runs `p` with only the trace sink on.
    fn traced(mut p: FusedParams) -> (FusedResult, TraceData) {
        let sink = TraceSink::enabled();
        p.telemetry = Telemetry {
            trace: sink.clone(),
            ..Telemetry::disabled()
        };
        (simulate_fused(&p), sink.data())
    }

    /// Timestamps of PE `pe`'s instants named `name` on its WG tracks.
    fn instants(d: &TraceData, pe: u32, name: &str) -> Vec<SimTime> {
        (d.records.iter())
            .filter_map(|r| match r {
                TraceRecord::Instant {
                    track, name: n, at, ..
                } if track.pid == pe && track.tid < TID_WIRE && n == name => Some(*at),
                _ => None,
            })
            .collect()
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
        aware.occupancy_cap = Some(16);
        let mut oblivious = aware.clone();
        oblivious.schedule = ScheduleKind::Oblivious;
        let (_, ta) = traced(aware);
        let (_, to) = traced(oblivious);
        // PE 0's first remote PUT under comm-aware precedes oblivious
        // (under oblivious, PE 0 computes its local shard first).
        let first_put = |d: &TraceData| instants(d, 0, "remote_put").into_iter().min().unwrap();
        assert!(first_put(&ta) < first_put(&to));
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
        let (_, d) = traced(small_params());
        assert_eq!(d.processes.len(), 2);
        assert!(d.records.iter().any(|r| {
            let t = r.track();
            matches!(r, TraceRecord::Span { .. }) && t.pid == 0 && t.tid < TID_WIRE
        }));
        assert!(!instants(&d, 0, "remote_put").is_empty());
        assert!(!instants(&d, 0, "local_slice").is_empty());
    }

    #[test]
    fn trace_holds_one_compute_span_per_task_and_one_put_per_network_slice() {
        let p = small_params();
        let tasks = p.shape().0.num_wgs() as usize;
        let (r, d) = traced(p);
        for (pe, out) in r.per_pe.iter().enumerate() {
            let pid = pe as u32;
            let computes = (d.records.iter())
                .filter(|r| {
                    let t = r.track();
                    matches!(r, TraceRecord::Span { name, .. } if name == "compute")
                        && t.pid == pid
                        && t.tid < TID_WIRE
                })
                .count();
            assert_eq!(computes, tasks, "PE {pe}");
            let puts = instants(&d, pid, "remote_put").len() as u64;
            assert_eq!(puts, out.messages / 2, "PE {pe}");
            assert_eq!(d.processes[&pid], format!("pe{pe}"));
            for r in &d.records {
                let t = r.track();
                if t.pid == pid && t.tid < TID_WIRE {
                    assert_eq!(d.threads[&(pid, t.tid)], format!("wg{}", t.tid));
                }
            }
        }
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
    fn faults_ride_multiple_queue_pairs() {
        let mut clean = small_params();
        clean.num_qps = 4;
        let mut p = clean.clone();
        p.faults = Some(FaultPlan::new(1));
        let (clean, free) = (simulate_fused(&clean), simulate_fused(&p));
        assert_eq!(free.per_pe, clean.per_pe, "a fault-free plan adds no cost");
        p.faults = Some(FaultPlan::new(42).with_drop_rate(0.3));
        let lossy = simulate_fused(&p);
        assert!(lossy.fault_stats.iter().all(|s| s.drops > 0));
        assert!(lossy.makespan() > clean.makespan());
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

    /// Checks `p`'s stage 1 as the shared path prices it against every
    /// PE simulated directly, through `pe_exec` and the timed step, and
    /// the NIC replay of both; returns how many PEs the shared path took
    /// from an isomorphic PE.
    fn shared_matches_direct(p: &FusedParams) -> usize {
        let (map, n) = p.shape();
        let table = map.table();
        let timed = Timed::new(&table, p.cfg.dim, p.tuning, &p.topo);
        let orders: Vec<Vec<u32>> = (0..p.cfg.n_pes)
            .map(|pe| schedule::order(&map, pe as u32, p.schedule))
            .collect();
        let mut direct: Vec<PeRun> = (0..p.cfg.n_pes)
            .map(|pe| {
                let mut st = timed.pe(pe, p.telemetry.is_enabled());
                let exec = pe_exec(p, &map, pe, &orders[pe], n).run(|c| timed.complete(&mut st, c));
                PeRun {
                    compute_end: exec.makespan,
                    tail: timed.p2p_tail(&st, exec.makespan),
                    steals: exec.steals,
                    wg_busy: exec.wg_busy,
                    puts: st.puts,
                    records: st.records.unwrap_or_default(),
                    ..PeRun::default()
                }
            })
            .collect();
        let mut shared = compute(p, &map, &timed, n);
        assert_eq!(shared, direct);
        assert_eq!(
            replay(p, &timed, &mut shared),
            replay(p, &timed, &mut direct)
        );
        assert_eq!(shared, direct, "NIC totals");
        let static_deal = p.wg_schedule == WgSchedule::Static;
        (0..p.cfg.n_pes)
            .filter(|&q| {
                static_deal
                    && (0..q).any(|pe| {
                        isomorphism(p, &map, &timed, pe, &orders[pe], q, &orders[q]).is_some()
                    })
            })
            .count()
    }

    #[test]
    fn comm_aware_pes_share_their_compute_stage() {
        assert_eq!(shared_matches_direct(&small_params()), 1);
        let mut p = small_params();
        p.telemetry = Telemetry::enabled();
        assert_eq!(shared_matches_direct(&p), 1, "records relabel too");
    }

    #[test]
    fn nic_sharing_pes_share_within_isomorphism_classes() {
        // 4 PEs behind 2 NICs: PE 0's P2P peer is PE 1, PE 2's is PE 3.
        // Comm-aware, PE 1 plays PE 0 and PE 3 plays PE 2; PE 2 computes
        // its P2P slices where PE 0 computes network ones.
        let mut cfg = DlrmConfig::hw_eval(4, 64, 4);
        cfg.pooling = 8;
        let mut p = FusedParams {
            slice_embeddings: 8,
            occupancy_cap: Some(16),
            ..FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib())
        };
        assert_eq!(shared_matches_direct(&p), 2);
        p.telemetry = Telemetry::enabled();
        assert_eq!(shared_matches_direct(&p), 2);
    }

    #[test]
    fn oblivious_pes_do_not_share() {
        // Fig. 13's skew: PE 0 starts on its own shard, PE 1 on a remote one.
        let mut p = small_params();
        p.schedule = ScheduleKind::Oblivious;
        assert_eq!(shared_matches_direct(&p), 0);
    }

    #[test]
    fn skewed_stealing_and_oracle_pes_do_not_share() {
        let mut throttled = small_params();
        throttled.skew = Some(SkewSpec {
            pe_mult: vec![1.0, 2.0],
            straggler_rate: 0.0,
            straggler_factor: 1.0,
            seed: 0,
        });
        assert_eq!(shared_matches_direct(&throttled), 0);
        for wg_schedule in [WgSchedule::Stealing { seed: 3 }, WgSchedule::Oracle] {
            let p = FusedParams {
                wg_schedule,
                ..small_params()
            };
            assert_eq!(shared_matches_direct(&p), 0, "{wg_schedule:?}");
        }
    }

    #[test]
    fn faulty_pes_share_compute_and_keep_per_nic_fault_stats() {
        let mut p = small_params();
        p.faults = Some(FaultPlan::new(42).with_drop_rate(0.3));
        assert_eq!(shared_matches_direct(&p), 1);
        assert!(simulate_fused(&p).fault_stats.iter().all(|s| s.drops > 0));
    }

    /// `order` dealt onto `n` persistent WGs by `wg_plans`, read back as the
    /// logical WGs each plan runs.
    fn dealt(map: &SliceMap, order: &[u32], n: u32) -> Vec<Vec<u32>> {
        let wg_of: std::collections::HashMap<u64, u32> =
            (0..map.num_wgs()).map(|wg| (map.task(wg), wg)).collect();
        let plans = wg_plans(&small_params(), map, 0, order, n);
        let wgs = |plan: WgPlan| plan.tasks.iter().map(|t| wg_of[&t.id]).collect();
        plans.into_iter().map(wgs).collect()
    }

    #[test]
    fn static_deal_is_strided_balanced_and_keeps_order() {
        let map = SliceMap::new(2, 1, 16, 4);
        let order: Vec<u32> = (0..10).collect();
        let plans = dealt(&map, &order, 3);
        assert_eq!(plans, [vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
    }

    #[test]
    fn static_deal_with_more_wgs_than_tasks() {
        let map = SliceMap::new(2, 1, 16, 4);
        let plans = dealt(&map, &[5, 6], 4);
        assert_eq!(plans, [vec![5], vec![6], vec![], vec![]]);
    }

    #[test]
    fn cluster_wgs_land_on_distinct_persistent_wgs() {
        // A slice of 4 consecutive WGs dealt onto >=4 persistent WGs runs
        // fully concurrently.
        let map = SliceMap::new(2, 1, 16, 4);
        let o = schedule::order(&map, 0, ScheduleKind::Oblivious);
        let plans = dealt(&map, &o, 8);
        let owners: std::collections::HashSet<usize> = (0..4)
            .map(|wg| plans.iter().position(|p| p.contains(&wg)).unwrap())
            .collect();
        assert_eq!(owners.len(), 4);
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
