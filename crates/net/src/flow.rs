//! Flow-level fair-sharing fabric simulation — the fast path.
//!
//! The packet-level model in [`crate::fabric`] schedules an event per
//! 16 KiB chunk per hop, so an All-to-All at 1k+ nodes explodes into
//! billions of events. This module models each message as a *fluid flow*
//! instead: a flow occupies every directed link on its (deterministic,
//! shared-with-the-packet-sim) path for the whole time it drains, and
//! link capacity is split fairly among the flows crossing it. Events
//! happen only on flow arrival and flow completion — the dslab-style
//! "fast algorithm" idea of incremental completion-time maintenance,
//! generalized from one shared resource to a path of them.
//!
//! # Fairness definition
//!
//! The allocation is **bottleneck-fair**: with `n_l` active flows on
//! link `l` of capacity `C`, link `l`'s fair share is `C / n_l`, and a
//! flow's rate is the minimum fair share over its path:
//!
//! ```text
//! rate_f = min over l in path(f) of C / n_l
//! ```
//!
//! Bottleneck-fair is deliberately conservative versus full max-min: a
//! flow bottlenecked elsewhere leaves its surplus share unclaimed rather
//! than redistributed. That slack absorbs real packet-sim overheads
//! (chunk rounding, store-and-forward gaps), needs no fixed-point
//! iteration, and makes a flow's rate a pure function of the counts on
//! its path — which is what lets an event re-rate only the flows whose
//! counts it changed.
//!
//! # Events: local and full refreshes
//!
//! An event (an arrival batch, a completion wave, or both) changes `n_l`
//! on a set of links `D`: the paths of the flows it admits and delivers.
//! Only flows crossing `D` can change rate. A *local* refresh re-rates
//! exactly those, found through a link→flows transpose of the path CSR.
//! Each link's list holds its flows in admission order, so its live flows
//! sit in a window that grows at the back as flows arrive and is trimmed
//! of delivered flows when scanned. A *full* refresh re-rates every live
//! flow. A full refresh walks one path per live flow and a local one at
//! most one per window entry over `D`, so the engine takes the local
//! refresh when those entries are fewer than the live flows. The
//! transpose costs about one path walk per flow of the batch to build;
//! the engine builds it once full refreshes have walked that many paths
//! more than local ones would have, so a batch of a few events that each
//! touch most of the fabric never pays for it.
//! [`FlowFabric::run_traced`] takes the full refresh at every event — its
//! link samples need every occupied link's allocation — which makes it
//! the oracle the local refresh is tested against.
//!
//! Either way, every event advances every live flow's remaining work and
//! takes the next completion over every live flow with the same float
//! operations (a minimum is exact in any order), so the choice never
//! moves a delivery time or a [`FlowStats`] field other than `rerated`.
//!
//! # Invariants, checked at every event
//!
//! The allocation is re-checked at every event, local or full, so an
//! implementation bug cannot pass silently (see [`FlowViolation`]):
//!
//! * no flow's rate exceeds any traversed link's fair share
//!   (`rate <= share * (1 + 1e-9)`);
//! * each link's allocated rates sum to at most its capacity
//!   (`sum <= C * (1 + 1e-6)`);
//! * on a local refresh, each link of `D` lists exactly `n_l` live flows
//!   (else [`FlowViolation::LinkCountMismatch`]).
//!
//! A full refresh checks every (flow, link) pair and every link from
//! scratch. A local refresh checks every live flow crossing `D` — re-rated
//! or not — against every link on its path, and every link of `D` for
//! its sum and its count. That covers every pair at every event: a share
//! changes only on `D`, and a rate changes only when its flow is
//! re-rated, which only a flow crossing `D` is; so a pair the check does
//! not visit held at the previous event and still holds. A link outside
//! `D` keeps its flows and its count, and the count matched its list when
//! it last changed; each of its flows is within the share `C / n_l`, so
//! their sum is within `C * (1 + 1e-9)`.
//!
//! # Mapping messages to flows
//!
//! A message of `B` bytes over `h` hops becomes a flow with
//!
//! * work `W = (m-1) * max(CHUNK, gap*bw) + max(rem, gap*bw)` bytes,
//!   where `m` is its packet-sim chunk count and `rem` the last chunk's
//!   bytes — i.e. exactly the bytes the packet sim serializes, with the
//!   per-chunk message-gap floor folded in;
//! * a post-drain delivery offset `h*latency + (h-1)*occupancy(tail)`:
//!   once the last chunk clears the source link, it still store-and-
//!   forwards across the remaining `h-1` hops and pays `h` propagation
//!   latencies.
//!
//! The fluid approximation intentionally does *not* model FIFO chunk
//! ordering (contending packet-sim messages finish in serialization
//! order; fluid flows finish together), which is why the differential
//! suite in [`crate::diff`] states its tolerance against batch-level
//! completion times. See DESIGN.md §13.

use fcc_sim::SimTime;

use crate::fabric::{FabricDelivery, FabricSim, Injection, CHUNK_BYTES};
use crate::link::LinkSpec;
use crate::routes;
use crate::topology::Topology;

/// Slack (in bytes of remaining work) under which a flow counts as
/// complete: absorbs float drift when a symmetric cohort drains in one
/// wave. Half a byte perturbs a completion by < 1 ns on every preset.
const EPS_BYTES: f64 = 0.5;

/// Float slack of the fair-share check (`rate <= share * SHARE_SLACK`).
const SHARE_SLACK: f64 = 1.0 + 1e-9;
/// Float slack of the capacity check (`sum <= C * CAPACITY_SLACK`).
const CAPACITY_SLACK: f64 = 1.0 + 1e-6;

/// Width of the streaming passes' unrolled blocks.
const LANES: usize = 8;

/// Slot-map value of a flow not yet admitted.
const PENDING: u32 = u32::MAX;
/// Slot-map value of a delivered flow.
const DONE: u32 = u32::MAX - 1;
/// Set on a live flow's slot once the current local refresh has visited
/// it. Live slots stay below it, so a marked slot stays below `DONE`.
const SEEN: u32 = 1 << 30;

/// A deliberate defect compiled into the fast model for the negative
/// suite (`crates/net/tests/flow_negative.rs`): each variant must be
/// caught by the invariant checker or the differential comparison.
/// Production paths use [`FlowFabric::new`], which injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// After an arrival batch, keep pre-existing flows' stale (too-high)
    /// rates instead of refreshing them.
    SkipRateRefresh,
    /// Rate flows off their *first* link's share only, ignoring
    /// downstream bottlenecks.
    OverAllocateBottleneck,
    /// Silently drop the last-arriving flow instead of admitting it.
    DropFlow,
    /// Leave the first-arriving flow out of its first link's flow list,
    /// so a local refresh can neither re-rate nor check it there.
    UnlistedFlow,
}

/// An invariant violation detected during or after a fast-path run.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowViolation {
    /// A link's allocated rates sum above its capacity.
    LinkOverAllocated {
        link: u32,
        allocated: f64,
        capacity: f64,
    },
    /// A flow's rate exceeds some traversed link's fair share.
    ShareExceeded {
        tag: u64,
        link: u32,
        rate: f64,
        share: f64,
    },
    /// A link's flow list holds a different number of live flows than
    /// the link's flow count.
    LinkCountMismatch {
        link: u32,
        listed: u32,
        counted: u32,
    },
    /// An injected message was never delivered.
    MissingDelivery { tag: u64 },
    /// A delivered flow's drained work does not match its injected work.
    ConservationMismatch {
        tag: u64,
        injected: f64,
        drained: f64,
    },
    /// The event loop stopped making progress.
    Stalled { active: usize },
}

impl std::fmt::Display for FlowViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowViolation::LinkOverAllocated {
                link,
                allocated,
                capacity,
            } => write!(
                f,
                "link {link} over-allocated: {allocated:.3} B/ns > capacity {capacity:.3} B/ns"
            ),
            FlowViolation::ShareExceeded {
                tag,
                link,
                rate,
                share,
            } => write!(
                f,
                "flow {tag} exceeds link {link} fair share: {rate:.3} > {share:.3} B/ns"
            ),
            FlowViolation::LinkCountMismatch {
                link,
                listed,
                counted,
            } => write!(
                f,
                "link {link} lists {listed} live flows but counts {counted}"
            ),
            FlowViolation::MissingDelivery { tag } => {
                write!(f, "flow {tag} was injected but never delivered")
            }
            FlowViolation::ConservationMismatch {
                tag,
                injected,
                drained,
            } => write!(
                f,
                "flow {tag} drained {drained:.3} B of {injected:.3} B injected"
            ),
            FlowViolation::Stalled { active } => {
                write!(f, "event loop stalled with {active} active flows")
            }
        }
    }
}

/// One flow's lifetime on the fabric, in trace-neutral form. `tag` is
/// the injector's tag verbatim — by the workspace convention the bits of
/// a `TraceCtx` when the injection originated in an instrumented
/// subsystem — so exporters can join fabric transfers into causal flow
/// chains without this crate depending on the telemetry layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpan {
    /// Injection tag (conventionally `TraceCtx::bits`).
    pub tag: u64,
    /// Source endpoint.
    pub src: u32,
    /// Destination endpoint.
    pub dst: u32,
    /// Entry onto the fabric.
    pub start: SimTime,
    /// Delivery (drain + store-and-forward tail).
    pub end: SimTime,
}

/// Per-link load observed at one refresh event, for counter-track export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUtilSample {
    /// Event time of the refresh.
    pub at: SimTime,
    /// Dense directed-link id.
    pub link: u32,
    /// Allocated rate over capacity, in `[0, 1]`.
    pub utilization: f64,
    /// The link's fair share at this instant, bytes/ns.
    pub fair_share: f64,
    /// Flows crossing the link.
    pub active: u32,
}

/// Neutral trace output of [`FlowFabric::run_traced`]: flow lifetimes
/// plus per-link utilization samples, ready to feed a `SeriesSet` or a
/// Chrome-trace exporter.
#[derive(Debug, Clone, Default)]
pub struct FlowTrace {
    /// One entry per delivered flow.
    pub spans: Vec<FlowSpan>,
    /// Per-link samples at each refresh, one per occupied link (idle
    /// links are skipped — a flat zero lane per link would swamp the
    /// trace).
    pub link_samples: Vec<LinkUtilSample>,
}

/// Run statistics: how much work the fast path actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowStats {
    /// Arrival/completion events processed.
    pub events: u64,
    /// Rate refreshes, local or full: one per event.
    pub refreshes: u64,
    /// Flows whose rate was recomputed, summed over refreshes: every live
    /// flow on a full refresh, the flows crossing the changed links on a
    /// local one.
    pub rerated: u64,
    /// Peak number of concurrently active flows.
    pub max_active: usize,
    /// Dense directed links in the topology.
    pub links: u32,
}

/// The flow-level fair-sharing fabric simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowFabric {
    bug: Option<InjectedBug>,
}

/// A message's fluid work in bytes and its post-drain delivery offset in
/// ns over `hops` links (see the module doc).
fn flow_shape(link: &LinkSpec, bytes: u64, hops: u32) -> (f64, f64) {
    let bw = link.bandwidth;
    let gap_ns = link.min_message_gap.as_nanos_f64();
    let gap_bytes = gap_ns * bw;
    let chunks = bytes.div_ceil(CHUNK_BYTES).max(1);
    let tail_bytes = bytes - (chunks - 1) * CHUNK_BYTES;
    let full_chunk_work = (CHUNK_BYTES as f64).max(gap_bytes);
    let work = (chunks - 1) as f64 * full_chunk_work + (tail_bytes as f64).max(gap_bytes);
    let h = hops as f64;
    let tail_occ_ns = (tail_bytes as f64 / bw).max(gap_ns);
    let offset = h * link.latency.as_nanos_f64() + (h - 1.0) * tail_occ_ns;
    (work, offset)
}

/// Live flows as a struct of arrays, so the per-event passes stream over
/// `remaining` and `rate` alone. Admission pushes and delivery
/// `swap_remove`s, which keeps the order a `Vec` of flows would have: it
/// fixes the order of deliveries and of the full refresh's rate sums.
struct Live {
    /// Index into the injection batch.
    idx: Vec<u32>,
    remaining: Vec<f64>,
    rate: Vec<f64>,
}

/// When a flow with `remaining` bytes at `now` drains at `rate`. It
/// targets EPS/2 — strictly below the EPS completion threshold — so float
/// rounding in `rate * dt` cannot leave the flow marginally above it
/// (which would cost a zero-progress iteration).
fn drain_time(now: f64, remaining: f64, rate: f64) -> f64 {
    now + (remaining - 0.5 * EPS_BYTES) / rate
}

impl Live {
    /// Drains every flow for `dt` (if positive) at its current rate and
    /// lists, ascending, the blocks of `LANES` slots that hold a flow left
    /// within EPS of empty.
    fn advance(&mut self, dt: f64, drained: &mut Vec<u32>) {
        // Draining for zero time leaves every `remaining` bit-identical.
        let dt = dt.max(0.0);
        drained.clear();
        let blocks = self.remaining.len().div_ceil(LANES) as u32;
        let mut remaining = self.remaining.chunks_exact_mut(LANES);
        let mut rate = self.rate.chunks_exact(LANES);
        for (b, (r, q)) in (0..).zip((&mut remaining).zip(&mut rate)) {
            let (r, q) = (r.try_into(), q.try_into());
            if drain_block(r.expect("exact chunks"), q.expect("exact chunks"), dt) {
                drained.push(b);
            }
        }
        let mut tail_hit = false;
        for (r, &q) in remaining.into_remainder().iter_mut().zip(rate.remainder()) {
            *r -= q * dt;
            tail_hit |= *r <= EPS_BYTES;
        }
        if tail_hit {
            drained.push(blocks - 1);
        }
    }

    /// The earliest drain time. Running minima per lane break the serial
    /// dependency; `min` is exact and no drain time is NaN, so the result
    /// is the one a single running minimum gives.
    fn next_completion(&self, now: f64) -> f64 {
        let mut lanes = [f64::INFINITY; LANES];
        let remaining = self.remaining.chunks_exact(LANES);
        let rate = self.rate.chunks_exact(LANES);
        let tail = remaining.remainder().iter().zip(rate.remainder());
        for (r, q) in remaining.zip(rate) {
            for j in 0..LANES {
                lanes[j] = lanes[j].min(drain_time(now, r[j], q[j]));
            }
        }
        for (&r, &q) in tail {
            lanes[0] = lanes[0].min(drain_time(now, r, q));
        }
        lanes.into_iter().fold(f64::INFINITY, f64::min)
    }
}

/// Drains one block for `dt`; true if any flow is left within EPS. The
/// drained flows are counted, not searched for, so the block compiles to
/// vector arithmetic without a branch per flow.
fn drain_block(remaining: &mut [f64; LANES], rate: &[f64; LANES], dt: f64) -> bool {
    let left: [f64; LANES] = std::array::from_fn(|j| remaining[j] - rate[j] * dt);
    *remaining = left;
    left.iter().fold(0u32, |n, &r| n + (r <= EPS_BYTES) as u32) > 0
}

/// The link→flows transpose of the path CSR: link `l`'s flows, in
/// admission order, are `flows[off[l]..off[l + 1]]`.
struct LinkLists {
    off: Vec<u32>,
    flows: Vec<u32>,
}

impl LinkLists {
    fn build(paths: &Paths, order: &[u32], links: usize, bug: Option<InjectedBug>) -> Self {
        // Under `UnlistedFlow` the first admitted flow's first hop is
        // left out of both the count and the fill.
        let listed = |rank: usize, hop: usize| {
            !(bug == Some(InjectedBug::UnlistedFlow) && rank == 0 && hop == 0)
        };
        let mut off = vec![0u32; links + 1];
        for (rank, &f) in order.iter().enumerate() {
            for (hop, &l) in paths.get(f).iter().enumerate() {
                if listed(rank, hop) {
                    off[l as usize + 1] += 1;
                }
            }
        }
        for l in 0..links {
            off[l + 1] += off[l];
        }
        let mut fill = off[..links].to_vec();
        let mut flows = vec![0u32; off[links] as usize];
        for (rank, &f) in order.iter().enumerate() {
            for (hop, &l) in paths.get(f).iter().enumerate() {
                if listed(rank, hop) {
                    let at = &mut fill[l as usize];
                    flows[*at as usize] = f;
                    *at += 1;
                }
            }
        }
        LinkLists { off, flows }
    }
}

/// Every flow's link path, CSR: flow `i` crosses
/// `links[off[i]..off[i + 1]]`. Routing is deterministic, so each path is
/// walked once and every refresh scans the flat array.
struct Paths {
    off: Vec<u32>,
    links: Vec<u32>,
}

impl Paths {
    fn get(&self, flow: u32) -> &[u32] {
        let f = flow as usize;
        &self.links[self.off[f] as usize..self.off[f + 1] as usize]
    }
}

/// The bottleneck-fair rate over `path` (or over its first link only,
/// under `OverAllocateBottleneck`).
fn rate_over(path: &[u32], share: &[f64], first_link_only: bool) -> f64 {
    let scan = if first_link_only {
        &path[..path.len().min(1)]
    } else {
        path
    };
    scan.iter()
        .fold(f64::INFINITY, |r, &l| r.min(share[l as usize]))
}

/// `rate` held against the share of every link on `path`; `tag` names
/// the flow in the violation.
fn check_path(
    path: &[u32],
    rate: f64,
    share: &[f64],
    tag: impl FnOnce() -> u64,
) -> Result<(), FlowViolation> {
    match path
        .iter()
        .find(|&&l| rate > share[l as usize] * SHARE_SLACK)
    {
        Some(&l) => Err(FlowViolation::ShareExceeded {
            tag: tag(),
            link: l,
            rate,
            share: share[l as usize],
        }),
        None => Ok(()),
    }
}

/// The links whose count the current event changed.
struct Changed {
    links: Vec<u32>,
    member: Vec<bool>,
}

impl Changed {
    fn insert(&mut self, l: u32) {
        if !self.member[l as usize] {
            self.member[l as usize] = true;
            self.links.push(l);
        }
    }

    fn clear(&mut self) {
        for &l in &self.links {
            self.member[l as usize] = false;
        }
        self.links.clear();
    }
}

/// One run's state: the batch, the live set and the per-link counts.
struct Run<'a> {
    injections: &'a [Injection],
    bug: Option<InjectedBug>,
    link: LinkSpec,
    paths: Paths,
    /// Flow indices in admission order: by entry time, index-stable.
    order: Vec<u32>,
    /// Per flow: its position in `live` (plus `SEEN` while a local
    /// refresh holds it), or `PENDING` / `DONE`.
    slot: Vec<u32>,
    live: Live,
    /// Per link: live flows crossing it, its fair share `bw / n` (kept in
    /// step with the count), and the full refresh's rate sum.
    link_n: Vec<u32>,
    link_share: Vec<f64>,
    link_sum: Vec<f64>,
    /// Per link: the window `[lo, hi)` of its list that can hold live
    /// flows — `hi` counts its admitted flows, `lo` its delivered list
    /// prefix (advanced when a local refresh scans the link).
    link_lo: Vec<u32>,
    link_hi: Vec<u32>,
    lists: Option<LinkLists>,
    /// Until `lists` exists: paths that full refreshes walked beyond the
    /// list entries local ones would have scanned.
    forgone: u64,
    changed: Changed,
    /// Flows the current local refresh visited (to clear `SEEN`).
    seen: Vec<u32>,
    stats: FlowStats,
}

impl Run<'_> {
    /// Whether this event takes the local refresh. A full refresh walks
    /// every live flow's path; a local one may walk a path per list entry
    /// it scans, so it pays when `scan` is below the live flow count. The
    /// transpose costs about one path walk per flow of the batch to
    /// build, so it is built once the full refreshes have walked that
    /// many paths more than local ones would have: a batch whose events
    /// mostly touch most of the fabric never builds it.
    fn local_pays(&mut self, scan: u64) -> bool {
        let live = self.live.idx.len() as u64;
        if scan >= live {
            return false;
        }
        if self.lists.is_none() {
            self.forgone += live - scan;
            return self.forgone >= self.slot.len() as u64;
        }
        true
    }

    /// Admits flow `idx`: counts it onto every link of its path.
    fn admit(&mut self, idx: u32) {
        let path = self.paths.get(idx);
        for &l in path {
            self.link_n[l as usize] += 1;
            self.link_hi[l as usize] += 1;
            self.changed.insert(l);
        }
        let (work, _) = flow_shape(
            &self.link,
            self.injections[idx as usize].bytes,
            path.len() as u32,
        );
        self.slot[idx as usize] = self.live.idx.len() as u32;
        self.live.idx.push(idx);
        self.live.remaining.push(work);
        self.live.rate.push(0.0);
    }

    /// Delivers the live flow at slot `s` at `now`.
    fn deliver(
        &mut self,
        s: usize,
        now: f64,
        deliveries: &mut Vec<FabricDelivery>,
        trace: Option<&mut FlowTrace>,
    ) -> Result<(), FlowViolation> {
        let idx = self.live.idx.swap_remove(s);
        let remaining = self.live.remaining.swap_remove(s);
        self.live.rate.swap_remove(s);
        if let Some(&moved) = self.live.idx.get(s) {
            self.slot[moved as usize] = s as u32;
        }
        let inj = &self.injections[idx as usize];
        let path = self.paths.get(idx);
        let (work, offset) = flow_shape(&self.link, inj.bytes, path.len() as u32);
        if remaining < -1.0 {
            return Err(FlowViolation::ConservationMismatch {
                tag: inj.tag,
                injected: work,
                drained: work - remaining,
            });
        }
        for &l in path {
            self.link_n[l as usize] -= 1;
            self.changed.insert(l);
        }
        self.slot[idx as usize] = DONE;
        let arrival = SimTime::from_nanos_f64(now + offset);
        if let Some(t) = trace {
            t.spans.push(FlowSpan {
                tag: inj.tag,
                src: inj.src,
                dst: inj.dst,
                start: SimTime::from_nanos_f64(inj.at.as_nanos_f64()),
                end: arrival,
            });
        }
        deliveries.push(FabricDelivery {
            tag: inj.tag,
            src: inj.src,
            dst: inj.dst,
            arrival,
        });
        Ok(())
    }

    /// Re-rates and re-checks every live flow and every link; returns the
    /// next completion time. `stale` flows (the first ones, under
    /// `SkipRateRefresh`) keep their rates.
    fn full_refresh(
        &mut self,
        now: f64,
        stale: usize,
        trace: Option<&mut FlowTrace>,
    ) -> Result<f64, FlowViolation> {
        let bw = self.link.bandwidth;
        let first_link_only = self.bug == Some(InjectedBug::OverAllocateBottleneck);
        self.link_sum.fill(0.0);
        let mut next = f64::INFINITY;
        for s in 0..self.live.idx.len() {
            let idx = self.live.idx[s];
            let path = self.paths.get(idx);
            if s >= stale {
                self.live.rate[s] = rate_over(path, &self.link_share, first_link_only);
                self.stats.rerated += 1;
            }
            let rate = self.live.rate[s];
            next = next.min(drain_time(now, self.live.remaining[s], rate));
            for &l in path {
                let l = l as usize;
                self.link_sum[l] += rate;
                if rate > self.link_share[l] * SHARE_SLACK {
                    return Err(FlowViolation::ShareExceeded {
                        tag: self.injections[idx as usize].tag,
                        link: l as u32,
                        rate,
                        share: self.link_share[l],
                    });
                }
            }
        }
        for (l, &sum) in self.link_sum.iter().enumerate() {
            if sum > bw * CAPACITY_SLACK {
                return Err(FlowViolation::LinkOverAllocated {
                    link: l as u32,
                    allocated: sum,
                    capacity: bw,
                });
            }
        }
        // One utilization observation per occupied link per event — the
        // allocation was just recomputed from scratch above, so these
        // samples are exactly what the invariant pass verified.
        if let Some(t) = trace {
            for (l, &n) in self.link_n.iter().enumerate() {
                if n > 0 {
                    t.link_samples.push(LinkUtilSample {
                        at: SimTime::from_nanos_f64(now),
                        link: l as u32,
                        utilization: self.link_sum[l] / bw,
                        fair_share: self.link_share[l],
                        active: n,
                    });
                }
            }
        }
        Ok(next)
    }

    /// Re-rates the live flows crossing a changed link, checks each of
    /// them against every link on its path and each changed link's sum
    /// and count (see the module doc); returns the next completion time.
    fn local_refresh(&mut self, now: f64, stale: usize) -> Result<f64, FlowViolation> {
        let bw = self.link.bandwidth;
        let first_link_only = self.bug == Some(InjectedBug::OverAllocateBottleneck);
        let lists = self.lists.get_or_insert_with(|| {
            LinkLists::build(&self.paths, &self.order, self.link_n.len(), self.bug)
        });
        let (paths, share, slot) = (&self.paths, &self.link_share[..], &mut self.slot[..]);
        let rates = &mut self.live.rate[..];
        let tag = |f: u32| self.injections[f as usize].tag;
        for &l in &self.changed.links {
            let l = l as usize;
            let list = &mut lists.flows[lists.off[l] as usize..lists.off[l + 1] as usize];
            let hi = (self.link_hi[l] as usize).min(list.len());
            let (mut sum, mut listed) = (0.0, 0u32);
            // Walk the window back to front, packing its live flows
            // against `hi` in order; what falls below the new `lo` is dead.
            let mut lo = hi;
            for i in (self.link_lo[l] as usize..hi).rev() {
                let f = list[i];
                let at = slot[f as usize];
                if at >= DONE {
                    continue;
                }
                lo -= 1;
                list[lo] = f;
                listed += 1;
                let s = (at & !SEEN) as usize;
                if at & SEEN == 0 {
                    slot[f as usize] = at | SEEN;
                    self.seen.push(f);
                    let path = paths.get(f);
                    if s >= stale {
                        rates[s] = rate_over(path, share, first_link_only);
                        self.stats.rerated += 1;
                    }
                    check_path(path, rates[s], share, || tag(f))?;
                }
                sum += rates[s];
            }
            self.link_lo[l] = lo as u32;
            if sum > bw * CAPACITY_SLACK {
                return Err(FlowViolation::LinkOverAllocated {
                    link: l as u32,
                    allocated: sum,
                    capacity: bw,
                });
            }
            if listed != self.link_n[l] {
                return Err(FlowViolation::LinkCountMismatch {
                    link: l as u32,
                    listed,
                    counted: self.link_n[l],
                });
            }
        }
        for &f in &self.seen {
            slot[f as usize] &= !SEEN;
        }
        self.seen.clear();
        Ok(self.live.next_completion(now))
    }
}

impl FlowFabric {
    pub fn new() -> Self {
        FlowFabric { bug: None }
    }

    /// A defective twin for the negative suite. Never use outside tests.
    pub fn with_bug(bug: InjectedBug) -> Self {
        FlowFabric { bug: Some(bug) }
    }

    /// Runs the batch and returns deliveries (sorted by tag) plus run
    /// stats, or the first invariant violation detected.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or `src == dst`, mirroring the
    /// packet sim's contract.
    pub fn run_checked(
        &self,
        topo: &Topology,
        injections: &[Injection],
    ) -> Result<(Vec<FabricDelivery>, FlowStats), FlowViolation> {
        self.run_inner(topo, injections, None)
    }

    /// [`FlowFabric::run_checked`] that additionally collects a
    /// [`FlowTrace`]: per-flow fabric lifetimes and per-link utilization
    /// samples on the shared `SimTime` clock. Every event takes the full
    /// refresh, so its deliveries and stats (but `rerated`) are the
    /// reference `run_checked` is tested against.
    pub fn run_traced(
        &self,
        topo: &Topology,
        injections: &[Injection],
    ) -> Result<(Vec<FabricDelivery>, FlowStats, FlowTrace), FlowViolation> {
        let mut trace = FlowTrace::default();
        let (d, s) = self.run_inner(topo, injections, Some(&mut trace))?;
        Ok((d, s, trace))
    }

    fn run_inner(
        &self,
        topo: &Topology,
        injections: &[Injection],
        mut trace: Option<&mut FlowTrace>,
    ) -> Result<(Vec<FabricDelivery>, FlowStats), FlowViolation> {
        let n = topo.endpoints();
        let links = routes::link_count(topo);
        let flows = injections.len();
        let stats = FlowStats {
            links,
            ..FlowStats::default()
        };
        if flows == 0 {
            return Ok((Vec::new(), stats));
        }
        assert!(flows < SEEN as usize, "{flows} flows exceed the slot map");

        let mut paths = Paths {
            off: Vec::with_capacity(flows + 1),
            links: Vec::new(),
        };
        paths.off.push(0);
        for inj in injections {
            assert!(inj.src < n && inj.dst < n, "endpoint out of range");
            assert_ne!(inj.src, inj.dst, "self-sends never enter the fabric");
            routes::for_each_link(topo, inj.src, inj.dst, inj.tag, |l| paths.links.push(l));
            let end = u32::try_from(paths.links.len()).expect("path hops exceed u32 entries");
            paths.off.push(end);
        }
        let entry = |idx: u32| injections[idx as usize].at.as_nanos_f64();
        let mut order: Vec<u32> = (0..flows as u32).collect();
        order.sort_by(|&a, &b| {
            entry(a)
                .partial_cmp(&entry(b))
                .expect("injection times are finite")
                .then(a.cmp(&b))
        });
        let dropped_idx = match self.bug {
            Some(InjectedBug::DropFlow) => Some(order[flows - 1]),
            _ => None,
        };

        let links = links as usize;
        let mut run = Run {
            injections,
            bug: self.bug,
            link: *topo.link(),
            paths,
            order,
            slot: vec![PENDING; flows],
            live: Live {
                idx: Vec::with_capacity(flows),
                remaining: Vec::with_capacity(flows),
                rate: Vec::with_capacity(flows),
            },
            link_n: vec![0; links],
            link_share: vec![f64::INFINITY; links],
            link_sum: vec![0.0; links],
            link_lo: vec![0; links],
            link_hi: vec![0; links],
            lists: None,
            forgone: 0,
            changed: Changed {
                links: Vec::new(),
                member: vec![false; links],
            },
            seen: Vec::new(),
            stats,
        };
        let bw = run.link.bandwidth;
        let mut deliveries: Vec<FabricDelivery> = Vec::with_capacity(flows);
        let mut next_arrival = 0usize;
        let mut now = entry(run.order[0]);
        let mut next_completion = f64::INFINITY;
        let mut drained_blocks = Vec::new();
        // Each iteration admits >= 1 arrival or completes >= 1 flow, so
        // 2x flows + slack iterations mean the loop is stuck.
        let max_iters = 2 * flows as u64 + 16;
        let mut iters = 0u64;

        loop {
            let t_arrival = if next_arrival < flows {
                entry(run.order[next_arrival])
            } else {
                f64::INFINITY
            };
            let te = t_arrival.min(next_completion);
            let active = run.live.idx.len();
            if !te.is_finite() {
                if active == 0 {
                    break;
                }
                return Err(FlowViolation::Stalled { active });
            }
            iters += 1;
            if iters > max_iters {
                return Err(FlowViolation::Stalled { active });
            }
            run.stats.events += 1;

            // Advance every live flow to te at its current rate.
            let dt = te - now;
            run.live.advance(dt, &mut drained_blocks);
            now = te;

            // Completions: every drained flow delivers now, in slot
            // order. A delivery swaps the last live flow into its slot,
            // which is examined next; a slot outside the drained blocks
            // only ever holds its own, undrained flow when reached.
            let completing = next_completion <= te;
            if completing {
                for &b in &drained_blocks {
                    let block = b as usize * LANES;
                    for s in block..block + LANES {
                        while run.live.remaining.get(s).is_some_and(|&r| r <= EPS_BYTES) {
                            run.deliver(s, now, &mut deliveries, trace.as_deref_mut())?;
                        }
                    }
                }
            }

            // Arrivals due now (exact-tie batch).
            let preexisting = run.live.idx.len();
            while next_arrival < flows && entry(run.order[next_arrival]) <= now {
                let idx = run.order[next_arrival];
                next_arrival += 1;
                if Some(idx) != dropped_idx {
                    run.admit(idx);
                }
            }
            run.stats.max_active = run.stats.max_active.max(run.live.idx.len());

            // Refresh: fresh shares on the changed links, then the pass
            // the cost rule picks (module doc).
            run.stats.refreshes += 1;
            let mut scan = 0u64;
            for &l in &run.changed.links {
                let l = l as usize;
                let n = run.link_n[l];
                run.link_share[l] = if n > 0 { bw / n as f64 } else { f64::INFINITY };
                scan += (run.link_hi[l] - run.link_lo[l]) as u64;
            }
            let stale = if self.bug == Some(InjectedBug::SkipRateRefresh) && !completing {
                preexisting
            } else {
                0
            };
            next_completion = if trace.is_none() && run.local_pays(scan) {
                run.local_refresh(now, stale)?
            } else {
                run.full_refresh(now, stale, trace.as_deref_mut())?
            };
            run.changed.clear();
        }

        // Conservation: every injection delivered exactly once.
        for (idx, inj) in injections.iter().enumerate() {
            if run.slot[idx] != DONE {
                return Err(FlowViolation::MissingDelivery { tag: inj.tag });
            }
        }
        deliveries.sort_by_key(|d| d.tag);
        Ok((deliveries, run.stats))
    }

    /// No-contention completion time of one injection (entry +
    /// serialization at full line rate + store-and-forward tail): the
    /// physical lower bound the differential suite holds both simulators
    /// to.
    pub fn solo_completion_ns(topo: &Topology, inj: &Injection) -> f64 {
        let link = topo.link();
        let (work, offset) = flow_shape(link, inj.bytes, topo.hops(inj.src, inj.dst));
        inj.at.as_nanos_f64() + work / link.bandwidth + offset
    }
}

impl FabricSim for FlowFabric {
    fn name(&self) -> &'static str {
        "flow"
    }

    fn run(&self, topo: &Topology, injections: &[Injection]) -> Vec<FabricDelivery> {
        let (deliveries, _) = self
            .run_checked(topo, injections)
            .unwrap_or_else(|v| panic!("flow fabric invariant violated: {v}"));
        deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    fn inj(at: u64, src: u32, dst: u32, bytes: u64, tag: u64) -> Injection {
        Injection {
            at: ns(at),
            src,
            dst,
            bytes,
            tag,
        }
    }

    #[test]
    fn single_flow_matches_packet_sim_exactly() {
        let topo = Topology::Switched {
            endpoints: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        let (d, stats) = FlowFabric::new()
            .run_checked(&topo, &[inj(0, 0, 1, 16 * 1024, 0)])
            .expect("clean run");
        // Same arithmetic as the packet sim: 819.2 ns wire + 1300 ns.
        assert_eq!(d[0].arrival, ns(819 + 1300));
        assert_eq!(stats.max_active, 1);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let topo = Topology::Switched {
            endpoints: 3,
            link: LinkSpec::infiniband_20gbs(),
        };
        // Same (src, dst) channel: fluid sharing halves each rate, so
        // both finish together at ~2x the solo drain.
        let batch = [inj(0, 0, 1, 64 * 1024, 0), inj(0, 0, 1, 64 * 1024, 1)];
        let (d, _) = FlowFabric::new().run_checked(&topo, &batch).expect("clean");
        assert_eq!(d[0].arrival, d[1].arrival);
        // Combined work drains at the link rate; both finish together.
        let expect = 2.0 * 65_536.0 / 20.0 + 1_300.0;
        let got = d[0].arrival.as_nanos_f64();
        assert!(
            (got - expect).abs() < 2.0,
            "got {got} expected about {expect}"
        );
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let topo = Topology::FullyConnected {
            endpoints: 4,
            link: LinkSpec::xgmi(),
        };
        let batch = [inj(0, 0, 1, 64 * 1024, 0), inj(0, 2, 3, 64 * 1024, 1)];
        let (d, _) = FlowFabric::new().run_checked(&topo, &batch).expect("clean");
        assert_eq!(d[0].arrival, d[1].arrival);
        let solo = FlowFabric::solo_completion_ns(&topo, &batch[0]);
        assert!((d[0].arrival.as_nanos_f64() - solo).abs() < 1.0);
    }

    #[test]
    fn late_arrival_slows_the_survivor() {
        let topo = Topology::Switched {
            endpoints: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        let alone = FlowFabric::new()
            .run_checked(&topo, &[inj(0, 0, 1, 256 * 1024, 0)])
            .expect("clean")
            .0[0]
            .arrival;
        let contended = FlowFabric::new()
            .run_checked(
                &topo,
                &[inj(0, 0, 1, 256 * 1024, 0), inj(2_000, 0, 1, 256 * 1024, 1)],
            )
            .expect("clean");
        assert!(contended.0[0].arrival > alone);
        // And the late flow finishes after the early one.
        assert!(contended.0[1].arrival > contended.0[0].arrival);
    }

    #[test]
    fn uniform_alltoall_runs_on_every_fabric() {
        let fabrics = [
            Topology::Torus2D {
                dims: (4, 4),
                link: LinkSpec::torus_200gbps(),
            },
            Topology::FatTree {
                leaves: 4,
                hosts_per_leaf: 4,
                spines: 2,
                link: LinkSpec::infiniband_20gbs(),
            },
            Topology::Dragonfly {
                groups: 4,
                routers_per_group: 2,
                hosts_per_router: 2,
                link: LinkSpec::infiniband_20gbs(),
            },
            Topology::MultiRail {
                endpoints: 8,
                rails: 2,
                link: LinkSpec::infiniband_20gbs(),
            },
        ];
        for topo in fabrics {
            let done = FlowFabric::new().uniform_alltoall(&topo, 32 * 1024);
            assert!(done > SimTime::ZERO, "{topo:?}");
        }
    }

    #[test]
    fn deliveries_sorted_and_complete() {
        let topo = Topology::Torus2D {
            dims: (3, 3),
            link: LinkSpec::torus_200gbps(),
        };
        let mut batch = Vec::new();
        let mut tag = 0u64;
        for src in 0..9 {
            for dst in 0..9 {
                if src != dst {
                    batch.push(inj((tag % 5) * 300, src, dst, 10_000 + tag * 100, tag));
                    tag += 1;
                }
            }
        }
        let (d, stats) = FlowFabric::new().run_checked(&topo, &batch).expect("clean");
        assert_eq!(d.len(), batch.len());
        for (i, del) in d.iter().enumerate() {
            assert_eq!(del.tag, i as u64);
        }
        assert!(stats.refreshes >= 1);
        assert!(stats.links > 0);
    }

    #[test]
    fn traced_run_reports_spans_and_link_utilization() {
        let topo = Topology::Switched {
            endpoints: 3,
            link: LinkSpec::infiniband_20gbs(),
        };
        let batch = [inj(0, 0, 1, 64 * 1024, 11), inj(0, 0, 1, 64 * 1024, 12)];
        let (d, _, trace) = FlowFabric::new().run_traced(&topo, &batch).expect("clean");
        assert_eq!(trace.spans.len(), 2);
        for span in &trace.spans {
            let del = d.iter().find(|x| x.tag == span.tag).expect("delivered");
            assert_eq!(span.end, del.arrival, "span ends at delivery");
            assert!(span.start < span.end);
        }
        // Both flows cross the same source link: full utilization, two
        // active, fair share at half the line rate.
        assert!(trace
            .link_samples
            .iter()
            .any(|s| s.active == 2 && (s.utilization - 1.0).abs() < 1e-9));
        // And the traced run's deliveries match the untraced twin's.
        let (plain, _) = FlowFabric::new().run_checked(&topo, &batch).expect("clean");
        assert_eq!(d, plain);
    }

    #[test]
    fn injected_drop_flow_is_caught() {
        let topo = Topology::Switched {
            endpoints: 3,
            link: LinkSpec::infiniband_20gbs(),
        };
        let batch = [inj(0, 0, 1, 32 * 1024, 0), inj(100, 1, 2, 32 * 1024, 7)];
        let err = FlowFabric::with_bug(InjectedBug::DropFlow)
            .run_checked(&topo, &batch)
            .expect_err("dropped flow must be flagged");
        assert_eq!(err, FlowViolation::MissingDelivery { tag: 7 });
    }

    #[test]
    fn injected_stale_rates_are_caught() {
        let topo = Topology::Switched {
            endpoints: 2,
            link: LinkSpec::infiniband_20gbs(),
        };
        // Flow 0 runs alone at full rate; flow 1 joins the same channel
        // later. With the refresh skipped, flow 0 keeps the full line
        // rate while the share drops to half -> flagged.
        let batch = [inj(0, 0, 1, 256 * 1024, 0), inj(1_000, 0, 1, 256 * 1024, 1)];
        let err = FlowFabric::with_bug(InjectedBug::SkipRateRefresh)
            .run_checked(&topo, &batch)
            .expect_err("stale rate must be flagged");
        assert!(
            matches!(
                err,
                FlowViolation::ShareExceeded { tag: 0, .. }
                    | FlowViolation::LinkOverAllocated { .. }
            ),
            "unexpected violation {err:?}"
        );
    }

    #[test]
    fn injected_bottleneck_overallocation_is_caught() {
        // Ring of 4: flow A spans links 0->1->2; flow B congests 1->2.
        // Rating A off its first link only exceeds the 1->2 fair share.
        let topo = Topology::Torus2D {
            dims: (1, 4),
            link: LinkSpec::torus_200gbps(),
        };
        let batch = [inj(0, 0, 2, 256 * 1024, 0), inj(0, 1, 2, 256 * 1024, 1)];
        let err = FlowFabric::with_bug(InjectedBug::OverAllocateBottleneck)
            .run_checked(&topo, &batch)
            .expect_err("bottleneck over-allocation must be flagged");
        assert!(
            matches!(
                err,
                FlowViolation::ShareExceeded { .. } | FlowViolation::LinkOverAllocated { .. }
            ),
            "unexpected violation {err:?}"
        );
    }

    #[test]
    fn clean_twin_passes_where_bugs_are_caught() {
        let topo = Topology::Torus2D {
            dims: (1, 4),
            link: LinkSpec::torus_200gbps(),
        };
        let batch = [inj(0, 0, 2, 256 * 1024, 0), inj(0, 1, 2, 256 * 1024, 1)];
        FlowFabric::new().run_checked(&topo, &batch).expect("clean");
    }
}
