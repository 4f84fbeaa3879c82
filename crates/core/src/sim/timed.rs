//! The timed clock of the protocol step, and the NIC replay it feeds.
//!
//! [`Timed`] is the second [`Backend`] of `op/protocol.rs`'s [`step`]: it
//! runs from the GPU model's task-completion hook and prices, rather than
//! performs, what the functional clock does with bytes. The produce,
//! stage, store and `WG_Done` update of an item cost `bookkeeping`; the
//! elected last finisher of a network slice pays `api_latency` more and
//! leaves one publication in the PE's replay list. The NIC models a
//! slice's fenced run of row PUTs as **one payload message**, followed by
//! its `sliceRdy` flag; stage 2 ([`Wire::publish`]) posts both.
//!
//! NIC sharing is a property of the topology: when a run has more PEs than
//! the topology has endpoints, `n_pes / endpoints` consecutive PEs share
//! one NIC. Same-NIC peers are P2P — their items are stored directly over
//! xGMI and their slices never touch the NIC — and cross-NIC slices of all
//! of a NIC's PEs serialize on it.

use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::{ExecResult, PersistentExec, TaskCompletion, WgPlan};
use fcc_gpu::kernel::KernelResources;
use fcc_gpu::occupancy::occupancy;
use fcc_net::{
    Delivery, FaultPlan, FaultStats, FaultyNic, LinkSpec, Message, MessageKind, MultiQpNic, Nic,
    Topology,
};
use fcc_sim::trace::{PointKind, SpanKind};
use fcc_sim::{SimTime, Timeline};

use crate::op::protocol::{step, Backend, Slice, SliceTable};

use super::FusedTuning;

/// Persistent WGs a fused kernel keeps resident for `items` tasks: the
/// kernel's occupancy limit, under `cap` if one is set, never more than
/// there are tasks and never fewer than one.
pub(crate) fn persistent_wgs(
    gpu: &GpuConfig,
    resources: &KernelResources,
    cap: Option<u32>,
    items: usize,
) -> u32 {
    let mut n = occupancy(gpu, resources).wgs_per_device;
    if let Some(cap) = cap {
        assert!(cap > 0, "occupancy cap must be positive");
        n = n.min(cap);
    }
    (n as u64).min(items as u64).max(1) as u32
}

/// The timed clock over one run's slice table.
#[derive(Debug)]
pub(crate) struct Timed<'t> {
    pub table: &'t SliceTable,
    dim: usize,
    tuning: FusedTuning,
    /// PEs behind one NIC.
    pes_per_nic: usize,
}

/// One PE's timed protocol state: the `WG_Done` counters, the completion
/// being stepped, and what its steps leave for stage 2.
#[derive(Debug, Default)]
pub(crate) struct TimedPe {
    me: usize,
    wg_done: Vec<u64>,
    wg: u32,
    end: SimTime,
    /// How long the stepping WG stays off the memory system after its
    /// task: what the completion hook returns.
    overhead: SimTime,
    /// Network publications in issue order: stage 2's replay list.
    pub puts: Vec<(SimTime, Slice)>,
    /// Bytes stored directly into same-NIC peers.
    p2p_bytes: u64,
    pub timeline: Timeline,
}

impl<'t> Timed<'t> {
    /// The clock for `table` on `topo`; see the module doc for how PEs
    /// map onto its NICs.
    pub(crate) fn new(
        table: &'t SliceTable,
        dim: usize,
        tuning: FusedTuning,
        topo: &Topology,
    ) -> Timed<'t> {
        let (n_pes, nics) = (table.n_pes(), topo.endpoints() as usize);
        let fits = n_pes <= nics || n_pes % nics == 0;
        assert!(fits, "{n_pes} PEs cannot share {nics} NICs evenly");
        let pes_per_nic = (n_pes / nics).max(1);
        Timed {
            table,
            dim,
            tuning,
            pes_per_nic,
        }
    }

    /// The PEs behind each NIC, in NIC order.
    pub(crate) fn nics(&self) -> impl Iterator<Item = std::ops::Range<usize>> {
        let ppn = self.pes_per_nic;
        (0..self.table.n_pes() / ppn).map(move |nic| nic * ppn..(nic + 1) * ppn)
    }

    /// Fresh protocol state for PE `me`.
    pub(crate) fn pe(&self, me: usize, timeline: Timeline) -> TimedPe {
        TimedPe {
            me,
            wg_done: vec![0; self.table.slices(me).len()],
            timeline,
            ..TimedPe::default()
        }
    }

    /// Payload bytes of slice `s`.
    pub(crate) fn payload_bytes(&self, s: &Slice) -> u64 {
        (s.len * self.dim * 4) as u64
    }

    /// Steps the protocol for task completion `c` of PE `pe` and returns
    /// the WG's overhead before its next task.
    pub(crate) fn complete(&self, pe: &mut TimedPe, c: &TaskCompletion) -> SimTime {
        let (s, item) = self.table.step_of(pe.me, c.id);
        let tag = s.index as u64;
        pe.timeline
            .span(c.wg, SpanKind::Compute, c.start, c.end, tag);
        pe.wg = c.wg;
        pe.end = c.end;
        pe.overhead = self.tuning.bookkeeping;
        step(self, pe, s, item, 1);
        pe.overhead
    }

    /// Stage 1 for PE `pe`: its persistent WGs run `plans` (of
    /// [`SliceTable::task`] ids) on the GPU's shared HBM, stealing with
    /// `steal_seed` if set, and step the protocol at every completion.
    pub(crate) fn run(
        &self,
        gpu: &GpuConfig,
        plans: Vec<WgPlan>,
        steal_seed: Option<u64>,
        pe: &mut TimedPe,
    ) -> ExecResult {
        let hbm = gpu.hbm.clone();
        let mut exec = PersistentExec::new(move |n| hbm.aggregate(n), plans);
        if let Some(seed) = steal_seed {
            exec = exec.with_stealing(seed);
        }
        exec.run(|c| self.complete(pe, c))
    }

    /// How long PE `pe`'s direct stores to same-NIC peers outlast its
    /// compute: the egress streams over its xGMI links during the kernel
    /// and is exposed only past `compute_end`.
    pub(crate) fn p2p_tail(&self, pe: &TimedPe, compute_end: SimTime) -> SimTime {
        let links = (self.pes_per_nic - 1).max(1) as f64;
        let egress = pe.p2p_bytes as f64 / (LinkSpec::xgmi().bandwidth * links);
        SimTime::from_nanos_f64(egress).saturating_sub(compute_end)
    }
}

impl Backend for Timed<'_> {
    type Wg = TimedPe;

    fn is_p2p(&self, s: &Slice) -> bool {
        let ppn = self.pes_per_nic;
        ppn > 1 && s.src / ppn == s.dst / ppn
    }

    fn produce(&self, pe: &mut TimedPe, s: &Slice, _: usize, network: bool) {
        if !network && s.dst != s.src {
            pe.p2p_bytes += (self.dim * 4) as u64;
        }
    }

    /// The sequential `WG_Done`: over-completing a slice panics, which is
    /// how the timed clock checks that every task ran exactly once.
    fn wg_done(&self, pe: &mut TimedPe, s: &Slice) -> u64 {
        let done = &mut pe.wg_done[s.index];
        *done += 1;
        assert!(*done <= s.len as u64, "slice {} over-completed", s.index);
        *done
    }

    fn ship(&self, pe: &mut TimedPe, s: &Slice) {
        pe.overhead += self.tuning.api_latency;
        let issue = pe.end + pe.overhead;
        pe.timeline
            .point(pe.wg, PointKind::RemotePut, issue, s.index as u64);
        pe.puts.push((issue, *s));
    }

    fn publish(&self, pe: &mut TimedPe, s: &Slice) {
        let at = pe.end + pe.overhead;
        pe.timeline
            .point(pe.wg, PointKind::LocalSliceComplete, at, s.index as u64);
    }
}

/// The NIC a replay posts through, chosen once: a fault-injecting
/// go-back-N queue pair, several queue pairs, or one clean queue pair.
#[derive(Debug)]
pub(crate) enum Wire {
    Clean(Nic),
    Faulty(Box<FaultyNic>),
    MultiQp(MultiQpNic),
}

impl Wire {
    /// Faults model the single-QP path only: a plan with `num_qps > 1`
    /// panics.
    pub(crate) fn new(link: LinkSpec, faults: Option<&FaultPlan>, num_qps: usize) -> Wire {
        match faults {
            Some(plan) => {
                assert_eq!(num_qps, 1, "fault injection models the single-QP path");
                Wire::Faulty(Box::new(FaultyNic::new(link, plan.clone())))
            }
            None if num_qps == 1 => Wire::Clean(Nic::new(link)),
            None => Wire::MultiQp(MultiQpNic::new(link, num_qps)),
        }
    }

    /// Posts network slice `s`'s publication at `at`: its `bytes` of row
    /// PUTs as one payload message, then the `sliceRdy` flag. Both ride
    /// one queue pair (several QPs pin a slice by its index), whose FIFO
    /// keeps the flag behind its payload. Returns (payload, flag).
    pub(crate) fn publish(&mut self, at: SimTime, s: &Slice, bytes: u64) -> (Delivery, Delivery) {
        let message = |bytes, kind| Message {
            src: s.src as u32,
            dst: s.dst as u32,
            bytes,
            tag: s.index as u64,
            kind,
        };
        let mut post = |m| match self {
            Wire::Clean(nic) => nic.post(at, m),
            Wire::Faulty(nic) => nic.post(at, m),
            Wire::MultiQp(nic) => nic.post_on(s.index % nic.num_qps(), at, m),
        };
        let payload = post(message(bytes, MessageKind::Payload));
        (payload, post(message(8, MessageKind::Flag)))
    }

    /// Messages posted and bytes on the wire so far: payloads, flags and
    /// retransmissions.
    pub(crate) fn sent(&self) -> (u64, u64) {
        let nic = match self {
            Wire::Clean(nic) => nic,
            Wire::Faulty(nic) => nic.nic(),
            Wire::MultiQp(nic) => return (nic.posted(), nic.bytes_sent()),
        };
        (nic.posted(), nic.bytes_sent())
    }

    pub(crate) fn fault_stats(&self) -> Option<FaultStats> {
        let Wire::Faulty(nic) = self else { return None };
        Some(nic.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;

    /// PE 0's slices of `lens` items each, all bound for PE 1 over the
    /// network.
    fn table(lens: &[usize]) -> SliceTable {
        SliceTable::new(&[lens.iter().map(|&len| (len, 1)).collect(), Vec::new()])
    }

    fn clock(table: &SliceTable) -> Timed<'_> {
        Timed::new(table, 4, FusedTuning::default(), &presets::dual_node_ib())
    }

    /// Completes item `item` of PE 0's slice `index`; whether that
    /// completion was elected and shipped the slice, checked against the
    /// overhead it returned.
    fn complete(timed: &Timed, pe: &mut TimedPe, index: usize, item: usize) -> bool {
        let s = timed.table.slices(0)[index];
        let shipped = pe.puts.len();
        let c = TaskCompletion {
            wg: 0,
            seq: 0,
            id: SliceTable::task(index, s.first_item + item),
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            stolen: false,
        };
        let overhead = timed.complete(pe, &c);
        let elected = pe.puts.len() > shipped;
        let tuning = FusedTuning::default();
        let expected = if elected {
            tuning.bookkeeping + tuning.api_latency
        } else {
            tuning.bookkeeping
        };
        assert_eq!(overhead, expected);
        elected
    }

    #[test]
    fn single_wg_slice_elects_immediately() {
        let table = table(&[1]);
        let timed = clock(&table);
        let mut pe = timed.pe(0, Timeline::disabled());
        assert!(complete(&timed, &mut pe, 0, 0));
        assert_eq!(pe.puts, vec![(pe.puts[0].0, table.slices(0)[0])]);
    }

    #[test]
    fn exactly_one_last_finisher_any_order() {
        // All 4! completion orders of a 4-WG slice elect exactly one last
        // finisher, always on the 4th completion.
        for perm in permutations(&[0, 1, 2, 3]) {
            let table = table(&[4]);
            let timed = clock(&table);
            let mut pe = timed.pe(0, Timeline::disabled());
            let mut elected = 0;
            for (i, &item) in perm.iter().enumerate() {
                if complete(&timed, &mut pe, 0, item) {
                    elected += 1;
                    assert_eq!(i, 3, "elected before all WGs finished");
                }
            }
            assert_eq!(elected, 1);
        }
    }

    #[test]
    fn wide_slices_use_counter() {
        let n = 100;
        let table = table(&[n]);
        let timed = clock(&table);
        let mut pe = timed.pe(0, Timeline::disabled());
        for i in 0..n - 1 {
            assert!(!complete(&timed, &mut pe, 0, i));
        }
        assert!(complete(&timed, &mut pe, 0, n - 1));
    }

    #[test]
    fn sixty_four_wg_boundary() {
        let table = table(&[64]);
        let timed = clock(&table);
        let mut pe = timed.pe(0, Timeline::disabled());
        for i in 0..63 {
            assert!(!complete(&timed, &mut pe, 0, i));
        }
        assert!(complete(&timed, &mut pe, 0, 63));
    }

    #[test]
    #[should_panic(expected = "over-completed")]
    fn double_completion_detected() {
        // A counter cannot tell which WG repeated, so the repeat elects
        // early; the slice's remaining WG then over-completes it.
        let table = table(&[2]);
        let timed = clock(&table);
        let mut pe = timed.pe(0, Timeline::disabled());
        complete(&timed, &mut pe, 0, 1);
        complete(&timed, &mut pe, 0, 1);
        complete(&timed, &mut pe, 0, 0);
    }

    #[test]
    fn independent_slices() {
        let table = table(&[2, 3]);
        let timed = clock(&table);
        let mut pe = timed.pe(0, Timeline::disabled());
        assert!(!complete(&timed, &mut pe, 0, 0));
        assert!(!complete(&timed, &mut pe, 1, 0));
        assert!(complete(&timed, &mut pe, 0, 1));
        assert!(!complete(&timed, &mut pe, 1, 2));
        assert!(complete(&timed, &mut pe, 1, 1));
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &head) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }
}
