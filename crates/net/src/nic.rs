//! GPU-direct NIC model with queue-pair semantics.
//!
//! Mirrors the ROC_SHMEM design the paper builds on (its Figure 4): GPU
//! threads write command packets into a send queue (SQ) resident in GPU
//! memory and ring a doorbell; the NIC walks the SQ in order, performs each
//! RDMA operation, and posts completions to a completion queue (CQ).
//!
//! The timing abstraction: each posted message occupies the NIC's transmit
//! engine for `max(bytes/bandwidth, min_message_gap)` starting no earlier
//! than both its doorbell time and the previous message's finish (FIFO
//! within a queue pair), and is delivered `latency` after it leaves the
//! wire. FIFO-per-QP is a semantic guarantee, not just a timing choice: the
//! fused kernel's `PUT(payload); fence; PUT(flag)` correctness depends on
//! the flag never overtaking the payload.
//!
//! Queue pairs and faults are properties of the one [`Nic`]:
//! [`Nic::with_qps`] spreads messages over several queue pairs sharing the
//! wire, and [`Nic::with_faults`] puts the NIC under a [`FaultPlan`] with
//! RoCE-style go-back-N recovery.

use fcc_sim::SimTime;

use crate::fault::{FaultAction, FaultPlan, FaultStats};
use crate::link::LinkSpec;

/// Doorbell-to-SQ-processing overhead: time between the GPU thread ringing
/// the doorbell and the NIC starting on the packet (PCIe/IF register write
/// + WQE fetch).
const DOORBELL: SimTime = SimTime::from_nanos(150);

/// Retransmission timeout charged per lost attempt: a conservative
/// RoCE-style value.
const RTO: SimTime = SimTime::from_micros(20);

/// Retransmissions of one message before the final attempt is forced
/// through, so a 100%-drop plan still terminates.
const MAX_RETRIES: u32 = 16;

/// Payload classification, used by consumers to distinguish slice data
/// from `sliceRdy` flag writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Slice payload (RDMA write of pooled embeddings).
    Payload,
    /// Synchronization flag write (8-byte `sliceRdy` store).
    Flag,
}

/// A message posted to a NIC send queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source endpoint (PE / GPU id).
    pub src: u32,
    /// Destination endpoint.
    pub dst: u32,
    /// RDMA length in bytes.
    pub bytes: u64,
    /// Caller tag (slice index etc.); it also picks the queue pair.
    pub tag: u64,
    pub kind: MessageKind,
}

/// Outcome of posting a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the NIC finished serializing the message (CQ completion time).
    pub sq_complete: SimTime,
    /// When the data is visible at the destination.
    pub arrival: SimTime,
    pub message: Message,
}

/// One endpoint's NIC: queue pairs serializing onto one wire, optionally
/// under a fault plan.
///
/// A message rides queue pair `tag % num_qps`, so messages with the same
/// tag (a slice's payload and its flag) share a QP and its FIFO order.
/// With one QP (the default) the send engine owns the wire and a message
/// occupies it for `max(bytes/bandwidth, min_message_gap)`. ROC_SHMEM
/// gives workgroups their own communication contexts, so with several QPs
/// each pays the per-message gap on its own while the bytes serialize on
/// the wire they share: the message-rate limit divides across QPs, the
/// bandwidth does not.
///
/// Under a [`FaultPlan`], a lost attempt occupies the wire, vanishes, and
/// the sender waits a retransmission timeout before re-serializing; because
/// a reliable connection replays in order, everything queued behind it on
/// its QP waits too. Delivered timestamps therefore only ever move later
/// under faults, and FIFO per QP is preserved, so a `sliceRdy` flag still
/// cannot overtake its payload no matter the schedule. Decisions come from
/// [`FaultPlan::decide`] keyed by the NIC's message sequence number, so a
/// faulty run is deterministic end to end.
///
/// Posting is O(1) and deterministic.
///
/// ```
/// use fcc_net::{LinkSpec, Message, MessageKind, Nic};
/// use fcc_sim::SimTime;
///
/// let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
/// let payload = nic.post(SimTime::ZERO, Message {
///     src: 0, dst: 1, bytes: 64 * 1024, tag: 7, kind: MessageKind::Payload,
/// });
/// let flag = nic.post(SimTime::ZERO, Message {
///     src: 0, dst: 1, bytes: 8, tag: 7, kind: MessageKind::Flag,
/// });
/// // FIFO per queue pair: the flag can never overtake its payload.
/// assert!(flag.arrival > payload.arrival);
/// ```
#[derive(Debug, Clone)]
pub struct Nic {
    link: LinkSpec,
    /// When each queue pair's send engine frees up.
    qps: Vec<SimTime>,
    /// When the wire shared by several queue pairs frees up.
    wire: SimTime,
    /// The fault plan and its go-back-N state; `None` is a clean NIC.
    faults: Option<Box<Faults>>,
    posted: u64,
    bytes_sent: u64,
}

/// A fault plan's state on one NIC.
#[derive(Debug, Clone)]
struct Faults {
    plan: FaultPlan,
    stats: FaultStats,
}

impl Nic {
    /// A clean NIC with one queue pair attached to `link`.
    pub fn new(link: LinkSpec) -> Nic {
        Nic {
            link,
            qps: vec![SimTime::ZERO],
            wire: SimTime::ZERO,
            faults: None,
            posted: 0,
            bytes_sent: 0,
        }
    }

    /// The NIC with `num_qps` queue pairs.
    ///
    /// # Panics
    /// Panics if `num_qps == 0`.
    pub fn with_qps(mut self, num_qps: usize) -> Nic {
        assert!(num_qps > 0, "need at least one QP");
        self.qps = vec![SimTime::ZERO; num_qps];
        self
    }

    /// The NIC under `plan`, riding out its faults go-back-N style.
    pub fn with_faults(mut self, plan: FaultPlan) -> Nic {
        self.faults = Some(Box::new(Faults {
            plan,
            stats: FaultStats::default(),
        }));
        self
    }

    /// Messages serialized so far, retransmissions and duplicates included.
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Total bytes serialized so far, retransmissions and duplicates
    /// included.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Fault counters so far; `None` unless the NIC runs under a plan.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Posts `message` at doorbell time `at` on its queue pair, riding out
    /// any injected faults; the returned delivery reflects the successful
    /// attempt. Messages must be posted in non-decreasing doorbell order
    /// (FIFO SQ).
    pub fn post(&mut self, at: SimTime, message: Message) -> Delivery {
        let qp = (message.tag % self.qps.len() as u64) as usize;
        let Some(mut faults) = self.faults.take() else {
            return self.send(qp, at, message);
        };
        let delivery = self.ride_out(&mut faults, qp, at, message);
        self.faults = Some(faults);
        delivery
    }

    /// One attempt of `message` on queue pair `qp`, fault-free.
    #[inline]
    fn send(&mut self, qp: usize, at: SimTime, message: Message) -> Delivery {
        let start = (at + DOORBELL).max(self.qps[qp]);
        let finish = if self.qps.len() == 1 {
            self.qps[qp] = start + self.link.occupancy(message.bytes);
            self.qps[qp]
        } else {
            // The QP pays the message gap, then the bytes serialize on the
            // shared wire, at least 1 ns each so ordering stays strict.
            self.qps[qp] = start + self.link.min_message_gap;
            let bytes = SimTime::from_nanos_f64(message.bytes as f64 / self.link.bandwidth);
            self.wire = self.qps[qp].max(self.wire) + bytes.max(SimTime::from_nanos(1));
            self.wire
        };
        self.posted += 1;
        self.bytes_sent += message.bytes;
        Delivery {
            sq_complete: finish,
            arrival: finish + self.link.latency,
            message,
        }
    }

    /// Holds queue pair `qp` busy until at least `until`: everything
    /// queued behind a stalled message waits.
    fn stall(&mut self, qp: usize, until: SimTime) {
        self.qps[qp] = self.qps[qp].max(until);
    }

    /// Posts `message` on `qp` under `f`'s plan: attempts until one is
    /// delivered.
    fn ride_out(&mut self, f: &mut Faults, qp: usize, at: SimTime, message: Message) -> Delivery {
        let seq = f.stats.posted;
        f.stats.posted += 1;
        let mut at = at + f.plan.straggle(message.src);
        let mut attempt: u32 = 0;
        loop {
            let delivery = self.send(qp, at, message);
            let action = f
                .plan
                .decide(message.src, message.dst, message.tag, seq, attempt);
            let final_attempt = attempt >= MAX_RETRIES;
            let lost = match action {
                FaultAction::Corrupt(ev) => {
                    // A wire-detectable corruption fails the link-level
                    // CRC on arrival: NAK, RTO, go-back-N retransmit —
                    // priced like a drop. A self-consistent one is
                    // delivered on time with a matching checksum; only an
                    // end-to-end check can see it.
                    f.stats.corrupt_injected += 1;
                    if ev.kind.wire_detectable() {
                        f.stats.corrupt_detected += 1;
                    } else {
                        f.stats.corrupt_escaped += 1;
                    }
                    ev.kind.wire_detectable()
                }
                FaultAction::Drop => {
                    if !final_attempt {
                        f.stats.drops += 1;
                    }
                    true
                }
                FaultAction::Delay(extra) => {
                    f.stats.delays += 1;
                    // Transport stall: the message (and the QP behind it)
                    // sits for `extra` before completing.
                    let done = Delivery {
                        sq_complete: delivery.sq_complete + extra,
                        arrival: delivery.arrival + extra,
                        message,
                    };
                    self.stall(qp, done.sq_complete);
                    return done;
                }
                FaultAction::Duplicate => {
                    // Delivered, then delivered again: the second copy
                    // costs wire time behind the first.
                    f.stats.dups += 1;
                    f.stats.retransmitted_bytes += message.bytes;
                    self.send(qp, at, message);
                    return delivery;
                }
                FaultAction::Deliver => false,
            };
            if !lost || final_attempt {
                return delivery;
            }
            // Lost on the wire: charge the wasted serialization, wait out
            // the RTO, go-back-N from here.
            f.stats.retransmitted_bytes += message.bytes;
            let resume = delivery.sq_complete + RTO;
            self.stall(qp, resume);
            at = at.max(resume);
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bytes: u64, tag: u64) -> Message {
        Message {
            src: 0,
            dst: 1,
            bytes,
            tag,
            kind: MessageKind::Payload,
        }
    }

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    #[test]
    fn isolated_message_timing() {
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
        let d = nic.post(ns(0), msg(20_000, 0));
        // doorbell 150 + serialize 1000 = 1150; + latency 1300 = 2450.
        assert_eq!(d.sq_complete, ns(1_150));
        assert_eq!(d.arrival, ns(2_450));
    }

    #[test]
    fn back_to_back_messages_serialize_fifo() {
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
        let d1 = nic.post(ns(0), msg(20_000, 1));
        let d2 = nic.post(ns(0), msg(20_000, 2));
        assert_eq!(d2.sq_complete, d1.sq_complete + ns(1_000));
        assert!(d2.arrival > d1.arrival, "FIFO: no overtaking");
    }

    #[test]
    fn flag_never_overtakes_payload() {
        // The fence correctness property: a tiny flag posted after a large
        // payload still arrives strictly later.
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
        let payload = nic.post(ns(0), msg(1 << 20, 7));
        let flag = nic.post(
            ns(0),
            Message {
                bytes: 8,
                kind: MessageKind::Flag,
                ..msg(8, 7)
            },
        );
        assert!(flag.arrival > payload.arrival);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
        let d1 = nic.post(ns(0), msg(2_000, 0));
        // Post long after the NIC drained: no queueing delay. A 2000-byte
        // message is gap-bound (100 ns of wire < 450 ns min gap).
        let d2 = nic.post(ns(1_000_000), msg(2_000, 1));
        assert_eq!(d2.sq_complete, ns(1_000_000) + ns(150) + ns(450));
        assert!(d2.sq_complete > d1.sq_complete);
    }

    #[test]
    fn message_rate_bound_for_small_messages() {
        // 1000 tiny messages: NIC time dominated by the 200ns gap each.
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
        let mut last = SimTime::ZERO;
        for i in 0..1000 {
            last = nic.post(ns(0), msg(64, i)).sq_complete;
        }
        // >= 1000 gaps of 200ns.
        assert!(last >= ns(200_000));
        // Same bytes in one message would be line-rate: 64_000B/20 = 3.2us.
        let mut nic2 = Nic::new(LinkSpec::infiniband_20gbs());
        let one = nic2.post(ns(0), msg(64_000, 0)).sq_complete;
        assert!(one < ns(4_000));
    }

    #[test]
    fn multi_qp_relieves_message_rate() {
        // 1024 tiny messages, tags spreading them round-robin: one QP is
        // gap-bound; 8 QPs divide the gap cost while the (tiny) wire cost
        // stays negligible.
        let run = |qps: usize| {
            let mut nic = Nic::new(LinkSpec::infiniband_20gbs()).with_qps(qps);
            let mut last = SimTime::ZERO;
            for i in 0..1024 {
                last = nic.post(ns(0), msg(64, i)).arrival;
            }
            last
        };
        let one = run(1);
        let eight = run(8);
        assert!(
            eight.as_nanos() < one.as_nanos() / 4,
            "8 QPs {eight} should be far below 1 QP {one}"
        );
    }

    #[test]
    fn multi_qp_accounts_bytes_once_across_qps() {
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs()).with_qps(4);
        for i in 0..10 {
            nic.post(ns(0), msg(1_000, i));
        }
        assert_eq!(nic.posted(), 10);
        assert_eq!(nic.bytes_sent(), 10_000);
    }

    #[test]
    fn multi_qp_cannot_exceed_wire_bandwidth() {
        // Large messages: the shared wire is the bottleneck regardless of
        // QP count.
        let run = |qps: usize| {
            let mut nic = Nic::new(LinkSpec::infiniband_20gbs()).with_qps(qps);
            let mut last = SimTime::ZERO;
            for i in 0..64 {
                last = nic.post(ns(0), msg(1 << 20, i)).arrival;
            }
            last
        };
        let one = run(1);
        let eight = run(8);
        // Within ~2% of each other: bandwidth-bound either way.
        let ratio = eight.as_nanos_f64() / one.as_nanos_f64();
        assert!((0.95..=1.02).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn same_qp_preserves_fifo() {
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs()).with_qps(4);
        let payload = nic.post(ns(0), msg(1 << 20, 2));
        let flag = nic.post(
            ns(0),
            Message {
                bytes: 8,
                kind: MessageKind::Flag,
                ..msg(8, 2)
            },
        );
        assert!(flag.arrival > payload.arrival);
    }

    #[test]
    fn faults_ride_every_queue_pair() {
        // A fault-free plan prices like the clean NIC on several QPs, and
        // drops there delay but never reorder a QP's messages.
        let link = LinkSpec::infiniband_20gbs();
        let mut clean = Nic::new(link).with_qps(4);
        let mut free = Nic::new(link).with_qps(4).with_faults(FaultPlan::new(1));
        let mut lossy = Nic::new(link)
            .with_qps(4)
            .with_faults(FaultPlan::new(11).with_drop_rate(0.4));
        let mut last = [SimTime::ZERO; 4];
        for i in 0..100 {
            let c = clean.post(ns(0), msg(2048, i));
            assert_eq!(free.post(ns(0), msg(2048, i)), c, "message {i}");
            let d = lossy.post(ns(0), msg(2048, i));
            assert!(d.arrival >= c.arrival, "faults only ever delay");
            let qp = &mut last[i as usize % 4];
            assert!(d.arrival > *qp, "FIFO per QP: message {i} overtook");
            *qp = d.arrival;
        }
        assert_eq!(free.fault_stats().map(|s| s.drops), Some(0));
        assert!(lossy.fault_stats().expect("under a plan").drops > 10);
        assert_eq!(clean.fault_stats(), None);
    }

    #[test]
    #[should_panic(expected = "at least one QP")]
    fn zero_qps_rejected() {
        Nic::new(LinkSpec::xgmi()).with_qps(0);
    }

    #[test]
    fn counters_accumulate() {
        let mut nic = Nic::new(LinkSpec::xgmi());
        nic.post(ns(0), msg(100, 0));
        nic.post(ns(0), msg(200, 1));
        assert_eq!(nic.posted(), 2);
        assert_eq!(nic.bytes_sent(), 300);
    }
}
