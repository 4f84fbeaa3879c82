//! Deterministic fault injection for the communication substrate.
//!
//! Real fabrics lose, duplicate, delay and corrupt packets; whole
//! endpoints die or straggle. [`FaultPlan`] describes such a fault
//! schedule *declaratively* and hands out bit-reproducible per-message
//! decisions:
//!
//! * **Statelessness** — a decision is a pure hash of
//!   `(seed, src, dst, tag, exec, attempt)`. No draw order, no shared RNG
//!   stream, so the multi-threaded functional layer gets identical fault
//!   schedules regardless of thread interleaving, and a retry of the same
//!   message (`attempt + 1`) gets an independent decision.
//! * **Composability** — drop/duplicate/delay/corrupt probabilities,
//!   fail-stop PE crashes, and straggler PEs combine in one plan; each
//!   knob defaults to off, so `FaultPlan::new(seed)` is a fault-free plan.
//!
//! The two clocks key [`FaultPlan::decide`] differently. The functional
//! SHMEM runtime passes `(me, dst, slice, exec, attempt)`; the timed NIC
//! passes `(src, dst, tag, seq, attempt)`, where `seq` is the NIC's
//! posting count. One plan therefore yields different fault schedules on
//! the two clocks.
//!
//! [`Nic::with_faults`](crate::Nic::with_faults) applies a plan to the
//! timed NIC model with RoCE-style go-back-N recovery: a lost message costs
//! a retransmission timeout plus re-serialization, and everything queued
//! behind it waits — FIFO within the queue pair is preserved, which is
//! exactly the property the fused kernel's `PUT(payload); fence; PUT(flag)`
//! sequence relies on.

use fcc_sim::{splitmix64, SimTime};

/// What the fault layer decides to do with one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message goes through unharmed.
    Deliver,
    /// The message is lost; the sender must retry (or give up).
    Drop,
    /// The message is delivered after an extra delay.
    Delay(SimTime),
    /// The message is delivered twice (benign for idempotent RDMA
    /// writes, but it costs wire time and shows up in the counters).
    Duplicate,
    /// The payload is silently corrupted in flight (see [`CorruptEvent`]).
    /// The message still *arrives* — whether anyone notices is up to the
    /// integrity layer, which is the whole point of this fault class.
    Corrupt(CorruptEvent),
}

/// How a corrupted payload differs from what the sender intended.
///
/// The first two kinds break the payload/checksum relationship and are
/// caught by a wire (per-put) checksum. The last two are *self
/// consistent* — the stale or misrouted payload carries a checksum that
/// matches its own bytes — so they sail through the wire check and can
/// only be caught by the end-to-end ABFT checksum the fused operator
/// accumulates during its compute pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptKind {
    /// A single bit of the payload flips in flight.
    BitFlip,
    /// Only a prefix of the payload is delivered (torn put).
    Torn,
    /// A prior-epoch payload for the same slice is replayed, checksum
    /// and all.
    StaleReplay,
    /// The payload lands under the wrong slice id, so the receiver
    /// consumes bytes meant for a different slice.
    Misroute,
}

impl CorruptKind {
    /// True if a per-put wire checksum detects this kind: the delivered
    /// bytes no longer match the checksum the sender computed.
    pub fn wire_detectable(self) -> bool {
        matches!(self, CorruptKind::BitFlip | CorruptKind::Torn)
    }
}

/// One decided corruption: the kind plus a deterministic salt from which
/// injectors derive *which* bit flips, *where* the put tears, and so on,
/// so every layer corrupts the same message the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptEvent {
    pub kind: CorruptKind,
    /// Hash salt for deriving deterministic corruption details.
    pub salt: u64,
}

impl CorruptEvent {
    /// The byte of an `len`-byte payload this event mutates.
    pub fn byte_offset(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            (splitmix64(&mut (self.salt ^ 0xB17E)) % len as u64) as usize
        }
    }

    /// A non-zero XOR mask for the flipped bit.
    fn bit_mask(&self) -> u8 {
        1u8 << (splitmix64(&mut (self.salt ^ 0xF11B)) % 8)
    }

    /// How many bytes of an `len`-byte torn put actually arrive
    /// (strictly fewer than `len` when `len > 0`).
    fn torn_len(&self, len: usize) -> usize {
        if len <= 1 {
            0
        } else {
            (splitmix64(&mut (self.salt ^ 0x7042)) % (len as u64 - 1)) as usize
        }
    }

    /// Applies this corruption to a payload copy in place, returning the
    /// number of valid bytes (shorter than `buf.len()` for torn puts).
    ///
    /// `StaleReplay` and `Misroute` derange every byte deterministically
    /// (standing in for "plausible but wrong slice contents"); callers
    /// that can replay a real stale payload should do that instead.
    pub fn apply(&self, buf: &mut [u8]) -> usize {
        match self.kind {
            CorruptKind::BitFlip => {
                if !buf.is_empty() {
                    let at = self.byte_offset(buf.len());
                    buf[at] ^= self.bit_mask();
                }
                buf.len()
            }
            CorruptKind::Torn => self.torn_len(buf.len()),
            CorruptKind::StaleReplay | CorruptKind::Misroute => {
                let mask = (splitmix64(&mut (self.salt ^ 0x57A1E)) as u8) | 1;
                for b in buf.iter_mut() {
                    *b ^= mask;
                }
                buf.len()
            }
        }
    }
}

/// Where within the crashing execution (training step) a fail-stop crash
/// lands. Crash-schedule property tests sweep this to hit every phase of
/// the fused pipeline: before any work, mid-scatter, after compute but
/// before commit, and inside the drain loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrashPoint {
    /// Dead on arrival: the PE does no work at all in the crashing
    /// execution (the legacy [`FaultPlan::with_pe_crash`] behaviour).
    #[default]
    Start,
    /// The PE dies after successfully issuing its first `n` slices.
    AfterSlices(u32),
    /// The PE finishes its compute and sends, then dies before the
    /// commit rendezvous — survivors hold its full output but must not
    /// count its vote.
    AfterCompute,
    /// The PE dies while draining inbound slices, after committing its
    /// own sends.
    InDrain,
}

/// A fail-stop endpoint: from `exec` on, nothing this PE sends arrives.
///
/// This models the paper's GPU-initiated path dying (kernel wedged, QP
/// torn down) while the *host* thread stays alive — so the crashed PE
/// still participates in host-side barriers and in the host-initiated
/// fallback collective. A full host death would need consensus machinery
/// out of scope here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PeCrash {
    pe: u32,
    /// First execution index (1-based, matching the operators' `exec`
    /// argument) at which the PE's sends start vanishing.
    from_exec: u64,
    /// Where within execution `from_exec` the PE dies. Later executions
    /// are always [`CrashPoint::Start`]: the PE is already gone.
    point: CrashPoint,
}

/// A slow endpoint: every send it makes is delayed by `delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Straggler {
    pe: u32,
    delay: SimTime,
}

/// Converts a probability to a 64-bit threshold for hash comparison.
fn threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
    if p >= 1.0 {
        u64::MAX
    } else {
        (p * u64::MAX as f64) as u64
    }
}

/// A seeded, composable, bit-reproducible fault schedule.
///
/// ```
/// use fcc_net::FaultPlan;
///
/// let plan = FaultPlan::new(42).with_drop_rate(0.2).with_straggler(1, fcc_sim::SimTime::from_micros(5));
/// // Decisions are pure functions of the coordinates:
/// assert_eq!(plan.decide(0, 1, 7, 1, 0), plan.decide(0, 1, 7, 1, 0));
/// // A retry of the same message re-rolls the dice:
/// let _second_attempt = plan.decide(0, 1, 7, 1, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_t: u64,
    dup_t: u64,
    delay_t: u64,
    max_delay: SimTime,
    /// Corruption threshold and the one kind every corruption takes.
    corrupt: Option<(u64, CorruptKind)>,
    crashes: Vec<PeCrash>,
    stragglers: Vec<Straggler>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed; compose faults onto it with
    /// the `with_*` builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Each transmission attempt is independently lost with probability
    /// `p`.
    pub fn with_drop_rate(mut self, p: f64) -> FaultPlan {
        self.drop_t = threshold(p);
        self
    }

    /// Each attempt is independently duplicated with probability `p`.
    pub fn with_dup_rate(mut self, p: f64) -> FaultPlan {
        self.dup_t = threshold(p);
        self
    }

    /// Each attempt is independently delayed, with probability `p`, by a
    /// deterministic amount in `(0, max_delay]`.
    pub fn with_delay(mut self, p: f64, max_delay: SimTime) -> FaultPlan {
        self.delay_t = threshold(p);
        self.max_delay = max_delay;
        self
    }

    /// Each attempt is independently corrupted in flight with
    /// probability `p`, always as `kind`.
    pub fn with_corrupt_only(mut self, p: f64, kind: CorruptKind) -> FaultPlan {
        self.corrupt = Some((threshold(p), kind));
        self
    }

    /// PE `pe` fail-stops at execution `from_exec`: from then on nothing
    /// it sends arrives. It dies before doing any work in that execution.
    pub fn with_pe_crash(self, pe: u32, from_exec: u64) -> FaultPlan {
        self.with_pe_crash_at(pe, from_exec, CrashPoint::Start)
    }

    /// PE `pe` fail-stops at the given [`CrashPoint`] within execution
    /// `from_exec`. Message-level decisions ([`decide`](Self::decide))
    /// conservatively treat the PE as dead for the whole crashing
    /// execution; phase-aware operators consult
    /// [`crash_point`](Self::crash_point) to act out the precise instant.
    pub fn with_pe_crash_at(mut self, pe: u32, from_exec: u64, point: CrashPoint) -> FaultPlan {
        self.crashes.push(PeCrash {
            pe,
            from_exec,
            point,
        });
        self
    }

    /// PE `pe` delays every send by `delay`.
    pub fn with_straggler(mut self, pe: u32, delay: SimTime) -> FaultPlan {
        self.stragglers.push(Straggler { pe, delay });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if `pe`'s sends vanish at execution `exec`.
    pub fn is_crashed(&self, pe: u32, exec: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.pe == pe && exec >= c.from_exec)
    }

    /// Where `pe` dies within execution `exec`, if it is dead there at
    /// all: the configured [`CrashPoint`] in the first crashing
    /// execution, [`CrashPoint::Start`] in every later one (the PE never
    /// comes back), `None` while it is still alive.
    pub fn crash_point(&self, pe: u32, exec: u64) -> Option<CrashPoint> {
        self.crashes
            .iter()
            .filter(|c| c.pe == pe && exec >= c.from_exec)
            .map(|c| {
                if exec == c.from_exec {
                    c.point
                } else {
                    CrashPoint::Start
                }
            })
            // Multiple schedules for one PE: the earliest death wins, and
            // Start (already dead) dominates any same-exec point.
            .min_by_key(|p| match p {
                CrashPoint::Start => 0u64,
                CrashPoint::AfterSlices(n) => 1 + *n as u64,
                CrashPoint::AfterCompute => u64::MAX - 1,
                CrashPoint::InDrain => u64::MAX,
            })
    }

    /// Extra per-send delay for `pe` (zero unless it's a straggler).
    pub fn straggle(&self, pe: u32) -> SimTime {
        self.stragglers
            .iter()
            .filter(|s| s.pe == pe)
            .map(|s| s.delay)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The fate of one transmission attempt, as a pure function of its
    /// coordinates. `exec` is the operator execution index (use 0 where
    /// there is none) and `attempt` the retry count, so resends re-roll.
    ///
    /// Fault classes are prioritised crash > drop > corrupt > delay >
    /// duplicate: the hash is reused across classes with distinct
    /// tweaks, keeping one class's probability independent of another's.
    pub fn decide(&self, src: u32, dst: u32, tag: u64, exec: u64, attempt: u32) -> FaultAction {
        if self.is_crashed(src, exec) {
            return FaultAction::Drop;
        }
        let base = self
            .seed
            .wrapping_add(splitmix64(&mut ((src as u64) << 32 | dst as u64)))
            .wrapping_add(splitmix64(&mut { tag }))
            .wrapping_add(splitmix64(&mut (exec << 8 | attempt as u64)));
        if self.drop_t > 0 && splitmix64(&mut (base ^ 0xD509)) < self.drop_t {
            return FaultAction::Drop;
        }
        if let Some((corrupt_t, kind)) = self.corrupt {
            if corrupt_t > 0 && splitmix64(&mut (base ^ 0xC042)) < corrupt_t {
                return FaultAction::Corrupt(CorruptEvent {
                    kind,
                    salt: splitmix64(&mut (base ^ 0x5A17)),
                });
            }
        }
        if self.delay_t > 0 && splitmix64(&mut (base ^ 0xDE1A)) < self.delay_t {
            // Deterministic delay in (0, max_delay], scaled by the hash.
            let frac = (splitmix64(&mut (base ^ 0x5CA1E)) >> 11) as f64 / (1u64 << 53) as f64;
            let ns = (self.max_delay.as_nanos_f64() * frac).max(1.0);
            return FaultAction::Delay(SimTime::from_nanos_f64(ns));
        }
        if self.dup_t > 0 && splitmix64(&mut (base ^ 0xD0B1E)) < self.dup_t {
            return FaultAction::Duplicate;
        }
        FaultAction::Deliver
    }
}

/// Fault counters accumulated by a [`Nic`](crate::Nic) under a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages the caller posted.
    pub posted: u64,
    /// Attempts lost and retransmitted.
    pub drops: u64,
    /// Messages delivered twice.
    pub dups: u64,
    /// Messages delivered late.
    pub delays: u64,
    /// Bytes serialized more than once due to loss or duplication.
    pub retransmitted_bytes: u64,
    /// Attempts whose payload the plan corrupted in flight.
    pub corrupt_injected: u64,
    /// Corruptions the wire checksum caught (link-level CRC fail →
    /// NAK → go-back-N retransmit, same as a drop).
    pub corrupt_detected: u64,
    /// Corruptions that sailed past the wire checksum — self-consistent
    /// stale replays and misroutes — and were delivered. Only the fused
    /// operator's end-to-end ABFT checksum can catch these.
    pub corrupt_escaped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::nic::{Message, MessageKind, Nic};

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

    /// A one-QP InfiniBand NIC under `plan`.
    fn under(plan: FaultPlan) -> Nic {
        Nic::new(LinkSpec::infiniband_20gbs()).with_faults(plan)
    }

    fn stats_of(nic: &Nic) -> FaultStats {
        nic.fault_stats().expect("the NIC runs under a plan")
    }

    #[test]
    fn decisions_are_pure_and_seeded() {
        let plan = FaultPlan::new(7).with_drop_rate(0.5);
        for tag in 0..50 {
            assert_eq!(plan.decide(0, 1, tag, 1, 0), plan.decide(0, 1, tag, 1, 0));
        }
        // Different seeds disagree somewhere.
        let other = FaultPlan::new(8).with_drop_rate(0.5);
        assert!((0..50).any(|t| plan.decide(0, 1, t, 1, 0) != other.decide(0, 1, t, 1, 0)));
        // Retries re-roll: a dropped first attempt can succeed later.
        let dropped: Vec<u64> = (0..200)
            .filter(|&t| plan.decide(0, 1, t, 1, 0) == FaultAction::Drop)
            .collect();
        assert!(!dropped.is_empty());
        assert!(dropped
            .iter()
            .any(|&t| plan.decide(0, 1, t, 1, 1) != FaultAction::Drop));
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(3).with_drop_rate(0.25);
        let drops = (0..4000)
            .filter(|&t| plan.decide(0, 1, t, 0, 0) == FaultAction::Drop)
            .count();
        assert!((800..1200).contains(&drops), "{drops} drops for p=0.25");
    }

    #[test]
    fn fault_free_plan_matches_plain_nic() {
        let mut plain = Nic::new(LinkSpec::infiniband_20gbs());
        let mut faulty = under(FaultPlan::new(1));
        for i in 0..20 {
            let a = plain.post(ns(i * 500), msg(4096, i));
            let b = faulty.post(ns(i * 500), msg(4096, i));
            assert_eq!(a, b, "message {i}");
        }
        assert_eq!(
            stats_of(&faulty),
            FaultStats {
                posted: 20,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn drops_cost_rto_and_preserve_fifo() {
        let plan = FaultPlan::new(11).with_drop_rate(0.4);
        let mut faulty = under(plan);
        let mut clean = Nic::new(LinkSpec::infiniband_20gbs());
        let mut last = SimTime::ZERO;
        for i in 0..100 {
            let d = faulty.post(ns(0), msg(2048, i));
            let c = clean.post(ns(0), msg(2048, i));
            assert!(d.arrival >= c.arrival, "faults only ever delay");
            assert!(d.arrival > last, "FIFO: message {i} overtook");
            last = d.arrival;
        }
        let stats = stats_of(&faulty);
        assert!(stats.drops > 10, "expected drops, got {stats:?}");
        assert_eq!(stats.retransmitted_bytes, stats.drops * 2048);
    }

    #[test]
    fn total_drop_plan_still_terminates() {
        let plan = FaultPlan::new(2).with_drop_rate(1.0);
        let mut faulty = under(plan);
        let d = faulty.post(ns(0), msg(1024, 0));
        // 16 retries of a 20 us RTO each, then the forced final attempt.
        assert!(d.arrival >= ns(16 * 20_000));
        assert_eq!(stats_of(&faulty).drops, 16);
    }

    #[test]
    fn arrivals_stay_fifo_under_any_delay_schedule() {
        // Whatever the delay schedule and message mix, a FIFO SQ never
        // reorders: arrivals are strictly increasing in post order.
        for seed in 0..4 {
            let plan = FaultPlan::new(seed).with_delay(0.3, SimTime::from_micros(7));
            let mut nic = under(plan);
            let mut last = SimTime::ZERO;
            for i in 0..32 {
                let bytes = if i % 2 == 0 { 100 } else { 1 << 16 };
                let d = nic.post(ns(i * 50), msg(bytes, i));
                assert!(d.arrival > last, "message {i} overtook (seed {seed})");
                last = d.arrival;
            }
            assert!(stats_of(&nic).delays > 0, "seed {seed}");
        }
    }

    #[test]
    fn duplicates_charge_extra_wire_time() {
        let plan = FaultPlan::new(9).with_dup_rate(1.0);
        let mut faulty = under(plan);
        let first = faulty.post(ns(0), msg(20_000, 0));
        let second = faulty.post(ns(0), msg(20_000, 1));
        // The duplicate of message 0 serializes before message 1 starts.
        let mut clean = Nic::new(LinkSpec::infiniband_20gbs());
        clean.post(ns(0), msg(20_000, 0));
        let clean_second = clean.post(ns(0), msg(20_000, 1));
        assert!(second.arrival > clean_second.arrival);
        assert_eq!(stats_of(&faulty).dups, 2);
        assert!(first.arrival < second.arrival);
    }

    #[test]
    fn straggler_delays_every_send() {
        let plan = FaultPlan::new(6).with_straggler(0, ns(7_000));
        let mut faulty = under(plan);
        let mut clean = Nic::new(LinkSpec::infiniband_20gbs());
        let d = faulty.post(ns(0), msg(1024, 0));
        let c = clean.post(ns(0), msg(1024, 0));
        assert_eq!(d.arrival, c.arrival + ns(7_000));
    }

    #[test]
    fn crash_is_monotonic_per_exec() {
        let plan = FaultPlan::new(1).with_pe_crash(2, 3);
        assert!(!plan.is_crashed(2, 1));
        assert!(!plan.is_crashed(2, 2));
        assert!(plan.is_crashed(2, 3));
        assert!(plan.is_crashed(2, 9));
        assert!(!plan.is_crashed(1, 9));
        assert_eq!(plan.decide(2, 0, 0, 5, 0), FaultAction::Drop);
    }

    #[test]
    fn crash_point_tracks_the_crashing_exec() {
        let plan = FaultPlan::new(1).with_pe_crash_at(2, 3, CrashPoint::AfterSlices(5));
        assert_eq!(plan.crash_point(2, 2), None);
        assert_eq!(plan.crash_point(2, 3), Some(CrashPoint::AfterSlices(5)));
        // Later executions: the PE is simply gone.
        assert_eq!(plan.crash_point(2, 4), Some(CrashPoint::Start));
        assert_eq!(plan.crash_point(1, 9), None);
        // Message-level decisions stay conservative through the whole
        // crashing execution.
        assert!(plan.is_crashed(2, 3));
        assert_eq!(plan.decide(2, 0, 0, 3, 0), FaultAction::Drop);
        // The legacy builder means "dead on arrival".
        let legacy = FaultPlan::new(1).with_pe_crash(0, 1);
        assert_eq!(legacy.crash_point(0, 1), Some(CrashPoint::Start));
    }

    #[test]
    fn corruption_decisions_are_pure_and_roughly_honoured() {
        let plan = FaultPlan::new(21).with_corrupt_only(0.25, CorruptKind::Misroute);
        let hits = (0..4000)
            .filter(|&t| matches!(plan.decide(0, 1, t, 0, 0), FaultAction::Corrupt(_)))
            .count();
        assert!((800..1200).contains(&hits), "{hits} corruptions for p=0.25");
        for t in 0..50 {
            assert_eq!(plan.decide(0, 1, t, 1, 0), plan.decide(0, 1, t, 1, 0));
        }
    }

    #[test]
    fn corrupt_event_mutates_deterministically() {
        let plan = FaultPlan::new(33).with_corrupt_only(1.0, CorruptKind::BitFlip);
        let FaultAction::Corrupt(ev) = plan.decide(0, 1, 9, 1, 0) else {
            panic!("p=1.0 corrupts");
        };
        let clean = vec![7u8; 64];
        let mut a = clean.clone();
        let mut b = clean.clone();
        assert_eq!(ev.apply(&mut a), 64);
        ev.apply(&mut b);
        assert_eq!(a, b, "same event, same damage");
        assert_ne!(a, clean, "a bit actually flipped");
        assert_eq!(a.iter().zip(&clean).filter(|(x, y)| x != y).count(), 1);
        // Torn puts deliver a strict prefix.
        let torn = CorruptEvent {
            kind: CorruptKind::Torn,
            salt: 5,
        };
        assert!(torn.apply(&mut [0u8; 32]) < 32);
        // Stale replays derange every byte (self-consistent damage).
        let stale = CorruptEvent {
            kind: CorruptKind::StaleReplay,
            salt: 6,
        };
        let mut s = clean.clone();
        stale.apply(&mut s);
        assert!(s.iter().zip(&clean).all(|(x, y)| x != y));
    }

    #[test]
    fn wire_detectable_corruption_retransmits_like_a_drop() {
        let plan = FaultPlan::new(8).with_corrupt_only(0.5, CorruptKind::BitFlip);
        let mut faulty = under(plan);
        let mut clean = Nic::new(LinkSpec::infiniband_20gbs());
        for i in 0..100 {
            let d = faulty.post(ns(0), msg(2048, i));
            let c = clean.post(ns(0), msg(2048, i));
            assert!(d.arrival >= c.arrival, "detection only ever delays");
        }
        let stats = stats_of(&faulty);
        assert!(stats.corrupt_injected > 10, "{stats:?}");
        assert_eq!(stats.corrupt_detected, stats.corrupt_injected);
        assert_eq!(stats.corrupt_escaped, 0);
        assert_eq!(
            stats.retransmitted_bytes,
            (stats.corrupt_detected + stats.drops) * 2048
        );
    }

    #[test]
    fn self_consistent_corruption_escapes_the_wire_check() {
        let plan = FaultPlan::new(8).with_corrupt_only(0.5, CorruptKind::StaleReplay);
        let mut faulty = under(plan);
        let mut clean = Nic::new(LinkSpec::infiniband_20gbs());
        for i in 0..100 {
            let d = faulty.post(ns(i * 500), msg(2048, i));
            let c = clean.post(ns(i * 500), msg(2048, i));
            assert_eq!(d, c, "escaped corruption costs no wire time");
        }
        let stats = stats_of(&faulty);
        assert!(stats.corrupt_injected > 10, "{stats:?}");
        assert_eq!(stats.corrupt_escaped, stats.corrupt_injected);
        assert_eq!(stats.corrupt_detected, 0);
    }

    #[test]
    fn delay_faults_bound_and_deterministic() {
        let plan = FaultPlan::new(12).with_delay(1.0, SimTime::from_micros(50));
        match plan.decide(0, 1, 42, 1, 0) {
            FaultAction::Delay(d) => {
                assert!(d > SimTime::ZERO && d <= SimTime::from_micros(50));
                assert_eq!(plan.decide(0, 1, 42, 1, 0), FaultAction::Delay(d));
            }
            other => panic!("expected delay, got {other:?}"),
        }
    }
}
