//! Pluggable delivery ordering — the schedule-exploration hook.
//!
//! One-sided hardware lets a non-blocking PUT land *after* a later flag
//! write unless a fence separates them, and that gap is where protocol
//! bugs hide. The delivery rings ([`crate::ring`]) realize the gap —
//! a slot-sized network put stays in its ring until the issuing PE
//! reaches an ordering point (a fence, `quiet`, `barrier_all`, or the
//! end of the run) — and this module makes it explorable as a *policy*
//! on those same rings:
//!
//! * [`DeliveryOrder`] — a strategy consulted once per network put
//!   (defer into the ring, or deliver now through the ring's eager
//!   path?) and once per flag RMW (how long to stall the issuing thread
//!   first?). A put larger than [`crate::ring::SLOT_PAYLOAD`] is
//!   delivered eagerly whatever the strategy says, as it is with no
//!   strategy installed; the log records the realized decision.
//! * [`ScheduleLog`] — the realized decisions, keyed deterministically by
//!   *content* ([`PutKey`]/[`RmwKey`]) rather than by racy sequence
//!   numbers, so a schedule has a stable [signature](ScheduleLog::signature)
//!   usable for distinct-schedule counting and replay.
//!
//! Decisions are pure functions of the key, so a strategy explores the
//! same schedule every time it is installed — `fcc-check` builds its
//! bounded exhaustive/seeded explorer on that determinism.
//!
//! With no order installed (the default), every slot-sized put is
//! deferred and nothing is logged.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Identity of one network put, stable across runs of the same program.
///
/// Two puts with identical source, destination, and byte range share a
/// key (e.g. the same slice re-sent each round); they then share a
/// defer decision, which keeps schedules deterministic at a small cost
/// in diversity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PutKey {
    /// Issuing PE.
    pub src: u32,
    /// Destination PE.
    pub dst: u32,
    /// Destination byte offset within the symmetric heap.
    pub byte_offset: u64,
    /// Length of the put in bytes.
    pub byte_len: u64,
}

/// Identity of one flag RMW (`fetch_or`/`fetch_add`) occurrence.
///
/// RMWs to the same cell are distinguished by an arrival ordinal: the
/// *set* of keys `{0..count-1}` per cell is deterministic even though
/// which physical RMW draws which ordinal is not — good enough for a
/// deterministic decision map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RmwKey {
    /// PE owning the flag cell.
    pub dst: u32,
    /// Global flag word index on that PE's arena.
    pub cell: u64,
    /// Arrival ordinal among RMWs to this cell (0-based).
    pub ordinal: u32,
}

/// A strategy deciding, per operation, how much the delivery schedule is
/// perturbed. Implementations must be pure functions of the key.
pub trait DeliveryOrder: Send + Sync {
    /// Whether this network put's delivery is deferred to the issuing
    /// PE's next ordering point instead of completing inline.
    fn defer_put(&self, key: PutKey) -> bool;

    /// How many scheduler yields to insert before this flag RMW — a
    /// cheap PCT-style thread-schedule perturbation for protocols whose
    /// traffic is all P2P (no deferrable puts).
    fn rmw_yields(&self, key: RmwKey) -> u32 {
        let _ = key;
        0
    }

    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Delivers everything inline — the probe run that discovers a
/// program's deferrable put set.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramOrder;

impl DeliveryOrder for ProgramOrder {
    fn defer_put(&self, _key: PutKey) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "program-order"
    }
}

/// Defers every network put — the adversarial delayed-flag schedule: a
/// flag write overtakes its payload wherever no fence forbids it.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdversarialOrder;

impl DeliveryOrder for AdversarialOrder {
    fn defer_put(&self, _key: PutKey) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "adversarial"
    }
}

/// Seeded pseudo-random schedule: each put/RMW decision is a hash of
/// `(seed, key)`, so one seed names one schedule.
#[derive(Debug, Clone, Copy)]
pub struct SeededOrder {
    /// Schedule seed.
    pub seed: u64,
}

impl SeededOrder {
    /// The schedule named by `seed`.
    pub fn new(seed: u64) -> SeededOrder {
        SeededOrder { seed }
    }
}

impl DeliveryOrder for SeededOrder {
    fn defer_put(&self, key: PutKey) -> bool {
        mix64(self.seed ^ put_key_hash(key)) & 1 == 1
    }
    fn rmw_yields(&self, key: RmwKey) -> u32 {
        (mix64(self.seed ^ rmw_key_hash(key)) >> 7) as u32 % 4
    }
    fn name(&self) -> &'static str {
        "seeded"
    }
}

/// An explicit defer/deliver assignment over an enumerated key set —
/// the exhaustive explorer's instrument. Keys absent from the map take
/// `default`.
#[derive(Debug, Clone, Default)]
pub struct DecisionVector {
    decisions: HashMap<PutKey, bool>,
    default: bool,
}

impl DecisionVector {
    /// Bit `i` of `mask` decides `keys[i]`; keys beyond 64 (and any key
    /// not listed) take `default`.
    pub fn from_mask(keys: &[PutKey], mask: u64, default: bool) -> DecisionVector {
        let decisions = keys
            .iter()
            .enumerate()
            .take(64)
            .map(|(i, &k)| (k, mask >> i & 1 == 1))
            .collect();
        DecisionVector { decisions, default }
    }
}

impl DeliveryOrder for DecisionVector {
    fn defer_put(&self, key: PutKey) -> bool {
        self.decisions.get(&key).copied().unwrap_or(self.default)
    }
    fn name(&self) -> &'static str {
        "decision-vector"
    }
}

/// The installed strategy plus the log [`crate::ShmemWorld`] reports
/// the realized schedule from.
pub(crate) struct DeliveryModel {
    pub(crate) order: Arc<dyn DeliveryOrder>,
    pub(crate) log: ScheduleLog,
}

/// The realized schedule: every decision the installed [`DeliveryOrder`]
/// made, keyed deterministically.
#[derive(Default)]
pub struct ScheduleLog {
    puts: Mutex<BTreeMap<PutKey, bool>>,
    rmws: Mutex<BTreeMap<RmwKey, u32>>,
    ordinals: Mutex<HashMap<(u32, u64), u32>>,
}

impl ScheduleLog {
    pub(crate) fn record_put(&self, key: PutKey, deferred: bool) {
        self.puts
            .lock()
            .expect("schedule log poisoned")
            .insert(key, deferred);
    }

    pub(crate) fn record_rmw(&self, key: RmwKey, yields: u32) {
        self.rmws
            .lock()
            .expect("schedule log poisoned")
            .insert(key, yields);
    }

    /// Draws the next arrival ordinal for an RMW to `(dst, cell)`.
    pub(crate) fn next_ordinal(&self, dst: u32, cell: u64) -> u32 {
        let mut ords = self.ordinals.lock().expect("schedule log poisoned");
        let slot = ords.entry((dst, cell)).or_insert(0);
        let ordinal = *slot;
        *slot += 1;
        ordinal
    }

    /// The deterministic set of network-put keys this program issued,
    /// sorted — the exhaustive explorer's decision dimensions.
    pub fn put_keys(&self) -> Vec<PutKey> {
        self.puts
            .lock()
            .expect("schedule log poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// Stable hash of the realized schedule (all put and RMW decisions);
    /// two runs explore the same schedule iff their signatures match.
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (&k, &deferred) in self.puts.lock().expect("schedule log poisoned").iter() {
            h = mix64(h ^ put_key_hash(k) ^ deferred as u64);
        }
        for (&k, &yields) in self.rmws.lock().expect("schedule log poisoned").iter() {
            h = mix64(h ^ rmw_key_hash(k) ^ (yields as u64) << 32);
        }
        h
    }
}

/// SplitMix64 finalizer — the deterministic hash behind seeded
/// strategies and schedule signatures.
#[inline]
fn mix64(mut x: u64) -> u64 {
    fcc_sim::splitmix64(&mut x)
}

fn put_key_hash(k: PutKey) -> u64 {
    mix64(
        mix64((k.src as u64) << 32 | k.dst as u64)
            ^ mix64(k.byte_offset)
            ^ mix64(k.byte_len.rotate_left(17)),
    )
}

fn rmw_key_hash(k: RmwKey) -> u64 {
    mix64(mix64(k.dst as u64) ^ mix64(k.cell.rotate_left(13)) ^ k.ordinal as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: u32, dst: u32, off: u64, len: u64) -> PutKey {
        PutKey {
            src,
            dst,
            byte_offset: off,
            byte_len: len,
        }
    }

    #[test]
    fn seeded_order_is_deterministic_and_seed_sensitive() {
        let k = key(0, 1, 64, 256);
        let a = SeededOrder::new(7);
        assert_eq!(a.defer_put(k), a.defer_put(k));
        // Across many seeds both decisions occur.
        let mut seen = [false; 2];
        for seed in 0..64 {
            seen[SeededOrder::new(seed).defer_put(k) as usize] = true;
        }
        assert_eq!(seen, [true, true]);
    }

    #[test]
    fn decision_vector_follows_its_mask() {
        let keys = [key(0, 1, 0, 8), key(0, 1, 8, 8), key(1, 0, 0, 8)];
        let dv = DecisionVector::from_mask(&keys, 0b101, false);
        assert!(dv.defer_put(keys[0]));
        assert!(!dv.defer_put(keys[1]));
        assert!(dv.defer_put(keys[2]));
        // Unknown key takes the default.
        assert!(!dv.defer_put(key(3, 0, 0, 8)));
    }

    #[test]
    fn signature_distinguishes_decision_maps() {
        let log_a = ScheduleLog::default();
        let log_b = ScheduleLog::default();
        for log in [&log_a, &log_b] {
            log.record_put(key(0, 1, 0, 32), false);
        }
        assert_eq!(log_a.signature(), log_b.signature());
        log_b.record_put(key(0, 1, 0, 32), true);
        assert_ne!(log_a.signature(), log_b.signature());
    }

    #[test]
    fn ordinals_count_per_cell() {
        let log = ScheduleLog::default();
        assert_eq!(log.next_ordinal(1, 4), 0);
        assert_eq!(log.next_ordinal(1, 4), 1);
        assert_eq!(log.next_ordinal(1, 5), 0);
        assert_eq!(log.next_ordinal(2, 4), 0);
    }
}
