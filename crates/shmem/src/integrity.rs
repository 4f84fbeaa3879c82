//! Optional wire-integrity layer: per-put checksums on the data plane.
//!
//! Fine-grain GPU-initiated puts bypass the bulk-transfer validation a
//! host-staged pipeline gets for free, so a payload corrupted in flight
//! flows silently into model state. When a world is built
//! [`with_integrity`](crate::ShmemWorld::with_integrity), every ring-path
//! network put carries a 64-bit checksum beside its payload, and the
//! delivery-ring pop re-derives it before copying into the destination
//! arena:
//!
//! * **match** — the copy proceeds and `verified` counts it;
//! * **mismatch** — the copy is *quarantined* (never reaches the arena,
//!   the wire analogue of a link-level CRC failure), `detected` counts
//!   it, and a poison record is parked against the destination PE. The
//!   destination surfaces it as [`ShmemError::Corruption`] at its next
//!   `wait`/fence boundary ([`crate::PeCtx::wait_until_timeout`],
//!   [`crate::PeCtx::check_integrity`]), where resilient operators pick
//!   up the detect → retry → degrade ladder.
//!
//! The layer is strictly pay-for-use, like tracing and the delivery
//! model: a world built without it takes no per-put branch beyond one
//! `Option` test, computes no checksums, and the ring pop copies
//! unconditionally — the zero-cost-when-disabled contract the
//! throughput gate holds the ring path to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::ShmemError;

/// FNV-1a 64 over `bytes`, with 0 remapped so a real checksum is never
/// confused with "no checksum carried".
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// One quarantined delivery: where the corrupt payload was headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoisonRecord {
    /// Absolute destination address the payload never reached.
    addr: usize,
    /// Payload length in bytes.
    len: usize,
}

struct PoisonCell {
    count: AtomicU64,
    records: Mutex<Vec<PoisonRecord>>,
}

/// Counters of the wire-integrity layer, for telemetry and the bench /
/// chaos reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityStats {
    /// Ring-path puts that carried a checksum.
    pub puts: u64,
    /// Ring pops whose checksum matched.
    pub verified: u64,
    /// Ring pops whose checksum mismatched (payload quarantined).
    pub detected: u64,
    /// Poison records not yet surfaced to their destination PE.
    pub pending_poison: u64,
}

/// Shared state of one world's integrity layer.
pub struct IntegrityLayer {
    puts: AtomicU64,
    verified: AtomicU64,
    detected: AtomicU64,
    /// Quarantine, per destination PE.
    poison: Vec<PoisonCell>,
}

impl IntegrityLayer {
    pub(crate) fn new(n_pes: usize) -> IntegrityLayer {
        IntegrityLayer {
            puts: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            poison: (0..n_pes)
                .map(|_| PoisonCell {
                    count: AtomicU64::new(0),
                    records: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Counts one checksummed put.
    pub(crate) fn record_put(&self) {
        self.puts.fetch_add(1, Ordering::Relaxed);
    }

    /// Verifies one popped payload against the checksum it carried.
    /// Returns `true` (copy may proceed) on a match; on a mismatch the
    /// delivery is quarantined against `dst` and `false` is returned.
    pub(crate) fn verify_pop(&self, dst: usize, addr: usize, bytes: &[u8], claimed: u64) -> bool {
        if checksum(bytes) == claimed {
            self.verified.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.detected.fetch_add(1, Ordering::Relaxed);
        self.poison[dst]
            .records
            .lock()
            .expect("poison quarantine poisoned")
            .push(PoisonRecord {
                addr,
                len: bytes.len(),
            });
        // Count published last: a reader that sees it non-zero will find
        // the record under the lock.
        self.poison[dst].count.fetch_add(1, Ordering::Release);
        false
    }

    /// Quarantined deliveries currently pending against `pe` — the cheap
    /// boundary probe (one Acquire load on the hot path).
    #[inline]
    pub(crate) fn poisoned(&self, pe: usize) -> u64 {
        self.poison[pe].count.load(Ordering::Acquire)
    }

    /// Surfaces `pe`'s oldest quarantined delivery as the typed error the
    /// recovery ladder consumes, or `Ok(())` if the quarantine is clear.
    pub(crate) fn surface(&self, pe: usize) -> Result<(), ShmemError> {
        if self.poisoned(pe) == 0 {
            return Ok(());
        }
        let mut records = self.poison[pe]
            .records
            .lock()
            .expect("poison quarantine poisoned");
        if records.is_empty() {
            return Ok(());
        }
        let record = records.remove(0);
        self.poison[pe].count.fetch_sub(1, Ordering::Release);
        Err(ShmemError::Corruption {
            pe,
            addr: record.addr,
            len: record.len,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IntegrityStats {
        IntegrityStats {
            puts: self.puts.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
            detected: self.detected.load(Ordering::Relaxed),
            pending_poison: self
                .poison
                .iter()
                .map(|c| c.count.load(Ordering::Acquire))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_never_zero() {
        let a = checksum(b"fused slice payload");
        assert_eq!(a, checksum(b"fused slice payload"));
        assert_ne!(a, checksum(b"fused slice payloaD"));
        assert_ne!(checksum(&[]), 0);
    }

    #[test]
    fn mismatch_quarantines_and_surfaces_in_order() {
        let layer = IntegrityLayer::new(2);
        assert!(layer.verify_pop(1, 0x100, b"good", checksum(b"good")));
        assert!(!layer.verify_pop(1, 0x200, b"bad", checksum(b"good")));
        assert_eq!(layer.poisoned(1), 1);
        assert_eq!(layer.poisoned(0), 0);
        let err = layer.surface(1).expect_err("poisoned PE must error");
        match err {
            ShmemError::Corruption { pe, addr, len } => {
                assert_eq!((pe, addr, len), (1, 0x200, 3));
            }
            other => panic!("wrong error {other:?}"),
        }
        assert_eq!(layer.surface(1), Ok(()));
        let stats = layer.stats();
        assert_eq!((stats.verified, stats.detected), (1, 1));
        assert_eq!(stats.pending_poison, 0);
    }
}
