//! The recovery bookkeeping of the resilient operator.
//!
//! [`RecoveryPolicy`] and [`RecoveryCounters`] belong to the
//! fault-recovery path ([`crate::op::ResilientFusedPlan`]): the policy
//! bounds how long a PE waits on a `sliceRdy` flag and how often a lost
//! slice PUT is re-issued; the counters make every timeout, retry, and
//! degraded-mode fallback observable to callers and tests. (The `WG_Done`
//! last-finisher election itself is the protocol step's, in
//! `op/protocol.rs`, shared by both clocks.)

use std::time::Duration;

use fcc_telemetry::{Counter, Registry};

/// Timeout and bounded-retry knobs for the resilient fused operator.
///
/// The drain phase waits `slice_timeout` per `sliceRdy` poll; a sender
/// whose slice PUT is lost backs off `backoff(attempt)` before re-issuing.
/// After `max_retries` unsuccessful attempts (on either side) the run
/// degrades to the host-initiated bulk All-to-All fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Deadline for one `sliceRdy` wait before it counts as a timeout.
    pub slice_timeout: Duration,
    /// Re-issues (sender) / re-polls (receiver) before giving up.
    pub max_retries: u32,
    /// First retry backoff; grows geometrically per attempt.
    pub backoff_base: Duration,
    /// Multiplier applied to the backoff per further attempt.
    pub backoff_growth: u32,
}

impl Default for RecoveryPolicy {
    /// Generous defaults: a healthy run never trips them, an unhealthy
    /// run degrades in tens of milliseconds.
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            slice_timeout: Duration::from_millis(50),
            max_retries: 3,
            backoff_base: Duration::from_micros(100),
            backoff_growth: 2,
        }
    }
}

impl RecoveryPolicy {
    /// Overrides the per-wait deadline.
    pub fn with_slice_timeout(mut self, timeout: Duration) -> RecoveryPolicy {
        self.slice_timeout = timeout;
        self
    }

    /// Overrides the retry bound.
    pub fn with_max_retries(mut self, retries: u32) -> RecoveryPolicy {
        self.max_retries = retries;
        self
    }

    /// Overrides the backoff schedule.
    pub fn with_backoff(mut self, base: Duration, growth: u32) -> RecoveryPolicy {
        self.backoff_base = base;
        self.backoff_growth = growth;
        self
    }

    /// Exponential backoff before retry `attempt` (0-based):
    /// `base × growth^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.backoff_base
            .saturating_mul(self.backoff_growth.saturating_pow(attempt))
    }
}

/// Shared, thread-safe recovery counters.
///
/// One instance is shared by every PE of a run (the handles are plain
/// relaxed atomics — ordering does not matter for monitoring counts), so
/// a test or caller observes the whole team's recovery activity in one
/// place.
///
/// Since the telemetry migration these are named metrics in an
/// [`fcc_telemetry::Registry`] (`recovery.retries`, `recovery.timeouts`,
/// … — see [`RecoveryCounters::METRICS`]). [`RecoveryCounters::new`]
/// keeps the old self-contained behaviour by owning a private registry;
/// [`RecoveryCounters::in_registry`] shares the caller's, so the counts
/// appear in that registry's snapshots and merged traces.
#[derive(Debug, Clone)]
pub struct RecoveryCounters {
    retries: Counter,
    timeouts: Counter,
    delayed: Counter,
    fallbacks: Counter,
    corruptions: Counter,
    corrupt_detected: Counter,
    reverifies: Counter,
    corrupt_repaired: Counter,
    detections: Counter,
    reconfigurations: Counter,
    restores: Counter,
    replayed_steps: Counter,
    checkpoints: Counter,
}

impl Default for RecoveryCounters {
    fn default() -> RecoveryCounters {
        RecoveryCounters::new()
    }
}

/// A point-in-time copy of [`RecoveryCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Slice PUTs re-issued after a lost attempt.
    pub retries: u64,
    /// `sliceRdy` waits that hit their deadline.
    pub timeouts: u64,
    /// Slice PUTs delivered late due to an injected delay.
    pub delayed: u64,
    /// PE-level degraded-mode fallbacks taken (one per PE per degraded
    /// execution).
    pub fallbacks: u64,
    /// Corrupted slice transmissions injected on the sender side.
    pub corruptions: u64,
    /// Corruptions the receiver detected — a wire-checksum quarantine
    /// surfaced at a wait boundary, or a fused (ABFT) slice-checksum
    /// mismatch at drain.
    pub corrupt_detected: u64,
    /// ABFT re-verification polls spent waiting for a clean re-put to
    /// overwrite a corrupted slice.
    pub reverifies: u64,
    /// Corrupted slices repaired in place (the re-verify converged on the
    /// sender's clean go-back-N re-put, without a bulk fallback).
    pub corrupt_repaired: u64,
    /// Dead-peer verdicts raised by the lease detector (one per PE per
    /// peer it caught dead).
    pub detections: u64,
    /// Membership reconfigurations completed (one per PE per epoch
    /// change it participated in).
    pub reconfigurations: u64,
    /// Embedding tables restored from checkpoint onto a new owner.
    pub restores: u64,
    /// Optimizer steps replayed on restored tables to catch up to the
    /// committed state.
    pub replayed_steps: u64,
    /// Table checkpoints saved to the vault.
    pub checkpoints: u64,
}

impl RecoveryCounters {
    /// The registry metric names, in [`RecoverySnapshot`] field order.
    pub const METRICS: [&'static str; 13] = [
        "recovery.retries",
        "recovery.timeouts",
        "recovery.delayed",
        "recovery.fallbacks",
        "recovery.corruptions",
        "recovery.corrupt_detected",
        "recovery.reverifies",
        "recovery.corrupt_repaired",
        "recovery.detections",
        "recovery.reconfigurations",
        "recovery.restores",
        "recovery.replayed_steps",
        "recovery.checkpoints",
    ];

    /// Fresh zeroed counters backed by a private registry (the historical
    /// self-contained behaviour).
    pub fn new() -> RecoveryCounters {
        RecoveryCounters::in_registry(&Registry::enabled())
    }

    /// Counters registered in `registry` under the `recovery.*` names, so
    /// snapshots and merged traces of that registry see them. With a
    /// disabled registry every record is a no-op and the snapshot is
    /// all-zero.
    pub fn in_registry(registry: &Registry) -> RecoveryCounters {
        let c = |name: &str| registry.counter(name, &[]);
        RecoveryCounters {
            retries: c("recovery.retries"),
            timeouts: c("recovery.timeouts"),
            delayed: c("recovery.delayed"),
            fallbacks: c("recovery.fallbacks"),
            corruptions: c("recovery.corruptions"),
            corrupt_detected: c("recovery.corrupt_detected"),
            reverifies: c("recovery.reverifies"),
            corrupt_repaired: c("recovery.corrupt_repaired"),
            detections: c("recovery.detections"),
            reconfigurations: c("recovery.reconfigurations"),
            restores: c("recovery.restores"),
            replayed_steps: c("recovery.replayed_steps"),
            checkpoints: c("recovery.checkpoints"),
        }
    }

    /// Records one re-issued slice PUT.
    pub fn record_retry(&self) {
        self.retries.inc();
    }

    /// Records one `sliceRdy` wait deadline hit.
    pub fn record_timeout(&self) {
        self.timeouts.inc();
    }

    /// Records one delayed (but delivered) slice PUT.
    pub fn record_delay(&self) {
        self.delayed.inc();
    }

    /// Records one PE falling back to the bulk collective.
    pub fn record_fallback(&self) {
        self.fallbacks.inc();
    }

    /// Records one corrupted slice transmission injected at the sender.
    pub fn record_corruption(&self) {
        self.corruptions.inc();
    }

    /// Records one receiver-side corruption detection (wire quarantine or
    /// ABFT mismatch).
    pub fn record_corrupt_detected(&self) {
        self.corrupt_detected.inc();
    }

    /// Records one ABFT re-verification poll.
    pub fn record_reverify(&self) {
        self.reverifies.inc();
    }

    /// Records one corrupted slice repaired in place by a clean re-put.
    pub fn record_corrupt_repaired(&self) {
        self.corrupt_repaired.inc();
    }

    /// Records one dead-peer verdict.
    pub fn record_detection(&self) {
        self.detections.inc();
    }

    /// Records one completed membership reconfiguration.
    pub fn record_reconfiguration(&self) {
        self.reconfigurations.inc();
    }

    /// Records one table restored from checkpoint, with the number of
    /// optimizer steps replayed to reach the committed state.
    pub fn record_restore(&self, replayed_steps: u64) {
        self.restores.inc();
        self.replayed_steps.add(replayed_steps);
    }

    /// Records one table checkpoint saved.
    pub fn record_checkpoint(&self) {
        self.checkpoints.inc();
    }

    /// Copies the current counts.
    pub fn snapshot(&self) -> RecoverySnapshot {
        RecoverySnapshot {
            retries: self.retries.value(),
            timeouts: self.timeouts.value(),
            delayed: self.delayed.value(),
            fallbacks: self.fallbacks.value(),
            corruptions: self.corruptions.value(),
            corrupt_detected: self.corrupt_detected.value(),
            reverifies: self.reverifies.value(),
            corrupt_repaired: self.corrupt_repaired.value(),
            detections: self.detections.value(),
            reconfigurations: self.reconfigurations.value(),
            restores: self.restores.value(),
            replayed_steps: self.replayed_steps.value(),
            checkpoints: self.checkpoints.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically() {
        let p = RecoveryPolicy::default().with_backoff(Duration::from_micros(100), 2);
        assert_eq!(p.backoff(0), Duration::from_micros(100));
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(3), Duration::from_micros(800));
        // Saturates instead of overflowing.
        let _ = p.backoff(u32::MAX);
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let c = RecoveryCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        c.record_retry();
                        c.record_timeout();
                    }
                    c.record_delay();
                    c.record_fallback();
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(
            (snap.retries, snap.timeouts, snap.delayed, snap.fallbacks),
            (400, 400, 4, 4)
        );
    }

    #[test]
    fn counters_surface_as_named_registry_metrics() {
        let registry = Registry::enabled();
        let c = RecoveryCounters::in_registry(&registry);
        c.record_retry();
        c.record_retry();
        c.record_restore(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("recovery.retries", &[]), Some(2));
        assert_eq!(snap.counter("recovery.restores", &[]), Some(1));
        assert_eq!(snap.counter("recovery.replayed_steps", &[]), Some(7));
        // Every name in METRICS is registered up front.
        for name in RecoveryCounters::METRICS {
            assert!(snap.counter(name, &[]).is_some(), "missing {name}");
        }
    }

    #[test]
    fn counters_in_disabled_registry_are_noops() {
        let c = RecoveryCounters::in_registry(&Registry::disabled());
        c.record_retry();
        assert_eq!(c.snapshot(), RecoverySnapshot::default());
    }
}
