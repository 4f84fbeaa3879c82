//! Lease/heartbeat failure detection.
//!
//! The persistent-kernel pipeline assumes every PE stays alive for the
//! whole run; a fail-stop crash breaks that silently — survivors just
//! spin on flags nobody will ever write. This module turns silence into
//! a typed verdict:
//!
//! * [`HeartbeatBoard`] — a symmetric flag bank where PE *p* bumps slot
//!   *p* **on its own arena** (single-writer discipline: no contention,
//!   no lost beats) and probers read the slot remotely with Acquire
//!   loads. A beat is one `fetch_add`, cheap enough to sprinkle through
//!   compute loops so a busy PE is never mistaken for a dead one.
//! * [`FailureDetector`] — per-PE lease bookkeeping over the board: a
//!   peer whose counter has not advanced for a whole lease window is
//!   declared fail-stopped, surfacing as [`ShmemError::PeerDead`].
//! * [`DetectionModel`] — the timed interpretation: with beats every
//!   `period` and a lease of `misses` consecutive silent periods,
//!   detection latency after a crash is a pure function of the crash
//!   instant. The astra simulator prices recovery with it.
//!
//! The detector is deliberately *eventually perfect* rather than
//! perfect: a live-but-descheduled peer can be suspected. The membership
//! protocol layered on top (fcc-core) therefore only acts on a verdict
//! after the surviving team *agrees* on it, and probers only consult the
//! detector for peers they are actually blocked on.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use fcc_sim::SimTime;

use crate::ctx::PeCtx;
use crate::error::ShmemError;
use crate::heap::{HeapLayout, SymFlags};

/// Symmetric bank of heartbeat counters, one slot per PE.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatBoard {
    flags: SymFlags,
    n_pes: usize,
}

impl HeartbeatBoard {
    /// Collectively allocates the board for an `n_pes` team.
    pub fn plan(layout: &mut HeapLayout, n_pes: usize) -> HeartbeatBoard {
        HeartbeatBoard {
            flags: layout.alloc_flags(n_pes),
            n_pes,
        }
    }

    /// Bumps this PE's own heartbeat counter (slot `me` on arena `me`).
    /// Release-ordered, so a beat also publishes all prior writes.
    #[inline]
    pub fn beat(&self, ctx: &PeCtx<'_>) {
        ctx.flag_fetch_add(self.flags, ctx.me(), 1, ctx.me());
    }

    /// Reads `peer`'s heartbeat counter from `peer`'s arena.
    #[inline]
    pub fn read(&self, ctx: &PeCtx<'_>, peer: usize) -> u64 {
        assert!(peer < self.n_pes, "peer {peer} out of range");
        ctx.flag_load(self.flags, peer, peer)
    }
}

/// What a probe concluded about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The peer's heartbeat advanced within the lease window.
    Alive,
    /// The peer has been silent for a whole lease window.
    Dead {
        /// How long the heartbeat has been frozen.
        silent_for: Duration,
        /// The last counter value observed.
        last_beat: u64,
    },
}

/// One PE's lease bookkeeping over a [`HeartbeatBoard`].
///
/// Tracks, per peer, the last counter value seen and when it last
/// *changed*; a peer frozen longer than `lease` is declared dead. The
/// clock for "last changed" starts at the first probe of that peer, so
/// setup time before the probing loop never counts against the lease.
pub struct FailureDetector {
    lease: Duration,
    state: Mutex<Vec<(u64, Option<Instant>)>>,
}

impl FailureDetector {
    /// A detector for an `n_pes` team with the given lease window.
    pub fn new(n_pes: usize, lease: Duration) -> FailureDetector {
        FailureDetector {
            lease,
            state: Mutex::new(vec![(0, None); n_pes]),
        }
    }

    /// The lease window.
    pub fn lease(&self) -> Duration {
        self.lease
    }

    /// Probes `peer`'s heartbeat and updates the lease bookkeeping.
    pub fn probe(&self, ctx: &PeCtx<'_>, board: &HeartbeatBoard, peer: usize) -> Verdict {
        let beat = board.read(ctx, peer);
        let now = Instant::now();
        let mut state = self.state.lock().expect("detector state poisoned");
        let entry = &mut state[peer];
        match entry.1 {
            Some(since) if entry.0 == beat => {
                let silent_for = now.duration_since(since);
                if silent_for > self.lease {
                    Verdict::Dead {
                        silent_for,
                        last_beat: beat,
                    }
                } else {
                    Verdict::Alive
                }
            }
            _ => {
                *entry = (beat, Some(now));
                Verdict::Alive
            }
        }
    }

    /// Like [`probe`](Self::probe), but surfaces a dead peer as the
    /// typed [`ShmemError::PeerDead`] verdict resilient code propagates.
    pub fn check(
        &self,
        ctx: &PeCtx<'_>,
        board: &HeartbeatBoard,
        peer: usize,
    ) -> Result<(), ShmemError> {
        match self.probe(ctx, board, peer) {
            Verdict::Alive => Ok(()),
            Verdict::Dead {
                silent_for,
                last_beat,
            } => Err(ShmemError::PeerDead {
                pe: ctx.me(),
                peer,
                silent_for,
                last_beat,
            }),
        }
    }

    /// Forgets everything observed about `peer` — call after the
    /// membership protocol evicts it (or after a controlled rejoin), so
    /// stale lease state never leaks across epochs.
    pub fn forget(&self, peer: usize) {
        let mut state = self.state.lock().expect("detector state poisoned");
        state[peer] = (0, None);
    }
}

/// Deterministic detection-latency model for the timed simulators.
///
/// Beats are emitted at every multiple of `period`; the lease expires
/// after `misses` consecutive silent periods. A beat scheduled exactly
/// at the crash instant is missed (the crash wins the tie), so a crash
/// at time *t* leaves its last beat at `floor(t / period) · period` and
/// is detected at `(floor(t / period) + misses) · period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionModel {
    period: SimTime,
    misses: u32,
}

impl DetectionModel {
    /// A model beating every `period` with a lease of `misses` periods.
    ///
    /// # Panics
    /// Panics if `period` is zero or `misses` is zero.
    pub fn new(period: SimTime, misses: u32) -> DetectionModel {
        assert!(period > SimTime::ZERO, "heartbeat period must be positive");
        assert!(misses > 0, "lease must cover at least one missed beat");
        DetectionModel { period, misses }
    }

    /// The instant a crash at `crash_at` is detected.
    fn detect_at(&self, crash_at: SimTime) -> SimTime {
        let periods = crash_at.as_nanos() / self.period.as_nanos();
        SimTime::from_nanos((periods + self.misses as u64) * self.period.as_nanos())
    }

    /// Detection latency for a crash at `crash_at`: always in
    /// `((misses − 1) · period, misses · period]` — the later within a
    /// period the crash lands, the less of that period is wasted.
    pub fn latency(&self, crash_at: SimTime) -> SimTime {
        self.detect_at(crash_at) - crash_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ShmemWorld;

    #[test]
    fn beats_are_single_writer_and_monotone() {
        let mut layout = HeapLayout::new();
        let board = HeartbeatBoard::plan(&mut layout, 4);
        let world = ShmemWorld::new(4, layout);
        world.run(|ctx| {
            for _ in 0..(ctx.me() + 1) * 10 {
                board.beat(ctx);
            }
            ctx.barrier_all();
            for peer in 0..4 {
                assert_eq!(board.read(ctx, peer), (peer as u64 + 1) * 10);
            }
        });
    }

    #[test]
    fn detector_declares_a_silent_peer_dead() {
        let mut layout = HeapLayout::new();
        let board = HeartbeatBoard::plan(&mut layout, 2);
        let world = ShmemWorld::new(2, layout);
        let lease = Duration::from_millis(20);
        world.run(|ctx| {
            if ctx.me() == 1 {
                // Beat a few times, then fail-stop.
                for _ in 0..3 {
                    board.beat(ctx);
                }
                return;
            }
            let det = FailureDetector::new(2, lease);
            loop {
                board.beat(ctx);
                match det.probe(ctx, &board, 1) {
                    Verdict::Alive => std::thread::yield_now(),
                    Verdict::Dead {
                        silent_for,
                        last_beat,
                    } => {
                        assert!(silent_for > lease, "lease not honoured: {silent_for:?}");
                        assert_eq!(last_beat, 3);
                        let err = det.check(ctx, &board, 1).expect_err("still dead");
                        assert!(matches!(err, ShmemError::PeerDead { pe: 0, peer: 1, .. }));
                        // Eviction resets the bookkeeping.
                        det.forget(1);
                        assert_eq!(det.probe(ctx, &board, 1), Verdict::Alive);
                        return;
                    }
                }
            }
        });
    }

    #[test]
    fn detector_trusts_a_beating_peer() {
        let mut layout = HeapLayout::new();
        let board = HeartbeatBoard::plan(&mut layout, 2);
        let world = ShmemWorld::new(2, layout);
        // Generous lease: a beating peer must never trip it, even if the
        // scheduler hiccups.
        let lease = Duration::from_millis(250);
        world.run(|ctx| {
            let det = FailureDetector::new(2, lease);
            let peer = 1 - ctx.me();
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(40) {
                board.beat(ctx);
                assert_eq!(det.probe(ctx, &board, peer), Verdict::Alive);
            }
            ctx.barrier_all();
        });
    }

    #[test]
    fn detection_model_is_a_pure_function_of_the_crash_instant() {
        let m = DetectionModel::new(SimTime::from_micros(100), 3);
        // Crash mid-period: last beat at 200 µs, detected at 500 µs.
        assert_eq!(
            m.detect_at(SimTime::from_micros(250)),
            SimTime::from_micros(500)
        );
        assert_eq!(
            m.latency(SimTime::from_micros(250)),
            SimTime::from_micros(250)
        );
        // Crash exactly on a beat boundary: that beat is missed.
        assert_eq!(
            m.detect_at(SimTime::from_micros(200)),
            SimTime::from_micros(500)
        );
        assert_eq!(
            m.latency(SimTime::from_micros(200)),
            SimTime::from_micros(300)
        );
        // Latency stays in ((misses − 1)·period, misses·period].
        for ns in (0..1_000_000u64).step_by(7_919) {
            let lat = m.latency(SimTime::from_nanos(ns));
            assert!(lat <= SimTime::from_micros(300));
            assert!(lat > SimTime::from_micros(200));
        }
    }
}
