//! Protocol event trace — the raw material the invariant checker reads.
//!
//! When enabled ([`crate::ShmemWorld::with_trace`]), every protocol-level
//! operation appends one event to a global, mutex-serialized log. Events
//! from one PE appear in that PE's program order (each PE appends from
//! its own call sites); events from different PEs interleave in some
//! legal order. The invariants `fcc-check` evaluates are chosen to be
//! sound under exactly that guarantee — they compare events within one
//! PE, or per flag cell where the trace order is resolved by the atomic
//! op itself (`prev` values).
//!
//! The `unfenced` field on [`TraceEvent::FlagStore`] counts network puts
//! this issuing thread posted to the flag's PE since its last ordering
//! point, deferred or not; it is maintained whenever the trace is on.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use fcc_sim::time::SimTime;
use fcc_telemetry::TraceCtx;

thread_local! {
    /// The causal context ambient on this thread — what every recorded
    /// protocol event and flight-recorder slot is stamped with. Seeded at
    /// unit-of-work boundaries (operators mint a step context, the serving
    /// loop a request context) and re-seeded inside each rayon task, so
    /// fresh worker threads inherit the right origin. Defaults to
    /// [`TraceCtx::NONE`], which the fcc-check ctx invariant treats as an
    /// orphan on operator protocol paths.
    static AMBIENT_CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
}

/// The causal context currently ambient on this thread.
#[inline]
pub fn current_ctx() -> TraceCtx {
    AMBIENT_CTX.with(Cell::get)
}

/// Replaces the ambient context, returning the previous one.
#[inline]
fn set_ctx(ctx: TraceCtx) -> TraceCtx {
    AMBIENT_CTX.with(|c| c.replace(ctx))
}

/// Installs `ctx` as the ambient context until the returned guard drops,
/// then restores whatever was ambient before.
#[inline]
pub fn scoped_ctx(ctx: TraceCtx) -> CtxScope {
    CtxScope { prev: set_ctx(ctx) }
}

/// RAII guard of [`scoped_ctx`] — restores the previous ambient context
/// on drop.
#[must_use = "dropping the guard immediately restores the previous context"]
pub struct CtxScope {
    prev: TraceCtx,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        set_ctx(self.prev);
    }
}

/// One protocol-level operation, as observed by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A data put was issued.
    Put {
        /// Issuing PE.
        src: usize,
        /// Destination PE.
        dst: usize,
        /// Destination byte offset.
        byte_offset: usize,
        /// Length in bytes.
        byte_len: usize,
        /// Whether the put crossed the network (not self, not P2P).
        network: bool,
        /// Whether it was deferred into its delivery ring (rather than
        /// delivered inline).
        deferred: bool,
    },
    /// A deferred put landed at an ordering point.
    PutDelivered {
        /// Issuing PE.
        src: usize,
        /// Destination PE.
        dst: usize,
        /// Destination byte offset.
        byte_offset: usize,
    },
    /// `fence()` on `pe` — orders that thread's prior puts.
    Fence {
        /// Fencing PE.
        pe: usize,
    },
    /// `quiet()`/`quiet_timeout()` drained `pe`'s outstanding puts.
    Quiet {
        /// Draining PE.
        pe: usize,
    },
    /// `barrier_all()` entry on `pe`.
    Barrier {
        /// Arriving PE.
        pe: usize,
    },
    /// A flag store (the `sliceRdy`-style publication).
    FlagStore {
        /// Storing PE.
        src: usize,
        /// PE owning the flag cell.
        dst: usize,
        /// Global flag word index on `dst`'s arena.
        cell: u64,
        /// Value stored.
        value: u64,
        /// Network puts `src`'s issuing thread had posted to `dst` and
        /// not yet fenced when the flag was stored. Non-zero means the
        /// protocol published readiness for data still legally in
        /// flight.
        unfenced: u64,
    },
    /// A flag RMW (`fetch_or`/`fetch_add`).
    FlagRmw {
        /// RMW flavor.
        op: RmwOp,
        /// Issuing PE.
        src: usize,
        /// PE owning the flag cell.
        dst: usize,
        /// Global flag word index on `dst`'s arena.
        cell: u64,
        /// Operand (bits for `or`, delta for `add`).
        operand: u64,
        /// Value the cell held before the RMW.
        prev: u64,
    },
    /// A wait on a local flag completed.
    FlagWait {
        /// Waiting PE.
        pe: usize,
        /// Global flag word index.
        cell: u64,
        /// Value that satisfied the predicate.
        value: u64,
    },
    /// `pe` raised its tombstone — it must issue no writes after this.
    Tombstone {
        /// The dying PE.
        pe: usize,
    },
    /// `pe` crossed an integrity boundary (`wait`/fence/explicit check).
    /// `consumed: true` means the PE went on to read payload despite a
    /// non-empty poison quarantine — the checker flags exactly that; an
    /// honest runtime always records `consumed: false` and surfaces
    /// [`crate::ShmemError::Corruption`] instead.
    IntegrityGate {
        /// The PE at the boundary.
        pe: usize,
        /// Quarantined deliveries pending against `pe` at the boundary.
        poisoned: u64,
        /// Whether the PE consumed payload past this boundary anyway.
        consumed: bool,
    },
}

/// Which RMW a [`TraceEvent::FlagRmw`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// `fetch_or` — the `WG_Done` bitmask update.
    Or,
    /// `fetch_add` — arrival counters, heartbeats.
    Add,
}

/// A protocol event plus the instant it was recorded.
///
/// The timestamp is wall-clock time since the trace was created, mapped
/// onto [`SimTime`] so the telemetry exporters can merge protocol events
/// with virtual-clock spans (the two clock *domains* stay distinct — see
/// DESIGN.md §9 — but share one representation and unit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Nanoseconds since the trace epoch (trace creation).
    pub at: SimTime,
    /// Causal context ambient on the issuing thread when the event was
    /// recorded ([`TraceCtx::NONE`] outside any attributed unit of work).
    pub ctx: TraceCtx,
    /// The protocol operation observed.
    pub event: TraceEvent,
}

/// Append-only event log shared by all PE threads.
pub struct ProtocolTrace {
    events: Mutex<Vec<TimedEvent>>,
    epoch: Instant,
}

impl Default for ProtocolTrace {
    fn default() -> ProtocolTrace {
        ProtocolTrace {
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }
}

impl ProtocolTrace {
    fn now(&self) -> SimTime {
        let ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        SimTime::from_nanos(ns)
    }

    pub(crate) fn record(&self, event: TraceEvent) {
        self.record_with(event, current_ctx());
    }

    /// Records `event` under an explicit context instead of the ambient
    /// one — for events materialized away from their issuing thread (a
    /// deferred put drained at another thread's ordering point keeps its
    /// issue-time attribution).
    pub(crate) fn record_with(&self, event: TraceEvent, ctx: TraceCtx) {
        let at = self.now();
        self.events
            .lock()
            .expect("trace poisoned")
            .push(TimedEvent { at, ctx, event });
    }

    /// Drains the recorded events, dropping timestamps (the invariant
    /// checker compares program order, not wall time).
    pub fn take(&self) -> Vec<TraceEvent> {
        self.take_timed().into_iter().map(|t| t.event).collect()
    }

    /// Drains the recorded events with their epoch-relative timestamps.
    pub fn take_timed(&self) -> Vec<TimedEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_drains() {
        let t = ProtocolTrace::default();
        assert!(t.is_empty());
        t.record(TraceEvent::Fence { pe: 3 });
        t.record(TraceEvent::Tombstone { pe: 1 });
        assert_eq!(t.len(), 2);
        let events = t.take();
        assert_eq!(events[0], TraceEvent::Fence { pe: 3 });
        assert_eq!(events[1], TraceEvent::Tombstone { pe: 1 });
        assert!(t.is_empty());
    }

    #[test]
    fn timed_take_preserves_order_and_monotone_stamps() {
        let t = ProtocolTrace::default();
        t.record(TraceEvent::Fence { pe: 0 });
        t.record(TraceEvent::Quiet { pe: 0 });
        let events = t.take_timed();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, TraceEvent::Fence { pe: 0 });
        assert!(events[0].at <= events[1].at, "stamps monotone in log order");
        assert!(t.is_empty());
    }

    #[test]
    fn events_carry_the_ambient_ctx() {
        let t = ProtocolTrace::default();
        t.record(TraceEvent::Fence { pe: 0 });
        {
            let _g = scoped_ctx(TraceCtx::request(9));
            t.record(TraceEvent::Quiet { pe: 0 });
        }
        t.record(TraceEvent::Barrier { pe: 0 });
        let events = t.take_timed();
        assert_eq!(events[0].ctx, TraceCtx::NONE);
        assert_eq!(events[1].ctx, TraceCtx::request(9));
        assert_eq!(events[2].ctx, TraceCtx::NONE, "scope restored on drop");
    }

    #[test]
    fn scoped_ctx_nests_and_restores() {
        assert_eq!(current_ctx(), TraceCtx::NONE);
        let outer = scoped_ctx(TraceCtx::step(1));
        {
            let _inner = scoped_ctx(TraceCtx::step(1).with_slice(4));
            assert_eq!(current_ctx().slice(), Some(4));
        }
        assert_eq!(current_ctx(), TraceCtx::step(1));
        drop(outer);
        assert_eq!(current_ctx(), TraceCtx::NONE);
    }
}
