//! Allocation contract of the flight recorder, asserted with a counting
//! global allocator (the same pattern as `fabric_alloc.rs` in fcc-net
//! and the `--alloc-check` gates in the bench binaries).
//!
//! Two halves of one contract:
//!
//! * **disabled is zero-cost** — a disabled recorder's `record` is one
//!   branch: no allocation, no slot traffic, nothing retained;
//! * **enabled is allocation-free in steady state** — after
//!   construction, recording any number of events allocates nothing
//!   (ticket `fetch_add` + six atomic stores per record).
//!
//! Both measurements share one `#[test]` because the counter is global:
//! a sibling test allocating on another thread would pollute the window.

use fcc_telemetry::alloc_count::{allocs_during, CountingAlloc};
use fcc_telemetry::{FlightKind, FlightRecorder, TraceCtx};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn record_burst(r: &FlightRecorder, n: u64) -> u64 {
    let burst = || {
        for i in 0..n {
            r.record(
                FlightKind::NetPut,
                TraceCtx::step(1).with_slice(i & 0xFFFF),
                i % 4,
                64,
            );
        }
    };
    allocs_during(burst).0
}

#[test]
fn flight_recorder_allocation_contract() {
    // Disabled: zero-cost — no allocation, nothing recorded.
    let disabled = FlightRecorder::disabled();
    let disabled_allocs = record_burst(&disabled, 10_000);
    assert_eq!(
        disabled_allocs, 0,
        "a disabled recorder must not allocate on the record path"
    );
    assert_eq!(disabled.recorded(), 0, "disabled recorder retained events");

    // Enabled: construction may allocate (the slot ring); the steady
    // state must not — wrap-around included (capacity 256 << 10_000
    // records), so overwrites are covered too.
    let enabled = FlightRecorder::enabled(256);
    record_burst(&enabled, 512); // warm-up: first lap of the ring
    let steady_allocs = record_burst(&enabled, 10_000);
    assert_eq!(
        steady_allocs, 0,
        "an enabled recorder must be allocation-free in steady state"
    );
    assert_eq!(enabled.recorded(), 10_512);

    // The window survived the bursts and still decodes.
    let snap = enabled.snapshot();
    assert_eq!(snap.len(), 256, "full ring decodes");
    assert!(snap.iter().all(|e| e.kind == FlightKind::NetPut));
}
