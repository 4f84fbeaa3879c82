//! Steady-state allocation discipline for both fabric simulators,
//! matching the zero-alloc data-plane discipline from the delivery-ring
//! work: per-chunk / per-hop event processing must not allocate.
//!
//! The routing hot path (`FabricModel::next_hop`) used to build a
//! `Vec<u32>` of candidate hops for every chunk at every hop — an
//! allocation count scaling with `chunks x hops`. It now uses a fixed
//! stack buffer (`routes::HopBuf`), so growing a message from 4 chunks
//! to 256 chunks (64x the events) must leave the allocation count
//! within a small additive band (container doublings, not per-event
//! work). The flow engine's event count is independent of bytes
//! entirely, so its allocation count must not move at all.
//!
//! The whole measurement lives in one `#[test]` so no concurrent test
//! thread pollutes the global counter.

use fcc_net::fabric::{simulate, Injection};
use fcc_net::{FlowFabric, LinkSpec, Topology};
use fcc_sim::SimTime;
use fcc_telemetry::alloc_count::{allocs_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// All-pairs batch on a 4x4 torus with `bytes` per message.
fn batch(topo: &Topology, bytes: u64) -> Vec<Injection> {
    let n = topo.endpoints();
    let mut out = Vec::new();
    let mut tag = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                out.push(Injection {
                    at: SimTime::ZERO,
                    src,
                    dst,
                    bytes,
                    tag,
                });
                tag += 1;
            }
        }
    }
    out
}

#[test]
fn steady_state_allocations_do_not_scale_with_events() {
    let topo = Topology::Torus2D {
        dims: (4, 4),
        link: LinkSpec::torus_200gbps(),
    };
    // 240 messages; 4 chunks/message at 64 KiB vs 256 chunks/message at
    // 4 MiB -> 64x the chunk-hop events for the same link/flow counts.
    let small = batch(&topo, 64 * 1024);
    let large = batch(&topo, 4 * 1024 * 1024);
    let small_chunks = 240u64 * 4;
    let large_chunks = 240u64 * 256;

    // Warm up once so lazy one-time setup is off the books.
    simulate(&topo, &small);

    let (packet_small, d1) = allocs_during(|| simulate(&topo, &small));
    let (packet_large, d2) = allocs_during(|| simulate(&topo, &large));
    assert_eq!(d1.len(), 240);
    assert_eq!(d2.len(), 240);
    let extra = packet_large.saturating_sub(packet_small);
    // The old per-hop candidate Vec cost >= chunks x hops extra
    // allocations here (~150k). Container doubling across a 64x larger
    // event heap costs a few dozen. Anything scaling with the extra
    // chunk count (let alone chunk x hop) must fail.
    assert!(
        extra < (large_chunks - small_chunks) / 64,
        "packet sim allocations scale with events: {packet_small} allocs at \
         {small_chunks} chunks vs {packet_large} at {large_chunks}"
    );

    // The flow engine's event count is byte-independent: same flows,
    // 64x the bytes, identical allocation profile.
    let fast = FlowFabric::new();
    fast.run_checked(&topo, &small).expect("clean");
    let (flow_small, r1) = allocs_during(|| fast.run_checked(&topo, &small));
    let (flow_large, r2) = allocs_during(|| fast.run_checked(&topo, &large));
    assert_eq!(r1.expect("clean").0.len(), 240);
    assert_eq!(r2.expect("clean").0.len(), 240);
    assert!(
        flow_large <= flow_small + 8,
        "flow engine allocations moved with bytes: {flow_small} -> {flow_large}"
    );
}
