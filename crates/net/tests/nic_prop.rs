//! Property tests for the NIC queue-pair model: FIFO, monotonicity, and
//! conservation properties the fused kernel's fence semantics rest on.

use proptest::prelude::*;

use fcc_net::{LinkSpec, Message, MessageKind, Nic};
use fcc_sim::SimTime;

fn msg(bytes: u64, tag: u64) -> Message {
    Message {
        src: 0,
        dst: 1,
        bytes,
        tag,
        kind: MessageKind::Payload,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arrivals never reorder relative to posting order (the property
    /// `PUT(payload); fence; PUT(flag)` depends on), for arbitrary
    /// doorbell times and sizes.
    #[test]
    fn fifo_no_overtaking(
        raw in prop::collection::vec((0u64..10_000, 1u64..1_000_000), 1..40),
    ) {
        let mut posts: Vec<(u64, u64)> = raw;
        posts.sort_by_key(|&(at, _)| at);
        let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
        let mut last_arrival = SimTime::ZERO;
        for (i, &(at, bytes)) in posts.iter().enumerate() {
            let d = nic.post(SimTime::from_nanos(at), msg(bytes, i as u64));
            prop_assert!(d.arrival >= last_arrival, "message {i} overtook");
            prop_assert!(d.arrival > SimTime::from_nanos(at), "arrival before doorbell");
            prop_assert!(d.sq_complete <= d.arrival);
            last_arrival = d.arrival;
        }
        prop_assert_eq!(nic.posted(), posts.len() as u64);
    }

    /// The NIC is never busier than doorbell time + total serialized
    /// occupancy, and never finishes faster than the pure wire time of
    /// all bytes (capacity bounds).
    #[test]
    fn busy_time_bounds(
        sizes in prop::collection::vec(1u64..2_000_000, 1..30),
    ) {
        let link = LinkSpec::infiniband_20gbs();
        let mut nic = Nic::new(link);
        let mut total_occupancy = 0u64;
        let mut busy = 0;
        for (i, &bytes) in sizes.iter().enumerate() {
            busy = nic.post(SimTime::ZERO, msg(bytes, i as u64)).sq_complete.as_nanos();
            total_occupancy += link.occupancy(bytes).as_nanos();
        }
        // Upper bound: doorbell + all occupancies (posts at t=0 queue).
        prop_assert!(busy <= 150 + total_occupancy);
        // Lower bound: total bytes at line rate.
        let wire_floor = (sizes.iter().sum::<u64>() as f64 / link.bandwidth) as u64;
        prop_assert!(busy >= wire_floor);
    }

    /// Splitting a buffer into more messages never reduces NIC busy time
    /// (the Fig. 12 monotonicity: smaller slices cannot be cheaper on the
    /// wire).
    #[test]
    fn fragmentation_never_cheaper(
        total_kib in 64u64..4096,
        pieces_a in 1u64..64,
        pieces_b in 1u64..64,
    ) {
        let (few, many) = if pieces_a <= pieces_b {
            (pieces_a, pieces_b)
        } else {
            (pieces_b, pieces_a)
        };
        let bytes = total_kib * 1024;
        let run = |pieces: u64| {
            let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
            let each = bytes / pieces;
            let mut last = SimTime::ZERO;
            for i in 0..pieces {
                // Last piece carries the remainder so every run moves
                // exactly `bytes` in total.
                let sz = if i + 1 == pieces { bytes - each * (pieces - 1) } else { each };
                last = nic.post(SimTime::ZERO, msg(sz.max(1), i)).sq_complete;
            }
            last
        };
        // Tolerance: each message's occupancy rounds to whole nanoseconds,
        // so a run of `many` pieces can be up to `many` ns "cheaper".
        prop_assert!(
            run(many) + SimTime::from_nanos(many) >= run(few),
            "fragmentation paid off"
        );
    }
}
