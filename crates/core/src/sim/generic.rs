//! Timed simulation for [`crate::op::generic::FusedProducer`] workloads.
//!
//! Level-2 users of the library (see `docs/TUTORIAL.md`) implement
//! `FusedProducer` once and get the functional operator for free; this
//! module gives them the *pricing* side with the same contract plus one
//! extra method — how many bytes each item moves through memory — so a
//! design can be tuned on the simulator before it is built. The price is
//! the plan's own protocol: the same slice table, task order and per-item
//! step, on the timed backend.

use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::{PersistentExec, TaskUnit, WgPlan};
use fcc_gpu::kernel::KernelResources;
use fcc_net::Topology;
use fcc_shmem::timed::TimedEndpoint;
use fcc_sim::{SimTime, Timeline};

use crate::op::generic::{FusedProducer, GenericFusedPlan};
use crate::sim::timed::{persistent_wgs, Timed, Wire};
use crate::sim::FusedTuning;

/// Cost annotations for a producer: how much work each item is.
pub trait ProducerCost: FusedProducer {
    /// HBM bytes item `(me, item)` moves (reads + writes) — the
    /// processor-sharing work unit.
    fn work_bytes(&self, me: usize, item: usize) -> f64;

    /// Kernel resource footprint (defaults to the fused embedding
    /// kernel's: 256 threads, SHMEM-context register pressure).
    fn resources(&self) -> KernelResources {
        KernelResources::embedding_fused()
    }
}

/// Outcome of pricing a producer on a system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenericTiming {
    /// Fused: persistent kernel with slice-granular PUTs.
    pub fused: SimTime,
    /// Unfused: full computation, then every slice shipped bulk.
    pub unfused: SimTime,
}

/// Prices a producer's fused vs unfused execution for source PE `me` of
/// an `n_pes` world (symmetric workloads need only one PE's number).
///
/// The fused side steps the protocol over the very slice table and task
/// order a [`GenericFusedPlan`] with `items_per_slice` executes, and ends
/// when PE `me`'s compute has drained and its own slices have arrived.
pub fn price_producer(
    producer: &(impl ProducerCost + ?Sized),
    me: usize,
    n_pes: usize,
    gpu: &GpuConfig,
    topo: &Topology,
    items_per_slice: usize,
    tuning: &FusedTuning,
) -> GenericTiming {
    let (table, tasks) = GenericFusedPlan::slicing(n_pes, producer, items_per_slice);
    let n_items = producer.num_items(me);
    let n_persistent = persistent_wgs(gpu, &producer.resources(), None, n_items) as usize;
    // Strided deal of `(task id, item)`s onto the persistent WGs.
    let deal = |tasks: &mut dyn Iterator<Item = (u64, usize)>| {
        let mut plans = vec![WgPlan::default(); n_persistent];
        for (i, (id, item)) in tasks.enumerate() {
            let work = producer.work_bytes(me, item);
            plans[i % n_persistent].tasks.push(TaskUnit { id, work });
        }
        plans
    };

    // Fused: the plan's remote-first tasks, PUTs overlapped through the NIC.
    let timed = Timed::new(&table, producer.dim(), *tuning, topo);
    let mut pe = timed.pe(me, Timeline::disabled());
    let plans = deal(&mut tasks[me].iter().map(|&t| (t, table.step_of(me, t).1)));
    let compute = timed.run(gpu, plans, None, &mut pe).makespan;
    let mut wire = Wire::new(*topo.link(), None, 1);
    let last_arrival = pe.puts.iter().fold(SimTime::ZERO, |last, (issue, s)| {
        let (_, flag) = wire.publish(*issue, s, timed.payload_bytes(s));
        last.max(flag.arrival)
    });
    let fused = gpu.kernel_launch_overhead
        + compute.max(last_arrival)
        + timed.p2p_tail(&pe, compute)
        + tuning.drain_poll;

    // Unfused: same compute (no per-slice overheads), then bulk shipping.
    let hbm = gpu.hbm.clone();
    let plans = deal(&mut (0..n_items).map(|item| (item as u64, item)));
    let compute_only = PersistentExec::new(move |n| hbm.aggregate(n), plans)
        .run(|_| SimTime::ZERO)
        .makespan;
    let mut ep = TimedEndpoint::new(me as u32, *topo.link());
    let mut bulk_done = compute_only;
    for s in table.slices(me).iter().filter(|s| s.dst != me) {
        let bytes = timed.payload_bytes(s);
        let d = ep.put_nbi(compute_only, s.dst as u32, bytes, s.index as u64);
        bulk_done = bulk_done.max(d.arrival);
    }
    let unfused = gpu.kernel_launch_overhead
        + bulk_done
        + gpu.stream_sync_overhead
        + gpu.stream_sync_overhead;

    GenericTiming { fused, unfused }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::generic::FusedProducer;
    use fcc_net::presets;

    /// A uniform exchange producer with tunable compute weight.
    struct Uniform {
        n_pes: usize,
        items_per_dst: usize,
        dim: usize,
        bytes_per_item: f64,
    }

    impl FusedProducer for Uniform {
        fn dim(&self) -> usize {
            self.dim
        }
        fn num_items(&self, _me: usize) -> usize {
            self.n_pes * self.items_per_dst
        }
        fn output_len(&self) -> usize {
            self.n_pes * self.items_per_dst * self.dim
        }
        fn destination(&self, me: usize, item: usize) -> (usize, usize) {
            (
                item / self.items_per_dst,
                (me * self.items_per_dst + item % self.items_per_dst) * self.dim,
            )
        }
        fn produce(&self, _me: usize, _item: usize, _out: &mut [f32]) {
            unreachable!("timing-only test producer")
        }
    }

    impl ProducerCost for Uniform {
        fn work_bytes(&self, _me: usize, _item: usize) -> f64 {
            self.bytes_per_item
        }
    }

    fn producer(balanced: bool) -> Uniform {
        Uniform {
            n_pes: 2,
            items_per_dst: 4096,
            dim: 256,
            // Balanced: compute ≈ wire. Tiny: compute ≪ wire.
            bytes_per_item: if balanced { 45_056.0 } else { 64.0 },
        }
    }

    #[test]
    fn fused_wins_when_compute_can_hide_wire() {
        let p = producer(true);
        let t = price_producer(
            &p,
            0,
            2,
            &GpuConfig::mi210(),
            &presets::dual_node_ib(),
            32,
            &FusedTuning::default(),
        );
        assert!(
            t.fused < t.unfused,
            "fused {} !< unfused {}",
            t.fused,
            t.unfused
        );
    }

    #[test]
    fn no_compute_means_no_hiding() {
        // With negligible compute there is nothing to overlap: fused can
        // not beat unfused by more than the (tiny) compute, and per-slice
        // overheads may even make it slower.
        let p = producer(false);
        let t = price_producer(
            &p,
            0,
            2,
            &GpuConfig::mi210(),
            &presets::dual_node_ib(),
            32,
            &FusedTuning::default(),
        );
        let gain = t.unfused.as_nanos_f64() - t.fused.as_nanos_f64();
        assert!(
            gain < 0.15 * t.unfused.as_nanos_f64(),
            "implausible gain with no compute to hide"
        );
    }

    #[test]
    fn slice_width_sweeps_match_fig12_shape() {
        let p = producer(true);
        let at = |slice| {
            price_producer(
                &p,
                0,
                2,
                &GpuConfig::mi210(),
                &presets::dual_node_ib(),
                slice,
                &FusedTuning::default(),
            )
            .fused
        };
        let tiny = at(1);
        let wide = at(64);
        assert!(tiny >= wide, "tiny slices cannot be faster");
    }

    #[test]
    fn pricing_is_deterministic() {
        let p = producer(true);
        let run = || {
            price_producer(
                &p,
                0,
                2,
                &GpuConfig::mi210(),
                &presets::dual_node_ib(),
                16,
                &FusedTuning::default(),
            )
        };
        assert_eq!(run(), run());
    }
}
